"""Measure containers on curve complexes, hybrid spaces, and fibers.

Masses are exact fractions wherever the theory pins them down.  Masses the
theory leaves open (total mass of a limit measure of sup type on a positive
genus component) are the distinct UNKNOWN state, which is never conflated
with zero.  Numerical estimates carry an error bar.
"""
from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction

__all__ = [
    "Unknown",
    "UNKNOWN",
    "Estimate",
    "MassValue",
    "mass_add",
    "mass_sum",
    "mass_is_zero",
    "ComponentMeasure",
    "ComponentPoint",
    "EdgePoint",
    "Atom",
    "CCMeasure",
    "HybMeasure",
    "FiberMeasure",
    "ns_descriptor",
    "pb_descriptor",
    "zero_descriptor",
]


class Unknown:
    """Sentinel for a finite but undetermined mass."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "UNKNOWN"


UNKNOWN = Unknown()


@dataclass(frozen=True)
class Estimate:
    """A numerical mass with an error bar."""

    value: float
    error: float


MassValue = object  # Fraction | Unknown | Estimate


def mass_add(a, b):
    if isinstance(a, Unknown) or isinstance(b, Unknown):
        return UNKNOWN
    if isinstance(a, Estimate) or isinstance(b, Estimate):
        av, ae = (a.value, a.error) if isinstance(a, Estimate) else (float(a), 0.0)
        bv, be = (b.value, b.error) if isinstance(b, Estimate) else (float(b), 0.0)
        return Estimate(av + bv, ae + be)
    return a + b


def mass_sum(*groups):
    """Every mass of every group in order, folded left from 0 by ``mass_add``."""
    return functools.reduce(mass_add, itertools.chain.from_iterable(groups), Fraction(0))


def mass_is_zero(v) -> bool:
    if isinstance(v, Unknown):
        return False
    if isinstance(v, Estimate):
        return v.value == 0.0 and v.error == 0.0
    return v == 0


@dataclass(frozen=True)
class ComponentMeasure:
    """Measure carried by one component of the fiber.

    kind is "ns" (sup-type, density against nothing in particular), "pb"
    (kernel-type with exact total h^0) or "zero".  ``bundle`` is the
    BundleDescriptor the measure is built from, None for "zero".
    """

    kind: str
    total: MassValue
    bundle: object = None

    def __post_init__(self):
        if self.kind not in ("ns", "pb", "zero"):
            raise ValueError(f"unknown measure kind {self.kind!r}")
        if self.kind == "zero" and self.total != 0:
            raise ValueError("zero measure must have zero total")


def ns_descriptor(bundle, total=UNKNOWN) -> ComponentMeasure:
    return ComponentMeasure("ns", total, bundle)


def pb_descriptor(bundle, total) -> ComponentMeasure:
    return ComponentMeasure("pb", Fraction(total), bundle)


def zero_descriptor() -> ComponentMeasure:
    return ComponentMeasure("zero", Fraction(0))


@dataclass(frozen=True)
class ComponentPoint:
    """A named smooth point on a component (a collapse location)."""

    component: str
    point: str


@dataclass(frozen=True)
class EdgePoint:
    """An interior point of an edge, at ``position`` from endpoints[0]."""

    edge: str
    position: Fraction


@dataclass(frozen=True)
class Atom:
    location: object  # ComponentPoint | EdgePoint
    mass: MassValue


@dataclass(frozen=True)
class CCMeasure:
    """A measure on the curve complex of a model.

    Component strata carry descriptors, edges carry Lebesgue masses, and
    point atoms (products of pushforwards) are listed separately.
    """

    model: object
    kind: str
    components: dict[str, ComponentMeasure]
    edges: dict[str, Fraction]
    atoms: tuple[Atom, ...] = ()

    def total_mass(self):
        return mass_sum((cm.total for cm in self.components.values()),
                        self.edges.values(), (a.mass for a in self.atoms))


@dataclass(frozen=True)
class HybMeasure:
    """Pushforward to the hybrid space: atoms at vertices, mass on edges."""

    model: object
    kind: str
    vertex_atoms: dict[str, MassValue]
    edges: dict[str, Fraction]
    on_essential_skeleton: bool = True

    def total_mass(self):
        return mass_sum(self.vertex_atoms.values(), self.edges.values())


@dataclass(frozen=True)
class FiberMeasure:
    """Pushforward to the special fiber: edge masses become node atoms."""

    model: object
    kind: str
    components: dict[str, ComponentMeasure]
    node_atoms: dict[str, MassValue]  # keyed by edge id

    def total_mass(self):
        return mass_sum((cm.total for cm in self.components.values()),
                        self.node_atoms.values())
