"""Limit measures on curve complexes and their pushforwards.

For a fixed tensor power m the family of fiberwise measures converges to an
explicit limit on the curve complex of the minimal model: Lebesgue mass
1/(chain length) on every skeleton edge, plus per-component measures whose
totals are dictated by section counts.  For m growing the rescaled limits
concentrate on vertex atoms with purely combinatorial weights.  Every
function reads m from its model; ``model.with_params(m)`` reinterprets a
model at another power.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .bundles import BundleDescriptor, bundle_for, h0
from .errors import InternalConsistencyError, ModelValidationError
from .measures import (
    UNKNOWN,
    CCMeasure,
    FiberMeasure,
    HybMeasure,
    ns_descriptor,
    pb_descriptor,
    zero_descriptor,
)
from .model import (DualGraphModel, arithmetic_genus, is_connected, require_valid,
                    total_mark_degree)
from .reduction import StableDualGraph, _stable_graph, is_minimal

__all__ = [
    "DimensionSummary",
    "dimension_summary",
    "ns_limit_measure",
    "pb_limit_measure",
    "pushforward_to_hyb",
    "pushforward_to_fiber",
    "large_m_limit_fixed_divisor",
    "large_m_limit_fixed_qdivisor",
    "stable_curve_ns_measure",
]


@dataclass(frozen=True)
class DimensionSummary:
    """Global section count M split as skeleton edges plus vertex counts."""

    m: int
    genus: int
    mark_degree: int
    M: int
    skeleton_edges: int
    vertex_h0: dict[str, int]


def dimension_summary(model: DualGraphModel) -> DimensionSummary:
    """Count sections globally and per component, checking the split.

    The model must be minimal (a model with contractible tails raises
    ModelValidationError).  The total (2m-1)(g-1) + deg B must equal the
    number of stable-graph edges plus the per-component section counts; a
    mismatch is a hard internal error, never a tolerance matter.
    """
    require_valid(model)
    if not is_minimal(model):
        raise ModelValidationError(
            "model is not minimal: contract it with minimal_snc_model first; "
            "the section count splits over the minimal model only"
        )
    return _section_split(model)[0]


def _section_split(model: DualGraphModel) -> tuple[
        DimensionSummary, StableDualGraph, dict[str, BundleDescriptor]]:
    """``dimension_summary`` of a valid minimal model, with the stable graph
    and the component bundles it counts from."""
    mm = model.params.m
    g = arithmetic_genus(model)
    deg = total_mark_degree(model)
    M = (2 * mm - 1) * (g - 1) + deg
    sg = _stable_graph(model)
    bundles = {c.id: bundle_for(model, c.id) for c in model.components}
    counts = {cid: h0(b) for cid, b in bundles.items()}
    s = len(sg.chains)
    if M != s + sum(counts.values()):
        raise InternalConsistencyError(
            f"dimension split violated: M={M} but edges={s} and "
            f"component sections={sum(counts.values())}"
        )
    return DimensionSummary(mm, g, deg, M, s, counts), sg, bundles


def _require_minimal_snc(model: DualGraphModel) -> None:
    require_valid(model)
    if not model.is_semistable():
        raise ModelValidationError(
            "limit measures live on reduced (multiplicity-1) models; "
            "push the measure down or lift it via lift_measure"
        )
    if not is_minimal(model):
        raise ModelValidationError(
            "model is not minimal: contract it with minimal_snc_model first, "
            "then transport measures back with lift_measure"
        )


def _edge_masses(model: DualGraphModel, sg: StableDualGraph) -> dict[str, Fraction]:
    """Lebesgue mass per edge: its share of 1 within its maximal chain."""
    out: dict[str, Fraction] = {}
    for ch in sg.chains:
        for eid in ch.model_edges:
            out[eid] = model.edge_length(eid) / ch.length
    return out


def ns_limit_measure(model: DualGraphModel, estimate_genus0: bool = False) -> CCMeasure:
    """Limit of the fiberwise sup-type measures on the curve complex.

    Every skeleton edge carries Lebesgue mass 1/(length of its maximal
    chain), so each chain carries total mass one.  Components with sections
    carry a sup-type measure of finite but undetermined total; components
    without sections carry nothing.  With ``estimate_genus0`` the genus-0
    totals are estimated numerically on a generic point configuration.
    """
    _require_minimal_snc(model)
    sg = _stable_graph(model)
    comps = {}
    for c in model.components:
        b = bundle_for(model, c.id)
        if h0(b) > 0:
            total = UNKNOWN
            if estimate_genus0 and c.genus == 0:
                total = _genus0_estimate(model, c.id, b)
            comps[c.id] = ns_descriptor(b, total)
        else:
            comps[c.id] = zero_descriptor()
    return CCMeasure(model, "ns", comps, _edge_masses(model, sg))


def _genus0_estimate(model, cid, bundle):
    """Numeric total mass for a genus-0 component on generic points."""
    from .genus0 import generic_configuration, ns_mass_genus0

    coeffs = [bundle.m - 1] * bundle.valency
    for (host, _), grp in model.mark_locations().items():
        if host != cid:
            continue
        total = sum(p.coefficient for p in grp)
        if total >= bundle.m:
            # the local integrals diverge for pole order >= m; leave unknown
            return UNKNOWN
        coeffs.append(total)
    points = generic_configuration(len(coeffs))
    return ns_mass_genus0(points, coeffs, bundle.m)


def pb_limit_measure(model: DualGraphModel) -> CCMeasure:
    """Limit of the fiberwise kernel-type probability-of-sections measures.

    Same edge masses as the sup-type limit; every component additionally
    carries total mass equal to its section count, so the global total is
    exactly (2m-1)(g-1) + deg B.
    """
    _require_minimal_snc(model)
    summary, sg, bundles = _section_split(model)
    comps = {}
    for cid, b in bundles.items():
        n = summary.vertex_h0[cid]
        comps[cid] = pb_descriptor(b, n) if n > 0 else zero_descriptor()
    measure = CCMeasure(model, "pb", comps, _edge_masses(model, sg))
    if measure.total_mass() != summary.M:
        raise InternalConsistencyError(
            f"kernel-type limit has total {measure.total_mass()}, "
            f"expected {summary.M}"
        )
    return measure


def pushforward_to_hyb(measure: CCMeasure) -> HybMeasure:
    """Collapse each component stratum to a vertex atom of its total mass.

    Point atoms on a component fold into its vertex atom; atoms in edge
    interiors have no counterpart in this container and are rejected.
    """
    from .measures import ComponentPoint, mass_add

    model = measure.model
    atoms = {cid: cm.total for cid, cm in measure.components.items()}
    for a in measure.atoms:
        if isinstance(a.location, ComponentPoint):
            cid = a.location.component
            atoms[cid] = mass_add(atoms.get(cid, Fraction(0)), a.mass)
        else:
            raise ValueError(
                f"atom at {a.location} sits inside an edge; not representable "
                "as a hybrid-space measure"
            )
    return HybMeasure(
        model, measure.kind, atoms, dict(measure.edges),
        on_essential_skeleton=(is_minimal(model)
                               if isinstance(model, DualGraphModel) else True),
    )


def pushforward_to_fiber(measure: CCMeasure) -> FiberMeasure:
    """Send each edge's mass to an atom at its node; keep component measures.

    Atoms inside an edge map to the same node, so they fold into its atom.
    """
    from .measures import EdgePoint, mass_add

    node_atoms = {eid: v for eid, v in measure.edges.items()}
    for a in measure.atoms:
        if isinstance(a.location, EdgePoint):
            eid = a.location.edge
            node_atoms[eid] = mass_add(node_atoms.get(eid, Fraction(0)), a.mass)
        else:
            raise ValueError(
                f"atom at {a.location} is a smooth fiber point; only node "
                "atoms are representable here"
            )
    return FiberMeasure(
        measure.model, measure.kind,
        dict(measure.components),
        node_atoms,
    )


# -- growing tensor power ------------------------------------------------------


def large_m_limit_fixed_divisor(model: DualGraphModel) -> HybMeasure:
    """Rescaled large-power limit with the marks held integral (so they
    drop out): vertex atoms 2g(v) - 2 + val(v), total exactly 2g - 2.

    Input is a minimal semistable model of the total space, genus >= 2;
    marks are ignored.
    """
    require_valid(model)
    if not model.is_semistable():
        raise ModelValidationError("need a reduced (multiplicity-1) model")
    g = arithmetic_genus(model)
    if g < 2:
        raise ModelValidationError(
            f"large-power limit with integral marks needs genus >= 2, got {g}"
        )
    for c in model.components:
        if c.genus == 0 and model.valency(c.id) < 2:
            raise ModelValidationError(
                f"component {c.id} is a rational tail; the model is not a "
                "minimal semistable model"
            )
    atoms = {
        c.id: Fraction(2 * c.genus - 2 + model.valency(c.id))
        for c in model.components
    }
    total = sum(atoms.values(), Fraction(0))
    if total != 2 * g - 2:
        raise InternalConsistencyError(
            f"vertex atoms sum to {total}, expected {2 * g - 2}"
        )
    return HybMeasure(model, "ns-large-m", atoms, {}, on_essential_skeleton=True)


def large_m_limit_fixed_qdivisor(model: DualGraphModel) -> HybMeasure:
    """Rescaled large-power limit with the fractional mark weights held
    fixed: vertex atoms 2g(v) - 2 + val(v) + deg(marks on v)/m, total
    2g - 2 + (deg B)/m.

    Input is a minimal model for its m; the total must be positive.
    """
    _require_minimal_snc(model)
    mm = model.params.m
    g = arithmetic_genus(model)
    deg = total_mark_degree(model)
    expected = Fraction(2 * g - 2) + Fraction(deg, mm)
    if expected <= 0:
        raise ModelValidationError(
            "large-power limit needs 2g - 2 + deg(B)/m > 0; "
            f"got {expected}"
        )
    atoms = {}
    for c in model.components:
        w = Fraction(2 * c.genus - 2 + model.valency(c.id)) \
            + Fraction(model.mark_degree(c.id), mm)
        if w < 0:
            raise InternalConsistencyError(
                f"negative atom {w} on {c.id}; the model cannot be minimal"
            )
        atoms[c.id] = w
    total = sum(atoms.values(), Fraction(0))
    if total != expected:
        raise InternalConsistencyError(
            f"vertex atoms sum to {total}, expected {expected}"
        )
    return HybMeasure(model, "ns-large-m", atoms, {}, on_essential_skeleton=True)


# -- measures on stable curves -------------------------------------------------


def stable_curve_ns_measure(graph: StableDualGraph) -> FiberMeasure:
    """Sup-type measure of a plain stable curve: a unit atom at every node
    plus the per-component sup-type measure for the node-twisted bundle.

    The graph may have closed edges (self-nodes).  Requires a stable,
    unmarked curve of genus >= 2: rational vertices need three nodes.
    """
    if graph.m < 2:
        raise ModelValidationError(f"m must be at least 2, got {graph.m}")
    if any(d != 0 for d in graph.mark_degree.values()):
        raise ModelValidationError("stable curve measure is defined without marks")
    if graph.vertices and not is_connected(
            graph.vertices, (ch.endpoints for ch in graph.chains)):
        raise ModelValidationError("stable curve graph is disconnected")
    g = (sum(graph.genus.values()) + len(graph.chains)
         - len(graph.vertices) + 1)
    if g < 2:
        raise ModelValidationError(f"stable curves here need genus >= 2, got {g}")
    for v in graph.vertices:
        if graph.genus[v] == 0 and graph.valency(v) < 3:
            raise ModelValidationError(
                f"vertex {v}: rational components of a stable curve need "
                "at least three nodes"
            )
    comps = {}
    for v in graph.vertices:
        b = BundleDescriptor(v, graph.m, graph.genus[v], graph.valency(v), 0)
        comps[v] = ns_descriptor(b) if h0(b) > 0 else zero_descriptor()
    node_atoms = {ch.id: Fraction(1) for ch in graph.chains}
    return FiberMeasure(graph, "ns", comps, node_atoms)
