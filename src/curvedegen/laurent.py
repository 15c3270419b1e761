"""Two-variable Laurent data modeling sections near a degenerating node.

A family is a finite sum  sum c[a,b] * z^a w^b * (dw ^ dz)^m  on a chart
z*w = t.  Restricted to the fiber it reads  sum c[a,b] t^a w^(b-a-m) dw^m
on the w side, and symmetrically with a and b swapped on the z side.

All numerics run in the coordinates s = log(1/|w|) in [0, log(1/|t|)/2]
and the angle phi.  In these coordinates the m-th root density of the pure
pole w^(-m) is exactly constant, every term's magnitude is exp of a linear
function of s, and nothing ever overflows, even at log(1/|t|) = 1e4.
"""
from __future__ import annotations

import cmath
from dataclasses import dataclass, field

from ._lazy import np

__all__ = ["LaurentFamily", "SideTable", "side_tables", "eval_table", "fiber_value"]


@dataclass(frozen=True)
class LaurentFamily:
    """Coefficients c[(a, b)] of a local two-variable expansion.

    ``chain_length`` says how many nodes the modeled section crosses with a
    full-order pole; experiments replicate the expansion on that many
    charts.  The residue is c[(0, 0)].  A NaN or infinite coefficient
    raises ValueError.
    """

    m: int
    coeffs: tuple[tuple[tuple[int, int], complex], ...]
    chain_length: int = 1

    def __post_init__(self):
        if self.m < 2:
            raise ValueError("m must be at least 2")
        if self.chain_length < 1:
            raise ValueError("chain_length must be at least 1")
        seen = set()
        for (a, b), c in self.coeffs:
            if a < 0 or b < 0:
                raise ValueError(f"exponents must be nonnegative, got ({a}, {b})")
            if (a, b) in seen:
                raise ValueError(f"duplicate exponent pair ({a}, {b})")
            if not cmath.isfinite(c):
                raise ValueError(f"non-finite coefficient {c!r} at exponent pair ({a}, {b})")
            seen.add((a, b))

    @staticmethod
    def from_dict(m: int, coeffs: dict, chain_length: int = 1) -> "LaurentFamily":
        items = tuple(sorted(((a, b), complex(c)) for (a, b), c in coeffs.items()
                             if c != 0))
        return LaurentFamily(m, items, chain_length)

    @staticmethod
    def from_w_powers(m: int, powers: dict, chain_length: int = 1) -> "LaurentFamily":
        """Section sum c_k w^(k-m) dw^m on the fiber, i.e. pairs (0, k)."""
        return LaurentFamily.from_dict(
            m, {(0, k): c for k, c in powers.items()}, chain_length)

    @staticmethod
    def pole(m: int, chain_length: int = 1) -> "LaurentFamily":
        """The pure full-order pole w^(-m) dw^m with residue one."""
        return LaurentFamily.from_dict(m, {(0, 0): 1.0}, chain_length)

    @property
    def residue(self) -> complex:
        for (a, b), c in self.coeffs:
            if (a, b) == (0, 0):
                return c
        return 0.0

    @property
    def truncation_order(self) -> tuple[int, int]:
        if not self.coeffs:
            return (0, 0)
        return (max(a for (a, _), _ in self.coeffs),
                max(b for (_, b), _ in self.coeffs))


@dataclass(frozen=True)
class SideTable:
    """One side of a node chart, ready for evaluation in (s, phi).

    Term t contributes coeff[t] * exp(-(base[t]*L + slope[t]*s)) *
    exp(1j*slope[t]*phi); base*L is the t-adic decay, slope the w-power
    relative to the full pole.
    """

    base: tuple[int, ...]
    slope: tuple[int, ...]
    coeff: tuple[complex, ...]


def side_tables(family: LaurentFamily) -> tuple[SideTable, SideTable]:
    """(w side, z side) evaluation tables; the z side swaps the exponents."""
    wb, ws, wc = [], [], []
    zb, zs, zc = [], [], []
    for (a, b), c in family.coeffs:
        wb.append(a)
        ws.append(b - a)
        wc.append(c)
        zb.append(b)
        zs.append(a - b)
        zc.append(c)
    return (SideTable(tuple(wb), tuple(ws), tuple(wc)),
            SideTable(tuple(zb), tuple(zs), tuple(zc)))


def eval_table(table: SideTable, logt: float, s: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Values of w^m * theta_t on a (s, phi) grid, shape (len(s), len(phi)).

    Magnitudes are exp of -(base*L + slope*s), which is <= 0 on the half
    annulus, so underflow is the only rounding event and it is benign.
    """
    out = np.zeros((len(s), len(phi)), dtype=complex)
    for base, slope, coeff in zip(table.base, table.slope, table.coeff):
        radial = np.exp(-(base * logt + slope * s))
        angular = np.exp(1j * slope * phi)
        out += coeff * np.outer(radial, angular)
    return out


def fiber_value(family: LaurentFamily, logt: float, w: complex) -> complex:
    """Value of w^m * theta_t at a representable point w of the w side."""
    logw = np.log(complex(w))
    out = 0.0 + 0.0j
    for (a, b), c in family.coeffs:
        out += c * np.exp(-logt * a + (b - a) * logw)
    return complex(out)
