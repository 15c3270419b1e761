"""Two-variable Laurent data modeling sections near a degenerating node.

A family is a finite sum  sum c[a,b] * z^a w^b * (dw ^ dz)^m  on a chart
z*w = t.  Restricted to the fiber it reads  sum c[a,b] t^a w^(b-a-m) dw^m
on the w side, and symmetrically with a and b swapped on the z side.

All numerics run in the coordinates s = log(1/|w|) in [0, log(1/|t|)/2]
and the angle phi.  In these coordinates the m-th root density of the pure
pole w^(-m) is exactly constant, every term's magnitude is exp of a linear
function of s, and nothing ever overflows, even at log(1/|t|) = 1e4.

A system of families is evaluated from one term table per chart side
(``SideTerms``, built by ``side_terms``): the terms of every family as
arrays of family index, t-adic exponent, slope and coefficient.
``side_values`` evaluates a table on a grid of (s, phi).
"""
from __future__ import annotations

import cmath
from dataclasses import dataclass

from ._lazy import np

__all__ = ["LaurentFamily", "SideTerms", "side_terms", "side_values"]

# coefficients above this modulus are refused: squared, they overflow a float
_MAX_COEFF = 1e150


@dataclass(frozen=True)
class LaurentFamily:
    """Coefficients c[(a, b)] of a local two-variable expansion.

    ``chain_length`` says how many nodes the modeled section crosses with a
    full-order pole; experiments replicate the expansion on that many
    charts.  The residue is c[(0, 0)].  A NaN or infinite coefficient
    raises ValueError, and so does one above 1e150 in modulus: the grids
    square section values, which would overflow.
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
            if abs(c) > _MAX_COEFF:
                raise ValueError(f"coefficient {c!r} at exponent pair ({a}, {b}) exceeds "
                                 f"{_MAX_COEFF:g} in modulus: its square overflows a float")
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


@dataclass(frozen=True, eq=False)
class SideTerms:
    """The Laurent terms of a family system on one side of a node chart,
    one array entry per term, each family's terms together in its
    coefficient order.

    Term t of family ``family[t]`` contributes coeff[t] * exp(-(base[t]*L
    + slope[t]*s)) * exp(1j*slope[t]*phi); base*L is the t-adic decay,
    slope the w-power relative to the full pole.  ``n_families`` counts
    the families, termless ones included.
    """

    n_families: int
    family: np.ndarray
    base: np.ndarray
    slope: np.ndarray
    coeff: np.ndarray


def side_terms(families, side: int) -> SideTerms:
    """The term table of a sequence of families on side 0 (w) or 1 (z);
    the z side swaps the exponents."""
    family, base, slope, coeff = [], [], [], []
    for j, f in enumerate(families):
        for (a, b), c in f.coeffs:
            p, q = (a, b) if side == 0 else (b, a)
            family.append(j)
            base.append(p)
            slope.append(q - p)
            coeff.append(c)
    return SideTerms(len(families), np.array(family, dtype=int),
                     np.array(base, dtype=float), np.array(slope, dtype=float),
                     np.array(coeff, dtype=complex))


def side_values(terms: SideTerms, logt: float, s: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Values of w^m * theta_t of every family on a (s, phi) grid, s-major,
    shape (len(s) * len(phi), n_families).

    Magnitudes are exp of -(base*L + slope*s), which is <= 0 on the half
    annulus, so underflow is the only rounding event and it is benign.
    """
    out = np.zeros((len(s), len(phi), terms.n_families), dtype=complex)
    for j, base, slope, coeff in zip(terms.family, terms.base, terms.slope, terms.coeff):
        radial = np.exp(-(base * logt + slope * s))
        angular = np.exp(1j * slope * phi)
        out[:, :, j] += coeff * np.outer(radial, angular)
    return out.reshape(-1, terms.n_families)
