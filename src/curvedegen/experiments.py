"""Convergence experiments on node charts.

Each experiment sweeps a grid of degeneration depths L = log(1/|t|),
compares an observed quantity against its predicted limit shape, and
returns the comparison as a small immutable table.  Observables come from
the frozen-grid machinery in ``density``, whose grids take no options:
everything is deterministic, so reruns produce byte-identical tables.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

from ._lazy import np
from .density import gauss_panels, pairing_matrix, pseudonorm, region_tau_mass
from .laurent import LaurentFamily

__all__ = [
    "ExperimentResult",
    "norm_asymptotics_experiment",
    "region_mass_experiment",
    "pairing_experiments",
]

DEFAULT_LOGT_GRID = (1e2, 1e3, 1e4)


@dataclass(frozen=True)
class ExperimentResult:
    """One observable versus its limit prediction along a depth grid."""

    name: str
    logt: tuple[float, ...]
    observed: tuple[float, ...]
    reference: tuple[float, ...]
    rel_errors: tuple[float, ...]
    fitted_exponent: float | None
    metadata: dict = field(default_factory=dict)

    def to_columns(self) -> str:
        """Deterministic whitespace table with a commented header."""
        lines = [f"# experiment: {self.name}"]
        for key in sorted(self.metadata):
            lines.append(f"# {key}: {self.metadata[key]}")
        if self.fitted_exponent is not None:
            lines.append(f"# fitted_exponent: {self.fitted_exponent:.6f}")
        lines.append("# columns: logt observed reference rel_error")
        for L, obs, ref, err in zip(self.logt, self.observed,
                                    self.reference, self.rel_errors):
            lines.append(f"{L:.6e} {obs:.12e} {ref:.12e} {err:.12e}")
        return "\n".join(lines) + "\n"


def _check_grid(logt_grid) -> tuple[float, ...]:
    grid = tuple(float(L) for L in logt_grid)
    if len(grid) < 2:
        raise ValueError("need at least two depths to compare along a grid")
    if not all(math.isfinite(L) for L in grid):
        raise ValueError(f"logt grid must be finite, got {grid!r}")
    if grid[0] <= 0 or any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("logt grid must be positive and strictly increasing")
    return grid


def _fit_exponent(logt_grid, errors) -> float | None:
    pts = [(L, e) for L, e in zip(logt_grid, errors) if e > 1e-13]
    if len(pts) < 2:
        return None
    xs = np.log([p[0] for p in pts])
    ys = np.log([p[1] for p in pts])
    if xs.max() - xs.min() < 1e-9:
        return None
    return float(np.polyfit(xs, ys, 1)[0])


def _result(name, grid, obs, ref, meta) -> ExperimentResult:
    errs = tuple(abs(o - r) / max(abs(r), 1e-300) if r != 0.0 else abs(o)
                 for o, r in zip(obs, ref))
    return ExperimentResult(name, tuple(grid), tuple(obs), tuple(ref), errs,
                            _fit_exponent(grid, errs), meta)


def norm_asymptotics_experiment(family: LaurentFamily,
                                logt_grid=DEFAULT_LOGT_GRID) -> ExperimentResult:
    """Pseudonorm of one family against its limit shape (2 pi l L)^(m/2).

    For a residue-one family crossing l nodes the ratio tends to 1; the
    relative error column should decay like 1/L.
    """
    logt_grid = _check_grid(logt_grid)
    m, l = family.m, family.chain_length
    obs, ref = [], []
    for L in logt_grid:
        obs.append(pseudonorm([(1.0, family)], L))
        ref.append((2.0 * np.pi * l * L) ** (m / 2.0))
    meta = {"m": m, "chain_length": l, "truncation": family.truncation_order,
            "residue": complex(family.residue)}
    return _result("norm-asymptotics", logt_grid, obs, ref, meta)


def region_mass_experiment(families, region: tuple[float, float],
                           f=None, f_label: str = "1",
                           logt_grid=DEFAULT_LOGT_GRID) -> ExperimentResult:
    """Extremal-measure mass of an edge region versus (1/l) * integral of f.

    The limit measure spreads mass 1/l per unit of the edge coordinate, so
    the reference is the f-integral over the region divided by l: 8 panels
    of 32 Gauss-Legendre nodes, so ``f`` takes arrays as in ``region_tau_mass``.
    """
    logt_grid = _check_grid(logt_grid)
    families = tuple(families)
    a, b = region
    if f is None:
        f_int = b - a
    else:
        u, wu = gauss_panels(np.linspace(a, b, 9))
        f_int = float(np.asarray(f(u), dtype=float) @ wu)
    obs = [region_tau_mass(families, L, region, f=f) for L in logt_grid]
    # a system build refuses families of mixed chain lengths
    ref = [f_int / families[0].chain_length] * len(obs)
    meta = {"m": families[0].m, "n_families": len(families),
            "region": region, "weight": f_label}
    return _result("region-mass", logt_grid, obs, ref, meta)


def pairing_experiments(families, logt_grid=DEFAULT_LOGT_GRID
                        ) -> tuple[ExperimentResult, ExperimentResult]:
    """The diagonal and off-diagonal experiments from one sweep of matrices.

    The diagonal entry of member 0 goes against its residue-pole limit
    (2 pi l L)^m; the ratio converges to |residue|^2 = 1 for a residue-one
    member whose residue term dominates.  The normalized off-diagonal entry
    |A_01| / sqrt(A_00 A_11) of the pair (0, 1) has limit zero, so its
    observed column doubles as the error column and should decrease along
    the grid.
    """
    families = tuple(families)
    grid = _check_grid(logt_grid)
    mats = [pairing_matrix(families, L) for L in grid]

    fam = families[0]
    obs = [float(np.real(A[0, 0])) for A in mats]
    ref = [abs(fam.residue) ** 2 * (2.0 * np.pi * fam.chain_length * L) ** fam.m
           for L in grid]
    meta = {"m": fam.m, "member": 0, "n_families": len(families),
            "truncation": fam.truncation_order}
    diag = _result("pairing-diag", grid, obs, ref, meta)

    # one root per entry: their product overflows for large families
    obs = [abs(A[0, 1]) / float(np.sqrt(np.real(A[0, 0])) * np.sqrt(np.real(A[1, 1])))
           for A in mats]
    meta = {"m": fam.m, "pair": (0, 1), "n_families": len(families)}
    return diag, _result("pairing-offdiag", grid, obs, [0.0] * len(grid), meta)
