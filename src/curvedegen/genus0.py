"""Numerical Narasimhan-Simha mass of a marked genus-0 component.

For points p_1..p_n on the projective line with integer weights a_i in
[1, m-1] the relevant sections are theta_k = w^k * prod (w - p_i)^(-a_i)
(dw)^m for 0 <= k <= d, d = sum a_i - 2m.  The extremal density
max |theta_c|^(2/m) / pseudonorm(c) integrates to the component's mass;
it is at least 1 whenever d >= 0 and exactly 1 when d = 0.

The sphere splits into the unit w-disk and the unit v-disk (v = 1/w),
glued along |w| = 1.  Each disk gets a polar background grid damped near
the singular points by a smooth cutoff, plus per-singularity patches with
geometrically shrinking radial layers; below the innermost layer the
known local power law is added as an exact rank-one term.  The mass
walks levels 0 and 1 by ``density._refine``; see ``ns_mass_genus0``.
"""
from __future__ import annotations

import cmath
import math

from ._lazy import np
from .density import OptimizerSpec, _refine, coefficient_grid, gauss_panels, grid_density
from .errors import NumericalConvergenceError
from .measures import Estimate

__all__ = ["generic_configuration", "moebius_points", "ns_mass_genus0"]

_SEAM_MARGIN = 0.05
# Gauss-Legendre orders of the background panels and of the patch layers,
# the same at every level
_BG_GL = 16
_LAYER_GL = 6


def generic_configuration(n: int) -> tuple[complex, ...]:
    """n deterministic well-separated points inside the unit disk."""
    if n < 1:
        raise ValueError("need at least one point")
    pts = []
    for i in range(n):
        r = 0.30 + 0.35 * ((i % 3) / 2.0)
        ang = 2.0 * math.pi * i / n + 0.35
        pts.append(complex(r * math.cos(ang), r * math.sin(ang)))
    return tuple(pts)


def moebius_points(points, coeffs: tuple[float, float, float, float]) -> tuple[complex, ...]:
    """Apply (a p + b) / (c p + d) to every point."""
    a, b, c, d = coeffs
    if a * d - b * c == 0:
        raise ValueError("degenerate transformation")
    return tuple((a * p + b) / (c * p + d) for p in points)


class _Chart:
    """One disk chart; kind "w" keeps the coordinate, "v" inverts it."""

    def __init__(self, points, coeffs, m: int, d: int, kind: str):
        self.points = points
        self.coeffs = coeffs
        self.m = m
        self.d = d
        self.kind = kind

    def poly(self, x: np.ndarray) -> np.ndarray:
        ks = np.arange(self.d + 1)
        expo = ks if self.kind == "w" else self.d - ks
        return x[:, None] ** expo[None, :]

    def _lin(self, x: np.ndarray, j: int) -> np.ndarray:
        p = self.points[j]
        return x - p if self.kind == "w" else 1.0 - p * x

    def sing_factor(self, x: np.ndarray) -> np.ndarray:
        out = np.ones(len(x))
        for j, a in enumerate(self.coeffs):
            out *= np.abs(self._lin(x, j)) ** (-2.0 * a / self.m)
        return out

    def interior_singularities(self) -> list[tuple[int, complex, float]]:
        """(index, center in this chart, |derivative of the linear factor|)."""
        out = []
        for j, p in enumerate(self.points):
            if self.kind == "w" and abs(p) < 1.0:
                out.append((j, p, 1.0))
            elif self.kind == "v" and abs(p) > 1.0:
                out.append((j, 1.0 / p, abs(p)))
        return out


def _bump(x: np.ndarray) -> np.ndarray:
    # C^1 cutoff: 1 below 1/2, 0 above 1, cos^2 ramp between.
    out = np.zeros_like(x)
    out[x <= 0.5] = 1.0
    mid = (x > 0.5) & (x < 1.0)
    out[mid] = np.cos(np.pi * (x[mid] - 0.5)) ** 2
    return out


def _chart_nodes(chart: _Chart, level: int):
    """(values (N, d+1), weight * singular factor (N,)) for one chart.

    Level k takes 8 * 2^k background panels, 128 * 2^k background angles,
    32 * 2^k patch angles and 40 + 4k patch layers.  Weights fold in the
    area element, the background cutoff or patch bump, and for the final
    rank-one rows the closed-form tail integral.
    """
    m = chart.m
    sings = chart.interior_singularities()
    centers = [c for _, c, _ in sings]
    radii = []
    for i, (_, c, _) in enumerate(sings):
        gap = 1.0 - abs(c)
        for i2, c2 in enumerate(centers):
            if i2 != i:
                gap = min(gap, abs(c - c2))
        radii.append(0.45 * min(gap, 0.5))

    blocks_v, blocks_w = [], []

    # background polar grid over the whole disk
    bg_phi = 128 << level
    phi = np.arange(bg_phi) * (2.0 * np.pi / bg_phi)
    r_nodes, r_w = gauss_panels(np.linspace(0.0, 1.0, (8 << level) + 1), _BG_GL)
    pts = (r_nodes[:, None] * np.exp(1j * phi)[None, :]).reshape(-1)
    area = (np.repeat(r_nodes * r_w, bg_phi)) * (2.0 * np.pi / bg_phi)
    cut = np.ones(len(pts))
    for (_, c, _), rho in zip(sings, radii):
        cut -= _bump(np.abs(pts - c) / rho)
    cut = np.clip(cut, 0.0, 1.0)
    blocks_v.append(chart.poly(pts))
    blocks_w.append(area * cut * chart.sing_factor(pts))

    # per-singularity patches: geometric layers in log rho
    n_psi, layers = 32 << level, 40 + 4 * level
    psi = np.arange(n_psi) * (2.0 * np.pi / n_psi)
    for (j, c, dlin), rho in zip(sings, radii):
        a_j = chart.coeffs[j]
        u_hi = math.log(rho)
        u_lo = u_hi - layers * math.log(2.0)
        u_nodes, u_w = gauss_panels(np.linspace(u_lo, u_hi, layers + 1), _LAYER_GL)
        rho_nodes = np.exp(u_nodes)
        pts = (c + rho_nodes[:, None] * np.exp(1j * psi)[None, :]).reshape(-1)
        area = np.repeat(rho_nodes ** 2 * u_w, n_psi) * (2.0 * np.pi / n_psi)
        bump = np.repeat(_bump(rho_nodes / rho), n_psi)
        blocks_v.append(chart.poly(pts))
        blocks_w.append(area * bump * chart.sing_factor(pts))

        # exact power-law tail below the innermost layer, as a rank-one row
        kappa = 2.0 - 2.0 * a_j / m
        rho_min = math.exp(u_lo)
        prefac = dlin ** (-2.0 * a_j / m)
        for j2, a2 in enumerate(chart.coeffs):
            if j2 != j:
                prefac *= abs(chart._lin(np.array([c]), j2)[0]) ** (-2.0 * a2 / m)
        tail = 2.0 * math.pi * prefac * rho_min ** kappa / kappa
        blocks_v.append(chart.poly(np.array([c])))
        blocks_w.append(np.array([tail]))

    return np.concatenate(blocks_v), np.concatenate(blocks_w)


def _mass_pass(points, coeffs, m: int, d: int, level: int,
               optimizer: OptimizerSpec) -> float:
    """The mass on the level-``level`` nodes and coefficient grid."""
    nodes = [_chart_nodes(_Chart(points, coeffs, m, d, kind), level) for kind in ("w", "v")]
    V = np.concatenate([values for values, _ in nodes])
    W = np.concatenate([weights for _, weights in nodes])
    C = coefficient_grid(d + 1, optimizer, level)
    pn = grid_density(V, C, m, weights=W)
    return float(W @ grid_density(V, C, m, pn=pn))


def ns_mass_genus0(points, coefficients, m: int,
                   quad=None,
                   optimizer: OptimizerSpec | None = None) -> Estimate:
    """Mass of the extremal measure for weighted points on the sphere.

    ``coefficients`` are the pole orders a_i, each in [1, m-1] so the
    local integrals converge; sum a_i must be at least 2m.  Non-finite
    points are rejected, and so are points too close to the gluing circle
    |w| = 1; move those first with a Moebius transformation.  The levels
    0 and 1 go through ``density._refine`` with no tolerance: it takes any
    finite level-1 value, and the error bar is twice its gap plus 1e-10 of
    the value.  ``quad`` is ignored: the levels are fixed here, and
    ``optimizer`` sets only the seed.
    """
    del quad
    points = tuple(complex(p) for p in points)
    coeffs = tuple(int(a) for a in coefficients)
    if len(points) != len(coeffs):
        raise ValueError("one coefficient per point required")
    if len(set(points)) != len(points):
        raise ValueError("points must be distinct")
    if any(a < 1 or a > m - 1 for a in coeffs):
        raise ValueError("coefficients must lie in [1, m-1]")
    d = sum(coeffs) - 2 * m
    if d < 0:
        raise ValueError("total weight below 2m: no sections to measure")
    for p in points:
        if not cmath.isfinite(p):
            raise ValueError(f"point {p!r} is not finite")
        if abs(abs(p) - 1.0) < _SEAM_MARGIN:
            raise ValueError("point too close to the chart seam |w| = 1; "
                             "move the configuration by a Moebius transformation")
    opt = optimizer or OptimizerSpec()

    # any finite level-1 value is taken; the gap sizes the error bar
    fine, gap = _refine(lambda level: _mass_pass(points, coeffs, m, d, level, opt),
                        math.inf, 1, "sphere mass integration failed")
    if fine <= 0.0:
        raise NumericalConvergenceError("sphere mass integration failed", best=fine)
    return Estimate(fine, 2.0 * gap + 1e-10 * abs(fine))
