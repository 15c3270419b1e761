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
known local power law is added as an exact rank-one term.  Error bars
come from a full pass at doubled resolution.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from ._lazy import np
from .density import OptimizerSpec, coefficient_grid, gauss_panels, grid_density
from .errors import NumericalConvergenceError
from .measures import Estimate

__all__ = ["generic_configuration", "moebius_points", "ns_mass_genus0"]

_SEAM_MARGIN = 0.05


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


@dataclass(frozen=True)
class _Controls:
    bg_panels: int = 8
    bg_gl: int = 16
    bg_phi: int = 128
    layers: int = 40
    layer_gl: int = 6
    n_psi: int = 32
    grid_moduli: int = 33
    grid_phase: int = 32


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


def _chart_nodes(chart: _Chart, ctl: _Controls):
    """(values (N, d+1), weight * singular factor (N,)) for one chart.

    Weights fold in the area element, the background cutoff or patch
    bump, and for the final rank-one rows the closed-form tail integral.
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
    phi = np.arange(ctl.bg_phi) * (2.0 * np.pi / ctl.bg_phi)
    r_nodes, r_w = gauss_panels(np.linspace(0.0, 1.0, ctl.bg_panels + 1), ctl.bg_gl)
    pts = (r_nodes[:, None] * np.exp(1j * phi)[None, :]).reshape(-1)
    area = (np.repeat(r_nodes * r_w, ctl.bg_phi)) * (2.0 * np.pi / ctl.bg_phi)
    cut = np.ones(len(pts))
    for (_, c, _), rho in zip(sings, radii):
        cut -= _bump(np.abs(pts - c) / rho)
    cut = np.clip(cut, 0.0, 1.0)
    blocks_v.append(chart.poly(pts))
    blocks_w.append(area * cut * chart.sing_factor(pts))

    # per-singularity patches: geometric layers in log rho
    psi = np.arange(ctl.n_psi) * (2.0 * np.pi / ctl.n_psi)
    for (j, c, dlin), rho in zip(sings, radii):
        a_j = chart.coeffs[j]
        u_hi = math.log(rho)
        u_lo = u_hi - ctl.layers * math.log(2.0)
        u_nodes, u_w = gauss_panels(np.linspace(u_lo, u_hi, ctl.layers + 1), ctl.layer_gl)
        rho_nodes = np.exp(u_nodes)
        pts = (c + rho_nodes[:, None] * np.exp(1j * psi)[None, :]).reshape(-1)
        area = np.repeat(rho_nodes ** 2 * u_w, ctl.n_psi) * (2.0 * np.pi / ctl.n_psi)
        bump = np.repeat(_bump(rho_nodes / rho), ctl.n_psi)
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


def _mass_pass(points, coeffs, m: int, d: int, ctl: _Controls,
               optimizer: OptimizerSpec) -> float:
    nodes = [_chart_nodes(_Chart(points, coeffs, m, d, kind), ctl) for kind in ("w", "v")]
    V = np.concatenate([values for values, _ in nodes])
    W = np.concatenate([weights for _, weights in nodes])
    C = coefficient_grid(d + 1, optimizer, ctl.grid_moduli, ctl.grid_phase)
    pn = grid_density(V, C, m, weights=W)
    return float(W @ grid_density(V, C, m, pn=pn))


def ns_mass_genus0(points, coefficients, m: int,
                   quad=None,
                   optimizer: OptimizerSpec | None = None) -> Estimate:
    """Mass of the extremal measure for weighted points on the sphere.

    ``coefficients`` are the pole orders a_i, each in [1, m-1] so the
    local integrals converge; sum a_i must be at least 2m.  Non-finite
    points are rejected, and so are points too close to the gluing circle
    |w| = 1; move those first with a Moebius transformation.  ``quad`` is
    ignored: the resolutions are fixed here, and ``optimizer`` sets only
    the seed.
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

    base = _mass_pass(points, coeffs, m, d, _Controls(), opt)
    fine = _mass_pass(points, coeffs, m, d,
                      _Controls(bg_panels=16, bg_gl=16, bg_phi=256,
                                layers=44, layer_gl=6, n_psi=64,
                                grid_moduli=65, grid_phase=64), opt)
    error = 2.0 * abs(fine - base) + 1e-10 * abs(fine)
    if not math.isfinite(fine) or fine <= 0.0:
        raise NumericalConvergenceError(
            "sphere mass integration failed",
            best=fine, diagnostics={"base": base})
    return Estimate(fine, error)
