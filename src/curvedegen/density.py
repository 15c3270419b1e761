"""Pseudonorms, extremal (Narasimhan-Simha) densities, and pairing matrices
for truncated section families on node charts.

Everything is evaluated on frozen composite Gauss-Legendre grids in the
log-radial coordinate s = log(1/|w|) tensor a uniform angular grid.  The
grids resolve the s = O(1) feature zone at machine precision and cover the
flat middle of the annulus with a single tail panel, so runtimes are flat
in log(1/|t|) and nothing overflows at log(1/|t|) = 1e4.

Density conventions: values are densities against the Euclidean area
measure of the chart coordinate.  The m-th root trick applies throughout:
a family theta is handled through p = w^m * theta_t, whose 2/m power
absorbs both the pole and the area rescaling.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InternalConsistencyError, NumericalConvergenceError
from .laurent import LaurentFamily, eval_table, fiber_value, side_tables

__all__ = [
    "QuadratureSpec",
    "OptimizerSpec",
    "SectionSystem",
    "coefficient_grid",
    "gauss_panels",
    "grid_density",
    "pseudonorm",
    "ns_density",
    "pairing_matrix",
    "pb_density",
    "region_tau_mass",
]

_GL_ORDER = 32
_PANEL_LENGTH = 5.0
_TINY_DENSITY = 1e-250
_BLOCK_ENTRIES = 4_000_000  # entries of |S C^T| held at once
_POLISH_START = 0.25   # first compass step on the coefficient sphere
_POLISH_STOP = 1e-9    # the compass search ends once its step falls below this
_POLISH_ROUNDS = 200   # majorization steps per start, and compass steps per call
_ROW_FLOOR = 1e-8      # majorizer weights floor |S_i c| at this fraction of |S_i|


@dataclass(frozen=True)
class QuadratureSpec:
    """Resolution of the frozen node-chart grid.

    ``panel_cut`` bounds the resolved part of the s range; features of
    fiber sections live at s = O(1), so 50 is generous.  ``n_angular`` is
    the angular node count.
    """

    n_angular: int = 64
    panel_cut: float = 50.0

    def __post_init__(self):
        if self.n_angular < 8:
            raise ValueError("need at least eight angular nodes")
        if self.panel_cut <= 0:
            raise ValueError("panel_cut must be positive")


@dataclass(frozen=True)
class OptimizerSpec:
    """Controls for coefficient-sphere searches.

    The sphere of coefficient lines is scanned on a deterministic grid
    (moduli x relative phases for two-member families, seeded random
    directions above that).  ``ns_density`` runs majorize-minimize steps
    from the two best grid points, then a compass search from all four
    points: each step scores the 4M neighbours c +- delta e_j and
    c +- i delta e_j, renormalized, moves to the best improvement or else
    halves delta (from 0.25), and stops at delta < 1e-9 or after 200 steps.
    """

    seed: int = 2024
    grid_moduli: int = 33
    grid_phase: int = 32

    def __post_init__(self):
        if self.grid_moduli < 2 or self.grid_phase < 2:
            raise ValueError("coefficient grid needs at least two steps per direction")


def gauss_panels(edges, order: int = _GL_ORDER) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre rule: ``order`` nodes on each panel between
    consecutive ``edges``, as (nodes, weights) in panel order."""
    xs, ws = np.polynomial.legendre.leggauss(order)
    edges = np.asarray(edges, dtype=float)[:, None]
    a, b = edges[:-1], edges[1:]
    return (0.5 * (b - a) * xs + 0.5 * (a + b)).ravel(), (0.5 * (b - a) * ws).ravel()


def _gauss_nodes(logt: float, panel_cut: float) -> tuple[np.ndarray, np.ndarray]:
    """Composite GL nodes and weights on [0, logt/2], tail in one panel."""
    half = logt / 2.0
    resolved = min(half, panel_cut)
    n_panels = max(2, int(math.ceil(resolved / _PANEL_LENGTH)))
    edges = list(np.linspace(0.0, resolved, n_panels + 1))
    if half > resolved:
        edges.append(half)
    return gauss_panels(edges)


def coefficient_grid(n_families: int, optimizer: OptimizerSpec | None = None) -> np.ndarray:
    """Deterministic unit vectors sampling the coefficient sphere, (K, M).

    Always contains the coordinate axes, so grid maxima of normalized
    densities never fall below any single member's own density.
    """
    opt = optimizer or OptimizerSpec()
    if n_families == 1:
        return np.ones((1, 1), dtype=complex)
    if n_families == 2:
        eta = np.linspace(0.0, np.pi / 2.0, opt.grid_moduli)
        delta = np.arange(opt.grid_phase) * (2.0 * np.pi / opt.grid_phase)
        c0 = np.repeat(np.cos(eta), opt.grid_phase)
        c1 = np.repeat(np.sin(eta), opt.grid_phase) * np.exp(1j * np.tile(delta, opt.grid_moduli))
        return np.stack([c0, c1], axis=1)
    rows = list(np.eye(n_families, dtype=complex))
    for j in range(n_families):
        for k in range(j + 1, n_families):
            for z in (1.0, -1.0, 1j, -1j):
                v = np.zeros(n_families, dtype=complex)
                v[j] = 1.0
                v[k] = z
                rows.append(v / np.sqrt(2.0))
    rng = np.random.default_rng(opt.seed)
    n_extra = max(0, opt.grid_moduli * opt.grid_phase - len(rows))
    raw = rng.standard_normal((n_extra, 2 * n_families))
    vecs = raw[:, ::2] + 1j * raw[:, 1::2]
    vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
    rows.extend(vecs)
    return np.array(rows)


def grid_density(S: np.ndarray, C: np.ndarray, m: int,
                 weights: np.ndarray | None = None,
                 pn: np.ndarray | None = None) -> np.ndarray:
    """The extremal-density kernel: |S c|^(2/m) for each row c of C (K, M).

    ``S`` (N, M) holds section values at N nodes.  Given ``weights`` (N,),
    returns the grid pseudonorms pn(c) = weights @ |S c|^(2/m), shape (K,);
    given ``pn`` (K,), the grid-max normalized density max_c |S c|^(2/m) /
    pn(c) per node, shape (N,).  Node rows go in blocks of at most about
    4e6 values.
    """
    block = max(1, _BLOCK_ENTRIES // max(len(C), 1))
    out = np.zeros(len(C)) if pn is None else np.empty(len(S))
    for lo in range(0, len(S), block):
        vals = np.abs(S[lo:lo + block] @ C.T) ** (2.0 / m)
        if pn is None:
            out += weights[lo:lo + block] @ vals
        else:
            np.max(vals / pn[None, :], axis=1, out=out[lo:lo + block])
    return out


class SectionSystem:
    """Frozen quadrature of a family system over all its half-annulus sides.

    ``charts`` lists, per chart, the indices of the families present
    there; the default replicates every family on max(chain_length)
    charts.  ``S`` holds the scaled section values at all nodes, columns
    indexed like ``families``, and ``weights`` the matching area weights.
    """

    def __init__(self, families, logt: float,
                 spec: QuadratureSpec | None = None,
                 charts: tuple[tuple[int, ...], ...] | None = None):
        families = tuple(families)
        if not families:
            raise ValueError("need at least one family")
        m = families[0].m
        if any(f.m != m for f in families):
            raise ValueError("all families must share the same tensor order m")
        if logt <= 0:
            raise ValueError("logt must be positive")
        self.families = families
        self.m = m
        self.logt = float(logt)
        self.spec = spec or QuadratureSpec()
        if charts is None:
            charts = tuple(tuple(range(len(families)))
                           for _ in range(max(f.chain_length for f in families)))
        self.charts = charts

        s_nodes, s_weights = _gauss_nodes(self.logt, self.spec.panel_cut)
        n_phi = self.spec.n_angular
        phi = np.arange(n_phi) * (2.0 * np.pi / n_phi)
        dphi = 2.0 * np.pi / n_phi

        tables = [side_tables(f) for f in families]
        blocks, wblocks = [], []
        for members in charts:
            for side in (0, 1):
                block = np.zeros((len(s_nodes) * n_phi, len(families)), dtype=complex)
                for j in members:
                    vals = eval_table(tables[j][side], self.logt, s_nodes, phi)
                    block[:, j] = vals.reshape(-1)
                blocks.append(block)
                wblocks.append(np.repeat(s_weights, n_phi) * dphi)
        self.S = np.concatenate(blocks, axis=0)
        self.weights = np.concatenate(wblocks)

        self.grid_error = self._envelope_check(s_nodes, s_weights, n_phi, tables)
        if self.grid_error > 1e-6:
            raise NumericalConvergenceError(
                "frozen quadrature grid failed its refinement check",
                diagnostics={"grid_error": self.grid_error, "logt": self.logt})

    def _envelope_check(self, s_nodes, s_weights, n_phi, tables) -> float:
        # The envelope sqrt(sum |S_j|^2)^(2/m) dominates every unit
        # combination, so agreement under doubling certifies the grid.
        def envelope(sn, sw, na):
            ph = np.arange(na) * (2.0 * np.pi / na)
            total = 0.0
            for members in self.charts:
                for side in (0, 1):
                    acc = np.zeros((len(sn), na))
                    for j in members:
                        acc += np.abs(eval_table(tables[j][side], self.logt, sn, ph)) ** 2
                    total += float((acc ** (1.0 / self.m)).sum(axis=1) @ sw) * (2.0 * np.pi / na)
            return total

        base = envelope(s_nodes, s_weights, n_phi)
        fine_s, fine_w = _gauss_nodes(self.logt, self.spec.panel_cut / 2.0)
        fine = envelope(fine_s, fine_w, 2 * n_phi)
        return abs(fine - base) / max(abs(base), 1e-300)

    @property
    def n_nodes(self) -> int:
        return self.S.shape[0]

    def pn(self, coeffs) -> float:
        """Integral of |theta_c|^(2/m) over all sides for one coefficient row."""
        return float(grid_density(self.S, np.asarray(coeffs, dtype=complex)[None, :],
                                  self.m, weights=self.weights)[0])

    def pn_batch(self, grid: np.ndarray) -> np.ndarray:
        """Same integral for every row of a (K, M) coefficient grid."""
        return grid_density(self.S, grid, self.m, weights=self.weights)

    def tau_normalized(self, C: np.ndarray, pn_grid: np.ndarray,
                       S: np.ndarray | None = None) -> np.ndarray:
        """Grid-max normalized density max_c |S c|^(2/m) / pn(c) per node."""
        return grid_density(self.S if S is None else S, C, self.m, pn=pn_grid)


def pseudonorm(combination, logt: float,
               spec: QuadratureSpec | None = None,
               charts: tuple[tuple[int, ...], ...] | None = None) -> float:
    """The pseudonorm (integral of |theta|^(2/m)) ** (m/2) of a combination.

    ``combination`` is a sequence of (coefficient, family) pairs sharing
    one tensor order m.
    """
    coeffs = np.array([c for c, _ in combination], dtype=complex)
    families = [f for _, f in combination]
    system = SectionSystem(families, logt, spec=spec, charts=charts)
    return system.pn(coeffs) ** (system.m / 2.0)


def _majorize(system: SectionSystem, v: np.ndarray, starts, scores,
              log_density) -> tuple[np.ndarray, np.ndarray]:
    """Majorize-minimize ascents from unit rows ``starts``: the starts, then
    where each ascent ends, with their scores.  A step c ~ A^-1 conj(v),
    A = S^H diag(w_i |S_i c|^(p-2)) S with p = 2/m, minimizes the tangent
    bound of pn on the chart v.c = 1, so it follows the ridges where rows
    cancel, on which extremal combinations sit and coordinate steps stall.
    """
    p = 2.0 / system.m
    norms = np.maximum(np.linalg.norm(system.S, axis=1), np.finfo(float).tiny)
    U = system.S / norms[:, None]  # unit rows keep the weights finite
    base = system.weights * norms ** p
    ends = []
    for c, h in zip(starts, scores):
        for _ in range(_POLISH_ROUNDS):
            ratio = np.maximum(np.abs(U @ c), _ROW_FLOOR)
            A = (U.conj().T * (base * ratio ** (p - 2.0))) @ U
            y = np.linalg.lstsq(A, np.conj(v), rcond=None)[0]
            y /= np.linalg.norm(y)
            hy = float(log_density(y[None, :])[0])
            if not hy > h:
                break
            c, h = y, hy
        ends.append((c, h))
    return (np.concatenate([starts, [c for c, _ in ends]]),
            np.concatenate([scores, [h for _, h in ends]]))


def ns_density(families, logt: float, w: complex,
               spec: QuadratureSpec | None = None,
               optimizer: OptimizerSpec | None = None,
               charts: tuple[tuple[int, ...], ...] | None = None,
               system: SectionSystem | None = None) -> float:
    """Extremal density sup over unit combinations of |theta_c(w)|^(2/m) / pn(c).

    ``w`` is a point of the w side of the first chart; the returned value
    is a density against the area measure dA(w).  The two best points of
    the coefficient grid are polished (see ``OptimizerSpec``), each compass
    step in one ``pn_batch`` call.  Every candidate is a unit coefficient
    vector, so the value is attained and bounds the sup from below.
    """
    system = system or SectionSystem(families, logt, spec=spec, charts=charts)
    m = system.m
    n = len(system.families)
    v = np.array([fiber_value(f, logt, w) for f in system.families])
    log_area = -2.0 * math.log(abs(complex(w)))
    if n == 1:
        val = abs(v[0])
        if val == 0.0:
            return 0.0
        return math.exp((2.0 / m) * math.log(val) + log_area) / system.pn([1.0])

    def log_density(C: np.ndarray) -> np.ndarray:
        amps = np.abs(C @ v)
        with np.errstate(divide="ignore"):
            return (2.0 / m) * np.log(amps) - np.log(system.pn_batch(C))

    grid = coefficient_grid(n, optimizer)
    scores = log_density(grid)
    order = np.argsort(scores)[::-1]
    if not math.isfinite(scores[order[0]]):
        raise NumericalConvergenceError(
            "coefficient search found no finite objective value",
            diagnostics={"w": w, "logt": logt})

    # compass steps from the grid points and from their majorization ends:
    # each alone misses maxima the other finds
    c, h = _majorize(system, v, grid[order[:2]], scores[order[:2]], log_density)
    moves = np.concatenate([z * np.eye(n) for z in (1.0, -1.0, 1j, -1j)])
    step = np.full(len(c), _POLISH_START)
    live = np.arange(len(c))
    for _ in range(_POLISH_ROUNDS):
        if not len(live):
            break
        nb = c[live, None, :] + step[live, None, None] * moves[None, :, :]
        nb /= np.linalg.norm(nb, axis=2, keepdims=True)
        sc = log_density(nb.reshape(-1, n)).reshape(len(live), len(moves))
        k = np.argmax(sc, axis=1)
        top = sc[np.arange(len(live)), k]
        gain = top > h[live]
        c[live[gain]] = nb[gain, k[gain]]
        h[live[gain]] = top[gain]
        step[live[~gain]] /= 2.0
        live = live[step[live] >= _POLISH_STOP]
    # every step starts at the grid maximum or above and only rises
    return math.exp(float(h.max()) + log_area)


def pairing_matrix(families, logt: float,
                   spec: QuadratureSpec | None = None,
                   optimizer: OptimizerSpec | None = None,
                   charts: tuple[tuple[int, ...], ...] | None = None,
                   system: SectionSystem | None = None) -> np.ndarray:
    """Hermitian matrix of integrals of theta_j conj(theta_k) / tau^(m-1).

    tau is the extremal density of the same system, realized per node as a
    grid maximum; the matrix is a Gram matrix against the positive weight
    tau^(1-m), so it must come out positive definite.
    """
    system = system or SectionSystem(families, logt, spec=spec, charts=charts)
    m = system.m
    C = coefficient_grid(len(system.families), optimizer)
    pn_grid = system.pn_batch(C)
    tau = system.tau_normalized(C, pn_grid)
    # Where every section is microscopic the contribution is provably
    # below tau^(1/m)-type tails; dropping it avoids 0 * inf.
    mask = tau > _TINY_DENSITY
    g = np.zeros_like(tau)
    g[mask] = tau[mask] ** (1 - m)
    wg = system.weights * g
    A = (system.S.T * wg) @ np.conj(system.S)
    A = 0.5 * (A + np.conj(A.T))
    eigs = np.linalg.eigvalsh(A)
    if eigs[0] <= -1e-12 * max(abs(eigs[-1]), 1e-300):
        raise InternalConsistencyError("pairing matrix lost positive definiteness")
    return A


def pb_density(families, logt: float, w: complex,
               spec: QuadratureSpec | None = None,
               optimizer: OptimizerSpec | None = None,
               charts: tuple[tuple[int, ...], ...] | None = None) -> float:
    """Density at w of the measure sum (conj(A)^-1)_jk theta_j conj(theta_k) / tau^(m-1)."""
    system = SectionSystem(families, logt, spec=spec, charts=charts)
    m = system.m
    A = pairing_matrix(families, logt, optimizer=optimizer, system=system)
    v = np.array([fiber_value(f, logt, w) for f in system.families])
    quad = float(np.real(np.conj(v) @ np.linalg.solve(A, v)))
    tau_w = ns_density(families, logt, w, optimizer=optimizer, system=system)
    if tau_w <= 0.0:
        raise NumericalConvergenceError(
            "extremal density vanished where the pairing density was requested",
            diagnostics={"w": w})
    log_val = (math.log(max(quad, 1e-300))
               - 2.0 * m * math.log(abs(complex(w)))
               - (m - 1) * math.log(tau_w))
    return math.exp(log_val)


def region_tau_mass(families, logt: float, region: tuple[float, float],
                    f=None,
                    spec: QuadratureSpec | None = None,
                    optimizer: OptimizerSpec | None = None,
                    n_u: int = 64, n_phi: int = 64) -> float:
    """Mass of the extremal measure over a skeleton-edge region.

    The edge is parameterized by u in [0, 1]; u <= 1/2 lives on the w side
    (s = u * logt) and u >= 1/2 on the z side (s = (1 - u) * logt).  ``f``
    is an optional vectorized weight along the edge.  The integral runs
    over the first node chart; families crossing an l-chain spread their
    pseudonorm over l charts, which scales regional masses by 1/l.
    """
    families = tuple(families)
    if len({fam.chain_length for fam in families}) != 1:
        raise ValueError("families must share one chain length")
    a, b = region
    if not (0.0 <= a < b <= 1.0):
        raise ValueError("region must be a nondegenerate subinterval of [0, 1]")
    system = SectionSystem(families, logt, spec=spec)
    C = coefficient_grid(len(families), optimizer)
    pn_grid = system.pn_batch(C)
    tables = [side_tables(fam) for fam in families]

    def piece(lo: float, hi: float, side: int, n_sub: int, na: int) -> float:
        if hi <= lo:
            return 0.0
        phi = np.arange(na) * (2.0 * np.pi / na)
        u_all, w_all = gauss_panels(np.linspace(lo, hi, n_sub + 1))
        total = 0.0
        # one panel at a time bounds memory
        for u, wu in zip(u_all.reshape(n_sub, -1), w_all.reshape(n_sub, -1)):
            s = u * logt if side == 0 else (1.0 - u) * logt
            S = np.zeros((len(u) * na, len(families)), dtype=complex)
            for j, tab in enumerate(tables):
                S[:, j] = eval_table(tab[side], logt, s, phi).reshape(-1)
            tau = system.tau_normalized(C, pn_grid, S=S).reshape(len(u), na)
            fw = np.ones_like(u) if f is None else np.asarray(f(u), dtype=float)
            total += float((tau.sum(axis=1) * (2.0 * np.pi / na) * fw) @ wu) * logt
        return total

    def total_at(n_sub: int, na: int) -> float:
        return (piece(a, min(b, 0.5), 0, n_sub, na)
                + piece(max(a, 0.5), b, 1, n_sub, na))

    n_sub = max(1, n_u // _GL_ORDER)
    na = n_phi
    iterates = [total_at(n_sub, na)]
    for _ in range(4):
        n_sub *= 2
        na *= 2
        cur = total_at(n_sub, na)
        if abs(cur - iterates[-1]) <= 1e-5 * max(abs(cur), 1e-300):
            return cur
        iterates.append(cur)
    raise NumericalConvergenceError(
        "region mass did not stabilize within 4 doublings",
        best=iterates[-1],
        diagnostics={"iterates": iterates, "logt": logt, "region": region})
