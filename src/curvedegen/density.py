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

Every density goes through one kernel, ``grid_density``.  It sums the
pseudonorms pn(c) of a coefficient grid, and it takes the extremal density
at each node as the grid maximum of |S c|^(2/m) / pn(c).  A real Gram form
picks the maximizing column, a bound on its rounding certifies the pick,
and the value is read from S C^T, so the maximum is always attained by a
grid combination.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InternalConsistencyError, NumericalConvergenceError
from .laurent import eval_table, fiber_value, side_tables

__all__ = [
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

# The node-chart grid: panels of _GL_ORDER Gauss-Legendre nodes and length
# _PANEL_LENGTH resolve s in [0, _PANEL_CUT], where fiber sections have
# their s = O(1) features, and one tail panel covers the rest; _N_ANGULAR
# uniform angular nodes.
_GL_ORDER = 32
_PANEL_LENGTH = 5.0
_PANEL_CUT = 50.0
_N_ANGULAR = 64
# pn sums weights @ |S C^T|^(2/m) over node blocks of this many entries;
# the block fixes pn's summation order, so changing it changes pn's rounding
_BLOCK_ENTRIES = 4_000_000
# entries of S C^T computed at once (512 KB complex): bounds the kernel's
# temporaries to buffers that stay in cache
_SUB_ENTRIES = 32_768
# grid-max scores formed at once (1 MB real)
_SCORE_ENTRIES = 131_072
_POLISH_START = 0.25   # first compass step on the coefficient sphere
_POLISH_STOP = 1e-9    # the compass search ends once its step falls below this
_POLISH_ROUNDS = 200   # majorization steps per start, and compass steps per call
_ROW_FLOOR = 1e-8      # majorizer weights floor |S_i c| at this fraction of |S_i|


@dataclass(frozen=True)
class OptimizerSpec:
    """Seed of the coefficient-sphere searches.

    The sphere of coefficient lines is scanned on a deterministic grid
    (moduli x relative phases for two-member families, seeded random
    directions above that).  ``ns_density`` runs majorize-minimize steps
    from the two best grid points, then a compass search from all four
    points: each step scores the 4M neighbours c +- delta e_j and
    c +- i delta e_j, renormalized, moves to the best improvement or else
    halves delta (from 0.25), and stops at delta < 1e-9 or after 200 steps.
    """

    seed: int = 2024


def gauss_panels(edges, order: int = _GL_ORDER) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre rule: ``order`` nodes on each panel between
    consecutive ``edges``, as (nodes, weights) in panel order."""
    xs, ws = np.polynomial.legendre.leggauss(order)
    edges = np.asarray(edges, dtype=float)[:, None]
    a, b = edges[:-1], edges[1:]
    return (0.5 * (b - a) * xs + 0.5 * (a + b)).ravel(), (0.5 * (b - a) * ws).ravel()


def _gauss_nodes(logt: float, panel_length: float) -> tuple[np.ndarray, np.ndarray]:
    """Composite GL nodes and weights on [0, logt/2], tail in one panel."""
    half = logt / 2.0
    resolved = min(half, _PANEL_CUT)
    n_panels = max(2, int(math.ceil(resolved / panel_length)))
    edges = list(np.linspace(0.0, resolved, n_panels + 1))
    if half > resolved:
        edges.append(half)
    return gauss_panels(edges)


def _side_values(tables, side: int, logt: float, s: np.ndarray,
                 phi: np.ndarray) -> np.ndarray:
    """Values of every family on one side over the (s, phi) grid, (N, M)."""
    S = np.zeros((len(s) * len(phi), len(tables)), dtype=complex)
    for j, tab in enumerate(tables):
        S[:, j] = eval_table(tab[side], logt, s, phi).reshape(-1)
    return S


def _chart_grid(tables, n_charts: int, logt: float, panel_length: float,
                n_angular: int) -> tuple[np.ndarray, np.ndarray]:
    """Section values S (N, M) and area weights (N,) at the nodes of both
    sides of ``n_charts`` charts, each carrying every family."""
    s_nodes, s_weights = _gauss_nodes(logt, panel_length)
    phi = np.arange(n_angular) * (2.0 * np.pi / n_angular)
    sides = np.concatenate([_side_values(tables, side, logt, s_nodes, phi)
                            for side in (0, 1)])
    weights = np.repeat(s_weights, n_angular) * (2.0 * np.pi / n_angular)
    return np.tile(sides, (n_charts, 1)), np.tile(weights, 2 * n_charts)


def _envelope(S: np.ndarray, weights: np.ndarray, m: int) -> float:
    # sqrt(sum_j |S_j|^2)^(2/m) dominates every unit combination; the row
    # sums run as a product with ones, which is several times faster than
    # sum(axis=1) over a few columns
    return float(weights @ ((np.abs(S) ** 2) @ np.ones(S.shape[1])) ** (1.0 / m))


def coefficient_grid(n_families: int, optimizer: OptimizerSpec | None = None,
                     moduli: int = 33, phase: int = 32) -> np.ndarray:
    """Deterministic unit vectors sampling the coefficient sphere, (K, M).

    Two-member families get ``moduli`` x ``phase`` points; larger ones the
    axes, the pairwise diagonals and seeded random directions up to that
    count.  Always contains the coordinate axes, so grid maxima of
    normalized densities never fall below any single member's own density.
    """
    opt = optimizer or OptimizerSpec()
    if n_families == 1:
        return np.ones((1, 1), dtype=complex)
    if n_families == 2:
        eta = np.linspace(0.0, np.pi / 2.0, moduli)
        delta = np.arange(phase) * (2.0 * np.pi / phase)
        c0 = np.repeat(np.cos(eta), phase)
        c1 = np.repeat(np.sin(eta), phase) * np.exp(1j * np.tile(delta, moduli))
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
    n_extra = max(0, moduli * phase - len(rows))
    raw = rng.standard_normal((n_extra, 2 * n_families))
    vecs = raw[:, ::2] + 1j * raw[:, 1::2]
    vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
    rows.extend(vecs)
    return np.array(rows)


def _sub_blocks(lo: int, hi: int, rows: int):
    """Row ranges of at most ``rows + 1`` rows covering [lo, hi).  A lone
    last row joins the range before it: numpy multiplies a single row as a
    vector, with other rounding than a matrix of rows."""
    while lo < hi:
        end = min(lo + rows, hi)
        if hi - end == 1:
            end = hi
        yield lo, end
        lo = end


def grid_density(S: np.ndarray, C: np.ndarray, m: int,
                 weights: np.ndarray | None = None,
                 pn: np.ndarray | None = None) -> np.ndarray:
    """The extremal-density kernel: |S c|^(2/m) for each row c of C (K, M).

    ``S`` (N, M) holds section values at N nodes.  Given ``weights`` (N,),
    returns the grid pseudonorms pn(c) = weights @ |S c|^(2/m), shape (K,);
    given ``pn`` (K,), the grid-max normalized density max_c |S c|^(2/m) /
    pn(c) per node, shape (N,).

    pn is summed over node blocks of about 4e6 values (``_BLOCK_ENTRIES``),
    which fixes its summation order; within a block, S C^T and its powers
    are formed about 32k values at a time (``_SUB_ENTRIES``) in buffers
    allocated once per call, which keeps these temporaries in cache.  The
    grid maximum picks each node's column with a real Gram form and reads
    its value from S c (see ``_grid_max``).
    """
    if pn is not None:
        return _grid_max(S, C, m, pn)
    n, k = len(S), len(C)
    p = 2.0 / m
    block = max(1, _BLOCK_ENTRIES // max(k, 1))
    rows = max(1, _SUB_ENTRIES // max(k, 1))
    z = np.empty((min(rows + 1, n), k), dtype=complex)
    out = np.zeros(k)
    vals = np.empty((min(block, n), k))
    for lo in range(0, n, block):
        hi = min(lo + block, n)
        for r0, r1 in _sub_blocks(lo, hi, rows):
            a = vals[r0 - lo:r1 - lo]
            np.abs(np.matmul(S[r0:r1], C.T, out=z[:r1 - r0]), out=a)
            if p != 1.0:
                np.power(a, p, out=a)
        out += weights[lo:hi] @ vals[:hi - lo]
    return out


def _unit_rows(S: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row norms of S, floored at the smallest normal float, and S scaled
    by them: unit rows, with all-zero rows left zero."""
    norms = np.maximum(np.linalg.norm(S, axis=1), np.finfo(float).tiny)
    return norms, S / norms[:, None]


def _gram_features(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row of X: |x_j|^2, and x_j conj(x_k) for j < k."""
    j, k = np.triu_indices(X.shape[1], 1)
    return X.real ** 2 + X.imag ** 2, X[:, j] * np.conj(X[:, k])


def _grid_max(S: np.ndarray, C: np.ndarray, m: int, pn: np.ndarray,
              U: np.ndarray | None = None) -> np.ndarray:
    """max_c |S_i c|^(2/m) / pn(c) per node i; ``U`` holds the unit rows
    of S when they are at hand.

    The maximizing column also maximizes t_i(c) = |U_i c|^2 s(c), s = (min
    pn / pn)^m, a real bilinear form in the Gram features of U_i and of c.
    One real matmul scores every distinct column with t_i(c) + gamma
    a_i(c), where a_i(c) = M s(c) sum_j |U_ij|^2 |c_j|^2 and gamma = (M^2
    + 9) eps.  By Cauchy-Schwarz a_i(c) >= s(c) (sum_j |U_ij| |c_j|)^2, so
    the inner-product bound gamma_n (Higham, Accuracy and Stability, 3.1)
    puts a score's rounding below gamma a_i(c) / 2: each score bounds
    t_i(c) from above and, less 2 gamma a_i(c), from below.  A node keeps
    its top column c* alone unless another column's score reaches the
    lower bound of c*; each column that does is read as well, so the true
    maximum is always read.  Values are read from S C^T, so each is
    attained by a grid combination.  The bound holds while the scores stay
    above the float underflow threshold.
    """
    if len(C) > 1:
        keep = np.sort(np.unique(C + 0.0, axis=0, return_index=True)[1])  # -0 == +0
        C, pn = C[keep], pn[keep]
    if len(C) == 1:
        return _normalized(np.matmul(S, C.T)[:, 0], m, pn[0])
    (n, M), k = S.shape, len(C)
    U = _unit_rows(S)[1] if U is None else U
    gamma = (M * M + 9) * np.finfo(float).eps
    s = (pn.min() / pn) ** m
    diag, cross = _gram_features(U)
    F = np.concatenate([diag, cross.real, cross.imag], axis=1)
    cdiag, cross = _gram_features(C)
    G = np.concatenate([(1.0 + gamma * M) * cdiag, 2.0 * cross.real,
                        -2.0 * cross.imag], axis=1).T * s
    # sum_j |U_ij|^2 slack[c, j] = 2 gamma a_i(c)
    slack = 2.0 * gamma * M * s[:, None] * cdiag
    out = np.empty(n)
    rows = max(1, _SCORE_ENTRIES // k)
    score = np.empty((min(rows + 1, n), k))
    for r0, r1 in _sub_blocks(0, n, rows):
        b = np.matmul(F[r0:r1], G, out=score[:r1 - r0])
        i = np.arange(r1 - r0)
        top = np.argmax(b, axis=1)
        low = np.maximum(b[i, top] - np.sum(diag[r0:r1] * slack[top], axis=1), 0.0)
        b[i, top] = -np.inf
        near = np.flatnonzero(b.max(axis=1) > low)
        if near.size:
            rr, cc = np.nonzero(b[near] > low[near, None])
            i, top = np.concatenate([i, near[rr]]), np.concatenate([top, cc])
        vals = _read(S[r0:r1], C, i, top, m, pn)
        out[r0:r1] = vals[:r1 - r0]
        np.maximum.at(out[r0:r1], i[r1 - r0:], vals[r1 - r0:])
    return out


def _read(S: np.ndarray, C: np.ndarray, rows: np.ndarray, cols: np.ndarray,
          m: int, pn: np.ndarray) -> np.ndarray:
    """|S_r c|^(2/m) / pn(c) for the pairs (rows[j], cols[j]) of rows of S
    and of C, from one product of S against the distinct columns.  The
    product is padded with repeated columns to whole groups of four (at
    most all of C): BLAS zgemm kernels (OpenBLAS's among them) round whole
    column groups alike, and as in the full S C^T, but trailing or lone
    columns otherwise.
    """
    uniq, at = np.unique(cols, return_inverse=True)
    uniq = np.resize(uniq, min(-(-len(uniq) // 4) * 4, len(C)))
    return _normalized(np.matmul(S, C[uniq].T)[rows, at], m, pn[cols])


def _normalized(z: np.ndarray, m: int, pn: np.ndarray | float) -> np.ndarray:
    """|z|^(2/m) / pn."""
    a = np.abs(z)
    if m != 2:
        np.power(a, 2.0 / m, out=a)
    return np.divide(a, pn, out=a)


class SectionSystem:
    """Frozen quadrature of a family system over all its half-annulus sides.

    Every family is replicated on max(chain_length) charts.  ``S`` holds
    the scaled section values at all nodes, columns indexed like
    ``families``, ``weights`` the matching area weights, and ``tables``
    the families' side tables.  The build fails unless the envelope
    integral agrees, within 1e-6 relative, with its value on a grid of
    half the panel length and twice the angular nodes; ``grid_error`` is
    that difference.
    """

    def __init__(self, families, logt: float):
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

        self.tables = tables = [side_tables(f) for f in families]
        n_charts = max(f.chain_length for f in families)
        self.S, self.weights = _chart_grid(tables, n_charts, self.logt,
                                           _PANEL_LENGTH, _N_ANGULAR)
        self._grid_pn: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        base = _envelope(self.S, self.weights, m)
        fine = _envelope(*_chart_grid(tables, n_charts, self.logt,
                                      _PANEL_LENGTH / 2.0, 2 * _N_ANGULAR), m)
        self.grid_error = abs(fine - base) / max(abs(base), 1e-300)
        if self.grid_error > 1e-6:
            raise NumericalConvergenceError(
                "frozen quadrature grid failed its refinement check",
                diagnostics={"grid_error": self.grid_error, "logt": self.logt})

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

    def grid_pn(self, optimizer: OptimizerSpec | None = None
                ) -> tuple[np.ndarray, np.ndarray]:
        """The coefficient grid and its pseudonorms, read-only and scored
        once per optimizer seed."""
        seed = (optimizer or OptimizerSpec()).seed
        if seed not in self._grid_pn:
            C = coefficient_grid(len(self.families), optimizer)
            pn_grid = self.pn_batch(C)
            C.flags.writeable = pn_grid.flags.writeable = False
            self._grid_pn[seed] = (C, pn_grid)
        return self._grid_pn[seed]

    @functools.cached_property
    def unit_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """Row norms of ``S`` and its unit rows, read-only (see ``_unit_rows``)."""
        norms, U = _unit_rows(self.S)
        norms.flags.writeable = U.flags.writeable = False
        return norms, U

    def tau_normalized(self, C: np.ndarray, pn_grid: np.ndarray,
                       S: np.ndarray | None = None) -> np.ndarray:
        """Grid-max normalized density max_c |S c|^(2/m) / pn(c) per node."""
        if S is not None:
            return grid_density(S, C, self.m, pn=pn_grid)
        return _grid_max(self.S, C, self.m, pn_grid, self.unit_rows[1])


def pseudonorm(combination, logt: float) -> float:
    """The pseudonorm (integral of |theta|^(2/m)) ** (m/2) of a combination.

    ``combination`` is a sequence of (coefficient, family) pairs sharing
    one tensor order m.
    """
    coeffs = np.array([c for c, _ in combination], dtype=complex)
    families = [f for _, f in combination]
    system = SectionSystem(families, logt)
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
    norms, U = system.unit_rows  # unit rows keep the weights finite
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
               system: SectionSystem | None = None,
               optimizer: OptimizerSpec | None = None) -> float:
    """Extremal density sup over unit combinations of |theta_c(w)|^(2/m) / pn(c).

    ``w`` is a point of the w side of the first chart; the returned value
    is a density against the area measure dA(w).  The two best points of
    the coefficient grid are polished (see ``OptimizerSpec``), each compass
    step in one ``pn_batch`` call.  Every candidate is a unit coefficient
    vector, so the value is attained and bounds the sup from below.
    """
    system = system or SectionSystem(families, logt)
    m = system.m
    n = len(system.families)
    v = np.array([fiber_value(f, logt, w) for f in system.families])
    log_area = -2.0 * math.log(abs(complex(w)))
    if n == 1:
        val = abs(v[0])
        if val == 0.0:
            return 0.0
        return math.exp((2.0 / m) * math.log(val) + log_area) / system.pn([1.0])

    def log_density(C: np.ndarray, pn_c: np.ndarray | None = None) -> np.ndarray:
        amps = np.abs(C @ v)
        with np.errstate(divide="ignore"):
            return (2.0 / m) * np.log(amps) - np.log(
                system.pn_batch(C) if pn_c is None else pn_c)

    grid, pn_grid = system.grid_pn(optimizer)
    scores = log_density(grid, pn_grid)
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
                   system: SectionSystem | None = None,
                   optimizer: OptimizerSpec | None = None) -> np.ndarray:
    """Hermitian matrix of integrals of theta_j conj(theta_k) / tau^(m-1).

    tau is the extremal density of the same system, realized per node as a
    grid maximum; the matrix is a Gram matrix against the positive weight
    tau^(1-m), so it must come out positive definite.
    """
    system = system or SectionSystem(families, logt)
    m = system.m
    tau = system.tau_normalized(*system.grid_pn(optimizer))
    norms, U = system.unit_rows
    # |S_i|^2 tau_i^(1-m) in logs, on unit rows: tau^(1-m) alone overflows
    # where every section is small; all-zero rows (tau = 0) add nothing
    live = tau > 0.0
    g = np.zeros_like(tau)
    g[live] = system.weights[live] * np.exp(2.0 * np.log(norms[live])
                                            + (1 - m) * np.log(tau[live]))
    A = (U.T * g) @ np.conj(U)
    A = 0.5 * (A + np.conj(A.T))
    if not np.all(np.isfinite(A)):
        raise NumericalConvergenceError(
            "pairing matrix is not finite", diagnostics={"logt": logt, "m": m})
    eigs = np.linalg.eigvalsh(A)
    if eigs[0] <= -1e-12 * max(abs(eigs[-1]), 1e-300):
        raise InternalConsistencyError("pairing matrix lost positive definiteness")
    return A


def pb_density(families, logt: float, w: complex,
               system: SectionSystem | None = None,
               optimizer: OptimizerSpec | None = None) -> float:
    """Density at w of the measure sum (conj(A)^-1)_jk theta_j conj(theta_k) / tau^(m-1)."""
    system = system or SectionSystem(families, logt)
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
                    f=None, optimizer: OptimizerSpec | None = None) -> float:
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
    system = SectionSystem(families, logt)
    C, pn_grid = system.grid_pn(optimizer)

    def piece(lo: float, hi: float, side: int, n_sub: int, na: int) -> float:
        if hi <= lo:
            return 0.0
        phi = np.arange(na) * (2.0 * np.pi / na)
        u_all, w_all = gauss_panels(np.linspace(lo, hi, n_sub + 1))
        total = 0.0
        # one panel at a time bounds memory
        for u, wu in zip(u_all.reshape(n_sub, -1), w_all.reshape(n_sub, -1)):
            s = u * logt if side == 0 else (1.0 - u) * logt
            S = _side_values(system.tables, side, logt, s, phi)
            tau = system.tau_normalized(C, pn_grid, S=S).reshape(len(u), na)
            fw = np.ones_like(u) if f is None else np.asarray(f(u), dtype=float)
            total += float((tau.sum(axis=1) * (2.0 * np.pi / na) * fw) @ wu) * logt
        return total

    def total_at(n_sub: int, na: int) -> float:
        return (piece(a, min(b, 0.5), 0, n_sub, na)
                + piece(max(a, 0.5), b, 1, n_sub, na))

    # first level: two panels on each side's part, the chart's angular count
    n_sub, na = 2, _N_ANGULAR
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
