"""Pseudonorms, extremal (Narasimhan-Simha) densities, and pairing matrices
for truncated section families on node charts.

Everything is evaluated on frozen composite Gauss-Legendre grids in the
log-radial coordinate s = log(1/|w|) tensor a uniform angular grid.  The
grids resolve the s = O(1) feature zone at machine precision and cover the
flat middle of the annulus with a single tail panel, so runtimes are flat
in log(1/|t|) and nothing overflows at log(1/|t|) = 1e4.  A grid holds one
row of section values per node, except that a ring of angular nodes whose
rows deviate from its first row, in sum, by at most machine epsilon times
its largest row (deep in the annulus each section is its dominant Laurent
term plus terms smaller by e^-s) is that first row carrying the ring's
summed weight; see ``_collapse_rings`` for the bound on pn.  An l-chain is
one chart whose weights carry the factor l.  Each build checks its grid
against level 1 of the ladder through the envelope integral of (sum_j
|S_j|^2)^(1/m).  Level 1 keeps every node, and its squared row norms come
from the term tables (at each s a family is a short Fourier series in
phi), so no level-1 grid is built.

Each system holds one term table per chart side (``laurent.SideTerms``:
every family's Laurent terms as arrays), built once.  The grids, the
build check's squared norms and the values at a point w all read it.

Numeric contract: pinned values hold to 1e-12 relative, and the summation
order of every grid sum is free.

Density conventions: values are densities against the Euclidean area
measure of the chart coordinate.  The m-th root trick applies throughout:
a family theta is handled through p = w^m * theta_t, whose 2/m power
absorbs both the pole and the area rescaling.

Every density goes through two kernels.  ``grid_density`` sums the
pseudonorms pn(c) of a coefficient grid, and ``grid_max`` takes the
extremal density at each node as the grid maximum of |S c|^(2/m) / pn(c).
Both score exactly the rows they are given, and ``coefficient_grid``
makes them distinct.  In ``grid_max`` a real Gram form picks the
maximizing column, a bound on its rounding certifies the pick, and the
value is read from S C^T, so the maximum is always attained by a grid
combination.

A system scores its coefficient grid's pseudonorms once
(``SectionSystem.grid_pn``).  When every term coefficient is real, S at
-phi is conj(S) at phi.  The node grid is closed under phi -> -phi with
equal weights, so pn(conj(c)) = pn(c).  Such a system scores one row of
each conjugate pair of the grid and copies the value to the row's partner.
A copied value differs from a direct pass only by summation order.

``ns_density`` needs only the top two rows of its coefficient grid, so on a
system whose grid pseudonorms are not yet scored it bounds them instead
(``_grid_scores``): partial sums over the heaviest nodes and a quadratic
form over the rest bound each pn(c) below, a Hoelder bound on the rest
bounds it above, both are widened by their rounding, and a row whose best
case falls below the second-best worst case cannot be in the top two.
Only the rows left get exact pseudonorms.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from ._lazy import np
from .errors import InternalConsistencyError, NumericalConvergenceError
from .laurent import side_terms, side_values

__all__ = [
    "OptimizerSpec",
    "SectionSystem",
    "coefficient_grid",
    "gauss_panels",
    "grid_density",
    "grid_max",
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
# entries of S C^T computed at once (512 KB complex): bounds the kernel's
# temporaries to buffers that stay in cache
_SUB_ENTRIES = 32_768
# grid-max scores formed at once (1 MB real)
_SCORE_ENTRIES = 131_072
_POLISH_START = 0.25   # first compass step on the coefficient sphere
_POLISH_STOP = 1e-9    # the compass search ends once its step falls below this
_POLISH_ROUNDS = 200   # majorization steps per start, and compass steps per call
_ROW_FLOOR = 1e-8      # majorizer weights floor |S_i c| at this fraction of |S_i|
_MERGE_RADIUS = 0.1    # starts this fraction of their step off a better one are dropped
_FIRST_CHUNK = 6       # the grid stage of ns_density first sums the top N >> 6 nodes
_GRID_SEED = 2024      # the fixed seed of the random rows of grids of M >= 3 families


@dataclass(frozen=True)
class OptimizerSpec:
    """Accepted in the positional ``optimizer`` slot of ``ns_density``,
    ``pb_density`` and ``ns_mass_genus0``, which ``perfbench/`` still fills,
    and read by nothing: ``coefficient_grid`` takes no options, so ``seed``
    has no effect."""

    seed: int = 2024


@functools.cache
def _legendre(order: int) -> tuple[np.ndarray, np.ndarray]:
    """The Gauss-Legendre rule on [-1, 1], read-only and computed once per order."""
    xs, ws = np.polynomial.legendre.leggauss(order)
    xs.flags.writeable = ws.flags.writeable = False
    return xs, ws


def gauss_panels(edges, order: int = _GL_ORDER) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre rule: ``order`` nodes on each panel between
    consecutive ``edges``, as (nodes, weights) in panel order."""
    xs, ws = _legendre(order)
    edges = np.asarray(edges, dtype=float)[:, None]
    a, b = edges[:-1], edges[1:]
    return (0.5 * (b - a) * xs + 0.5 * (a + b)).ravel(), (0.5 * (b - a) * ws).ravel()


def _chart_rule(logt: float, level: int,
                n_charts: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The level-``level`` nodes of one side of a chart: s-nodes of
    composite Gauss-Legendre panels of length _PANEL_LENGTH / 2^level up to
    _PANEL_CUT and one tail panel, _N_ANGULAR * 2^level uniform angles phi,
    and the area weights of their tensor grid, s-major, times ``n_charts``."""
    half = logt / 2.0
    resolved = min(half, _PANEL_CUT)
    n_panels = max(2, int(math.ceil(resolved / (_PANEL_LENGTH / 2 ** level))))
    edges = list(np.linspace(0.0, resolved, n_panels + 1))
    if half > resolved:
        edges.append(half)
    s_nodes, s_weights = gauss_panels(edges)
    na = _N_ANGULAR << level
    phi = np.arange(na) * (2.0 * np.pi / na)
    return s_nodes, phi, np.repeat(s_weights, na) * (2.0 * np.pi * n_charts / na)


def _chart_grid(terms, n_charts: int, logt: float,
                level: int) -> tuple[np.ndarray, np.ndarray]:
    """Section values S (N, M) and area weights (N,) at the ``_chart_rule``
    nodes of both sides of one chart carrying every family, from the
    (w side, z side) term tables ``terms``.  The ``n_charts`` charts of a
    chain hold the same values, so the weights carry the factor n_charts."""
    s_nodes, phi, weights = _chart_rule(logt, level, n_charts)
    sides = np.concatenate([side_values(t, logt, s_nodes, phi) for t in terms])
    return sides, np.tile(weights, 2)


def _side_norms(terms, logt: float, s: np.ndarray, phi: np.ndarray,
                out: np.ndarray) -> None:
    """Write sum_j |S_j|^2 over the (s, phi) grid of one side into ``out``
    (len(s), len(phi)), from the side's term table ``terms`` without
    forming S.

    Term t of family j has the radial factor a_t(s) = c_t e^-(b_t L + k_t s)
    and the angular factor e^(i k_t phi), so sum_j |S_j|^2 = sum_D R_D(s)
    e^(i D phi), where R_D sums a_t conj(a_t') over the term pairs of one
    family with slope difference k_t - k_t' = D.  One real product of
    (Re R, Im R) against (cos D phi, -sin D phi) evaluates it at every node.
    Per node this expanded form rounds to within about c eps (sum_t
    |a_t|)^2, c a small multiple of the term count, where |S_j|^2 from
    built values rounds to about 2 eps |S_j| sum_t |a_t|: the two agree to
    rounding except where a family cancels far below its terms.
    Values rounded below zero are clamped to zero.
    """
    slope = terms.slope
    a = terms.coeff * np.exp(-(terms.base * logt + np.outer(s, slope)))
    t, u = np.nonzero(terms.family[:, None] == terms.family[None, :])
    diffs, at = np.unique(slope[t] - slope[u], return_inverse=True)
    R = (a[:, t] * np.conj(a[:, u])) @ (at[:, None] == np.arange(len(diffs)))
    angle = np.outer(diffs, phi)
    np.matmul(np.concatenate([R.real, R.imag], axis=1),
              np.concatenate([np.cos(angle), -np.sin(angle)]), out=out)
    np.maximum(out, 0.0, out=out)


def _table_norms(terms, n_charts: int, logt: float,
                 level: int) -> tuple[np.ndarray, np.ndarray]:
    """Squared row norms sum_j |S_j|^2 (N,) and area weights (N,) at the
    nodes of ``_chart_grid(terms, n_charts, logt, level)``, taken from the
    term tables (see ``_side_norms``) instead of a built grid."""
    s_nodes, phi, weights = _chart_rule(logt, level, n_charts)
    sq = np.empty((2, len(s_nodes), len(phi)))
    for side in (0, 1):
        _side_norms(terms[side], logt, s_nodes, phi, sq[side])
    return sq.reshape(-1), np.tile(weights, 2)


def _collapse_rings(S: np.ndarray, weights: np.ndarray,
                    ring: int) -> tuple[np.ndarray, np.ndarray]:
    """Merge each ring (``ring`` consecutive rows S_a of equal weight
    w, one s-node of one side) with sum_a |S_a - S_0| <= eps max_a |S_a|
    (2-norms, eps = 2^-52 the machine epsilon) into its first row S_0,
    carrying the ring's summed weight; other rings stay as they are.

    Every grid quantity depends on a node only through its row and its
    weight.  For a unit c, |S_a c - S_0 c| <= |S_a - S_0|, so merging a ring
    moves pn(c) = sum_i w_i |S_i c|^p, p = 2/m, by at most w eps max_a |S_a|
    for m = 2: one rounding unit of the ring's largest term.  For
    m >= 3 the first-order change is w p |S_0 c|^(p-1) eps max_a |S_a|;
    where |S_0 c| ~ 0 the Hoelder bound ||x|^p - |y|^p| <= |x - y|^p
    caps it at w ring^(1-p) (eps max_a |S_a|)^p.  The test sums the
    deviations rather than taking their largest: a small column x e^{i phi}
    cancels over the ring but survives the merge at first order (in the
    pairing cross entries), and the sum holds that error to w eps max_a
    |S_a|, ``ring`` times below a per-row test.  Returns S and weights
    themselves when no ring merges.
    """
    # squared row norms as real products with ones, several times faster
    # than norms over a few complex columns
    X = S.view(float)
    ones = np.ones(X.shape[1])
    R = X.reshape(-1, ring, X.shape[1])
    sq = np.square(R - R[:, :1]).reshape(X.shape)
    spread = np.sqrt(sq @ ones).reshape(-1, ring).sum(axis=1)
    top = np.sqrt((np.square(X, out=sq) @ ones).reshape(-1, ring).max(axis=1))
    flat = spread <= np.finfo(float).eps * top
    if not flat.any():
        return S, weights
    keep = np.ones((len(flat), ring), dtype=bool)
    keep[flat, 1:] = False
    rings = weights.reshape(-1, ring).copy()
    rings[flat, 0] = rings[flat].sum(axis=1)
    return S[keep.ravel()], rings[keep]


def _refine(value_at, tol: float, top: int, what: str, **context) -> tuple[float, float]:
    """Walk the resolution ladder: ``value_at(level)`` for levels 0, 1, ...,
    ``top``, stopping at the first level k >= 1 whose value is finite and
    within ``tol`` max(|v_k|, 1e-300) of level k - 1 (a NaN never agrees).
    Returns (v_k, |v_k - v_(k-1)|).  Past ``top`` it raises
    NumericalConvergenceError(``what``) with ``best`` the level-``top``
    value and diagnostics {"iterates": [v_0, ..., v_top], **context}.
    """
    iterates = [value_at(0)]
    for level in range(1, top + 1):
        iterates.append(value_at(level))
        cur, gap = iterates[-1], abs(iterates[-1] - iterates[-2])
        if math.isfinite(cur) and gap <= tol * max(abs(cur), 1e-300):
            return cur, gap
    raise NumericalConvergenceError(
        what, best=iterates[-1], diagnostics={"iterates": iterates, **context})


def _envelope(sq: np.ndarray, weights: np.ndarray, m: int) -> float:
    """Integral of (sum_j |S_j|^2)^(1/m), which dominates |S c|^(2/m) for
    every unit c, from the squared row norms ``sq`` (N,) and the weights
    (N,).  A build passes the squared norms of its level-0 grid, then the
    level-1 ones that ``_table_norms`` computes from the term tables, so no
    level-1 grid is built."""
    return float(weights @ sq ** (1.0 / m))


def coefficient_grid(n_families: int, level: int = 0) -> np.ndarray:
    """Deterministic unit vectors sampling the coefficient lines, (K, M),
    read-only and made once per (``n_families``, ``level``).
    ``n_families`` < 1 or ``level`` < 0 raises ValueError.

    Normalized densities ignore the scale and phase of c, so the grid
    holds one row per line.  At ``level`` k there are phase = 32 * 2^k
    phases and moduli = phase + 1 moduli.  Two-member families get 2 +
    (moduli - 2) x phase rows: (1, 0), then (cos eta, sin eta e^(i delta))
    for the ``moduli - 2`` interior values of eta on a uniform grid of [0,
    pi/2], each with ``phase`` phases delta, then (0, 1).  Larger ones get
    the axes, the pairwise diagonals and random directions drawn from the
    fixed seed 2024 up to moduli x phase rows; no option changes them.
    Every grid holds the coordinate axes exactly, so grid maxima of
    normalized densities never fall below any single member's own density.

    The conjugate of a row is a row of the same grid, up to rounding of
    the phases, for every row of a two-member grid (phase delta pairs with
    -delta; the axes and delta = 0, pi are their own) and for the
    diagonals (1, +-i)/sqrt(2) of a larger one.  ``SectionSystem.grid_pn``
    scores one row of each such pair on a real-coefficient system.
    """
    n_families, level = int(n_families), int(level)
    if n_families < 1:
        raise ValueError(f"n_families must be at least 1, got {n_families}")
    if level < 0:
        raise ValueError(f"level must be nonnegative, got {level}")
    return _coefficient_grid(n_families, level)[0]


@functools.cache
def _coefficient_grid(n_families: int, level: int) -> tuple[np.ndarray, np.ndarray]:
    """The grid of ``coefficient_grid`` and its conjugate partners (K,):
    an involution of the row indices, by the grid's construction, under
    which row partner[i] is conj(C[i]) up to rounding wherever partner[i]
    != i.  Rows with no conjugate in the grid are their own partners.
    Both read-only."""
    phase = 32 << level
    moduli = phase + 1
    if n_families == 1:
        C = np.ones((1, 1), dtype=complex)
        partner = np.zeros(1, dtype=int)
    elif n_families == 2:
        eta = np.linspace(0.0, np.pi / 2.0, moduli)[1:-1]
        delta = np.arange(phase) * (2.0 * np.pi / phase)
        c0 = np.repeat(np.cos(eta), phase)
        c1 = np.repeat(np.sin(eta), phase) * np.exp(1j * np.tile(delta, moduli - 2))
        C = np.concatenate([[[1.0, 0.0]], np.stack([c0, c1], axis=1), [[0.0, 1.0]]])
        # row 1 + i phase + j holds eta_i and delta_j; -delta_j is delta_(-j mod phase)
        mirror = np.arange(moduli - 2)[:, None] * phase + (-np.arange(phase)) % phase
        partner = np.concatenate([[0], 1 + mirror.ravel(), [len(C) - 1]])
    else:
        rows = list(np.eye(n_families, dtype=complex))
        for j in range(n_families):
            for k in range(j + 1, n_families):
                for z in (1.0, -1.0, 1j, -1j):
                    v = np.zeros(n_families, dtype=complex)
                    v[j] = 1.0
                    v[k] = z
                    rows.append(v / np.sqrt(2.0))
        rng = np.random.default_rng(_GRID_SEED)
        n_extra = max(0, moduli * phase - len(rows))
        raw = rng.standard_normal((n_extra, 2 * n_families))
        vecs = raw[:, ::2] + 1j * raw[:, 1::2]
        vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
        rows.extend(vecs)
        C = np.array(rows)
        # after the axes, each pair's diagonals run z = 1, -1, i, -i
        partner = np.arange(len(C))
        plus_i = n_families + 2 + 4 * np.arange(n_families * (n_families - 1) // 2)
        partner[plus_i], partner[plus_i + 1] = plus_i + 1, plus_i
    C.flags.writeable = partner.flags.writeable = False
    return C, partner


def grid_density(S: np.ndarray, C: np.ndarray, m: int,
                 weights: np.ndarray) -> np.ndarray:
    """The pseudonorm kernel: pn(c) = weights @ |S c|^(2/m) for each row c
    of C (K, M), shape (K,).

    ``S`` (N, M) holds section values at N nodes and ``weights`` (N,) their
    area weights.  Every row of C is scored as given, so callers pass
    distinct rows.  S C^T and its powers are formed about 32k values at a
    time (``_SUB_ENTRIES``) in buffers allocated once per call, which keeps
    these temporaries in cache, and pn adds each sub-block's weighted sum.
    """
    n, k = len(S), len(C)
    p = 2.0 / m
    rows = max(1, _SUB_ENTRIES // max(k, 1))
    z = np.empty((min(rows, n), k), dtype=complex)
    vals = np.empty((min(rows, n), k))
    out = np.zeros(k)
    for r0 in range(0, n, rows):
        r1 = min(r0 + rows, n)
        a = vals[:r1 - r0]
        np.abs(np.matmul(S[r0:r1], C.T, out=z[:r1 - r0]), out=a)
        if p != 1.0:
            np.power(a, p, out=a)
        out += weights[r0:r1] @ a
    return out


def _unit_rows(S: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row norms of S, floored at the smallest normal float, and S scaled
    by them: unit rows, with all-zero rows left zero.  A row whose squared
    norm would underflow (norm below 1e-150) is scaled by its largest entry
    before its norm is taken, so no row comes out longer than 1."""
    tiny = np.finfo(float).tiny
    norms = np.linalg.norm(S, axis=1)
    small = np.flatnonzero(norms < 1e-150)
    if small.size:
        top = np.maximum(np.abs(S[small]).max(axis=1), tiny)
        norms[small] = top * np.linalg.norm(S[small] / top[:, None], axis=1)
    norms = np.maximum(norms, tiny)
    return norms, S / norms[:, None]


def _gram_features(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row of X: |x_j|^2, and x_j conj(x_k) for j < k."""
    j, k = np.triu_indices(X.shape[1], 1)
    return X.real ** 2 + X.imag ** 2, X[:, j] * np.conj(X[:, k])


def grid_max(S: np.ndarray, C: np.ndarray, m: int, pn: np.ndarray,
             U: np.ndarray | None = None) -> np.ndarray:
    """The extremal-density kernel: the grid-max normalized density
    max_c |S_i c|^(2/m) / pn(c) per node i, shape (N,), for section values
    ``S`` (N, M), distinct coefficient rows C (K, M) and their pseudonorms
    ``pn`` (K,).  ``U`` holds the unit rows of S when they are at hand.

    The maximizing column also maximizes t_i(c) = |U_i c|^2 s(c), s = (min
    pn / pn)^m, a real bilinear form in the Gram features of U_i and of c.
    One real matmul scores every column with t_i(c) + gamma
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
    score = np.empty((min(rows, n), k))
    for r0 in range(0, n, rows):
        r1 = min(r0 + rows, n)
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

    The families share one tensor order m and one chain length l, or the
    build raises ValueError; the l charts of the chain hold the same
    values.  ``S`` holds one chart's scaled section values, one row per
    node and columns indexed like ``families``, and ``weights`` the
    matching area weights times l.  A ring (one s-node of one side) whose
    rows deviate from its first row by at most eps times its largest row
    in summed 2-norm is that first row carrying the ring's summed weight
    (see ``_collapse_rings``).  ``terms`` holds the (w side, z side) term
    tables of the families (``laurent.side_terms``), built once; the grid,
    the build check and the point values all read them.  The grid is
    level 0 of ``_chart_grid``; the envelope integral of its squared row
    norms walks to level 1, with every ring kept, by ``_refine`` at 1e-6,
    and ``grid_error`` is the gap relative to level 1.  Level 1 is computed
    from the term tables (``_table_norms``), not from a built grid.  A
    family that is zero on every node builds, but ``grid`` refuses it.
    ``grid_pn`` scores the coefficient grid once.  If every term
    coefficient is real, it scores one row of each conjugate pair, since
    pn(conj(c)) = pn(c) on the mirror-closed node grid.
    """

    def __init__(self, families, logt: float):
        families = tuple(families)
        if not families:
            raise ValueError("need at least one family")
        m = families[0].m
        if any(f.m != m for f in families):
            raise ValueError("all families must share the same tensor order m")
        n_charts = families[0].chain_length
        if any(f.chain_length != n_charts for f in families):
            raise ValueError("families must share one chain length")
        logt = float(logt)
        if not (math.isfinite(logt) and logt > 0.0):
            raise ValueError(f"logt must be finite and positive, got {logt!r}")
        self.families = families
        self.m = m
        self.logt = logt

        self.terms = terms = (side_terms(families, 0), side_terms(families, 1))
        self.S, self.weights = _collapse_rings(
            *_chart_grid(terms, n_charts, self.logt, 0), _N_ANGULAR)
        self._grid_pn: np.ndarray | None = None
        # the row sums run as a product with ones, which is several times
        # faster than sum(axis=1) over a few columns
        base = _envelope((np.abs(self.S) ** 2) @ np.ones(len(families)), self.weights, m)
        # level 1 keeps every ring, so the check covers the merges too
        fine, gap = _refine(lambda level: base if level == 0 else _envelope(
            *_table_norms(terms, n_charts, self.logt, level), m), 1e-6, 1,
            "frozen quadrature grid failed its refinement check", logt=self.logt)
        self.grid_error = gap / max(abs(fine), 1e-300)

    @property
    def n_nodes(self) -> int:
        return self.S.shape[0]

    def values_at(self, w: complex) -> np.ndarray:
        """Each family's w^m * theta_t at a point w of the w side, (M,): the
        terms of ``terms[0]`` in complex logarithms, c e^(-base L + slope
        log w), summed in term order.  ``side_values`` at (s, phi) =
        (-log|w|, arg w) rounds about an ulp apart, and the m >= 3 search,
        which stops on its round cap, can turn that into 1e-7 of its value.
        """
        t = self.terms[0]
        v = np.zeros(t.n_families, dtype=complex)
        np.add.at(v, t.family,
                  t.coeff * np.exp(-self.logt * t.base + t.slope * np.log(complex(w))))
        return v

    def pn(self, coeffs) -> float:
        """Integral of |theta_c|^(2/m) over all sides for one coefficient row."""
        return float(grid_density(self.S, np.asarray(coeffs, dtype=complex)[None, :],
                                  self.m, weights=self.weights)[0])

    def pn_batch(self, grid: np.ndarray) -> np.ndarray:
        """Same integral for every row of a (K, M) coefficient grid."""
        return grid_density(self.S, grid, self.m, weights=self.weights)

    def grid(self) -> tuple[np.ndarray, np.ndarray | None]:
        """The coefficient grid ``coefficient_grid(M)``, shared by every
        system of M families, and its pseudonorms once ``grid_pn`` has
        scored them (else None).  The grid holds the exact axes, so a
        family that is zero on every node would score pn = 0 and divide by
        it: such a family raises ValueError instead."""
        zero = np.flatnonzero(~self.S.any(axis=0))
        if zero.size:
            raise ValueError(f"family {zero[0]} is zero on every node: "
                             "its pseudonorm is 0")
        return coefficient_grid(len(self.families)), self._grid_pn

    def grid_pn(self) -> tuple[np.ndarray, np.ndarray]:
        """The coefficient grid and its pseudonorms, read-only and scored
        once per system (see ``grid``).

        When every term coefficient is real, S at phi and at -phi are
        conjugate, and the node grid is closed under phi -> -phi with equal
        weights, so pn(conj(c)) = pn(c).  Such a system scores one row of
        each conjugate pair of the grid (see ``coefficient_grid``; 529 of
        994 rows for two families) in one ``pn_batch`` call and copies each
        value to the row's partner.  A copied value differs from a direct
        pass only by summation order.  Any other system scores every row."""
        C, pn_grid = self.grid()
        if pn_grid is None:
            if any(t.coeff.imag.any() for t in self.terms):
                pn_grid = self.pn_batch(C)
            else:
                partner = _coefficient_grid(len(self.families), 0)[1]
                reps = np.flatnonzero(partner >= np.arange(len(C)))
                pn_grid = np.empty(len(C))
                pn_grid[reps] = self.pn_batch(C[reps])
                pn_grid[partner[reps]] = pn_grid[reps]
            self._grid_pn = pn_grid
            pn_grid.flags.writeable = False
        return C, pn_grid

    @functools.cached_property
    def unit_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """Row norms of ``S`` and its unit rows, read-only (see ``_unit_rows``)."""
        norms, U = _unit_rows(self.S)
        norms.flags.writeable = U.flags.writeable = False
        return norms, U

    @functools.cached_property
    def unit_weights(self) -> np.ndarray:
        """b_i = w_i |S_i|^(2/m), read-only: pn(c) = b @ |U c|^(2/m) over
        the unit rows U, so b_i is the most node i adds to pn(c) for a
        unit c."""
        b = self.weights * self.unit_rows[0] ** (2.0 / self.m)
        b.flags.writeable = False
        return b

    def tau_normalized(self, C: np.ndarray, pn_grid: np.ndarray) -> np.ndarray:
        """Grid-max normalized density max_c |S c|^(2/m) / pn(c) per node."""
        return grid_max(self.S, C, self.m, pn_grid, self.unit_rows[1])


def pseudonorm(combination, logt: float) -> float:
    """The pseudonorm (integral of |theta|^(2/m)) ** (m/2) of a combination.

    ``combination`` is a sequence of (coefficient, family) pairs sharing
    one tensor order m.
    """
    coeffs = np.array([c for c, _ in combination], dtype=complex)
    families = [f for _, f in combination]
    system = SectionSystem(families, logt)
    return system.pn(coeffs) ** (system.m / 2.0)


def _pn_bounds(system: SectionSystem, C: np.ndarray, part: np.ndarray,
               rest: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bounds (lo, hi) on pn(c) for the unit rows c of C (K, M), where
    ``part`` (K,) holds their ``grid_density`` sums over every node but the
    nodes ``rest``.

    With b the ``unit_weights`` and U the unit rows, the nodes in ``rest``
    add sum b_i t_i^(1/m), t_i = |U_i c|^2 <= 1, and G = U^H diag(b) U over
    ``rest`` gives sum b_i t_i = c^H G c.  Hoelder's inequality bounds the
    rest above by (sum b_i)^(1-1/m) (c^H G c)^(1/m), and t^(1/m) >= t below
    by c^H G c.  Unit rows keep G finite for tiny or huge families.

    Both bounds hold for pn as ``grid_density`` rounds it, in any summation
    order: fl(S_i c) lies within 2 (M + 2) eps |S_i| of S_i c, and ||x|^p -
    |y|^p| <= |x - y|^p for p = 2/m <= 1, so a node's term rounds to within
    gamma_n (Higham, Accuracy and Stability, 3.1) of itself plus (2 (M + 2)
    eps)^p b_i; the computed c^H G c lies within gamma (|c|^T |G| |c| + sum
    b_i) of the exact one.  They hold while the terms stay above the float
    underflow threshold.
    """
    M, p = C.shape[1], 2.0 / system.m
    eps = np.finfo(float).eps
    gamma = (len(system.unit_weights) + M * M + 9) * eps
    floor = 3.0 * (2 * (M + 2) * eps) ** p * system.unit_weights.sum()
    U, b = system.unit_rows[1][rest], system.unit_weights[rest]
    total = b.sum()
    G = (U.conj().T * b) @ U
    q = ((C.conj() @ G) * C).sum(axis=1).real
    slack = gamma * (((np.abs(C) @ np.abs(G)) * np.abs(C)).sum(axis=1) + total)
    tail = ((total * (1.0 + gamma)) ** (1.0 - p / 2.0)
            * np.maximum(q + slack, 0.0) ** (p / 2.0))
    lo = (part + np.maximum(q - slack, 0.0)) * (1.0 - 3.0 * gamma) - floor
    return lo, (part + tail) * (1.0 + 3.0 * gamma) + floor


def _grid_scores(system: SectionSystem, C: np.ndarray, pn_grid: np.ndarray | None,
                 v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The grid stage of ``ns_density``: (rows, scores), the rows of the
    coefficient grid ``C`` that can reach its top two scores (2/m) log|c.v|
    - log pn(c), and their scores.  ``pn_grid`` holds the grid's
    pseudonorms if they are already scored: then every row is summed, and
    every row is kept.

    Otherwise the stage sums the nodes by descending ``unit_weights``, the
    top N / 64 first, then doubling the summed count up to N / 2.  After
    each chunk ``_pn_bounds`` bounds pn(c) of every live row, and a row
    whose upper score (from lo) falls below the second-best lower score
    (from hi) is dropped: two rows score above it.  Pruning stops once a
    chunk drops fewer than half the live rows, and one ``pn_batch`` call
    scores the rows left.  The scores are those of the full grid pass, row
    for row, up to the summation order of pn.
    """
    with np.errstate(divide="ignore"):
        log_amp = (2.0 / system.m) * np.log(np.abs(C @ v))
    rows = np.arange(len(C))
    if pn_grid is None:
        order = np.argsort(-system.unit_weights, kind="stable")
        part = np.zeros(len(C))
        done = 0
        for shift in range(_FIRST_CHUNK, 0, -1):
            end = len(order) >> shift
            if end <= done:
                continue
            nodes = order[done:end]
            part += grid_density(system.S[nodes], C[rows], system.m,
                                 system.weights[nodes])
            done = end
            lo, hi = _pn_bounds(system, C[rows], part, order[done:])
            # lo <= 0 reads as an upper score of +inf, or NaN where c.v = 0:
            # either keeps the row
            with np.errstate(divide="ignore", invalid="ignore"):
                upper = log_amp[rows] - np.log(lo)
            lower = log_amp[rows] - np.log(hi)
            keep = ~(upper < np.partition(lower, -2)[-2])
            rows, part = rows[keep], part[keep]
            if 2 * len(rows) > len(keep) or len(rows) <= 2:
                break
        pn_grid = system.pn_batch(C[rows])
    with np.errstate(divide="ignore"):
        return rows, log_amp[rows] - np.log(pn_grid)


def _majorize(system: SectionSystem, v: np.ndarray, starts, scores,
              log_density) -> tuple[np.ndarray, np.ndarray]:
    """Majorize-minimize ascents from unit rows ``starts``: the starts, then
    the end of each ascent that moved, with their scores.  A step c ~
    A^-1 conj(v), A = S^H diag(w_i |S_i c|^(p-2)) S with p = 2/m, minimizes
    the tangent bound of pn on the chart v.c = 1, so it follows the ridges
    where rows cancel, on which extremal combinations sit and coordinate
    steps stall.
    """
    p = 2.0 / system.m
    U = system.unit_rows[1]  # unit rows keep the weights finite
    base = system.unit_weights
    rows, vals = list(starts), list(scores)
    for c, h0 in zip(starts, scores):
        h = h0
        for _ in range(_POLISH_ROUNDS):
            ratio = np.maximum(np.abs(U @ c), _ROW_FLOOR)
            A = (U.conj().T * (base * ratio ** (p - 2.0))) @ U
            y = np.linalg.lstsq(A, np.conj(v), rcond=None)[0]
            y /= np.linalg.norm(y)
            hy = float(log_density(y[None, :])[0])
            if not hy > h:
                break
            c, h = y, hy
        if h > h0:  # each step rises, so the ascent moved
            rows.append(c)
            vals.append(h)
    return np.array(rows), np.array(vals)


def _distinct_starts(c: np.ndarray, h: np.ndarray, step: np.ndarray,
                     live: np.ndarray) -> np.ndarray:
    """The live compass starts by descending score, less each whose line
    lies within _MERGE_RADIUS times its own step of a better kept start's
    line: 1 - |<a, b>|^2, the squared sine of the angle between the lines,
    below (_MERGE_RADIUS step)^2.  Such a start only retraces the better
    one, one step behind it."""
    live = live[np.argsort(-h[live], kind="stable")]
    near = 1.0 - np.abs(np.conj(c[live]) @ c[live].T) ** 2
    radius = (_MERGE_RADIUS * step[live]) ** 2
    keep = []
    for i in range(len(live)):
        if all(near[i, j] >= radius[i] for j in keep):
            keep.append(i)
    return live[keep]


def _system_for(families, logt: float, system: SectionSystem | None) -> SectionSystem:
    """``system`` if it was built for exactly these families at this depth,
    else a new one when none is given."""
    if system is None:
        return SectionSystem(families, logt)
    if system.families != tuple(families):
        raise ValueError("system was built for other families than the ones given")
    if system.logt != float(logt):
        raise ValueError(f"system was built at another logt ({system.logt:g}) "
                         f"than the one given ({float(logt):g})")
    return system


def _check_chart_point(w: complex, logt: float) -> None:
    """Reject any w off the w side of the chart, 0 <= log(1/|w|) < logt."""
    r = abs(complex(w))
    if not (r > 0.0 and 0.0 <= -math.log(r) < logt):
        raise ValueError(f"w = {w!r} is off the chart: need 0 <= log(1/|w|) "
                         f"< logt = {float(logt):g}")


def _density_at(w: complex, log_value: float) -> float:
    """The density e^log_value at w; raises where it overflows a float."""
    try:
        return math.exp(log_value)
    except OverflowError:
        raise NumericalConvergenceError(
            "density overflows a float",
            diagnostics={"w": w, "log_value": log_value}) from None


def ns_density(families, logt: float, w: complex,
               system: SectionSystem | None = None,
               optimizer: OptimizerSpec | None = None) -> float:
    """Extremal density sup over unit combinations of |theta_c(w)|^(2/m) / pn(c).

    ``w`` is a point of the w side of the first chart, 0 <= log(1/|w|) <
    logt, and a given ``system`` must be built from ``families`` at
    ``logt``; either fault raises ValueError.  The returned value is a
    density against the area measure dA(w).

    The search runs majorize-minimize steps from the two best points of
    the coefficient grid, then a compass search from them and from each
    majorization end that moved, each round in one ``pn_batch`` call.  The
    two best points are exact: unless the system already holds the grid's
    pseudonorms (``pb_density`` scores them first), ``_grid_scores`` drops
    only rows that two others provably outscore, from rounding-safe bounds
    on pn, and scores the rest exactly.
    Each round first orders the live starts by score and drops each whose
    line lies within a tenth of its own step of a better kept start's
    line, 1 - |<a, b>|^2 < (delta / 10)^2, so starts that meet on one line
    search it once.  Each kept start then scores the 4M neighbours c +-
    delta e_j and c +- i delta e_j, renormalized (at an axis e_j, less the
    four along e_j, which stay on its line), moves to the best improvement
    or else halves delta (from 0.25), and stops at delta < 1e-9 or after
    200 rounds.  Every candidate is a unit coefficient vector, so the
    value is attained and bounds the sup from below.  At a common zero of
    every family, where theta_c(w) = 0 for every c, the density is exactly
    0.0.  A value that overflows a float raises NumericalConvergenceError.
    ``optimizer`` is accepted and ignored: the coefficient grid takes no
    options.
    """
    del optimizer
    _check_chart_point(w, logt)
    system = _system_for(families, logt, system)
    m = system.m
    n = len(system.families)
    v = system.values_at(w)
    log_area = -2.0 * math.log(abs(complex(w)))
    grid, pn_grid = system.grid()
    if not v.any():
        return 0.0
    if n == 1:
        pn_one = system.grid_pn()[1][0]
        return _density_at(w, (2.0 / m) * math.log(abs(v[0])) + log_area
                           - math.log(pn_one))

    def log_density(C: np.ndarray) -> np.ndarray:
        with np.errstate(divide="ignore"):
            return (2.0 / m) * np.log(np.abs(C @ v)) - np.log(system.pn_batch(C))

    rows, scores = _grid_scores(system, grid, pn_grid, v)
    order = np.argsort(scores)[::-1]
    if not math.isfinite(scores[order[0]]):
        raise NumericalConvergenceError(
            "coefficient search found no finite objective value",
            diagnostics={"w": w, "logt": logt})

    # compass steps from the grid points and from the majorization ends
    # that moved off them: each alone misses maxima the other finds
    c, h = _majorize(system, v, grid[rows[order[:2]]], scores[order[:2]],
                    log_density)
    moves = np.concatenate([z * np.eye(n) for z in (1.0, -1.0, 1j, -1j)])
    step = np.full(len(c), _POLISH_START)
    live = np.arange(len(c))
    for _ in range(_POLISH_ROUNDS):
        live = _distinct_starts(c, h, step, live)
        if not len(live):
            break
        nb = c[live, None, :] + step[live, None, None] * moves[None, :, :]
        nb /= np.linalg.norm(nb, axis=2, keepdims=True)
        # at an axis e_j the moves along e_j keep c's line: skip them
        nz = c[live] != 0.0
        skip = np.tile(nz, 4) & (nz.sum(axis=1) == 1)[:, None]
        sc = np.full((len(live), len(moves)), -np.inf)
        sc[~skip] = log_density(nb[~skip])
        k = np.argmax(sc, axis=1)
        top = sc[np.arange(len(live)), k]
        gain = top > h[live]
        c[live[gain]] = nb[gain, k[gain]]
        h[live[gain]] = top[gain]
        step[live[~gain]] /= 2.0
        live = live[step[live] >= _POLISH_STOP]
    # every step starts at the grid maximum or above and only rises
    return _density_at(w, float(h.max()) + log_area)


def pairing_matrix(families, logt: float, system: SectionSystem | None = None) -> np.ndarray:
    """Hermitian matrix of integrals of theta_j conj(theta_k) / tau^(m-1).

    tau is the extremal density of the same system, realized per node as a
    grid maximum; the matrix is a Gram matrix against the positive weight
    tau^(1-m), so it must come out positive definite.
    """
    system = _system_for(families, logt, system)
    m = system.m
    tau = system.tau_normalized(*system.grid_pn())
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
    """Density at w of the measure sum (conj(A)^-1)_jk theta_j conj(theta_k)
    / tau^(m-1).  ``optimizer`` is accepted and ignored, as in ``ns_density``."""
    del optimizer
    _check_chart_point(w, logt)
    system = _system_for(families, logt, system)
    m = system.m
    A = pairing_matrix(families, logt, system=system)
    v = system.values_at(w)
    try:
        quad = float(np.real(np.conj(v) @ np.linalg.solve(A, v)))
    except np.linalg.LinAlgError:
        raise NumericalConvergenceError(
            "pairing matrix is singular", diagnostics={"logt": logt, "m": m}) from None
    tau_w = ns_density(families, logt, w, system=system)
    if tau_w <= 0.0:
        raise NumericalConvergenceError(
            "extremal density vanished where the pairing density was requested",
            diagnostics={"w": w})
    log_val = (math.log(max(quad, 1e-300))
               - 2.0 * m * math.log(abs(complex(w)))
               - (m - 1) * math.log(tau_w))
    return _density_at(w, log_val)


def region_tau_mass(families, logt: float, region: tuple[float, float], f=None) -> float:
    """Mass of the extremal measure over a skeleton-edge region.

    The edge is parameterized by u in [0, 1]; u <= 1/2 lives on the w side
    (s = u * logt) and u >= 1/2 on the z side (s = (1 - u) * logt).  ``f``
    is an optional vectorized weight along the edge.  The integral runs
    over the first node chart; families crossing an l-chain spread their
    pseudonorm over l charts, which scales regional masses by 1/l.

    Level k takes 2^(k+1) panels on each side's part of the region and
    _N_ANGULAR * 2^k angles, and the mass walks levels 0-4 by ``_refine``
    at 1e-5.  The coefficient grid stays at level 0, so that agreement
    does not bound the grid-maximum error: on the pair (1 + 0.3w, w) at
    logt = 1e2 over (0.02, 0.2) the level-1 coefficient grid raises the
    mass by 9.4e-6 relative.
    """
    a, b = region
    if not (0.0 <= a < b <= 1.0):
        raise ValueError("region must be a nondegenerate subinterval of [0, 1]")
    system = SectionSystem(families, logt)
    C, pn_grid = system.grid_pn()

    def piece(lo: float, hi: float, side: int, level: int) -> float:
        if hi <= lo:
            return 0.0
        n_sub, na = 2 << level, _N_ANGULAR << level
        phi = np.arange(na) * (2.0 * np.pi / na)
        u_all, w_all = gauss_panels(np.linspace(lo, hi, n_sub + 1))
        total = 0.0
        # one panel at a time bounds memory
        for u, wu in zip(u_all.reshape(n_sub, -1), w_all.reshape(n_sub, -1)):
            s = u * logt if side == 0 else (1.0 - u) * logt
            fw = wu if f is None else wu * np.asarray(f(u), dtype=float)
            S, weights = _collapse_rings(side_values(system.terms[side], logt, s, phi),
                                         np.repeat(fw, na) * (2.0 * np.pi / na), na)
            total += float(grid_max(S, C, system.m, pn_grid) @ weights) * logt
        return total

    return _refine(lambda k: piece(a, min(b, 0.5), 0, k) + piece(max(a, 0.5), b, 1, k),
                   1e-5, 4, "region mass did not stabilize by level 4",
                   logt=logt, region=region)[0]
