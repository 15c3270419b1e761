"""Oracles: closed forms computed from the generator's own data, and the
checks that compare the program's answers with them.

Every ``check_*`` function takes the workload input and a dict of plain
values read off the program's output, and returns a list of failure
messages (empty when every check holds).  ``selftest.py`` feeds each
check a perturbed answer to show that none of them can never fail.
"""
from __future__ import annotations

import math
from fractions import Fraction

from inputs import Spec

# Quadrature and search tolerances, fixed here and not tuned per run.
POLE_REL_TOL = 1e-10     # pure-pole pseudonorm against (2 pi l L)^(m/2)
DENSITY_REL_TOL = 1e-6   # frozen grid certifies 1e-6 relative accuracy
REGION_REL_TOL = 0.02    # regional mass against (b - a) / l
RIGID_ABS_TOL = 1e-3     # d = 0 genus-0 mass against 1
HERMITIAN_REL_TOL = 1e-12


# -- closed forms ----------------------------------------------------------------


def dimension(spec: Spec) -> int:
    """M = (2m - 1)(g - 1) + deg B."""
    return (2 * spec.m - 1) * (spec.genus - 1) + spec.mark_degree


def core_vertices(spec: Spec) -> list[tuple[str, int]]:
    """Vertices that survive contraction: everything but the tails."""
    return [(v, g) for v, g in spec.vertices if not v.startswith("T")]


def fixed_b_total(spec: Spec):
    """2g - 2 where the fixed-B large-m limit applies (g >= 2 and no
    rational tail left in the minimal model), else None."""
    if spec.genus < 2:
        return None
    core = {v for v, _ in core_vertices(spec)}
    for v, g in core_vertices(spec):
        val = sum((a == v) + (b == v) for _, a, b in spec.edges
                  if a in core and b in core)
        if g == 0 and val < 2:
            return None
    return Fraction(2 * spec.genus - 2)


def fixed_qb_total(spec: Spec):
    """2g - 2 + deg B / m where positive, else None."""
    total = Fraction(2 * spec.genus - 2) + Fraction(spec.mark_degree, spec.m)
    return total if total > 0 else None


def pole_pseudonorm(m: int, chain_length: int, logt: float) -> float:
    return (2.0 * math.pi * chain_length * logt) ** (m / 2.0)


def monomial_density(m: int, k: int, logt: float, w: complex) -> float:
    """Extremal density at w of the lone family w^(k-m) dw^m on one chart.

    Its pseudonorm integral is 2 pi L for k = 0 and
    2 pi (m / 2k)(1 - exp(-2kL/m)) for k > 0 (both sides of the chart).
    """
    r = abs(w)
    if k == 0:
        pn = 2.0 * math.pi * logt
    else:
        pn = 2.0 * math.pi * (m / (2.0 * k)) * -math.expm1(-2.0 * k * logt / m)
    return r ** (2.0 * k / m - 2.0) / pn


def fraction_of(doc) -> Fraction:
    """Exact rational from the program's {"num", "den"} JSON encoding."""
    return Fraction(doc["num"], doc["den"])


# -- checks ---------------------------------------------------------------------


def _expect(fails, label, got, want):
    if got != want:
        fails.append(f"{label}: got {got!r}, expected {want!r}")


def _decreasing(seq) -> bool:
    return all(b < a for a, b in zip(seq, seq[1:]))


def check_corpus_model(spec: Spec, out: dict) -> list[str]:
    """One corpus model through the exact pipeline."""
    fails: list[str] = []
    M = dimension(spec)
    _expect(fails, "valid", out["valid"], True)
    _expect(fails, "emit/parse/emit bytes stable", out["emit_stable"], True)
    _expect(fails, "contractions", out["contractions"], spec.tails)
    _expect(fails, "reduced components", out["reduced_components"],
            len(spec.vertices) - spec.tails)
    _expect(fails, "reducing the reduced model", out["rereduce_steps"], 0)
    _expect(fails, "dimension M", out["dimension"], M)
    _expect(fails, "chains + sum h0", out["split"], M)
    _expect(fails, "pb total", out["pb_total"], Fraction(M))
    _expect(fails, "hyb pushforward total", out["hyb_total"], Fraction(M))
    _expect(fails, "fiber pushforward total", out["fiber_total"], Fraction(M))
    for kind in ("pb", "ns"):
        for i, mass in enumerate(out[f"{kind}_chain_masses"]):
            _expect(fails, f"{kind} mass of chain {i}", mass, Fraction(1))
    _expect(fails, "fixed-B total", out["fixed_b_total"], fixed_b_total(spec))
    _expect(fails, "fixed-QB total", out["fixed_qb_total"], fixed_qb_total(spec))
    _expect(fails, "push(lift(mu)) == mu", out["push_lift_identity"], True)
    _expect(fails, "isomorphic to relabeled copy", out["isomorphic"], True)
    return fails


def check_corpus_cli(tails: Spec, stable: Spec, out: dict) -> list[str]:
    """JSON from fresh `curvedegen` processes on the two sample files.

    ``out`` holds the fields read off the calls made so far; each present
    field is checked against its closed form.
    """
    core_edges = sum(1 for _, a, b in tails.edges
                     if not a.startswith("T") and not b.startswith("T"))
    M = dimension(stable)
    want = {
        "validate_ok": ("validate ok", True),
        "reduce_steps": ("reduce steps", tails.tails),
        "skeleton_total": ("skeleton total length", Fraction(core_edges)),
        "dims_M": ("dims M", M),
        "chain_lengths": ("stable-graph chain lengths", [Fraction(1)] * len(stable.edges)),
        "pb_hyb_total": ("measure pb hyb total", Fraction(M)),
        "fixed_b_total": ("limit fixed-B total", fixed_b_total(stable)),
        "node_atoms": ("stable-measure node atoms", [Fraction(1)] * len(stable.edges)),
    }
    fails: list[str] = []
    for key, got in out.items():
        label, value = want[key]
        _expect(fails, label, got, value)
    return fails


def check_comb(n: int, out: dict) -> list[str]:
    """comb(n): n contractions to n + 2 components, M = 9 (g = 4, m = 2),
    one skeleton chain of length n + 1 carrying mass one."""
    fails: list[str] = []
    _expect(fails, "contractions", out["contractions"], n)
    _expect(fails, "reduced components", out["reduced_components"], n + 2)
    _expect(fails, "dimension M", out["dimension"], 9)
    _expect(fails, "skeleton length", out["skeleton_length"], Fraction(n + 1))
    _expect(fails, "stable chain lengths", out["chain_lengths"], [Fraction(n + 1)])
    _expect(fails, "pb total", out["pb_total"], Fraction(9))
    _expect(fails, "pb chain mass", out["pb_chain_mass"], Fraction(1))
    _expect(fails, "ns chain mass", out["ns_chain_mass"], Fraction(1))
    return fails


def check_comb_cli(n: int, out: dict) -> list[str]:
    """`reduce` and `skeleton` JSON for comb(n); each present field is
    checked."""
    want = {
        "contractions": ("contractions", n),
        "reduced_components": ("reduced components", n + 2),
        "skeleton_length": ("skeleton length", Fraction(n + 1)),
    }
    fails: list[str] = []
    for key, got in out.items():
        label, value = want[key]
        _expect(fails, label, got, value)
    return fails


def check_star(out: dict) -> list[str]:
    fails: list[str] = []
    _expect(fails, "isomorphic to relabeling", out["relabeled"], True)
    _expect(fails, "isomorphic to genus-bumped copy", out["bumped"], False)
    return fails


def check_pole_norms(m: int, chain_length: int, grid, values) -> list[str]:
    fails = []
    for L, got in zip(grid, values):
        want = pole_pseudonorm(m, chain_length, L)
        if not abs(got - want) <= POLE_REL_TOL * want:
            fails.append(f"pole pseudonorm at L={L}: {got!r} vs {want!r}")
    return fails


def check_verify(kind: str, docs: list[dict], region=(0.2, 0.4),
                 chain_length: int = 1) -> list[str]:
    """`verify` JSON: errors shrink along L, region mass near (b - a) / l."""
    fails = []
    if kind in ("norm", "pairing-diag", "pairing"):
        errs = docs[0]["rel_errors"]
        if not _decreasing(errs):
            fails.append(f"{kind}: relative errors not decreasing: {errs}")
    if kind == "pairing":
        obs = docs[1]["observed"]
        if not _decreasing(obs):
            fails.append(f"pairing cross term not decreasing: {obs}")
    if kind == "region-mass":
        want = (region[1] - region[0]) / chain_length
        for L, got in zip(docs[0]["logt"], docs[0]["observed"]):
            if not abs(got - want) <= REGION_REL_TOL * want:
                fails.append(f"region mass at L={L}: {got!r} vs {want!r}")
    return fails


def check_pairing_matrix(A) -> list[str]:
    """Hermitian positive definite, tested by a hand-rolled Cholesky."""
    n = len(A)
    scale = max(abs(A[i][i]) for i in range(n))
    fails = []
    for i in range(n):
        for j in range(n):
            if abs(A[i][j] - A[j][i].conjugate()) > HERMITIAN_REL_TOL * scale:
                fails.append(f"pairing matrix not Hermitian at ({i}, {j})")
    L = [[0j] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            s = A[i][j] - sum(L[i][k] * L[j][k].conjugate() for k in range(j))
            if i == j:
                if not s.real > 0:
                    fails.append("pairing matrix not positive definite")
                    return fails
                L[i][i] = complex(math.sqrt(s.real))
            else:
                L[i][j] = s / L[j][j]
    return fails


def check_density(m: int, logt: float, w: complex, members: tuple[int, ...],
                  value: float) -> list[str]:
    """ns_density is at least every member's own closed-form density."""
    fails = []
    for k in members:
        floor = monomial_density(m, k, logt, w)
        if not value >= floor * (1.0 - DENSITY_REL_TOL):
            fails.append(f"ns_density at w={w} is {value!r}, below member "
                         f"w^{k - m} density {floor!r}")
    return fails


def check_pb_density(value: float) -> list[str]:
    if not (math.isfinite(value) and value > 0.0):
        return [f"pb_density {value!r} is not a positive number"]
    return []


def check_rigid_mass(value: float) -> list[str]:
    """A d = 0 genus-0 mass is exactly one."""
    if not abs(value - 1.0) <= RIGID_ABS_TOL:
        return [f"4-point mass {value!r} is not 1 within {RIGID_ABS_TOL}"]
    return []
