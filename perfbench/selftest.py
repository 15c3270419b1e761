"""Self-test of the oracles: each check accepts the closed-form answer and
rejects a perturbed one (a Fraction off by 1/1000, a float off by 5%, a
flipped flag, a reordered sequence).  No program code runs here.

    python3 perfbench/selftest.py

Exits 0 when every check behaves, 1 and lists the offenders otherwise.
"""
from __future__ import annotations

import math
import random
import sys
from fractions import Fraction

import inputs
import oracles

EPS = Fraction(1, 1000)


def perturb(value):
    """A wrong answer of the same type as ``value``."""
    if isinstance(value, bool):
        return not value
    if value is None:
        return Fraction(1)
    if isinstance(value, (int, Fraction)):
        return value + EPS
    if isinstance(value, float):
        return value * 1.05
    if isinstance(value, tuple):
        return (perturb(value[0]),) + value[1:]
    if isinstance(value, list):
        return [perturb(value[0])] + value[1:] if value else [Fraction(1)]
    raise TypeError(type(value))


def fields(check, good: dict, label: str, problems: list[str]):
    """``check(good)`` passes and each single-field perturbation fails."""
    if check(good):
        problems.append(f"{label}: rejects the closed-form answer: {check(good)}")
    for key, value in good.items():
        bad = dict(good, **{key: perturb(value)})
        if not check(bad):
            problems.append(f"{label}: accepts a perturbed {key!r}")


def corpus_answer(spec: inputs.Spec) -> dict:
    M = oracles.dimension(spec)
    chains = max(1, len(spec.edges) - spec.tails)
    return {
        "valid": True, "emit_stable": True, "contractions": spec.tails,
        "reduced_components": len(spec.vertices) - spec.tails, "rereduce_steps": 0,
        "dimension": M, "split": M, "pb_total": Fraction(M), "hyb_total": Fraction(M),
        "fiber_total": Fraction(M), "pb_chain_masses": [Fraction(1)] * chains,
        "ns_chain_masses": [Fraction(1)] * chains,
        "fixed_b_total": oracles.fixed_b_total(spec),
        "fixed_qb_total": oracles.fixed_qb_total(spec),
        "push_lift_identity": True, "isomorphic": True,
    }


def main() -> int:
    problems: list[str] = []
    rng = random.Random(7)

    for spec in inputs.corpus(7)[:40] + [inputs.over_cap_model()]:
        fields(lambda out, s=spec: oracles.check_corpus_model(s, out),
               corpus_answer(spec), "corpus model", problems)

    tails = next(s for s in inputs.corpus(7) if s.tails)
    stable = inputs.stable_model(rng)
    core_edges = len(tails.edges) - tails.tails
    M = oracles.dimension(stable)
    fields(lambda out: oracles.check_corpus_cli(tails, stable, out), {
        "validate_ok": True, "reduce_steps": tails.tails,
        "skeleton_total": Fraction(core_edges), "dims_M": M,
        "chain_lengths": [Fraction(1)] * len(stable.edges),
        "pb_hyb_total": Fraction(M), "fixed_b_total": oracles.fixed_b_total(stable),
        "node_atoms": [Fraction(1)] * len(stable.edges)}, "corpus cli", problems)

    for n in inputs.COMB_SIZES:
        fields(lambda out, n=n: oracles.check_comb(n, out), {
            "contractions": n, "reduced_components": n + 2, "dimension": 9,
            "skeleton_length": Fraction(n + 1), "chain_lengths": [Fraction(n + 1)],
            "pb_total": Fraction(9), "pb_chain_mass": Fraction(1),
            "ns_chain_mass": Fraction(1)}, f"comb({n})", problems)
        fields(lambda out, n=n: oracles.check_comb_cli(n, out), {
            "contractions": n, "reduced_components": n + 2,
            "skeleton_length": Fraction(n + 1)}, f"comb({n}) cli", problems)
    fields(oracles.check_star, {"relabeled": True, "bumped": False}, "star", problems)

    grid = inputs.LOGT_GRID
    for m, l in ((2, 1), (3, 1), (2, 2)):
        good = [oracles.pole_pseudonorm(m, l, L) for L in grid]
        if oracles.check_pole_norms(m, l, grid, good):
            problems.append("pole norms: rejects the closed form")
        bad = [good[0] * (1 + 1e-9)] + good[1:]
        if not oracles.check_pole_norms(m, l, grid, bad):
            problems.append("pole norms: accepts a 1e-9 relative error")

    falling = [0.3, 0.03, 0.003]
    for kind in ("norm", "pairing-diag"):
        if oracles.check_verify(kind, [{"rel_errors": falling}]):
            problems.append(f"verify {kind}: rejects decreasing errors")
        if not oracles.check_verify(kind, [{"rel_errors": falling[::-1]}]):
            problems.append(f"verify {kind}: accepts increasing errors")
    pair_ok = [{"rel_errors": falling}, {"observed": falling}]
    pair_bad = [{"rel_errors": falling}, {"observed": [0.3, 0.3, 0.003]}]
    if oracles.check_verify("pairing", pair_ok) or not oracles.check_verify("pairing", pair_bad):
        problems.append("verify pairing: cross-term check does not discriminate")
    for l in (1, 2):
        want = 0.2 / l
        ok = [{"logt": list(grid), "observed": [want * 1.01, want, want * 0.99]}]
        bad = [{"logt": list(grid), "observed": [want * 1.05, want, want]}]
        if oracles.check_verify("region-mass", ok, chain_length=l):
            problems.append("region mass: rejects a 1% error")
        if not oracles.check_verify("region-mass", bad, chain_length=l):
            problems.append("region mass: accepts a 5% error")

    hpd = [[2 + 0j, 0.5 - 0.25j], [0.5 + 0.25j, 1 + 0j]]
    if oracles.check_pairing_matrix(hpd):
        problems.append("pairing matrix: rejects a Hermitian positive definite matrix")
    for bad in ([[2 + 0j, 0.5 - 0.25j], [0.5 - 0.25j, 1 + 0j]],   # not Hermitian
                [[1 + 0j, 2 + 0j], [2 + 0j, 1 + 0j]]):             # indefinite
        if not oracles.check_pairing_matrix(bad):
            problems.append(f"pairing matrix: accepts {bad}")

    for w in inputs.density_points(rng, 4):
        top = max(oracles.monomial_density(2, k, 1e3, w) for k in (0, 1))
        if oracles.check_density(2, 1e3, w, (0, 1), top):
            problems.append(f"density at {w}: rejects the larger member density")
        if not oracles.check_density(2, 1e3, w, (0, 1), top * 0.95):
            problems.append(f"density at {w}: accepts a value 5% below a member")
    for bad in (0.0, -1.0, math.nan, math.inf):
        if not oracles.check_pb_density(bad):
            problems.append(f"pb density: accepts {bad}")

    if oracles.check_rigid_mass(1.0 + 1e-4):
        problems.append("rigid mass: rejects a mass within 1e-3 of 1")
    if not oracles.check_rigid_mass(1.05):
        problems.append("rigid mass: accepts a mass 5% off")

    for msg in problems:
        print(f"SELFTEST: {msg}")
    print("selftest: ok" if not problems else f"selftest: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
