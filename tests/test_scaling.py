"""Exact layers on large and highly symmetric models.

These check answers only, never wall time: the point is that such inputs
finish with the right result instead of hitting a size cap.
"""
import random

from corpus import comb_model, relabeled, star_model
from curvedegen import (
    canonical_form,
    dimension_summary,
    is_isomorphic,
    make_model,
    minimal_snc_model,
    stable_curve_ns_measure,
    stable_dual_graph,
)


def test_stars_of_ten_and_twelve_leaves():
    for k in (10, 12):
        base = star_model(k, seed=1)
        assert is_isomorphic(base, star_model(k, seed=2))
        assert is_isomorphic(base, relabeled(base, random.Random(k)))
        assert not is_isomorphic(base, star_model(k, seed=3, bumped=k // 2))


def test_star_of_a_thousand_leaves():
    base = star_model(1000, seed=1)
    assert canonical_form(base) == canonical_form(star_model(1000, seed=2))
    assert not is_isomorphic(base, star_model(1000, seed=3, bumped=7))


def _genus2_pair_with_tails(split):
    """Two genus-2 components joined by one node, with ``split`` unmarked
    rational tails on A and 10 - split on B (12 components, m = 2)."""
    tails = [f"T{k}" for k in range(10)]
    return make_model(
        2, [("A", 2), ("B", 2)] + [(t, 0) for t in tails],
        [("ab", "A", "B")] + [(f"te{k}", "A" if k < split else "B", t)
                              for k, t in enumerate(tails)])


def test_genus2_pair_with_ten_rational_tails():
    model = _genus2_pair_with_tails(5)
    assert is_isomorphic(model, relabeled(model, random.Random(5)))
    assert is_isomorphic(_genus2_pair_with_tails(4), _genus2_pair_with_tails(6))
    assert not is_isomorphic(model, _genus2_pair_with_tails(4))
    reduced, dmap = minimal_snc_model(model)
    assert len(dmap.steps) == 10
    assert is_isomorphic(reduced, make_model(2, [("X", 2), ("Y", 2)], [("X", "Y")]))


def test_comb_of_four_hundred_reduces_in_four_hundred_steps():
    reduced, dmap = minimal_snc_model(comb_model(400, seed=7))
    assert len(dmap.steps) == 400
    assert len(reduced.components) == 402
    assert dimension_summary(reduced).M == (2 * 2 - 1) * (4 - 1)  # m = 2, g = 4
    other, _ = minimal_snc_model(comb_model(400, seed=8))
    assert is_isomorphic(reduced, other)
    assert is_isomorphic(reduced, relabeled(reduced, random.Random(400)))


def test_stable_measure_on_a_chain_of_ten_thousand_elliptic_components():
    n = 10_000
    model = make_model(2, [(f"E{i}", 1) for i in range(n)],
                       [(f"E{i}", f"E{i + 1}") for i in range(n - 1)])
    fm = stable_curve_ns_measure(stable_dual_graph(model))
    assert len(fm.node_atoms) == n - 1
    assert set(fm.node_atoms.values()) == {1}
    valency = {cid: cm.bundle.valency for cid, cm in fm.components.items()}
    assert valency == {f"E{i}": 1 if i in (0, n - 1) else 2 for i in range(n)}
    assert {cm.kind for cm in fm.components.values()} == {"ns"}
