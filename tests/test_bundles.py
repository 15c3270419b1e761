"""Twisted bundle degrees, section counts, and component classification."""
import pytest

from corpus import minimal_corpus
from curvedegen import (
    InternalConsistencyError,
    bundle_for,
    classify_component,
    dimension_summary,
    h0,
    make_model,
)


def test_degree_formula():
    # d = m(2g - 2) + (m - 1) val + mark degree
    model = make_model(3, [("C", 2), ("L", 0)], [("C", "L")],
                       [("P", "L", 2)])
    assert bundle_for(model, "C").degree == 3 * 2 + 2 * 1
    assert bundle_for(model, "L").degree == -6 + 2 + 2


def test_h0_genus0_is_degree_plus_one_clamped():
    model = make_model(2, [("R", 0), ("A", 1), ("B", 1), ("C", 1)],
                       [("R", "A"), ("R", "B"), ("R", "C")])
    b = bundle_for(model, "R")
    assert b.degree == -4 + 3  # = -1
    assert h0(b) == 0


def test_h0_genus1_is_degree():
    model = make_model(2, [("A", 1), ("B", 1)], [("A", "B")])
    assert h0(bundle_for(model, "A")) == 1


def test_h0_genus1_degree_zero_is_excluded_shape():
    model = make_model(2, [("A", 1)])
    with pytest.raises(InternalConsistencyError):
        h0(bundle_for(model, "A"))


def test_h0_genus2_riemann_roch():
    model = make_model(3, [("C", 2)])
    b = bundle_for(model, "C")
    assert b.degree == 6
    assert h0(b) == 6 - 2 + 1


def test_h0_with_overridden_m():
    model = make_model(2, [("C", 2)])
    assert h0(bundle_for(model.with_params(5), "C")) == 5 * 2 - 2 + 1


def test_classification_inessential_type_two():
    model = make_model(2, [("E1", 1), ("F", 0), ("E2", 1)],
                       [("E1", "F"), ("F", "E2")])
    cc = classify_component(model, "F")
    assert not cc.essential and not cc.type_one


def test_classification_rational_trivalent_essential_type_two():
    model = make_model(2, [("R", 0), ("A", 1), ("B", 1), ("C", 1)],
                       [("R", "A"), ("R", "B"), ("R", "C")])
    cc = classify_component(model, "R")
    assert cc.essential and not cc.type_one


def test_classification_genus1_leaf_type_one():
    model = make_model(3, [("A", 1), ("C", 2)], [("A", "C")])
    cc = classify_component(model, "A")
    assert cc.essential and cc.type_one
    assert h0(bundle_for(model, "A")) == 3 - 1  # d = m - 1


class TestDimensionSummary:
    def test_dumbbell(self):
        model = make_model(2, [("E1", 1), ("E2", 1)], [("E1", "E2")])
        d = dimension_summary(model)
        assert (d.M, d.skeleton_edges) == (3, 1)
        assert sorted(d.vertex_h0.values()) == [1, 1]

    def test_inessential_chain(self):
        model = make_model(2, [("E1", 1), ("F", 0), ("E2", 1)],
                           [("E1", "F"), ("F", "E2")])
        d = dimension_summary(model)
        assert (d.M, d.skeleton_edges) == (3, 1)
        assert sorted(d.vertex_h0.values()) == [0, 1, 1]

    def test_single_genus2_m3(self):
        model = make_model(3, [("C", 2)])
        d = dimension_summary(model)
        assert (d.M, d.skeleton_edges) == (5, 0)
        assert d.vertex_h0 == {"C": 5}

    def test_identity_on_corpus_sample(self):
        for model in minimal_corpus(seed=5, count=40):
            d = dimension_summary(model)
            assert d.M == d.skeleton_edges + sum(d.vertex_h0.values())
