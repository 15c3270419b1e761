"""Dual graph model construction, validation, and isomorphism."""
import random
from fractions import Fraction

import pytest

from corpus import minimal_corpus
from curvedegen import (
    Component,
    DualGraphModel,
    Edge,
    MarkedPoint,
    ModelParams,
    ModelValidationError,
    arithmetic_genus,
    canonical_form,
    is_isomorphic,
    make_model,
    require_valid,
    total_mark_degree,
    validate,
)


def dumbbell(m=2):
    return make_model(m, [("E1", 1), ("E2", 1)], [("E1", "E2")])


class TestConstruction:
    def test_loop_edge_rejected(self):
        with pytest.raises(ValueError, match="loop"):
            Edge("e1", ("A", "A"))

    def test_duplicate_component_id(self):
        with pytest.raises(ValueError, match="duplicate"):
            make_model(2, [("A", 1), ("A", 2)])

    def test_duplicate_cross_kind_id(self):
        with pytest.raises(ValueError, match="duplicate"):
            make_model(2, [("A", 1), ("B", 1)], [("A", "A", "B")])

    def test_duplicate_mark_id(self):
        with pytest.raises(ValueError, match="duplicate id P"):
            make_model(3, [("A", 1)], [], [("P", "A", 1), ("P", "A", 2)])

    def test_unknown_edge_endpoint(self):
        with pytest.raises(ValueError, match="unknown component"):
            make_model(2, [("A", 1)], [("e1", "A", "Z")])

    def test_unknown_mark_host(self):
        with pytest.raises(ValueError, match="unknown host"):
            make_model(2, [("A", 1)], [], [("P", "Z", 1)])

    def test_negative_genus_rejected(self):
        with pytest.raises(ValueError, match="genus"):
            Component("A", -1)

    def test_zero_multiplicity_rejected(self):
        with pytest.raises(ValueError, match="multiplicity"):
            Component("A", 1, 0)

    def test_nonpositive_m_rejected(self):
        with pytest.raises(ValueError, match="m must be"):
            ModelParams(0)

    def test_nonpositive_mark_coefficient_rejected(self):
        with pytest.raises(ValueError):
            MarkedPoint("P", "A", 0)

    def test_merge_group_named_like_ungrouped_mark_rejected(self):
        # keyed by (host, group or id), P would silently sit at Q's point
        for marks in ([("Q", "C", 1), ("P", "C", 1, "Q")],
                      [("P", "C", 1, "Q"), ("Q", "C", 1)]):
            with pytest.raises(ValueError, match="mark P: merge group Q on C"):
                make_model(3, [("C", 2)], [], marks)

    def test_merge_group_named_like_mark_elsewhere_allowed(self):
        model = make_model(3, [("C", 2), ("D", 2)], [("C", "D")],
                           [("Q", "D", 1), ("P", "C", 1, "Q"), ("R", "C", 1, "R")])
        assert sorted(model.mark_locations()) == [("C", "Q"), ("C", "R"), ("D", "Q")]


class TestAccessors:
    def test_edge_length_is_inverse_multiplicity_product(self):
        model = make_model(2, [("A", 1, 2), ("B", 1, 3)], [("n", "A", "B")],
                           [("P", "A", 1)])
        assert model.edge_length("n") == Fraction(1, 6)

    def test_unit_multiplicities_give_unit_length(self):
        model = dumbbell()
        (e,) = model.edges
        assert model.edge_length(e.id) == Fraction(1)

    def test_valency_counts_closed_edges_twice(self):
        model = make_model(2, [("C", 1), ("F", 0)],
                           [("a", "C", "F"), ("b", "F", "C")])
        assert model.valency("C") == 2
        assert model.valency("F") == 2

    def test_arithmetic_genus(self):
        assert arithmetic_genus(dumbbell()) == 2
        cyc = make_model(2, [("C", 1), ("F", 0)],
                         [("a", "C", "F"), ("b", "F", "C")])
        assert arithmetic_genus(cyc) == 2  # 1 + 0 + one cycle

    def test_mark_degree_and_total(self):
        model = make_model(3, [("A", 2)], [],
                           [("P", "A", 2), ("Q", "A", 1)])
        assert model.mark_degree("A") == 3
        assert total_mark_degree(model) == 3

    def test_mark_locations_group_by_merge_group(self):
        model = make_model(4, [("C", 2)], [],
                           [("P1", "C", 1, "pt_E1"), ("P2", "C", 1, "pt_E1"),
                            ("P3", "C", 2)])
        locs = model.mark_locations()
        sizes = sorted(len(v) for v in locs.values())
        assert sizes == [1, 2]

    def test_is_semistable(self):
        assert dumbbell().is_semistable()
        assert not make_model(2, [("A", 1, 2), ("B", 1)], [("A", "B")],
                              [("P", "A", 1)]).is_semistable()


class TestValidation:
    def codes(self, model):
        report = validate(model)
        return {v.code for v in report.errors}, {v.code for v in report.warnings}

    def test_empty_model(self):
        model = DualGraphModel(ModelParams(2), (), (), ())
        errors, _ = self.codes(model)
        assert errors == {"empty-model"}

    def test_m_below_2(self):
        errors, _ = self.codes(make_model(1, [("C", 2)]))
        assert "m-below-2" in errors

    def test_mark_coefficient_range(self):
        errors, _ = self.codes(
            make_model(2, [("C", 2)], [], [("P", "C", 2)]))
        assert "mark-coefficient-range" in errors

    def test_disconnected(self):
        errors, _ = self.codes(make_model(2, [("A", 1), ("B", 2)]))
        assert "disconnected" in errors

    def test_excluded_genus1_family(self):
        errors, _ = self.codes(make_model(2, [("A", 1)]))
        assert "excluded-family" in errors

    def test_genus0_mark_degree_and_count(self):
        errors, _ = self.codes(make_model(2, [("R", 0)], [],
                                          [("P", "R", 1)]))
        assert "genus0-mark-degree" in errors
        assert "genus0-mark-count" in errors

    def test_all_inessential_cycle(self):
        model = make_model(2, [("A", 0), ("B", 0)],
                           [("e1", "A", "B"), ("e2", "A", "B")])
        errors, _ = self.codes(model)
        assert "all-inessential-cycle" in errors

    def test_merged_marks_warning(self):
        model = make_model(2, [("C", 2)], [],
                           [("P1", "C", 1, "pt"), ("P2", "C", 1, "pt")])
        errors, warnings = self.codes(model)
        assert not errors
        assert "merged-marks-exceed-m" in warnings

    def test_require_valid_raises(self):
        with pytest.raises(ModelValidationError):
            require_valid(make_model(2, [("A", 1)]))

    def test_require_valid_passes_dumbbell(self):
        require_valid(dumbbell())

    def test_corpus_models_validate(self):
        for model in minimal_corpus(seed=11, count=60):
            report = validate(model)
            assert report.ok, [v.code for v in report.errors]


class TestIsomorphism:
    def test_relabel_is_isomorphic(self):
        a = make_model(2, [("E1", 1), ("E2", 1), ("F", 0)],
                       [("E1", "F"), ("F", "E2")], [("P", "E1", 1)])
        b = make_model(2, [("X", 1), ("Y", 0), ("Z", 1)],
                       [("Z", "Y"), ("Y", "X")], [("Q", "Z", 1)])
        assert is_isomorphic(a, b)
        assert canonical_form(a) == canonical_form(b)

    def test_genus_distinguishes(self):
        a = dumbbell()
        b = make_model(2, [("E1", 1), ("E2", 2)], [("E1", "E2")])
        assert not is_isomorphic(a, b)

    def test_mark_coefficients_distinguish(self):
        a = make_model(3, [("C", 2)], [], [("P", "C", 1)])
        b = make_model(3, [("C", 2)], [], [("P", "C", 2)])
        assert not is_isomorphic(a, b)

    def test_multiplicity_follows_relabeling(self):
        a = make_model(2, [("A", 1, 2), ("B", 1)], [("A", "B")],
                       [("P", "A", 1)])
        b = make_model(2, [("A", 1), ("B", 1, 2)], [("A", "B")],
                       [("P", "B", 1)])
        assert is_isomorphic(a, b)
        c = make_model(2, [("A", 1), ("B", 1, 2)], [("A", "B")],
                       [("P", "A", 1)])
        assert not is_isomorphic(a, c)

    def test_parallel_edges_counted(self):
        a = make_model(2, [("A", 1), ("B", 1)],
                       [("e1", "A", "B"), ("e2", "A", "B")])
        b = make_model(2, [("A", 1), ("B", 1)], [("e1", "A", "B")])
        assert not is_isomorphic(a, b)

    def test_random_relabeling_roundtrip(self):
        rng = random.Random(404)
        for model in minimal_corpus(seed=404, count=25):
            names = [c.id for c in model.components]
            shuffled = names[:]
            rng.shuffle(shuffled)
            table = dict(zip(names, shuffled))
            relabeled = make_model(
                model.params.m,
                [(table[c.id], c.genus, c.multiplicity)
                 for c in model.components],
                [(e.id, table[e.endpoints[0]], table[e.endpoints[1]])
                 for e in model.edges],
                [(p.id, table[p.host], p.coefficient, p.merge_group)
                 for p in model.marks])
            assert is_isomorphic(model, relabeled)
