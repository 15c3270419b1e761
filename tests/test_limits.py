"""Limit measures on curve complexes and their pushforwards."""
import random
from fractions import Fraction

import pytest

from corpus import minimal_corpus, random_model_with_tails
from curvedegen import (
    UNKNOWN,
    Atom,
    CCMeasure,
    ComponentPoint,
    EdgePoint,
    Estimate,
    ModelValidationError,
    Unknown,
    arithmetic_genus,
    bundle_for,
    dimension_summary,
    h0,
    is_minimal,
    large_m_limit_fixed_divisor,
    large_m_limit_fixed_qdivisor,
    make_model,
    minimal_snc_model,
    ns_limit_measure,
    pb_limit_measure,
    pushforward_to_fiber,
    pushforward_to_hyb,
    stable_curve_ns_measure,
    stable_dual_graph,
    stable_graph,
    total_mark_degree,
)


def dumbbell(m=2):
    return make_model(m, [("E1", 1), ("E2", 1)], [("E1", "E2")])


def chain3(m=2):
    return make_model(m, [("E1", 1), ("F", 0), ("E2", 1)],
                      [("e1", "E1", "F"), ("e2", "F", "E2")])


class TestNSLimit:
    def test_chain_splits_edge_mass(self):
        mu = ns_limit_measure(chain3())
        assert mu.edges == {"e1": Fraction(1, 2), "e2": Fraction(1, 2)}

    def test_isolated_edge_has_unit_mass(self):
        mu = ns_limit_measure(dumbbell())
        assert list(mu.edges.values()) == [Fraction(1)]

    def test_type_one_vertices_unknown(self):
        mu = ns_limit_measure(dumbbell())
        assert all(isinstance(c.total, Unknown)
                   for c in mu.components.values())

    def test_inessential_vertex_zero(self):
        mu = ns_limit_measure(chain3())
        assert mu.components["F"].kind == "zero"
        assert mu.components["F"].total == 0

    def test_type_two_vertex_zero(self):
        model = make_model(2, [("R", 0), ("A", 1), ("B", 1), ("C", 1)],
                           [("R", "A"), ("R", "B"), ("R", "C")])
        mu = ns_limit_measure(model)
        assert mu.components["R"].total == 0
        assert isinstance(mu.components["A"].total, Unknown)

    def test_non_minimal_input_points_to_lift(self):
        model = make_model(3, [("C", 2), ("L", 0)], [("C", "L")],
                           [("P", "L", 2)])
        with pytest.raises(ModelValidationError, match="lift"):
            ns_limit_measure(model)

    def test_genus0_estimate_hook(self):
        # rational vertex with four nodes: basis dimension 1, mass 1
        model = make_model(
            2, [("R", 0), ("C", 2)],
            [("a", "R", "C"), ("b", "R", "C"), ("c", "R", "C"),
             ("d", "R", "C")])
        mu = ns_limit_measure(model, estimate_genus0=True)
        est = mu.components["R"].total
        assert isinstance(est, Estimate)
        assert est.value == pytest.approx(1.0, abs=1e-3)


class TestPBLimit:
    def test_dumbbell_masses(self):
        mu = pb_limit_measure(dumbbell())
        assert mu.components["E1"].total == 1
        assert mu.components["E2"].total == 1
        assert list(mu.edges.values()) == [Fraction(1)]
        assert mu.total_mass() == 3

    def test_chain_masses(self):
        mu = pb_limit_measure(chain3())
        totals = [mu.components[c].total for c in ("E1", "F", "E2")]
        assert totals == [1, 0, 1]
        assert sorted(mu.edges.values()) == [Fraction(1, 2), Fraction(1, 2)]
        assert mu.total_mass() == 3

    def test_single_genus2_m2(self):
        mu = pb_limit_measure(make_model(2, [("C", 2)]))
        assert mu.components["C"].total == 3
        assert mu.edges == {}

    def test_total_is_dimension_on_corpus_sample(self):
        for model in minimal_corpus(seed=31, count=40):
            mu = pb_limit_measure(model)
            assert mu.total_mass() == dimension_summary(model).M

    def test_validates_once(self, monkeypatch):
        import curvedegen.bundles
        import curvedegen.model
        calls = {"validate": 0, "bundle_for": 0}

        def counted(module, name):
            original = getattr(module, name)

            def wrapper(*args):
                calls[name] += 1
                return original(*args)
            return wrapper
        monkeypatch.setattr(curvedegen.model, "validate",
                            counted(curvedegen.model, "validate"))
        monkeypatch.setattr("curvedegen.limits.bundle_for",
                            counted(curvedegen.bundles, "bundle_for"))
        pb_limit_measure(chain3())
        # one validation, one bundle for each of the three components
        assert calls == {"validate": 1, "bundle_for": 3}


class TestDimensionSummary:
    def test_non_minimal_models_point_to_reduction(self):
        rng = random.Random(5)
        checked = 0
        for _ in range(60):
            model = random_model_with_tails(rng)
            if is_minimal(model):
                continue
            with pytest.raises(ModelValidationError, match="minimal_snc_model"):
                dimension_summary(model)
            reduced, _ = minimal_snc_model(model)
            d = dimension_summary(reduced)
            assert d.M == d.skeleton_edges + sum(d.vertex_h0.values())
            checked += 1
        assert checked >= 40


class TestPushforwards:
    def test_hyb_from_pb(self):
        nu = pushforward_to_hyb(pb_limit_measure(dumbbell()))
        assert nu.vertex_atoms == {"E1": Fraction(1), "E2": Fraction(1)}
        assert list(nu.edges.values()) == [Fraction(1)]
        assert nu.on_essential_skeleton
        assert nu.total_mass() == 3

    def test_hyb_from_ns_propagates_unknown(self):
        nu = pushforward_to_hyb(ns_limit_measure(chain3()))
        assert isinstance(nu.vertex_atoms["E1"], Unknown)
        assert nu.vertex_atoms["F"] == 0

    def test_skeleton_edges_all_positive(self):
        for model in minimal_corpus(seed=32, count=25):
            nu = pushforward_to_hyb(pb_limit_measure(model))
            assert all(mass > 0 for mass in nu.edges.values())

    def test_fiber_turns_edges_into_node_atoms(self):
        fm = pushforward_to_fiber(pb_limit_measure(chain3()))
        assert sorted(fm.node_atoms.values()) == [Fraction(1, 2),
                                                  Fraction(1, 2)]
        assert fm.total_mass() == 3

    def test_fiber_preserves_pb_total_on_corpus_sample(self):
        for model in minimal_corpus(seed=33, count=25):
            mu = pb_limit_measure(model)
            assert pushforward_to_fiber(mu).total_mass() == mu.total_mass()

    @staticmethod
    def with_atoms(*atoms):
        mu = pb_limit_measure(chain3())
        return CCMeasure(mu.model, mu.kind, mu.components, mu.edges, atoms)

    def test_component_atoms_fold_into_their_vertex(self):
        mu = self.with_atoms(Atom(ComponentPoint("F", "p"), Fraction(1, 3)),
                             Atom(ComponentPoint("E1", "q"), Fraction(1, 4)),
                             Atom(ComponentPoint("F", "r"), Fraction(1, 6)))
        nu = pushforward_to_hyb(mu)
        assert nu.vertex_atoms == {"E1": Fraction(5, 4), "F": Fraction(1, 2),
                                   "E2": Fraction(1)}
        assert nu.total_mass() == mu.total_mass() == Fraction(15, 4)
        with pytest.raises(ValueError, match="is a smooth fiber point"):
            pushforward_to_fiber(mu)

    def test_edge_atoms_fold_into_their_node(self):
        mu = self.with_atoms(Atom(EdgePoint("e2", Fraction(1, 2)), Fraction(1, 4)),
                             Atom(EdgePoint("e2", Fraction(1, 3)), UNKNOWN))
        fm = pushforward_to_fiber(mu)
        assert fm.node_atoms["e1"] == Fraction(1, 2)
        assert fm.node_atoms["e2"] is UNKNOWN
        assert fm.total_mass() is UNKNOWN
        fm = pushforward_to_fiber(self.with_atoms(mu.atoms[0]))
        assert fm.node_atoms == {"e1": Fraction(1, 2), "e2": Fraction(3, 4)}
        assert fm.total_mass() == Fraction(13, 4)
        with pytest.raises(ValueError, match="sits inside an edge"):
            pushforward_to_hyb(mu)


class TestLargeM:
    def test_dumbbell_atoms(self):
        nu = large_m_limit_fixed_divisor(dumbbell())
        assert nu.vertex_atoms == {"E1": Fraction(1), "E2": Fraction(1)}
        assert nu.total_mass() == 2
        assert nu.edges == {}

    def test_single_genus3(self):
        nu = large_m_limit_fixed_divisor(make_model(2, [("C", 3)]))
        assert nu.vertex_atoms == {"C": Fraction(4)}

    def test_low_genus_rejected(self):
        model = make_model(2, [("E", 1)], [], [("P", "E", 1)])
        with pytest.raises(ModelValidationError, match="genus"):
            large_m_limit_fixed_divisor(model)

    def test_rational_tail_rejected(self):
        model = make_model(3, [("C", 2), ("L", 0)], [("C", "L")],
                           [("P1", "L", 2), ("P2", "L", 1)])
        with pytest.raises(ModelValidationError, match="tail"):
            large_m_limit_fixed_divisor(model)

    def test_qdivisor_vanishing_cases(self):
        # a genus-0 leaf with mark degree exactly m gets atom zero, and
        # so does an inessential chain vertex
        model = make_model(2, [("C", 2), ("L", 0), ("F", 0)],
                           [("C", "L"), ("C", "F"), ("F", "C")],
                           [("P1", "L", 1), ("P2", "L", 1)])
        nu = large_m_limit_fixed_qdivisor(model)
        assert nu.vertex_atoms["L"] == 0
        assert nu.vertex_atoms["F"] == 0
        g = arithmetic_genus(model)
        assert nu.total_mass() == 2 * g - 2 + Fraction(total_mark_degree(model), 2)

    def test_qdivisor_fractional_atom(self):
        # genus-1 vertex of valency 1 carrying mark degree 2 at m = 4
        model = make_model(4, [("V", 1), ("C", 2)], [("V", "C")],
                           [("P", "V", 2)])
        nu = large_m_limit_fixed_qdivisor(model)
        assert nu.vertex_atoms["V"] == Fraction(3, 2)

    def test_qdivisor_nonpositive_volume_rejected(self):
        model = make_model(2, [("R", 0)], [],
                           [("P1", "R", 1), ("P2", "R", 1),
                            ("P3", "R", 1), ("P4", "R", 1)])
        with pytest.raises(ModelValidationError):
            large_m_limit_fixed_qdivisor(model)

    def test_atoms_are_h0_slopes_in_m(self):
        # as m grows with the divisor fixed, h0 is linear in m and its
        # slope per vertex is exactly the limiting atom
        checked = 0
        for model in minimal_corpus(seed=34, count=200):
            if arithmetic_genus(model) < 2:
                continue
            if any(c.genus == 0 and model.valency(c.id) < 2
                   for c in model.components):
                continue
            nu = large_m_limit_fixed_divisor(model)
            for c in model.components:
                lo = h0(bundle_for(model.with_params(10), c.id))
                hi = h0(bundle_for(model.with_params(1000), c.id))
                assert Fraction(hi - lo, 990) == nu.vertex_atoms[c.id]
            checked += 1
        assert checked >= 20

    def test_qdivisor_atoms_add_mark_degree_over_m(self):
        # both limits share the vertex rule; holding B/m fixed instead of B
        # adds deg_v(B)/m to each atom and deg(B)/m to the total
        checked = 0
        for model in minimal_corpus(seed=35, count=200):
            if not model.is_semistable() or arithmetic_genus(model) < 2:
                continue
            if any(c.genus == 0 and model.valency(c.id) < 2
                   for c in model.components):
                continue
            m = model.params.m
            fixed_b = large_m_limit_fixed_divisor(model)
            fixed_qb = large_m_limit_fixed_qdivisor(model)
            for c in model.components:
                assert (fixed_qb.vertex_atoms[c.id] - fixed_b.vertex_atoms[c.id]
                        == Fraction(model.mark_degree(c.id), m))
            assert (fixed_qb.total_mass() - fixed_b.total_mass()
                    == Fraction(total_mark_degree(model), m))
            checked += 1
        assert checked >= 20


class TestStableCurveMeasure:
    def test_dumbbell_single_node(self):
        graph = stable_dual_graph(dumbbell())
        fm = stable_curve_ns_measure(graph)
        assert list(fm.node_atoms.values()) == [Fraction(1)]
        assert all(c.kind == "ns" for c in fm.components.values())

    def test_irreducible_one_nodal(self):
        model = make_model(2, [("C", 1), ("F", 0)],
                           [("C", "F"), ("F", "C")])
        fm = stable_curve_ns_measure(stable_dual_graph(model))
        assert list(fm.node_atoms.values()) == [Fraction(1)]

    def test_matches_collapsed_fiber_pushforward(self):
        # collapsing each chain of the ns fiber measure gives the same atoms
        model = make_model(2, [("E1", 1), ("F", 0), ("E2", 1)],
                           [("e1", "E1", "F"), ("e2", "F", "E2")])
        graph = stable_dual_graph(model)
        fm = stable_curve_ns_measure(graph)
        fiber = pushforward_to_fiber(ns_limit_measure(model))
        (chain,) = graph.chains
        collapsed = sum(fiber.node_atoms[e] for e in chain.model_edges)
        assert collapsed == fm.node_atoms[chain.id] == 1

    def test_marked_graph_rejected(self):
        graph = stable_dual_graph(
            make_model(3, [("C", 2), ("L", 0)], [("C", "L")],
                       [("P1", "L", 2), ("P2", "L", 1)]))
        with pytest.raises(ModelValidationError, match="mark"):
            stable_curve_ns_measure(graph)

    def test_unstable_rational_vertex_rejected(self):
        graph = stable_graph(3, [("A", 1), ("R", 0), ("B", 1)],
                             [("A", "R"), ("R", "B")])
        with pytest.raises(ModelValidationError):
            stable_curve_ns_measure(graph)

    def test_theta_graph_accepted(self):
        # two rational vertices, three parallel edges: genus 2, stable
        graph = stable_graph(2, [("A", 0), ("B", 0)],
                             [("A", "B"), ("A", "B"), ("A", "B")])
        fm = stable_curve_ns_measure(graph)
        assert sorted(fm.node_atoms.values()) == [1, 1, 1]

    def test_low_genus_rejected(self):
        with pytest.raises(ModelValidationError, match="genus"):
            stable_curve_ns_measure(stable_graph(2, [("A", 1)], []))

    def test_disconnected_graph_rejected(self):
        graph = stable_graph(2, [("A", 2), ("B", 2), ("C", 0)],
                             [("A", "B"), ("C", "C"), ("C", "C")])
        with pytest.raises(ModelValidationError, match="disconnected"):
            stable_curve_ns_measure(graph)
