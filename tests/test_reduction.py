"""Contraction, stable graphs, blowups, and measure transport."""
import random
from dataclasses import replace
from fractions import Fraction

import pytest

from corpus import minimal_corpus, random_model_with_tails
from curvedegen import (
    Atom,
    CCMeasure,
    ComponentPoint,
    EdgePoint,
    LiftError,
    ModelValidationError,
    SmoothCollapse,
    blowup_node,
    blowup_smooth_point,
    canonical_form,
    compose_maps,
    essential_skeleton,
    is_isomorphic,
    is_minimal,
    lift_measure,
    make_model,
    minimal_snc_model,
    pb_limit_measure,
    pushforward_measure,
    stable_dual_graph,
    validate,
)
from curvedegen.jsonio import map_to_json, measure_to_json
from curvedegen.measures import pb_descriptor


def figure_two_chain():
    return make_model(4, [("E1", 0), ("E2", 0), ("E3", 2)],
                      [("E1", "E2"), ("E2", "E3")],
                      [("P1", "E1", 1), ("P2", "E2", 1), ("P3", "E2", 1)])


class TestMinimalModel:
    def test_three_vertex_chain_contracts_in_two_steps(self):
        reduced, dom = minimal_snc_model(figure_two_chain())
        assert len(dom.steps) == 2
        assert [s.component for s in dom.steps] == ["E1", "E2"]
        assert [c.id for c in reduced.components] == ["E3"]
        assert reduced.component("E3").genus == 2
        assert reduced.mark_degree("E3") == 3

    def test_already_minimal_is_untouched(self):
        model = make_model(2, [("E1", 1), ("E2", 1)], [("E1", "E2")])
        reduced, dom = minimal_snc_model(model)
        assert reduced == model
        assert dom.steps == ()

    def test_leaf_with_small_mark_degree_contracts(self):
        model = make_model(3, [("C", 2), ("L", 0)], [("C", "L")],
                           [("P", "L", 2)])
        reduced, dom = minimal_snc_model(model)
        assert [c.id for c in reduced.components] == ["C"]
        assert reduced.mark("P").host == "C"
        (step,) = dom.steps
        assert isinstance(step, SmoothCollapse)
        assert step.location == "pt_L"
        assert reduced.mark("P").merge_group == "pt_L"

    def test_point_ids_avoid_merge_groups_in_use(self):
        # "pt_L" already names a coincident pair on C, so the contracted
        # leaf's mark must land at a new point
        model = make_model(3, [("C", 2), ("L", 0)], [("C", "L")],
                           [("P1", "C", 1, "pt_L"), ("P2", "C", 1, "pt_L"),
                            ("P3", "L", 1)])
        reduced, dom = minimal_snc_model(model)
        assert dom.steps[0].location == "pt_L_2"
        assert [p.merge_group for p in reduced.marks] == ["pt_L", "pt_L", "pt_L_2"]
        # A's mark leaves group "pt_B" before B contracts, freeing the name
        model = make_model(3, [("C", 2), ("A", 0), ("B", 0)],
                           [("C", "A"), ("C", "B")],
                           [("P1", "A", 1, "pt_B"), ("P2", "B", 1)])
        _, dom = minimal_snc_model(model)
        assert [step.location for step in dom.steps] == ["pt_A", "pt_B"]

    def test_leaf_with_mark_degree_m_stays(self):
        model = make_model(3, [("C", 2), ("L", 0)], [("C", "L")],
                           [("P1", "L", 2), ("P2", "L", 1)])
        reduced, dom = minimal_snc_model(model)
        assert reduced == model and dom.steps == ()

    def test_nested_tails_contract(self):
        model = make_model(2, [("C", 2), ("T0", 0), ("T1", 0)],
                           [("C", "T0"), ("T0", "T1")])
        reduced, dom = minimal_snc_model(model)
        assert [c.id for c in reduced.components] == ["C"]
        assert len(dom.steps) == 2

    def test_terminal_single_rational_raises(self):
        # constructible but invalid: one rational vertex, light marking
        bad = make_model(2, [("A", 0), ("B", 0)], [("A", "B")],
                         [("P", "A", 1), ("Q", "B", 1)])
        with pytest.raises(ModelValidationError):
            minimal_snc_model(bad)

    def test_non_semistable_rejected(self):
        model = make_model(2, [("A", 1, 2), ("B", 1)], [("A", "B")],
                           [("P", "A", 1)])
        with pytest.raises(ModelValidationError):
            minimal_snc_model(model)

    def test_idempotent_on_corpus(self):
        for model in minimal_corpus(seed=21, count=30):
            reduced, dom = minimal_snc_model(model)
            assert dom.steps == ()
            assert reduced == model

    def test_result_minimal_and_valid_on_tailed_corpus(self):
        rng = random.Random(22)
        for _ in range(30):
            model = random_model_with_tails(rng)
            reduced, _ = minimal_snc_model(model)
            assert is_minimal(reduced)
            assert validate(reduced).ok


def _independent_terminal_states(model):
    """All contraction outcomes, exploring every order; merge labels ignored.

    A deliberately separate reimplementation of the contraction rule used
    to check confluence of the production routine.
    """
    m = model.params.m
    start = (
        frozenset((c.id, c.genus) for c in model.components),
        frozenset((e.id, frozenset(e.endpoints)) for e in model.edges),
        frozenset((p.id, p.host, p.coefficient) for p in model.marks),
    )
    terminals = set()
    seen = set()
    stack = [start]
    while stack:
        state = stack.pop()
        if state in seen:
            continue
        seen.add(state)
        verts, edges, marks = state
        genus = dict(verts)
        degree = {v: 0 for v in genus}
        touching = {v: [] for v in genus}
        for eid, ends in edges:
            for v in ends:
                degree[v] += 1
                touching[v].append((eid, ends))
        markdeg = {v: 0 for v in genus}
        for _, host, coeff in marks:
            markdeg[host] += coeff
        movable = [v for v in genus
                   if genus[v] == 0 and degree[v] == 1 and markdeg[v] < m]
        if not movable or len(genus) == 1:
            terminals.add(state)
            continue
        for v in movable:
            ((eid, ends),) = touching[v]
            (host,) = set(ends) - {v}
            stack.append((
                frozenset(p for p in verts if p[0] != v),
                frozenset(p for p in edges if p[0] != eid),
                frozenset((pid, host if h == v else h, c)
                          for pid, h, c in marks),
            ))
    return terminals


def test_contraction_is_confluent():
    rng = random.Random(23)
    checked = 0
    for _ in range(40):
        model = random_model_with_tails(rng)
        if len(model.components) > 8:
            continue
        terminals = _independent_terminal_states(model)
        assert len(terminals) == 1
        reduced, _ = minimal_snc_model(model)
        verts, edges, marks = next(iter(terminals))
        assert frozenset((c.id, c.genus) for c in reduced.components) == verts
        assert frozenset((e.id, frozenset(e.endpoints))
                         for e in reduced.edges) == edges
        assert frozenset((p.id, p.host, p.coefficient)
                         for p in reduced.marks) == marks
        checked += 1
    assert checked >= 20


class TestStableGraph:
    def test_inessential_chain_merges(self):
        model = make_model(2, [("E1", 1), ("F", 0), ("E2", 1)],
                           [("E1", "F"), ("F", "E2")])
        graph = stable_dual_graph(model)
        assert sorted(graph.vertices) == ["E1", "E2"]
        (chain,) = graph.chains
        assert set(chain.endpoints) == {"E1", "E2"}
        assert chain.interior == ("F",)
        assert chain.length == Fraction(2)

    def test_no_inessential_vertices_keeps_graph(self):
        model = make_model(2, [("E1", 1), ("E2", 1)], [("E1", "E2")])
        graph = stable_dual_graph(model)
        assert sorted(graph.vertices) == ["E1", "E2"]
        (chain,) = graph.chains
        assert chain.length == Fraction(1) and chain.interior == ()

    def test_closed_chain_allowed(self):
        model = make_model(2, [("C", 2), ("F1", 0), ("F2", 0), ("F3", 0)],
                           [("C", "F1"), ("F1", "F2"), ("F2", "F3"),
                            ("F3", "C")])
        graph = stable_dual_graph(model)
        assert graph.vertices == ("C",)
        (chain,) = graph.chains
        assert chain.endpoints == ("C", "C")
        assert chain.length == Fraction(4)

    def test_genus_and_marks_recorded(self):
        model = figure_two_chain()
        reduced, _ = minimal_snc_model(model)
        graph = stable_dual_graph(reduced)
        assert graph.genus["E3"] == 2
        assert graph.mark_degree["E3"] == 3
        assert graph.chains == ()


class TestSkeleton:
    def test_dumbbell_already_skeleton(self):
        model = make_model(2, [("E1", 1), ("E2", 1)], [("E1", "E2")])
        sk = essential_skeleton(model)
        assert sk.is_essential_skeleton
        assert is_isomorphic(sk.model, model)
        assert sk.total_length() == Fraction(1)

    def test_figure_chain_skeleton_is_point(self):
        sk = essential_skeleton(figure_two_chain())
        assert len(sk.model.components) == 1
        assert sk.model.edges == ()
        assert sk.total_length() == 0

    def test_marked_leaf_survives_in_skeleton(self):
        model = make_model(3, [("C", 2), ("L", 0)], [("C", "L")],
                           [("P1", "L", 2), ("P2", "L", 1)])
        sk = essential_skeleton(model)
        assert len(sk.model.components) == 2
        assert len(sk.edge_lengths()) == 1


class TestBlowups:
    def test_smooth_point_on_unit_multiplicity(self):
        model = make_model(2, [("E1", 1), ("E2", 1)], [("E1", "E2")])
        blown, dom = blowup_smooth_point(model, "E1")
        assert len(blown.components) == 3
        new = [c for c in blown.components if c.id not in ("E1", "E2")][0]
        assert (new.genus, new.multiplicity) == (0, 1)
        (eid,) = [e.id for e in blown.edges if new.id in e.endpoints]
        assert blown.edge_length(eid) == Fraction(1)
        assert dom.source == blown and dom.target == model

    def test_smooth_point_multiplicity_scales_length(self):
        model = make_model(2, [("A", 1, 2), ("B", 1)], [("A", "B")],
                           [("P", "A", 1)])
        blown, _ = blowup_smooth_point(model, "A")
        new = [c for c in blown.components if c.id not in ("A", "B")][0]
        assert new.multiplicity == 2
        (eid,) = [e.id for e in blown.edges if new.id in e.endpoints]
        assert blown.edge_length(eid) == Fraction(1, 4)

    def test_smooth_point_moves_marks(self):
        model = make_model(3, [("C", 2)], [], [("P", "C", 1)])
        blown, dom = blowup_smooth_point(model, "C", mark_group=("P",))
        assert blown.mark("P").host != "C"
        (step,) = dom.steps
        assert step.moved_marks == ("P",)

    def test_smooth_point_unknown_component(self):
        model = make_model(3, [("C", 2)])
        with pytest.raises(KeyError):
            blowup_smooth_point(model, "Z")

    def test_node_blowup_balanced(self):
        model = make_model(2, [("E1", 1), ("E2", 1)], [("n", "E1", "E2")])
        blown, _ = blowup_node(model, "n")
        new = [c for c in blown.components if c.id not in ("E1", "E2")][0]
        assert new.multiplicity == 2
        lengths = sorted(blown.edge_length(e.id) for e in blown.edges)
        assert lengths == [Fraction(1, 2), Fraction(1, 2)]

    def test_node_blowup_unbalanced(self):
        model = make_model(2, [("A", 1, 1), ("B", 1, 2)], [("n", "A", "B")],
                           [("P", "A", 1)])
        blown, _ = blowup_node(model, "n")
        new = [c for c in blown.components if c.id not in ("A", "B")][0]
        assert new.multiplicity == 3
        lengths = sorted(blown.edge_length(e.id) for e in blown.edges)
        assert lengths == [Fraction(1, 6), Fraction(1, 3)]
        # length conservation: 1/(a(a+b)) + 1/(b(a+b)) = 1/(ab)
        assert sum(lengths) == model.edge_length("n")

    def test_node_blowup_unknown_edge(self):
        model = make_model(2, [("E1", 1), ("E2", 1)], [("n", "E1", "E2")])
        with pytest.raises(KeyError):
            blowup_node(model, "zz")


class TestMeasureTransport:
    def test_pushforward_after_node_blowup_restores_edge_mass(self):
        model = make_model(2, [("E1", 1), ("E2", 1)], [("n", "E1", "E2")])
        mu = pb_limit_measure(model)
        blown, dom = blowup_node(model, "n")
        lifted = lift_measure(mu, dom)
        parts = dom.subdivision_of("n")
        assert len(parts) == 2
        # masses split proportionally to the subdivided lengths
        for eid in parts:
            assert lifted.edges[eid] == blown.edge_length(eid) / model.edge_length("n")
        back = pushforward_measure(lifted, dom)
        assert back == mu

    def test_pushforward_smooth_collapse_leaves_atom(self):
        model = make_model(2, [("E1", 1), ("E2", 1)], [("n", "E1", "E2")])
        mu = pb_limit_measure(model)
        blown, dom = blowup_smooth_point(model, "E1")
        lifted = lift_measure(mu, dom)
        assert pushforward_measure(lifted, dom) == mu

    def test_lift_rejects_atom_at_collapse_point(self):
        model = make_model(2, [("E1", 1), ("E2", 1)], [("n", "E1", "E2")])
        blown, dom = blowup_smooth_point(model, "E1")
        mu = pb_limit_measure(model)
        (step,) = dom.steps
        pin = Atom(ComponentPoint(step.host, step.location), Fraction(1, 3))
        contaminated = replace(mu, atoms=mu.atoms + (pin,))
        with pytest.raises(LiftError):
            lift_measure(contaminated, dom)

    def test_transport_model_mismatch(self):
        model = make_model(2, [("E1", 1), ("E2", 1)], [("n", "E1", "E2")])
        other = make_model(2, [("X", 1), ("Y", 1)], [("n", "X", "Y")])
        _, dom = blowup_node(model, "n")
        with pytest.raises(ValueError):
            pushforward_measure(pb_limit_measure(other), dom)

    def test_lift_refuses_a_measure_off_the_target(self):
        model = make_model(2, [("E1", 1), ("E2", 1)], [("n", "E1", "E2")])
        blown, dom = blowup_node(model, "n")
        with pytest.raises(ValueError, match="target model"):
            lift_measure(lift_measure(pb_limit_measure(model), dom), dom)

    def test_atoms_at_the_collapse_point_fold_into_one(self):
        # two 1/2 atoms already at the collapse point once each gained the
        # collapsed mass 2: two atoms of 5/2 and a total of 6 instead of 4
        model = make_model(3, [("C", 2), ("L", 0)], [("C", "L")], [("P", "L", 2)])
        _, dom = minimal_snc_model(model)
        (step,) = dom.steps
        point = ComponentPoint("C", step.location)
        assert step.point == point
        half = Atom(point, Fraction(1, 2))
        mu = CCMeasure(model, "pb",
                       {"C": pb_descriptor(None, 1), "L": pb_descriptor(None, 2)},
                       {step.edge: Fraction(0)}, (half, half))
        assert mu.total_mass() == 4
        pushed = pushforward_measure(mu, dom)
        assert pushed.atoms == (Atom(point, Fraction(3)),)
        assert pushed.total_mass() == 4

    def test_lift_at_a_node_point(self):
        # a nonzero atom where the node was blown up has no lift; a zero one
        # is dropped (it once moved to the endpoint 0 of edge_b)
        model = make_model(2, [("E1", 1), ("E2", 1)], [("n", "E1", "E2")])
        _, dom = blowup_node(model, "n")
        (step,) = dom.steps
        assert step.point == EdgePoint("n", Fraction(1, 2))
        mu = pb_limit_measure(model)
        with pytest.raises(LiftError, match=r"collapse point EdgePoint\(edge='n'"):
            lift_measure(replace(mu, atoms=(Atom(step.point, Fraction(1)),)), dom)
        x = Fraction(1, 8)
        zero_there = replace(mu, atoms=(Atom(step.point, Fraction(0)),
                                        Atom(EdgePoint("n", x), Fraction(1))))
        lifted = lift_measure(zero_there, dom)
        assert lifted.atoms == (Atom(EdgePoint(step.edge_a, x), Fraction(1)),)
        assert lifted == lift_measure(replace(mu, atoms=zero_there.atoms[1:]), dom)

    def test_compose_maps(self):
        model = make_model(2, [("E1", 1), ("E2", 1)], [("n", "E1", "E2")])
        b1, d1 = blowup_node(model, "n")
        eid = [e.id for e in b1.edges][0]
        b2, d2 = blowup_node(b1, eid)
        full = compose_maps(d2, d1)
        assert full.source == b2 and full.target == model
        mu = pb_limit_measure(model)
        assert pushforward_measure(lift_measure(mu, full), full) == mu

    def test_node_blowup_atom_positions(self):
        # positions on the merged edge run from its first endpoint, the far
        # end of edge_a: an atom at x on edge_b lands at length_a + x.  The
        # second blowup is unbalanced (multiplicities 1 and 2).
        model = make_model(2, [("E1", 1), ("E2", 1)], [("n", "E1", "E2")])
        b1, d1 = blowup_node(model, "n")
        b2, d2 = blowup_node(b1, "n_a")
        (step,) = d2.steps
        assert (step.length_a, step.length_b) == (Fraction(1, 3), Fraction(1, 6))
        start = b1.edge(step.merged_edge).endpoints[0]
        assert start in b2.edge(step.edge_a).endpoints and start != step.component
        mu = lift_measure(pb_limit_measure(model), compose_maps(d2, d1))
        x = Fraction(1, 12)
        pin = Atom(EdgePoint(step.edge_b, x), Fraction(1, 5))
        mu = replace(mu, atoms=mu.atoms + (pin,))
        pushed = pushforward_measure(mu, d2)
        assert Atom(EdgePoint(step.merged_edge, Fraction(5, 12)), Fraction(1, 5)) \
            in pushed.atoms
        assert lift_measure(pushed, d2) == mu

    def test_compose_maps_mismatch(self):
        model = make_model(2, [("E1", 1), ("E2", 1)], [("n", "E1", "E2")])
        _, d1 = blowup_node(model, "n")
        with pytest.raises(ValueError):
            compose_maps(d1, d1)

    def test_fate_reports(self):
        reduced, dom = minimal_snc_model(figure_two_chain())
        assert dom.component_fate("E3") == "kept"
        assert dom.component_fate("E1").startswith("collapsed-to-point")
        assert dom.edge_fate("e1") == "collapsed"


class TestJson:
    def test_node_collapse_map(self):
        model = make_model(2, [("E1", 1), ("E2", 1, 2)], [("n", "E1", "E2")])
        _, dom = blowup_node(model, "n")
        (step,) = map_to_json(dom)["steps"]
        assert step == {"type": "node-collapse", "component": "exc_n",
                        "edges": ["n_a", "n_b"], "merged_edge": "n",
                        "lengths": [{"num": 1, "den": 3}, {"num": 1, "den": 6}]}

    def test_pushed_measure_with_both_kinds_of_atom(self):
        model = make_model(2, [("E1", 1), ("E2", 1)], [("n", "E1", "E2")])
        b1, d1 = blowup_node(model, "n")
        b2, d2 = blowup_smooth_point(b1, "exc_n")
        blown = pb_limit_measure(model)
        for dom in (d1, d2):
            blown = lift_measure(blown, dom)
        (smooth,) = d2.steps
        comps = dict(blown.components, **{smooth.component: pb_descriptor(None, 1)})
        mu = replace(blown, components=comps)
        pushed = pushforward_measure(mu, compose_maps(d2, d1))
        assert pushed.atoms == (Atom(EdgePoint("n", Fraction(1, 2)), Fraction(1)),)
        mid = pushforward_measure(mu, d2)
        assert mid.atoms == (Atom(smooth.point, Fraction(1)),)
        mixed = replace(mid, atoms=mid.atoms + (Atom(EdgePoint("n_a", Fraction(1, 4)),
                                                      Fraction(1, 3)),))
        doc = measure_to_json(mixed)
        assert doc["atoms"] == [
            {"location": {"component": "exc_n", "point": smooth.location},
             "mass": {"num": 1, "den": 1}},
            {"location": {"edge": "n_a", "position": {"num": 1, "den": 4}},
             "mass": {"num": 1, "den": 3}},
        ]
        total = mu.total_mass() + Fraction(1, 3)
        assert doc["total"] == {"num": total.numerator, "den": total.denominator}
