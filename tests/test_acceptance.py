"""Acceptance gate: one test and one printed pass/fail line per criterion."""
import contextlib
import math
import random
import sys
import time
from fractions import Fraction

import numpy as np

from curvedegen import (
    LaurentFamily,
    make_model,
    ns_limit_measure,
    pb_limit_measure,
)
from curvedegen.bundles import BundleDescriptor, h0
from curvedegen.dsl import emit_model, parse_model
from curvedegen.experiments import norm_asymptotics_experiment, pairing_experiments
from curvedegen.genus0 import generic_configuration, moebius_points, ns_mass_genus0
from curvedegen.density import region_tau_mass
from curvedegen.cli import main as cli_main
from curvedegen.limits import (
    dimension_summary,
    large_m_limit_fixed_divisor,
    large_m_limit_fixed_qdivisor,
)
from curvedegen.model import arithmetic_genus, is_isomorphic, total_mark_degree
from curvedegen.reduction import (
    blowup_node,
    blowup_smooth_point,
    compose_maps,
    lift_measure,
    minimal_snc_model,
    pushforward_measure,
    stable_dual_graph,
)

from corpus import minimal_corpus, roundtrip_corpus


@contextlib.contextmanager
def gate(num: int, label: str):
    try:
        yield
    except BaseException:
        print(f"acceptance {num:02d}: FAIL  {label}", file=sys.__stdout__)
        raise
    print(f"acceptance {num:02d}: PASS  {label}", file=sys.__stdout__)


_CORPUS = None


def corpus500():
    global _CORPUS
    if _CORPUS is None:
        _CORPUS = minimal_corpus(seed=20260814, count=500)
    return _CORPUS


def test_criterion_01_dimension_identity():
    with gate(1, "dimension identity on 500 random minimal models, under 2s"):
        models = corpus500()
        assert len(models) >= 500
        start = time.perf_counter()
        for model in models:
            m = model.params.m
            g = arithmetic_genus(model)
            assert 2 <= m <= 5 and g <= 6 and len(model.components) <= 12
            summary = dimension_summary(model)
            lhs = (2 * m - 1) * (g - 1) + total_mark_degree(model)
            rhs = summary.skeleton_edges + sum(summary.vertex_h0.values())
            assert summary.M == lhs == rhs
        elapsed = time.perf_counter() - start
        assert elapsed < 2.0, f"identity sweep took {elapsed:.2f}s"


def test_criterion_02_pluri_bergman_totals():
    with gate(2, "pluri-Bergman total M and unit mass per skeleton chain"):
        for model in corpus500():
            mu = pb_limit_measure(model)
            summary = dimension_summary(model)
            assert mu.total_mass() == Fraction(summary.M)
            for chain in stable_dual_graph(model).chains:
                chain_mass = sum((mu.edges[e] for e in chain.model_edges),
                                 Fraction(0))
                assert chain_mass == Fraction(1)


def test_criterion_03_two_step_contraction_replay():
    with gate(3, "two-step contraction of the marked three-vertex chain"):
        model = make_model(
            4,
            [("E1", 0), ("E2", 0), ("C", 2)],
            [("e1", "E1", "E2"), ("e2", "E2", "C")],
            marks=[("P1", "E1", 1), ("P2", "E1", 1), ("P3", "E1", 1)],
        )
        reduced, dom = minimal_snc_model(model)
        assert [s.component for s in dom.steps] == ["E1", "E2"]
        assert len(reduced.components) == 1
        only = reduced.components[0]
        assert only.id == "C" and only.genus == 2
        assert reduced.mark_degree("C") == 3
        assert not reduced.edges


def test_criterion_04_measure_transport_roundtrip():
    with gate(4, "lift/pushforward roundtrip over 100 random blowup chains"):
        rng = random.Random(41)
        models = minimal_corpus(seed=97, count=100)
        for model in models:
            mu0 = pb_limit_measure(model)
            current, mu_cur = model, mu0
            maps = []
            for _ in range(rng.randint(1, 3)):
                if rng.random() < 0.5 and current.edges:
                    eid = rng.choice(sorted(e.id for e in current.edges))
                    mult = {c.id: c.multiplicity for c in current.components}
                    pa, pb_ = (mult[v] for v in current.edge(eid).endpoints)
                    nxt, dmap = blowup_node(current, eid)
                    step = dmap.steps[0]
                    assert step.length_a == Fraction(1, pa * (pa + pb_))
                    assert step.length_b == Fraction(1, pb_ * (pa + pb_))
                    mu_next = lift_measure(mu_cur, dmap)
                    split = mu_cur.edges[step.merged_edge]
                    total = step.length_a + step.length_b
                    assert mu_next.edges[step.edge_a] == split * step.length_a / total
                    assert mu_next.edges[step.edge_b] == split * step.length_b / total
                else:
                    cid = rng.choice(sorted(c.id for c in current.components))
                    nxt, dmap = blowup_smooth_point(current, cid)
                    mu_next = lift_measure(mu_cur, dmap)
                current, mu_cur = nxt, mu_next
                maps.append(dmap)
            full = maps[0]
            for dmap in maps[1:]:
                full = compose_maps(dmap, full)
            assert full.source == current and full.target == model
            assert pushforward_measure(lift_measure(mu0, full), full) == mu0
            assert pushforward_measure(mu_cur, full) == mu0


def test_criterion_05_vanishing_shape_classification():
    with gate(5, "exhaustive h0 = 0 classification over local shapes"):
        def admissible(m, g, val, b):
            if g == 0:
                if val == 0:
                    return b >= 2 * m  # genus-0 total fiber
                if val == 1:
                    return b >= m  # lighter leaves contract away
                return True
            if g == 1:
                return val + b >= 1  # unmarked elliptic family is excluded
            return True

        vanishing = []
        for m in range(2, 7):
            for g in range(0, 4):
                for val in range(0, 6):
                    for b in range(0, 2 * m + 1):
                        if not admissible(m, g, val, b):
                            continue
                        bundle = BundleDescriptor("X", m, g, val, b)
                        if h0(bundle) == 0:
                            vanishing.append((m, g, val, b))
        expected = []
        for m in range(2, 7):
            expected += [(m, 0, 1, m), (m, 0, 2, 0), (m, 0, 2, 1)]
        expected.append((2, 0, 3, 0))
        assert sorted(vanishing) == sorted(expected)


def test_criterion_06_pseudonorm_convergence():
    with gate(6, "perturbed pole pseudonorm ratio within 5e-3, under 10s"):
        family = LaurentFamily.from_w_powers(2, {0: 1.0, 1: 0.3})
        start = time.perf_counter()
        res = norm_asymptotics_experiment(family,
                                          logt_grid=(1e2, 1e3, 1e4))
        elapsed = time.perf_counter() - start
        assert res.rel_errors[2] < 5e-3
        assert res.rel_errors[0] > res.rel_errors[1] > res.rel_errors[2]
        assert elapsed < 10.0, f"norm sweep took {elapsed:.2f}s"


def test_criterion_07_regional_mass():
    with gate(7, "regional extremal mass within 2% of 0.2, under 60s"):
        fams = [LaurentFamily.from_w_powers(2, {0: 1.0}),
                LaurentFamily.from_w_powers(2, {1: 1.0})]
        start = time.perf_counter()
        mass = region_tau_mass(fams, 1000.0, (0.2, 0.4))
        elapsed = time.perf_counter() - start
        assert abs(mass / 0.2 - 1.0) < 0.02
        assert elapsed < 60.0, f"region mass took {elapsed:.2f}s"


def test_criterion_08_pairing_asymptotics():
    with gate(8, "pairing diagonal growth and cross-term decay"):
        fams = [LaurentFamily.from_w_powers(2, {0: 1.0, 1: 0.3}),
                LaurentFamily.from_w_powers(2, {1: 1.0})]
        diag, off = pairing_experiments(fams, logt_grid=(1e2, 1e3, 1e4))
        assert diag.rel_errors[1] < 0.1
        assert diag.rel_errors[0] > diag.rel_errors[1] > diag.rel_errors[2]
        assert off.observed[0] > off.observed[1] > off.observed[2]


def test_criterion_09_sphere_masses():
    with gate(9, "sphere masses: rigid case 1, mass >= 1, Moebius invariance"):
        pts4 = generic_configuration(4)
        rigid = ns_mass_genus0(pts4, (1, 1, 1, 1), 2)
        assert abs(rigid.value - 1.0) <= 1e-3

        pts5 = generic_configuration(5)
        res = ns_mass_genus0(pts5, (1, 1, 1, 1, 1), 2)
        assert res.value >= 1.0
        moved = moebius_points(pts5, (1.0, 0.1, 0.0, 1.2))
        res2 = ns_mass_genus0(moved, (1, 1, 1, 1, 1), 2)
        assert res2.value >= 1.0
        allowance = 2.0 * (res.error + res2.error)
        assert abs(res.value - res2.value) <= allowance


def test_criterion_10_large_m_totals():
    with gate(10, "large-m limit totals 2g-2 and 2g-2+deg(B)/m, exact"):
        checked_b = checked_qb = 0
        for model in corpus500():
            g = arithmetic_genus(model)
            deg_b = total_mark_degree(model)
            m = model.params.m
            if g >= 2 and not any(
                c.genus == 0 and model.valency(c.id) < 2
                for c in model.components
            ):
                mu = large_m_limit_fixed_divisor(model)
                assert mu.total_mass() == Fraction(2 * g - 2)
                checked_b += 1
            if Fraction(2 * g - 2) + Fraction(deg_b, m) > 0:
                mu = large_m_limit_fixed_qdivisor(model)
                assert mu.total_mass() == Fraction(2 * g - 2) + Fraction(deg_b, m)
                checked_qb += 1
        assert checked_b >= 50
        assert checked_qb >= 300


def test_criterion_11_parser_and_cli_determinism(tmp_path, capsys):
    with gate(11, "emit/parse stability on 50 models; seeded verify reruns"):
        models = roundtrip_corpus(seed=1105, count=50)
        assert len(models) == 50
        for model in models:
            text = emit_model(model)
            doc = parse_model(text)
            assert is_isomorphic(doc.model, model)
            assert emit_model(doc.model) == text

        path = tmp_path / "dumbbell.cdm"
        path.write_text("model {\n  m = 2;\n  vertex E1 { genus = 1 };\n"
                        "  vertex E2 { genus = 1 };\n  edge n E1 -- E2\n}\n")
        argv = ["verify", "--experiment", "norm", "--model", str(path),
                "--logt", "10,100,1000", "--seed", "11"]
        assert cli_main(argv) == 0
        first = capsys.readouterr().out
        assert cli_main(argv) == 0
        second = capsys.readouterr().out
        assert first == second and first.startswith("# experiment:")
