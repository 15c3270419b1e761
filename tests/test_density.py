"""Pseudonorms, Narasimhan-Simha pairing, extremal and matrix densities."""
import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from curvedegen import LaurentFamily, NumericalConvergenceError
from curvedegen import density, genus0
from curvedegen.density import (
    SectionSystem,
    coefficient_grid,
    grid_density,
    grid_max,
    ns_density,
    pairing_matrix,
    pb_density,
    pseudonorm,
    region_tau_mass,
)


def perturbed_pole(m=2, corr=0.3):
    return LaurentFamily.from_w_powers(m, {0: 1.0, 1: corr})


EXACT_PAIR = [LaurentFamily.from_w_powers(2, {0: 1.0}),
              LaurentFamily.from_w_powers(2, {1: 1.0})]
# m = 3 systems whose extremal combinations cancel the z-side pole, a
# ridge that coordinate steps alone do not follow
THREE_M3 = [LaurentFamily.from_dict(3, {(0, 0): 1.0, (1, 0): 0.4}),
            LaurentFamily.from_w_powers(3, {1: 1.0, 2: 0.3j}),
            LaurentFamily.from_w_powers(3, {2: 1.0, 0: 0.2})]
# the benchmark's pair
BENCH_PAIR = [LaurentFamily.pole(2), LaurentFamily.from_w_powers(2, {1: 1.0})]
FOUR_M3 = [LaurentFamily.from_w_powers(3, {0: 1.0, 2: 0.25}),
           LaurentFamily.from_w_powers(3, {1: 1.0}),
           LaurentFamily.from_w_powers(3, {2: 1.0, 1: -0.4j}),
           LaurentFamily.from_dict(3, {(1, 0): 1.0, (0, 1): 0.3})]


def large_m_families(m, n_families):
    return [LaurentFamily.pole(m), LaurentFamily.from_w_powers(m, {1: 1.0, 0: 0.3}),
            LaurentFamily.from_w_powers(m, {2: 1.0})][:n_families]


def one_shot_density(S, C, m, weights=None, pn=None):
    """grid_density without blocks: the reference for its streamed body."""
    vals = np.abs(S @ C.T) ** (2.0 / m)
    return weights @ vals if pn is None else np.max(vals / pn, axis=1)


class TestKernel:
    SUB = density._SUB_ENTRIES

    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize("n_nodes, n_rows", [
        (500, 32),                    # fewer nodes than one sub-block
        (8000, 1056),                 # several pn blocks, ragged sub-blocks
        (31 * 40 + 1, 1056),          # a lone row left after the sub-blocks
        (70_001, 1),                  # one coefficient row
        (40, density._SUB_ENTRIES + 100),  # one node row per sub-block
    ])
    def test_matches_one_shot(self, m, n_nodes, n_rows):
        rng = np.random.default_rng(n_nodes + n_rows + m)
        S = rng.standard_normal((n_nodes, 3)) + 1j * rng.standard_normal((n_nodes, 3))
        C = rng.standard_normal((n_rows, 3)) + 1j * rng.standard_normal((n_rows, 3))
        C /= np.linalg.norm(C, axis=1, keepdims=True)
        weights = rng.uniform(0.1, 1.0, n_nodes)
        pn = grid_density(S, C, m, weights=weights)
        np.testing.assert_allclose(pn, one_shot_density(S, C, m, weights=weights),
                                   rtol=1e-13, atol=0)
        np.testing.assert_array_max_ulp(grid_max(S, C, m, pn),
                                        one_shot_density(S, C, m, pn=pn), maxulp=4)

    @staticmethod
    def assert_grid_max_exact(S, C, m, pn):
        # the Gram-form pick must land on the grid maximum itself
        ref = np.concatenate([one_shot_density(S[a:a + 1024], C, m, pn=pn)
                              for a in range(0, len(S), 1024)])
        np.testing.assert_array_max_ulp(grid_max(S, C, m, pn), ref, maxulp=4)

    # every pair of values of (m, logt, n_families) occurs once
    @pytest.mark.parametrize("m, logt, n_families", [
        (8, 1e3, 2), (8, 1e4, 3), (12, 1e3, 3), (12, 1e4, 2)])
    def test_large_m_systems(self, m, logt, n_families):
        # pn spans 2-3 decades here, so s = (min pn / pn)^m spans 19-42
        # decades: the scores' rounding must be bounded per (node, row) pair
        fams = large_m_families(m, n_families)
        system = SectionSystem(fams, logt)
        C, pn = system.grid_pn()
        S = system.S[::8]
        self.assert_grid_max_exact(S, C, m, pn)
        # the system's cached unit rows give the same maximum
        tau = system.tau_normalized(C, pn)[::8]
        np.testing.assert_array_max_ulp(tau, grid_max(S, C, m, pn), maxulp=4)

    @pytest.mark.parametrize("m", [2, 3, 12])
    @pytest.mark.parametrize("eps", [1e-6, 1e-10])
    def test_cancelling_and_zero_rows(self, m, eps):
        # theta_1 = theta_0 + eps noise: the grid column (1, -1)/sqrt(2)
        # cancels most rows, so its pn is tiny and s = (min pn / pn)^m spans
        # up to 20 decades; the rounding of its score then outranks the
        # maximum of most rows, and a pick without the certificate is off by
        # up to 98%
        rng = np.random.default_rng(m)
        C = coefficient_grid(2)
        a, noise = rng.standard_normal((2, 2000)) + 1j * rng.standard_normal((2, 2000))
        S = np.stack([a, a + eps * noise], axis=1)
        cols = rng.integers(0, len(C), 500)
        S[:500] = C[cols][:, ::-1] * [1.0, -1.0]  # S_i . c = 0 for one grid column
        S[500:600] = 0.0
        pn = grid_density(S[600:], C, m, weights=rng.uniform(0.1, 1.0, len(S) - 600))
        self.assert_grid_max_exact(S, C, m, pn)
        assert np.all(grid_max(S, C, m, pn)[500:600] == 0.0)

    @pytest.mark.parametrize("n_rows, n_cols", [(1, 3), (40, 1)])
    def test_one_row_or_one_family(self, n_rows, n_cols):
        rng = np.random.default_rng(n_rows + n_cols)
        S, C = (rng.standard_normal((n, n_cols)) + 1j * rng.standard_normal((n, n_cols))
                for n in (5000, n_rows))
        C /= np.abs(C) if n_cols == 1 else np.linalg.norm(C, axis=1, keepdims=True)
        for m in (2, 3, 12):
            pn = grid_density(S, C, m, weights=rng.uniform(0.1, 1.0, len(S)))
            self.assert_grid_max_exact(S, C, m, pn)

    def test_peak_memory_of_density_calls(self):
        # the kernel streams through cache-sized buffers and sums pn per
        # sub-block (peak 12.4 MB here); materializing |S C^T| per
        # 4e6-entry block peaked above 120 MB
        calls = [lambda: pairing_matrix(BENCH_PAIR, 1000.0),
                 lambda: ns_density(BENCH_PAIR, 1000.0, 0.3 + 0.1j),
                 lambda: region_tau_mass(BENCH_PAIR, 1000.0, (0.2, 0.4))]
        tracemalloc.start()
        try:
            for call in calls:
                tracemalloc.reset_peak()
                start = tracemalloc.get_traced_memory()[0]
                call()
                assert tracemalloc.get_traced_memory()[1] - start <= 16e6
        finally:
            tracemalloc.stop()

    def test_unit_rows_of_tiny_rows(self):
        # a row below 1e-154 once squared to a subnormal or zero norm, was
        # floored at the smallest normal float and came out 6e147 long
        S = np.array([[1e-160, 1e-160j], [3e-170, 0.0], [1e-320, 0.0], [0.0, 0.0],
                      [3.0, 4.0j]])
        norms, U = density._unit_rows(S)
        lengths = np.linalg.norm(U, axis=1)
        np.testing.assert_allclose(lengths[[0, 1, 4]], 1.0, rtol=1e-15)
        assert lengths[2] <= 1.0 and lengths[3] == 0.0
        np.testing.assert_allclose(norms[:2], [math.sqrt(2) * 1e-160, 3e-170], rtol=1e-15)

    def test_grid_scored_once_per_system(self, monkeypatch):
        grid_rows = len(coefficient_grid(2))
        scored = []
        batch = SectionSystem.pn_batch

        def counted(self, grid):
            scored.append(len(grid))
            return batch(self, grid)

        def fresh(self):
            C = coefficient_grid(len(self.families))
            return C, self.pn_batch(C)

        monkeypatch.setattr(SectionSystem, "pn_batch", counted)
        value = pb_density(BENCH_PAIR, 1000.0, 0.3 + 0.1j)
        assert scored.count(grid_rows) == 1
        # scoring the grid afresh for each reader of grid_pn: only the
        # pairing matrix reads it, and ns_density bounds the grid instead
        scored.clear()
        monkeypatch.setattr(SectionSystem, "grid_pn", fresh)
        assert pb_density(BENCH_PAIR, 1000.0, 0.3 + 0.1j) == pytest.approx(value, rel=1e-13)
        assert scored.count(grid_rows) == 1
        assert value == pytest.approx(0.5035471076097511, rel=1e-12)

    def test_grid_stage_passes_a_tenth_of_the_grid(self, monkeypatch):
        # a fresh system's grid stage sums bounds over few nodes and scores
        # only the rows that can reach the top two: 994 x 17,210 products
        # once went into the grid's exact pseudonorms.  The compass's
        # neighbours are not grid rows, so they do not count here.
        system = SectionSystem(BENCH_PAIR, 1000.0)
        grid = {tuple(c) for c in coefficient_grid(2)}
        kernel = density.grid_density
        products = []

        def counted(S, C, m, weights):
            if all(tuple(c) in grid for c in C):
                products.append(len(S) * len(C))
            return kernel(S, C, m, weights)

        monkeypatch.setattr(density, "grid_density", counted)
        ns_density(BENCH_PAIR, 1000.0, 0.3 + 0.1j, system=system)
        assert 0 < sum(products) < 0.1 * system.n_nodes * len(grid)

    @pytest.mark.parametrize("args, n_rows", [((2,), 994), ((2, 1), 4034)])
    def test_coefficient_grid_rows_distinct(self, args, n_rows):
        # the kernel scores every row it is given, so the grid holds each
        # coefficient line once: eta = 0 and eta = pi/2 are the exact axes
        C = coefficient_grid(*args)
        assert len(C) == n_rows == len(np.unique(C + 0.0, axis=0))
        assert C[0].tolist() == [1.0, 0.0] and C[-1].tolist() == [0.0, 1.0]
        # no two rows span one line
        overlap = np.abs(np.conj(C) @ C.T) ** 2
        np.fill_diagonal(overlap, 0.0)
        assert overlap.max() < 1.0 - 1e-6

    def test_coefficient_grid_made_once(self):
        # one read-only grid per (M, level), which every system shares
        C = coefficient_grid(3)
        assert coefficient_grid(3) is C and coefficient_grid(3, level=0) is C
        assert SectionSystem(THREE_M3, 100.0).grid()[0] is C
        with pytest.raises(ValueError, match="read-only"):
            C[0, 0] = 0.0

    def test_seed_moves_no_value(self):
        # OptimizerSpec is accepted and ignored: its seed once drew the
        # random rows of every M >= 3 grid and moved this value by 1.9e-10
        w = 0.1 + 0.3j
        seeded = ns_density(THREE_M3, 100.0, w, None, density.OptimizerSpec(seed=7))
        assert seeded == ns_density(THREE_M3, 100.0, w)

    def test_search_scores_distinct_rows(self, monkeypatch):
        # no pn_batch call of the search, the grid stage's included, repeats
        # a row; the stage scores only the rows it could not rule out
        batch = SectionSystem.pn_batch
        calls = []

        def checked(self, grid):
            calls.append(len(grid))
            assert len(np.unique(grid + 0.0, axis=0)) == len(grid)
            return batch(self, grid)

        monkeypatch.setattr(SectionSystem, "pn_batch", checked)
        ns_density(BENCH_PAIR, 1000.0, 0.3 + 0.1j)
        assert 2 <= calls[0] < len(coefficient_grid(2)) and len(calls) > 1

    @pytest.mark.parametrize("w", [0.05j, 0.3 + 0.1j, 0.7])
    def test_search_calls_bounded(self, monkeypatch, w):
        # starts on one line search it once: without the merge, the second
        # start crawls toward the (0, 1) line for all 200 rounds (about 205
        # pn_batch calls)
        batch = SectionSystem.pn_batch
        calls = []

        def counted(self, grid):
            calls.append(len(grid))
            return batch(self, grid)

        monkeypatch.setattr(SectionSystem, "pn_batch", counted)
        ns_density(BENCH_PAIR, 1000.0, w)
        assert len(calls) <= 60

    def test_start_on_a_better_line_dropped(self):
        # a phase copy of the best line and a start within a tenth of its
        # step of it are dropped; one more than a step off is kept, whatever
        # its score
        best = np.array([0.6, 0.8j])
        off = np.array([0.6 + 0.005, 0.8j])
        far = np.array([0.6 + 0.5, 0.8j])
        c = np.array([best * 1j, off / np.linalg.norm(off), best,
                      far / np.linalg.norm(far)])
        h = np.array([1.0, 2.0, 3.0, 0.5])
        live = density._distinct_starts(c, h, np.full(4, 0.25), np.arange(4))
        assert live.tolist() == [2, 3]
        # a start whose own step has shrunk below its distance is kept
        step = np.array([0.25, 0.001, 0.25, 0.25])
        assert density._distinct_starts(c, h, step, np.arange(4)).tolist() == [2, 1, 3]

    @pytest.mark.parametrize("logt, rows", [
        (12.0, (8_192, 24_576)),    # 2 panels, then ceil(6 / 2.5) = 3, not 4
        (1e2, (40_960, 163_840)),   # 10 panels, then 20
        (1e3, (45_056, 172_032)),   # the same and one tail panel
    ])
    def test_chart_grid_levels(self, logt, rows):
        # level 1 halves the panel length and doubles the angular nodes:
        # rows = 2 sides x panels x 32 nodes x (64 << level) angles
        terms = SectionSystem(BENCH_PAIR, logt).terms
        for level, n in enumerate(rows):
            S, weights = density._chart_grid(terms, 1, logt, level)
            assert S.shape == (n, 2) and weights.shape == (n,)

    def test_legendre_rule_cached_read_only(self):
        xs, ws = density._legendre(32)
        assert density._legendre(32)[0] is xs
        assert not xs.flags.writeable and not ws.flags.writeable
        nodes, weights = density.gauss_panels([0.0, 1.0, 3.0])
        assert nodes.flags.writeable and weights.sum() == pytest.approx(3.0, rel=1e-15)


PERTURBED_PAIR = [perturbed_pole(), LaurentFamily.from_w_powers(2, {1: 1.0})]


def full_grid(system):
    """The system's grid with every ring kept: one row per node."""
    n_charts = max(f.chain_length for f in system.families)
    return density._chart_grid(system.terms, n_charts, system.logt, 0)


class TestRingCollapse:
    NA = density._N_ANGULAR

    @pytest.mark.parametrize("logt", [1e2, 1e3, 1e4])
    @pytest.mark.parametrize("families", [BENCH_PAIR, PERTURBED_PAIR],
                             ids=["bench", "perturbed"])
    def test_collapsed_grid_matches_full_grid(self, families, logt):
        # deep in the annulus each section is its dominant term plus terms
        # smaller by e^-s, so whole rings are flat to one rounding unit
        system = SectionSystem(families, logt)
        assert system.n_nodes <= 18_000
        S, weights = full_grid(system)
        C, pn = system.grid_pn()
        ref = sum(weights[a:a + 2048] @ np.abs(S[a:a + 2048] @ C.T)
                  for a in range(0, len(S), 2048))
        np.testing.assert_allclose(pn, ref, rtol=1e-13, atol=0)
        # the pairing matrix from per-node grid maxima on the full grid
        tau = np.concatenate([one_shot_density(S[a:a + 2048], C, 2, pn=pn)
                              for a in range(0, len(S), 2048)])
        A = (S.T * (weights / tau)) @ np.conj(S)
        A = 0.5 * (A + np.conj(A.T))
        scale = math.sqrt(A[0, 0].real * A[1, 1].real)
        np.testing.assert_allclose(pairing_matrix(families, logt, system=system), A,
                                   rtol=1e-12, atol=1e-12 * scale)

    @pytest.mark.parametrize("families", [
        BENCH_PAIR, PERTURBED_PAIR, THREE_M3, FOUR_M3, large_m_families(12, 3),
        large_m_families(8, 2), [LaurentFamily.pole(2, 2)],
    ], ids=["bench", "perturbed", "three_m3", "four_m3", "m12x3", "m8x2", "pole_chain2"])
    def test_collapsed_envelope_matches_every_node(self, families):
        # the merges alone, apart from the resolution error that the build
        # check's level 1 also sees: the collapsed level-0 grid integrates
        # the envelope as every level-0 node does (worst gap 7.1e-15)
        m = families[0].m
        for logt in (12.0, 1e2, 1e3, 1e4):
            system = SectionSystem(families, logt)
            sq = (np.abs(system.S) ** 2) @ np.ones(len(families))
            every = density._table_norms(system.terms, families[0].chain_length,
                                         logt, 0)
            assert density._envelope(sq, system.weights, m) == pytest.approx(
                density._envelope(*every, m), rel=1e-13, abs=0)

    def test_threshold_splits_rings(self):
        # rows (1, d i): each row of a ring's last 63 deviates by d alone,
        # and the ring's largest row has norm 1; the summed deviation 63 d
        # decides, where a per-row test would merge both rings
        eps = np.finfo(float).eps
        S = np.zeros((3 * self.NA, 2), dtype=complex)
        S[:, 0] = 1.0
        S[self.NA + 1:2 * self.NA, 1] = 1.01 * eps / 63 * 1j  # just above
        S[2 * self.NA + 1:, 1] = 0.99 * eps / 63 * 1j         # just below
        weights = np.arange(1.0, len(S) + 1.0)
        S2, w2 = density._collapse_rings(S, weights, self.NA)
        assert len(S2) == self.NA + 2
        np.testing.assert_array_equal(S2[1:self.NA + 1], S[self.NA:2 * self.NA])
        np.testing.assert_array_equal(w2[1:self.NA + 1], weights[self.NA:2 * self.NA])
        assert w2[0] == weights[:self.NA].sum()
        np.testing.assert_array_equal(S2[-1], S[2 * self.NA])
        assert w2[-1] == weights[2 * self.NA:].sum()

    def test_zero_ring_merges(self):
        rng = np.random.default_rng(0)
        S = rng.standard_normal((2 * self.NA, 3)) + 1j * rng.standard_normal((2 * self.NA, 3))
        S[self.NA:] = 0.0
        weights = rng.uniform(0.1, 1.0, len(S))
        S2, w2 = density._collapse_rings(S, weights, self.NA)
        np.testing.assert_array_equal(S2, S[:self.NA + 1])
        np.testing.assert_array_equal(w2[:self.NA], weights[:self.NA])
        assert w2[-1] == pytest.approx(weights[self.NA:].sum(), rel=1e-15)

    def test_no_flat_ring_copies_nothing(self):
        rng = np.random.default_rng(1)
        S = rng.standard_normal((2 * self.NA, 2)) + 1j * rng.standard_normal((2 * self.NA, 2))
        weights = np.ones(len(S))
        S2, w2 = density._collapse_rings(S, weights, self.NA)
        assert S2 is S and w2 is weights

    def test_each_chart_collapses(self):
        # the two charts of a chain hold the same rows: one chart with
        # twice the weights gives the pn of both up to summation order
        chain = [LaurentFamily.pole(2, chain_length=2),
                 LaurentFamily.from_w_powers(2, {1: 1.0}, chain_length=2)]
        one, two = SectionSystem(BENCH_PAIR, 1e3), SectionSystem(chain, 1e3)
        assert len(full_grid(two)[0]) == 45_056
        np.testing.assert_array_equal(two.S, one.S)
        np.testing.assert_array_equal(two.weights, 2 * one.weights)
        C, pn = two.grid_pn()
        tiled = grid_density(np.tile(one.S, (2, 1)), C, 2, weights=np.tile(one.weights, 2))
        np.testing.assert_allclose(pn, tiled, rtol=1e-13, atol=0)

    @pytest.mark.parametrize("logt", [1e2, 1e4])
    def test_merged_grid_matches_full_grid_at_m3(self, logt):
        # p = 2/3: the Hoelder term of a merge is largest where a grid
        # combination nearly cancels a merged row
        system = SectionSystem(THREE_M3, logt)
        S, weights = full_grid(system)
        assert system.n_nodes < len(S)
        C, pn = system.grid_pn()
        ref = sum(weights[a:a + 2048] @ np.abs(S[a:a + 2048] @ C.T) ** (2.0 / 3.0)
                  for a in range(0, len(S), 2048))
        np.testing.assert_allclose(pn, ref, rtol=1e-13, atol=0)

    def test_region_mass_pieces_collapse(self, monkeypatch):
        # at L = 1e4 every ring of the region's panels is flat; keeping
        # every ring gives the same mass up to summation order
        collapse = density._collapse_rings
        panels = []

        def recorded(S, weights, n_angular):
            out = collapse(S, weights, n_angular)
            if len(S) == density._GL_ORDER * n_angular:
                panels.append(len(out[0]))
            return out

        monkeypatch.setattr(density, "_collapse_rings", recorded)
        val = region_tau_mass(BENCH_PAIR, 1e4, (0.2, 0.4))
        assert panels and all(n == density._GL_ORDER for n in panels)
        monkeypatch.setattr(density, "_collapse_rings", lambda S, w, na: (S, w))
        assert region_tau_mass(BENCH_PAIR, 1e4, (0.2, 0.4)) == pytest.approx(val, rel=1e-12)


class TestPseudonorm:
    def test_pure_pole_matches_log_growth(self):
        # || w^-m (dw)^m ||' = (2 pi log|t|^-1)^(m/2)
        for m in (2, 3):
            for logt in (10.0, 100.0, 1000.0, 10000.0):
                pn = pseudonorm([(1.0, LaurentFamily.pole(m))], logt)
                assert pn == pytest.approx((2 * math.pi * logt) ** (m / 2),
                                           rel=1e-9)

    def test_chain_scales_log_growth(self):
        # an l-chain contributes l half-annuli: (2 pi l L)^(m/2)
        pn = pseudonorm([(1.0, LaurentFamily.pole(2, chain_length=2))], 500.0)
        assert pn == pytest.approx((2 * math.pi * 2 * 500.0) ** 1.0, rel=1e-9)

    def test_absolute_homogeneity(self):
        fam = perturbed_pole()
        base = pseudonorm([(1.0, fam)], 100.0)
        assert pseudonorm([(2.5j, fam)], 100.0) == pytest.approx(2.5 * base,
                                                                 rel=1e-12)

    def test_perturbation_ratio_tends_to_one(self):
        fam = perturbed_pole()
        ratios = []
        for logt in (100.0, 1000.0, 10000.0):
            pn = pseudonorm([(1.0, fam)], logt)
            ratios.append(pn / (2 * math.pi * logt))
        assert abs(ratios[1] - 1.0) < 5e-3
        gaps = [abs(r - 1.0) for r in ratios]
        assert gaps[0] > gaps[1] > gaps[2]

    def test_grid_certificate_refines_in_s(self):
        # w^60 decays on s ~ 1/60, which the panels of length 5 do not
        # resolve; a certificate that refines only the angle passes it
        with pytest.raises(NumericalConvergenceError) as info:
            SectionSystem([LaurentFamily.from_w_powers(2, {60: 1.0})], 100.0)
        coarse, fine = info.value.diagnostics["iterates"]
        assert abs(fine - coarse) / abs(fine) > 1e-6
        system = SectionSystem([LaurentFamily.from_w_powers(2, {40: 1.0})], 100.0)
        assert 1e-8 <= system.grid_error <= 1e-6

    @pytest.mark.parametrize("logt", [math.inf, math.nan, -1.0])
    def test_non_finite_or_negative_logt_refused(self, logt):
        # logt = inf once built a system whose pn and grid_error were NaN
        with pytest.raises(ValueError, match="logt must be finite and positive"):
            SectionSystem(BENCH_PAIR, logt)

    def test_batch_agrees_with_single(self):
        sys2 = SectionSystem(EXACT_PAIR, 100.0)
        grid = np.eye(2, dtype=complex)
        batch = sys2.pn_batch(grid)
        singles = [sys2.pn(row) for row in grid]
        assert batch == pytest.approx(singles, rel=1e-12)


ZERO = LaurentFamily.from_dict(2, {})


class TestBuildCheck:
    @pytest.mark.parametrize("families", [
        BENCH_PAIR, PERTURBED_PAIR, THREE_M3, FOUR_M3, [LaurentFamily.pole(2, 2)],
        large_m_families(8, 2), large_m_families(8, 3),
        large_m_families(12, 3), large_m_families(12, 2),
        # |1 - w|^2 cancels near s = 0, phi = 0
        [LaurentFamily.from_w_powers(2, {0: 1, 1: -1})],
        [LaurentFamily.from_w_powers(12, {0: 1, 1: -1})],
    ], ids=["bench", "perturbed", "three_m3", "four_m3", "pole_chain2", "m8x2", "m8x3",
            "m12x3", "m12x2", "cancel_m2", "cancel_m12"])
    def test_table_envelope_matches_built_grid(self, families):
        # the level-1 check reads the squared row norms from the term
        # tables; the built level-1 grid is the reference
        terms = (density.side_terms(families, 0), density.side_terms(families, 1))
        n_charts = max(f.chain_length for f in families)
        m = families[0].m
        for logt in (12.0, 1e2, 1e3, 1e4):
            S, weights = density._chart_grid(terms, n_charts, logt, 1)
            sq, table_weights = density._table_norms(terms, n_charts, logt, 1)
            assert np.array_equal(table_weights, weights)
            ref = np.sum(np.abs(S) ** 2, axis=1)
            np.testing.assert_allclose(sq, ref, rtol=0, atol=1e-13 * ref.max())
            assert density._envelope(sq, weights, m) == pytest.approx(
                density._envelope(ref, weights, m), rel=1e-13, abs=0)

    def test_section_zero_on_a_level_one_node(self):
        # -x + w vanishes at level-1 node 111, phi = 0, where the expanded
        # squared norm rounds to -6.6e-24: it must count as 0, not as NaN
        s = density._chart_rule(100.0, 1, 1)[0]
        family = LaurentFamily.from_w_powers(2, {0: -math.exp(-s[111]), 1: 1.0})
        terms = (density.side_terms([family], 0), density.side_terms([family], 1))
        S, weights = density._chart_grid(terms, 1, 100.0, 1)
        ref = density._envelope(np.abs(S[:, 0]) ** 2, weights, 2)
        val = density._envelope(*density._table_norms(terms, 1, 100.0, 1), 2)
        assert val == pytest.approx(ref, rel=1e-13, abs=0)
        assert 1e-8 <= SectionSystem([family], 100.0).grid_error <= 2e-8

    def test_build_never_holds_the_level_one_grid(self):
        # building the level-1 grid put this peak at 12.4 MB; 4.8 MB without it
        tracemalloc.start()
        try:
            SectionSystem(BENCH_PAIR, 1e3)
            assert tracemalloc.get_traced_memory()[1] <= 6e6
        finally:
            tracemalloc.stop()

    def test_zero_family_builds(self):
        # a family with no terms has an empty side table on both sides
        system = SectionSystem([ZERO], 100.0)
        assert system.grid_error == 0.0
        assert pseudonorm([(1.0, ZERO)], 100.0) == 0.0
        # but its density would divide 0 by 0
        with pytest.raises(ValueError, match="family 0 is zero on every node"):
            ns_density([ZERO], 100.0, 0.3 + 0.1j)

    @pytest.mark.parametrize("call", [
        lambda fams: ns_density(fams, 100.0, 0.3 + 0.1j),
        lambda fams: pairing_matrix(fams, 100.0),
        lambda fams: pb_density(fams, 100.0, 0.3 + 0.1j),
        lambda fams: region_tau_mass(fams, 100.0, (0.2, 0.4)),
    ], ids=["ns_density", "pairing_matrix", "pb_density", "region_tau_mass"])
    def test_zero_family_refused(self, call):
        # its pn(e_0) is 0: the pairing matrix came out as the zero matrix
        # and the densities divided 0 by 0
        with pytest.raises(ValueError, match="family 0 is zero on every node"):
            call([ZERO, LaurentFamily.pole(2)])


class TestPairing:
    def test_rank_one_closed_form(self):
        # M = 1, m = 2: the single diagonal entry is the squared pseudonorm
        fam = perturbed_pole()
        A = np.asarray(pairing_matrix([fam], 100.0))
        pn = pseudonorm([(1.0, fam)], 100.0)
        assert A[0, 0].real == pytest.approx(pn ** 2, rel=1e-9)
        assert abs(A[0, 0].imag) < 1e-9 * A[0, 0].real

    def test_pure_pole_diagonal_growth(self):
        A = np.asarray(pairing_matrix([LaurentFamily.pole(2)], 1000.0))
        assert A[0, 0].real == pytest.approx((2 * math.pi * 1000.0) ** 2,
                                             rel=1e-6)

    def test_hermitian_positive_definite(self):
        fams = [perturbed_pole(), LaurentFamily.from_w_powers(2, {1: 1.0})]
        A = np.asarray(pairing_matrix(fams, 100.0))
        assert np.allclose(A, A.conj().T, rtol=1e-10, atol=1e-10)
        eig = np.linalg.eigvalsh(A)
        assert eig.min() > 0

    def test_exact_pair_is_diagonal(self):
        # w^-2 and w^-1 have distinct rotation weights, so the off-diagonal
        # angular integral vanishes identically
        A = np.asarray(pairing_matrix(EXACT_PAIR, 100.0))
        scale = math.sqrt(A[0, 0].real * A[1, 1].real)
        assert abs(A[0, 1]) / scale < 1e-12

    def test_perturbed_cross_term_decays(self):
        fams = [perturbed_pole(), LaurentFamily.from_w_powers(2, {1: 1.0})]
        vals = []
        for logt in (100.0, 1000.0):
            A = np.asarray(pairing_matrix(fams, logt))
            vals.append(abs(A[0, 1]) / math.sqrt(A[0, 0].real * A[1, 1].real))
        assert vals[0] > vals[1]
        assert vals[1] < 1e-3

    @pytest.mark.parametrize("m, logt", [(6, 1e4), (12, 1e3)])
    def test_pole_free_pair_is_finite(self, m, logt):
        # both sections underflow deep in the annulus, where tau^(1-m) alone
        # overflows; the matrix once came out NaN there
        fams = [LaurentFamily.from_w_powers(m, {1: 1.0}),
                LaurentFamily.from_w_powers(m, {2: 1.0})]
        A = np.asarray(pairing_matrix(fams, logt))
        assert np.all(np.isfinite(A))
        assert np.allclose(A, A.conj().T, rtol=1e-12, atol=0)
        assert np.linalg.eigvalsh(A).min() > 0

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                                "ignore:invalid value:RuntimeWarning")
    def test_non_finite_matrix_raises(self, monkeypatch):
        # tau = 1e-300 at m = 12 weighs every node by exp(7.6e3) = inf
        monkeypatch.setattr(SectionSystem, "tau_normalized",
                            lambda self, C, pn: np.full(self.n_nodes, 1e-300))
        fams = [LaurentFamily.from_w_powers(12, {1: 1.0}),
                LaurentFamily.from_w_powers(12, {2: 1.0})]
        with pytest.raises(NumericalConvergenceError):
            pairing_matrix(fams, 100.0)

    def test_second_diagonal_stays_bounded(self):
        # || w^-1 (dw)^2 ||' tends to a constant, not to a power of log|t|^-1
        vals = [np.asarray(pairing_matrix([EXACT_PAIR[1]], L))[0, 0].real
                for L in (100.0, 1000.0)]
        assert vals[1] == pytest.approx(vals[0], rel=1e-2)
        assert vals[1] == pytest.approx((2 * math.pi) ** 2, rel=1e-2)


class TestNSDensity:
    def test_rank_one_pole_profile(self):
        # single pure pole: density is |w|^-2 / (2 pi log|t|^-1)
        logt = 300.0
        for m in (2, 3):
            fam = LaurentFamily.pole(m)
            for r in (1e-3, 1e-6):
                d = ns_density([fam], logt, complex(r, 0.0))
                assert d * 2 * math.pi * r * r * logt == pytest.approx(
                    1.0, rel=1e-6)

    def test_sup_dominates_every_section(self):
        # the extremal density is a sup over unit combinations, so it is
        # at least the rank-one density of each member section
        logt = 100.0
        w = complex(2e-3, 1e-3)
        sup = ns_density(EXACT_PAIR, logt, w)
        for fam in EXACT_PAIR:
            lone = ns_density([fam], logt, w)
            assert sup >= lone * (1 - 1e-9)

    def test_two_term_family_near_node(self):
        # deep in the annulus the pole section dominates and the density
        # approaches the rank-one profile
        logt = 1000.0
        r = logt ** -3.0
        d = ns_density(EXACT_PAIR, logt, complex(r, 0.0))
        assert d * 2 * math.pi * r * r * logt == pytest.approx(1.0, rel=0.1)

    @pytest.mark.parametrize("families, w, before", [
        (THREE_M3, 0.1 + 0.3j, 0.47373694195280547),
        (THREE_M3, 0.7 + 0.0j, 0.21219056794067945),
        (FOUR_M3, 0.05 + 0.0j, 5.8154581518896205),
        (FOUR_M3, 0.7 + 0.0j, 0.27907361903801814),
    ])
    def test_merged_starts_keep_values(self, families, w, before):
        # values of the search before it merged starts on one line and
        # gridded two-member systems on lines: merging never loses a maximum.
        # Each bound is above the value of the 12-start Nelder-Mead search
        # that the polish replaced (0.46341650751854213, 0.20995506088207866,
        # 5.814800190658801 and 0.2783635399550887), so it keeps those too.
        assert ns_density(families, 100.0, w) >= before * (1 - 1e-12)

    @pytest.mark.parametrize("logt", [12.0, 1000.0])
    @pytest.mark.parametrize("w", [0.3 + 0.1j, 0.05j])
    @pytest.mark.parametrize("families", [
        [LaurentFamily.pole(2)] * 2,
        [LaurentFamily.from_w_powers(2, {1: 1.0}), LaurentFamily.from_w_powers(2, {1: 2.0})],
    ], ids=["pole-pole", "w-2w"])
    def test_dependent_pair_matches_one_family(self, families, w, logt):
        # the grid holds rows whose pn is rounding alone and rows with
        # c.v ~ 0: the grid stage's bounds must keep such rows where needed
        one = ns_density(families[:1], logt, w)
        assert ns_density(families, logt, w) == pytest.approx(one, rel=1e-12)

    @pytest.mark.parametrize("scale", [1e140, 1e-140])
    @pytest.mark.parametrize("families", [BENCH_PAIR, PERTURBED_PAIR],
                             ids=["bench", "perturbed"])
    def test_scaled_pair_unchanged(self, families, scale):
        # normalized densities ignore a common scale; the grid stage's
        # bounds work on unit rows, so neither scale overflows nor
        # underflows them (pytest turns a RuntimeWarning into an error)
        scaled = [dataclasses.replace(f, coeffs=tuple((e, c * scale) for e, c in f.coeffs))
                  for f in families]
        assert ns_density(scaled, 1000.0, 0.3 + 0.1j) == pytest.approx(
            ns_density(families, 1000.0, 0.3 + 0.1j), rel=1e-12)

    def test_two_member_value_unchanged(self):
        d = ns_density(EXACT_PAIR, 1000.0, 0.2 + 0.2j)
        assert d == pytest.approx(0.5626976975981922, rel=1e-12)

    @pytest.mark.parametrize("logt, diagonal, cross", [
        (100.0, (380471.9998042481, 39.278467994169844), 11.783352007854983),
        (1000.0, (39245276.56915179, 39.45882318636637), 11.837637244017422),
        (10000.0, (3944600130.7517347, 39.47644168735521), 11.842931914356512),
    ])
    def test_pairing_entries_unchanged(self, logt, diagonal, cross):
        fams = [perturbed_pole(), LaurentFamily.from_w_powers(2, {1: 1.0})]
        A = np.asarray(pairing_matrix(fams, logt))
        assert A[0, 0].real == pytest.approx(diagonal[0], rel=1e-12)
        assert A[1, 1].real == pytest.approx(diagonal[1], rel=1e-12)
        assert A[0, 1].real == pytest.approx(cross, rel=1e-12)
        assert abs(A[0, 1].imag) < 1e-12 * cross

    def test_region_mass_value_unchanged(self):
        val = region_tau_mass(EXACT_PAIR, 1000.0, (0.2, 0.4))
        assert val == pytest.approx(0.19999999999999982, rel=1e-12)

    def test_matrix_density_positive(self):
        fams = [perturbed_pole(), LaurentFamily.from_w_powers(2, {1: 1.0})]
        for w in (complex(1e-2, 0.0), complex(1e-4, 5e-5)):
            assert pb_density(fams, 100.0, w) > 0

    @pytest.mark.parametrize("call", [
        lambda fams, logt, system: ns_density(fams, logt, 0.3 + 0.1j, system=system),
        lambda fams, logt, system: pb_density(fams, logt, 0.3 + 0.1j, system=system),
        lambda fams, logt, system: pairing_matrix(fams, logt, system=system),
    ], ids=["ns_density", "pb_density", "pairing_matrix"])
    def test_system_for_other_inputs_refused(self, call):
        # a system fixes the families and the depth; using one built for
        # other inputs would mix them silently
        system = SectionSystem(BENCH_PAIR, 1e2)
        with pytest.raises(ValueError, match="other families"):
            call(BENCH_PAIR[:1], 1e2, system)
        with pytest.raises(ValueError, match="another logt"):
            call(BENCH_PAIR, 1e3, system)
        assert np.all(np.isfinite(call(tuple(BENCH_PAIR), 100, system)))

    @pytest.mark.parametrize("density_fn", [ns_density, pb_density])
    @pytest.mark.parametrize("w", [0.0, 2.0, complex(math.nan, 0.0),
                                   math.exp(-100.0)])
    def test_point_off_the_chart_refused(self, density_fn, w):
        # the chart is 0 <= log(1/|w|) < logt, and each w here lies outside
        with pytest.raises(ValueError, match=r"0 <= log\(1/\|w\|\) < logt = 100"):
            density_fn(BENCH_PAIR, 100.0, w)

    @pytest.mark.parametrize("density_fn", [ns_density, pb_density])
    @pytest.mark.parametrize("families", [BENCH_PAIR, BENCH_PAIR[:1]],
                             ids=["pair", "pole"])
    def test_density_overflowing_a_float_raises(self, density_fn, families):
        # e^-499 is on the chart at logt = 1e3, but |w|^-2 is not a float
        w = math.exp(-499.0)
        with pytest.raises(NumericalConvergenceError, match="overflows a float") as info:
            density_fn(families, 1e3, w)
        assert info.value.diagnostics["w"] == w
        assert info.value.diagnostics["log_value"] > 709.0
        # at e^-354 the density, about 4.81e303, still is
        assert 1e303 < density_fn(families, 1e3, math.exp(-354.0)) < math.inf

    def test_singular_pairing_matrix_raises(self):
        # two copies of one family make the pairing matrix singular
        with pytest.raises(NumericalConvergenceError, match="singular") as info:
            pb_density([LaurentFamily.pole(2), LaurentFamily.pole(2)], 100.0, 0.3)
        assert info.value.diagnostics == {"logt": 100.0, "m": 2}

    def test_rank_one_matrix_density_matches_extremal(self):
        # with a single section the matrix measure and the extremal
        # measure coincide
        fam = perturbed_pole()
        w = complex(3e-4, 2e-4)
        a = ns_density([fam], 100.0, w)
        b = pb_density([fam], 100.0, w)
        assert b == pytest.approx(a, rel=1e-9)


class TestRegionMass:
    def test_uniform_weight(self):
        val = region_tau_mass(EXACT_PAIR, 1000.0, (0.2, 0.4))
        assert val == pytest.approx(0.2, rel=1e-6)

    def test_linear_weight(self):
        val = region_tau_mass(EXACT_PAIR, 1000.0, (0.1, 0.3), lambda u: u)
        assert val == pytest.approx(0.04, rel=1e-6)

    def test_longer_chain_halves_mass(self):
        fams = [LaurentFamily.from_w_powers(2, {0: 1.0}, chain_length=2),
                LaurentFamily.from_w_powers(2, {1: 1.0}, chain_length=2)]
        val = region_tau_mass(fams, 1000.0, (0.2, 0.4))
        assert val == pytest.approx(0.1, rel=1e-6)

    def test_rank_one_region(self):
        val = region_tau_mass([LaurentFamily.pole(2)], 1000.0, (0.25, 0.75))
        assert val == pytest.approx(0.5, rel=1e-6)

    def test_bad_region_rejected(self):
        with pytest.raises(ValueError):
            region_tau_mass(EXACT_PAIR, 100.0, (0.5, 0.2))
        with pytest.raises(ValueError):
            region_tau_mass(EXACT_PAIR, 100.0, (-0.1, 0.4))

    def test_mixed_chain_lengths_rejected(self):
        fams = [LaurentFamily.pole(2), LaurentFamily.pole(2, chain_length=2)]
        with pytest.raises(ValueError):
            region_tau_mass(fams, 100.0, (0.2, 0.4))

    @pytest.mark.parametrize("call", [
        lambda fams: pseudonorm([(1.0, f) for f in fams], 100.0),
        lambda fams: pairing_matrix(fams, 100.0),
        lambda fams: ns_density(fams, 100.0, 0.3 + 0.1j),
        lambda fams: pb_density(fams, 100.0, 0.3 + 0.1j),
    ], ids=["pseudonorm", "pairing_matrix", "ns_density", "pb_density"])
    def test_mixed_chain_lengths_refused_by_the_build(self, call):
        # the build once put every family on the longest chain: pole(2)'s
        # pseudonorm next to a chain-2 partner came out doubled
        fams = [LaurentFamily.pole(2),
                LaurentFamily.from_w_powers(2, {1: 1.0}, chain_length=2)]
        with pytest.raises(ValueError, match="families must share one chain length"):
            call(fams)

    def test_no_families_rejected(self):
        with pytest.raises(ValueError, match="at least one family"):
            region_tau_mass([], 100.0, (0.2, 0.4))

    def test_unstable_weight_raises_with_history(self):
        # a weight oscillating far below every level's resolution keeps
        # consecutive doublings from agreeing
        with pytest.raises(NumericalConvergenceError) as info:
            region_tau_mass([LaurentFamily.pole(2)], 1000.0, (0.2, 0.4),
                            lambda u: 1.0 + np.cos(1e5 * u))
        err = info.value
        assert len(err.diagnostics["iterates"]) == 5
        assert err.best == err.diagnostics["iterates"][-1]
        assert err.diagnostics["region"] == (0.2, 0.4)
        assert err.diagnostics["logt"] == 1000.0


def _nan_envelope_at_level_one(monkeypatch):
    real, calls = density._envelope, []

    def envelope(S, weights, m):
        calls.append(m)
        return real(S, weights, m) if len(calls) == 1 else math.nan

    monkeypatch.setattr(density, "_envelope", envelope)
    return lambda: SectionSystem(BENCH_PAIR, 100.0)


def _inf_weight_after_level_zero(monkeypatch):
    # (0.2, 0.4) lies on the w side, which level 0 cuts into two panels
    calls = []

    def weight(u):
        calls.append(u)
        return np.full_like(u, 1.0 if len(calls) <= 2 else math.inf)

    return lambda: region_tau_mass([LaurentFamily.pole(2)], 1000.0, (0.2, 0.4), weight)


def _nan_sphere_pass(monkeypatch):
    monkeypatch.setattr(genus0, "_mass_pass", lambda *args: math.nan)
    return lambda: genus0.ns_mass_genus0(genus0.generic_configuration(4), (1, 1, 1, 1), 2)


class TestRefinementWalk:
    @pytest.mark.parametrize("setup, best, n_levels, context", [
        (_nan_envelope_at_level_one, math.nan, 2, {"logt"}),
        (_inf_weight_after_level_zero, math.inf, 5, {"logt", "region"}),
        (_nan_sphere_pass, math.nan, 2, set()),
    ], ids=["build", "region", "genus0"])
    def test_non_finite_level_refused(self, monkeypatch, setup, best, n_levels, context):
        # a non-finite level never agrees with the one before it, so every
        # walk raises with its last iterate and the whole history
        run = setup(monkeypatch)
        with pytest.raises(NumericalConvergenceError) as info:
            run()
        err = info.value
        assert err.best == pytest.approx(best, nan_ok=True)
        assert len(err.diagnostics["iterates"]) == n_levels
        assert set(err.diagnostics) == {"iterates"} | context
