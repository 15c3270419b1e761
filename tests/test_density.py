"""Pseudonorms, Narasimhan-Simha pairing, extremal and matrix densities."""
import math
import tracemalloc

import numpy as np
import pytest

from curvedegen import LaurentFamily, NumericalConvergenceError
from curvedegen import density
from curvedegen.density import (
    SectionSystem,
    coefficient_grid,
    grid_density,
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
        np.testing.assert_array_max_ulp(grid_density(S, C, m, pn=pn),
                                        one_shot_density(S, C, m, pn=pn), maxulp=4)

    @staticmethod
    def assert_grid_max_exact(S, C, m, pn):
        # the Gram-form pick must land on the grid maximum itself
        ref = np.concatenate([one_shot_density(S[a:a + 1024], C, m, pn=pn)
                              for a in range(0, len(S), 1024)])
        np.testing.assert_array_max_ulp(grid_density(S, C, m, pn=pn), ref, maxulp=4)

    # every pair of values of (m, logt, n_families) occurs once
    @pytest.mark.parametrize("m, logt, n_families", [
        (8, 1e3, 2), (8, 1e4, 3), (12, 1e3, 3), (12, 1e4, 2)])
    def test_large_m_systems(self, m, logt, n_families):
        # pn spans 2-3 decades here, so s = (min pn / pn)^m spans 19-42
        # decades: the scores' rounding must be bounded per (node, row) pair
        fams = [LaurentFamily.pole(m), LaurentFamily.from_w_powers(m, {1: 1.0, 0: 0.3}),
                LaurentFamily.from_w_powers(m, {2: 1.0})][:n_families]
        system = SectionSystem(fams, logt)
        C, pn = system.grid_pn()
        S = system.S[::8]
        self.assert_grid_max_exact(S, C, m, pn)
        # the system's cached unit rows give the same maximum
        tau = system.tau_normalized(C, pn)[::8]
        np.testing.assert_array_max_ulp(tau, grid_density(S, C, m, pn=pn), maxulp=4)

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
        assert np.all(grid_density(S, C, m, pn=pn)[500:600] == 0.0)

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
        # the kernel streams through cache-sized buffers; materializing
        # |S C^T| per 4e6-entry block peaked above 120 MB here
        calls = [lambda: pairing_matrix(BENCH_PAIR, 1000.0),
                 lambda: ns_density(BENCH_PAIR, 1000.0, 0.3 + 0.1j),
                 lambda: region_tau_mass(BENCH_PAIR, 1000.0, (0.2, 0.4))]
        tracemalloc.start()
        try:
            for call in calls:
                tracemalloc.reset_peak()
                start = tracemalloc.get_traced_memory()[0]
                call()
                assert tracemalloc.get_traced_memory()[1] - start <= 40e6
        finally:
            tracemalloc.stop()

    def test_grid_scored_once_per_system(self, monkeypatch):
        grid_rows = len(coefficient_grid(2))
        scored = []
        batch = SectionSystem.pn_batch

        def counted(self, grid):
            scored.append(len(grid))
            return batch(self, grid)

        def fresh(self, optimizer=None):
            C = coefficient_grid(len(self.families), optimizer)
            return C, self.pn_batch(C)

        monkeypatch.setattr(SectionSystem, "pn_batch", counted)
        value = pb_density(BENCH_PAIR, 1000.0, 0.3 + 0.1j)
        assert scored.count(grid_rows) == 1
        # scoring the grid afresh for each reader, as before, changes no bit
        scored.clear()
        monkeypatch.setattr(SectionSystem, "grid_pn", fresh)
        assert pb_density(BENCH_PAIR, 1000.0, 0.3 + 0.1j) == value
        assert scored.count(grid_rows) == 2
        assert value == pytest.approx(0.5035471076097511, rel=1e-12)


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
        assert info.value.diagnostics["grid_error"] > 1e-6
        system = SectionSystem([LaurentFamily.from_w_powers(2, {40: 1.0})], 100.0)
        assert 1e-8 <= system.grid_error <= 1e-6

    def test_batch_agrees_with_single(self):
        sys2 = SectionSystem(EXACT_PAIR, 100.0)
        grid = np.eye(2, dtype=complex)
        batch = sys2.pn_batch(grid)
        singles = [sys2.pn(row) for row in grid]
        assert batch == pytest.approx(singles, rel=1e-12)


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

    @pytest.mark.parametrize("families, w, earlier", [
        (THREE_M3, 0.1 + 0.3j, 0.46341650751854213),
        (THREE_M3, 0.7 + 0.0j, 0.20995506088207866),
        (FOUR_M3, 0.05 + 0.0j, 5.814800190658801),
        (FOUR_M3, 0.7 + 0.0j, 0.2783635399550887),
    ])
    def test_search_keeps_earlier_values(self, families, w, earlier):
        # values of the 12-start Nelder-Mead search this one replaced
        assert ns_density(families, 100.0, w) >= earlier * (1 - 1e-12)

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
