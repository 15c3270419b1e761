"""Depth-grid convergence experiments and their deterministic tables."""
import math

import numpy as np
import pytest

import curvedegen.experiments
from curvedegen import LaurentFamily
from curvedegen.experiments import (
    ExperimentResult,
    norm_asymptotics_experiment,
    pairing_experiments,
    region_mass_experiment,
)

PERTURBED = LaurentFamily.from_w_powers(2, {0: 1.0, 1: 0.3})
PAIR = [PERTURBED, LaurentFamily.from_w_powers(2, {1: 1.0})]
SHORT_GRID = (100.0, 1000.0)


@pytest.fixture(scope="module")
def pairing_sweep():
    """(diagonal, off-diagonal) results of one pairing sweep over SHORT_GRID."""
    return pairing_experiments(PAIR, logt_grid=SHORT_GRID)


class TestNormExperiment:
    def test_pure_pole_ratio_is_exact(self):
        res = norm_asymptotics_experiment(LaurentFamily.pole(2),
                                          logt_grid=SHORT_GRID)
        assert all(err < 1e-12 for err in res.rel_errors)

    def test_perturbed_errors_decay_like_inverse_depth(self):
        res = norm_asymptotics_experiment(PERTURBED,
                                          logt_grid=(100.0, 1000.0, 10000.0))
        assert res.rel_errors[0] > res.rel_errors[1] > res.rel_errors[2]
        assert res.rel_errors[1] < 5e-3
        assert res.fitted_exponent == pytest.approx(-1.0, abs=0.1)

    def test_vanishing_residue_ratio_tends_to_zero(self):
        # without the pole term the pseudonorm stays bounded, so the
        # observed/reference ratio dies off
        fam = LaurentFamily.from_w_powers(2, {1: 1.0})
        res = norm_asymptotics_experiment(fam, logt_grid=SHORT_GRID)
        ratios = [o / r for o, r in zip(res.observed, res.reference)]
        assert ratios[0] > ratios[1]
        assert ratios[1] < 2e-3

    def test_metadata_records_family_shape(self):
        res = norm_asymptotics_experiment(LaurentFamily.pole(3, chain_length=2),
                                          logt_grid=SHORT_GRID)
        assert res.metadata["m"] == 3
        assert res.metadata["chain_length"] == 2


class TestPairingExperiments:
    def test_diagonal_ratio_improves(self, pairing_sweep):
        res = pairing_sweep[0]
        assert res.rel_errors[0] > res.rel_errors[1]
        assert res.observed[1] == pytest.approx(res.reference[1], rel=0.1)

    def test_offdiagonal_decreases(self, pairing_sweep):
        res = pairing_sweep[1]
        assert res.observed[0] > res.observed[1] > 0
        assert res.fitted_exponent == pytest.approx(-1.0, abs=0.1)

    def test_offdiag_reference_is_zero(self, pairing_sweep):
        res = pairing_sweep[1]
        assert res.reference == (0.0, 0.0)
        assert res.rel_errors == res.observed

    def test_offdiag_is_scale_invariant(self, pairing_sweep):
        # A_jj A_kk overflows for families scaled by 1e100: the normalized
        # cross term once read 0 there
        big = [LaurentFamily.from_dict(2, {k: 1e100 * c for k, c in f.coeffs}) for f in PAIR]
        res = pairing_experiments(big, logt_grid=SHORT_GRID)[1]
        np.testing.assert_allclose(res.observed, pairing_sweep[1].observed, rtol=1e-12)


class TestRegionExperiment:
    def test_uniform_weight_limit(self):
        res = region_mass_experiment(PAIR, (0.2, 0.4), logt_grid=SHORT_GRID)
        assert res.reference == (pytest.approx(0.2), pytest.approx(0.2))
        assert res.rel_errors[1] < 0.02

    def test_weight_integral_reference(self):
        res = region_mass_experiment(PAIR, (0.1, 0.3), f=lambda u: u,
                                     f_label="u", logt_grid=SHORT_GRID)
        assert res.reference[0] == pytest.approx(0.04, rel=1e-9)
        assert res.metadata["weight"] == "u"

    def test_reference_integral_matches_closed_form(self, monkeypatch):
        # only the reference column is under test, so skip the masses
        monkeypatch.setattr(curvedegen.experiments, "region_tau_mass",
                            lambda *args, **kwargs: 0.0)
        a, b = 0.2, 0.7
        for f, exact in ((lambda u: u ** 2, (b ** 3 - a ** 3) / 3),
                         (lambda u: np.cos(3 * u),
                          (math.sin(3 * b) - math.sin(3 * a)) / 3)):
            res = region_mass_experiment(PAIR, (a, b), f=f, logt_grid=SHORT_GRID)
            for ref in res.reference:
                assert abs(ref - exact) <= 1e-13 * abs(exact)


class TestResultTable:
    def test_byte_identical_reruns(self):
        a = norm_asymptotics_experiment(PERTURBED, logt_grid=SHORT_GRID)
        b = norm_asymptotics_experiment(PERTURBED, logt_grid=SHORT_GRID)
        assert a.to_columns() == b.to_columns()

    def test_table_layout(self):
        res = norm_asymptotics_experiment(LaurentFamily.pole(2),
                                          logt_grid=SHORT_GRID)
        lines = res.to_columns().splitlines()
        assert lines[0] == "# experiment: norm-asymptotics"
        assert "# columns: logt observed reference rel_error" in lines
        data = [ln for ln in lines if not ln.startswith("#")]
        assert len(data) == 2
        assert len(data[0].split()) == 4

    def test_offdiag_metadata_recorded(self, pairing_sweep):
        # the grids take no options, so no seed is recorded
        res = pairing_sweep[1]
        assert res.metadata == {"m": 2, "pair": (0, 1), "n_families": 2}
        assert "# pair: (0, 1)" in res.to_columns()
        assert "seed" not in res.to_columns()


class TestGridValidation:
    def test_decreasing_grid_rejected(self):
        with pytest.raises(ValueError):
            norm_asymptotics_experiment(LaurentFamily.pole(2),
                                        logt_grid=(1000.0, 100.0))

    def test_single_point_grid_rejected(self):
        with pytest.raises(ValueError):
            pairing_experiments(PAIR, logt_grid=(100.0,))

    def test_nonpositive_grid_rejected(self):
        with pytest.raises(ValueError):
            region_mass_experiment(PAIR, (0.2, 0.4), logt_grid=(0.0, 100.0))
