"""Truncated Laurent families and their side tables."""
import math

import numpy as np
import pytest

from curvedegen import LaurentFamily
from curvedegen.laurent import eval_table, fiber_value, side_tables


class TestLaurentFamily:
    def test_pole_shape(self):
        fam = LaurentFamily.pole(3)
        assert fam.m == 3
        assert fam.coeffs == (((0, 0), 1.0),)
        assert fam.residue == 1.0

    def test_from_w_powers_exponents(self):
        # key k means the fiber term w^(k-m); fiber_value reports the
        # scaled section w^m * theta_t, so the pole term contributes 1
        fam = LaurentFamily.from_w_powers(2, {0: 1.0, 1: 0.3})
        w = 0.02 + 0.01j
        assert fiber_value(fam, 100.0, w) == pytest.approx(1.0 + 0.3 * w)

    def test_from_dict_drops_zero_terms(self):
        fam = LaurentFamily.from_dict(2, {(0, 0): 1.0, (1, 2): 0.0})
        assert fam.coeffs == (((0, 0), 1.0),)

    def test_truncation_order(self):
        fam = LaurentFamily.from_dict(2, {(0, 0): 1.0, (1, 3): 2.0})
        assert fam.truncation_order == (1, 3)

    def test_invalid_m(self):
        with pytest.raises(ValueError):
            LaurentFamily.pole(1)

    def test_invalid_chain_length(self):
        with pytest.raises(ValueError):
            LaurentFamily.pole(2, chain_length=0)

    def test_negative_exponents_rejected(self):
        with pytest.raises(ValueError):
            LaurentFamily.from_dict(2, {(-1, 0): 1.0})

    @pytest.mark.parametrize("c", [math.nan, math.inf, complex(0.3, -math.inf)])
    def test_non_finite_coefficient_rejected(self, c):
        # a NaN coefficient once built a family whose build check failed
        # with best = nan instead of naming the input
        with pytest.raises(ValueError, match=r"non-finite .* exponent pair \(0, 1\)"):
            LaurentFamily.from_w_powers(2, {0: 1.0, 1: c})
        with pytest.raises(ValueError, match=r"non-finite .* exponent pair \(2, 0\)"):
            LaurentFamily(3, (((2, 0), c),))

    def test_t_power_suppression(self):
        # an (alpha, beta) term carries t^alpha, so it dies as t -> 0
        fam = LaurentFamily.from_dict(2, {(1, 1): 1.0})
        assert abs(fiber_value(fam, 100.0, 0.5)) < 1e-40

    def test_side_tables_match_fiber_values(self):
        fam = LaurentFamily.from_w_powers(2, {0: 1.0, 1: 0.3, 2: -0.1})
        logt = 50.0
        w_table, _ = side_tables(fam)
        s = np.array([0.7, 4.0])
        phi = np.array([0.0, 1.1])
        vals = eval_table(w_table, logt, s, phi)
        for i, si in enumerate(s):
            for j, pj in enumerate(phi):
                w = math.exp(-si) * complex(math.cos(pj), math.sin(pj))
                expected = fiber_value(fam, logt, w)
                assert vals[i, j] == pytest.approx(expected, rel=1e-12)
