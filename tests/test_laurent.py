"""Truncated Laurent families and their term tables."""
import cmath
import math

import numpy as np
import pytest

from curvedegen import LaurentFamily
from curvedegen.laurent import side_terms, side_values


def w_side_value(family, logt, w):
    """w^m * theta_t at a point w of the w side, read from the term table."""
    s, phi = np.array([-math.log(abs(w))]), np.array([cmath.phase(w)])
    return side_values(side_terms([family], 0), logt, s, phi)[0, 0]


class TestLaurentFamily:
    def test_pole_shape(self):
        fam = LaurentFamily.pole(3)
        assert fam.m == 3
        assert fam.coeffs == (((0, 0), 1.0),)
        assert fam.residue == 1.0

    def test_from_w_powers_exponents(self):
        # key k means the fiber term w^(k-m); the term table evaluates the
        # scaled section w^m * theta_t, so the pole term contributes 1
        fam = LaurentFamily.from_w_powers(2, {0: 1.0, 1: 0.3})
        w = 0.02 + 0.01j
        assert w_side_value(fam, 100.0, w) == pytest.approx(1.0 + 0.3 * w)

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

    @pytest.mark.parametrize("c", [1e154, -2e151j, complex(1e150, 1e150)])
    def test_coefficient_whose_square_overflows_rejected(self, c):
        # a 1e160 coefficient once overflowed the build's squared norms
        with pytest.raises(ValueError, match=r"exponent pair \(0, 1\) exceeds 1e\+150"):
            LaurentFamily.from_w_powers(2, {0: 1.0, 1: c})
        assert LaurentFamily.from_w_powers(2, {0: 1.0, 1: 1e150}).coeffs[1][1] == 1e150

    def test_t_power_suppression(self):
        # an (alpha, beta) term carries t^alpha, so it dies as t -> 0
        fam = LaurentFamily.from_dict(2, {(1, 1): 1.0})
        assert abs(w_side_value(fam, 100.0, 0.5)) < 1e-40

    def test_side_values_match_fiber_values(self):
        fam = LaurentFamily.from_w_powers(2, {0: 1.0, 1: 0.3, 2: -0.1})
        logt = 50.0
        s = np.array([0.7, 4.0])
        phi = np.array([0.0, 1.1])
        vals = side_values(side_terms([fam], 0), logt, s, phi).reshape(2, 2)
        for i, si in enumerate(s):
            for j, pj in enumerate(phi):
                w = math.exp(-si) * complex(math.cos(pj), math.sin(pj))
                expected = 1.0 + 0.3 * w - 0.1 * w * w
                assert vals[i, j] == pytest.approx(expected, rel=1e-12)

    def test_side_values_swap_exponents_on_the_z_side(self):
        # on the w side term (a, b) reads c t^a w^(b-a), on the z side
        # c t^b z^(a-b); a termless family is a zero column
        coeffs = {(0, 0): 1.0, (1, 0): 0.5, (0, 2): 0.2, (2, 1): 0.3}
        fams = [LaurentFamily.from_dict(3, coeffs), LaurentFamily(3, ())]
        logt = 3.0
        t = math.exp(-logt)
        s = np.array([0.2, 1.3])
        phi = np.array([0.0, 0.9, 4.0])
        for side in (0, 1):
            vals = side_values(side_terms(fams, side), logt, s, phi)
            assert vals.shape == (6, 2)
            assert not vals[:, 1].any()
            for i, (si, pj) in enumerate((si, pj) for si in s for pj in phi):
                x = cmath.exp(complex(-si, pj))
                expected = sum(c * t ** b * x ** (a - b) if side else c * t ** a * x ** (b - a)
                               for (a, b), c in coeffs.items())
                assert vals[i, 0] == pytest.approx(expected, rel=1e-12)
