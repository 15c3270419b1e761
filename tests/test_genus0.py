"""Narasimhan-Simha mass for weighted configurations on the sphere."""
import cmath

import pytest

from curvedegen.genus0 import generic_configuration, moebius_points, ns_mass_genus0
from curvedegen.measures import Estimate


class TestZeroDimensionalCase:
    def test_unique_section_has_mass_one(self):
        # sum a_i = 2m leaves a one-dimensional space; the normalized
        # measure has total mass exactly 1
        pts = generic_configuration(4)
        res = ns_mass_genus0(pts, (1, 1, 1, 1), 2)
        assert res.value == pytest.approx(1.0, abs=1e-3)
        assert res.error < 1e-3

    def test_rigid_value_and_error_unchanged(self):
        # the mass is the level-1 pass, and the bar is 1e-10 of it plus
        # twice its rounding-level gap to the level-0 pass
        res = ns_mass_genus0(generic_configuration(4), (1, 1, 1, 1), 2)
        assert res.value == pytest.approx(1.0, rel=1e-12)
        assert res.error == pytest.approx(1.000008881784197e-10, rel=1e-12)

    def test_higher_order_zero_dimensional(self):
        # m = 3 with coefficients (2, 2, 2): d = 0 again
        pts = generic_configuration(3)
        res = ns_mass_genus0(pts, (2, 2, 2), 3)
        assert res.value == pytest.approx(1.0, abs=1e-3)

    def test_meta_reports_shape(self):
        pts = generic_configuration(4)
        res = ns_mass_genus0(pts, (1, 1, 1, 1), 2)
        assert isinstance(res, Estimate)


class TestValidation:
    PTS = generic_configuration(4)

    def test_coefficient_range(self):
        with pytest.raises(ValueError, match="\\[1, m-1\\]"):
            ns_mass_genus0(self.PTS, (0, 1, 1, 1), 2)
        with pytest.raises(ValueError, match="\\[1, m-1\\]"):
            ns_mass_genus0(self.PTS, (2, 1, 1, 1), 2)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="per point"):
            ns_mass_genus0(self.PTS, (1, 1, 1), 2)

    def test_coincident_points(self):
        with pytest.raises(ValueError, match="distinct"):
            ns_mass_genus0((0.1, 0.1, 0.3j, -0.5), (1, 1, 1, 1), 2)

    def test_seam_margin(self):
        with pytest.raises(ValueError, match="seam"):
            ns_mass_genus0((0.1, 0.999, 0.3j, -0.5), (1, 1, 1, 1), 2)

    @pytest.mark.parametrize("bad", [complex(float("nan"), 0.0), complex(0.0, float("inf"))])
    def test_non_finite_point(self, bad):
        # an input error, refused before any quadrature runs
        with pytest.raises(ValueError, match="not finite"):
            ns_mass_genus0((0.1, bad, 0.3j, -0.5), (1, 1, 1, 1), 2)

    def test_non_integer_pole_order(self):
        # int() would truncate 1.5 to 1 and measure another configuration
        with pytest.raises(ValueError, match="1.5 is not an integer"):
            ns_mass_genus0(self.PTS, (1.5, 1, 1, 1), 2)

    def test_insufficient_total_weight(self):
        with pytest.raises(ValueError, match="2m"):
            ns_mass_genus0((0.1, -0.2, 0.3j), (1, 1, 1), 2)


class TestConfigurations:
    def test_generic_points_separated(self):
        pts = generic_configuration(6)
        assert len(pts) == 6
        assert len(set(pts)) == 6
        sep = min(abs(a - b) for i, a in enumerate(pts) for b in pts[:i])
        assert sep > 0.1
        assert max(abs(p) for p in pts) < 0.9

    def test_moebius_is_fractional_linear(self):
        pts = (0.5 + 0.0j, 0.2j)
        a, b, c, d = 2.0, 0.5, 0.1, 1.0
        moved = moebius_points(pts, (a, b, c, d))
        for p, q in zip(pts, moved):
            assert q == pytest.approx((a * p + b) / (c * p + d))

    def test_moebius_identity(self):
        pts = generic_configuration(5)
        assert moebius_points(pts, (1.0, 0.0, 0.0, 1.0)) == pytest.approx(pts)

    def test_moebius_pole_named(self):
        # 1 / (p - 1) sends p = 1 to infinity
        with pytest.raises(ValueError, match=r"point 1\.0 is sent to infinity"):
            moebius_points([1.0, 0.5], (1, 0, 1, -1))

    def test_moebius_composition(self):
        # applying (p/2) then (p + 0.1) matches the composed map
        pts = generic_configuration(4)
        step1 = moebius_points(pts, (1.0, 0.0, 0.0, 2.0))
        step2 = moebius_points(step1, (1.0, 0.1, 0.0, 1.0))
        direct = moebius_points(pts, (1.0, 0.2, 0.0, 2.0))
        assert step2 == pytest.approx(direct)
