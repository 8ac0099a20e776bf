import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ohlab.fourier import PeriodicGrid
from ohlab.initial import (frequency_scaled, sampled_data, two_mode_max,
                           two_mode_max_slope, two_mode_quantities)

TWO_PI = 2.0 * np.pi

params = st.floats(min_value=0.0, max_value=10.0,
                   allow_nan=False, allow_infinity=False)


def quadrature_scalars(a, b, n=8192):
    """Dense-grid reference for the closed forms."""
    x = np.arange(n) / n
    u = a * np.cos(TWO_PI * x) + b * np.sin(2 * TWO_PI * x)
    du = -a * TWO_PI * np.sin(TWO_PI * x) + 2 * TWO_PI * b * np.cos(2 * TWO_PI * x)
    return {
        "sup_abs": np.max(np.abs(u)),
        "l2": np.sqrt(np.mean(u ** 2)),
        "min_slope": du.min(),
        "max_slope": du.max(),
        "cube": np.mean(du ** 3),
    }


class TestClosedForms:
    def test_pure_cosine(self):
        d = two_mode_quantities(0.05, 0.0)
        assert d.sup_abs == pytest.approx(0.05)
        assert d.min_slope == pytest.approx(-TWO_PI * 0.05)
        assert d.max_slope == pytest.approx(TWO_PI * 0.05)
        assert d.cube == 0.0
        assert d.l2 == pytest.approx(0.05 / np.sqrt(2))

    def test_pure_sine(self):
        # a=0: sup reduces to b, slope extremes to +-4*pi*b
        d = two_mode_quantities(0.0, 0.3)
        assert d.sup_abs == pytest.approx(0.3, rel=1e-12)
        assert d.min_slope == pytest.approx(-2 * TWO_PI * 0.3)

    def test_cube_closed_form(self):
        d = two_mode_quantities(1.0, 1.0)
        assert d.cube == pytest.approx(-12 * np.pi ** 3, rel=1e-12)

    @pytest.mark.parametrize("a, b", [(1e155, 0.0), (1e200, 1e-200),
                                      (1e300, 1e-300), (1e200, 1e-250)])
    def test_cube_where_a_squared_overflows(self, a, b):
        # a * a overflows from a = 1.3e154: the cube read nan at b = 0 and
        # -inf at the others, whose cube is finite
        exact = Fraction(-12.0 * np.pi ** 3) * Fraction(a) ** 2 * Fraction(b)
        cube = two_mode_quantities(a, b).cube
        assert math.isfinite(cube)
        assert abs(Fraction(cube) - exact) <= 1e-15 * abs(exact)

    def test_cube_past_the_float_range_saturates(self):
        assert two_mode_quantities(1e300, 1e300).cube == -math.inf

    @given(params, params)
    def test_cube_in_range_is_the_plain_product(self, a, b):
        assert two_mode_quantities(a, b).cube == -12.0 * np.pi ** 3 * a * a * b

    def test_rejects_negative_parameters(self):
        with pytest.raises(ValueError, match="assume a, b >= 0"):
            two_mode_quantities(-0.1, 0.0)
        with pytest.raises(ValueError, match="assume a, b >= 0"):
            two_mode_quantities(0.0, -1e-8)
        # nan used to pass, and the criteria failed on an empty search
        for a, b in ((float("nan"), 0.0), (0.1, float("nan"))):
            with pytest.raises(ValueError, match="assume a, b >= 0"):
                two_mode_quantities(a, b)

    @given(params, params)
    def test_matches_quadrature(self, a, b):
        d = two_mode_quantities(a, b)
        ref = quadrature_scalars(a, b)
        scale = max(a, b, 1e-3)
        # grid extrema only see the true sup to O(dx^2); keep rel at 1e-6
        assert d.sup_abs == pytest.approx(ref["sup_abs"], rel=1e-6, abs=1e-9 * scale)
        assert d.l2 == pytest.approx(ref["l2"], rel=1e-10, abs=1e-12)
        assert d.min_slope == pytest.approx(ref["min_slope"], rel=1e-6,
                                            abs=1e-7 * scale)
        assert d.max_slope == pytest.approx(ref["max_slope"], rel=1e-6,
                                            abs=1e-7 * scale)
        assert d.cube == pytest.approx(ref["cube"], rel=1e-9,
                                       abs=1e-8 * max(scale ** 3, 1e-3))

    @given(params, params)
    def test_slope_min_formula(self, a, b):
        d = two_mode_quantities(a, b)
        assert d.min_slope == pytest.approx(-TWO_PI * (a + 2 * b), rel=1e-12,
                                            abs=1e-12)

    def test_max_slope_branches(self):
        # interior critical point exists only for a <= 8b
        assert two_mode_max_slope(1.0, 1.0) == pytest.approx(
            TWO_PI * (2.0 + 1.0 / 16.0), rel=1e-12)
        assert two_mode_max_slope(9.0, 1.0) == pytest.approx(TWO_PI * 7.0,
                                                             rel=1e-12)
        assert two_mode_max_slope(2.0, 0.0) == pytest.approx(TWO_PI * 2.0)

    def test_sup_formula_continuity_at_branch(self):
        # the sup formula switches expression at b -> 0; check continuity
        assert two_mode_max(1.0, 1e-9) == pytest.approx(two_mode_max(1.0, 0.0),
                                                        rel=1e-6)


class TestSampling:
    def test_field_is_zero_mean(self):
        d = two_mode_quantities(0.4, 0.1)
        f = d.sample(PeriodicGrid(256))
        assert abs(f.coefficients[0] / 256) < 1e-15

    def test_sample_matches_formula(self):
        d = two_mode_quantities(0.4, 0.1)
        g = PeriodicGrid(256)
        expect = 0.4 * np.cos(TWO_PI * g.x) + 0.1 * np.sin(2 * TWO_PI * g.x)
        assert np.max(np.abs(d.sample(g).values - expect)) < 1e-14

    def test_sampled_data_scalars(self):
        fn = lambda x: 0.2 * np.sin(TWO_PI * x)
        d = sampled_data(fn, n=1024)
        assert d.sup_abs == pytest.approx(0.2, rel=1e-8)
        assert d.min_slope == pytest.approx(-TWO_PI * 0.2, rel=1e-8)
        assert d.cube == pytest.approx(0.0, abs=1e-12)

    def test_sampled_data_mean_projected(self):
        d = sampled_data(lambda x: 1.0 + np.cos(TWO_PI * x), n=256)
        f = d.sample(PeriodicGrid(256))
        assert abs(f.coefficients[0] / 256) < 1e-14


class TestFrequencyScaled:
    def test_scaling_relations(self):
        base = lambda x: np.cos(TWO_PI * x)
        d1 = frequency_scaled(base, 1, n=2048)
        d8 = frequency_scaled(base, 8, n=2048)
        assert d8.sup_abs == pytest.approx(d1.sup_abs, rel=1e-10)
        assert d8.l2 == pytest.approx(d1.l2, rel=1e-10)
        assert d8.min_slope == pytest.approx(8 * d1.min_slope, rel=1e-8)
