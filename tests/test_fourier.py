import numpy as np
import pytest
from hypothesis import given, strategies as st

from ohlab.fourier import (PeriodicField, PeriodicGrid, field_diagnostics,
                           padded_samples, parabolic_minmax, quartic_minmax,
                           resize_coefficients, spectral_derivative)

TWO_PI = 2.0 * np.pi


def grid(n=256, length=1.0):
    return PeriodicGrid(n, length)


def band_limited(g, rng, k_max=None):
    """Random real field with modes only up to k_max (default n/4)."""
    k_max = k_max or g.n // 4
    c = np.zeros(g.n // 2 + 1, dtype=complex)
    c[1:k_max + 1] = rng.standard_normal(k_max) + 1j * rng.standard_normal(k_max)
    c *= g.n / 2  # O(1) sample values
    return PeriodicField(g, coefficients=c)


class TestPeriodicGrid:
    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            PeriodicGrid(12)
        with pytest.raises(ValueError):
            PeriodicGrid(4)

    def test_abscissae_exclude_right_endpoint(self):
        g = grid(16, 2.0)
        assert g.x[0] == 0.0
        assert g.x[-1] == pytest.approx(2.0 - 2.0 / 16)
        assert np.allclose(np.diff(g.x), 2.0 / 16)


class TestTransforms:
    def test_round_trip(self):
        g = grid()
        rng = np.random.default_rng(0)
        f = band_limited(g, rng)
        back = PeriodicField(g, coefficients=f.coefficients)
        rel = np.max(np.abs(back.values - f.values)) / np.max(np.abs(f.values))
        assert rel < 1e-12

    def test_mean_is_mode_zero(self):
        g = grid()
        f = PeriodicField.from_function(g, lambda x: 1.5 + np.cos(TWO_PI * x))
        assert f.mean == pytest.approx(np.mean(f.values), abs=1e-14)

    def test_constructor_wants_exactly_one_representation(self):
        g = grid(8)
        with pytest.raises(ValueError):
            PeriodicField(g)
        with pytest.raises(ValueError):
            PeriodicField(g, values=np.zeros(8), coefficients=np.zeros(5))


class TestDerivative:
    def test_cosine_mode(self):
        g = grid()
        f = PeriodicField.from_function(g, lambda x: np.cos(TWO_PI * x))
        d = spectral_derivative(f)
        expect = -TWO_PI * np.sin(TWO_PI * g.x)
        assert np.max(np.abs(d.values - expect)) < 1e-12

    def test_constant_goes_to_zero(self):
        g = grid()
        f = PeriodicField(g, values=np.full(g.n, 3.7))
        assert np.max(np.abs(spectral_derivative(f).values)) < 1e-12

    def test_two_mode_slope_minimum(self):
        # min over the grid of u0' for a=0.05, b=0 is -2*pi*a
        g = grid(1024)
        f = PeriodicField.from_function(g, lambda x: 0.05 * np.cos(TWO_PI * x))
        assert spectral_derivative(f).values.min() == pytest.approx(
            -TWO_PI * 0.05, rel=1e-9)

    def test_matches_fd4_at_fourth_order(self):
        # centered 4th-order stencil error should shrink ~16x per refinement
        rng = np.random.default_rng(7)
        errs = []
        for n in (128, 256):
            g = grid(n)
            f = band_limited(g, np.random.default_rng(7), k_max=8)
            d = spectral_derivative(f).values
            v = f.values
            h = g.length / n
            fd = (8 * (np.roll(v, -1) - np.roll(v, 1))
                  - (np.roll(v, -2) - np.roll(v, 2))) / (12 * h)
            errs.append(np.max(np.abs(fd - d)))
        assert errs[0] / errs[1] == pytest.approx(16.0, rel=0.2)

    def test_derivative_drops_the_negligible_modes(self):
        # mode 400 at 1e-17 of mode 1 is round-off that evaluate drops;
        # differentiated, it would sit at 4e-15 of mode 1's derivative, past
        # the drop level, and evaluate would sum 400 modes for one
        n = 1024
        c = np.zeros(n // 2 + 1, dtype=complex)
        c[1] = 0.5 * n
        clean = PeriodicField(grid(n), coefficients=c.copy())
        c[400] = 0.5e-17 * n
        d = spectral_derivative(PeriodicField(grid(n), coefficients=c))
        assert np.array_equal(d.coefficients,
                              spectral_derivative(clean).coefficients)
        pts = np.random.default_rng(12).uniform(-1.0, 2.0, 256)
        assert np.max(np.abs(d.evaluate(pts)
                             + TWO_PI * np.sin(TWO_PI * pts))) < 1e-13


def antiderivative(f):
    """The mean-zero primitive, as the characteristics provider takes it."""
    return PeriodicField(f.grid, coefficients=f.coefficients
                         * f.grid.antideriv_multiplier)


class TestAntiderivative:
    def test_cosine(self):
        g = grid()
        f = PeriodicField.from_function(g, lambda x: np.cos(TWO_PI * x))
        got = antiderivative(f).values
        assert np.max(np.abs(got - np.sin(TWO_PI * g.x) / TWO_PI)) < 1e-13

    def test_sine_double_mode(self):
        g = grid()
        f = PeriodicField.from_function(g, lambda x: np.sin(2 * TWO_PI * x))
        got = antiderivative(f).values
        expect = -np.cos(2 * TWO_PI * g.x) / (2 * TWO_PI)
        assert np.max(np.abs(got - expect)) < 1e-13

    def test_result_has_zero_mode(self):
        g = grid()
        f = band_limited(g, np.random.default_rng(3))
        assert antiderivative(f).coefficients[0] == 0

    @given(st.integers(min_value=0, max_value=2 ** 31 - 1))
    def test_derivative_inverts_antiderivative(self, seed):
        g = grid(128)
        f = band_limited(g, np.random.default_rng(seed), k_max=32)
        back = spectral_derivative(antiderivative(f))
        scale = max(np.max(np.abs(f.values)), 1.0)
        assert np.max(np.abs(back.values - f.values)) / scale < 1e-12


class TestConservedQuantities:
    def test_zero_field(self):
        g = grid()
        c = field_diagnostics(np.zeros(g.n // 2 + 1, dtype=complex), g, 1.0)
        assert (c.mass, c.q, c.e) == (0.0, 0.0, 0.0)

    def test_two_mode_q(self):
        a, b = 0.3, 0.7
        g = grid(512)
        f = PeriodicField.from_function(
            g, lambda x: a * np.cos(TWO_PI * x) + b * np.sin(2 * TWO_PI * x))
        c = field_diagnostics(f.coefficients, g, 1.0)
        assert c.q == pytest.approx((a * a + b * b) / 2, rel=1e-13)

    def test_cosine_energy(self):
        # for cos(2 pi x) the cubic term integrates to zero and the
        # anti-derivative contributes 1/(8 pi^2)
        g = grid(512)
        f = PeriodicField.from_function(g, lambda x: np.cos(TWO_PI * x))
        c = field_diagnostics(f.coefficients, g, 1.0)
        assert c.e == pytest.approx(1.0 / (8 * np.pi ** 2), rel=1e-12)

    @given(st.integers(min_value=0, max_value=2 ** 31 - 1))
    def test_q_nonnegative(self, seed):
        g = grid(64)
        f = band_limited(g, np.random.default_rng(seed), k_max=16)
        assert field_diagnostics(f.coefficients, g, 1.0).q >= 0.0


class TestFieldDiagnostics:
    def test_cubic_energy_of_mixed_sign_field(self):
        # int (cos 2 pi x + cos 4 pi x)^3 = 3/4, so E = 1/4 at gamma = 0
        g = grid(256)
        f = PeriodicField.from_function(
            g, lambda x: np.cos(TWO_PI * x) + np.cos(2 * TWO_PI * x))
        d = field_diagnostics(f.coefficients, g, 0.0)
        assert d.e == pytest.approx(0.25, abs=1e-14)

    def test_extrema_are_polished_4n_samples(self):
        # the slope extrema; sup|u| reads the 3n/2 samples (next test)
        g = grid(256)
        f = band_limited(g, np.random.default_rng(7))
        d = field_diagnostics(f.coefficients, g, 1.0)
        assert (d.min_slope, d.max_slope) == parabolic_minmax(np.fft.irfft(
            resize_coefficients(f.coefficients * g.deriv_multiplier, 4 * g.n)))

    def test_sup_is_the_quartic_polish_of_the_padded_samples(self):
        # sup|u| and E read u on the 3n/2 grid the solver squares u on
        g = grid(256)
        f = band_limited(g, np.random.default_rng(7))
        d = field_diagnostics(f.coefficients, g, 1.0)
        u = np.fft.irfft(resize_coefficients(f.coefficients, 3 * g.n // 2))
        assert np.array_equal(u, padded_samples(f.coefficients, g.n))
        umin, umax = quartic_minmax(u)
        assert d.sup_abs == max(abs(umin), abs(umax))
        assert field_diagnostics(f.coefficients, g, 1.0, u) == d

    @pytest.mark.parametrize("shift", [0.0, 0.37e-2, 0.011, 0.3])
    def test_sup_of_a_cosine(self, shift):
        # five 3n/2 samples beat three 4n samples on a resolved field
        g = grid(64)
        f = PeriodicField.from_function(
            g, lambda x: np.cos(TWO_PI * (x - shift)))
        d = field_diagnostics(f.coefficients, g, 0.0)
        assert abs(d.sup_abs - 1.0) < 1e-9


class TestQuadratureAndEvaluate:
    def test_integral_of_known_function(self):
        g = grid(256, length=3.0)
        f = PeriodicField(g, values=2.0 + np.sin(TWO_PI * g.x / 3.0))
        mass = field_diagnostics(f.coefficients, g, 1.0).mass
        assert mass == pytest.approx(6.0, rel=1e-14)

    def test_evaluate_matches_exact_trig(self):
        g = grid(128)
        f = PeriodicField.from_function(
            g, lambda x: 0.4 * np.cos(TWO_PI * x) - 1.1 * np.sin(3 * TWO_PI * x))
        pts = np.random.default_rng(11).uniform(0, 1, 50)
        exact = 0.4 * np.cos(TWO_PI * pts) - 1.1 * np.sin(3 * TWO_PI * pts)
        assert np.max(np.abs(f.evaluate(pts) - exact)) < 1e-13

    def test_evaluate_periodic_extension(self):
        g = grid(64)
        f = PeriodicField.from_function(g, lambda x: np.cos(TWO_PI * x))
        assert f.evaluate([2.25])[0] == pytest.approx(f.evaluate([0.25])[0],
                                                      abs=1e-13)

    def test_resample_refines_interpolant(self):
        g = grid(64)
        f = PeriodicField.from_function(g, lambda x: np.sin(2 * TWO_PI * x))
        fine = np.fft.irfft(resize_coefficients(f.coefficients, 256))
        x_fine = np.arange(256) / 256
        assert np.max(np.abs(fine - np.sin(2 * TWO_PI * x_fine))) < 1e-13

    def test_quartic_minmax_beats_the_parabola(self):
        # on the same samples, a hundredfold closer (1.3e-9 against 6.1e-7)
        x = np.arange(64) / 64
        vals = np.cos(TWO_PI * (x - 0.37e-2))
        lo, hi = quartic_minmax(vals)
        assert abs(hi - 1.0) < 1e-2 * abs(parabolic_minmax(vals)[1] - 1.0)
        assert abs(lo + 1.0) < 1e-2 * abs(parabolic_minmax(vals)[0] + 1.0)

    def test_quartic_minmax_falls_back_to_the_sample(self):
        # the quartic through 0, 0.9, 1, 0.9, -1 is stationary 1.36 cells
        # right of the peak sample, outside the window it can be trusted in
        vals = np.array([0.0, 0.9, 1.0, 0.9, -1.0, -0.5])
        assert quartic_minmax(vals)[1] == 1.0

    def test_parabolic_minmax_beats_grid_sampling(self):
        # extremum between grid points: the parabola recovers it
        x = np.arange(64) / 64
        vals = np.cos(TWO_PI * (x - 0.37e-2))
        lo, hi = parabolic_minmax(vals)
        assert hi == pytest.approx(1.0, abs=1e-5)
        assert hi > vals.max()
        assert lo == pytest.approx(-1.0, abs=1e-5)
