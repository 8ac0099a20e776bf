import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ohlab import criteria
from ohlab.criteria import (CriterionReport, LineData, all_reports,
                            characteristics_criterion, cubic_criterion_one,
                            cubic_criterion_two, find_t1, hunter_criterion,
                            line_criterion)
from ohlab.fourier import PeriodicField, PeriodicGrid, field_diagnostics
from ohlab.initial import frequency_scaled, sampled_data, two_mode_quantities

TWO_PI = 2.0 * np.pi
# 64 points per decade over the criterion's search range eps in [1e-4, 1e4]
EPS_GRID = np.logspace(-4.0, 4.0, 8 * 64 + 1)


def line_beta(data, gamma):
    """min u0' and the coefficients of beta(T) = b0 + b1*T + b2*T^2 that
    line_criterion uses for data: b0 = sup|u0|, b1 = sqrt(gamma/2) *
    sqrt(E + gamma*Q + Q*sup|u0|/3), b2 = gamma*Q/6."""
    grid = PeriodicGrid(len(data.values), length=data.span)
    coeffs = PeriodicField(grid, values=data.values).coefficients.copy()
    coeffs[0] = 0.0
    d = field_diagnostics(coeffs, grid, gamma)
    b1 = math.sqrt(gamma / 2.0) * math.sqrt(d.e + gamma * d.q
                                            + d.q * d.sup_abs / 3.0)
    return d.min_slope, (d.sup_abs, b1, gamma * d.q / 6.0)


def bound_time_residual(beta, gamma, report):
    """Relative residual of 2*sqrt(gamma)*T*sqrt(beta(T)) = log(1 + 2/eps)
    at the report's (eps, T)."""
    b0, b1, b2 = beta
    t = report.time_bound
    lhs = 2.0 * math.sqrt(gamma) * t * math.sqrt(b0 + (b1 + b2 * t) * t)
    rhs = math.log1p(2.0 / report.epsilon)
    return abs(lhs - rhs) / rhs


def bisect_bound_time(beta, gamma, tau):
    """Reference root of 2*sqrt(gamma)*T*sqrt(beta(T)) = tau, elementwise:
    bracket doubling, then 100 bisections."""
    b0, b1, b2 = beta

    def lhs(t):
        return 2.0 * math.sqrt(gamma) * t * np.sqrt(b0 + (b1 + b2 * t) * t)

    lo, hi = np.zeros_like(tau), np.ones_like(tau)
    while np.any(lhs(hi) < tau):
        hi = np.where(lhs(hi) < tau, 2.0 * hi, hi)
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        below = lhs(mid) < tau
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
    return 0.5 * (lo + hi)


def dense_two_mode_max(d, gamma):
    """The characteristics margin's maximum over EPS_GRID for data d."""
    t1 = np.array([find_t1(d.sup_abs, d.l2, gamma, e) for e in EPS_GRID])
    return float(np.max((-d.min_slope) - (1.0 + EPS_GRID) * np.sqrt(
        gamma * (d.sup_abs + gamma * d.l2 * t1))))


def dense_line_max(min_slope, beta, gamma):
    """The line margin's maximum over EPS_GRID for beta(T) = b0 + b1*T +
    b2*T^2."""
    b0, b1, b2 = beta
    t1 = bisect_bound_time(beta, gamma, np.log1p(2.0 / EPS_GRID))
    return float(np.max((-min_slope) - (1.0 + EPS_GRID) * np.sqrt(
        gamma * (b0 + (b1 + b2 * t1) * t1))))


class TestFindT1:
    def test_reference_value(self):
        # frozen against an independent scalar root-find of
        # 2*sqrt(g)*T*sqrt(M + g*l2*T) = log(1 + 2/eps)
        assert find_t1(1.0, 1.0, 1.0, 2.0) == pytest.approx(
            0.3035508647031143, abs=1e-12)

    def test_defining_equation_residual(self):
        t1 = find_t1(0.3, 0.7, 2.0, 0.5)
        lhs = 2.0 * math.sqrt(2.0) * t1 * math.sqrt(0.3 + 2.0 * 0.7 * t1)
        assert abs(lhs - math.log1p(2.0 / 0.5)) < 1e-10

    def test_huge_epsilon_limit(self):
        # log(1 + 2/eps) -> 0, so the bound time collapses
        assert find_t1(1.0, 1.0, 1.0, 1e9) < 1e-8

    def test_monotone_in_gamma(self):
        ts = [find_t1(1.0, 1.0, g, 2.0) for g in (0.5, 1.0, 2.0, 4.0)]
        assert all(a > b for a, b in zip(ts, ts[1:]))

    def test_zero_data_raises(self):
        with pytest.raises(ValueError, match="zero data has no bound time"):
            find_t1(0.0, 0.0, 1.0, 2.0)

    def test_bad_epsilon_raises(self):
        with pytest.raises(ValueError):
            find_t1(1.0, 1.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            find_t1(1.0, 1.0, 1.0, math.inf)

    @pytest.mark.parametrize("eps", [1e-12, 1e12, 1e300])
    def test_residual_at_extreme_epsilon(self, eps):
        t1 = find_t1(0.3, 0.7, 2.0, eps)
        lhs = 2.0 * math.sqrt(2.0) * t1 * math.sqrt(0.3 + 2.0 * 0.7 * t1)
        rhs = math.log1p(2.0 / eps)
        assert abs(lhs - rhs) <= 1e-12 * rhs


@pytest.mark.parametrize("gamma", [0.0, -1.0])
def test_nonpositive_gamma_raises(gamma):
    d = two_mode_quantities(1.0, 1.0)
    line = TestLineCriterion.gaussian_slope(1.0)
    for call in (lambda: cubic_criterion_one(d, gamma),
                 lambda: cubic_criterion_two(d, gamma),
                 lambda: characteristics_criterion(d, gamma),
                 lambda: all_reports(d, gamma),
                 lambda: find_t1(1.0, 1.0, gamma, 2.0),
                 lambda: line_criterion(line, gamma)):
        with pytest.raises(ValueError, match="gamma must be positive"):
            call()


class TestHunter:
    def test_small_cosine_not_satisfied(self):
        r = hunter_criterion(two_mode_quantities(0.05, 0.0))
        assert not r.satisfied
        assert r.time_bound is None

    def test_large_sine_satisfied(self):
        r = hunter_criterion(two_mode_quantities(0.0, 5.0))
        assert r.satisfied
        # breaking before 2/m with m = 4*pi*b = 20*pi
        assert r.time_bound == pytest.approx(1.0 / (10.0 * math.pi), rel=1e-14)

    def test_margin_formula(self):
        d = two_mode_quantities(0.0, 5.0)
        m = -d.min_slope
        assert hunter_criterion(d).margin == pytest.approx(
            m ** 3 - 4.0 * d.sup_abs * (4.0 + m), rel=1e-14)

    def test_other_gamma_not_applicable(self):
        # the criterion is stated for gamma = 1 only
        assert hunter_criterion(two_mode_quantities(1.0, 1.0), gamma=2.0) \
            == CriterionReport("hunter", False, -math.inf)

    def test_zero_data(self):
        r = hunter_criterion(two_mode_quantities(0.0, 0.0))
        assert not r.satisfied and r.margin == 0.0


class TestFloatRange:
    """Criteria whose margins or bound times leave the float range
    saturate as float64 arithmetic does, and raise nothing."""

    @pytest.mark.parametrize("a", [1e102, 1e155, 1e300])
    def test_hunter_margin_saturates_to_inf(self, a):
        # m^3 overflows from a = 9.0e101, and 4M(4 + m) too from a = 2.7e153
        d = two_mode_quantities(a, 0.0)
        r = hunter_criterion(d)
        assert r.margin == math.inf and r.satisfied
        assert r.time_bound == 2.0 / -d.min_slope

    @pytest.mark.parametrize("sup_abs", [1e204, 7.8e204, 7.9e204, 1e205])
    def test_hunter_margin_past_the_cube_limit(self, sup_abs):
        # m^3 is past the float range and 4M(4 + m) nearly cancels it: the
        # margin is the exact one, rounded, or saturated where it overflows
        d = dataclasses.replace(two_mode_quantities(1.0, 0.0),
                                min_slope=-6e102, sup_abs=sup_abs)
        m, big_m = Fraction(6e102), Fraction(sup_abs)
        exact = m ** 3 - 4 * big_m * (4 + m)
        margin = hunter_criterion(d).margin
        if abs(exact) > Fraction(np.finfo(float).max):
            assert margin == (math.inf if exact > 0 else -math.inf)
        else:
            assert abs(Fraction(margin) - exact) <= 1e-14 * abs(exact)

    def test_cond1_threshold_saturates(self):
        r = cubic_criterion_one(two_mode_quantities(1.0, 1.0), 1e300)
        assert r == CriterionReport("cond1", False, -math.inf)

    @pytest.mark.parametrize("a", [1e155, 1e200, 1e300])
    def test_charac_past_the_squares_overflow(self, a):
        # a^2 overflows from a = 1.4e154; l2 did too, and the bound time's
        # start then underflowed to 0 and divided by it
        d = two_mode_quantities(a, 0.0)
        assert d.l2 == pytest.approx(a / math.sqrt(2.0), rel=1e-15)
        r = characteristics_criterion(d, 1.0)
        assert r.satisfied and r.margin == pytest.approx(-d.min_slope,
                                                         rel=1e-12)
        assert hunter_criterion(d).satisfied

    @pytest.mark.parametrize("d, gamma", [
        (dataclasses.replace(two_mode_quantities(1.0, 0.0), l2=math.inf), 1.0),
        (two_mode_quantities(1e10, 0.0), 1e300)])
    def test_charac_with_an_infinite_bound_term(self, d, gamma):
        # a coefficient of gamma*beta is inf, and so is the bound term
        r = characteristics_criterion(d, gamma)
        assert r == CriterionReport("charac", False, -math.inf)

    @pytest.mark.parametrize("sup_abs, l2, eps", [(1.0, math.inf, 2.0),
                                                   (1e300, 1.0, 1e300)])
    def test_bound_time_below_the_float_range_is_zero(self, sup_abs, l2,
                                                      eps):
        assert find_t1(sup_abs, l2, 1.0, eps) == 0.0


class TestCubicConditions:
    def test_cond1_two_mode(self):
        # cube = -12 pi^3 < -(3/2)^(3/2): comfortably satisfied at gamma=1
        assert cubic_criterion_one(two_mode_quantities(1.0, 1.0), 1.0).satisfied

    def test_cond1_pure_cosine_never(self):
        # b=0 kills the cubic integral, so the strict inequality fails
        r = cubic_criterion_one(two_mode_quantities(3.0, 0.0), 1.0)
        assert not r.satisfied

    def test_cond1_threshold_by_bisection(self):
        # largest gamma with cond1 satisfied, against the closed form
        # gamma* = (2/(3 l2)) * (-cube)^(2/3)
        d = two_mode_quantities(1.0, 1.0)
        lo, hi = 1e-6, 1e3
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if cubic_criterion_one(d, mid).satisfied:
                lo = mid
            else:
                hi = mid
        closed = (2.0 / (3.0 * d.l2)) * (-d.cube) ** (2.0 / 3.0)
        assert 0.5 * (lo + hi) == pytest.approx(closed, rel=1e-12)

    def test_cond2_needs_large_l2(self):
        # l2 = 1 < 3*gamma/4 at gamma = 2
        r = cubic_criterion_two(two_mode_quantities(1.0, 1.0), 2.0)
        assert not r.satisfied

    def test_cond2_satisfied(self):
        assert cubic_criterion_two(two_mode_quantities(2.0, 2.0), 1.0).satisfied

    def test_cond2_zero_data_margin(self):
        r = cubic_criterion_two(two_mode_quantities(0.0, 0.0), 1.0)
        assert not r.satisfied
        assert r.margin == pytest.approx(-0.75)


class TestCharacteristicsCriterion:
    def test_small_cosine(self):
        r = characteristics_criterion(two_mode_quantities(0.05, 0.0), 1.0)
        assert not r.satisfied
        assert r.margin == pytest.approx(-0.1492613786, abs=1e-8)
        assert r.epsilon == pytest.approx(0.0872999190, rel=1e-6)
        assert r.time_bound is None

    def test_large_cosine(self):
        r = characteristics_criterion(two_mode_quantities(5.0, 0.0), 1.0)
        assert r.satisfied
        assert r.margin == pytest.approx(28.561899, rel=1e-6)
        assert r.time_bound == pytest.approx(0.72869293, rel=1e-6)

    def test_zero_data(self):
        r = characteristics_criterion(two_mode_quantities(0.0, 0.0), 1.0)
        assert not r.satisfied and r.margin == -math.inf

    def test_subnormal_data_is_degenerate(self):
        # l2 underflows to 0 and gamma*sup|u0| to 0, so the bound term
        # vanishes and only -min u0' = 9.4e-323 would be left as a margin
        d = two_mode_quantities(5e-324, 5e-324)
        assert d.l2 == 0.0 and 0.25 * d.sup_abs == 0.0
        r = characteristics_criterion(d, 0.25)
        assert not r.satisfied and r.margin == -math.inf
        assert r.time_bound is None

    @settings(max_examples=40)
    @given(st.floats(0.0, 5.0), st.floats(0.0, 5.0),
           st.floats(0.25, 4.0))
    def test_satisfied_iff_positive_margin(self, a, b, gamma):
        d = two_mode_quantities(a, b)
        for rep in all_reports(d, gamma).values():
            assert rep.satisfied == (rep.margin > 0.0)
            assert (rep.time_bound is not None) <= rep.satisfied
        charac = characteristics_criterion(d, gamma)
        if charac.satisfied:
            beta = (d.sup_abs, gamma * d.l2, 0.0)
            assert bound_time_residual(beta, gamma, charac) <= 1e-12
        data = TestLineCriterion.gaussian_slope(a + b)
        line = line_criterion(data, gamma)
        assert line.satisfied == (line.margin > 0.0)
        if line.satisfied:
            beta = line_beta(data, gamma)[1]
            assert bound_time_residual(beta, gamma, line) <= 1e-12

    def test_all_reports_hunter_guard(self):
        reps = all_reports(two_mode_quantities(1.0, 1.0), 2.0)
        assert not reps["hunter"].satisfied
        assert reps["hunter"].margin == -math.inf


class TestSearchMaximum:
    @pytest.mark.parametrize("a, b, gamma", [
        (0.05, 0.0, 1.0), (5.0, 0.0, 1.0), (0.1, 0.1, 1.0), (1.0, 2.0, 0.5),
        (0.3, 0.01, 3.0)])
    def test_two_mode_beats_the_eps_grid(self, a, b, gamma):
        d = two_mode_quantities(a, b)
        r = characteristics_criterion(d, gamma)
        assert r.margin >= dense_two_mode_max(d, gamma) - 1e-14 * abs(r.margin)

    def test_line_beats_the_eps_grid(self):
        data = TestLineCriterion.gaussian_slope(1.0)
        r = line_criterion(data, 1.0)
        min_slope, beta = line_beta(data, 1.0)
        assert r.margin >= (dense_line_max(min_slope, beta, 1.0)
                            - 1e-14 * abs(r.margin))

    @staticmethod
    def searched(run):
        """run()'s report and the roots that its searches' brackets gave,
        None for a bracket that held no sign change."""
        roots, inner = [], criteria._bracketed_root
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(criteria, "_bracketed_root", lambda *args: roots
                       .append(inner(*args)) or roots[-1])
            return run(), roots

    @settings(max_examples=15)
    @given(st.floats(0.0, 2.0), st.floats(0.0, 2.0), st.floats(0.1, 10.0))
    def test_two_mode_maximum_is_the_root(self, a, b, gamma):
        # the margin at the root of its derivative is at least the maximum
        # over the dense eps grid, (T1, eps) solves the defining equation,
        # and no bracket falls back to its grid point
        if a + b == 0.0:
            return
        d = two_mode_quantities(a, b)
        r, roots = self.searched(lambda: characteristics_criterion(d, gamma))
        assert r.margin >= (dense_two_mode_max(d, gamma)
                            - 1e-14 * abs(d.min_slope))
        if r.satisfied:
            beta = (d.sup_abs, gamma * d.l2, 0.0)
            assert bound_time_residual(beta, gamma, r) <= 1e-12
        assert None not in roots

    @settings(max_examples=8)
    @given(st.floats(-1.0, 2.0), st.floats(0.1, 10.0))
    def test_line_maximum_is_the_root(self, log_amplitude, gamma):
        # as above, with beta quadratic in T
        data = TestLineCriterion.gaussian_slope(10.0 ** log_amplitude)
        r, roots = self.searched(lambda: line_criterion(data, gamma))
        min_slope, beta = line_beta(data, gamma)
        assert r.margin >= (dense_line_max(min_slope, beta, gamma)
                            - 1e-14 * abs(min_slope))
        if r.satisfied:
            assert bound_time_residual(beta, gamma, r) <= 1e-12
        assert None not in roots

    def test_one_grid_pass(self, monkeypatch):
        # one vectorised pass of the margin over the log-T grid, then only
        # scalar evaluations of the margin's derivative: at most the root
        # finder's cap, its two bracket ends and the reported point
        grid_passes, scalar = [], []
        np_expm1, math_expm1 = np.expm1, math.expm1
        monkeypatch.setattr(np, "expm1", lambda z: grid_passes.append(
            np.size(z)) or np_expm1(z))
        monkeypatch.setattr(math, "expm1", lambda z: scalar.append(z)
                            or math_expm1(z))
        d = two_mode_quantities(0.1, 0.1)
        r = characteristics_criterion(d, 1.0)
        monkeypatch.undo()
        assert r.satisfied
        assert grid_passes == [criteria._GRID]
        assert 3 <= len(scalar) <= criteria._ROOT_CAP + 3

    @pytest.mark.parametrize("a, b, margin", [
        (0.025, 0.025, 0.053857527243166281),
        (0.1, 0.1, 1.1806390081538263),
        (0.175, 0.175, 2.423001786772224)])
    def test_benchmark_region_margins(self, a, b, margin):
        # margin_charac of these points in bench/region_seed0.csv
        r = characteristics_criterion(two_mode_quantities(a, b), 1.0)
        assert r.margin == pytest.approx(margin, rel=1e-10)


class TestTranslationInvariance:
    def test_reports_match_closed_forms(self):
        a, b, shift = 0.05, 0.02, 0.3

        def shifted(x):
            return (a * np.cos(TWO_PI * (x + shift))
                    + b * np.sin(2 * TWO_PI * (x + shift)))

        ref = all_reports(two_mode_quantities(a, b), 1.0)
        got = all_reports(sampled_data(shifted), 1.0)
        for name in ref:
            assert got[name].satisfied == ref[name].satisfied
            assert got[name].margin == pytest.approx(ref[name].margin,
                                                     rel=1e-6, abs=1e-8)


class TestFrequencyScaling:
    def test_cosine_breaks_at_low_multiple(self):
        base = lambda x: np.cos(TWO_PI * x)
        hits = [k for k in range(1, 65)
                if characteristics_criterion(
                    frequency_scaled(base, k, n=1024), 1.0).satisfied]
        assert hits and hits[0] <= 64

    def test_margin_grows_with_frequency(self):
        base = lambda x: np.cos(TWO_PI * x)
        margins = [characteristics_criterion(
            frequency_scaled(base, k, n=1024), 1.0).margin
            for k in (1, 4, 16)]
        assert margins[0] < margins[1] < margins[2]


class TestLineCriterion:
    @staticmethod
    def gaussian_slope(lam):
        return LineData.from_function(
            lambda x, l=lam: l * (-2.0 * x) * np.exp(-x * x))

    def test_gaussian_derivative_satisfied(self):
        r = line_criterion(self.gaussian_slope(1.0), 1.0)
        assert r.satisfied
        assert r.margin == pytest.approx(0.3453159457, rel=1e-6)

    def test_margin_grows_with_amplitude(self):
        margins = [line_criterion(self.gaussian_slope(lam), 1.0).margin
                   for lam in (1.0, 10.0, 100.0)]
        assert margins[0] < margins[1] < margins[2]
        assert margins[2] == pytest.approx(185.8259244559, rel=1e-6)

    def test_heavy_tail_rejected(self):
        data = LineData.from_function(lambda x: -2.0 * x / (1.0 + x * x))
        with pytest.raises(ValueError, match="boundary tail"):
            line_criterion(data, 1.0)

    def test_nonzero_mass_rejected(self):
        data = LineData.from_function(lambda x: np.exp(-x * x))
        with pytest.raises(ValueError, match="line data carries mass"):
            line_criterion(data, 1.0)

    def test_zero_data(self):
        r = line_criterion(LineData(values=np.zeros(1024), span=40.0), 1.0)
        assert not r.satisfied and r.margin == -math.inf
