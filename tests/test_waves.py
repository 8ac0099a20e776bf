import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ohlab.errors import NoConvergence
from ohlab.waves import (CORNER_COEFFICIENT, CREST_SPEED_RATIO,
                         _checked_solve, _cold_solve, _expansion_modes,
                         _NormalizedSolver, _grid, continuation_branch,
                         corner_wave, ode_residual, solve_periodic_wave,
                         write_branch_csv, write_profile_csv)

PI = math.pi


def even_defect(phi):
    """Max deviation from even symmetry about x = 0 (sample 0 sits at -pi
    and has no mirror on the half-open grid)."""
    return float(np.max(np.abs(phi[1:] - phi[1:][::-1])))


class TestCornerWave:
    def test_closed_form_values(self):
        w = corner_wave(gamma=2.0, n=512)
        assert w.c == pytest.approx(2.0 * PI ** 2 / 9.0, rel=1e-15)
        # crest value pi^2 gamma / 9 at x = -pi, trough -pi^2 gamma / 18 at 0
        assert w.phi[0] == pytest.approx(2.0 * PI ** 2 / 9.0, rel=1e-14)
        assert w.phi.min() == pytest.approx(-2.0 * PI ** 2 / 18.0, rel=1e-14)
        assert w.amplitude == pytest.approx(2.0 * PI ** 2 / 6.0, rel=1e-14)
        assert CORNER_COEFFICIENT == pytest.approx(1.0 / 18.0)

    def test_interior_residual(self):
        w = corner_wave(gamma=1.0, n=1024)
        assert ode_residual(w, scheme="fd", exclude_crest=2) < 1e-8

    def test_one_sided_crest_slopes(self):
        gamma, n = 1.5, 2048
        w = corner_wave(gamma=gamma, n=n)
        h = 2.0 * PI / n
        right = (w.phi[1] - w.phi[0]) / h
        left = (w.phi[0] - w.phi[-1]) / h
        assert right == pytest.approx(-gamma * PI / 3.0, abs=2 * gamma * h)
        assert left == pytest.approx(gamma * PI / 3.0, abs=2 * gamma * h)

    def test_even_symmetry(self):
        w = corner_wave(gamma=1.0, n=256)
        assert even_defect(w.phi) < 1e-13

    def test_bad_gamma(self):
        with pytest.raises(ValueError):
            corner_wave(gamma=0.0)
        # nan used to give a profile of nan
        with pytest.raises(ValueError, match="gamma must be positive"):
            corner_wave(gamma=float("nan"))


class TestOdeResidual:
    def test_unknown_scheme(self):
        with pytest.raises(ValueError):
            ode_residual(corner_wave(1.0), scheme="upwind")

    @pytest.mark.parametrize("n", [6, 8])
    def test_crest_exclusion_leaves_no_point(self, n):
        # used to fail in numpy's max of an empty array
        with pytest.raises(ValueError, match="leaves no point"):
            ode_residual(corner_wave(1.0, n=n), scheme="fd", exclude_crest=4)

    def test_expansion_residual_quadratic_in_gap(self):
        # the third-order expansion misses the equation at O((s-1)^2),
        # so halving s-1 should quarter the residual
        def r(delta, n=256):
            solver = _NormalizedSolver(n)
            return ode_residual(solver.profile(
                _expansion_modes(1.0 + delta, n), 1.0 + delta, 1.0))

        assert 3.5 < r(4e-3) / r(2e-3) < 4.6


class TestNewtonSolve:
    def test_converges_quickly_at_1_05(self, monkeypatch):
        # one Jacobian per Newton step
        solver, steps = _NormalizedSolver(256), []
        jacobian = solver.jacobian
        monkeypatch.setattr(solver, "jacobian",
                            lambda a, s: steps.append(s) or jacobian(a, s))
        a, pointwise = solver.solve(_expansion_modes(1.05, 256), 1.05)
        assert 0 < len(steps) <= 10
        assert pointwise < 1e-10

    def test_profile_residual_and_gauge(self):
        w = solve_periodic_wave(1.05, 1.0, n=256)
        assert ode_residual(w) < 1e-10
        assert int(np.argmax(w.phi)) == 0          # crest at x = -pi
        assert abs(np.mean(w.phi)) < 1e-12
        assert even_defect(w.phi) < 1e-12

    def test_gamma_scaling(self):
        w1 = solve_periodic_wave(1.05, 1.0, n=256)
        w2 = solve_periodic_wave(2.10, 2.0, n=256)
        assert np.max(np.abs(w2.phi - 2.0 * w1.phi)) < 1e-10

    def test_small_amplitude_matches_linear_theory(self):
        # fundamental cosine coefficient within 5% of the linearized -eps
        w = solve_periodic_wave(1.01, 1.0, n=256)
        eps = math.sqrt(6.0 * 0.01)
        a1 = 2.0 * np.mean(w.phi * np.cos(w.x))
        assert abs(a1 - (-eps)) < 0.05 * eps

    def test_out_of_range_speed(self):
        with pytest.raises(ValueError):
            solve_periodic_wave(1.0, 1.0)
        with pytest.raises(ValueError):
            solve_periodic_wave(CREST_SPEED_RATIO, 1.0)
        for c in (math.nan, math.inf):
            with pytest.raises(ValueError):
                solve_periodic_wave(c, 1.0)

    def test_collapse_to_zero_rejected(self):
        # psi = 0 solves the equation at every speed: Newton stops there at
        # once, and the amplitude check turns that into a failure
        solver = _NormalizedSolver(256)
        with pytest.raises(NoConvergence, match="collapsed onto the zero"):
            _checked_solve(solver, np.zeros(len(solver.k)), 1.05)

    def test_cold_start_near_limit_falls_back(self):
        # far from small amplitude the expansion start fails; continuation
        # from small s must still land on the wave that a branch reaches.
        # 1.6e-3 below the corner speed n = 512 leaves a spectral tail of
        # 1.5e-4 in the pointwise residual, so the profiles are compared
        solver = _NormalizedSolver(512)
        with pytest.raises(NoConvergence):
            _checked_solve(solver, _expansion_modes(1.095, 512), 1.095)
        w = solve_periodic_wave(1.095, 1.0, n=512)
        lin_amp = 2.0 * math.sqrt(6.0 * 0.095)
        assert w.amplitude > lin_amp
        ref = continuation_branch(1.0, [1.01, 1.05, 1.09, 1.095], n=512)[-1]
        assert np.max(np.abs(w.phi - ref.phi)) < 1e-12

    @staticmethod
    def newton_steps(monkeypatch, n, s):
        """The Newton steps (Jacobians) of a solve from the expansion at s,
        and whether it converged."""
        solver, steps = _NormalizedSolver(n), []
        jacobian = solver.jacobian
        monkeypatch.setattr(solver, "jacobian",
                            lambda a, s: steps.append(s) or jacobian(a, s))
        try:
            solver.solve(_expansion_modes(s, n), s)
        except NoConvergence:
            return len(steps), False
        return len(steps), True

    def test_stalled_solve_gives_up_early(self, monkeypatch):
        # from the expansion at (1.095, 512) the residual falls 0.668 ->
        # 0.568 -> 0.562 and then by under 0.2% a step; the solve used to
        # run all 50 steps before the fallback took over
        steps, converged = self.newton_steps(monkeypatch, 512, 1.095)
        assert not converged
        assert steps == 6

    def test_slow_solve_still_converges(self, monkeypatch):
        # from the expansion at (1.093, 512) the residual falls by under
        # 3.5% a step for about 20 steps before Newton's quadratic phase,
        # but by 2.2% or more over any 4 of them: not a stall
        assert self.newton_steps(monkeypatch, 512, 1.093) == (26, True)

    def test_branch_starts_like_a_single_solve(self):
        # the branch's first ratio used to skip the fallback and raise
        # NoConvergence where the single solve converged
        w = continuation_branch(1.0, [1.095], n=512)[0]
        assert np.array_equal(w.phi, solve_periodic_wave(1.095, 1.0,
                                                         n=512).phi)

    @settings(max_examples=25)
    @given(st.floats(1.005, 1.08))
    def test_residual_property(self, s):
        w = solve_periodic_wave(s, 1.0, n=512)
        assert ode_residual(w) < 1e-10
        assert abs(np.mean(w.phi)) < 1e-12
        assert even_defect(w.phi) < 1e-12


class TestBadInputs:
    @pytest.mark.parametrize("ratios", [
        [], [1.05, 1.2], [0.9, 1.05], [1.05, math.nan], [1.05, math.inf],
        [1.0, 1.05], [1.05, CREST_SPEED_RATIO]],
        ids=["empty", "above", "below", "nan", "inf", "one", "crest"])
    def test_branch_ratios_rejected_up_front(self, ratios):
        with pytest.raises(ValueError):
            continuation_branch(1.0, ratios, n=128)

    @pytest.mark.parametrize("n", [0, 2, 3])
    def test_grid_without_a_retained_mode(self, n):
        with pytest.raises(ValueError, match="need n >= 4"):
            solve_periodic_wave(1.05, 1.0, n=n)
        with pytest.raises(ValueError, match="need n >= 4"):
            continuation_branch(1.0, [1.01, 1.02], n=n)


    @pytest.mark.parametrize("n", [4, 5, 7, 9])
    def test_grid_that_holds_no_wave(self, n):
        # n = 4 and 5 collapsed onto the zero solution, an odd n failed in
        # numpy's broadcast
        with pytest.raises(ValueError, match="need an even n >= 6"):
            solve_periodic_wave(1.05, 1.0, n=n)
        with pytest.raises(ValueError, match="need an even n >= 6"):
            continuation_branch(1.0, [1.01, 1.02], n=n)

    def test_smallest_grid_solves(self):
        w = solve_periodic_wave(1.05, 1.0, n=6)
        assert w.phi.shape == (6,) and w.amplitude > 0


class TestExpansionStart:
    def test_modes_are_the_series_coefficients(self):
        # in the solver's basis the (-1)^k signs and the grid from -pi
        # cancel: the modes are the series' own, crest at -pi; n = 6 keeps
        # K = 2 modes and drops cos 3x
        s = 1.05
        eps = math.sqrt(6.0 * (s - 1.0))
        assert np.array_equal(_expansion_modes(s, 6), [-eps, eps ** 2 / 3])
        for n in (8, 128, 512):
            x = _grid(n)
            series = (-eps * np.cos(x) + eps ** 2 / 3.0 * np.cos(2 * x)
                      - 3.0 / 16.0 * eps ** 3 * np.cos(3 * x))
            w = _NormalizedSolver(n).profile(_expansion_modes(s, n), s, 1.0)
            assert np.max(np.abs(w.phi - series)) < 1e-15
            assert int(np.argmax(w.phi)) == 0


def dense_jacobian(solver, a, s):
    """The Galerkin Jacobian by quadrature on the doubled grid, with K x 2n
    tables of cos kx and sin kx."""
    k, m = solver.k, 2 * solver.n
    kx = np.outer(k, _grid(m))
    cos_kx, sin_kx = np.cos(kx), np.sin(kx)
    psi = a @ cos_kx
    dpsi = -(a * k) @ sin_kx
    d2psi = -(a * k ** 2) @ cos_kx
    cols = ((s - psi) * (-(k ** 2)[:, None] * cos_kx)
            + (1.0 - d2psi) * cos_kx
            + 2.0 * dpsi * (k[:, None] * sin_kx))
    return (cos_kx * (2.0 / m)) @ cols.T


@pytest.fixture(scope="module", params=[
    (n, s, start) for n in (64, 512) for s in (1.02, 1.09)
    for start in ("converged", "perturbation")],
    ids=lambda p: f"n{p[0]}-s{p[1]}-{p[2]}")
def jacobian_case(request):
    n, s, start = request.param
    solver = _NormalizedSolver(n)
    a = (_cold_solve(solver, s) if start == "converged"
         else _expansion_modes(s, n))
    return solver, a, s


class TestJacobian:
    def test_matches_dense_quadrature(self, jacobian_case):
        solver, a, s = jacobian_case
        dense = dense_jacobian(solver, a, s)
        err = np.max(np.abs(solver.jacobian(a, s) - dense))
        assert err <= 1e-12 * np.max(np.abs(dense))

    def test_matches_central_differences(self, jacobian_case):
        # the residual is quadratic in a, so central differences carry no
        # truncation error: what is left is the round-off of the residual's
        # largest terms, eps * scale, amplified by 1/h.  h * K^2 stays small
        # next to the scale, so the perturbed terms are no larger.
        solver, a, s = jacobian_case
        h = 1e-6
        cols = []
        for e in np.eye(len(a)) * h:
            cols.append(solver.residual(a + e, s)[0]
                        - solver.residual(a - e, s)[0])
        fd = np.array(cols).T / (2.0 * h)
        psi, dpsi, d2psi = solver._fields(a)
        scale = (np.max(np.abs(s - psi)) * np.max(np.abs(d2psi))
                 + np.max(dpsi ** 2) + np.max(np.abs(psi)))
        tol = np.finfo(float).eps / h * scale
        assert np.max(np.abs(solver.jacobian(a, s) - fd)) <= tol


@pytest.fixture(scope="class")
def branch():
    head = list(np.linspace(1.005, 1.08, 8))
    tail = list(CREST_SPEED_RATIO - np.geomspace(0.015, 2e-3, 6))
    return continuation_branch(1.0, head + tail, n=512)


class TestContinuationBranch:
    def test_amplitude_monotone(self, branch):
        amps = [w.amplitude for w in branch]
        assert all(lo < hi for lo, hi in zip(amps, amps[1:]))

    def test_approaches_corner_height(self, branch):
        # 2e-3 away from the limiting speed the crest height reaches 95%
        # of the corner wave's pi^2/9
        assert branch[-1].phi.max() >= 0.95 * PI ** 2 / 9.0

    def test_stays_below_corner_height(self, branch):
        assert all(w.phi.max() < PI ** 2 / 9.0 for w in branch)

    def test_branch_csv(self, branch, tmp_path):
        p = tmp_path / "branch.csv"
        write_branch_csv(branch, p)
        data = np.genfromtxt(p, delimiter=",", names=True)
        assert data.dtype.names == ("c_over_gamma", "amplitude", "residual")
        assert len(data) == len(branch)
        assert np.all(np.diff(data["amplitude"]) > 0)


class TestProfileCsv:
    def test_roundtrip(self, tmp_path):
        w = corner_wave(1.0, n=128)
        p = tmp_path / "wave.csv"
        write_profile_csv(w, p)
        data = np.genfromtxt(p, delimiter=",", names=True)
        assert np.allclose(data["phi"], w.phi)
