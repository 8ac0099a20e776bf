import math
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ohlab import waves
from ohlab.cli import COMMAND_KEYS, read_config
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

    def test_cold_start_near_limit_matches_the_branch(self):
        # far from small amplitude the expansion start stalls on n = 512
        # alone (test_stalled_solve_gives_up_early); on the ladder it lands
        # on the wave that a branch reaches.  1.6e-3 below the corner speed
        # n = 512 leaves a spectral tail of 1.5e-4 in the pointwise
        # residual, so the profiles are compared
        ref = continuation_branch(1.0, [1.01, 1.05, 1.09, 1.095], n=512)[-1]
        w = solve_periodic_wave(1.095, 1.0, n=512)
        lin_amp = 2.0 * math.sqrt(6.0 * 0.095)
        assert w.amplitude > lin_amp
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
        # run all 50 steps
        steps, converged = self.newton_steps(monkeypatch, 512, 1.095)
        assert not converged
        assert steps == 6

    def test_slow_solve_still_converges(self, monkeypatch):
        # from the expansion at (1.093, 512) the residual falls by under
        # 3.5% a step for about 20 steps before Newton's quadratic phase,
        # but by 2.2% or more over any 4 of them: not a stall.  What it
        # converges onto is the spurious wave with its crest above s that
        # `_checked_solve` rejects (test_crest_above_the_speed_rejected) and
        # that the ladder does not reach
        assert self.newton_steps(monkeypatch, 512, 1.093) == (26, True)

    @pytest.mark.parametrize("s, n", [(1.093, 512), (1.093, 256),
                                      (1.096, 256)])
    def test_crest_above_the_speed_rejected(self, s, n, monkeypatch):
        # Newton from the expansion on n alone stops on a Galerkin solution
        # with its crest above s, where (s - psi) psi'' is singular:
        # amplitude 1.8129 at (1.093, 512) against 1.57073 at n = 1024,
        # pointwise residual 747.  The check rejects it; the ladder reaches
        # the wave from the same start
        solver = _NormalizedSolver(n)
        a, _ = solver.solve(_expansion_modes(s, n), s)
        assert solver._fields(a)[0].max() >= s
        with monkeypatch.context() as one_grid:
            one_grid.setattr(waves, "_coarse_start", lambda n, a, s: a)
            with pytest.raises(NoConvergence, match="crest at or above"):
                _checked_solve(solver, _expansion_modes(s, n), s)
        w = solve_periodic_wave(s, 1.0, n=n)
        ref = solve_periodic_wave(s, 1.0, n=1024)
        assert w.phi.max() < s
        assert abs(w.amplitude - ref.amplitude) < 1e-3 * ref.amplitude

    def test_branch_starts_like_a_single_solve(self):
        # the branch's first ratio once raised NoConvergence where the
        # single solve converged; both now run `_cold_solve`
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

    @settings(max_examples=20)
    @given(st.floats(1.0001, CREST_SPEED_RATIO - 1e-7),
           st.sampled_from([6, 64, 256, 512]))
    def test_expansion_start_reaches_every_ratio(self, s, n):
        # nothing retries a failed cold solve, so the expansion on the
        # ladder must reach the wave over the whole range.  Over 306 ratios
        # on each of these grids the amplitude was at least 1.00001 times
        # the linear 2 eps (least near s = 1) and the crest at least 3.6e-3
        # below s (least near the corner, on 512 points)
        w = solve_periodic_wave(s, 1.0, n=n)
        assert w.phi.max() < s
        assert w.amplitude > 2.0 * math.sqrt(6.0 * (s - 1.0))

    def test_failed_solve_is_not_retried(self, monkeypatch):
        # every solve with n > 64 starts on the 64 grid.  A failure there
        # used to hand the start on to n, which converged; now it is the
        # answer, for a single solve and a branch's first ratio alike
        calls, solve = [], _NormalizedSolver.solve

        def fails_on_64(self, a, s):
            calls.append(self.n)
            if self.n == 64:
                raise NoConvergence("no convergence on the 64 grid")
            return solve(self, a, s)

        monkeypatch.setattr(_NormalizedSolver, "solve", fails_on_64)
        for run in (lambda: solve_periodic_wave(1.05, 1.0, n=512),
                    lambda: continuation_branch(1.0, [1.01, 1.05], n=512)):
            calls.clear()
            with pytest.raises(NoConvergence, match="the 64 grid"):
                run()
            assert calls == [64]


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
    (n, s, start) for n in (64, 512) for s in (1.02, 1.09, 1.0946)
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


def window_jacobian(solver, a, s):
    """The Jacobian assembled from numpy's sliding windows over the a_|p|,
    scaled into a new array: the assembly that the strided view replaced."""
    kmax, k2 = len(a), solver.k * solver.k
    w = np.lib.stride_tricks.sliding_window_view(
        np.concatenate((a[::-1], [0.0], a, np.zeros(kmax))), kmax)
    jac = (0.5 * k2)[:, None] * (w[kmax:0:-1] + w[kmax + 2:])
    jac[np.diag_indices(kmax)] += 1.0 - s * k2
    return jac


def stacked_fields(solver, a):
    """psi, psi', psi'' from the spectrum with its zero mode stacked on."""
    spec = solver.synth * a
    return np.fft.irfft(np.hstack((np.zeros((3, 1)), spec)), 2 * solver.n)


class TestKernelsMatchTheirReferences:
    S = 1.09

    @pytest.mark.parametrize("n", [6, 64, 512])
    @pytest.mark.parametrize("start", ["branch", "random"])
    def test_bitwise_equal(self, n, start):
        solver = _NormalizedSolver(n)
        a = (_cold_solve(solver, self.S) if start == "branch" else
             np.random.default_rng(n).standard_normal(len(solver.k)))
        jac, fields = solver.jacobian(a, self.S), solver._fields(a)
        assert jac.flags.writeable and jac.flags.c_contiguous
        assert jac.tobytes() == window_jacobian(solver, a, self.S).tobytes()
        assert fields.tobytes() == stacked_fields(solver, a).tobytes()

    def test_reused_solver_matches_fresh_ones(self):
        # a solver keeps no state between solves, and a later solve does
        # not write into what an earlier one returned
        reused = _NormalizedSolver(512)
        starts = [(_expansion_modes(s, 512), s) for s in (1.03, 1.06)]
        first = reused.solve(*starts[0])
        kept = first[0].copy()
        second = reused.solve(*starts[1])
        for got, (a, s) in zip((first, second), starts):
            fresh = _NormalizedSolver(512).solve(a, s)
            assert got[0].tobytes() == fresh[0].tobytes()
            assert got[1] == fresh[1]
        assert first[0].tobytes() == kept.tobytes()

    def test_shared_solvers_give_the_same_branch(self):
        # every grid's solver is built once; a branch run on solvers that
        # earlier runs used equals one run on new ones
        ratios = [1.01, 1.05, 1.09]
        waves._solver.cache_clear()
        fresh = continuation_branch(1.0, ratios, n=512)
        solvers = {m: waves._solver(m) for m in (64, 128, 256, 512)}
        again = continuation_branch(1.0, ratios, n=512)
        assert all(waves._solver(m) is solver
                   for m, solver in solvers.items())
        for w, ref in zip(again, fresh):
            assert w.phi.tobytes() == ref.phi.tobytes()


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


class TestSecantPredictor:
    RATIOS = [float(s) for s in read_config(
        Path(__file__).resolve().parents[1] / "configs" / "wave_branch.cfg",
        COMMAND_KEYS["wave"])["branch_ratios"].split(",")]

    @staticmethod
    def jacobians(monkeypatch, run):
        """The Jacobians that run() assembles, counted by (ratio, grid)."""
        steps, jacobian = Counter(), _NormalizedSolver.jacobian
        with monkeypatch.context() as counted:
            counted.setattr(_NormalizedSolver, "jacobian", lambda self, a, s:
                            steps.update([(s, self.n)]) or jacobian(self, a, s))
            run()
        return steps

    def test_few_newton_steps_per_ratio(self, monkeypatch):
        # one Jacobian per Newton step, counted by ratio and grid.  On the
        # 512 grid alone, from the previous solution the ratios took [3, 8,
        # 6, 5, 5, 5, 6, 6, 6] steps and from the secant in eps [3, 3, 3, 3,
        # 3, 3, 3, 3, 4].  The ladder takes the secant's 3 steps on 64 (1.01
        # to 1.03), 128 (1.04 to 1.06) or 256 (1.07, 1.08) and one more on
        # the next grid at 1.03, 1.06 and 1.08, so [0, 0, 0, 0, 0, 0, 0, 1,
        # 4] on 512 and at most 4 in all; nothing bisects
        steps = self.jacobians(monkeypatch, lambda: continuation_branch(
            1.0, self.RATIOS, n=512))
        assert {s for s, _ in steps} == set(self.RATIOS)
        for s in self.RATIOS:
            assert steps[s, 512] <= (1 if s <= 1.08 else 4)
            assert sum(c for (r, _), c in steps.items() if r == s) <= 4

    @pytest.mark.parametrize("n", [6, 32, 64])
    def test_grid_at_or_below_the_base_takes_todays_steps(self, monkeypatch,
                                                          n):
        # with n at or below the ladder's smallest grid every step is on n,
        # and the steps are those of the solve on n alone
        def run():
            continuation_branch(1.0, self.RATIOS, n=n)
            solve_periodic_wave(1.095, 1.0, n=n)

        ladder = self.jacobians(monkeypatch, run)
        monkeypatch.setattr(waves, "_coarse_start", lambda n, a, s: a)
        one_grid = self.jacobians(monkeypatch, run)
        assert {m for _, m in ladder} == {n}
        assert ladder == one_grid

    @pytest.mark.parametrize("config", ["wave_branch.cfg",
                                        "wave_family.cfg"])
    def test_branch_matches_one_grid_newton(self, monkeypatch, config):
        # the ladder changes where Newton starts on n, not what it converges
        # to: each profile is that of the branch solved on n alone
        ratios = [float(s) for s in read_config(
            Path(__file__).resolve().parents[1] / "configs" / config,
            COMMAND_KEYS["wave"])["branch_ratios"].split(",")]
        ladder = continuation_branch(1.0, ratios, n=512)
        monkeypatch.setattr(waves, "_coarse_start", lambda n, a, s: a)
        for w, ref in zip(ladder, continuation_branch(1.0, ratios, n=512)):
            assert np.max(np.abs(w.phi - ref.phi)) <= 1e-12

    def test_branch_matches_cold_solves(self):
        branch = continuation_branch(1.0, self.RATIOS, n=512)
        for s, w in zip(self.RATIOS, branch):
            cold = solve_periodic_wave(s, 1.0, n=512)
            assert np.max(np.abs(w.phi - cold.phi)) < 1e-12

    def test_long_step_back_is_bisected(self, monkeypatch):
        # the secant in eps through 1.09 and 1.06 overshoots at 1.005 and
        # Newton collapses onto psi = 0; `_continue_to` bisects the step at
        # 1.0325 and both halves converge.  No input reaches any other
        # retry of a failed solve (test_package, test_one_retry_in_waves)
        ratios = [1.09, 1.06, 1.005]
        solver = _NormalizedSolver(512)
        a = [_cold_solve(solver, s) for s in ratios[:2]]
        with pytest.raises(NoConvergence, match="collapsed onto the zero"):
            _checked_solve(solver, waves._predict(
                (ratios[0], a[0]), (ratios[1], a[1]), ratios[2]), ratios[2])
        targets, continue_to = [], waves._continue_to
        monkeypatch.setattr(waves, "_continue_to", lambda *args: targets
                            .append(args[3]) or continue_to(*args))
        branch = continuation_branch(1.0, ratios, n=512)
        assert targets == [1.06, 1.005, 0.5 * (1.06 + 1.005), 1.005]
        for s, w in zip(ratios, branch):
            cold = solve_periodic_wave(s, 1.0, n=512)
            assert np.max(np.abs(w.phi - cold.phi)) < 1e-12

    @pytest.mark.parametrize("n", [64, 256, 512])
    def test_overshoot_through_zero_keeps_the_gauge(self, n):
        # the secant in eps through 1.08 and 1.06 overshoots at 1.004 past
        # a = 0 to about -a, and Newton lands on the wave translated by pi
        # (a_1 > 0), 0.31 from the cold solve in max norm
        w = continuation_branch(1.0, [1.08, 1.06, 1.004], n=n)[-1]
        cold = solve_periodic_wave(1.004, 1.0, n=n)
        assert np.max(np.abs(w.phi - cold.phi)) < 1e-12

    @pytest.mark.parametrize("ratios", [[1.05, 1.05, 1.05, 1.06],
                                        [1.09, 1.06, 1.03, 1.01]],
                             ids=["repeated", "decreasing"])
    def test_repeated_and_decreasing_ratios(self, ratios):
        # a repeated ratio is a zero denominator in the secant: it starts
        # from the previous solution
        for s, w in zip(ratios, continuation_branch(1.0, ratios, n=256)):
            cold = solve_periodic_wave(s, 1.0, n=256)
            assert np.all(np.isfinite(w.phi))
            assert np.max(np.abs(w.phi - cold.phi)) < 1e-12


class TestProfileCsv:
    def test_roundtrip(self, tmp_path):
        w = corner_wave(1.0, n=128)
        p = tmp_path / "wave.csv"
        write_profile_csv(w, p)
        data = np.genfromtxt(p, delimiter=",", names=True)
        assert np.allclose(data["phi"], w.phi)
