import dataclasses

import numpy as np
import pytest

from ohlab.characteristics import co_evolve
from ohlab.evolution import (_NU, _TURN, SimulationConfig, SimulationRecord,
                             SpectralWorkspace, Termination, estimate_blowup,
                             march, run_summary, simulate, write_timeseries)
from ohlab.fourier import (PeriodicField, PeriodicGrid, field_diagnostics,
                           padded_samples, resize_coefficients)
from ohlab.initial import sampled_data, two_mode_quantities
from ohlab.scan import ScanConfig, scan

TWO_PI = 2.0 * np.pi


class TestConfigValidation:
    def test_nonpositive_dt(self):
        with pytest.raises(ValueError):
            SimulationConfig(two_mode_quantities(0.1, 0.0), dt=0.0)

    @pytest.mark.parametrize("gamma", [0.0, -1.0, float("nan")])
    def test_nonpositive_gamma(self, gamma):
        # with gamma < 0 the a-priori bound goes negative, and slope_verdict
        # would call a healthy run that reaches stop_slope a failure
        with pytest.raises(ValueError, match="gamma must be positive"):
            SimulationConfig(two_mode_quantities(0.1, 0.0), gamma=gamma)

    def test_positive_stop_slope(self):
        with pytest.raises(ValueError):
            SimulationConfig(two_mode_quantities(0.1, 0.0), stop_slope=1.0)

    @pytest.mark.parametrize("key, value", [
        ("dt", float("nan")), ("dt", float("inf")),
        ("t_max", float("nan")), ("t_max", float("inf")),
        ("stop_slope", float("nan")),
    ])
    def test_non_finite_setting(self, key, value):
        # t_max = inf overflowed in the step count; stop_slope = nan stopped
        # every run at its first step as SlopeBlowup
        with pytest.raises(ValueError, match="must be"):
            SimulationConfig(two_mode_quantities(0.1, 0.0), **{key: value})

    def test_bad_stride(self):
        with pytest.raises(ValueError):
            SimulationConfig(two_mode_quantities(0.1, 0.0), stride=0)

    @pytest.mark.parametrize("t", [-1.0, 0.06, 7.0, float("nan")])
    def test_snapshot_time_outside_run(self, t):
        # these used to be stored under t (-1 held the t = 0 field) or
        # dropped without a word
        with pytest.raises(ValueError, match="outside"):
            SimulationConfig(two_mode_quantities(0.1, 0.0), dt=0.01,
                             t_max=0.05, snapshot_times=(0.02, t))

    def test_snapshot_time_off_the_dt_lattice(self):
        # the t = 0.23 field used to be stored under 0.234, bit for bit
        with pytest.raises(ValueError,
                           match="snapshot time 0.234 is not a multiple of "
                                 "dt = 0.01"):
            SimulationConfig(two_mode_quantities(0.05, 0), n=64, dt=1e-2,
                             t_max=0.5, snapshot_times=(0.234,))

    @pytest.mark.parametrize("t_max", [0.055, 0.004])
    def test_t_max_off_the_dt_lattice(self, t_max):
        # 0.055 used to run to t = 0.06, past t_max; 0.004 took no step and
        # ended Horizon with the t = 0 sample alone
        with pytest.raises(ValueError,
                           match=f"t_max = {t_max:g} is not a multiple of "
                                 "dt = 0.01"):
            SimulationConfig(two_mode_quantities(0.05, 0), n=64, dt=0.01,
                             t_max=t_max)

    def test_snapshot_times_at_the_ends(self):
        cfg = SimulationConfig(two_mode_quantities(0.1, 0.0), n=64, dt=0.01,
                               t_max=0.05, snapshot_times=(0.0, 0.05))
        assert set(simulate(cfg).snapshots) == {0.0, 0.05}


class TestLinearDispersion:
    @pytest.fixture(autouse=True)
    def linear_flow(self, monkeypatch):
        # the quadratic term off: x - 0 is exact, so rhs is the linear flow
        monkeypatch.setattr(SpectralWorkspace, "nonlinear_term",
                            lambda ws, u: np.zeros(ws.n // 2 + 1, complex))

    def test_single_mode_phase(self):
        # mode k rotates at rate gamma/(2 pi k); the k=1 cosine translates
        # with phase gamma*t/(2 pi)
        # one rotation period, 4 pi^2, on the dt lattice
        cfg = SimulationConfig(two_mode_quantities(1.0, 0.0), gamma=1.0,
                               n=64, dt=0.01, t_max=round(4.0 * np.pi ** 2, 2),
                               stride=100)
        rec = simulate(cfg)
        assert rec.terminated is Termination.Horizon
        t = rec.times[-1]
        x = rec.final_field.grid.x
        exact = np.cos(TWO_PI * x - t / TWO_PI)
        assert np.max(np.abs(rec.final_field.values - exact)) < 1e-6

    @pytest.mark.parametrize("a,gamma,dt,t_max", [(1e-4, 1.0, 0.01, 100.0),
                                                  (0.005, 100.0, 1e-4, 1.0)])
    def test_small_data_steps_keep_the_phase(self, a, gamma, dt, t_max):
        # small data: the turn of mode 1, not S, sizes the lengthened
        # steps and keeps RK4's rotation accurate; sized by S alone, the
        # first step would span ~5000 (resp. ~10000) counts of dt and mode
        # 1 would grow ~150-fold (resp. ~2500-fold) by t_max
        cfg = SimulationConfig(two_mode_quantities(a, 0.0), gamma=gamma,
                               n=64, dt=dt, t_max=t_max)
        rec = simulate(cfg)
        ((_, _, longest),) = rec.step_lengths
        assert dt < longest and gamma * longest / TWO_PI <= _TURN
        t = rec.times[-1]
        assert t == t_max
        x = rec.final_field.grid.x
        exact = a * np.cos(TWO_PI * x - gamma * t / TWO_PI)
        assert np.max(np.abs(rec.final_field.values - exact)) < 1e-6 * a

    def test_amplitude_preserved(self):
        cfg = SimulationConfig(two_mode_quantities(1.0, 0.0), n=64, dt=0.01,
                               t_max=5.0, stride=50)
        rec = simulate(cfg)
        # sup|u| is the quartic polish of 96 samples, 3.7e-10 from the
        # amplitude at n = 64 (the parabola on 256 samples gave 8.1e-9)
        assert np.max(np.abs(rec.sup_abs_u - 1.0)) < 1e-9


class TestStep:
    def test_one_step_matches_simulate(self):
        d = two_mode_quantities(0.05, 0.0)
        grid = PeriodicGrid(256)
        out = SpectralWorkspace(grid).rk4_step(d.sample(grid).coefficients,
                                               1e-3, 1.0)
        cfg = SimulationConfig(d, n=256, dt=1e-3, t_max=1e-3)
        rec = simulate(cfg)
        values = PeriodicField(grid, coefficients=out).values
        assert np.max(np.abs(values - rec.final_field.values)) < 1e-14

    def test_zero_mean_preserved(self):
        grid = PeriodicGrid(128)
        ws = SpectralWorkspace(grid)
        c = two_mode_quantities(0.3, 0.1).sample(grid).coefficients
        for _ in range(20):
            c = ws.rk4_step(c, 1e-2, 1.0)
        assert abs(c[0] / grid.n) < 1e-15


class TestNonlinearTerm:
    @staticmethod
    def random_coeffs(n, seed):
        """Every mode 1..n/2-1 filled: zero mean, zero Nyquist."""
        rng = np.random.default_rng(seed)
        c = np.zeros(n // 2 + 1, dtype=complex)
        c[1:-1] = rng.standard_normal(n // 2 - 1) \
            + 1j * rng.standard_normal(n // 2 - 1)
        return c * (n / 2)

    @pytest.mark.parametrize("n", [64, 256])
    def test_matches_projected_product(self, n):
        # P(u u_x) from u and u_x sampled on a 4n grid, where the product
        # (bandwidth n) is exact
        c = self.random_coeffs(n, seed=n)
        m = 4 * n
        ik = 1j * TWO_PI * np.arange(n // 2 + 1)
        u = np.fft.irfft(c * (m / n), n=m)
        ux = np.fft.irfft(c * ik * (m / n), n=m)
        ref = np.fft.rfft(u * ux)[: n // 2 + 1] * (n / m)
        ref[-1] = 0.0
        got = SpectralWorkspace(PeriodicGrid(n)).nonlinear_term(
            padded_samples(c, n))
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))

    @pytest.mark.parametrize("n", [64, 256])
    def test_rhs_conserves_q(self, n):
        # dQ/dt is the Parseval-weighted Re sum conj(c_k) rhs_k
        c = self.random_coeffs(n, seed=n + 1)
        rhs = SpectralWorkspace(PeriodicGrid(n)).rhs(c, 1.0,
                                                     padded_samples(c, n))
        w = np.full(n // 2 + 1, 2.0)
        w[0] = w[-1] = 1.0
        terms = w * np.conj(c) * rhs
        assert abs(np.sum(terms).real) <= 1e-13 * np.sum(np.abs(terms))


class TestMarchTendency:
    def test_tendency_is_rhs_of_the_yielded_state(self):
        # a = 0.5 climbs off the 256 rung by t = 0.25
        grid = PeriodicGrid(1024)
        c0 = two_mode_quantities(0.5, 0.0).sample(grid).coefficients
        rungs = set()
        for i, _, _, c, rung, tendency, *_ in march(grid, c0, 5e-4, 1.0,
                                                     500):
            assert np.array_equal(tendency, SpectralWorkspace(rung).rhs(
                c, 1.0, padded_samples(c, rung.n))), i
            rungs.add(rung.n)
        assert len(rungs) >= 2

    def test_handed_in_samples_give_the_same_diagnostics(self):
        # a sample reads u from the tendency's samples, bitwise the ones
        # field_diagnostics would take itself, on every rung
        grid = PeriodicGrid(1024)
        c0 = two_mode_quantities(0.5, 0.0).sample(grid).coefficients
        rungs = set()
        for i, _, _, c, rung, _, u, _ in march(grid, c0, 5e-4, 1.0, 500):
            assert np.array_equal(u, padded_samples(c, rung.n)), i
            assert (field_diagnostics(c, rung, 1.0, u)
                    == field_diagnostics(c, rung, 1.0)), i
            rungs.add(rung.n)
        assert len(rungs) >= 2

    def test_workspace_keeps_no_state_per_call(self):
        # the attributes of a workspace are its multipliers, built once: a
        # step binds no new name and rebinds none
        grid = PeriodicGrid(64)
        ws = SpectralWorkspace(grid)
        before = dict(vars(ws))
        c = two_mode_quantities(0.5, 0.0).sample(grid).coefficients
        ws.rk4_step(c, 1e-3, 1.0)
        ws.rk4_step(c, 1e-3, 1.0, ws.rhs(c, 1.0, padded_samples(c, 64)))
        after = vars(ws)
        assert after.keys() == before.keys()
        assert all(after[k] is v for k, v in before.items())

    def test_one_transform_per_sample(self, monkeypatch):
        # each step's four RK4 stages take one irfft each, the first of them
        # the tendency yielded before it, plus the tendency at t = 0; a
        # sample adds only the 4n irfft of u_x
        calls = []
        irfft = np.fft.irfft

        def counted(*args, **kwargs):
            calls.append(1)
            return irfft(*args, **kwargs)

        cfg = SimulationConfig(two_mode_quantities(0.3, 0.0), n=512,
                               dt=1e-3, t_max=0.5)
        monkeypatch.setattr(np.fft, "irfft", counted)
        rec = simulate(cfg)
        monkeypatch.undo()
        assert len(rec.grids) == 2 and len(rec.times) == rec.steps + 1
        assert len(calls) == 1 + 4 * rec.steps + len(rec.times)

    def test_given_k1_is_the_same_step(self):
        grid = PeriodicGrid(256)
        ws = SpectralWorkspace(grid)
        c = two_mode_quantities(0.1, 0.05).sample(grid).coefficients
        c[-1] = 0.0
        k1 = ws.rhs(c, 1.0, padded_samples(c, 256))
        assert np.array_equal(ws.rk4_step(c, 1e-2, 1.0, k1),
                              ws.rk4_step(c, 1e-2, 1.0))


def fixed_grid_run(cfg, lengths):
    """The reference: RK4 steps of the given lengths on the config grid
    alone, no ladder."""
    grid = PeriodicGrid(cfg.n)
    ws = SpectralWorkspace(grid)
    c = cfg.initial.sample(grid).coefficients.copy()
    c[-1] = 0.0
    for h in lengths:
        c = ws.rk4_step(c, h, cfg.gamma)
    return PeriodicField(grid, coefficients=c)


def step_lengths(cfg, on_rung=False):
    """simulate(cfg) and the length of each RK4 step it took, as (rung
    size, length) pairs if on_rung."""
    lengths = []
    rk4_step = SpectralWorkspace.rk4_step

    def recorded(ws, coeffs, dt, *args):
        lengths.append((ws.n, dt) if on_rung else dt)
        return rk4_step(ws, coeffs, dt, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(SpectralWorkspace, "rk4_step", recorded)
        return simulate(cfg), lengths


def wiener(coeffs, m):
    """S = (2/m) sum_k |c_k|, the bound on sup|u| that sizes a step."""
    return 2.0 * np.abs(coeffs).sum() / m


class TestGridLadder:
    @pytest.fixture(scope="class")
    def case1_to_2_8(self):
        cfg = SimulationConfig(two_mode_quantities(0.05, 0.0), n=2048,
                               dt=1e-3, t_max=2.8, stride=100,
                               snapshot_times=(2.0,))
        return simulate(cfg)

    def test_climbs_twice_and_matches_fixed_grid(self):
        # at gamma = 4 the turn of mode 1 holds a step to 2 pi _TURN/4 =
        # 12.3e-3, under the 24.8e-3 that S = 0.05 allows on the 256 rung:
        # on the 1024 points of the reference loop that is a CFL number of
        # ~2, inside RK4's 2*sqrt(2).  Sized by S, a step on rung m has up
        # to n/m * _NU there, and the 1024-point loop over the 256 rung's
        # steps at gamma = 1 is not stable
        cfg = SimulationConfig(two_mode_quantities(0.05, 0.0), gamma=4.0,
                               n=1024, dt=1e-3, t_max=3.0, stride=100)
        rec, lengths = step_lengths(cfg)
        assert rec.terminated is Termination.Horizon
        assert [n for _, n in rec.grids] == [256, 512, 1024]
        assert lengths[0] == 12e-3
        assert max(h for m, _, h in rec.step_lengths if m == 512) > 2e-3
        fixed = fixed_grid_run(cfg, lengths)
        err = np.max(np.abs(rec.final_field.values - fixed.values))
        assert err <= 1e-13

    def test_climbs_and_matches_fixed_grid(self):
        # sized by S: a step on rung m has a CFL number of up to n/m * _NU
        # on the config grid, stable for the reference loop on 512 points
        cfg = SimulationConfig(two_mode_quantities(0.05, 0.0), n=512,
                               dt=1e-3, t_max=2.8, stride=100)
        rec, lengths = step_lengths(cfg)
        assert rec.terminated is Termination.Horizon
        assert [n for _, n in rec.grids] == [256, 512]
        # the first step spans floor(1/(dt*pi*256*0.05)) = 24 steps of dt
        assert lengths[0] == 24e-3
        fixed = fixed_grid_run(cfg, lengths)
        err = np.max(np.abs(rec.final_field.values - fixed.values))
        assert err <= 1e-13

    def test_history_only_grows_and_ends_within_config_grid(self,
                                                            case1_to_2_8):
        rec = case1_to_2_8
        assert len(rec.grids) >= 3          # start rung plus >= 2 climbs
        times, sizes = zip(*rec.grids)
        assert times[0] == 0.0 and sizes[0] == 256
        assert all(np.diff(times) > 0) and all(np.diff(sizes) > 0)
        assert all(b == 2 * a for a, b in zip(sizes, sizes[1:]))
        assert sizes[-1] <= rec.config.n
        assert times[-1] <= rec.times[-1]

    def test_snapshot_and_final_field_on_config_grid(self, case1_to_2_8):
        rec = case1_to_2_8
        # at t = 2 the run still steps on 256 points
        assert max(n for t, n in rec.grids if t <= 2.0) == 256
        for f in (rec.snapshots[2.0], rec.final_field):
            assert f.grid == PeriodicGrid(2048)
            assert f.values.shape == (2048,)
            assert f.coefficients[-1] == 0.0

    def test_small_grid_run_is_the_fixed_grid_run(self):
        cfg = SimulationConfig(two_mode_quantities(0.05, 0.0), n=256,
                               dt=1e-3, t_max=0.5)
        rec, lengths = step_lengths(cfg)
        assert rec.grids == [(0.0, 256)]
        # sized by the flow, 24 then 23 steps of dt, and the last one lands
        # on t_max
        assert lengths == [24e-3] * 10 + [23e-3] * 11 + [7e-3]
        fixed = fixed_grid_run(cfg, lengths)
        assert np.array_equal(rec.final_field.coefficients,
                              fixed.coefficients)

    @pytest.mark.parametrize("n,m", [(256, 512), (256, 8192), (1024, 2048)])
    def test_padding_keeps_invariants(self, n, m):
        c = TestNonlinearTerm.random_coeffs(n, seed=m)
        padded = resize_coefficients(c, m)
        assert padded.shape == (m // 2 + 1,) and padded[-1] == 0.0
        before = field_diagnostics(c, PeriodicGrid(n), 1.0)
        after = field_diagnostics(padded, PeriodicGrid(m), 1.0)
        assert after.mass == before.mass == 0.0
        assert after.q == pytest.approx(before.q, rel=1e-14)
        assert after.e == pytest.approx(before.e, rel=1e-12, abs=1e-14)
        # and back down: the padded modes are exactly zero
        assert np.allclose(resize_coefficients(padded, n), c, rtol=1e-15,
                           atol=0.0)


class TestRungSteps:
    # dt is the lattice unit: a step on rung m spans max(n/m, floor(_NU /
    # (dt*pi*m*S))) steps of dt, shortened only to land on a mark
    def test_labels_count_steps_of_dt_on_every_rung(self):
        grid, dt = PeriodicGrid(1024), 2.5e-4
        c0 = two_mode_quantities(0.5, 0.0).sample(grid).coefficients
        count, rungs, start = 0, [], None
        for i, t, h, c, rung, *_ in march(grid, c0, dt, 1.0, 2000):
            if i:
                m = rungs[-1]                # the rung the step was taken on
                span = max(1024 // m, int(min(
                    _NU / (dt * np.pi * m * wiener(start, m)),
                    TWO_PI * _TURN / dt)))
                span = min(span, 2000 - count)
                assert h == span * dt, i
                count += span
            assert t == count * dt, i
            rungs.append(rung.n)
            start = c
        assert count == 2000
        assert set(rungs) == {256, 512, 1024}

    def test_last_step_lands_on_t_max(self):
        # 1001 steps of dt: 45 steps of 24 down to 21 dt on the 256 rung,
        # the last one shortened to 14 dt; n = 512 keeps the reference loop
        # stable at these lengths (see test_climbs_and_matches_fixed_grid)
        cfg = SimulationConfig(two_mode_quantities(0.05, 0.0), n=512,
                               dt=1e-3, t_max=1.001, stride=1000)
        rec, lengths = step_lengths(cfg)
        assert rec.grids == [(0.0, 256)]
        assert lengths == ([24e-3] * 10 + [23e-3] * 11 + [22e-3] * 11
                           + [21e-3] * 12 + [14e-3])
        assert rec.times[-1] == 1001 * 1e-3
        assert rec.times[-1] == pytest.approx(cfg.t_max, abs=1e-15)
        fixed = fixed_grid_run(cfg, lengths)
        assert np.max(np.abs(rec.final_field.values - fixed.values)) <= 1e-13

    def test_snapshot_off_the_rung_lattice_taken_at_its_time(self):
        # t = 0.25 is 10 steps of 24 dt and 10 dt: the step from 0.24 is
        # shortened to land on it, and the run to t_max = 0.25 takes the
        # same steps
        d = two_mode_quantities(0.05, 0.0)
        cfg = SimulationConfig(d, n=1024, dt=1e-3, t_max=0.5,
                               snapshot_times=(0.25,))
        rec, lengths = step_lengths(cfg)
        assert lengths[:11] == [24e-3] * 10 + [10e-3]
        assert run_summary(rec, None)["snapshots_missed"] == []
        exact = simulate(SimulationConfig(d, n=1024, dt=1e-3, t_max=0.25))
        assert exact.times[-1] == 0.25
        assert np.array_equal(rec.snapshots[0.25].coefficients,
                              exact.final_field.coefficients)
        assert rec.times[-1] == 0.5


class TestStepRule:
    @pytest.fixture(scope="class")
    def breaking_steps(self):
        """A run across three rungs with stride marks and a snapshot: each
        step's rung, start state, length and end count."""
        grid, dt = PeriodicGrid(1024), 2.5e-4
        c0 = two_mode_quantities(0.5, 0.0).sample(grid).coefficients
        steps, start, rung, count = [], c0, None, 0
        for i, t, h, c, to, *_ in march(grid, c0, dt, 1.0, 2000,
                                        stops=(1001,), stride=7):
            if i:
                count += int(round(h / dt))
                steps.append((rung.n, start, h, count))
            start, rung = c, to
        assert {m for m, *_ in steps} == {256, 512, 1024}
        return dt, steps

    def test_no_step_shorter_than_the_rung_step_but_at_a_mark(self,
                                                               breaking_steps):
        dt, steps = breaking_steps
        for m, _, h, count in steps:
            marked = count in (1001, 2000) or count % (7 * 1024 // m) == 0
            assert h >= dt * (1024 // m) or marked, count

    def test_longer_steps_keep_the_cfl_number(self, breaking_steps):
        dt, steps = breaking_steps
        longer = [(m, c, h) for m, c, h, _ in steps if h > dt * (1024 // m)]
        assert longer
        for m, c, h in longer:
            assert h * np.pi * m * wiener(c, m) <= _NU
            assert h / TWO_PI <= _TURN

    def test_sample_flags_are_the_marks_of_the_rung_reached(self):
        # stride 7 marks every 28 counts of dt on the 256 rung and every 14
        # on the 512 rung; stops at the odd multiples of 14 make the step
        # that climbs to 512 land on 1078 = 77*14, a mark of the rung it
        # reached but not of the rung it was taken on
        grid, dt = PeriodicGrid(1024), 2.5e-4
        c0 = two_mode_quantities(0.4, 0.0).sample(grid).coefficients
        rungs, marked = [], []
        for _, t, _, _, rung, _, _, sample in march(
                grid, c0, dt, 1.0, 2000, stops=range(14, 2000, 28),
                stride=7):
            count = int(round(t / dt))
            assert sample == (count % (7 * 1024 // rung.n) == 0
                              or count == 2000), count
            rungs.append((count, rung.n))
            if sample:
                marked.append(count)
        climbs = [r for r, q in zip(rungs[1:], rungs) if r[1] != q[1]]
        assert climbs[0] == (1078, 512) and 1078 in marked
        assert {n for _, n in rungs} == {256, 512, 1024}
        assert marked[0] == 0 and marked[-1] == 2000

    def test_zero_datum_steps_at_the_rung_step(self):
        # S = 0 allows any step; the march keeps n/m steps of dt
        grid = PeriodicGrid(1024)
        lengths = [h for i, _, h, *_ in march(
            grid, np.zeros(513, dtype=complex), 1e-3, 1.0, 100) if i]
        assert lengths == [4e-3] * 25

    def test_turn_bound_where_gamma_dt_underflows(self):
        # gamma*dt = 1e-324 rounds to 0, and the turn bound 2 pi _TURN /
        # (gamma*dt) used to divide by it (ZeroDivisionError); there the
        # linear term turns no mode within a step, only the flow bounds it
        cfg = SimulationConfig(two_mode_quantities(0.05, 0.0), gamma=1e-162,
                               n=64, dt=1e-162, t_max=20e-162)
        record = simulate(cfg)
        assert record.terminated is Termination.Horizon
        assert record.steps == 1 and record.times[-1] == 20e-162

    def test_zero_data_scan_point(self, monkeypatch):
        # a = b = 0 in a simulated scan steps at dt on its 64 points
        lengths = []
        rk4_step = SpectralWorkspace.rk4_step
        monkeypatch.setattr(SpectralWorkspace, "rk4_step",
                            lambda ws, c, h, *args: lengths.append(h)
                            or rk4_step(ws, c, h, *args))
        cfg = ScanConfig(a_range=(0.0, 0.0, 1), b_range=(0.0, 0.0, 1),
                         criteria_only=False, n=64, dt=0.01, t_max=0.5)
        (row,) = scan(cfg).rows
        assert row["terminated"] == "Horizon"
        assert lengths == [0.01] * 50

    def test_control_keeps_its_sample_times(self, control_run):
        # stride 10 on the 256 rung: a sample every 160 steps of dt, as when
        # every march step spanned n/m of them
        assert control_run.grids == [(0.0, 256)]
        assert np.array_equal(control_run.times,
                              np.arange(126) * 160 * control_run.config.dt)


class TestStepRecord:
    def test_steps_and_lengths_match_the_steps_taken(self):
        cfg = SimulationConfig(two_mode_quantities(0.3, 0.0), n=512,
                               dt=1e-3, t_max=0.5, stride=7,
                               snapshot_times=(0.25,))
        rec, taken = step_lengths(cfg, on_rung=True)
        assert len(rec.grids) == 2
        assert rec.steps == len(taken)
        expect = [(m, min(h for n, h in taken if n == m),
                   max(h for n, h in taken if n == m))
                  for m in sorted({n for n, _ in taken})]
        assert rec.step_lengths == expect
        summary = run_summary(rec, None)
        assert summary["steps"] == rec.steps
        assert summary["step_lengths"] == expect


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_overflow_ends_in_numerical_failure():
    d = sampled_data(lambda x: 1e200 * np.sin(TWO_PI * x), n=64)
    cfg = SimulationConfig(d, n=64, dt=1.0, t_max=2.0)
    with np.errstate(over="ignore", invalid="ignore"):
        record = simulate(cfg)
        assert record.terminated is Termination.NumericalFailure
        assert record.failure == "non_finite"
        assert run_summary(record, None)["failure"] == "non_finite"
        record, _ = co_evolve(cfg, n_xi=16)
        assert record.terminated is Termination.NumericalFailure
        assert record.failure == "non_finite"


def test_sup_past_the_bound_is_a_sup_bound_failure():
    # the datum claims sup|u0| = ||u0|| = 0, so the a-priori bound is 1e-6
    # and the run that breaks at t ~ 0.33 is judged a failure of the bound
    d = dataclasses.replace(two_mode_quantities(0.5, 0.0), sup_abs=0.0,
                            l2=0.0)
    record = simulate(SimulationConfig(d, n=256, dt=1e-3, t_max=1.0,
                                       stop_slope=-30.0))
    assert record.terminated is Termination.NumericalFailure
    assert record.failure == "sup_bound"
    assert run_summary(record, None)["failure"] == "sup_bound"


class TestBreakingRun:
    def test_smoke_terminates_on_slope(self, case1_smoke_run):
        # the 1024 grid loses the front (min u_x ~ -22) long before
        # stop_slope = -200, and after the fit window has closed
        rec = case1_smoke_run
        assert rec.terminated is Termination.SlopeBlowup
        assert rec.stop == "front_unresolved"
        assert rec.times[-1] < rec.config.t_max
        assert rec.min_ux[-1] > rec.config.stop_slope
        assert estimate_blowup(rec).window[1] < rec.times[-1]

    def test_smoke_regression_band(self, case1_smoke_run):
        est = estimate_blowup(case1_smoke_run)
        assert -1.15 <= est.c <= -0.90
        assert est.n_samples >= 10
        assert est.window[0] < est.window[1] <= case1_smoke_run.times[-1]

    def test_sup_stays_bounded_while_slope_blows_up(self, case1_smoke_run):
        rec = case1_smoke_run
        d = rec.config.initial
        bound = d.sup_abs + rec.config.gamma * rec.times * d.l2 + 1e-6
        assert np.all(rec.sup_abs_u <= bound)

    def test_conservation_before_breaking(self, case1_smoke_run):
        rec = case1_smoke_run
        pre = rec.min_ux >= -10.0
        assert np.max(np.abs(rec.mass_drift[pre])) < 1e-10
        assert np.max(np.abs(rec.q_drift[pre])) < 1e-8
        assert np.max(np.abs(rec.e_drift[pre])) < 1e-6


class TestResolutionStop:
    @pytest.mark.parametrize("case", ["case1_run", "case2_run", "case3_run"])
    def test_reference_runs_stop_past_their_fit_window(self, case, request):
        # the finest grid loses the front after the fit window has closed
        # and past min u_x = -10, where the drift and bound checks end
        rec = request.getfixturevalue(case)
        assert rec.terminated is Termination.SlopeBlowup
        assert rec.stop == "front_unresolved"
        assert estimate_blowup(rec).window[1] < rec.times[-1]
        assert rec.config.stop_slope < rec.min_ux[-1] < -10.0

    def test_unresolved_datum_not_stopped_at_its_first_step(self):
        # mode 30 of a 64-point grid, in its top eighth, at 1e-2 of the
        # peak: the grid does not resolve the datum at t = 0, but its slope
        # has not passed the fit's start threshold
        d = sampled_data(lambda x: np.sin(TWO_PI * x)
                         + 1e-2 * np.sin(30 * TWO_PI * x), n=64)
        rec = simulate(SimulationConfig(d, n=64, dt=1e-3, t_max=0.05))
        assert rec.terminated is Termination.Horizon
        assert rec.stop is None and rec.steps > 1

    @pytest.mark.filterwarnings("error")
    def test_zero_field_runs_to_horizon(self):
        # a zero field has passed its zero start threshold, and a zero
        # spectrum is resolved
        rec = simulate(SimulationConfig(two_mode_quantities(0.0, 0.0), n=64,
                                        dt=0.01, t_max=0.5))
        assert rec.terminated is Termination.Horizon
        assert rec.stop is None and rec.times[-1] == pytest.approx(0.5)


class TestNoBreakingControl:
    def test_runs_to_horizon(self, control_run):
        assert control_run.terminated is Termination.Horizon
        assert control_run.times[-1] == pytest.approx(
            control_run.config.t_max, abs=1e-9)

    def test_slope_stays_mild(self, control_run):
        assert control_run.min_ux.min() >= -5.0


class TestSnapshots:
    def test_requested_times_recorded(self):
        cfg = SimulationConfig(two_mode_quantities(0.01, 0.0), n=256, dt=1e-2,
                               t_max=1.0, snapshot_times=(0.25, 0.75),
                               stride=5)
        rec = simulate(cfg)
        assert set(rec.snapshots) == {0.25, 0.75}
        s25, s75 = rec.snapshots[0.25], rec.snapshots[0.75]
        assert np.all(np.isfinite(s25.values))
        assert np.max(np.abs(s25.values - s75.values)) > 1e-8

    def test_snapshot_between_samples_taken_at_its_time(self):
        # stride 7 samples at t = 0.98 and 1.05; the snapshot is the t = 1.0
        # state all the same, that of a run to t = 1.0 on the same marks
        d = two_mode_quantities(0.05, 0.0)
        snap = simulate(SimulationConfig(d, n=256, dt=1e-2, t_max=2.0,
                                         stride=7, snapshot_times=(1.0,)))
        assert 0.98 in snap.times and 1.05 in snap.times
        exact = simulate(SimulationConfig(d, n=256, dt=1e-2, t_max=1.0,
                                          stride=7))
        err = np.max(np.abs(snap.snapshots[1.0].values
                            - exact.final_field.values))
        assert err <= 1e-14

    def test_stride_marks_shape_the_steps(self, record_property):
        # stride 7 lands on every 7th step of dt, stride 1 steps across
        # them, so the two runs differ by the RK4 step error, not round-off
        d = two_mode_quantities(0.05, 0.0)
        runs = [simulate(SimulationConfig(d, n=256, dt=1e-2, t_max=1.0,
                                          stride=k)) for k in (1, 7)]
        err = float(np.max(np.abs(runs[0].final_field.values
                                  - runs[1].final_field.values)))
        record_property("stride_1_vs_7", err)
        print(f"stride 1 vs 7 at t = 1: {err:.2e}")
        assert 1e-14 < err <= 1e-10


class TestEstimator:
    @staticmethod
    def synthetic_record(dt=0.01, t_end=1.93):
        """min_ux(t) = -1/(2 - t): the fitted line must be exactly 2 - t."""
        cfg = SimulationConfig(two_mode_quantities(0.05, 0.0), n=64, dt=dt,
                               t_max=t_end)
        times = np.arange(0.0, t_end + 0.5 * dt, dt)
        min_ux = -1.0 / (2.0 - times)
        zeros = np.zeros_like(times)
        return SimulationRecord(
            config=cfg, times=times, min_ux=min_ux, max_ux=-min_ux,
            sup_abs_u=zeros + 0.05, mass_drift=zeros, q_drift=zeros,
            e_drift=zeros, terminated=Termination.SlopeBlowup)

    def test_recovers_exact_line(self):
        est = estimate_blowup(self.synthetic_record())
        assert est.b == pytest.approx(2.0, abs=1e-9)
        assert est.c == pytest.approx(-1.0, abs=1e-9)
        assert est.t_blowup == pytest.approx(2.0, abs=1e-9)
        assert est.residual < 1e-9

    def test_fit_does_not_depend_on_the_lattice(self):
        # y = -1/min_ux is curved, so an equal-weight fit leans toward the
        # densely sampled part of the window (B 2.1356 against 2.1665)
        def fit(times):
            rec = self.synthetic_record()
            y = 2.0 - times + 0.5 * (times - 1.7) ** 2
            rec.times, rec.min_ux = times, -1.0 / y
            return estimate_blowup(rec)

        uniform = fit(np.arange(0.0, 1.95, 1e-3))
        mixed = fit(np.concatenate([np.arange(0.0, 1.7, 4e-3),
                                    np.arange(1.7, 1.95, 1e-3)]))
        assert abs(mixed.b - uniform.b) < 2e-3
        assert abs(mixed.c - uniform.c) < 1e-3

    def test_window_respects_threshold_and_depth(self):
        rec = self.synthetic_record()
        est = estimate_blowup(rec)
        # start: 5x the initial slope minimum of -1/2; cap at depth -6
        assert est.window[0] == pytest.approx(1.6, abs=0.011)
        assert est.window[1] <= 2.0 - 1.0 / 6.0 + 0.011

    def test_horizon_run_rejected(self, control_run):
        assert estimate_blowup(control_run) is None

    def test_short_window_rejected(self):
        rec = self.synthetic_record(dt=0.05, t_end=1.95)
        assert estimate_blowup(rec) is None

    def test_steep_data_depth_scales(self):
        # start threshold below the default cap: the window must still open
        rec = self.synthetic_record()
        rec.min_ux = 10.0 * rec.min_ux          # starts at -5, cap -> -50
        est = estimate_blowup(rec)
        assert est.n_samples >= 10


class TestEmission:
    def test_timeseries_roundtrip(self, tmp_path, case1_smoke_run):
        p = tmp_path / "ts.csv"
        write_timeseries(case1_smoke_run, p)
        data = np.genfromtxt(p, delimiter=",", names=True)
        assert data.dtype.names == ("t", "min_ux", "max_ux", "sup_u", "mass",
                                    "q_drift", "e_drift")
        assert np.allclose(data["min_ux"], case1_smoke_run.min_ux)

    def test_timeseries_bytes_match_row_loop(self, tmp_path,
                                             case1_smoke_run):
        # the reference: one "%.17g" per value, joined row by row
        rec = case1_smoke_run
        p = tmp_path / "ts.csv"
        write_timeseries(rec, p)
        cols = np.column_stack([rec.times, rec.min_ux, rec.max_ux,
                                rec.sup_abs_u, rec.mass_drift, rec.q_drift,
                                rec.e_drift])
        expect = "t,min_ux,max_ux,sup_u,mass,q_drift,e_drift\n" + "".join(
            ",".join("%.17g" % v for v in row) + "\n" for row in cols)
        assert p.read_text() == expect

    def test_summary_shape(self, case1_smoke_run):
        est = estimate_blowup(case1_smoke_run)
        s = run_summary(case1_smoke_run, est)
        assert s["terminated"] == "SlopeBlowup"
        assert s["stop"] == "front_unresolved" and s["failure"] is None
        assert s["blowup"]["T"] == pytest.approx(-est.b / est.c)
        assert s["config"]["initial"] == {"a": 0.05, "b": 0.0,
                                          "kind": "two_mode"}
        assert s["grids"] == case1_smoke_run.grids
        assert s["grids"][0] == (0.0, 256)
        assert s["grids"][-1][1] == case1_smoke_run.config.n
