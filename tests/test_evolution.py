import numpy as np
import pytest

from ohlab.characteristics import co_evolve
from ohlab.evolution import (SimulationConfig, SimulationRecord,
                             SpectralWorkspace, Termination, estimate_blowup,
                             march, run_summary, simulate, write_timeseries)
from ohlab.fourier import (PeriodicField, PeriodicGrid, field_diagnostics,
                           resize_coefficients)
from ohlab.initial import sampled_data, two_mode_quantities

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
                            lambda ws, c: np.zeros_like(c))

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

    def test_amplitude_preserved(self):
        cfg = SimulationConfig(two_mode_quantities(1.0, 0.0), n=64, dt=0.01,
                               t_max=5.0, stride=50)
        rec = simulate(cfg)
        # refined-extremum recording is O(h^4) accurate; ~1e-8 at n=64
        assert np.max(np.abs(rec.sup_abs_u - 1.0)) < 1e-7


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
        assert abs(PeriodicField(grid, coefficients=c).mean) < 1e-15


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
        got = SpectralWorkspace(PeriodicGrid(n)).nonlinear_term(c)
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))

    @pytest.mark.parametrize("n", [64, 256])
    def test_rhs_conserves_q(self, n):
        # dQ/dt is the Parseval-weighted Re sum conj(c_k) rhs_k
        c = self.random_coeffs(n, seed=n + 1)
        rhs = SpectralWorkspace(PeriodicGrid(n)).rhs(c, 1.0)
        w = np.full(n // 2 + 1, 2.0)
        w[0] = w[-1] = 1.0
        terms = w * np.conj(c) * rhs
        assert abs(np.sum(terms).real) <= 1e-13 * np.sum(np.abs(terms))


class TestMarchTendency:
    def test_tendency_is_rhs_of_the_yielded_state(self):
        # a = 0.5 climbs off the 256 rung by t = 0.25
        grid, grids = PeriodicGrid(1024), []
        c0 = two_mode_quantities(0.5, 0.0).sample(grid).coefficients
        for i, _, _, c, rung, tendency in march(grid, c0, 5e-4, 1.0, 500,
                                                grids=grids):
            assert np.array_equal(tendency,
                                  SpectralWorkspace(rung).rhs(c, 1.0)), i
        assert len(grids) >= 2

    def test_given_k1_is_the_same_step(self):
        grid = PeriodicGrid(256)
        ws = SpectralWorkspace(grid)
        c = two_mode_quantities(0.1, 0.05).sample(grid).coefficients
        c[-1] = 0.0
        assert np.array_equal(ws.rk4_step(c, 1e-2, 1.0, ws.rhs(c, 1.0)),
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


def step_lengths(cfg):
    """simulate(cfg) and the length of each RK4 step it took."""
    lengths = []
    rk4_step = SpectralWorkspace.rk4_step

    def recorded(ws, coeffs, dt, *args):
        lengths.append(dt)
        return rk4_step(ws, coeffs, dt, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(SpectralWorkspace, "rk4_step", recorded)
        return simulate(cfg), lengths


class TestGridLadder:
    @pytest.fixture(scope="class")
    def case1_to_2_8(self):
        cfg = SimulationConfig(two_mode_quantities(0.05, 0.0), n=2048,
                               dt=1e-3, t_max=2.8, stride=100,
                               snapshot_times=(2.0,))
        rec, lengths = step_lengths(cfg)
        return rec, fixed_grid_run(cfg, lengths), lengths

    def test_climbs_and_matches_fixed_grid(self, case1_to_2_8):
        rec, fixed, lengths = case1_to_2_8
        assert rec.terminated is Termination.Horizon
        assert len(rec.grids) >= 3          # start rung plus >= 2 climbs
        # a step on rung m spans 2048/m steps of dt
        assert lengths[0] == 8e-3 and lengths[-1] == 1e-3
        err = np.max(np.abs(rec.final_field.values - fixed.values))
        assert err <= 1e-13

    def test_history_only_grows_and_ends_within_config_grid(self,
                                                            case1_to_2_8):
        rec = case1_to_2_8[0]
        times, sizes = zip(*rec.grids)
        assert times[0] == 0.0 and sizes[0] == 256
        assert all(np.diff(times) > 0) and all(np.diff(sizes) > 0)
        assert all(b == 2 * a for a, b in zip(sizes, sizes[1:]))
        assert sizes[-1] <= rec.config.n
        assert times[-1] <= rec.times[-1]

    def test_snapshot_and_final_field_on_config_grid(self, case1_to_2_8):
        rec = case1_to_2_8[0]
        # at t = 2 the run still steps on 256 points
        assert max(n for t, n in rec.grids if t <= 2.0) == 256
        for f in (rec.snapshots[2.0], rec.final_field):
            assert f.grid == PeriodicGrid(2048)
            assert f.values.shape == (2048,)
            assert f.coefficients[-1] == 0.0

    def test_small_grid_run_is_the_fixed_grid_run(self):
        cfg = SimulationConfig(two_mode_quantities(0.05, 0.0), n=256,
                               dt=1e-3, t_max=0.5)
        rec = simulate(cfg)
        assert rec.grids == [(0.0, 256)]
        fixed = fixed_grid_run(cfg, [cfg.dt] * 500)
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
    # dt is the step on the config grid; a step on rung m spans n/m of them
    def test_labels_count_steps_of_dt_on_every_rung(self):
        grid, grids, dt = PeriodicGrid(1024), [], 2.5e-4
        c0 = two_mode_quantities(0.5, 0.0).sample(grid).coefficients
        count, rungs = 0, []
        for i, t, h, _, rung, _ in march(grid, c0, dt, 1.0, 2000,
                                         grids=grids):
            if i:
                span = 1024 // rungs[-1]     # the rung the step was taken on
                assert h == span * dt
                count += span
            assert t == count * dt, i
            rungs.append(rung.n)
        assert count == 2000
        assert {n for _, n in grids} == {256, 512, 1024}

    def test_last_step_lands_on_t_max(self):
        # 1001 steps of dt: 250 steps of 4 dt on the 256 rung, then one of dt
        cfg = SimulationConfig(two_mode_quantities(0.05, 0.0), n=1024,
                               dt=1e-3, t_max=1.001, stride=1000)
        rec, lengths = step_lengths(cfg)
        assert rec.grids == [(0.0, 256)]
        assert lengths == [4e-3] * 250 + [1e-3]
        assert rec.times[-1] == 1001 * 1e-3
        assert rec.times[-1] == pytest.approx(cfg.t_max, abs=1e-15)
        fixed = fixed_grid_run(cfg, lengths)
        assert np.max(np.abs(rec.final_field.values - fixed.values)) <= 1e-13

    def test_snapshot_off_the_rung_lattice_taken_at_its_time(self):
        # t = 0.25 is 62.5 steps of 4 dt: the step from 0.248 is shortened
        # to land on it, and the run to t_max = 0.25 takes the same steps
        d = two_mode_quantities(0.05, 0.0)
        cfg = SimulationConfig(d, n=1024, dt=1e-3, t_max=0.5,
                               snapshot_times=(0.25,))
        rec, lengths = step_lengths(cfg)
        assert lengths[:63] == [4e-3] * 62 + [2e-3]
        assert run_summary(rec, None)["snapshots_missed"] == []
        exact = simulate(SimulationConfig(d, n=1024, dt=1e-3, t_max=0.25))
        assert exact.times[-1] == 0.25
        assert np.array_equal(rec.snapshots[0.25].coefficients,
                              exact.final_field.coefficients)
        assert rec.times[-1] == 0.5


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_overflow_ends_in_numerical_failure():
    d = sampled_data(lambda x: 1e200 * np.sin(TWO_PI * x), n=64)
    cfg = SimulationConfig(d, n=64, dt=1.0, t_max=2.0)
    with np.errstate(over="ignore", invalid="ignore"):
        assert simulate(cfg).terminated is Termination.NumericalFailure
        record, _ = co_evolve(cfg, n_xi=16)
        assert record.terminated is Termination.NumericalFailure


class TestBreakingRun:
    def test_smoke_terminates_on_slope(self, case1_smoke_run):
        rec = case1_smoke_run
        assert rec.terminated is Termination.SlopeBlowup
        assert rec.times[-1] < rec.config.t_max
        assert rec.min_ux[-1] <= rec.config.stop_slope

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
        # state all the same
        d = two_mode_quantities(0.05, 0.0)
        snap = simulate(SimulationConfig(d, n=256, dt=1e-2, t_max=2.0,
                                         stride=7, snapshot_times=(1.0,)))
        exact = simulate(SimulationConfig(d, n=256, dt=1e-2, t_max=1.0))
        err = np.max(np.abs(snap.snapshots[1.0].values
                            - exact.final_field.values))
        assert err <= 1e-14


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
        assert s["blowup"]["T"] == pytest.approx(-est.b / est.c)
        assert s["config"]["initial"] == {"a": 0.05, "b": 0.0,
                                          "kind": "two_mode"}
        assert s["grids"] == case1_smoke_run.grids
        assert s["grids"][0] == (0.0, 256)
        assert s["grids"][-1][1] == case1_smoke_run.config.n
