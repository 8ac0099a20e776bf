import numpy as np
import pytest

from ohlab.characteristics import co_evolve
from ohlab.errors import InsufficientWindow
from ohlab.evolution import (SimulationConfig, SimulationRecord,
                             SpectralWorkspace, Termination, estimate_blowup,
                             run_summary, simulate, write_timeseries)
from ohlab.fourier import PeriodicField, PeriodicGrid, conserved_quantities
from ohlab.initial import sampled_data, two_mode_quantities

TWO_PI = 2.0 * np.pi


class TestConfigValidation:
    def test_nonpositive_dt(self):
        with pytest.raises(ValueError):
            SimulationConfig(two_mode_quantities(0.1, 0.0), dt=0.0)

    def test_positive_stop_slope(self):
        with pytest.raises(ValueError):
            SimulationConfig(two_mode_quantities(0.1, 0.0), stop_slope=1.0)

    def test_bad_stride(self):
        with pytest.raises(ValueError):
            SimulationConfig(two_mode_quantities(0.1, 0.0), stride=0)


class TestLinearDispersion:
    def test_single_mode_phase(self):
        # with the quadratic term off, mode k rotates at rate gamma/(2 pi k);
        # the k=1 cosine translates with phase gamma*t/(2 pi)
        cfg = SimulationConfig(two_mode_quantities(1.0, 0.0), gamma=1.0,
                               n=64, dt=0.01, t_max=4.0 * np.pi ** 2,
                               nonlinear=False, stride=100)
        rec = simulate(cfg)
        assert rec.terminated is Termination.Horizon
        t = rec.times[-1]
        x = rec.final_field.grid.x
        exact = np.cos(TWO_PI * x - t / TWO_PI)
        assert np.max(np.abs(rec.final_field.values - exact)) < 1e-6

    def test_amplitude_preserved(self):
        cfg = SimulationConfig(two_mode_quantities(1.0, 0.0), n=64, dt=0.01,
                               t_max=5.0, nonlinear=False, stride=50)
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
        u = two_mode_quantities(0.05, 0.0).sample(PeriodicGrid(64))
        return SimulationRecord(
            config=cfg, times=times, min_ux=min_ux, max_ux=-min_ux,
            sup_abs_u=zeros + 0.05, mass_drift=zeros, q_drift=zeros,
            e_drift=zeros, terminated=Termination.SlopeBlowup,
            initial_conserved=conserved_quantities(u, 1.0))

    def test_recovers_exact_line(self):
        est = estimate_blowup(self.synthetic_record())
        assert est.b == pytest.approx(2.0, abs=1e-9)
        assert est.c == pytest.approx(-1.0, abs=1e-9)
        assert est.t_blowup == pytest.approx(2.0, abs=1e-9)
        assert est.residual < 1e-9

    def test_window_respects_threshold_and_depth(self):
        rec = self.synthetic_record()
        est = estimate_blowup(rec)
        # start: 5x the initial slope minimum of -1/2; cap at depth -6
        assert est.window[0] == pytest.approx(1.6, abs=0.011)
        assert est.window[1] <= 2.0 - 1.0 / 6.0 + 0.011

    def test_horizon_run_rejected(self, control_run):
        with pytest.raises(InsufficientWindow):
            estimate_blowup(control_run)

    def test_short_window_rejected(self):
        rec = self.synthetic_record(dt=0.05)
        with pytest.raises(InsufficientWindow):
            estimate_blowup(rec)

    def test_bad_depth_rejected(self):
        with pytest.raises(ValueError):
            estimate_blowup(self.synthetic_record(), fit_depth=1.0)

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

    def test_summary_shape(self, case1_smoke_run):
        est = estimate_blowup(case1_smoke_run)
        s = run_summary(case1_smoke_run, est)
        assert s["terminated"] == "SlopeBlowup"
        assert s["blowup"]["T"] == pytest.approx(-est.b / est.c)
        assert s["config"]["initial"] == {"a": 0.05, "b": 0.0,
                                          "kind": "two_mode"}
