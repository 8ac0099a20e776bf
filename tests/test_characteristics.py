import dataclasses

import numpy as np
import pytest

from ohlab import characteristics, evolution
from ohlab.characteristics import (CharacteristicEnsemble, CoSteppingProvider,
                                   EnsembleTrace, advance, co_evolve,
                                   diffeomorphism_check,
                                   rate_products, seed, write_ensemble_csv,
                                   write_rate_products_csv)
from ohlab.errors import NumericalFailure
from ohlab.evolution import (BlowupEstimate, SimulationConfig,
                             SimulationRecord, SpectralWorkspace, Termination,
                             march, simulate)
from ohlab.fourier import PeriodicField, PeriodicGrid, resize_coefficients
from ohlab.initial import two_mode_quantities

TWO_PI = 2.0 * np.pi


ZERO = two_mode_quantities(0.0, 0.0)   # u = 0 solves the PDE


def fed_provider(initial, n, gamma, dt, n_steps, stops=()):
    """A provider of 4 characteristics fed step 0 of the march of initial
    on n points to n_steps steps of dt, and the rest of the march, each
    step as the six arguments a rider takes."""
    config = SimulationConfig(initial, gamma=gamma, n=n, dt=dt,
                              t_max=n_steps * dt)
    u0 = initial.sample(PeriodicGrid(n))
    steps = (step[:6] for step in march(u0.grid, u0.coefficients, dt, gamma,
                                        n_steps, stops=stops))
    provider = CoSteppingProvider(config, 4)
    provider.advance_to(*next(steps))
    return provider, steps


class TestSeed:
    def test_initial_state(self):
        u0 = two_mode_quantities(0.3, 0.1).sample(PeriodicGrid(256))
        ens = seed(u0, 32)
        assert np.allclose(ens.x, ens.xi)
        assert ens.t == 0.0
        xi = ens.xi
        expect_u = 0.3 * np.cos(TWO_PI * xi) + 0.1 * np.sin(2 * TWO_PI * xi)
        expect_v = (-0.3 * TWO_PI * np.sin(TWO_PI * xi)
                    + 0.2 * TWO_PI * np.cos(2 * TWO_PI * xi))
        assert np.max(np.abs(ens.u - expect_u)) < 1e-13
        assert np.max(np.abs(ens.v - expect_v)) < 1e-12


class TestRiccatiLimit:
    def test_pure_riccati_on_zero_field(self):
        # u = 0 solves the PDE, so V' = -V^2 exactly: V(t) = v0/(1 + v0 t)
        dt = 1e-3
        provider, steps = fed_provider(ZERO, 64, 1.0, dt, 1000)
        v0 = np.array([1.0, 2.0, -0.25])
        ens = CharacteristicEnsemble(
            xi=np.array([0.0, 0.25, 0.5]), x=np.array([0.0, 0.25, 0.5]),
            u=np.zeros(3), v=v0.copy(), t=0.0)
        for _ in range(1000):
            provider.advance_to(*next(steps))
            ens = advance(ens, provider)
        expect = v0 / (1.0 + v0 * ens.t)
        assert ens.t == pytest.approx(1.0)
        assert np.max(np.abs(ens.v - expect)) < 1e-11
        assert np.max(np.abs(ens.x - ens.xi)) < 1e-13
        assert np.max(np.abs(ens.u)) < 1e-13


class TestProvider:
    def test_rides_the_grid_ladder(self):
        # a = 0.5 steepens fast: by t = 0.25 the field needs more than the
        # starting rung, and the fields are on the current rung's grid
        grid = PeriodicGrid(512)
        datum = two_mode_quantities(0.5, 0.0)
        u0 = datum.sample(grid)
        # the march sizes steps by the flow on each rung, to a CFL number of
        # up to 512/256 on the fixed 512 grid of the reference loop below;
        # on a 1024 grid that loop is not stable at these lengths
        provider, steps = fed_provider(datum, 512, 1.0, 2.5e-4, 1000)
        rungs, lengths = [provider.u.grid.n], []
        for step in steps:
            provider.advance_to(*step)
            rungs.append(provider.u.grid.n)
            lengths.append(provider.h)
        assert rungs[0] == 256 and len(set(rungs)) >= 2
        assert provider.t == 0.25
        # the first step spans floor(1/(dt*pi*256*0.5)) = 9 steps of dt
        assert lengths[0] == 9 * 2.5e-4 and len(lengths) < 500
        assert all(f.grid.n == rungs[-1] for f in (provider.u, *provider.g))
        ws = SpectralWorkspace(grid)
        c = u0.coefficients.copy()
        for h in lengths:
            c = ws.rk4_step(c, h, 1.0)
        x = np.linspace(0.0, 1.0, 97)
        fixed = PeriodicField(grid, coefficients=c)
        assert np.max(np.abs(provider.u.evaluate(x)
                             - fixed.evaluate(x))) <= 1e-13

    @staticmethod
    def midpoint_error(h):
        """sup|G| error of the Hermite midpoint over the step that climbs
        the first rung, a step of length h, against an h/2 RK4 step on the
        fixed 1024 grid."""
        grid = PeriodicGrid(1024)
        # on the 1024 grid the 256 rung steps at least 4 dt = h, and a stop
        # at every 4th step of dt cuts each step to h; the climb comes at
        # t = 0.216, well before the march's end at t = 1000 h
        provider, steps = fed_provider(
            two_mode_quantities(0.5, 0.0), grid.n, 1.0, h / 4, 4000,
            stops=range(4, 4000, 4))
        first = provider.u.grid.n
        while provider.u.grid.n == first:
            start = provider.u
            provider.advance_to(*next(steps))
        assert start.grid.n < provider.u.grid.n   # the step crosses a climb
        assert provider.h == h
        c = resize_coefficients(start.coefficients, grid.n)
        c = SpectralWorkspace(grid).rk4_step(c, 0.5 * provider.h, 1.0)
        exact = PeriodicField(grid, coefficients=c * grid.antideriv_multiplier)
        mid = PeriodicField(grid, coefficients=resize_coefficients(
            provider.g[1].coefficients, grid.n))
        return float(np.max(np.abs(mid.values - exact.values)))

    def test_hermite_midpoint_is_fourth_order(self):
        fine, coarse = self.midpoint_error(1e-3), self.midpoint_error(2e-3)
        assert fine <= 1e-12
        assert coarse >= 12.0 * fine

    def test_one_pde_step_per_ensemble_step(self, monkeypatch):
        steps, ensemble_steps = [], []
        rk4_step = SpectralWorkspace.rk4_step

        def counted(ws, coeffs, dt, *args):
            steps.append(dt)
            return rk4_step(ws, coeffs, dt, *args)

        def ensemble_step(ens, provider):
            ensemble_steps.append(provider.h)
            return advance(ens, provider)

        monkeypatch.setattr(SpectralWorkspace, "rk4_step", counted)
        monkeypatch.setattr(characteristics, "advance", ensemble_step)
        cfg = SimulationConfig(two_mode_quantities(0.05, 0.0), n=64,
                               dt=1e-2, t_max=0.2)
        co_evolve(cfg, n_xi=8)
        # the flow allows floor(1/(dt*pi*64*0.05)) = 9 steps of dt and the
        # turn of mode 1 floor(2 pi _TURN/dt) = 4, and the sample marks of
        # sample_stride = 10 cut every third step to 2
        assert steps == [4e-2, 4e-2, 2e-2] * 2
        assert ensemble_steps == steps

    def test_rider_is_the_provider(self, monkeypatch):
        # co_evolve calls evolution.simulate through the module, so a
        # wrapper of that name (as the benchmark's spans) sees the run; its
        # rider is the provider that carries the ensemble
        riders, run = [], evolution.simulate
        monkeypatch.setattr(evolution, "simulate", lambda config, rider:
                            riders.append(rider) or run(config, rider))
        cfg = SimulationConfig(two_mode_quantities(0.05, 0.0), n=64,
                               dt=1e-2, t_max=0.2)
        _, trace = co_evolve(cfg, n_xi=8)
        (rider,) = riders
        assert type(rider) is CoSteppingProvider
        assert np.array_equal(rider.ens.v, trace.v[-1])

    def test_four_rhs_calls_per_step(self, monkeypatch):
        # the tendency of each state is computed once, by the march, and is
        # the next step's first RK4 stage: 3 more stages and 1 tendency per
        # step, after the tendency of the initial state
        calls = []
        rhs = SpectralWorkspace.rhs

        def counted(ws, *args):
            calls.append(ws.n)
            return rhs(ws, *args)

        monkeypatch.setattr(SpectralWorkspace, "rhs", counted)
        cfg = SimulationConfig(two_mode_quantities(0.05, 0.0), n=64,
                               dt=1e-2, t_max=0.2)
        record, _ = co_evolve(cfg, n_xi=8)
        assert record.steps == 6
        assert len(calls) == 4 * record.steps + 1
        # a rider's step, the ensemble's RK4 step with it, adds none
        provider, steps = fed_provider(cfg.initial, 64, 1.0, 1e-2, 1)
        calls.clear()
        provider.advance_to(*next(steps))
        assert len(calls) == 4


class TestNonFiniteEnsemble:
    def test_advance_raises(self):
        # V = 1e200 squares past the float range within the step
        provider, steps = fed_provider(ZERO, 64, 1.0, 1e-3, 1)
        provider.advance_to(*next(steps))
        ens = CharacteristicEnsemble(
            xi=np.array([0.0, 0.5]), x=np.array([0.0, 0.5]), u=np.zeros(2),
            v=np.array([1.0, -1e200]), t=0.0)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericalFailure):
                advance(ens, provider)


class TestDiffeomorphismCheck:
    def test_identity_passes(self):
        xi = np.arange(8) / 8.0
        ens = CharacteristicEnsemble(xi=xi, x=xi.copy(), u=np.zeros(8),
                                     v=np.zeros(8), t=0.0)
        assert diffeomorphism_check(ens)

    def test_crossing_fails(self):
        xi = np.arange(8) / 8.0
        x = xi.copy()
        x[3], x[4] = x[4], x[3]
        ens = CharacteristicEnsemble(xi=xi, x=x, u=np.zeros(8),
                                     v=np.zeros(8), t=0.0)
        assert not diffeomorphism_check(ens)

    def test_overstretched_fails(self):
        xi = np.arange(8) / 8.0
        ens = CharacteristicEnsemble(xi=xi, x=2.0 * xi, u=np.zeros(8),
                                     v=np.zeros(8), t=0.0)
        assert not diffeomorphism_check(ens)


class TestRateProducts:
    @staticmethod
    def exact_hyperbola():
        dt = 0.01
        times = np.arange(0.0, 1.84, dt)
        cfg = SimulationConfig(two_mode_quantities(0.05, 0.0), n=64, dt=dt,
                               t_max=1.84)
        zeros = np.zeros_like(times)
        rec = SimulationRecord(
            config=cfg, times=times, min_ux=-1.0 / (2.0 - times),
            max_ux=0.5 / (2.0 - times), sup_abs_u=zeros + 0.05,
            mass_drift=zeros, q_drift=zeros, e_drift=zeros,
            terminated=Termination.SlopeBlowup)
        est = BlowupEstimate(b=2.0, c=-1.0, window=(1.6, 1.83),
                             residual=0.0, n_samples=24)
        return rec, est

    def test_products_against_exact_blowup_time(self):
        rec, est = self.exact_hyperbola()
        prods = rate_products(rec, est)
        assert prods.shape[1] == 3
        assert np.allclose(prods[:, 1], -1.0, atol=1e-12)
        assert np.allclose(prods[:, 2], 0.5, atol=1e-12)
        assert prods[0, 0] >= 1.6 and prods[-1, 0] <= 1.83

    def test_csv_emission(self, tmp_path):
        rec, est = self.exact_hyperbola()
        p = tmp_path / "prods.csv"
        write_rate_products_csv(rate_products(rec, est), p)
        data = np.genfromtxt(p, delimiter=",", names=True)
        assert data.dtype.names == ("t", "p_min", "p_max")
        assert np.allclose(data["p_min"], -1.0)


class TestCoEvolvedRun:
    def test_u_matches_grid_solution(self, coevolved):
        _, trace = coevolved
        assert float(trace.consistency.max()) < 1e-6

    def test_min_v_matches_grid_min_slope(self, coevolved):
        record, trace = coevolved
        assert np.max(np.abs(trace.min_v - record.min_ux)) < 1e-4

    def test_diffeomorphism_throughout(self, coevolved):
        _, trace = coevolved
        assert bool(trace.diffeo.all())

    def test_grid_history_recorded(self, coevolved):
        record, _ = coevolved
        times, sizes = zip(*record.grids)
        assert times[0] == 0.0 and sizes[0] == 256
        assert all(np.diff(times) > 0) and sizes[-1] <= record.config.n

    def test_sample_times_align(self, coevolved):
        record, trace = coevolved
        assert np.array_equal(record.times, trace.times)
        assert record.terminated is Termination.Horizon

    def test_sample_times_are_step_multiples(self, coevolved):
        # sample_stride counts march steps, and on the 256 rung a march step
        # spans 1024/256 steps of dt
        record, trace = coevolved
        assert record.grids == [(0.0, 256)]
        steps = np.arange(len(trace.times)) * 10 * 4
        assert np.array_equal(trace.times, steps * record.config.dt)

    def test_ensemble_csv(self, tmp_path, coevolved):
        _, trace = coevolved
        p = tmp_path / "ens.csv"
        write_ensemble_csv(trace, p)
        with open(p) as fh:
            header = fh.readline().strip()
            n_rows = sum(1 for _ in fh)
        assert header == "t,xi,X,U,V"
        assert n_rows == trace.x.size


def test_ensemble_csv_bytes(tmp_path):
    # every cell, the repeated t and xi columns too, is %.17g of its float:
    # xi = 1/3 and 2/3 and t = 0.1*k round-trip only at 17 digits, and 100
    # samples of 3 rows cross the writer's 256-row batches
    rng = np.random.default_rng(4)
    n_samples, n_xi = 100, 3
    x, u, v = (rng.standard_normal((n_samples, n_xi)) for _ in range(3))
    trace = EnsembleTrace(times=0.1 * np.arange(n_samples), x=x, u=u, v=v,
                          consistency=np.zeros(n_samples),
                          min_v=v.min(axis=1),
                          diffeo=np.ones(n_samples, dtype=bool))
    p = tmp_path / "ens.csv"
    write_ensemble_csv(trace, p)
    columns = (np.repeat(trace.times, n_xi),
               np.tile(np.arange(n_xi) / n_xi, n_samples),
               x.ravel(), u.ravel(), v.ravel())
    expect = "t,xi,X,U,V\n" + "".join(
        ",".join("%.17g" % c for c in row) + "\n" for row in zip(*columns))
    assert p.read_bytes() == expect.encode()


class TestMatchesSimulate:
    # the provider steps the PDE exactly as simulate does, so co_evolve's
    # record is simulate's at stride = sample_stride, bit for bit, on the
    # samples both take; at a = 0.05 min V reaches stop_slope first, so
    # co_evolve stops between simulate's samples
    @pytest.mark.parametrize("a, t_max, stop_slope, n_shared, ends", [
        (0.005, 1.0, -200.0, 26, Termination.Horizon),
        (0.05, 5.0, -30.0, 137, Termination.SlopeBlowup)])
    def test_record_equals_simulate(self, a, t_max, stop_slope, n_shared,
                                    ends):
        cfg = SimulationConfig(two_mode_quantities(a, 0.0), n=1024, dt=1e-3,
                               t_max=t_max, stop_slope=stop_slope)
        co, _ = co_evolve(cfg, n_xi=32, sample_stride=10)
        sim = simulate(dataclasses.replace(cfg, stride=10))
        assert co.terminated is ends
        shared = np.intersect1d(co.times, sim.times)
        assert len(shared) == n_shared
        on_co, on_sim = np.isin(co.times, shared), np.isin(sim.times, shared)
        for name in ("times", "min_ux", "max_ux", "sup_abs_u", "q_drift",
                     "e_drift"):
            assert np.array_equal(getattr(co, name)[on_co],
                                  getattr(sim, name)[on_sim]), name
        assert co.grids == [g for g in sim.grids if g[0] <= co.times[-1]]
        if ends is Termination.Horizon:
            assert np.array_equal(co.final_field.coefficients,
                                  sim.final_field.coefficients)


class TestBreakingEnsemble:
    # samples every 0.5 time units: at n = 256 the grid loses the front
    # near t = 3.06 (min V ~ -6.6), which the verdict judges only at a
    # sample, so the ensemble's own end near t = 3.2 comes first
    def test_slope_blowup_before_v_overflows(self):
        # the ensemble's V runs to -inf near t = 3.2, well ahead of the grid
        # slope at n = 256; min V is checked every step, so the rider asks
        # for a sample between marks and the run stops at stop_slope with
        # sup|u| inside its bound
        cfg = SimulationConfig(two_mode_quantities(0.05, 0.0), n=256,
                               dt=1e-3, t_max=5.0, stop_slope=-30.0)
        record, trace = co_evolve(cfg, n_xi=32, sample_stride=500)
        assert record.terminated is Termination.SlopeBlowup
        assert record.stop == "stop_slope"
        assert trace.min_v[-1] <= -30.0 < record.min_ux[-1]
        assert 3.0 < trace.times[-1] < 3.3
        assert list(record.times[:-1]) == [0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0]
        d = cfg.initial
        assert np.all(record.sup_abs_u
                      <= d.sup_abs + record.times * d.l2 + 1e-6)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_v_overflow_is_a_non_finite_failure(self):
        # past a stop_slope that V cannot reach finitely, V overflows near
        # t = 3.2, after the sample at t = 3, while the grid slope is mild
        # and the field finite
        cfg = SimulationConfig(two_mode_quantities(0.05, 0.0), n=256,
                               dt=1e-3, t_max=5.0, stop_slope=-1e300)
        with np.errstate(over="ignore", invalid="ignore"):
            record, _ = co_evolve(cfg, n_xi=32, sample_stride=500)
        assert record.terminated is Termination.NumericalFailure
        assert record.failure == "non_finite" and record.stop is None
        assert record.times[-1] == 3.0 and record.min_ux[-1] > -30.0
        assert np.all(np.isfinite(record.final_field.coefficients))


class TestUnsupportedConfig:
    # co_evolve samples by sample_stride; a stride used to be dropped
    # without a word.  One equal to sample_stride is no exception.
    @pytest.mark.parametrize("field", [
        {"stride": 7}, {"stride": 2, "snapshot_times": (0.01,)},
        {"stride": 2, "sample_stride": 2}])
    def test_rejected(self, field):
        field = dict(field)
        sample_stride = field.pop("sample_stride", 10)
        cfg = SimulationConfig(two_mode_quantities(0.05, 0.0), n=64,
                               dt=1e-2, t_max=0.02, **field)
        with pytest.raises(ValueError):
            co_evolve(cfg, n_xi=8, sample_stride=sample_stride)

    @pytest.mark.parametrize("kwargs", [{"n_xi": 0}, {"sample_stride": 0}])
    def test_rejected_arguments(self, kwargs):
        cfg = SimulationConfig(two_mode_quantities(0.05, 0.0), n=64,
                               dt=1e-2, t_max=0.02)
        with pytest.raises(ValueError):
            co_evolve(cfg, **{"n_xi": 8, **kwargs})

    def test_snapshots_equal_simulate(self):
        # co_evolve is simulate with a rider, so it takes simulate's
        # snapshots, on the config grid
        cfg = SimulationConfig(two_mode_quantities(0.5, 0.0), n=1024,
                               dt=5e-4, t_max=0.3,
                               snapshot_times=(0.0, 0.01, 0.25))
        co, _ = co_evolve(cfg, n_xi=8)
        sim = simulate(cfg)
        assert list(co.snapshots) == [0.0, 0.01, 0.25]
        assert co.snapshots.keys() == sim.snapshots.keys()
        for t, f in sim.snapshots.items():
            assert co.snapshots[t].grid.n == 1024
            assert np.array_equal(co.snapshots[t].coefficients,
                                  f.coefficients)
