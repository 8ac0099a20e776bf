import numpy as np
import pytest

from ohlab.characteristics import (CharacteristicEnsemble, CoSteppingProvider,
                                   advance, co_evolve, diffeomorphism_check,
                                   rate_products, seed, write_ensemble_csv,
                                   write_rate_products_csv)
from ohlab.errors import NonZeroMean, ProviderGap
from ohlab.evolution import (BlowupEstimate, SimulationConfig,
                             SimulationRecord, Termination)
from ohlab.fourier import PeriodicField, PeriodicGrid, conserved_quantities
from ohlab.initial import two_mode_quantities

TWO_PI = 2.0 * np.pi


def zero_field(n=64):
    g = PeriodicGrid(n)
    return PeriodicField(g, values=np.zeros(n))


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

    def test_rejects_nonzero_mass(self):
        g = PeriodicGrid(64)
        u0 = PeriodicField.from_function(g, lambda x: 1.0 + np.cos(TWO_PI * x))
        with pytest.raises(NonZeroMean):
            seed(u0, 16)


class TestRiccatiLimit:
    def test_pure_riccati_on_zero_field(self):
        # u = 0 solves the PDE, so V' = -V^2 exactly: V(t) = v0/(1 + v0 t)
        dt = 1e-3
        provider = CoSteppingProvider(zero_field(), 1.0, 0.5 * dt)
        v0 = np.array([1.0, 2.0, -0.25])
        ens = CharacteristicEnsemble(
            xi=np.array([0.0, 0.25, 0.5]), x=np.array([0.0, 0.25, 0.5]),
            u=np.zeros(3), v=v0.copy(), t=0.0)
        for _ in range(1000):
            ens = advance(ens, provider, dt, 1.0)
        expect = v0 / (1.0 + v0 * ens.t)
        assert ens.t == pytest.approx(1.0)
        assert np.max(np.abs(ens.v - expect)) < 1e-11
        assert np.max(np.abs(ens.x - ens.xi)) < 1e-13
        assert np.max(np.abs(ens.u)) < 1e-13


class TestProvider:
    def test_off_lattice_time_rejected(self):
        provider = CoSteppingProvider(zero_field(), 1.0, 0.5)
        with pytest.raises(ProviderGap):
            provider.fields_at(0.3)

    def test_stale_time_rejected(self):
        provider = CoSteppingProvider(zero_field(), 1.0, 0.5)
        provider.advance_to(10)
        with pytest.raises(ProviderGap):
            provider.fields_at(0.0)

    def test_recent_history_kept(self):
        provider = CoSteppingProvider(zero_field(), 1.0, 0.5)
        provider.advance_to(4)
        u, g = provider.fields_at(1.0)   # idx 2 = index - 2: still cached
        assert np.all(u.values == 0.0) and np.all(g.values == 0.0)


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
        u = two_mode_quantities(0.05, 0.0).sample(PeriodicGrid(64))
        rec = SimulationRecord(
            config=cfg, times=times, min_ux=-1.0 / (2.0 - times),
            max_ux=0.5 / (2.0 - times), sup_abs_u=zeros + 0.05,
            mass_drift=zeros, q_drift=zeros, e_drift=zeros,
            terminated=Termination.SlopeBlowup,
            initial_conserved=conserved_quantities(u, 1.0))
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

    def test_sample_times_align(self, coevolved):
        record, trace = coevolved
        assert np.array_equal(record.times, trace.times)
        assert record.terminated is Termination.Horizon

    def test_sample_times_are_step_multiples(self, coevolved):
        record, trace = coevolved
        steps = np.arange(len(trace.times)) * 10
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


class TestBreakingEnsemble:
    def test_slope_blowup_before_v_overflows(self):
        # the ensemble's V runs to -inf near t = 3.2, well ahead of the grid
        # slope at n = 256; min V is checked every step, so the run stops at
        # stop_slope with sup|u| inside its bound
        cfg = SimulationConfig(two_mode_quantities(0.05, 0.0), n=256,
                               dt=1e-3, t_max=5.0, stop_slope=-30.0)
        record, trace = co_evolve(cfg, n_xi=32)
        assert record.terminated is Termination.SlopeBlowup
        assert trace.min_v[-1] <= -30.0
        assert 3.0 < trace.times[-1] < 3.3
        d = cfg.initial
        assert np.all(record.sup_abs_u
                      <= d.sup_abs + record.times * d.l2 + 1e-6)
