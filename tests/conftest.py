"""Shared fixtures.

The three breaking runs and the small-amplitude control are expensive
(seconds to minutes), so they are session-scoped and computed on first use;
test files that never touch them stay fast.
"""
import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from ohlab import SimulationConfig, simulate, two_mode_quantities
from ohlab.characteristics import co_evolve
from ohlab.evolution import estimate_blowup

settings.register_profile(
    "ohlab",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ohlab")


@pytest.fixture(scope="session")
def case1_run():
    # steepest of the three reference runs; breaks near t = 3.2
    cfg = SimulationConfig(initial=two_mode_quantities(0.05, 0.0),
                           n=4096, dt=1e-3, t_max=25.0)
    return simulate(cfg)


@pytest.fixture(scope="session")
def case1_est(case1_run):
    return estimate_blowup(case1_run)


@pytest.fixture(scope="session")
def case1_smoke_run():
    cfg = SimulationConfig(initial=two_mode_quantities(0.05, 0.0),
                           n=1024, dt=1e-3, t_max=25.0)
    return simulate(cfg)


@pytest.fixture(scope="session")
def case2_run():
    cfg = SimulationConfig(initial=two_mode_quantities(0.01, 0.005),
                           n=4096, dt=1e-3, t_max=25.0)
    return simulate(cfg)


@pytest.fixture(scope="session")
def case2_est(case2_run):
    return estimate_blowup(case2_run)


@pytest.fixture(scope="session")
def case3_run():
    # thinnest breaking front of the three; needs the finer grid.  The run
    # stops when the grid loses the front near min u_x = -20, ahead of the
    # stop level of -100 that configs/breaking_a0_b005.cfg sets
    cfg = SimulationConfig(initial=two_mode_quantities(0.0, 0.005),
                           n=8192, dt=5e-4, t_max=25.0, stop_slope=-100.0)
    return simulate(cfg)


@pytest.fixture(scope="session")
def case3_est(case3_run):
    return estimate_blowup(case3_run)


@pytest.fixture(scope="session")
def control_run():
    # amplitude small enough that no breaking occurs over the horizon
    cfg = SimulationConfig(initial=two_mode_quantities(0.005, 0.0),
                           n=4096, dt=1e-3, t_max=20.0, stride=10)
    return simulate(cfg)


@pytest.fixture(scope="session")
def coevolved():
    cfg = SimulationConfig(initial=two_mode_quantities(0.005, 0.0),
                           n=1024, dt=1e-3, t_max=10.0)
    return co_evolve(cfg, n_xi=256, sample_stride=10)


def resolved_band(record, floor=-10.0):
    """Indices where the slope minimum is still shallow enough that the
    breaking front spans several grid cells."""
    return np.nonzero(record.min_ux >= floor)[0]


# ---------------------------------------------------------------------------
# acceptance reporting: every acceptance test funnels its verdict through the
# `acceptance` fixture so the run ends with one visible line per criterion

_ACCEPTANCE_LINES = []


@pytest.fixture
def acceptance():
    def report(label, ok, detail):
        line = f"ACCEPTANCE {label}: {'PASS' if ok else 'FAIL'} - {detail}"
        _ACCEPTANCE_LINES.append(line)
        print(line)
        assert ok, line
    return report


def pytest_terminal_summary(terminalreporter):
    if _ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in _ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
