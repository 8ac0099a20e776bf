"""Numerical laboratory for wave breaking in the Ostrovsky-Hunter equation
u_t + u u_x = gamma * dx^-1 u on the unit circle: pseudo-spectral evolution,
analytic breaking criteria, characteristic tracking, blow-up time regression,
and periodic traveling waves."""

from .criteria import (CriterionReport, LineData, all_reports,
                       characteristics_criterion, cubic_criterion_one,
                       cubic_criterion_two, find_t1, hunter_criterion,
                       line_criterion)
from .evolution import (BlowupEstimate, SimulationConfig, SimulationRecord,
                        Termination, estimate_blowup, simulate)
from .fourier import PeriodicField, PeriodicGrid, spectral_derivative
from .initial import (InitialData, frequency_scaled, sampled_data,
                      two_mode_quantities)

__all__ = [
    "BlowupEstimate", "CriterionReport", "InitialData", "LineData",
    "PeriodicField", "PeriodicGrid", "SimulationConfig", "SimulationRecord",
    "Termination", "all_reports", "characteristics_criterion",
    "cubic_criterion_one", "cubic_criterion_two", "estimate_blowup",
    "find_t1", "frequency_scaled", "hunter_criterion", "line_criterion",
    "sampled_data", "simulate", "spectral_derivative", "two_mode_quantities",
]

__version__ = "0.1.0"
