"""Numerical laboratory for wave breaking in the Ostrovsky-Hunter equation
u_t + u u_x = gamma * dx^-1 u on the unit circle: pseudo-spectral evolution,
analytic breaking criteria, characteristic tracking, blow-up time regression,
and periodic traveling waves.

`import ohlab` loads no submodule: each export below is imported from its
home module the first time it is read (PEP 562), so a workflow pays only
for the modules it uses."""

import importlib

# home module -> the names it exports
_HOMES = {
    "criteria": ("CriterionReport", "LineData", "all_reports",
                 "characteristics_criterion", "cubic_criterion_one",
                 "cubic_criterion_two", "find_t1", "hunter_criterion",
                 "line_criterion"),
    "evolution": ("BlowupEstimate", "SimulationConfig", "SimulationRecord",
                  "Termination", "estimate_blowup", "simulate"),
    "fourier": ("PeriodicField", "PeriodicGrid", "spectral_derivative"),
    "initial": ("InitialData", "frequency_scaled", "sampled_data",
                "two_mode_quantities"),
}
_HOME_OF = {name: module for module, names in _HOMES.items()
            for name in names}

__all__: list[str] = sorted(_HOME_OF)

__version__ = "0.1.0"


def __getattr__(name):
    if name not in _HOME_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    home = importlib.import_module(f".{_HOME_OF[name]}", __name__)
    value = getattr(home, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
