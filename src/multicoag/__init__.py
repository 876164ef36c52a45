"""Multicomponent coagulation with a bilinear collision kernel.

Three independent routes to the pre-gel cluster-size distribution (a
truncated ODE system, an exact combinatorial formula through a branching
process, and direct Monte Carlo on that process), a spectral formula for
the gelation time, and a convex rate-function minimization that finds
the composition direction along which large clusters concentrate.

``import multicoag`` loads no submodule: each public name loads its module
on first use, so a caller pays only for the modules it runs.
"""

from __future__ import annotations

from importlib import import_module

__version__ = "0.1.0"

# (module, its public names), in the order of __all__; each oracle sits next
# to the names it checks
_PUBLIC = (
    ("errors", ("CoagulationError", "ConvergenceError", "CriticalityError", "HypothesisError",
                "IntegrationError", "NumericalBreakdownError", "SpecValidationError")),
    ("model", ("Composition", "ModelSpec", "SizeDistribution", "as_composition")),
    ("oracles", ("borel_oracle",)),
    ("model", ("compositions_up_to", "mass_vector", "validate", "write_distribution_csv")),
    ("pgf", ("BlockCriticality", "FixedPointResult", "GelationReport", "gelation_time")),
    ("oracles", ("pde_residual",)),
    ("pgf", ("solve_fixed_point",)),
    ("analytic", ("ProgenyValue", "progeny_pmf")),
    ("oracles", ("series_oracle",)),
    ("analytic", ("solve", "solve_detail", "solve_window")),
    ("ode", ("OdeConfig", "OdeSnapshot", "TruncationWindow", "derivative", "integrate")),
    ("branching_mc", ("McConfig", "McPmfEstimate", "estimate_pmf", "sample_progeny_batch")),
    ("localization", ("LocalizationResult", "RateSequence", "as_simplex_point",
                      "empirical_rate", "gamma", "gamma_gradient", "minimize_gamma", "sigma")),
)
_HOME = {name: module for module, names in _PUBLIC for name in names}

__all__ = ["__version__", *_HOME]


def __getattr__(name: str):
    """Load the module that defines a public name on its first use, and keep the name here."""
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_HOME[name]}", __name__), name)
    return value


def __dir__() -> list[str]:
    return list(__all__)
