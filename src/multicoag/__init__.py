"""Multicomponent coagulation with a bilinear collision kernel.

Three independent routes to the pre-gel cluster-size distribution (a
truncated ODE system, an exact combinatorial formula through a branching
process, and direct Monte Carlo on that process), a spectral formula for
the gelation time, and a convex rate-function minimization that finds
the composition direction along which large clusters concentrate.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .errors import (
    CoagulationError,
    ConvergenceError,
    CriticalityError,
    HypothesisError,
    IntegrationError,
    NumericalBreakdownError,
    SpecValidationError,
)
from .model import (
    Composition,
    ModelSpec,
    SizeDistribution,
    ValidationReport,
    as_composition,
    composition_size,
    compositions_up_to,
    kernel,
    mass_vector,
    validate,
    write_distribution_csv,
)
from .pgf import (
    BlockCriticality,
    FixedPointResult,
    GelationReport,
    gelation_time,
    solve_fixed_point,
)
from .analytic import (
    ProgenyValue,
    progeny_pmf,
    solve,
    solve_detail,
    solve_log,
    solve_window,
)
from .ode import (
    OdeConfig,
    OdeSnapshot,
    TruncationWindow,
    derivative,
    integrate,
)
from .branching_mc import (
    McConfig,
    McPmfEstimate,
    estimate_pmf,
    sample_progeny_batch,
)
from .localization import (
    LocalizationResult,
    RateSequence,
    as_simplex_point,
    empirical_rate,
    gamma,
    gamma_gradient,
    minimize_gamma,
    sigma,
)

__all__ = [
    "__version__",
    "CoagulationError",
    "ConvergenceError",
    "CriticalityError",
    "HypothesisError",
    "IntegrationError",
    "NumericalBreakdownError",
    "SpecValidationError",
    "Composition",
    "ModelSpec",
    "SizeDistribution",
    "ValidationReport",
    "as_composition",
    "borel_oracle",
    "composition_size",
    "compositions_up_to",
    "kernel",
    "mass_vector",
    "validate",
    "write_distribution_csv",
    "BlockCriticality",
    "FixedPointResult",
    "GelationReport",
    "gelation_time",
    "pde_residual",
    "solve_fixed_point",
    "ProgenyValue",
    "progeny_pmf",
    "series_oracle",
    "solve",
    "solve_detail",
    "solve_log",
    "solve_window",
    "OdeConfig",
    "OdeSnapshot",
    "TruncationWindow",
    "derivative",
    "integrate",
    "McConfig",
    "McPmfEstimate",
    "estimate_pmf",
    "sample_progeny_batch",
    "LocalizationResult",
    "RateSequence",
    "as_simplex_point",
    "empirical_rate",
    "gamma",
    "gamma_gradient",
    "minimize_gamma",
    "sigma",
]


_ORACLES = ("borel_oracle", "pde_residual", "series_oracle")


def __getattr__(name: str):
    """Load multicoag.oracles, which the runtime never calls, on first use of an oracle."""
    if name in _ORACLES:
        from . import oracles
        return getattr(oracles, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
