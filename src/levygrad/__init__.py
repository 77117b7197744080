"""Monte Carlo gradient estimation for SDEs driven by time-changed Brownian motion.

The package simulates dX_t = b_t(X_t) dt + sigma_t(X_t) dW_{S_t}, where the
clock S is an increasing pure-jump Levy process, and evaluates an unbiased
Malliavin-weight estimator of directional semigroup gradients grad_v P_t f
for bounded measurable f, together with independent oracles (plain semigroup
estimation, finite differences with common random numbers, isometry and
truncation identities) used to validate it.
"""

from .subordinator import (
    BernsteinSpec,
    JumpPath,
    sample_terminal_values,
    truncate_jumps,
    inverse_moment,
    tail_mass,
    dropped_mass_rate,
    default_eps_cut,
    stable_median_s1,
)
from .coefficients import CoefficientField, catalog
from .engine import BlowUpError, sample_jump_path
from .bismut import (
    ClockSpec,
    estimate_gradient,
    estimate_gradient_fixed_clock,
    default_level_R,
)
from .results import EstimatorResult, ComparisonReport, compare
from .validate import (
    make_observable,
    estimate_pt,
    fd_gradient,
    check_gradient_bound,
    counterexample_moments,
    burkholder_isometry_check,
    truncation_convergence_check,
)
from .streams import substream

__version__ = "0.1.0"

__all__ = [
    "BernsteinSpec",
    "JumpPath",
    "sample_jump_path",
    "sample_terminal_values",
    "truncate_jumps",
    "inverse_moment",
    "tail_mass",
    "dropped_mass_rate",
    "default_eps_cut",
    "stable_median_s1",
    "CoefficientField",
    "catalog",
    "BlowUpError",
    "ClockSpec",
    "estimate_gradient",
    "estimate_gradient_fixed_clock",
    "default_level_R",
    "EstimatorResult",
    "ComparisonReport",
    "compare",
    "make_observable",
    "estimate_pt",
    "fd_gradient",
    "check_gradient_bound",
    "counterexample_moments",
    "burkholder_isometry_check",
    "truncation_convergence_check",
    "substream",
]
