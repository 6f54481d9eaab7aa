"""Gap probabilities and counting statistics of the sine point process.

The central object is the generating function

    F(x, s; r) = E[ prod_k s_k^{N_k} ],   N_k = #points in (r x_{k-1}, r x_k),

a Fredholm determinant of the sine kernel restricted to a union of
scaled intervals.  The package evaluates F numerically (Nystrom
discretization, `fredholm_det`; `Discretization` builds the kernel once
for many weights), evaluates its large-r expansions in
closed form (`positive_weights_expansion` for all weights positive,
`zero_weight_expansion` when one weight vanishes), and extracts count
distributions and moments (`joint_pmf`, `counting_stats`,
`numerical_cumulants`).  A CLI (`python -m sinegap` or the `sinegap`
script) exposes the same operations as reproducible batch jobs.
"""

from .asymptotics import (
    ExpansionBreakdown,
    StatisticsTriple,
    basor_widom_log,
    conditional_stats,
    counting_stats,
    dyson_gap_log,
    positive_weights_expansion,
    var_cov_expansion,
    zero_weight_expansion,
)
from .counting import (
    JointPMF,
    conditional_zero_probability,
    joint_pmf,
    numerical_cumulants,
    thinned_gap_probability,
)
from .errors import NumericalError, ValidationError
from .fredholm import (
    DeterminantResult,
    Discretization,
    IntervalPartition,
    WeightConfiguration,
    fredholm_det,
    reduced_indices,
    series_det,
    sine_kernel,
)
from .quadrature import CompositeRule, QuadratureRule, composite_rule, gauss_legendre
from .specfun import (
    CONSTANTS,
    DYSON_CONSTANT,
    EULER_GAMMA,
    ZETA_PRIME_MINUS_ONE,
    ConstantTable,
    barnes_pair,
    log_barnes_g,
    log_gamma,
    zeta_int,
)

__version__ = "0.1.0"

__all__ = [
    "CONSTANTS",
    "DYSON_CONSTANT",
    "EULER_GAMMA",
    "ZETA_PRIME_MINUS_ONE",
    "CompositeRule",
    "ConstantTable",
    "DeterminantResult",
    "Discretization",
    "ExpansionBreakdown",
    "IntervalPartition",
    "JointPMF",
    "NumericalError",
    "QuadratureRule",
    "StatisticsTriple",
    "ValidationError",
    "WeightConfiguration",
    "barnes_pair",
    "basor_widom_log",
    "composite_rule",
    "conditional_stats",
    "conditional_zero_probability",
    "counting_stats",
    "dyson_gap_log",
    "fredholm_det",
    "gauss_legendre",
    "joint_pmf",
    "log_barnes_g",
    "log_gamma",
    "numerical_cumulants",
    "positive_weights_expansion",
    "reduced_indices",
    "series_det",
    "sine_kernel",
    "thinned_gap_probability",
    "var_cov_expansion",
    "zero_weight_expansion",
    "zeta_int",
]
