"""meanbound: bivariate means, trigonometric kernels, and certified sharp bounds.

The package evaluates eight means of two positive reals, the four
monotone kernel functions h1..h4 that the sharp-bounds reductions rest
on (with cancellation-safe series branches near 0), and the seven named
double inequalities with their best-possible convex-combination
constants, recovered in closed form, re-derived numerically, and
certified on large deterministic samples.
"""

from .bernoulli import BernoulliTable, bernoulli_table
from .bounds import (
    SPECS,
    CertificationReport,
    InequalitySpec,
    SharpBounds,
    certify,
    certify_many,
    equivalence_check,
    numeric_extrema,
    ratio,
    ratio_via_kernel,
    sharp_bounds,
)
from .errors import ConvergenceError, DegeneratePairError, DomainError, MeanBoundError
from .kernels import (
    H_INFO,
    HFunctionId,
    HFunctionInfo,
    SeriesEvaluation,
    X_SWITCH,
    csc_coefficients,
    cot_coefficients,
    csc_sq_coefficients,
    csc_series,
    cot_series,
    csc_sq_series,
    default_table,
    h1_coefficients,
    h3_coefficients,
    h_eval,
    h_limit,
)
from .means import MeanKind, PositivePair, eval_mean, half_sum_ratio, seiffert_p_arctan_form

__version__ = "1.0.0"

__all__ = [
    "BernoulliTable",
    "CertificationReport",
    "ConvergenceError",
    "DegeneratePairError",
    "DomainError",
    "H_INFO",
    "HFunctionId",
    "HFunctionInfo",
    "InequalitySpec",
    "MeanBoundError",
    "MeanKind",
    "PositivePair",
    "SPECS",
    "SeriesEvaluation",
    "SharpBounds",
    "X_SWITCH",
    "bernoulli_table",
    "certify",
    "certify_many",
    "csc_coefficients",
    "csc_series",
    "csc_sq_coefficients",
    "csc_sq_series",
    "cot_coefficients",
    "cot_series",
    "default_table",
    "equivalence_check",
    "eval_mean",
    "h1_coefficients",
    "h3_coefficients",
    "h_eval",
    "h_limit",
    "half_sum_ratio",
    "numeric_extrema",
    "ratio",
    "ratio_via_kernel",
    "seiffert_p_arctan_form",
    "sharp_bounds",
    "__version__",
]
