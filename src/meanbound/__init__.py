"""meanbound: bivariate means, trigonometric kernels, and certified sharp bounds.

The package evaluates eight means of two positive reals, the four
monotone kernel functions h1..h4 that the sharp-bounds reductions rest
on (with cancellation-safe series branches near 0), and the seven named
double inequalities with their best-possible convex-combination
constants, taken exactly from the means' end values, re-derived
numerically, and certified on large deterministic samples.
"""

from . import bernoulli, bounds, errors, kernels, means
from .bernoulli import *  # noqa: F403
from .bounds import *  # noqa: F403
from .errors import *  # noqa: F403
from .kernels import *  # noqa: F403
from .means import *  # noqa: F403

__version__ = "1.0.0"

__all__ = [
    *bernoulli.__all__, *bounds.__all__, *errors.__all__, *kernels.__all__, *means.__all__,
    "__version__",
]
