"""Gap probabilities and counting statistics of the sine point process.

The central object is the generating function

    F(x, s; r) = E[ prod_k s_k^{N_k} ],   N_k = #points in (r x_{k-1}, r x_k),

a Fredholm determinant of the sine kernel restricted to a union of
scaled intervals.  The package evaluates F numerically (Nystrom
discretization, `fredholm_det`; `Discretization` builds the rule once
for many weights), evaluates its large-r expansions in
closed form (`positive_weights_expansion` for all weights positive,
`zero_weight_expansion` when one weight vanishes), and extracts count
distributions and moments (`joint_pmf`, `counting_stats`,
`numerical_cumulants`).  A CLI (`python -m sinegap` or the `sinegap`
script) exposes the same operations as reproducible batch jobs.
"""

from . import asymptotics, counting, errors, fredholm, quadrature, specfun
from .asymptotics import *
from .counting import *
from .errors import *
from .fredholm import *
from .quadrature import *
from .specfun import *

__version__ = "0.1.0"

__all__ = [
    *asymptotics.__all__,
    *counting.__all__,
    *errors.__all__,
    *fredholm.__all__,
    *quadrature.__all__,
    *specfun.__all__,
]
