"""Closed-form large-r expansions of log F and the counting statistics.

Two regimes are covered, distinguished by the weights:

* all weights positive: log F grows linearly in r, with a log r
  correction and an O(1) constant built from Barnes-G pairs;
* exactly one weight zero (a hard gap on interval p), the others positive:
  the Gaussian-decay gap law -r^2 (x_p - x_{p-1})^2 / 8 leads, decorated
  by square-root interactions with the surviving intervals.

Both expansions are the cumulant generating function of the counts
truncated at second order, derived here from the statistics functions
instead of being written out again:

    positive:  log F = u . mu + (1/2) u^T Sigma u + Barnes-G pairs,
    one zero:  log F = gap law + signed u . mu_hat + (1/2) u^T Sigma_hat u
                       + Barnes-G pairs,

with (mu, Sigma) from `counting_stats` (the nested counts
N_(r x_0, r x_j)) and (mu_hat, Sigma_hat) from `conditional_stats` (the
counts conditioned on the hard gap).  The interval geometry is written
in those two functions only: the nested counts' is each endpoint's
distance to x_0, and the conditioned one is two distances per endpoint,
to each end of the gap, taken once and shared by mu_hat, sigma_hat^2
and every Sigma_hat pair.  `dyson_gap_log` and `basor_widom_log`, the
m = 1 laws, are coded on their own as an independent check.

Every expansion is returned as an ExpansionBreakdown splitting the value
into the r^2, r, log r and constant contributions, so convergence studies
can attribute the error.  The statistics have mu(r) = r mu(1) and
Sigma(r) = Sigma(1) + log r (dSigma / dlog r), so the r slot is
r (u . mu(1)), the log-r slot (1/2) u^T (Sigma(r) - Sigma(1)) u and the
constant slot (1/2) u^T Sigma(1) u plus the Barnes-G pairs: a term
c log(2 r d) lands as c log r in the log-r slot and c log(2 d) in the
constant slot.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import NumericalError, ValidationError, _real
from .fredholm import IntervalPartition, _as_partition, _checked_u, reduced_indices
from .quadrature import _check_r
from .specfun import DYSON_CONSTANT, EULER_GAMMA, barnes_pair

__all__ = [
    "ExpansionBreakdown",
    "StatisticsTriple",
    "dyson_gap_log",
    "basor_widom_log",
    "positive_weights_expansion",
    "zero_weight_expansion",
    "counting_stats",
    "conditional_stats",
    "var_cov_expansion",
]

PI = math.pi
PI2 = math.pi * math.pi


@dataclass(frozen=True)
class ExpansionBreakdown:
    """One asymptotic value split by power of r.  `total` is always the
    exact float sum of the four parts; a non-finite one is a NumericalError."""

    r_squared_term: float
    r_linear_term: float
    log_r_term: float
    constant_term: float
    total: float = field(init=False)

    def __post_init__(self):
        for name in ("r_squared_term", "r_linear_term", "log_r_term", "constant_term"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise NumericalError(f"{name} is not finite: {v!r}")
        object.__setattr__(
            self,
            "total",
            self.r_squared_term + self.r_linear_term + self.log_r_term + self.constant_term,
        )


@dataclass(frozen=True)
class StatisticsTriple:
    """Per-interval means plus the covariance matrix.

    `labels[i]` names the endpoint index j behind row i (counts live on
    the nested intervals (r x_0, r x_j), or on the intervals away from the
    gap for the conditional variants).  `cross` is symmetric with the
    variances on its diagonal, which `sigma2` reads.
    """

    mu: np.ndarray
    cross: np.ndarray
    labels: tuple[int, ...]

    def __post_init__(self):
        self.mu.setflags(write=False)
        self.cross.setflags(write=False)

    @property
    def sigma2(self) -> np.ndarray:
        """The variances, a read-only view of the diagonal of `cross`."""
        return np.diagonal(self.cross)


def _checked_arithmetic(fn):
    """`fn`, with every ArithmeticError turned into NumericalError (numpy's
    overflow, invalid value and division by zero, `math.pow`'s overflow,
    a float division by zero), and so is `math`'s domain error, the log or
    square root of a value that underflowed: a ValueError that is not a
    ValidationError, which passes through as it is.  So does a
    NumericalError, which names the checked function that raised it."""

    @functools.wraps(fn)
    def checked(*args, **kwargs):
        try:
            with np.errstate(over="raise", invalid="raise", divide="raise"):
                return fn(*args, **kwargs)
        except (ValidationError, NumericalError):
            raise
        except (ArithmeticError, ValueError) as exc:
            raise NumericalError(f"{fn.__name__} leaves double precision: {exc}") from None

    return checked


@_checked_arithmetic
def dyson_gap_log(r: float, x0: float, x1: float) -> ExpansionBreakdown:
    """Gap law for a single empty interval (m = 1, s = 0):

        log F = -r^2 (x1-x0)^2 / 8 - (1/4) log(r (x1-x0))
                + (1/3) log 2 + 3 zeta'(-1) + O(1/r).

    Depends on r and x1 - x0 only.
    """
    r = _check_r(r)
    (length,) = IntervalPartition((x0, x1)).lengths
    return ExpansionBreakdown(
        r_squared_term=-math.pow(r * length, 2) / 8.0,
        r_linear_term=0.0,
        log_r_term=-0.25 * math.log(r),
        constant_term=-0.25 * math.log(length) + DYSON_CONSTANT,
    )


def basor_widom_log(r: float, x0: float, x1: float, u1: float) -> ExpansionBreakdown:
    """Single-interval law for a positive weight s_1 = e^{u1}:

        log F = r u1 (x1-x0) / pi + (u1^2 / (2 pi^2)) log(2 r (x1-x0))
                + 2 log[G(1 + u1/(2 pi i)) G(1 - u1/(2 pi i))] + O(1/r).
    """
    r = _check_r(r)
    (length,) = IntervalPartition((x0, x1)).lengths
    u1 = _real(u1, "u1")
    c = u1 * u1 / (2.0 * PI2)
    return ExpansionBreakdown(
        r_squared_term=0.0,
        r_linear_term=r * u1 * length / PI,
        log_r_term=c * math.log(r),
        constant_term=c * math.log(2.0 * length) + 2.0 * barnes_pair(u1),
    )


def _cumulant_terms(at_one, at_r, u, r: float, signs=1.0) -> tuple[float, float, float]:
    """The r, log r and constant parts of (signs u) . mu + (1/2) u^T Sigma u,
    from the statistics at 1 and at r.  All of them have mu = r mu(1) and
    Sigma = Sigma(1) + log r (dSigma / dlog r)."""
    return (
        r * float(np.dot(signs * u, at_one.mu)),
        0.5 * float(u @ (at_r.cross - at_one.cross) @ u),
        0.5 * float(u @ at_one.cross @ u),
    )


@_checked_arithmetic
def positive_weights_expansion(partition, u: Sequence[float], r: float) -> ExpansionBreakdown:
    """Large-r law of log F for all-positive weights, parameterized by the
    log-ratios u_j = log(s_j / s_{j+1}), j = 1..m (s_{m+1} = 1):

        log F = u . mu + (1/2) u^T Sigma u
              + sum_j pair(u_j) + pair(sum_j u_j) + O(log r / r),

    with (mu, Sigma) = `counting_stats` (mu = mean, Sigma = `cross`) and
    pair(u) = log[G(1 + u/(2 pi i)) G(1 - u/(2 pi i))].
    """
    partition = _as_partition(partition)
    r = _check_r(r)
    u = _checked_u(u, partition.m)
    linear, log_r, constant = _cumulant_terms(
        counting_stats(partition, 1.0), counting_stats(partition, r), u, r
    )
    constant += math.fsum(barnes_pair(float(uj)) for uj in u)
    constant += barnes_pair(float(np.sum(u)))
    return ExpansionBreakdown(
        r_squared_term=0.0,
        r_linear_term=linear,
        log_r_term=log_r,
        constant_term=constant,
    )


@_checked_arithmetic
def zero_weight_expansion(partition, p: int, u: Sequence[float], r: float) -> ExpansionBreakdown:
    """Large-r law of log F with a hard gap on interval p (s_p = 0).

    `u` holds the m - 1 finite log-ratios u_j = log(s_j / s_{j+1}) for
    j in {0..m} minus {p-1, p} in increasing j, with s_0 = s_{m+1} = 1.
    Writing g = x_p - x_{p-1}:

        log F = -r^2 g^2 / 8 - (1/4) log(r g) + (1/3) log 2 + 3 zeta'(-1)
              + sum_j sign_j u_j mu_hat_j + (1/2) u^T Sigma_hat u
              + sum_j pair(u_j) + O(log r / r),

    with (mu_hat, Sigma_hat) = `conditional_stats`, sign_j = -1 left of
    the gap (j <= p - 2) and +1 right of it (j >= p + 1).  For m = 1 the
    sums are empty and this is exactly the single-gap law.
    """
    partition = _as_partition(partition)
    r = _check_r(r)
    at_one = conditional_stats(partition, p, 1.0)
    u = _checked_u(u, partition.m, p)
    signs = np.array([1.0 if j > p else -1.0 for j in at_one.labels])
    linear, log_r, constant = _cumulant_terms(
        at_one, conditional_stats(partition, p, r), u, r, signs
    )
    gap = partition.endpoints[p] - partition.endpoints[p - 1]
    constant += -0.25 * math.log(gap) + DYSON_CONSTANT
    constant += math.fsum(barnes_pair(float(uj)) for uj in u)
    return ExpansionBreakdown(
        r_squared_term=-math.pow(r * gap, 2) / 8.0,
        r_linear_term=linear,
        log_r_term=log_r - 0.25 * math.log(r),
        constant_term=constant,
    )


@_checked_arithmetic
def counting_stats(partition, r: float) -> StatisticsTriple:
    """Leading-order statistics of the nested counts N_(r x_0, r x_j):

        mu_j    = r (x_j - x_0) / pi
        sigma_j^2 = log(2 r (x_j - x_0)) / pi^2
        Sigma_jk  = log(2 r (x_j - x_0)(x_k - x_0) / |x_k - x_j|) / (2 pi^2)

    for j, k = 1..m, j != k.  The diagonal of `cross` carries sigma_j^2.
    """
    partition = _as_partition(partition)
    r = _check_r(r)
    x = partition.as_array()
    d = x[1:] - x[0]

    mu = r * d / PI
    cross = np.diag(np.log(2.0 * r * d) / PI2)
    for j, k in itertools.combinations(range(partition.m), 2):
        v = math.log(2.0 * r * d[j] * d[k] / abs(x[k + 1] - x[j + 1])) / (2.0 * PI2)
        cross[j, k] = cross[k, j] = v
    return StatisticsTriple(mu=mu, cross=cross, labels=tuple(range(1, partition.m + 1)))


@_checked_arithmetic
def conditional_stats(partition, p: int, r: float) -> StatisticsTriple:
    """Statistics of the counts conditioned on a hard gap on interval p.

    For j in {0..m} minus {p-1, p} (labels), with g = x_p - x_{p-1} and
    each endpoint's distances R_j = |x_j - x_p| and L_j = |x_j - x_{p-1}|
    to the two ends of the gap:

        mu_hat_j     = (r/pi) sqrt(R_j L_j)
        sigma_hat_j^2 = log(4 sqrt(R_j L_j) |2 x_j - x_p - x_{p-1}| r / g) / (2 pi^2)
        Sigma_hat_jk  = log((a + b)/|a - b|) / (2 pi^2)   (r-independent),

    where a = sqrt(R_k L_j), b = sqrt(L_k R_j).  |2 x_j - x_p - x_{p-1}|
    is R_j + L_j, but that sum rounds differently, so it is taken from x.
    Note label j = 0 is meaningful here: it indexes the ratio
    u_0 = -log s_1 across the left boundary.
    """
    partition = _as_partition(partition)
    r = _check_r(r)
    idx = reduced_indices(partition.m, p)
    x = partition.as_array()
    right = [abs(x[j] - x[p]) for j in idx]
    left = [abs(x[j] - x[p - 1]) for j in idx]
    root = [math.sqrt(rj * lj) for rj, lj in zip(right, left)]

    mu = np.array([r / PI * v for v in root])
    cross = np.diag(
        [
            math.log(4.0 * v * abs(2.0 * x[j] - x[p] - x[p - 1]) * r / (x[p] - x[p - 1])) / (2.0 * PI2)
            for j, v in zip(idx, root)
        ]
    )
    for j, k in itertools.combinations(range(len(idx)), 2):
        a = math.sqrt(right[k] * left[j])
        b = math.sqrt(left[k] * right[j])
        cross[j, k] = cross[k, j] = math.log((a + b) / abs(a - b)) / (2.0 * PI2)
    return StatisticsTriple(mu=mu, cross=cross, labels=idx)


def var_cov_expansion(partition, r: float) -> StatisticsTriple:
    """Variance and covariance of the nested counts including the
    constant correction:

        Var[N_j]      = sigma_j^2(r) + (1 + gamma_E)/pi^2 + O(1/r)
        Cov[N_j, N_k] = Sigma_jk(r) + (1 + gamma_E)/(2 pi^2) + O(log r / r).

    The means carry no correction: E[N_j] = r (x_j - x_0)/pi exactly.
    """
    base = counting_stats(partition, r)
    var_off = (1.0 + EULER_GAMMA) / PI2
    cov_off = (1.0 + EULER_GAMMA) / (2.0 * PI2)
    cross = base.cross + cov_off
    np.fill_diagonal(cross, base.sigma2 + var_off)
    return StatisticsTriple(mu=base.mu.copy(), cross=cross, labels=base.labels)
