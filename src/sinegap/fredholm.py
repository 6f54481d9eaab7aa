"""Weighted multi-interval sine-kernel determinants.

For a partition x_0 < x_1 < ... < x_m, weights s = (s_1, ..., s_m) and a
scale r > 0, this module evaluates

    F = det(I - sum_k (1 - s_k) K restricted to (r x_{k-1}, r x_k)),

with K(x, y) = sin(x - y) / (pi (x - y)).  F is the generating function
E[prod_k s_k^{N_k}] of the interval counts of the sine point process,
for real weights s_k >= 0, where F > 0.

Evaluation is Nystrom discretization on composite Gauss-Legendre nodes
(Bornemann, Math. Comp. 79, 2010) followed by a log-determinant.  Every
Nystrom matrix is the symmetric scaling I - S D K D of I - K diag(c)
(D = diag(sqrt|c|), S = diag(sign c)).  `_scaled_kernel` fills its
diagonal blocks and those right of them from the scaled sines and cosines
of the nodes, each block as the difference of two outer products divided
by pi times the node differences, and `_log_det` factors it by Cholesky
alone, reading only that triangle: in place where
c = w (1 - s) has one sign, and for weights on both sides of 1 as the block
where c < 0 and its Schur complement, raising NumericalError where a factor
is not positive definite.  A `Discretization` holds the
weight-independent part for (partition, r, n), so each weight costs one
fill and one factorization.  A truncated series evaluation
`series_det` provides an independent cross-check route for small
instances and is deliberately kept free of any factorization.

Hard gaps.  A zeroed interval G = (r x_{p-1}, r x_p), one with
s_p = 0, is a hard gap: K on G has eigenvalues lambda_k within about
exp(-r (x_p - x_{p-1})) of 1, and rounding the assembled matrix by eps
moves log F by about eps / (1 - lambda_0), 1e-7 to 3e-6 at r = 40 for a
gap of 0.6.  Every weight configuration takes one route
(`_hard_gap_route`): of its zeroed intervals with modes
1 - lambda_k < `prolate.HARD_GAP_TAU` = 1e-4, the one with the smallest
1 - lambda_0 is deflated.  1 - lambda_k and the eigenfunctions come from
prolate spheroidal wave functions (`prolate.gap_modes`) to relative
accuracy, and the matrix factored has the same size and a condition on
that interval of about 1e4 (`_log_det`).  Inputs without such
a mode keep the plain matrix and its exact output.  A run of adjacent zero
weights is one hard gap and is merged into one interval first.  Where
the prolate values themselves lose their digits, the route raises
NumericalError (see HARD_GAP_MAX_ROUNDING).  With zeros on
separated intervals the other gaps stay in the matrix: the route raises
NumericalError where eps / (1 - lambda_0) of some zeroed interval
exceeds the same bound, and below it their `error_estimate` counts N
times the sum of those roundings for a matrix of size N.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import NumericalError, ValidationError, _integer, _reals
from .prolate import EPS, gap_modes
from .quadrature import CompositeRule, _check_order, _check_r, composite_rule

__all__ = [
    "IntervalPartition",
    "WeightConfiguration",
    "DeterminantResult",
    "Discretization",
    "sine_kernel",
    "fredholm_det",
    "series_det",
    "reduced_indices",
]

# The route raises NumericalError when the relative rounding error of
# some deflated psi_k(1), and so about twice that of its 1 - lambda_k,
# may exceed this: from half-length 26.7 on (r = 89 for a gap of 0.6;
# the bound is 8e-7 at r = 80, where n = 64 and 128 agree to 1.4e-7).
# Zeros on separated intervals raise when the factorization's rounding
# bound eps / (1 - lambda_0) of some zeroed interval exceeds it.
HARD_GAP_MAX_ROUNDING = 1e-5
# Beyond this half-length the bound above is always exceeded (it is
# already about 0.1 at half-length 36), so the route raises at once.
HARD_GAP_MAX_HALF_LENGTH = 40.0


@dataclass(frozen=True)
class IntervalPartition:
    """Strictly increasing endpoints x_0 < x_1 < ... < x_m, m >= 1.

    Zero-length intervals are rejected here, not silently collapsed later.
    """

    endpoints: tuple[float, ...]

    def __init__(self, endpoints: Sequence[float]):
        pts = _reals(endpoints, "endpoints")
        if len(pts) < 2:
            raise ValidationError(f"a partition needs at least 2 endpoints, got {len(pts)}")
        if not all(a < b for a, b in zip(pts, pts[1:])):
            raise ValidationError(f"endpoints must be strictly increasing, got {pts}")
        object.__setattr__(self, "endpoints", pts)

    @property
    def m(self) -> int:
        return len(self.endpoints) - 1

    @property
    def lengths(self) -> tuple[float, ...]:
        e = self.endpoints
        return tuple(b - a for a, b in zip(e, e[1:]))

    def as_array(self) -> np.ndarray:
        return np.array(self.endpoints, dtype=float)

    def translated(self, c: float) -> "IntervalPartition":
        return IntervalPartition(tuple(v + c for v in self.endpoints))

    def reflected(self) -> "IntervalPartition":
        return IntervalPartition(tuple(-v for v in reversed(self.endpoints)))

    def scaled(self, r: float) -> "IntervalPartition":
        return IntervalPartition(tuple(r * v for v in self.endpoints))


def reduced_indices(m: int, p: int) -> tuple[int, ...]:
    """Index set {0, ..., m} minus {p-1, p}: the weight-ratio indices that
    stay finite when s_p = 0."""
    m = _integer(m, "interval count m", 1)
    p = _integer(p, "gap index p", 1, m)
    return tuple(j for j in range(m + 1) if j not in (p - 1, p))


def _checked_u(u, size: int | None = None) -> np.ndarray:
    """The log-ratios u as a finite 1-d float array with `size` entries
    (any number of them when `size` is None)."""
    u = np.array(_reals(u, "log-ratios u"), dtype=float)
    if size is not None and u.shape != (size,):
        raise ValidationError(f"expected {size} log-ratios, got shape {u.shape}")
    return u


@dataclass(frozen=True)
class WeightConfiguration:
    """Weights s_1, ..., s_m with the boundary convention s_0 = s_{m+1} = 1.

    Entries are Python or numpy real numbers, finite and >= 0, stored as
    floats; a bool, a string or a complex value is rejected, even one
    whose imaginary part is zero.  `from_positive_u` and `from_zero_u`
    build log s from log-ratios u by cumulative sums, with log s_p = -inf
    at a zero, and take one exp of it, which raises ValidationError where
    a weight overflows.
    """

    values: tuple[float, ...]

    def __init__(self, values: Sequence[float]):
        vals = _reals(values, "weights")
        if not vals:
            raise ValidationError("at least one weight is required")
        if min(vals) < 0.0:
            raise ValidationError(f"weights must be >= 0, got {min(vals)!r}")
        object.__setattr__(self, "values", vals)

    @classmethod
    def from_positive_u(cls, u: Sequence[float]) -> "WeightConfiguration":
        """Weights from log-ratios u_j = log(s_j / s_{j+1}), all s_j > 0:
        s_j = exp(u_j + u_{j+1} + ... + u_m)."""
        u = _checked_u(u)
        return cls._from_log(np.cumsum(u[::-1])[::-1], u)

    @classmethod
    def from_zero_u(cls, u: Sequence[float], p: int, m: int) -> "WeightConfiguration":
        """Weights with s_p = 0 from the m - 1 finite log-ratios u_j,
        j in {0..m} minus {p-1, p}, listed in increasing j: s_k =
        exp(-(u_0 + ... + u_{k-1})) left of the gap and
        s_j = exp(u_j + ... + u_m) right of it."""
        reduced_indices(m, p)  # checks m and p, before u
        u = _checked_u(u, m - 1)
        left, right = u[: p - 1], u[p - 1 :]  # u_0, ..., u_{p-2} and u_{p+1}, ..., u_m
        log_s = np.concatenate((-np.cumsum(left), [-np.inf], np.cumsum(right[::-1])[::-1]))
        return cls._from_log(log_s, u)

    @classmethod
    def _from_log(cls, log_s: np.ndarray, u: np.ndarray) -> "WeightConfiguration":
        """Weights exp(log_s), with exp(-inf) = 0; raises ValidationError
        where one of them overflows."""
        try:
            with np.errstate(over="raise"):
                s = np.exp(log_s)
        except FloatingPointError:
            raise ValidationError(f"weights must be finite, but u = {u.tolist()} overflows exp") from None
        return cls(s)

    @property
    def m(self) -> int:
        return len(self.values)

    def as_array(self) -> np.ndarray:
        return np.array(self.values, dtype=float)

    def zero_indices(self) -> tuple[int, ...]:
        """1-based positions of exactly-zero weights."""
        return tuple(j + 1 for j, v in enumerate(self.values) if v == 0.0)


@dataclass(frozen=True)
class DeterminantResult:
    """log F (a float, F > 0) at the requested order, with
    |log F(n) - log F(n/2)| plus the rounding bounds that difference
    cannot show (see `fredholm_det`) as the error estimate, always finite:
    `fredholm_det` raises where the n/2 pass does not resolve the kernel."""

    log_f: float
    order_used: int
    error_estimate: float


def sine_kernel(x, y):
    """sin(x - y) / (pi (x - y)), with the diagonal limit 1/pi."""
    # This pointwise form, not the separable fill of `_scaled_kernel`, is
    # the reference that `series_det` and the tests use: it keeps its
    # relative accuracy for near-coincident x and y.
    return np.sinc(np.subtract(x, y) / math.pi) / math.pi


def _as_partition(partition) -> IntervalPartition:
    if isinstance(partition, IntervalPartition):
        return partition
    return IntervalPartition(partition)


def _matched_weights(partition: IntervalPartition, weights) -> WeightConfiguration:
    """`weights` as a WeightConfiguration with one weight per interval."""
    if not isinstance(weights, WeightConfiguration):
        weights = WeightConfiguration(weights)
    if weights.m != partition.m:
        raise ValidationError(f"{weights.m} weights for {partition.m} intervals")
    return weights


def _checked_weights(partition: IntervalPartition, weights):
    """(partition, weights) with the weights matched to the partition and
    every run of adjacent zero weights merged into one zeroed interval,
    so that a hard gap written in pieces takes the hard-gap route.  The
    operator is the same; only the quadrature differs."""
    weights = _matched_weights(partition, weights)
    vals = weights.values
    inner = {j for j in range(1, weights.m) if vals[j - 1] == 0.0 == vals[j]}
    if not inner:
        return partition, weights
    endpoints = [x for j, x in enumerate(partition.endpoints) if j not in inner]
    merged = [v for j, v in enumerate(vals) if j not in inner]
    return IntervalPartition(endpoints), WeightConfiguration(merged)


def _scaled_kernel(rule, a, b) -> np.ndarray:
    """diag(a) K diag(b) on the nodes t of the composite rule `rule`, K the
    sine kernel, from the 2N scaled sines and cosines a sin t, a cos t,
    b sin t and b cos t: the diagonal blocks and the blocks right of them
    (`rule.blocks`), with the blocks below left unset: `_log_det` factors
    from these blocks alone, and `counting.numerical_cumulants` sums their
    squares.  No caller builds the whole matrix.

    Entry (i, j) is ((a_i sin t_i)(b_j cos t_j) - (a_i cos t_i)(b_j sin t_j))
    / (pi (t_i - t_j)), and a_i b_i / pi on the diagonal.  With a = b = 1
    this is the kernel: exactly 1/pi on the diagonal, and off it within
    about 3 eps / (pi |t_i - t_j|) of the kernel at the node doubles.  That
    error is large only where the node spacing, and so the quadrature
    weight w_j, is as small, so each K_ij w_j is right to a few eps.
    Where a = b or a = -b the diagonal blocks are exactly symmetric:
    swapping i and j negates the numerator and t_i - t_j exactly.

    Each block's two products are `einsum` outer products and its
    t_i - t_j the matrix product of [t, 1] with [1; -t], each about twice
    as fast as `np.multiply.outer` and `np.subtract.outer` and the same
    bits.  A matrix product for the numerator would be faster still, but
    it may fuse a multiply with the subtraction, which rounds (i, j) and
    (j, i) differently and so loses that symmetry.
    """
    t = rule.nodes
    sin_t, cos_t = np.sin(t), np.cos(t)
    row_sin, row_cos, col_sin, col_cos = a * sin_t, a * cos_t, b * sin_t, b * cos_t
    ones = np.ones_like(t)
    row_t, col_t = np.stack((t, ones), axis=1), np.stack((ones, -t))  # products by 1: exact
    out = np.empty((len(t), len(t)))
    for rows in rule.blocks:
        cols = slice(rows.start, len(t))
        block = out[rows, cols]
        np.einsum("i,j->ij", row_sin[rows], col_cos[cols], out=block)
        scratch = np.einsum("i,j->ij", row_cos[rows], col_sin[cols])
        block -= scratch
        np.matmul(row_t[rows], col_t[:, cols], out=scratch)
        scratch *= math.pi
        np.fill_diagonal(scratch, 1.0)  # the diagonal: 0 / 1, not 0 / 0
        block /= scratch
    np.fill_diagonal(out, a * b * (1.0 / math.pi))
    return out


def _sign_ordered(rule, first) -> CompositeRule:
    """`rule` with the nodes of the intervals k where first[k] holds moved
    ahead of the rest, each group in order; blocks[k] is still interval k's."""
    order = np.argsort(~first[rule.interval_index], kind="stable")
    starts = np.argsort(order)[[b.start for b in rule.blocks]].tolist()
    blocks = tuple(slice(a, a + b.stop - b.start) for a, b in zip(starts, rule.blocks))
    return CompositeRule(rule.nodes[order], rule.weights[order], rule.interval_index[order], blocks)


class Discretization:
    """The weight-independent part of log F at order n: the composite
    Gauss-Legendre rule with n nodes per interval of the scaled partition
    (`rule`); no kernel is held.  An order n below `floor`, the largest
    ceil(r L / 2) over the intervals of length L, cannot resolve the
    kernel and raises NumericalError before anything is filled.

    Built once for (partition, r, n), it gives log F at any number of
    weights through `log_det`, each one a weight column, one fill of the
    scaled kernel and one factorization, which raises NumericalError
    where the floor holds but the matrix is still not positive definite.
    """

    def __init__(self, partition, r: float, n: int):
        self.partition = _as_partition(partition)
        self.r, self.n = _check_r(r), _check_order(n)
        e = self.partition.endpoints
        # np.ceil, not math.ceil: r L may overflow to inf, which no int holds
        need, a, b = max((np.ceil(self.r * (b - a) / 2.0), a, b) for a, b in zip(e, e[1:]))
        if self.n < need:
            raise NumericalError(
                f"order n = {self.n} cannot resolve the interval ({a:g}, {b:g}) at r = {self.r:g}:"
                f" it needs n >= ceil(r (x_j - x_(j-1)) / 2) = {need:.0f}"
            )
        self.floor = int(need)
        self.rule = composite_rule(self.partition, self.r, self.n)

    def log_det(self, weights) -> float:
        """log F at `weights` (one per interval), by the same route as
        `fredholm_det` at order n but without its n // 2 pass.  Raises
        NumericalError where `fredholm_det` would."""
        partition, weights = _checked_weights(self.partition, weights)
        if partition is not self.partition:  # merged zeros: fewer intervals, another rule
            return Discretization(partition, self.r, self.n).log_det(weights)
        gap, _ = _hard_gap_route(partition, weights, self.r)
        return _log_det(self.rule, weights, gap)


def lu_factor(a):
    """scipy.linalg.lu_factor overwriting `a`, called nowhere: bench/spans.py
    wraps this name, and its fredholm.lu metrics would read "absent" without it."""
    from scipy.linalg import lu_factor as scipy_lu_factor

    return scipy_lu_factor(a, overwrite_a=True)


def cholesky_factor(a):
    """(L, log det a) for the lower Cholesky factor L of `a` by LAPACK dpotrf,
    over the lower triangle of `a` in Fortran order (of a copy otherwise);
    raises NumericalError unless `a` is positive definite.  The first call
    loads scipy's compiled LAPACK/BLAS modules (`sinegap._lapack`, about
    5 ms), not the scipy.linalg package: the PMF, expansions and cumulants
    load neither."""
    from ._lapack import dpotrf

    factor, info = dpotrf(a, lower=1, clean=0, overwrite_a=1)
    if info > 0:
        raise NumericalError("not positive definite: the discretization does not resolve")
    return factor, 2.0 * float(np.sum(np.log(np.diagonal(factor))))


def _hard_gap_route(partition, weights, r):
    """(gap, rounding) for `weights` on `partition` at scale r.

    gap is (index of the deflated interval, its prolate modes with
    1 - lambda_k < prolate.HARD_GAP_TAU), or None for the plain matrix:
    of the zeroed intervals that have such modes, the one with the
    smallest 1 - lambda_0 is deflated, the first one on a tie.  With more
    than one zeroed interval, rounding sums eps / (1 - lambda_0) over
    every zeroed interval with modes, the deflated one included: the
    factorization's rounding moves log F by up to N times that for a
    matrix of size N.
    Raises NumericalError where a half-length exceeds
    HARD_GAP_MAX_HALF_LENGTH, where one such eps / (1 - lambda_0) exceeds
    HARD_GAP_MAX_ROUNDING (from half-length 14.1 on), or where the
    deflated modes' rounding bound does."""
    zeros = weights.zero_indices()
    found, rounding = [], 0.0
    for p in zeros:
        a, b = r * partition.endpoints[p - 1], r * partition.endpoints[p]
        c = 0.5 * (b - a)  # the half-length composite_rule maps onto
        if c > HARD_GAP_MAX_HALF_LENGTH:
            raise NumericalError(
                f"hard gap of half-length r (x_p - x_(p-1)) / 2 = {c:.6g} > {HARD_GAP_MAX_HALF_LENGTH:g}:"
                " 1 - lambda_0 ~ exp(-2c) is below what double precision resolves"
            )
        modes = gap_modes(c)
        if not modes.count:
            continue
        if len(zeros) > 1:
            bound = EPS / modes.gaps[0]
            if bound > HARD_GAP_MAX_ROUNDING:
                raise NumericalError(
                    f"zeros on separated intervals: interval {p} of half-length {modes.c:.6g} has"
                    f" 1 - lambda_0 = {modes.gaps[0]:.2e}, and the factorization's rounding bound"
                    f" eps / (1 - lambda_0) exceeds {HARD_GAP_MAX_ROUNDING:g}"
                )
            rounding += bound
        found.append((p - 1, modes))
    if not found:
        return None, 0.0
    k, modes = min(found, key=lambda gap: gap[1].gaps[0])  # min keeps the first of equals
    if modes.rounding > HARD_GAP_MAX_ROUNDING:
        raise NumericalError(
            f"hard gap of half-length {modes.c:.6g}: prolate rounding bound {modes.rounding:.2e}"
            f" exceeds {HARD_GAP_MAX_ROUNDING:g}"
        )
    return (k, modes), rounding


def _log_det(rule, weights: WeightConfiguration, gap) -> float:
    """log det(I - K diag(c)) with c = w (1 - s) on the nodes of `rule`
    and K the sine kernel; with gap = (k, modes) from `_hard_gap_route`,
    the prolate modes of interval k are deflated first.

    The matrix factored, A = I - S D K D with D = diag(sqrt|c|) and
    S = diag(sign c) on the rows, has the same determinant.  It is filled
    by `_scaled_kernel` with a = -S d and b = d, plus 1 on the diagonal;
    no kernel is built.  A has S A S = A^T, so only the diagonal blocks
    and those right of them are filled, and each Cholesky factor reads them
    from A^T: A itself where c has one sign.  Where c has both, the
    intervals M with c < 0 go ahead of the rest, P (`_sign_ordered`), and
    A_PM = -A_MP^T gives det A = det A_MM det(A_PP + X^T X), X = L_M^-1 A_MP
    with L_M the factor of A_MM = I + D_M K_MM D_M, positive definite.  Each
    factor raises NumericalError where its matrix is not, as an unresolved
    Schur complement can be, with an even count of negative eigenvalues too.

    With G the nodes of interval k (where c = w, so D_G = W^{1/2}) and R
    the rest, A = [[I - B, -E^T D_R], [-S_R D_R E, A_RR]], with
    B = W^{1/2} K_GG W^{1/2} and E = K_RG W^{1/2}.  B has eigenpairs
    (lambda_j, q_j), q = W^{1/2} psi(nodes) / sqrt(h) on the half-length
    h, and 1 - lambda_j is known to relative accuracy, so with
    B' = B - Q diag(lambda) Q^T and L = diag(lambda / (1 - lambda)),

        det = prod_j (1 - lambda_j)
              * det [[I - B', -E^T D_R],
                     [-S_R D_R E, A_RR - S_R D_R (E Q) L (E Q)^T D_R]],

    the Schur complement on G written with (I - B)^{-1} =
    (I - B')^{-1} + Q L Q^T.  D_R E is read off the blocks already
    filled: -S_R A_RG for the rows above G, -A_GR^T for those right of
    it.  The low-rank term is applied to the filled blocks only, so the
    matrix factored is as large as the plain one and keeps S A S = A^T,
    and G adds no more than 1 / prolate.HARD_GAP_TAU to its condition;
    R may hold other zeroed intervals.  G lies in P (c = w > 0).
    """
    s = weights.as_array()
    mixed = s.min() < 1.0 < s.max()
    rule = _sign_ordered(rule, s > 1.0) if mixed else rule
    c = rule.weights * (1.0 - s[rule.interval_index])
    d, sign = np.sqrt(np.abs(c)), np.sign(c)
    mat = _scaled_kernel(rule, -sign * d, d)  # S D on the rows
    mat.ravel()[:: len(c) + 1] += 1.0
    if gap is not None:
        k, modes = gap
        g = rule.blocks[k]
        # W^{1/2} psi / sqrt(h): G's nodes are the base nodes mapped onto
        # it, with weights h times the base weights
        q = modes.at_gauss_nodes(g.stop - g.start)
        lam = 1.0 - modes.gaps
        deq = np.zeros((len(c), modes.count))  # D_R E Q, and 0 on G, whose blocks it leaves as they are
        deq[: g.start] = -sign[: g.start, None] * (mat[: g.start, g] @ q)
        deq[g.stop :] = -(mat[g, g.stop :].T @ q)
        mat[g, g] += (q * lam) @ q.T  # G's block is I - B already
        left = sign[:, None] * deq * (lam / modes.gaps)
        for rows in rule.blocks:  # the blocks filled
            mat[rows, rows.start :] -= left[rows] @ deq[rows.start :].T
    at, log_m = mat.T, 0.0  # mat in Fortran order: its lower triangle holds the blocks filled
    if mixed:  # factor A_MM, and leave its Schur complement A_PP + X^T X in `at`
        from ._lapack import dsyrk, dtrsm
        nm = np.count_nonzero(c < 0.0)
        l_m, log_m = cholesky_factor(at[:nm, :nm])
        xt = dtrsm(1.0, l_m, at[nm:, :nm], side=1, lower=1, trans_a=1)  # X^T = A_MP^T L_M^-T
        at = dsyrk(1.0, xt, 1.0, at[nm:, nm:], lower=1)
    log_f = log_m + cholesky_factor(at)[1]  # one sign: A itself, in place with no copy
    return log_f if gap is None else float(np.sum(np.log(modes.gaps))) + log_f


def fredholm_det(partition, weights, r: float, n: int = 64) -> DeterminantResult:
    """log F for the weighted multi-interval sine kernel at scale r.

    `n` is the Gauss-Legendre order per interval (8 to 2048); the result is
    computed at orders n and n//2, and the modulus of the difference is
    reported as `error_estimate`, always finite.  Below ceil(r L / 2) nodes
    on an interval of length L (after adjacent zero weights are merged) a
    pass does not resolve the kernel, yet two such passes can agree:
    NumericalError is raised before anything is filled where n//2 is below
    that floor (`Discretization.floor`), so n >= 2 * floor.  Each pass is
    one fill of its scaled Nystrom matrix and one factorization
    (`_log_det`), which raises NumericalError where the matrix is not
    positive definite; neither builds the plain kernel.  Callers that do
    not need the estimate (`sinegap converge`, the gap probabilities)
    should call `Discretization(partition, r, n).log_det` instead: it
    returns the same `log_f`, bit for bit, and skips the n//2 pass.

    Real weights whose zeroed interval has half-length
    c = r (x_p - x_{p-1}) / 2 large enough that some 1 - lambda_k of the
    sine kernel on it falls below `prolate.HARD_GAP_TAU` = 1e-4 (c >= 6,
    r >= 20 for a gap of 0.6) go through the prolate deflation route
    described in the module docstring, which deflates the zeroed interval
    with the smallest 1 - lambda_0 (the first one on a tie).  The prolate modes are
    computed once and serve both orders, so `error_estimate` adds their
    rounding bound, 2 * (number of deflated modes) * `GapModes.rounding`,
    which the difference of the two orders cannot show.  That route raises
    NumericalError when c > HARD_GAP_MAX_HALF_LENGTH = 40, or when the
    rounding bound of some deflated psi_k(1) exceeds
    HARD_GAP_MAX_ROUNDING = 1e-5 (from c = 26.7 on, r = 89 for a gap of
    0.6), instead of returning digits it cannot resolve.

    Adjacent zero weights are merged into one zeroed interval before the
    route is chosen, so `(0, 0.3, 0.6)` with `(0, 0)` is the hard gap
    `(0, 0.6)`.  Zeros separated by a nonzero weight leave one hard gap
    deflated and the others in the matrix, whose rounding moves log F by up
    to N eps / (1 - lambda_0) per zeroed interval for a matrix of size N;
    `error_estimate` adds that bound, summed over every zeroed interval
    with 1 - lambda_0 < 1e-4, the deflated one included.  They
    raise NumericalError where eps / (1 - lambda_0) of some zeroed
    interval exceeds HARD_GAP_MAX_ROUNDING (from c = 14.1 on, r = 47 for
    a gap of 0.6).
    """
    partition, weights = _checked_weights(_as_partition(partition), weights)
    full = Discretization(partition, r, n)
    gap, rounding = _hard_gap_route(partition, weights, full.r)
    half = full.n // 2
    no_estimate = f"no error estimate at r = {full.r:g}: the n // 2 = {half} pass"
    if half < full.floor:
        raise NumericalError(f"{no_estimate} is below the order floor {full.floor}, so n >= {2 * full.floor}")
    log_full = _log_det(full.rule, weights, gap)
    try:
        log_half = _log_det(composite_rule(partition, full.r, half), weights, gap)
    except NumericalError:
        raise NumericalError(f"{no_estimate} is not positive definite") from None
    # rounding that the difference of the two orders need not show is
    # added as its bound: the prolate 1 - lambda_k are shared by both
    # passes, and the factorization's rounding on a zeroed interval is no
    # smaller at the coarse order
    err = abs(log_full - log_half) + len(full.rule.nodes) * rounding
    if gap is not None:
        modes = gap[1]
        err += 2.0 * modes.count * modes.rounding
    return DeterminantResult(log_f=log_full, order_used=full.n, error_estimate=err)


def series_det(partition, weights, r: float) -> float:
    """F by the determinant series truncated after k = 3, a factorization-free
    cross-check.

    F = sum_{k=0}^{3} (-1)^k / k! int...int det[Khat(t_i, t_j)] dt,
    Khat(x, y) = K(x, y) (1 - s(y)), each k-fold integral a tensorized
    Gauss-Legendre sum.  With A = Khat(t_a, t_b) w_b on the nodes, the sums
    are those of the traces p_k = tr A^k grouped by Newton's identities
    (the Plemelj-Smithies form): 1 - p1 + (p1^2 - p2) / 2
    - (p1^3 - 3 p1 p2 + 2 p3) / 6.  Only valid for small instances: the
    total weighted trace sum_k |1 - s_k| r (x_k - x_{k-1}) / pi must stay
    below 0.5.
    """
    partition = _as_partition(partition)
    weights = _matched_weights(partition, weights)
    r = _check_r(r)

    lengths = np.asarray(partition.lengths)
    trace = float(np.sum(np.abs(1.0 - weights.as_array()) * r * lengths) / math.pi)
    if trace >= 0.5:
        raise ValidationError(
            f"series_det needs total weighted trace < 0.5, got {trace:.4f}"
        )

    rule = composite_rule(partition, r, 24)
    t = rule.nodes
    c = rule.weights * (1.0 - weights.as_array()[rule.interval_index])
    a = sine_kernel(t[:, None], t[None, :]) * c[None, :]
    a2 = a @ a
    p1, p2, p3 = np.trace(a), np.trace(a2), np.einsum("ij,ji->", a2, a)
    return float(1.0 - p1 + (p1 * p1 - p2) / 2.0 - (p1**3 - 3.0 * p1 * p2 + 2.0 * p3) / 6.0)
