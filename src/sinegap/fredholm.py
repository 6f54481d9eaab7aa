"""Weighted multi-interval sine-kernel determinants.

For a partition x_0 < x_1 < ... < x_m, weights s = (s_1, ..., s_m) and a
scale r > 0, this module evaluates

    F = det(I - sum_k (1 - s_k) K restricted to (r x_{k-1}, r x_k)),

with K(x, y) = sin(x - y) / (pi (x - y)).  F is the generating function
E[prod_k s_k^{N_k}] of the interval counts of the sine point process, an
entire function of s, so complex weights (unit-circle values for
probability inversion) are accepted alongside real nonnegative ones.

Evaluation is Nystrom discretization on composite Gauss-Legendre nodes
followed by a pivoted-LU log-determinant.  The discretization depends
on (partition, r, n) only and is built once per `Discretization`; each
weight then costs a matrix assembly and one factorization.  A truncated
series evaluation `series_det` provides an independent cross-check route
for small instances and is deliberately kept free of any LU code.

Hard gaps.  With exactly one zero weight s_p (the others positive) the
zeroed interval G = (r x_{p-1}, r x_p) is a hard gap: K on G has
eigenvalues lambda_k within about exp(-r (x_p - x_{p-1})) of 1, and
rounding the assembled matrix by eps moves log F by about
eps / (1 - lambda_0), 1e-7 to 3e-6 at r = 40 for a gap of 0.6.  There the
modes with 1 - lambda_k < HARD_GAP_TAU are deflated: 1 - lambda_k and
the eigenfunctions come from prolate spheroidal wave functions
(`prolate.gap_modes`) to relative accuracy, and the LU factors a matrix
of the same size whose condition is about 1 / HARD_GAP_TAU
(`_deflated_log_det`).  Inputs without such a mode keep the plain LU and
its exact output.  A run of adjacent zero weights is one hard gap and
is merged into one interval first.  Where the prolate values themselves
lose their digits, the route raises NumericalError (see
HARD_GAP_MAX_ROUNDING).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.linalg import lu_factor

from .errors import NumericalError, ValidationError
from .prolate import gap_modes
from .quadrature import composite_rule, gauss_legendre

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

TWO_PI = 2.0 * math.pi

# Hard-gap route (one zero weight s_p): prolate modes of the zeroed
# interval with 1 - lambda_k below HARD_GAP_TAU are taken out of the LU
# and put back analytically.  The factored matrix then has condition
# about 1 / HARD_GAP_TAU, so its rounding moves log F by about
# eps / HARD_GAP_TAU: between n = 64 and 128 the figure-2 points at
# r <= 40 differ by up to 4.9e-10 at tau = 1e-6, 5.8e-11 at 1e-5 and
# 2.3e-11 at 1e-4; larger tau gains nothing more.
HARD_GAP_TAU = 1e-4
# The route raises NumericalError when the relative rounding error of
# some deflated psi_k(1), and so about twice that of its 1 - lambda_k,
# may exceed this: from half-length 26.7 on (r = 89 for a gap of 0.6;
# the bound is 8e-7 at r = 80, where n = 64 and 128 agree to 1.4e-7).
HARD_GAP_MAX_ROUNDING = 1e-5
# Beyond this half-length the bound above is always exceeded (it is
# already about 0.1 at half-length 36), so the route raises at once.
HARD_GAP_MAX_HALF_LENGTH = 40.0


@dataclass(frozen=True)
class IntervalPartition:
    """Strictly increasing endpoints x_0 < x_1 < ... < x_m, m >= 1.

    `delta` is the declared minimum endpoint separation; it defaults to
    the actual minimum gap.  Zero-length intervals are rejected here, not
    silently collapsed later.
    """

    endpoints: tuple[float, ...]
    delta: float = 0.0

    def __init__(self, endpoints: Sequence[float], delta: float | None = None):
        pts = tuple(float(v) for v in endpoints)
        if len(pts) < 2:
            raise ValidationError(f"a partition needs at least 2 endpoints, got {len(pts)}")
        if not all(math.isfinite(v) for v in pts):
            raise ValidationError(f"endpoints must be finite, got {pts}")
        gaps = [b - a for a, b in zip(pts, pts[1:])]
        min_gap = min(gaps)
        if min_gap <= 0.0:
            raise ValidationError(f"endpoints must be strictly increasing, got {pts}")
        if delta is None:
            delta = min_gap
        else:
            delta = float(delta)
            if not (0.0 < delta <= min_gap):
                raise ValidationError(
                    f"declared delta {delta!r} not satisfied: minimum endpoint gap is {min_gap!r}"
                )
        object.__setattr__(self, "endpoints", pts)
        object.__setattr__(self, "delta", delta)

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

    def merged(self) -> "IntervalPartition":
        """The single interval (x_0, x_m)."""
        return IntervalPartition((self.endpoints[0], self.endpoints[-1]))


def reduced_indices(m: int, p: int) -> tuple[int, ...]:
    """Index set {0, ..., m} minus {p-1, p}: the weight-ratio indices that
    stay finite when s_p = 0."""
    if not isinstance(p, int) or isinstance(p, bool) or not (1 <= p <= m):
        raise ValidationError(f"gap index p must be an integer in [1, {m}], got {p!r}")
    return tuple(j for j in range(m + 1) if j not in (p - 1, p))


@dataclass(frozen=True)
class WeightConfiguration:
    """Weights s_1, ..., s_m with the boundary convention s_0 = s_{m+1} = 1.

    Real entries must be >= 0; complex entries are allowed (needed for the
    torus inversion behind the joint count distribution).  The log-ratios
    u_j = log(s_j / s_{j+1}) and beta_j = u_j / (2 pi i) are always derived
    on demand so they can never go stale.
    """

    values: tuple[complex, ...]

    def __init__(self, values: Sequence[complex]):
        vals = []
        for v in values:
            v = complex(v)
            if not (math.isfinite(v.real) and math.isfinite(v.imag)):
                raise ValidationError(f"weights must be finite, got {v!r}")
            if v.imag == 0.0:
                if v.real < 0.0:
                    raise ValidationError(f"real weights must be >= 0, got {v.real!r}")
                vals.append(complex(v.real, 0.0))
            else:
                vals.append(v)
        if not vals:
            raise ValidationError("at least one weight is required")
        object.__setattr__(self, "values", tuple(vals))

    @classmethod
    def from_positive_u(cls, u: Sequence[float]) -> "WeightConfiguration":
        """Weights from log-ratios u_j = log(s_j / s_{j+1}), all s_j > 0:
        s_j = exp(u_j + u_{j+1} + ... + u_m)."""
        u = np.asarray(u, dtype=float)
        if u.ndim != 1 or u.size < 1:
            raise ValidationError("u must be a nonempty 1-d sequence")
        if not np.all(np.isfinite(u)):
            raise ValidationError(f"u must be finite, got {u!r}")
        s = np.exp(np.cumsum(u[::-1])[::-1])
        return cls(tuple(float(v) for v in s))

    @classmethod
    def from_zero_u(cls, u: Sequence[float], p: int, m: int) -> "WeightConfiguration":
        """Weights with s_p = 0 from the m - 1 finite log-ratios u_j,
        j in {0..m} minus {p-1, p}, listed in increasing j."""
        idx = reduced_indices(m, p)
        u = np.asarray(u, dtype=float)
        if u.shape != (m - 1,):
            raise ValidationError(
                f"expected {m - 1} log-ratios for m = {m}, p = {p}, got shape {u.shape}"
            )
        if not np.all(np.isfinite(u)):
            raise ValidationError(f"u must be finite, got {u!r}")
        by_index = dict(zip(idx, u))
        s = np.zeros(m)
        acc = 0.0
        for k in range(1, p):  # left of the gap: s_k = exp(-(u_0 + ... + u_{k-1}))
            acc += by_index[k - 1]
            s[k - 1] = math.exp(-acc)
        acc = 0.0
        for j in range(m, p, -1):  # right of the gap: s_j = exp(u_j + ... + u_m)
            acc += by_index[j]
            s[j - 1] = math.exp(acc)
        return cls(tuple(float(v) for v in s))

    @property
    def m(self) -> int:
        return len(self.values)

    @property
    def is_real(self) -> bool:
        return all(v.imag == 0.0 for v in self.values)

    def as_array(self) -> np.ndarray:
        if self.is_real:
            return np.array([v.real for v in self.values], dtype=float)
        return np.array(self.values, dtype=complex)

    def zero_indices(self) -> tuple[int, ...]:
        """1-based positions of exactly-zero weights."""
        return tuple(j + 1 for j, v in enumerate(self.values) if v == 0.0)

    @property
    def mode(self) -> str:
        """'positive' (all real > 0), 'one_zero' (exactly one s_p = 0,
        rest real > 0), or 'general' (anything else, e.g. complex)."""
        if not self.is_real:
            return "general"
        zeros = self.zero_indices()
        if not zeros:
            return "positive"
        if len(zeros) == 1 and all(v.real > 0.0 for j, v in enumerate(self.values) if j + 1 != zeros[0]):
            return "one_zero"
        return "general"

    def u_vector(self) -> np.ndarray:
        """u_j = log(s_j / s_{j+1}), j = 1..m, with s_{m+1} = 1.
        Requires all weights real positive."""
        if self.mode != "positive":
            raise ValidationError("u_vector requires all weights real and positive")
        logs = np.log([v.real for v in self.values])
        ext = np.append(logs, 0.0)
        return ext[:-1] - ext[1:]

    def u_reduced(self) -> tuple[int, tuple[int, ...], np.ndarray]:
        """(p, indices, u) for the one-zero mode: the finite log-ratios
        u_j over j in {0..m} minus {p-1, p}, with s_0 = s_{m+1} = 1."""
        if self.mode != "one_zero":
            raise ValidationError("u_reduced requires exactly one zero weight, rest positive")
        p = self.zero_indices()[0]
        # logs[p] stays None and is never touched: j = p-1 and j = p are excluded.
        logs: list = [0.0] + [None if v.real == 0.0 else math.log(v.real) for v in self.values] + [0.0]
        idx = reduced_indices(self.m, p)
        u = np.array([logs[j] - logs[j + 1] for j in idx])
        return p, idx, u

    def beta_vector(self) -> np.ndarray:
        """beta_j = u_j / (2 pi i) for the all-positive mode."""
        return self.u_vector() / (2j * math.pi)


@dataclass(frozen=True)
class DeterminantResult:
    """log F at the requested order, with |log F(n) - log F(n/2)| as the
    discretization error estimate.  For real weights the imaginary part is
    a folded LU argument and is guaranteed tiny (F > 0)."""

    log_f: complex
    order_used: int
    error_estimate: float


def sine_kernel(x, y):
    """sin(x - y) / (pi (x - y)), with the diagonal limit 1/pi."""
    # np.sinc(d / pi) / pi computed in place, with the same roundings:
    # the kernel fill is the largest layer of a determinant, and most of
    # np.sinc's time went to its five full-size temporaries.
    d = np.array(np.subtract(x, y), dtype=float)
    d /= math.pi
    d *= math.pi
    d[d == 0.0] = np.finfo(float).eps  # sin(eps) / eps = 1, as in np.sinc
    k = np.sin(d)
    k /= d
    k /= math.pi
    return k[()]


def _weight_column(rule, weights: WeightConfiguration) -> np.ndarray:
    s = weights.as_array()
    return rule.weights * (1.0 - s[rule.interval_index])


def _as_partition(partition) -> IntervalPartition:
    if isinstance(partition, IntervalPartition):
        return partition
    return IntervalPartition(partition)


def _checked_weights(partition: IntervalPartition, weights):
    """(partition, weights) with the weights checked against the partition
    and every run of adjacent zero weights merged into one zeroed
    interval, so that a hard gap written in pieces takes the hard-gap
    route.  The operator is the same; only the quadrature differs."""
    if not isinstance(weights, WeightConfiguration):
        weights = WeightConfiguration(weights)
    if weights.m != partition.m:
        raise ValidationError(f"{weights.m} weights for {partition.m} intervals")
    vals = weights.values
    inner = {j for j in range(1, weights.m) if vals[j - 1] == 0.0 == vals[j]}
    if not inner:
        return partition, weights
    endpoints = [x for j, x in enumerate(partition.endpoints) if j not in inner]
    merged = [v for j, v in enumerate(vals) if j not in inner]
    return IntervalPartition(endpoints), WeightConfiguration(merged)


def _check_sign(weights: WeightConfiguration, log_f: complex) -> None:
    if weights.is_real and abs(log_f.imag) > 1e-9:
        raise NumericalError(
            f"lost determinant sign for real weights: folded argument {log_f.imag!r}"
        )


class Discretization:
    """The weight-independent part of log F at order n: the composite
    Gauss-Legendre rule with n nodes per interval of the scaled partition
    (`rule`), and the sine kernel on its nodes (`kernel`, read-only).

    Built once for (partition, r, n), it gives log F at any number of
    weights through `log_det`, each one a weight column, a matrix
    assembly and one factorization.  The Nystrom method is Bornemann's
    (Math. Comp. 79, 2010).
    """

    def __init__(self, partition, r: float, n: int):
        partition = _as_partition(partition)
        r = float(r)
        if not math.isfinite(r) or r <= 0.0:
            raise ValidationError(f"scale r must be positive and finite, got {r!r}")
        if not isinstance(n, int) or isinstance(n, bool) or n < 8:
            raise ValidationError(f"quadrature order n must be an integer >= 8, got {n!r}")
        self._build(partition, r, n)

    def _build(self, partition: IntervalPartition, r: float, n: int) -> None:
        self.partition, self.r, self.n = partition, r, n
        self.rule = composite_rule(partition, r, n)
        t = self.rule.nodes
        self.kernel = sine_kernel(t[:, None], t[None, :])
        self.kernel.setflags(write=False)

    def halved(self) -> "Discretization":
        """The same partition and r at order n // 2 (which may be below 8):
        the coarse pass of `fredholm_det`'s error estimate."""
        half = Discretization.__new__(Discretization)
        half._build(self.partition, self.r, self.n // 2)
        return half

    def log_det(self, weights) -> complex:
        """log F at `weights` (one per interval), by the same route as
        `fredholm_det` at order n but without its n // 2 pass.  Raises
        NumericalError where `fredholm_det` would."""
        partition, weights = _checked_weights(self.partition, weights)
        if partition is not self.partition:  # merged zeros: fewer intervals, another rule
            return Discretization(partition, self.r, self.n).log_det(weights)
        log_f = self._log_det(weights, _hard_gap_modes(partition, weights, self.r))
        _check_sign(weights, log_f)
        return log_f

    def _log_det(self, weights, gap, symmetrized=False) -> complex:
        c = _weight_column(self.rule, weights)
        if gap is not None:
            return _deflated_log_det(self.rule, self.kernel, c, *gap)
        if symmetrized:
            if np.iscomplexobj(c) or np.any(c < 0.0):
                raise ValidationError("symmetrized evaluation needs real weights s <= 1")
            sq = np.sqrt(c)
            mat = np.eye(len(c)) - sq[:, None] * self.kernel * sq[None, :]
        else:
            mat = np.eye(len(c), dtype=c.dtype) - self.kernel * c[None, :]
        return _lu_log_det(mat)


def _lu_log_det(mat) -> complex:
    lu, piv = lu_factor(mat)
    diag = np.diagonal(lu)
    if np.any(diag == 0.0):
        raise NumericalError("zero pivot in LU: quadrature order too small or invalid input")
    log_mag = float(np.sum(np.log(np.abs(diag))))
    arg = float(np.sum(np.angle(diag)))
    if np.count_nonzero(piv != np.arange(len(piv))) % 2:
        arg += math.pi
    arg = math.remainder(arg, TWO_PI)  # fold into [-pi, pi]
    if not math.isfinite(log_mag):
        raise NumericalError("non-finite log-determinant (pivot under/overflow)")
    return complex(log_mag, arg)


def _hard_gap_modes(partition, weights, r):
    """(index of the zeroed interval G, its prolate modes with
    1 - lambda_k < HARD_GAP_TAU) when the hard-gap route applies, else None."""
    if weights.mode != "one_zero":
        return None
    k = weights.zero_indices()[0] - 1
    a, b = r * partition.endpoints[k], r * partition.endpoints[k + 1]
    c = 0.5 * (b - a)  # the half-length composite_rule maps onto
    if c > HARD_GAP_MAX_HALF_LENGTH:
        raise NumericalError(
            f"hard gap of half-length r (x_p - x_(p-1)) / 2 = {c:.6g} > {HARD_GAP_MAX_HALF_LENGTH:g}:"
            " 1 - lambda_0 ~ exp(-2c) is below what double precision resolves"
        )
    modes = gap_modes(c, HARD_GAP_TAU)
    if modes.count == 0:
        return None
    if modes.rounding > HARD_GAP_MAX_ROUNDING:
        raise NumericalError(
            f"hard gap of half-length {c:.6g}: prolate rounding bound {modes.rounding:.2e}"
            f" exceeds {HARD_GAP_MAX_ROUNDING:g}"
        )
    return k, modes


def _deflated_log_det(rule, kernel, c, k, modes) -> complex:
    """log det(I - K diag(c)) with the prolate modes of interval k deflated.

    With G the nodes of interval k (where c = w) and R the rest, the
    matrix is similar to [[I - B, -E^T C_R], [-E, A_RR]], with
    B = W^{1/2} K_GG W^{1/2}, E = K_RG W^{1/2}, C_R = diag(c_R) and
    A_RR = I - K_RR C_R.  B has
    eigenpairs (lambda_j, q_j), q = W^{1/2} psi(nodes) / sqrt(h) on the
    half-length h, and 1 - lambda_j is known to relative accuracy, so
    with B' = B - Q diag(lambda) Q^T,

        det = prod_j (1 - lambda_j)
              * det [[I - B', -E^T C_R],
                     [-E, A_RR - (E Q) diag(lambda / (1 - lambda)) (E Q)^T C_R]],

    the Schur complement on G written with (I - B)^{-1} =
    (I - B')^{-1} + Q diag(lambda / (1 - lambda)) Q^T.  The matrix
    factored is as large as the plain one and no worse conditioned than
    1 / HARD_GAP_TAU.
    """
    n = rule.n_per_interval
    g = slice(k * n, (k + 1) * n)
    base = gauss_legendre(n)
    psi = modes.at_gauss_nodes(n)  # G's nodes are the base nodes mapped onto it
    lam = 1.0 - modes.gaps
    mat = np.eye(len(c)) - kernel * c[None, :]
    root_w = np.sqrt(rule.weights[g])
    mat[g, :] *= root_w[:, None]
    mat[:, g] /= root_w[None, :]
    q = np.sqrt(base.weights)[:, None] * psi  # W^{1/2} psi / sqrt(h), w = h * base weight
    mat[g, g] += (q * lam) @ q.T
    if len(c) > n:  # R is not empty
        eq = kernel[:, g] @ (rule.weights[g][:, None] * psi) / math.sqrt(modes.c)
        eq[g] = 0.0  # E Q lives on R; zero rows keep G untouched
        mat -= (eq * (lam / modes.gaps)) @ (eq.T * c[None, :])
    return float(np.sum(np.log(modes.gaps))) + _lu_log_det(mat)


def fredholm_det(partition, weights, r: float, n: int = 64, symmetrized: bool = False) -> DeterminantResult:
    """log F for the weighted multi-interval sine kernel at scale r.

    `n` is the Gauss-Legendre order per interval (>= 8); the result is
    computed on a `Discretization` at n and on one at n//2, and the
    modulus of the difference is reported as `error_estimate`.  Callers
    that evaluate many weights on one partition and r, and do not need
    the estimate, should call `Discretization(partition, r, n).log_det`
    instead: it builds the kernel once and skips the n//2 pass.

    With `symmetrized=True` (real weights s <= 1 only) the matrix
    sqrt(w(1-s)) K sqrt(w(1-s)) is factorized instead; the determinant is
    the same, the option exists for conditioning comparisons.

    One-zero weights whose zeroed interval has half-length
    c = r (x_p - x_{p-1}) / 2 large enough that some 1 - lambda_k of the
    sine kernel on it falls below HARD_GAP_TAU = 1e-4 (c >= 6, r >= 20 for
    a gap of 0.6) go through the prolate deflation route described in the
    module docstring, whatever `symmetrized` says; the prolate modes are
    computed once and serve both orders, so `error_estimate` adds their
    rounding bound, 2 * (number of deflated modes) * `GapModes.rounding`,
    which the difference of the two orders cannot show.  That route raises
    NumericalError when c > HARD_GAP_MAX_HALF_LENGTH = 40, or when the
    rounding bound of some deflated psi_k(1) exceeds
    HARD_GAP_MAX_ROUNDING = 1e-5 (from c = 26.7 on, r = 89 for a gap of
    0.6), instead of returning digits it cannot resolve.

    Adjacent zero weights are merged into one zeroed interval before the
    route is chosen, so `(0, 0.3, 0.6)` with `(0, 0)` is the hard gap
    `(0, 0.6)` and takes the route above.  Zeros separated by a nonzero
    weight are still mode "general" and take the plain LU.
    """
    partition, weights = _checked_weights(_as_partition(partition), weights)
    if symmetrized and (not weights.is_real or any(v.real > 1.0 for v in weights.values)):
        raise ValidationError("symmetrized evaluation needs real weights s <= 1")

    full = Discretization(partition, r, n)
    gap = _hard_gap_modes(partition, weights, full.r)
    log_full = full._log_det(weights, gap, symmetrized)
    log_half = full.halved()._log_det(weights, gap, symmetrized)
    err = abs(log_full - log_half)
    if gap is not None:
        # both passes share the modes, so the rounding of their 1 - lambda_k
        # never shows in the difference: add its bound
        modes = gap[1]
        err += 2.0 * modes.count * modes.rounding
    _check_sign(weights, log_full)
    return DeterminantResult(log_f=log_full, order_used=n, error_estimate=err)


def series_det(partition, weights, r: float, k_max: int = 3) -> float:
    """F by the truncated determinant series, an LU-free cross-check.

    F = sum_{k=0}^{k_max} (-1)^k / k! int...int det[Khat(t_i, t_j)] dt,
    Khat(x, y) = K(x, y) (1 - s(y)), each k-fold integral evaluated as a
    tensorized Gauss-Legendre sum written out term by term (Leibniz for
    the 2x2 and 3x3 determinants).  Only valid for small instances: the
    total weighted trace sum_k |1 - s_k| r (x_k - x_{k-1}) / pi must stay
    below 0.5.
    """
    partition = _as_partition(partition)
    if not isinstance(weights, WeightConfiguration):
        weights = WeightConfiguration(weights)
    if weights.m != partition.m:
        raise ValidationError(f"{weights.m} weights for {partition.m} intervals")
    r = float(r)
    if not math.isfinite(r) or r <= 0.0:
        raise ValidationError(f"scale r must be positive and finite, got {r!r}")
    if not isinstance(k_max, int) or isinstance(k_max, bool) or not (0 <= k_max <= 3):
        raise ValidationError(f"k_max must be an integer in [0, 3], got {k_max!r}")

    lengths = np.asarray(partition.lengths)
    trace = float(np.sum(np.abs(1.0 - weights.as_array()) * r * lengths) / math.pi)
    if trace >= 0.5:
        raise ValidationError(
            f"series_det needs total weighted trace < 0.5, got {trace:.4f}"
        )

    rule = composite_rule(partition, r, 24)
    t = rule.nodes
    w = rule.weights
    s = weights.as_array()
    mat = sine_kernel(t[:, None], t[None, :]) * (1.0 - s[rule.interval_index])[None, :]

    total = 1.0 + 0.0j
    if k_max >= 1:
        total -= np.einsum("a,aa->", w, mat)
    if k_max >= 2:
        total += 0.5 * (
            np.einsum("a,b,aa,bb->", w, w, mat, mat)
            - np.einsum("a,b,ab,ba->", w, w, mat, mat)
        )
    if k_max >= 3:
        det3 = (
            np.einsum("a,b,c,aa,bb,cc->", w, w, w, mat, mat, mat)
            - np.einsum("a,b,c,aa,bc,cb->", w, w, w, mat, mat, mat)
            - np.einsum("a,b,c,ab,ba,cc->", w, w, w, mat, mat, mat)
            + np.einsum("a,b,c,ab,bc,ca->", w, w, w, mat, mat, mat)
            + np.einsum("a,b,c,ac,ba,cb->", w, w, w, mat, mat, mat)
            - np.einsum("a,b,c,ac,bb,ca->", w, w, w, mat, mat, mat)
        )
        total -= det3 / 6.0
    total = complex(total)
    if abs(total.imag) > 1e-10:
        raise NumericalError(f"series value has a non-negligible imaginary part: {total!r}")
    return float(total.real)
