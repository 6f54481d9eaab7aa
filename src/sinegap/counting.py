"""Count distributions and moments extracted from the determinant.

F(s) = E[prod_k s_k^{N_k}] is entire in s, so the joint law of the
interval counts (N_1, ..., N_m) comes out of a discrete Fourier inversion
of F over the torus s_j = exp(i theta_j).  Thinning and conditional gap
probabilities are determinant ratios.  In the exponential
parameterization s_j = exp(u_j + ... + u_m), log F is the joint cumulant
generating function of the nested counts N_(r x_0, r x_j); at u = 0 the
Fredholm operator is the identity, so their means and covariances are
traces of the sine kernel, tr(K P_j) and tr(K P_min(j,l)) -
tr(K P_j K P_l) (Costin & Lebowitz, PRL 75, 1995; Bornemann, Markov
Process. Related Fields 16, 2010), and need no determinant at all.

None of these needs the n/2 error estimate of `fredholm_det`.  So every
function here builds one `Discretization` per partition (the composite
rule), raises NumericalError below its order floor ceil(r L / 2), and
never forms the N x N matrix B = W^{1/2} K W^{1/2}.  The gap
probabilities call `log_det` once per weight: one fill of the scaled
Nystrom matrix and one factorization each.  B has numerical rank rho of
about r (x_m - x_0) / pi + O(log 1 / eps), so the PMF's diagonally
pivoted Cholesky factor B ~ V V^T (N x rho, from diag(B) and rho rows of
B read pointwise) turns every torus value into a rho x rho determinant
by Sylvester's identity.  The cumulants sum diag(B) and the squares of
one fill of B's upper blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .asymptotics import StatisticsTriple
from .errors import NumericalError, ValidationError, _integer
from .fredholm import Discretization, WeightConfiguration, _as_partition, _matched_weights, _scaled_kernel, sine_kernel
from .prolate import EPS

# Not called here (nothing here needs its n // 2 pass), but kept importable as
# `sinegap.counting.fredholm_det`: bench/spans.py wraps that name, and a
# missing name would turn its fredholm.det metrics into "absent" for
# every workload, not just this module's.
from .fredholm import fredholm_det  # noqa: F401

__all__ = [
    "JointPMF",
    "joint_pmf",
    "thinned_gap_probability",
    "conditional_zero_probability",
    "numerical_cumulants",
]

NEGATIVE_TOL = 1e-9
IMAG_TOL = 1e-8
# The torus grid of `joint_pmf` has g^m cells, g = 2 max(K_j) + 2, each a
# complex rho x rho determinant, so time grows with the cell count (and
# with rho^3).  The bound admits m = 4 at K <= 10 and m = 6 at K <= 3;
# with six intervals of 0.5 at K = 3 one process took about 0.6 s at
# r = 1 (rho = 8) and 2 s at r = 6 (rho = 17), both at a peak RSS of
# 49 MB.  Fewer intervals admit larger K: K <= 31 at m = 3, K <= 255 at
# m = 2.
MAX_TORUS_CELLS = 2**18
# `_torus_values` holds at most this many complex entries per matrix
# stack (4 MiB), so its memory does not grow with the cell count or rho.
# Holding all g^(m-1) matrices at once took 119 MB peak RSS at r = 1 and
# 327 MB at r = 6 in the case above (tracemalloc 176 to 296 MiB at
# r = 2, 3 and 6); 2^20 entries leave a tracemalloc peak of 38 MiB and
# 2^18 one of 17 MiB, the size of the torus arrays themselves at the cell
# bound, at the same speed.
TORUS_CHUNK = 2**18


@dataclass(frozen=True)
class JointPMF:
    """P(N_1 = k_1, ..., N_m = k_m) for k_j <= max_counts[j], plus the
    mass left outside the table.  table.shape == tuple(K_j + 1)."""

    table: np.ndarray
    residual_mass: float
    max_counts: tuple[int, ...]

    def __post_init__(self):
        self.table.setflags(write=False)

    def probability(self, counts: Sequence[int]) -> float:
        """P(N = counts), each count an integer in [0, K_j]."""
        try:
            counts = tuple(counts)
        except TypeError:
            raise ValidationError(f"counts must be a sequence of integers, got {counts!r}") from None
        if len(counts) != len(self.max_counts):
            raise ValidationError(f"expected {len(self.max_counts)} counts, got {counts!r}")
        index = tuple(_integer(k, "count", 0, K) for k, K in zip(counts, self.max_counts))
        return float(self.table[index])


def _checked_counts(max_counts: Sequence[int] | int, m: int) -> tuple[int, ...]:
    """The table bounds K_j of `joint_pmf` on m intervals: one integer
    K_j >= 0 per interval, or one integer for all of them, with a torus
    grid of at most MAX_TORUS_CELLS cells."""
    try:
        ks = tuple(max_counts)
    except TypeError:  # one bound for every interval
        ks = (max_counts,) * m
    ks = tuple(_integer(k, "max_counts K_j", 0) for k in ks)
    if len(ks) != m:
        raise ValidationError(f"max_counts must give one K_j >= 0 per interval, got {max_counts!r}")
    g = 2 * max(ks) + 2
    if g**m > MAX_TORUS_CELLS:
        raise ValidationError(
            f"joint_pmf's torus grid of (2 max K + 2)^m = {g}^{m} cells exceeds {MAX_TORUS_CELLS}"
        )
    return ks


def joint_pmf(partition, r: float, max_counts: Sequence[int] | int, n: int = 64) -> JointPMF:
    """Joint count probabilities by Fourier inversion on the unit torus.

    P(k) = (2 pi)^{-m} \\int F(e^{i theta}) e^{-i k . theta} dtheta is
    evaluated with a uniform grid of g = 2 max(K_j) + 2 points per
    dimension; the trapezoid rule on the torus is a plain DFT, so the
    grid values are FFT'd.  The grid may have at most MAX_TORUS_CELLS =
    2^18 cells.  By normalization the full DFT sums to F(1) = 1 exactly,
    and the mass not in the table is reported as residual_mass.  One
    `Discretization` with n nodes per interval is built, and no n/2
    error-estimate pass is made.

    The grid values come from one low-rank factor:
    B = W^{1/2} K W^{1/2} ~ V V^T by the diagonally pivoted Cholesky of
    `_pivoted_cholesky`, which computes the diagonal of B and each pivot
    row of it pointwise from the sine kernel, never B itself.  It stops
    once the trace of B - V V^T is at most eps tr(B) (tr(B) is the total
    mean count).  By Sylvester's identity every grid value is then
    F(s) = det(I - sum_j (1 - s_j) V_j^T V_j), a determinant of the size
    rho of the factor, with V_j the rows of V on interval j.

    Entries in (-1e-9, 0) are clamped to 0 (roundoff from the inversion);
    anything below -1e-9 raises, as does a departure of F(conj s) from
    conj F(s) above 1e-8 anywhere on the grid (F has real Taylor
    coefficients).  That departure also bounds the imaginary part of
    every coefficient, by half of it, so the table keeps the real part.

    The grid folds the mass at counts N_j >= g onto N_j - g, so the
    grid's marginal mean sum_k k P_j(k) falls short of the exact mean
    r (x_j - x_{j-1}) / pi by at least g times the folded mass.  A
    shortfall above g * 1e-9 raises NumericalError: K is too small for
    the counts of that interval.
    """
    partition = _as_partition(partition)
    m = partition.m
    ks = _checked_counts(max_counts, m)
    g = 2 * max(ks) + 2
    disc = Discretization(partition, r, n)
    v = _pivoted_cholesky(disc)
    grams = [v[b].T @ v[b] for b in disc.rule.blocks]
    f_grid = _torus_values(grams, np.exp(2j * math.pi * np.arange(g) / g))

    # c_k - conj(c_k) = g^-m sum_s (F(s) - conj F(conj s)) s^-k, so this
    # check also bounds |Im c_k| by IMAG_TOL / 2
    mirror = f_grid[np.ix_(*[-np.arange(g) % g] * m)]  # F(conj s): index i_j -> -i_j mod g
    asym = float(np.max(np.abs(mirror - np.conj(f_grid))))
    if asym > IMAG_TOL:
        raise NumericalError(f"F(conj s) departs from conj F(s) by {asym:.3e} > {IMAG_TOL:g}")

    coeff = np.fft.fftn(f_grid) / g**m
    table = coeff[tuple(slice(0, k + 1) for k in ks)]
    for j, length in enumerate(partition.lengths):
        marginal = coeff.real.sum(axis=tuple(a for a in range(m) if a != j))
        deficit = disc.r * length / math.pi - float(np.arange(g) @ marginal)
        if deficit > g * NEGATIVE_TOL:
            raise NumericalError(
                f"the torus grid of {g} points folds counts of interval {j + 1} onto the table:"
                f" its mean falls short by {deficit:.3e} > {g} * {NEGATIVE_TOL:g}; raise K"
            )
    table = table.real.copy()
    low = float(table.min())
    if low < -NEGATIVE_TOL:
        raise NumericalError(f"negative probability {low:.3e} below -{NEGATIVE_TOL:g}")
    table[table < 0.0] = 0.0

    residual = max(0.0, 1.0 - float(table.sum()))  # a probability, not a rounding below 0
    return JointPMF(table=table, residual_mass=residual, max_counts=ks)


def _pivoted_cholesky(disc: Discretization) -> np.ndarray:
    """V of shape (N, rho) with B = W^{1/2} K W^{1/2} ~ V V^T on the nodes
    t of `disc`, without B itself.

    Each step pivots on the largest diagonal entry of B - V V^T and
    computes that one row of B, sqrt(w_p) sqrt(w) K(t_p, t), from the
    pointwise `sine_kernel` (Harbrecht, Peters & Schneider, Appl. Numer.
    Math. 62, 2012): the separable fill of `_scaled_kernel` rounds by
    about eps tr(B) near the diagonal, all that the stopping rule allows.
    It stops once the residual trace is at most eps tr(B), so every pivot
    is positive.  B is positive semidefinite, so the residual
    trace bounds the error of every entry, and rho is about
    r (x_m - x_0) / pi + O(log 1 / eps).
    """
    t, root_w, size = disc.rule.nodes, np.sqrt(disc.rule.weights), len(disc.rule.nodes)
    resid = root_w * root_w * (1.0 / math.pi)  # diag(B)
    tol = EPS * float(resid.sum())
    vt = np.empty((min(size, 16), size))  # V^T, one row per pivot, doubled when full
    k = 0
    while k < size and float(resid.sum()) > tol:
        p = int(np.argmax(resid))
        pivot = float(resid[p])  # > 0, as resid.sum() > tol > 0; a NaN sum ends the loop
        if k == len(vt):
            vt = np.concatenate((vt, np.empty((min(k, size - k), size))))
        row = (root_w[p] * root_w) * sine_kernel(t[p], t) - vt[:k, p] @ vt[:k]
        row /= math.sqrt(pivot)
        vt[k] = row
        resid -= row * row
        k += 1
    return vt[:k].T


def _torus_values(grams, phases) -> np.ndarray:
    """F(s) = det(I - sum_j (1 - s_j) G_j) at s_j = phases[i_j] for every
    index tuple (i_1, ..., i_m), as an array of shape (g,) * m.

    The g^(m-1) matrices with i_1 = 0, I - sum_{j >= 2} (1 - s_j) G_j, are
    built in chunks of their flattened index (i_2, ..., i_m), at most
    TORUS_CHUNK entries at a time; one `slogdet` call then takes a chunk
    minus (1 - s_1) G_1 for each i_1."""
    m, g, rho = len(grams), len(phases), grams[0].shape[0]
    one_minus = 1.0 - phases
    f_grid = np.empty((g,) * m, dtype=complex)
    rows = f_grid.reshape(g, -1)  # i_1, then the flattened (i_2, ..., i_m)
    step = max(1, TORUS_CHUNK // (rho * rho))
    for start in range(0, rows.shape[1], step):
        flat = np.arange(start, min(start + step, rows.shape[1]))
        rest = np.empty((len(flat), rho, rho), dtype=complex)
        rest[:] = np.eye(rho)
        for j in range(1, m):  # the term of interval j + 1, whose index is digit j of `flat`
            rest -= one_minus[flat // g ** (m - 1 - j) % g, None, None] * grams[j]
        for i in range(g):
            sign, log_abs = np.linalg.slogdet(rest - one_minus[i] * grams[0])
            rows[i, flat] = sign * np.exp(log_abs)
    return f_grid


def _validate_unit_weights(partition, s) -> WeightConfiguration:
    """The thinning weights s, one per interval, each at most 1."""
    weights = _matched_weights(partition, s)
    if any(v > 1.0 for v in weights.values):
        raise ValidationError(f"weights must lie in [0, 1], got {s!r}")
    return weights


def thinned_gap_probability(partition, s, r: float, n: int = 64) -> float:
    """Probability that the thinned process (each point of interval k kept
    independently with probability 1 - s_k) has no points at all: exactly
    F(s).  Equals 1 at s = 1 and the hard-gap probability at s = 0."""
    partition = _as_partition(partition)
    weights = _validate_unit_weights(partition, s)
    log_f = Discretization(partition, r, n).log_det(weights)
    return min(1.0, math.exp(log_f))


def conditional_zero_probability(partition, s, r: float, n: int = 64) -> float:
    """P(no points of the original process | the thinned process is empty)
    = F((x_0, x_m), s = 0) / F(x, s), a ratio of two determinants in
    (0, 1].  At s = 0 thinning removes nothing and the ratio is 1.

    The numerator's `Discretization`, of the one interval (x_0, x_m), is
    built first: its order floor is the largest, so where n is below some
    floor the NumericalError names that interval and the order that
    resolves both determinants."""
    partition = _as_partition(partition)
    weights = _validate_unit_weights(partition, s)
    e = partition.endpoints
    num = Discretization((e[0], e[-1]), r, n).log_det((0.0,))
    den = Discretization(partition, r, n).log_det(weights)
    return min(1.0, math.exp(num - den))


def numerical_cumulants(
    partition,
    r: float,
    order: int = 2,
    n: int = 64,
) -> StatisticsTriple:
    """Cumulants of the nested counts N_j = N_(r x_0, r x_j) from kernel
    traces.

    log F with s_j = exp(u_j + ... + u_m) is the joint cumulant generating
    function of (N_1, ..., N_m), and at u = 0 the Fredholm operator is the
    identity, so its first and second derivatives there are traces of the
    kernel (Costin & Lebowitz, PRL 75, 1995; Bornemann, Markov Process.
    Related Fields 16, 2010): with P_j the restriction to (r x_0, r x_j),

        mean_j  = tr(K P_j),
        cov_jl  = tr(K P_min(j,l)) - tr(K P_j K P_l),

    the multi-interval form of Var N = int K - int int K^2.  With B =
    W^{1/2} K W^{1/2} on the nodes of one `Discretization` of order n,
    the means sum diag(B), and tr(K P_j K P_l) the per-block sums of B_ab^2
    over one `_scaled_kernel` fill with scales sqrt(w) of B's diagonal
    blocks and those right of them; nothing is factored.  The scales
    inside the fill round each entry relative to its own size, not to
    tr(B) as the PMF factor needs, and a sum of squares keeps that.
    `order` = 1 computes means only and fills nothing (variances and
    covariances are returned as NaN); `order` = 2 computes all three.
    """
    order = _integer(order, "order", 1, 2)
    disc = Discretization(partition, r, n)
    m, rule = disc.partition.m, disc.rule
    root_w = np.sqrt(rule.weights)
    # nested[a, j] is 1 where node a lies in intervals 1..j+1
    nested = (rule.interval_index[:, None] <= np.arange(m)[None, :]).astype(float)
    mu = (root_w * root_w * (1.0 / math.pi)) @ nested  # diag(B) @ nested
    labels = tuple(range(1, m + 1))
    if order == 1:
        return StatisticsTriple(mu=mu, cross=np.full((m, m), np.nan), labels=labels)

    fill = _scaled_kernel(rule, root_w, root_w)  # B on the diagonal blocks and right of them
    sq = np.empty((m, m))  # sq[i, j]: the sum of B_ab^2 over a in interval i, b in interval j
    for i, rows in enumerate(rule.blocks):  # in storage order: blocks[i:] lie right of blocks[i]
        part = fill[rows, rows.start :]
        by_column = np.einsum("ab,ab->b", part, part)  # sums of n terms, then of n: no long running sum
        sq[i, i:] = sq[i:, i] = np.add.reduceat(by_column, [b.start - rows.start for b in rule.blocks[i:]])
    pairs = sq.cumsum(axis=0).cumsum(axis=1)  # tr(K P_j K P_l): intervals 1..j+1 by 1..l+1
    cross = mu[np.minimum.outer(np.arange(m), np.arange(m))] - pairs
    cross = 0.5 * (cross + cross.T)  # the cumulative sums need not round symmetrically
    return StatisticsTriple(mu=mu, cross=cross, labels=labels)
