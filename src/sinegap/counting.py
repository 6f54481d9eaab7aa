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
rule and the sine kernel on its nodes).  The PMF and the gap
probabilities call its `log_det` once per weight: one matrix assembly
and one factorization each.  The cumulants read the traces off its rule
and kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import Sequence

import numpy as np

from .asymptotics import StatisticsTriple
from .errors import NumericalError, ValidationError
from .fredholm import Discretization, WeightConfiguration, _as_partition

# Not called here since the kernel is shared, but kept importable as
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
        return float(self.table[tuple(counts)])


def joint_pmf(
    partition,
    r: float,
    max_counts: Sequence[int] | int,
    n_quad: int = 64,
    n_grid_per_dim: int | None = None,
) -> JointPMF:
    """Joint count probabilities by Fourier inversion on the unit torus.

    P(k) = (2 pi)^{-m} \\int F(e^{i theta}) e^{-i k . theta} dtheta is
    evaluated with a uniform grid of n_grid_per_dim points per dimension
    (default, and minimum, 2 max(K_j) + 2); the trapezoid rule on the
    torus is a plain DFT, so the grid values are FFT'd.  Supported for
    m <= 3.  By normalization the full DFT sums to F(1) = 1 exactly, and
    the mass not in the table is reported as residual_mass.  The sine
    kernel is built once at order n_quad and reused for all g^m grid
    points, each one LU; no n/2 error-estimate pass is made.

    Entries in (-1e-9, 0) are clamped to 0 (roundoff from the inversion);
    anything below -1e-9 raises, as does any imaginary part above 1e-8.
    """
    partition = _as_partition(partition)
    m = partition.m
    if m > 3:
        raise ValidationError(f"joint_pmf supports m <= 3 intervals, got m = {m}")
    if isinstance(max_counts, (int, np.integer)) and not isinstance(max_counts, bool):
        max_counts = (int(max_counts),) * m
    ks = tuple(int(k) for k in max_counts)
    if len(ks) != m or any(k < 0 for k in ks):
        raise ValidationError(f"max_counts must give one K_j >= 0 per interval, got {max_counts!r}")
    min_grid = 2 * max(ks) + 2
    if n_grid_per_dim is None:
        n_grid_per_dim = min_grid
    if not isinstance(n_grid_per_dim, int) or n_grid_per_dim < min_grid:
        raise ValidationError(
            f"n_grid_per_dim must be an integer >= 2 max(K_j) + 2 = {min_grid}, got {n_grid_per_dim!r}"
        )

    g = n_grid_per_dim
    disc = Discretization(partition, r, n_quad)
    phases = np.exp(2j * math.pi * np.arange(g) / g)
    f_grid = np.empty((g,) * m, dtype=complex)
    for combo in product(range(g), repeat=m):
        weights = WeightConfiguration(tuple(phases[i] for i in combo))
        f_grid[combo] = np.exp(disc.log_det(weights))

    coeff = np.fft.fftn(f_grid) / g**m
    table = coeff[tuple(slice(0, k + 1) for k in ks)]

    max_imag = float(np.max(np.abs(table.imag)))
    if max_imag > IMAG_TOL:
        raise NumericalError(f"inversion left imaginary mass {max_imag:.3e} > {IMAG_TOL:g}")
    table = table.real.copy()
    low = float(table.min())
    if low < -NEGATIVE_TOL:
        raise NumericalError(f"negative probability {low:.3e} below -{NEGATIVE_TOL:g}")
    table[table < 0.0] = 0.0

    residual = 1.0 - float(table.sum())
    return JointPMF(table=table, residual_mass=residual, max_counts=ks)


def _validate_unit_weights(s, m: int) -> WeightConfiguration:
    arr = np.asarray(s, dtype=float)
    if arr.shape != (m,):
        raise ValidationError(f"expected {m} weights, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)) or np.any(arr < 0.0) or np.any(arr > 1.0):
        raise ValidationError(f"weights must lie in [0, 1], got {arr!r}")
    return WeightConfiguration(tuple(float(v) for v in arr))


def thinned_gap_probability(partition, s, r: float, n: int = 64) -> float:
    """Probability that the thinned process (each point of interval k kept
    independently with probability 1 - s_k) has no points at all: exactly
    F(s).  Equals 1 at s = 1 and the hard-gap probability at s = 0."""
    partition = _as_partition(partition)
    weights = _validate_unit_weights(s, partition.m)
    log_f = Discretization(partition, r, n).log_det(weights)
    return min(1.0, math.exp(log_f.real))


def conditional_zero_probability(partition, s, r: float, n: int = 64) -> float:
    """P(no points of the original process | the thinned process is empty)
    = F((x_0, x_m), s = 0) / F(x, s), a ratio of two determinants in
    (0, 1].  At s = 0 thinning removes nothing and the ratio is 1."""
    partition = _as_partition(partition)
    weights = _validate_unit_weights(s, partition.m)
    num = Discretization(partition.merged(), r, n).log_det(WeightConfiguration((0.0,))).real
    den = Discretization(partition, r, n).log_det(weights).real
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

    the multi-interval form of Var N = int K - int int K^2.  The traces
    are taken with the Nystrom rule of one `Discretization` of order n,
    and no matrix is factored.  `order` = 1 computes means only
    (variances and covariances are returned as NaN); `order` = 2 computes
    all three.
    """
    if order not in (1, 2):
        raise ValidationError(f"order must be 1 or 2, got {order!r}")
    disc = Discretization(partition, r, n)
    m = disc.partition.m
    w, kernel = disc.rule.weights, disc.kernel
    # nested[a, j] is 1 where node a lies in intervals 1..j+1
    nested = (disc.rule.interval_index[:, None] <= np.arange(m)[None, :]).astype(float)
    mu = (np.diagonal(kernel) * w) @ nested
    labels = tuple(range(1, m + 1))
    if order == 1:
        return StatisticsTriple(mu=mu, sigma2=np.full(m, np.nan), cross=np.full((m, m), np.nan), labels=labels)

    # tr(K W P_j K W P_l) = sum over a in P_l, b in P_j of K_ab^2 w_a w_b
    pairs = nested.T @ (kernel * kernel * np.outer(w, w)) @ nested
    cross = mu[np.minimum.outer(np.arange(m), np.arange(m))] - pairs
    cross = 0.5 * (cross + cross.T)  # the matrix products need not round symmetrically
    return StatisticsTriple(mu=mu, sigma2=np.diagonal(cross).copy(), cross=cross, labels=labels)
