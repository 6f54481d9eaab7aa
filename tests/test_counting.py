"""Count distributions, thinning, conditioning, numerical cumulants.

Oracles: the s = 0 determinant gives P(all counts zero) directly; on
one interval the discretized F(s) is prod_i (1 - (1 - s) lambda_i), so
the count is a Poisson-binomial law in the eigenvalues lambda_i; the
exact mean r (x_1 - x_0)/pi anchors both the PMF first moment and the
trace cumulants, whose covariances are checked against the closed-form
sine-process number variance and against differences of log F;
marginalizing a joint table must reproduce the single-interval table for
the same interval.
"""

import math
import tracemalloc
from itertools import product

import numpy as np
import pytest
from scipy.special import sici

import sinegap.counting as counting_module
import sinegap.fredholm as fredholm_module
from sinegap import (
    IntervalPartition,
    JointPMF,
    NumericalError,
    ValidationError,
    WeightConfiguration,
    conditional_zero_probability,
    counting_stats,
    fredholm_det,
    joint_pmf,
    numerical_cumulants,
    sine_kernel,
    thinned_gap_probability,
    var_cov_expansion,
)


# ---------------------------------------------------------------------------
# joint PMF


def test_pmf_single_interval_against_determinant():
    pmf = joint_pmf((0.0, 0.5), 1.0, 6)
    assert isinstance(pmf, JointPMF)
    assert pmf.max_counts == (6,)
    assert pmf.table.shape == (7,)
    # P(N = 0) is the plain s = 0 determinant
    gap = math.exp(fredholm_det((0.0, 0.5), (0.0,), 1.0).log_f.real)
    assert abs(pmf.table[0] - gap) < 1e-12
    # first moment is exactly r (x_1 - x_0) / pi
    mean = sum(k * pmf.table[k] for k in range(7))
    assert abs(mean - 0.5 / math.pi) < 1e-12
    assert abs(pmf.table.sum() + pmf.residual_mass - 1.0) < 1e-15
    assert pmf.probability((0,)) == pmf.table[0]


def _weighted_kernel(disc):
    # B = W^1/2 K W^1/2 on the nodes of `disc`, from the pointwise kernel
    t, root_w = disc.rule.nodes, np.sqrt(disc.rule.weights)
    return np.outer(root_w, root_w) * sine_kernel(t[:, None], t[None, :])


def _poisson_binomial(endpoints, r, k, n_quad=64):
    # P(N = 0..k) from F(s) = prod_i (1 - (1 - s) lambda_i), lambda_i the
    # eigenvalues of B = W^1/2 K W^1/2 on the same discretization
    disc = fredholm_module.Discretization(endpoints, r, n_quad)
    coeffs = np.array([1.0])
    for lam in np.linalg.eigvalsh(_weighted_kernel(disc)):
        coeffs = np.convolve(coeffs, (1.0 - lam, lam))
    return coeffs[: k + 1]


def test_pmf_single_interval_is_poisson_binomial():
    for endpoints, r, k in (((0.0, 3.0), 5.0, 10), ((0.0, 0.5), 1.0, 6), ((0.0, 1.0), 10.0, 8)):
        table = joint_pmf(endpoints, r, k).table
        assert np.max(np.abs(table - _poisson_binomial(endpoints, r, k))) < 1e-14


def test_pmf_mass_and_nonnegativity():
    pmf = joint_pmf((0.0, 0.5, 1.0), 2.0, (4, 4))
    assert np.all(pmf.table >= 0.0)
    assert abs(pmf.table.sum() + pmf.residual_mass - 1.0) < 1e-12
    assert abs(pmf.residual_mass) < 1e-6  # counts above 4 are very unlikely here


def test_pmf_marginal_consistency():
    # summing the joint table over the second count reproduces the
    # single-interval table of the first interval
    joint = joint_pmf((0.0, 0.5, 1.0), 2.0, (5, 8))
    single = joint_pmf((0.0, 0.5), 2.0, 5)
    marginal = joint.table.sum(axis=1)
    assert np.max(np.abs(marginal - single.table)) < 1e-8
    # on four and five intervals each one-interval marginal is that
    # interval's Poisson-binomial law, short of it by no more than the
    # mass outside the table
    for endpoints, r, k in (
        ((0.0, 0.2, 0.4, 0.6, 0.8), 1.0, 2),
        ((0.0, 0.3, 0.7, 1.0, 1.4), 3.0, 5),
        ((0.0, 0.5, 1.1, 1.7, 2.5, 3.0), 2.0, 3),
    ):
        joint = joint_pmf(endpoints, r, k)
        m = len(endpoints) - 1
        assert joint.table.shape == (k + 1,) * m
        assert abs(joint.table.sum() + joint.residual_mass - 1.0) < 1e-12
        for j in range(m):
            marginal = joint.table.sum(axis=tuple(a for a in range(m) if a != j))
            single = _poisson_binomial(endpoints[j : j + 2], r, k)
            assert np.max(np.abs(marginal - single)) <= abs(joint.residual_mass) + 1e-14, (endpoints, j)


def test_pmf_residual_bound_with_wide_table():
    # K >= mu + 8 sqrt(var + 1) leaves residual mass below 1e-6
    part = IntervalPartition((0.0, 1.0))
    r = 5.0
    stats = var_cov_expansion(part, r)
    k = int(math.ceil(stats.mu[0] + 8.0 * math.sqrt(stats.sigma2[0] + 1.0)))
    pmf = joint_pmf(part, r, k)
    assert abs(pmf.residual_mass) < 1e-6


def test_pmf_three_intervals_smoke():
    pmf = joint_pmf((0.0, 0.4, 0.8, 1.2), 1.0, (2, 2, 2))
    assert pmf.table.shape == (3, 3, 3)
    assert abs(pmf.table.sum() + pmf.residual_mass - 1.0) < 1e-12


def test_pmf_aliased_grid_raises_and_validation():
    # mean 4.77 on a grid of 4 points, and mean 3.18 on 6 points: the
    # folded counts moved P(N = 1) to 0.529 (true 4.4e-8) and P(N = 0) to
    # 6.8e-5 (true 1.6e-6); mean 1.6 per interval on 4 points at m = 4, 5
    for endpoints, r, k in (
        ((0.0, 3.0), 5.0, 1),
        ((0.0, 1.0), 10.0, 2),
        ((0.0, 1.0, 2.0, 3.0, 4.0), 5.0, 1),
        ((0.0, 1.0, 2.0, 3.0, 4.0, 5.0), 5.0, 1),
    ):
        with pytest.raises(NumericalError, match="raise K"):
            joint_pmf(endpoints, r, k)
    # the same intervals with K large enough
    assert joint_pmf((0.0, 3.0), 5.0, 10).table[1] < 1e-7
    assert abs(joint_pmf((0.0, 1.0), 10.0, 8).table[0] - _poisson_binomial((0.0, 1.0), 10.0, 0)[0]) < 1e-15
    with pytest.raises(ValidationError):
        joint_pmf((0.0, 0.5), 1.0, (-1,))
    with pytest.raises(ValidationError):
        joint_pmf((0.0, 0.5, 1.0), 1.0, (2,))  # one K per interval
    # a torus grid above MAX_TORUS_CELLS is refused before any kernel is
    # built: 24^4 cells at m = 4, K = 11; 8^6 = 2^18 cells is the largest
    # grid at m = 6
    with pytest.raises(ValidationError, match="cells"):
        joint_pmf((0.0, 0.2, 0.4, 0.6, 0.8), 1.0, 11)
    assert counting_module._checked_counts(3, 6) == (3,) * 6
    with pytest.raises(ValidationError, match="cells"):
        counting_module._checked_counts((0, 0, 0, 0, 0, 4), 6)
    # an order at the floor ceil(r L / 2) = 30 resolves the kernel too
    # coarsely for the tail of the table: it comes out below -1e-9
    # (-6.2e-4 at n = 30, -3.5e-7 at 32, and 33 passes)
    with pytest.raises(NumericalError, match="negative probability -6.197e-04"):
        joint_pmf((0.0, 1.0), 60.0, 40, n=30)


def test_pmf_torus_chunks_keep_the_bits(monkeypatch):
    # one matrix per chunk, or seven of rho = 8 (the m = 2 and 3 cases),
    # which leaves a last chunk of one: the same tables, bit for bit, as
    # the default chunk, which holds every matrix here; m = 1 has one
    # matrix per i_1 whatever the chunk
    cases = (((0.0, 0.5), 1.0, 4), ((0.0, 0.5, 1.1), 2.0, 3), ((0.0, 0.4, 0.8, 1.2), 1.0, 2))
    want = [joint_pmf(*case).table for case in cases]
    for chunk in (1, 7 * 8 * 8):
        monkeypatch.setattr(counting_module, "TORUS_CHUNK", chunk)
        for case, table in zip(cases, want):
            assert np.array_equal(joint_pmf(*case).table, table), (chunk, case)


def test_pmf_memory_does_not_grow_with_the_torus():
    # six intervals at K = 3 (8^6 cells, at the bound) and rho = 13: the
    # g^5 matrices held at once peaked at 176 MiB; in chunks the peak is
    # that of the 4 MiB torus arrays, 17 MiB
    tracemalloc.start()
    try:
        joint_pmf(tuple(0.5 * i for i in range(7)), 3.0, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20, peak / 2**20


def test_pmf_table_read_only():
    pmf = joint_pmf((0.0, 0.5), 1.0, 2)
    with pytest.raises(ValueError):
        pmf.table[0] = 0.5


# ---------------------------------------------------------------------------
# thinning


def test_thinned_gap_no_thinning_is_one():
    assert thinned_gap_probability((0.0, 0.5, 1.2), (1.0, 1.0), 7.0) == 1.0


def test_thinned_gap_full_thinning_is_hard_gap():
    part = IntervalPartition((0.0, 0.6, 1.3))
    got = thinned_gap_probability(part, (0.0, 0.0), 6.0)
    want = math.exp(fredholm_det((0.0, 1.3), (0.0,), 6.0).log_f.real)
    assert abs(got - want) < 1e-10


def test_thinned_gap_monotone_in_weights():
    part = IntervalPartition((0.0, 0.6, 1.3))
    chain = [(0.0, 0.2), (0.3, 0.2), (0.3, 0.6), (0.9, 0.6), (1.0, 1.0)]
    vals = [thinned_gap_probability(part, s, 4.0) for s in chain]
    assert all(a < b or (a == b == 1.0) for a, b in zip(vals, vals[1:]))


def test_thinned_gap_validation():
    with pytest.raises(ValidationError):
        thinned_gap_probability((0.0, 1.0), (1.2,), 2.0)  # s > 1
    with pytest.raises(ValidationError):
        thinned_gap_probability((0.0, 1.0), (-0.1,), 2.0)
    with pytest.raises(ValidationError):
        thinned_gap_probability((0.0, 1.0), (0.5, 0.5), 2.0)  # m mismatch


# ---------------------------------------------------------------------------
# conditioning


def test_conditional_zero_probability_limits():
    part = IntervalPartition((0.0, 0.6, 1.3))
    # s = 0: the thinned process is the process itself, conditioning is exact
    assert abs(conditional_zero_probability(part, (0.0, 0.0), 6.0) - 1.0) < 1e-10
    # s = 1: nothing is kept, conditioning is vacuous
    got = conditional_zero_probability(part, (1.0, 1.0), 6.0)
    want = math.exp(fredholm_det((0.0, 1.3), (0.0,), 6.0).log_f.real)
    assert abs(got - want) < 1e-12


def test_conditional_zero_probability_in_unit_interval():
    part = IntervalPartition((0.0, 0.6, 1.3))
    val = conditional_zero_probability(part, (0.3, 0.7), 6.0)
    assert 0.0 < val <= 1.0


def test_conditional_zero_probability_order_consistency():
    part = IntervalPartition((0.0, 0.6, 1.3))
    a = conditional_zero_probability(part, (0.3, 0.7), 6.0, n=64)
    b = conditional_zero_probability(part, (0.3, 0.7), 6.0, n=128)
    assert abs(a - b) < 1e-9


def test_conditional_zero_probability_names_the_order_that_resolves_both_determinants():
    # each interval needs at most 10 at r = 30, the merged numerator
    # (0, 1.7) needs 26: the first message already names 26
    args = ((0.0, 0.5, 1.1, 1.7), (0.3, 0.7, 0.5), 30.0)
    for n in (8, 10):
        with pytest.raises(NumericalError, match=r"^order n = \d+ cannot resolve the interval \(0, 1\.7\) .* = 26$"):
            conditional_zero_probability(*args, n)
    assert conditional_zero_probability(*args, 64) == 1.6222704690414057e-137


# ---------------------------------------------------------------------------
# numerical cumulants


def test_cumulant_means_are_exact():
    part = IntervalPartition((0.0, 0.5, 1.2))
    for r in (5.0, 20.0):
        got = numerical_cumulants(part, r, order=2)
        assert got.labels == (1, 2)
        assert abs(got.mu[0] - r * 0.5 / math.pi) < 1e-6
        assert abs(got.mu[1] - r * 1.2 / math.pi) < 1e-6


def test_cumulant_variance_matches_expansion():
    part = IntervalPartition((0.0, 0.5, 1.2))
    num = numerical_cumulants(part, 20.0, order=2)
    asym = var_cov_expansion(part, 20.0)
    assert abs(num.sigma2[0] - asym.sigma2[0]) < 0.05
    assert abs(num.cross[0, 1] - asym.cross[0, 1]) < 0.08
    assert num.cross[0, 1] == num.cross[1, 0]
    assert num.cross[0, 0] == num.sigma2[0]


def test_cumulant_order_one_skips_second_moments():
    got = numerical_cumulants((0.0, 1.0), 4.0, order=1)
    assert abs(got.mu[0] - 4.0 / math.pi) < 1e-6
    assert np.all(np.isnan(got.sigma2))
    assert np.all(np.isnan(got.cross))


def _number_variance(length):
    # Var N for one interval of the given length (unit density); 0 when empty
    if length == 0.0:
        return 0.0
    si, ci = sici(2.0 * length)
    log_part = math.log(2.0 * length) + np.euler_gamma + 1.0 - ci - math.cos(2.0 * length)
    return log_part / math.pi**2 + (length / math.pi) * (1.0 - 2.0 * si / math.pi)


def test_cumulant_covariances_match_exact_number_variance():
    x = (0.0, 0.5, 1.1, 1.7, 2.5)
    for r in (5.0, 20.0, 40.0):
        got = numerical_cumulants(x, r)
        d = [r * (xj - x[0]) for xj in x[1:]]
        # N_j N_l share the shorter interval: Cov = (V(d_j) + V(d_l) - V(|d_j - d_l|)) / 2
        want = np.array(
            [[(_number_variance(a) + _number_variance(b) - _number_variance(abs(a - b))) / 2.0 for b in d] for a in d]
        )
        assert np.max(np.abs(got.cross - want)) < 1e-12
        assert np.max(np.abs(got.sigma2 - np.diagonal(want))) < 1e-12
        assert np.max(np.abs(got.mu - np.array(d) / math.pi)) < 1e-12


def test_cumulant_validation():
    with pytest.raises(ValidationError):
        numerical_cumulants((0.0, 1.0), 4.0, order=3)
    with pytest.raises(ValidationError):
        numerical_cumulants((0.0, 1.0), -4.0)


# ---------------------------------------------------------------------------
# one discretization per call: same numbers as fredholm_det, fewer kernels


def _pmf_by_lu(endpoints, r, k, n_quad=64):
    # joint_pmf's inversion with one dense LU per torus point: F(s) =
    # det(I - K diag(c)), c = w (1 - s), on the Nystrom matrix of size N
    m = len(endpoints) - 1
    g = 2 * k + 2
    disc = fredholm_module.Discretization(endpoints, r, n_quad)
    rule, size = disc.rule, len(disc.rule.nodes)
    kernel = sine_kernel(rule.nodes[:, None], rule.nodes[None, :])
    phases = np.exp(2j * math.pi * np.arange(g) / g)
    f_grid = np.empty((g,) * m, dtype=complex)
    for combo in product(range(g), repeat=m):
        c = rule.weights * (1.0 - phases[list(combo)][rule.interval_index])
        sign, log_abs = np.linalg.slogdet(np.eye(size) - kernel * c)
        f_grid[combo] = sign * np.exp(log_abs)
    table = (np.fft.fftn(f_grid) / g**m)[(slice(0, k + 1),) * m].real.copy()
    table[table < 0.0] = 0.0
    return table


def test_counting_equals_loop_over_fredholm_det():
    # m = 1, 2, 3 and r = 0.5 to 10, K up to 8: the low-rank torus values
    # move the per-point LU cells by rounding only
    for endpoints, r, k in (
        ((0.0, 0.5), 0.5, 3),
        ((0.0, 1.0), 10.0, 8),
        ((0.0, 0.5, 1.0), 2.0, 2),
        ((0.0, 0.5, 1.0), 5.0, 5),
        ((0.0, 0.3, 0.6), 10.0, 6),
        ((0.0, 0.5, 1.1, 1.7), 0.5, 1),
        ((0.0, 0.4, 0.8, 1.2), 1.0, 1),
        ((0.0, 0.2, 0.4, 0.6), 5.0, 1),
    ):
        table = joint_pmf(endpoints, r, k).table
        assert np.max(np.abs(table - _pmf_by_lu(endpoints, r, k))) <= 1e-14, (endpoints, r, k)

    # the cumulants as Richardson-extrapolated central differences of
    # log F(u), s_j = exp(u_j + ... + u_m), at steps h and h / 2
    part, r, h = IntervalPartition((0.0, 0.5, 1.2)), 5.0, 1e-3

    def log_f(u):
        s = np.exp(np.cumsum(np.asarray(u)[::-1])[::-1])
        return fredholm_det(part, tuple(float(v) for v in s), r).log_f.real

    def richardson(diff):
        return (4.0 * diff(h / 2.0) - diff(h)) / 3.0

    e = np.eye(2)
    f0 = log_f(np.zeros(2))
    mean = [richardson(lambda t: (log_f(t * e[j]) - log_f(-t * e[j])) / (2.0 * t)) for j in range(2)]
    var = [richardson(lambda t: (log_f(t * e[j]) - 2.0 * f0 + log_f(-t * e[j])) / (t * t)) for j in range(2)]
    cov = richardson(
        lambda t: sum(a * b * log_f(t * (a * e[0] + b * e[1])) for a in (1, -1) for b in (1, -1)) / (4.0 * t * t)
    )
    got = numerical_cumulants(part, r, order=2)
    assert np.max(np.abs(got.mu - mean)) < 1e-9
    assert np.max(np.abs(got.sigma2 - var)) < 1e-6
    assert abs(got.cross[0, 1] - cov) < 1e-6
    fine = numerical_cumulants(part, r, order=2, n=128)
    assert np.max(np.abs(got.mu - fine.mu)) < 1e-12
    assert np.max(np.abs(got.cross - fine.cross)) < 1e-12

    part = IntervalPartition((0.0, 0.6, 1.3))
    for s in ((0.3, 0.7), (0.0, 0.4), (0.0, 0.0)):
        den = fredholm_det(part, s, 6.0).log_f.real
        assert thinned_gap_probability(part, s, 6.0) == min(1.0, math.exp(den))
        num = fredholm_det((0.0, 1.3), (0.0,), 6.0).log_f.real
        assert conditional_zero_probability(part, s, 6.0) == min(1.0, math.exp(num - den))


def test_counting_fills_one_kernel_and_factors_once_per_weight(monkeypatch):
    calls = {"kernel": 0, "factor": 0, "lu": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # a kernel is one _scaled_kernel fill, however many blocks it takes:
    # the covariances sum the squares of one, and each determinant fills
    # its own scaled kernel in _log_det
    fill = counted("kernel", fredholm_module._scaled_kernel)
    for module in (fredholm_module, counting_module):
        monkeypatch.setattr(module, "_scaled_kernel", fill)
    monkeypatch.setattr(fredholm_module, "cholesky_factor", counted("factor", fredholm_module.cholesky_factor))
    monkeypatch.setattr(fredholm_module, "lu_factor", counted("lu", fredholm_module.lu_factor))

    def run(fn, *args, **kwargs):
        calls.update(kernel=0, factor=0, lu=0)
        fn(*args, **kwargs)
        return dict(calls)

    # the torus values are determinants of the low-rank factor's size,
    # none a factorization of the Nystrom matrix, and the factor reads its
    # pivot rows pointwise: no fill; at K = 0 (g = 2) r is small enough
    # that two counts in one interval do not fold onto zero
    assert run(joint_pmf, (0.0, 0.5, 1.0), 2.0, 2) == {"kernel": 0, "factor": 0, "lu": 0}
    assert run(joint_pmf, (0.0, 0.4, 0.8, 1.2), 1.0, 1) == {"kernel": 0, "factor": 0, "lu": 0}
    assert run(joint_pmf, (0.0, 0.5, 1.0), 0.01, 0) == {"kernel": 0, "factor": 0, "lu": 0}
    # the cumulants are traces: no factorization, and the means need the
    # diagonal only
    assert run(numerical_cumulants, (0.0, 0.5, 1.2), 5.0) == {"kernel": 1, "factor": 0, "lu": 0}
    assert run(numerical_cumulants, (0.0, 0.5, 1.2), 5.0, order=1) == {"kernel": 0, "factor": 0, "lu": 0}
    # the gap probabilities take weights in [0, 1]: one Cholesky factor each
    assert run(thinned_gap_probability, (0.0, 0.6, 1.3), (0.3, 0.7), 6.0) == {"kernel": 1, "factor": 1, "lu": 0}
    # the merged gap (numerator) and the thinned partition (denominator)
    assert run(conditional_zero_probability, (0.0, 0.6, 1.3), (0.3, 0.7), 6.0) == {"kernel": 2, "factor": 2, "lu": 0}


def test_unimodular_weights_bound():
    # |F(s)| <= 1 for |s_j| = 1 (F is the generating function of a
    # probability law) and F(1) = 1, on the torus values behind joint_pmf
    rng = np.random.default_rng(29)
    disc = fredholm_module.Discretization((0.0, 0.5, 1.1), 4.0, 64)
    v = counting_module._pivoted_cholesky(disc)
    grams = [v[j * 64 : (j + 1) * 64].T @ v[j * 64 : (j + 1) * 64] for j in range(2)]
    phases = np.exp(1j * np.r_[0.0, rng.uniform(0.0, 2.0 * math.pi, 10)])
    f_grid = counting_module._torus_values(grams, phases)
    assert f_grid[0, 0] == 1.0
    assert np.max(np.abs(f_grid)) <= 1.0 + 1e-12


def test_pmf_conjugate_symmetry_check_catches_a_skewed_determinant(monkeypatch):
    # F exp(-1e-5 sum_j Im s_j) breaks F(conj s) = conj F(s) on every grid
    # point off the real axis, and leaves the points s_j = +-1 (all of
    # them at g = 2) as they are
    exact = counting_module._torus_values
    only_self_conjugate = joint_pmf((0.0, 0.5, 1.0), 0.01, 0).table  # g = 2

    def skewed(grams, phases):
        im = phases.imag
        return exact(grams, phases) * np.exp(-1e-5 * np.add.outer(im, im))

    monkeypatch.setattr(counting_module, "_torus_values", skewed)
    for k in (1, 2, 3):  # g = 4, 6, 8
        with pytest.raises(NumericalError, match=r"F\(conj s\) departs from conj F\(s\)"):
            joint_pmf((0.0, 0.5, 1.0), 2.0, k)
    assert np.array_equal(joint_pmf((0.0, 0.5, 1.0), 0.01, 0).table, only_self_conjugate)


def test_pmf_factor_has_low_rank_and_meets_its_stopping_rule():
    # the 3- and 4-interval bench partitions at r = 0.3 to 20: rho of 6 to
    # 30 columns out of N = 192 and 256, residual trace at most eps tr(B).
    # The factor reads B pointwise, and against that B every entry of
    # B - V V^T is within 0.03 to 0.058 of eps tr(B) (the separable fill
    # with scales 1 read 0.96 at r = 0.3).  No N x N array is built: the
    # factor peaks at 0.1 to 0.35 of one.
    for endpoints in ((0.0, 0.5, 1.1, 1.7), (0.0, 0.5, 1.1, 1.7, 2.5)):
        for r in (0.3, 0.5, 0.7, 1.0, 1.5, 3.0, 10.0, 20.0):
            disc = fredholm_module.Discretization(endpoints, r, 64)
            size = len(disc.rule.nodes)
            tracemalloc.start()
            try:
                v = counting_module._pivoted_cholesky(disc)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            b = _weighted_kernel(disc)
            eps_trace = np.finfo(float).eps * np.trace(b)
            assert v.shape[0] == size == 64 * (len(endpoints) - 1) and v.shape[1] < 32
            assert np.trace(b - v @ v.T) <= eps_trace, (endpoints, r)
            assert np.max(np.abs(b - v @ v.T)) <= eps_trace, (endpoints, r)
            assert np.max(np.abs(b - v @ v.T)) <= 0.25 * eps_trace, (endpoints, r)
            assert peak < 0.5 * b.nbytes, (endpoints, r, peak / b.nbytes)


def test_counting_keeps_order_and_sign_checks():
    with pytest.raises(ValidationError, match="quadrature order"):
        joint_pmf((0.0, 0.5), 1.0, 2, n=4)
    with pytest.raises(ValidationError, match="quadrature order"):
        numerical_cumulants((0.0, 1.0), 4.0, n=7)
    with pytest.raises(ValidationError, match="scale r"):
        thinned_gap_probability((0.0, 1.0), (0.5,), float("nan"))
    # fig1-left at r = 200 and n = 71, one node above the order floor, has
    # one negative eigenvalue: the Cholesky factor of the gap probability
    # raises instead of returning a value
    s = WeightConfiguration.from_positive_u((-1.1, -2.4)).values
    with pytest.raises(NumericalError, match="not positive definite"):
        thinned_gap_probability((0.0, 0.7, 1.2), s, 200.0, n=71)
    assert 0.0 < thinned_gap_probability((0.0, 0.7, 1.2), s, 200.0, n=128) < 1e-99
