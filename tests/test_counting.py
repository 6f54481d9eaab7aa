"""Count distributions, thinning, conditioning, numerical cumulants.

Oracles: the s = 0 determinant gives P(all counts zero) directly; the
exact mean r (x_1 - x_0)/pi anchors both the PMF first moment and the
trace cumulants, whose covariances are checked against the closed-form
sine-process number variance and against differences of log F;
marginalizing a joint table must reproduce the single-interval table for
the same interval.
"""

import math
from itertools import product

import numpy as np
import pytest
from scipy.special import sici

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


def test_pmf_grid_override_and_validation():
    fine = joint_pmf((0.0, 0.5), 1.0, 3, n_grid_per_dim=16)
    coarse = joint_pmf((0.0, 0.5), 1.0, 3)
    assert np.max(np.abs(fine.table - coarse.table)) < 1e-12
    with pytest.raises(ValidationError):
        joint_pmf((0.0, 0.5), 1.0, 3, n_grid_per_dim=7)  # < 2 max(K) + 2
    with pytest.raises(ValidationError):
        joint_pmf((0.0, 0.5), 1.0, (-1,))
    with pytest.raises(ValidationError):
        joint_pmf((0.0, 0.5, 1.0), 1.0, (2,))  # one K per interval
    with pytest.raises(ValidationError):
        joint_pmf((0.0, 0.2, 0.4, 0.6, 0.8), 1.0, 2)  # m = 4 unsupported


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
    want = math.exp(fredholm_det(part.merged(), (0.0,), 6.0).log_f.real)
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
    want = math.exp(fredholm_det(part.merged(), (0.0,), 6.0).log_f.real)
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


def _pmf_from_fredholm_det(endpoints, r, k, n_quad=64):
    # joint_pmf's inversion written over plain fredholm_det calls
    m = len(endpoints) - 1
    g = 2 * k + 2
    phases = np.exp(2j * math.pi * np.arange(g) / g)
    f_grid = np.empty((g,) * m, dtype=complex)
    for combo in product(range(g), repeat=m):
        weights = WeightConfiguration(tuple(phases[i] for i in combo))
        f_grid[combo] = np.exp(fredholm_det(endpoints, weights, r, n_quad).log_f)
    table = (np.fft.fftn(f_grid) / g**m)[(slice(0, k + 1),) * m].real.copy()
    table[table < 0.0] = 0.0
    return table


def test_counting_equals_loop_over_fredholm_det():
    for endpoints, r, k in (((0.0, 0.5, 1.0), 2.0, 2), ((0.0, 0.4, 0.8, 1.2), 1.0, 1)):
        assert np.array_equal(joint_pmf(endpoints, r, k).table, _pmf_from_fredholm_det(endpoints, r, k))

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
        num = fredholm_det(part.merged(), (0.0,), 6.0).log_f.real
        assert conditional_zero_probability(part, s, 6.0) == min(1.0, math.exp(num - den))


def test_counting_fills_one_kernel_and_factors_once_per_weight(monkeypatch):
    calls = {"kernel": 0, "lu": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(fredholm_module, "sine_kernel", counted("kernel", fredholm_module.sine_kernel))
    monkeypatch.setattr(fredholm_module, "lu_factor", counted("lu", fredholm_module.lu_factor))

    def run(fn, *args, **kwargs):
        calls.update(kernel=0, lu=0)
        fn(*args, **kwargs)
        return dict(calls)

    # g^m torus points, g = 2 K + 2
    assert run(joint_pmf, (0.0, 0.5, 1.0), 2.0, 2) == {"kernel": 1, "lu": 36}
    assert run(joint_pmf, (0.0, 0.4, 0.8, 1.2), 1.0, 1) == {"kernel": 1, "lu": 64}
    # the cumulants are traces: no factorization
    assert run(numerical_cumulants, (0.0, 0.5, 1.2), 5.0) == {"kernel": 1, "lu": 0}
    assert run(numerical_cumulants, (0.0, 0.5, 1.2), 5.0, order=1) == {"kernel": 1, "lu": 0}
    assert run(thinned_gap_probability, (0.0, 0.6, 1.3), (0.3, 0.7), 6.0) == {"kernel": 1, "lu": 1}
    # the merged gap (numerator) and the thinned partition (denominator)
    assert run(conditional_zero_probability, (0.0, 0.6, 1.3), (0.3, 0.7), 6.0) == {"kernel": 2, "lu": 2}


def test_counting_keeps_order_and_sign_checks(monkeypatch):
    with pytest.raises(ValidationError, match="quadrature order"):
        joint_pmf((0.0, 0.5), 1.0, 2, n_quad=4)
    with pytest.raises(ValidationError, match="quadrature order"):
        numerical_cumulants((0.0, 1.0), 4.0, n=7)
    with pytest.raises(ValidationError, match="scale r"):
        thinned_gap_probability((0.0, 1.0), (0.5,), float("nan"))
    monkeypatch.setattr(fredholm_module, "_lu_log_det", lambda mat: complex(-1.0, 0.5))
    with pytest.raises(NumericalError, match="lost determinant sign"):
        thinned_gap_probability((0.0, 1.0), (0.5,), 4.0)
