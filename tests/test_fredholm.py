"""Determinant layer: kernel, partitions, weights, factorization and series
routes.

The two evaluation routes (Cholesky factors vs truncated series) are
kept independent in the implementation and are cross-checked here; the exact
symmetries of the determinant (translation, reflection, scaling) provide
oracle-free invariance checks.
"""

import math
import re

import numpy as np
import pytest

import sinegap.fredholm as fredholm_module
from sinegap import (
    CompositeRule,
    DeterminantResult,
    Discretization,
    IntervalPartition,
    NumericalError,
    ValidationError,
    WeightConfiguration,
    composite_rule,
    conditional_zero_probability,
    fredholm_det,
    joint_pmf,
    numerical_cumulants,
    reduced_indices,
    series_det,
    sine_kernel,
    thinned_gap_probability,
)


def _unit_kernel(rule):
    """The sine kernel on the nodes of `rule` as the Nystrom fill builds it:
    the upper blocks of `_scaled_kernel` with unit scales, mirrored."""
    ones = np.ones(len(rule.nodes))
    return fredholm_module._mirror(fredholm_module._scaled_kernel(rule, ones, ones), rule)


# frozen from an independent prototype (numpy leggauss nodes + slogdet),
# x = (0, 0.7, 1.2), s = (e^{-3.5}, e^{-2.4}), r = 20, n = 64
LOG_F_REFERENCE = -20.64586037


# ---------------------------------------------------------------------------
# kernel


def test_sine_kernel_diagonal_and_symmetry():
    assert sine_kernel(0.3, 0.3) == 1.0 / math.pi
    x = np.linspace(-2.0, 2.0, 7)
    mat = sine_kernel(x[:, None], x[None, :])
    assert np.allclose(mat, mat.T, atol=0.0, rtol=0.0)


def test_sine_kernel_near_diagonal_taylor():
    # sin(d)/(pi d) = (1 - d^2/6 + d^4/120 - ...) / pi
    for d in (1e-4, 1e-6, 1e-9):
        want = (1.0 - d * d / 6.0 + d**4 / 120.0) / math.pi
        assert abs(sine_kernel(d, 0.0) - want) < 1e-15


def test_sine_kernel_is_numpy_sinc_bit_for_bit():
    # the pointwise reference that series_det and the kernel-fill tests
    # use rounds exactly as np.sinc(d / pi) / pi does
    rng = np.random.default_rng(11)
    x = np.concatenate((rng.uniform(-60.0, 60.0, 300), [0.0, 1e-300, -2.5]))
    d = np.subtract(x[:, None], x[None, :])
    want = np.sinc(d / math.pi) / math.pi
    assert np.array_equal(sine_kernel(x[:, None], x[None, :]), want)


def test_sine_kernel_scalar_and_integer_inputs_match_numpy_sinc():
    for x, y in ((3, 1), (2, 2), (0.3, -1.25), (np.int64(5), 2.5)):
        got = sine_kernel(x, y)
        assert np.ndim(got) == 0
        assert got == np.sinc((x - y) / math.pi) / math.pi
    ints = np.arange(-4, 5)
    want = np.sinc(np.subtract(ints[:, None], ints[None, :]) / math.pi) / math.pi
    assert np.array_equal(sine_kernel(ints[:, None], ints[None, :]), want)


def test_sine_kernel_plain_values():
    assert abs(sine_kernel(math.pi, 0.0)) < 1e-16
    assert abs(sine_kernel(0.5 * math.pi, 0.0) - 1.0 / (0.5 * math.pi**2)) < 1e-15


# ---------------------------------------------------------------------------
# partition


def test_partition_basic_properties():
    part = IntervalPartition((0.0, 0.5, 1.2))
    assert part.m == 2
    assert part.lengths == (0.5, 0.7)
    assert part.as_array().tolist() == [0.0, 0.5, 1.2]
    assert part.merged().endpoints == (0.0, 1.2)


def test_partition_transforms():
    part = IntervalPartition((0.0, 0.5, 1.2))
    assert part.translated(2.0).endpoints == (2.0, 2.5, 3.2)
    assert part.reflected().endpoints == (-1.2, -0.5, 0.0)
    assert part.scaled(3.0).endpoints == (0.0, 1.5, 3.0 * 1.2)


def test_partition_rejects_bad_endpoints():
    with pytest.raises(ValidationError):
        IntervalPartition((1.0,))
    with pytest.raises(ValidationError):
        IntervalPartition((0.0, 0.0))
    with pytest.raises(ValidationError):
        IntervalPartition((1.0, 0.5))
    with pytest.raises(ValidationError):
        IntervalPartition((0.0, math.inf))


def test_reduced_indices():
    assert reduced_indices(3, 2) == (0, 3)
    assert reduced_indices(4, 3) == (0, 1, 4)
    assert reduced_indices(1, 1) == ()
    for bad in (0, 5, -1, True, 1.0):
        with pytest.raises(ValidationError):
            reduced_indices(4, bad)


# ---------------------------------------------------------------------------
# weights


def test_weights_real_normalization_and_mode():
    w = WeightConfiguration((0.5, 1))
    assert w.values == (0.5, 1.0) and all(type(v) is float for v in w.values)
    assert w.zero_indices() == ()
    assert w.as_array().dtype == np.float64
    wz = WeightConfiguration(np.array([0.5, 0.0, 0.25]))
    assert all(type(v) is float for v in wz.values) and wz.zero_indices() == (2,)
    assert WeightConfiguration((0.0, 0.0)).zero_indices() == (1, 2)


def test_weights_positive_u_round_trip():
    u = np.array([-1.1, -2.4, 0.7])
    w = WeightConfiguration.from_positive_u(u)
    assert w.zero_indices() == () and w.m == 3
    # s_j = exp(u_j + ... + u_m)
    assert abs(w.values[0] - math.exp(-1.1 - 2.4 + 0.7)) < 1e-15
    assert abs(w.values[1] - math.exp(-2.4 + 0.7)) < 1e-15
    assert abs(w.values[2] - math.exp(0.7)) < 1e-15


def test_weights_zero_u_round_trip():
    u = np.array([0.8, 1.8, -1.87])
    w = WeightConfiguration.from_zero_u(u, 3, 4)
    assert w.zero_indices() == (3,)
    assert w.values[2] == 0.0
    # left side: s_1 = e^{-u_0}, s_2 = e^{-u_0-u_1}; right side: s_4 = e^{u_4}
    assert abs(w.values[0] - math.exp(-0.8)) < 1e-15
    assert abs(w.values[1] - math.exp(-0.8 - 1.8)) < 1e-15
    assert abs(w.values[3] - math.exp(-1.87)) < 1e-15


def test_weights_validation():
    with pytest.raises(ValidationError):
        WeightConfiguration(())
    with pytest.raises(ValidationError):
        WeightConfiguration((-0.1,))
    with pytest.raises(ValidationError):
        WeightConfiguration((math.inf,))
    with pytest.raises(ValidationError):
        WeightConfiguration.from_positive_u((math.nan,))
    with pytest.raises(ValidationError):
        WeightConfiguration.from_zero_u((0.8,), 2, 3)  # needs m-1 = 2 values
    # weights are real: a complex value is rejected, a zero imaginary part too
    for bad in ((0.5, 1j), np.array([0.5, 1 + 0j]), (complex(0.5),), (np.complex128(0.5),)):
        with pytest.raises(ValidationError, match="real"):
            WeightConfiguration(bad)
    with pytest.raises(ValidationError, match="real"):
        fredholm_det((0, 1), (0.5 + 0.1j,), 2)


def test_weights_from_zero_u_overflow_is_a_validation_error():
    # exp(800) overflows on either side of the gap, as from_positive_u's does
    for u, p in (((-800.0,), 2), ((800.0,), 1)):
        with pytest.raises(ValidationError, match="overflows exp"):
            WeightConfiguration.from_zero_u(u, p, 2)


# ---------------------------------------------------------------------------
# determinant: exact anchors


def test_unit_weights_give_log_one():
    res = fredholm_det((0.0, 0.5, 1.2), (1.0, 1.0), 5.0)
    assert res.log_f == 0.0
    assert res.error_estimate == 0.0
    assert isinstance(res, DeterminantResult)
    assert res.order_used == 64


def test_reference_configuration_regression():
    w = WeightConfiguration.from_positive_u((-1.1, -2.4))
    res = fredholm_det((0.0, 0.7, 1.2), w, 20.0, 64)
    assert abs(res.log_f.real - LOG_F_REFERENCE) < 5e-8
    assert res.error_estimate < 1e-12


def test_series_route_matches_lu_route():
    # configurations small enough that the k <= 3 truncation is far below
    # the comparison tolerance (elementary symmetric bound tr^4 / 24)
    rng = np.random.default_rng(17)
    for _ in range(10):
        m = int(rng.integers(1, 4))
        gaps = rng.uniform(0.1, 0.5, m)
        x0 = rng.uniform(-1.0, 1.0)
        part = IntervalPartition(tuple(np.concatenate(([x0], x0 + np.cumsum(gaps)))))
        s = rng.uniform(0.5, 1.0, m)
        r = rng.uniform(0.02, 0.1)
        f_series = series_det(part, s, r)
        f_lu = math.exp(fredholm_det(part, s, r, 24).log_f.real)
        assert abs(f_series - f_lu) < 1e-8


def test_series_truncation_respects_trace_bound():
    part = IntervalPartition((0.0, 1.0))
    s = (0.2,)
    r = 1.0  # trace = 0.8/pi ~ 0.25
    f_series = series_det(part, s, r)
    f_lu = math.exp(fredholm_det(part, s, r, 32).log_f.real)
    trace = 0.8 * 1.0 / math.pi
    assert abs(f_series - f_lu) < trace**4 / 24.0 * 10.0


def test_series_preconditions():
    with pytest.raises(ValidationError):
        series_det((0.0, 1.0), (0.0,), 5.0)  # trace 5/pi too large
    with pytest.raises(ValidationError, match="2 weights for 1 intervals"):
        series_det((0.0, 1.0), (0.9, 0.9), 0.5)
    # s = 1 leaves every term of the series zero
    assert series_det((0.0, 1.0), (1.0,), 0.5) == 1.0


# ---------------------------------------------------------------------------
# determinant: invariances


def test_scaling_invariance():
    # F(x, s; r) = F(r x, s; 1): the node maps coincide exactly
    rng = np.random.default_rng(5)
    for _ in range(10):
        m = int(rng.integers(1, 4))
        gaps = rng.uniform(0.2, 0.8, m)
        part = IntervalPartition(tuple(np.concatenate(([0.0], np.cumsum(gaps)))))
        s = rng.uniform(0.0, 1.0, m)
        r = rng.uniform(0.5, 8.0)
        a = fredholm_det(part, s, r, 32).log_f
        b = fredholm_det(part.scaled(r), s, 1.0, 32).log_f
        assert abs(a - b) < 1e-12


def test_translation_invariance():
    part = IntervalPartition((0.0, 0.7, 1.2))
    w = WeightConfiguration.from_positive_u((-1.1, -2.4))
    a = fredholm_det(part, w, 6.0).log_f
    for c in (-3.0, 0.25, 10.0):
        b = fredholm_det(part.translated(c), w, 6.0).log_f
        assert abs(a - b) < 1e-11


def test_reflection_invariance():
    part = IntervalPartition((0.1, 0.7, 1.2))
    s = (0.3, 0.8)
    a = fredholm_det(part, s, 6.0).log_f
    b = fredholm_det(part.reflected(), s[::-1], 6.0).log_f
    assert abs(a - b) < 1e-11


def test_probability_bounds_randomized():
    # for s in [0,1]^m, F is a probability: 0 < F <= 1
    rng = np.random.default_rng(23)
    for _ in range(15):
        m = int(rng.integers(1, 4))
        gaps = rng.uniform(0.1, 0.9, m)
        x0 = rng.uniform(-2.0, 2.0)
        part = IntervalPartition(tuple(np.concatenate(([x0], x0 + np.cumsum(gaps)))))
        s = rng.uniform(0.0, 1.0, m)
        r = rng.uniform(0.2, 10.0)
        log_f = fredholm_det(part, s, r, 48).log_f
        assert type(log_f) is float and log_f <= 1e-12


def test_gap_probability_decreases_in_r():
    part = IntervalPartition((0.0, 1.0))
    vals = [fredholm_det(part, (0.0,), r).log_f.real for r in np.linspace(0.5, 8.0, 10)]
    assert all(b < a for a, b in zip(vals, vals[1:]))


# ---------------------------------------------------------------------------
# determinant: validation and error paths


def test_fredholm_det_validation():
    part = IntervalPartition((0.0, 1.0))
    with pytest.raises(ValidationError):
        fredholm_det(part, (0.5, 0.5), 1.0)  # m mismatch
    with pytest.raises(ValidationError):
        fredholm_det(part, (0.5,), 0.0)
    with pytest.raises(ValidationError):
        fredholm_det(part, (0.5,), -1.0)
    with pytest.raises(ValidationError):
        fredholm_det(part, (0.5,), 1.0, n=7)
    with pytest.raises(ValidationError):
        fredholm_det(part, (0.5,), 1.0, n=64.0)


def test_fredholm_det_coerces_raw_sequences():
    res = fredholm_det([0.0, 1.0], [0.5], 2.0)
    assert res.log_f.real < 0.0


def test_error_estimate_shrinks_with_order():
    part = IntervalPartition((0.0, 1.0))
    coarse = fredholm_det(part, (0.0,), 6.0, n=16).error_estimate
    fine = fredholm_det(part, (0.0,), 6.0, n=64).error_estimate
    assert fine < coarse


def test_order_below_r_length_over_two_raises():
    # at n = 64 and r = 2000 both passes are unresolved, yet they agreed to
    # 7.5 on log F = 66.2 against a true -441.0
    with pytest.raises(NumericalError, match=r"n = 64 .* n >= .* = 1000"):
        fredholm_det((0.0, 1.0), (0.5,), 2000.0)
    # fig1-left at r = 200 needs n >= 70 on its interval (0, 0.7)
    part, weights = (0.0, 0.7, 1.2), WeightConfiguration.from_positive_u((-1.1, -2.4))
    with pytest.raises(NumericalError, match=r"\(0, 0\.7\)"):
        fredholm_det(part, weights, 200.0, 64)
    res = fredholm_det(part, weights, 200.0, 128)
    assert abs(res.log_f - fredholm_det(part, weights, 200.0, 256).log_f) <= res.error_estimate
    # adjacent zeros are merged first: (0, 0.3, 0.6) with s = (0, 0) is one
    # gap of 0.6, which needs n >= 12 at r = 40
    with pytest.raises(NumericalError, match="= 12"):
        fredholm_det((0.0, 0.3, 0.6), (0.0, 0.0), 40.0, 10)
    # the floor lives in Discretization, so every Nystrom entry point has
    # it: (call, n, interval, bound)
    rows = (
        (lambda: Discretization((0.0, 1.0), 200.0, 64), 64, "(0, 1)", 100),
        # unresolved, the variance reads -25.10 (0.76687 at n = 128)
        (lambda: numerical_cumulants((0.0, 1.0), 200.0, n=64), 64, "(0, 1)", 100),
        # unresolved, F reads 1.0 against a true value of about e^-441
        (lambda: thinned_gap_probability((0.0, 1.0), (0.5,), 2000.0), 64, "(0, 1)", 1000),
        # each interval needs 10, the merged numerator (0, 1) needs 20
        (lambda: conditional_zero_probability((0.0, 0.5, 1.0), (0.3, 0.7), 40.0, n=16), 16, "(0, 1)", 20),
        # unresolved, the table has a cell of -1.27: the floor is the reason to give
        (lambda: joint_pmf((0.0, 1.0), 60.0, 40, n_quad=22), 22, "(0, 1)", 30),
        # each interval needs 6, but log_det rebuilds on the merged gap
        (lambda: Discretization((0.0, 0.3, 0.6), 40.0, 10).log_det((0.0, 0.0)), 10, "(0, 0.6)", 12),
        # r L overflows to inf: still the floor's NumericalError, not an OverflowError
        (lambda: fredholm_det((0.0, 1e300), (0.5,), 1e10), 64, "(0, 1e+300)", "inf"),
    )
    for call, n, interval, need in rows:
        with pytest.raises(NumericalError, match=rf"cannot resolve the interval {re.escape(interval)} .* = {need}$") as info:
            call()
        assert str(info.value).startswith(f"order n = {n} cannot resolve")
    assert Discretization((0.0, 1.0), 200.0, 100).n == 100  # the floor itself is allowed


# ---------------------------------------------------------------------------
# determinant: hard-gap route (one zero weight, prolate deflation)

FIG2_LEFT = ((0.0, 0.5, 1.1, 1.7), WeightConfiguration.from_zero_u((0.8, -1.32), 2, 3))
FIG2_RIGHT = ((0.0, 0.5, 1.1, 1.7, 2.5), WeightConfiguration.from_zero_u((0.8, 1.8, -1.87), 3, 4))

# log F at r = 40 by Nystrom discretization carried out in 40-digit
# arithmetic (mpmath; `tools/hard_gap_references.py logf`): Gauss-Legendre
# nodes, kernel matrix and determinant all at 40 digits; n = 40 and n = 52
# nodes per interval agree to 18 digits.  The double-precision LU of the
# assembled matrix misses these by 1.2e-7 to 2.9e-6, because the zeroed
# interval's 1 - lambda_0 is 8.9e-10 there.
HARD_GAP_REFERENCES = (
    (((0.0, 0.6), WeightConfiguration((0.0,))), -73.059508869420703688),
    (FIG2_LEFT, -94.4737854619952373),
    (FIG2_RIGHT, -130.277403523013183),
)


def test_hard_gap_matches_extended_precision_references():
    for (endpoints, weights), want in HARD_GAP_REFERENCES:
        for n in (64, 128):
            got = fredholm_det(endpoints, weights, 40.0, n).log_f
            assert abs(got - want) < 1e-9, (endpoints, n, got - want)


def test_hard_gap_error_estimate_covers_reference_error():
    # the n and n/2 passes share the prolate modes, so the estimate must
    # carry their rounding bound: without it the pure gap at n = 128
    # reports 2.8e-13 against a true error of 5.8e-12
    for (endpoints, weights), want in HARD_GAP_REFERENCES:
        for n in (64, 128):
            res = fredholm_det(endpoints, weights, 40.0, n)
            assert abs(res.log_f.real - want) <= res.error_estimate, (endpoints, n)


def test_adjacent_zero_intervals_take_hard_gap_route():
    # a hard gap written as two zeroed intervals is the same determinant;
    # the plain LU was off by 3e-7 at r = 40 and by 0.058 at r = 60
    pieces = fredholm_det((0.0, 0.3, 0.6), (0.0, 0.0), 40.0)
    assert abs(pieces.log_f.real - HARD_GAP_REFERENCES[0][1]) < 1e-9
    assert fredholm_det((0.0, 0.3, 0.6), (0.0, 0.0), 60.0) == fredholm_det((0.0, 0.6), (0.0,), 60.0)
    # a run inside a longer partition merges; a zero run and a positive
    # weight leave one zero weight, i.e. the one-zero route
    part, weights = fredholm_module._checked_weights(
        IntervalPartition((0.0, 0.2, 0.4, 0.6, 1.0)), (0.5, 0.0, 0.0, 0.7)
    )
    assert part.endpoints == (0.0, 0.2, 0.6, 1.0)
    assert weights.values == (0.5, 0.0, 0.7) and weights.zero_indices() == (2,)
    # separated zeros are not merged: they stay two zeroed intervals
    sep = IntervalPartition((0.0, 0.2, 0.4, 0.6))
    part, weights = fredholm_module._checked_weights(sep, (0.0, 0.5, 0.0))
    assert part is sep and weights.zero_indices() == (1, 3)


def test_discretization_log_det_is_fredholm_det_without_the_half_pass():
    cases = [
        ((0.0, 0.7, 1.2), (math.exp(-3.5), math.exp(-2.4)), 20.0),
        FIG2_LEFT + (40.0,),
        ((0.0, 0.3, 0.6), (0.0, 0.0), 40.0),
    ]
    for endpoints, weights, r in cases:
        disc = Discretization(endpoints, r, 64)
        log_f = disc.log_det(weights)
        assert type(log_f) is float and log_f == fredholm_det(endpoints, weights, r, 64).log_f
    b = disc.weighted_kernel  # B = W^1/2 K W^1/2, exactly symmetric
    assert not b.flags.writeable and np.array_equal(b, b.T)


def test_discretization_validation_and_sign_check(monkeypatch):
    with pytest.raises(ValidationError, match="scale r"):
        Discretization((0.0, 1.0), -1.0, 64)
    with pytest.raises(ValidationError, match="quadrature order"):
        Discretization((0.0, 1.0), 1.0, 7)
    with pytest.raises(ValidationError):
        Discretization((1.0, 0.0), 1.0, 64)
    disc = Discretization((0.0, 1.0), 2.0, 16)
    with pytest.raises(ValidationError):
        disc.log_det((0.5, 0.5))  # m mismatch
    with pytest.raises(ValidationError, match="real"):
        disc.log_det((1j,))
    # weights on both sides of 1 take two factors, and a Schur complement
    # that is not positive definite raises (made so here by flipping the
    # sign of its first diagonal entry); one-sign weights take one factor
    cholesky_factor, sizes = fredholm_module.cholesky_factor, []

    def factored(a):
        sizes.append(len(a))
        if sizes == [16, 16]:  # the Schur complement of the mixed weights
            a[0, 0] = -a[0, 0]
        return cholesky_factor(a)

    monkeypatch.setattr(fredholm_module, "cholesky_factor", factored)
    disc = Discretization((0.0, 0.5, 1.0), 2.0, 16)
    with pytest.raises(NumericalError, match="not positive definite"):
        disc.log_det((0.3, 2.5))
    assert sizes == [16, 16]
    for weights in ((0.3, 0.6), (2.0, 3.0)):
        sizes.clear()
        assert disc.log_det(weights) == fredholm_det((0.0, 0.5, 1.0), weights, 2.0, 16).log_f
        assert sizes == [32, 32, 16]  # log_det, then fredholm_det's two orders


def test_unresolved_coarse_pass_reads_an_infinite_estimate():
    # fig2-right at r = 80, n = 64: the n // 2 = 32 pass sits exactly at
    # the order floor ceil(80 * 0.8 / 2) = 32 and is not positive
    # definite there.  The fine value is kept, and the estimate is inf,
    # never a small number.
    endpoints, weights = FIG2_RIGHT
    partition = IntervalPartition(endpoints)
    gap, _ = fredholm_module._hard_gap_route(partition, weights, 80.0)
    half = composite_rule(partition, 80.0, 32)
    with pytest.raises(NumericalError, match="not positive definite"):
        fredholm_module._log_det(half, weights, gap)
    res = fredholm_det(endpoints, weights, 80.0, 64)
    assert res.log_f == Discretization(endpoints, 80.0, 64).log_det(weights)
    assert res.error_estimate == math.inf


def test_indefinite_discretization_raises():
    # fig1-left at r = 200, n = 64 (below the floor of 70, so the rule is
    # built directly) has two negative eigenvalues.  The LU's sign parity
    # cannot see an even count: it returned -219.10 against a true
    # -228.64.  The Cholesky factor raises; n = 128 resolves.
    partition = IntervalPartition((0.0, 0.7, 1.2))
    weights = WeightConfiguration.from_positive_u((-1.1, -2.4))
    rule = composite_rule(partition, 200.0, 64)
    kernel = sine_kernel(rule.nodes[:, None], rule.nodes[None, :])
    c = rule.weights * (1.0 - weights.as_array()[rule.interval_index])
    d = np.sqrt(c)
    assert np.count_nonzero(np.linalg.eigvalsh(np.eye(len(c)) - d[:, None] * kernel * d) < 0.0) == 2
    with pytest.raises(NumericalError, match="not positive definite"):
        fredholm_module._log_det(rule, weights, None)
    rule = composite_rule(partition, 200.0, 128)
    log_f = fredholm_module._log_det(rule, weights, None)
    assert abs(log_f - -228.64370442447) < 1e-9


def test_indefinite_mixed_sign_discretization_raises():
    # weights on both sides of 1 at r = 150, n = 48 (below the floor of 53,
    # so the rule is built directly): the block where s > 1 is positive
    # definite, but its Schur complement has two negative eigenvalues.  A
    # pivoted LU's sign parity cannot see an even count: it returned
    # -63.749 against a true -69.456.  The second factor raises; n = 128
    # and 256 resolve.
    partition, weights = IntervalPartition((0.0, 0.7, 1.2)), WeightConfiguration((0.05, 3.0))
    rule = composite_rule(partition, 150.0, 48)
    t = rule.nodes
    c = rule.weights * (1.0 - weights.as_array()[rule.interval_index])
    d, m = np.sqrt(np.abs(c)), c < 0.0
    mat = np.eye(len(c)) - np.sign(c)[:, None] * d[:, None] * sine_kernel(t[:, None], t[None, :]) * d
    a_mm, a_mp, a_pm, a_pp = (mat[np.ix_(rows, cols)] for rows in (m, ~m) for cols in (m, ~m))
    assert np.all(np.linalg.eigvalsh(a_mm) > 0.0)
    assert np.count_nonzero(np.linalg.eigvalsh(a_pp - a_pm @ np.linalg.solve(a_mm, a_mp)) < 0.0) == 2
    with pytest.raises(NumericalError, match="not positive definite"):
        fredholm_module._log_det(rule, weights, None)
    for n in (128, 256):
        log_f = fredholm_module._log_det(composite_rule(partition, 150.0, n), weights, None)
        assert abs(log_f - -69.4561901199) < 1e-9, (n, log_f)


def test_kernel_fill_is_symmetric_and_within_its_rounding_bound():
    # the fill is sin t_a cos t_b - cos t_a sin t_b over pi (t_a - t_b):
    # exactly symmetric, exactly 1/pi on the diagonal, and off it within
    # 3 eps / (pi |t_a - t_b|) of the kernel at the node doubles; against
    # the reference form the rounding of t_a - t_b inside sine_kernel adds
    # the |t_a| + |t_b| term.  Weighted by w_b, which is as small as the
    # node spacing, the difference stays at a few eps.
    eps = np.finfo(float).eps
    # the rules are built directly: n = 9 at r = 200 is below the order
    # floor of a Discretization, but the fill must hold at any order
    for endpoints in ((0.0, 0.7), (0.0, 0.5, 1.2), (0.0, 0.5, 1.1, 1.7), (0.0, 0.5, 1.1, 1.7, 2.5)):
        partition = IntervalPartition(endpoints)
        for r in (1e-3, 1.0, 23.0, 200.0):
            for n in (9, 128):
                full = composite_rule(partition, r, n)
                full_kernel = _unit_kernel(full)
                half = composite_rule(partition, r, n // 2)
                for rule, kernel, order in ((full, full_kernel, n), (half, _unit_kernel(half), n // 2)):
                    t = rule.nodes
                    assert kernel.shape == (len(t), len(t)) == (order * (len(endpoints) - 1),) * 2
                    assert np.array_equal(kernel, kernel.T)
                    assert np.all(np.diagonal(kernel) == 1.0 / math.pi)
                t, w = full.nodes, full.weights
                diff = np.abs(full_kernel - sine_kernel(t[:, None], t[None, :]))
                dist = np.abs(np.subtract.outer(t, t))
                np.fill_diagonal(dist, 1.0)  # diff is 0 there
                size = np.abs(t)
                bound = 4.0 * eps * (1.0 + size[:, None] + size[None, :]) / (math.pi * dist)
                assert np.all(diff <= bound), (endpoints, r, n)
                assert np.max(diff * w[None, :]) <= 8.0 * eps, (endpoints, r, n)


# (endpoints, r, n, a, b, t_a, t_b, K(t_a, t_b)): sin(t_a - t_b) /
# (pi (t_a - t_b)) at the node doubles in 40-digit arithmetic (mpmath),
# printed to 30 digits.  The first two pairs are adjacent nodes across an
# interval boundary.
KERNEL_REFERENCES = (
    ((0.0, 0.5, 1.1, 1.7), 200.0, 128, 127, 128, 99.9912443973566, 100.01050672317207,
     0.318290202414369433316996085913),
    ((0.0, 0.5, 1.1, 1.7), 200.0, 128, 255, 256, 219.98949327682794, 220.0105067231721,
     0.318286460954028201323046380544),
    ((0.0, 0.5, 1.1, 1.7), 200.0, 128, 63, 64, 49.38881505196921, 50.61118494803079,
     0.244756520569842504952499309465),
    ((0.0, 0.5, 1.1, 1.7), 200.0, 128, 0, 383, 0.008755602643404359, 339.9894932768279,
     0.00059504666104254494800314193571),
    ((0.0, 0.7), 1e-3, 9, 3, 4, 0.00023651130180866688, 0.00035,
     0.318309885500502181215722568145),
    ((0.0, 0.5, 1.2), 23.0, 9, 2, 15, 2.2231142619716056, 24.48764003323975,
     -0.00385989878268230294809505752549),
)


def test_kernel_fill_matches_extended_precision_entries():
    eps = np.finfo(float).eps
    for endpoints, r, n, a, b, t_a, t_b, want in KERNEL_REFERENCES:
        disc = Discretization(endpoints, r, n)
        moved_a, moved_b = disc.rule.nodes[a] - t_a, disc.rule.nodes[b] - t_b
        assert max(abs(moved_a), abs(moved_b)) <= 1e-13 * max(1.0, abs(t_a), abs(t_b))
        # a rule whose nodes differ from the references' in the last bits
        # (np.cos differs by an ulp between CPUs) moves K to first order
        d = t_a - t_b
        want += (math.cos(d) - math.sin(d) / d) / (math.pi * d) * (moved_a - moved_b)
        tol = 3.0 * eps / (math.pi * abs(d)) + 2.0 * eps * abs(want)
        kernel = _unit_kernel(disc.rule)
        for got in (kernel[a, b], kernel[b, a]):
            assert abs(got - want) <= tol, (endpoints, r, n, a, b, got - want)


def test_factored_triangle_is_identity_minus_scaled_kernel_within_rounding(monkeypatch):
    # the factored matrix is I - S D K D, D = diag(sqrt|c|) and S the signs
    # of c on the rows, filled from the scaled sines.  Against the product
    # with the kernel it moves in the last digits only: by the rounding of
    # the scaled sines, d_a d_b eps / (pi |t_a - t_b|) a few times over,
    # plus the |t_a| + |t_b| term of the kernel's own bound; the diagonal
    # is the same product with 1/pi.  Each factor reads the triangle of
    # mat.T that holds the diagonal blocks and the blocks right of them,
    # the only blocks filled.  One-sign weights hand all of it over in
    # Fortran order, so that nothing is copied.  Mixed ones order the
    # nodes with c < 0 (interval 2 here) first and hand over the block of
    # those nodes, then the Schur complement A_PP + A_MP^T A_MM^-1 A_MP.
    eps = np.finfo(float).eps
    disc = Discretization((0.0, 0.5, 1.1, 1.7), 23.0, 16)
    t, size, seen = disc.rule.nodes, len(disc.rule.nodes), []
    kernel = _unit_kernel(disc.rule)
    dist = np.abs(np.subtract.outer(t, t))
    np.fill_diagonal(dist, 1.0)
    reach = (1.0 + np.abs(t)[:, None] + np.abs(t)[None, :]) / (math.pi * dist)
    factor = fredholm_module.cholesky_factor

    def recorded(a):
        assert a.dtype == np.float64
        seen.append((a.flags.f_contiguous, a.T.copy()))
        return factor(a)

    monkeypatch.setattr(fredholm_module, "cholesky_factor", recorded)
    for s, order in (((0.3, 0.6, 0.9), (0, 1, 2)), ((2.0, 3.0, 1.0), (0, 1, 2)), ((0.3, 2.5, 0.9), (1, 0, 2))):
        seen.clear()
        disc.log_det(s)
        perm = np.concatenate([np.arange(16 * k, 16 * (k + 1)) for k in order])
        rule = fredholm_module._sign_ordered(disc.rule, np.asarray(s) > 1.0) if order[0] else disc.rule
        assert np.array_equal(rule.nodes, t[perm])
        assert np.array_equal(_unit_kernel(rule), kernel[np.ix_(perm, perm)])
        assert [(b.start, b.stop) for b in rule.blocks] == [(16 * order.index(k), 16 * order.index(k) + 16) for k in range(3)]
        c = rule.weights * (1.0 - np.asarray(s)[rule.interval_index])
        d = np.sqrt(np.abs(c))
        want = np.eye(size) - np.outer(np.sign(c) * d, d) * kernel[np.ix_(perm, perm)]
        bound = 4.0 * eps * np.outer(d, d) * reach[np.ix_(perm, perm)]
        fill = fredholm_module._scaled_kernel(rule, -np.copysign(d, c), d)
        for b in rule.blocks:  # the diagonal blocks of the fill are exactly symmetric
            assert np.array_equal(fill[b, b], fill[b, b].T)
        fill.ravel()[:: size + 1] += 1.0
        nm = 16 * (order[0] == 1)
        if not nm:
            [(in_place, mat)] = seen
            assert in_place
        else:
            [(_, mat), (_, schur)] = seen
            a_mm, a_mp, a_pp = want[:nm, :nm], want[:nm, nm:], want[nm:, nm:]
            assert np.array_equal(want[nm:, :nm], -a_mp.T)
            upper = np.triu(np.ones(schur.shape, dtype=bool))
            dense = a_pp + a_mp.T @ np.linalg.solve(a_mm, a_mp)
            assert np.max(np.abs(schur - dense)[upper]) <= 8.0 * eps, s
            want, bound, fill = want[:nm, :nm], bound[:nm, :nm], fill[:nm, :nm]
        # the upper blocks of the fill are the ones factored
        upper = np.triu(np.ones(mat.shape, dtype=bool))
        assert np.all(np.abs(mat - want)[upper] <= bound[upper]), s
        assert np.array_equal(np.diagonal(mat), np.diagonal(want))
        assert np.array_equal(mat[upper], fill[upper])


def test_fredholm_det_fills_two_kernels_and_factors_two_matrices(monkeypatch):
    calls = {"fill": 0, "kernel": 0, "factor": 0, "lu": 0}
    sizes = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    fill = fredholm_module._scaled_kernel

    def sized_fill(rule, *args, **kwargs):
        mat = fill(rule, *args, **kwargs)
        sizes.append(len(mat))
        return mat

    # each order fills its scaled kernel once, however many blocks that
    # takes, a deflated hard gap included, and builds no B
    monkeypatch.setattr(fredholm_module, "_scaled_kernel", counted("fill", sized_fill))
    monkeypatch.setattr(Discretization, "weighted_kernel", property(counted("kernel", Discretization.weighted_kernel.func)))
    monkeypatch.setattr(fredholm_module, "cholesky_factor", counted("factor", fredholm_module.cholesky_factor))
    monkeypatch.setattr(fredholm_module, "lu_factor", counted("lu", fredholm_module.lu_factor))
    fredholm_det((0.0, 0.5, 1.0), (0.3, 0.6), 5.0)
    assert calls == {"fill": 2, "kernel": 0, "factor": 2, "lu": 0}
    assert sizes == [128, 64]  # orders n = 64 and n // 2 on two intervals
    # weights on both sides of 1 take two factors at each order, and no LU
    calls.update(fill=0, kernel=0, factor=0, lu=0)
    fredholm_det((0.0, 0.5, 1.0), (0.3, 2.5), 5.0)
    assert calls == {"fill": 2, "kernel": 0, "factor": 4, "lu": 0}
    # the hard gap reads E Q off the matrix it filled: no second fill of K[:, G]
    calls.update(fill=0, kernel=0, factor=0, lu=0)
    sizes.clear()
    fredholm_det(*FIG2_LEFT, 40.0)
    assert calls == {"fill": 2, "kernel": 0, "factor": 2, "lu": 0}
    assert sizes == [192, 96]


def _slogdet_log_f(endpoints, weights, r, n):
    """log F from numpy's LU of the plain I - K diag(c), with its sign."""
    disc = Discretization(endpoints, r, n)
    t = disc.rule.nodes
    c = disc.rule.weights * (1.0 - WeightConfiguration(weights).as_array()[disc.rule.interval_index])
    return np.linalg.slogdet(np.eye(len(c)) - sine_kernel(t[:, None], t[None, :]) * c)


def test_log_det_matches_an_independent_slogdet():
    # one-sign weights take one Cholesky factor, mixed ones two; both
    # must give numpy's log-determinant of the unscaled matrix.  Hard gaps
    # are compared at r <= 20, where the plain matrix is still accurate
    # (see test_hard_gap_route_agrees_with_lu_where_lu_is_accurate).
    figures = (
        ((0.0, 0.7, 1.2), WeightConfiguration.from_positive_u((-1.1, -2.4)).values),
        ((0.0, 0.5, 1.1, 1.7), WeightConfiguration.from_positive_u((-0.8, -1.8, -1.32)).values),
        (FIG2_LEFT[0], FIG2_LEFT[1].values),
        (FIG2_RIGHT[0], FIG2_RIGHT[1].values),
    )
    for endpoints, figure_weights in figures:
        m = len(endpoints) - 1
        above_one = tuple(2.0 + j for j in range(m))
        mixed = tuple((0.3, 2.5)[j % 2] for j in range(m))
        for r in (5.0, 20.0):
            for n in (64, 128):
                for weights in (figure_weights, above_one, mixed):
                    sign, want = _slogdet_log_f(endpoints, weights, r, n)
                    got = Discretization(endpoints, r, n).log_det(weights)
                    assert sign == 1.0
                    tol = 1e-10 if 0.0 in weights else 1e-12 * abs(want)
                    assert abs(got - want) <= tol, (endpoints, weights, r, n, got - want)


def _unequal_rule(endpoints, r, orders):
    """A CompositeRule with orders[k] nodes on interval k, pieced together
    from one-interval composite rules."""
    pieces = [composite_rule(IntervalPartition(pair), r, n) for pair, n in zip(zip(endpoints, endpoints[1:]), orders)]
    stops = np.cumsum(orders)
    return CompositeRule(
        nodes=np.concatenate([piece.nodes for piece in pieces]),
        weights=np.concatenate([piece.weights for piece in pieces]),
        interval_index=np.repeat(np.arange(len(orders)), orders),
        blocks=tuple(slice(stop - n, stop) for stop, n in zip(stops, orders)),
    )


def test_unequal_orders_fill_factor_and_deflate_through_the_blocks():
    # no entry point takes one order per interval yet, but every consumer
    # of a rule slices through rule.blocks and none assumes a shared n
    eps = np.finfo(float).eps
    endpoints = FIG2_LEFT[0]
    for r in (5.0, 23.0):
        rule = _unequal_rule(endpoints, r, (24, 40, 32))
        assert [b.stop - b.start for b in rule.blocks] == [24, 40, 32]
        kernel, t = _unit_kernel(rule), rule.nodes
        assert np.array_equal(kernel, kernel.T)
        for rows in rule.blocks:
            for cols in rule.blocks:
                diff = np.abs(kernel[rows, cols] - sine_kernel(t[rows, None], t[None, cols]))
                dist = np.abs(np.subtract.outer(t[rows], t[cols]))
                if rows == cols:
                    assert np.all(np.diagonal(kernel[rows, cols]) == 1.0 / math.pi)
                    np.fill_diagonal(dist, 1.0)  # diff is 0 there
                size = 1.0 + np.abs(t[rows, None]) + np.abs(t[None, cols])
                assert np.all(diff <= 4.0 * eps * size / (math.pi * dist)), (r, rows, cols)
        # one sign below 1 and above 1 (one factor), and mixed (two)
        for weights in ((0.3, 0.7, 0.1), (1.5, 2.0, 3.0), (0.3, 2.5, 0.7)):
            c = rule.weights * (1.0 - np.asarray(weights)[rule.interval_index])
            sign, want = np.linalg.slogdet(np.eye(len(c)) - sine_kernel(t[:, None], t[None, :]) * c)
            got = fredholm_module._log_det(rule, WeightConfiguration(weights), None)
            assert sign == 1.0
            assert abs(got - want) <= 1e-13 * max(1.0, abs(want)), (r, weights, got - want)
    # the deflated hard gap (interval 2 of fig2-left at r = 40) at orders
    # on either side of the other blocks' orders, and beside a weight above
    # 1 on either side, whose interval the sign order moves ahead of it
    partition = IntervalPartition(endpoints)
    for weights in (FIG2_LEFT[1], WeightConfiguration((0.3, 0.0, 2.5)), WeightConfiguration((2.5, 0.0, 0.3))):
        gap, _ = fredholm_module._hard_gap_route(partition, weights, 40.0)
        assert gap is not None and gap[0] == 1
        want = Discretization(partition, 40.0, 128).log_det(weights)
        for orders in ((30, 44, 36), (36, 30, 50)):
            got = fredholm_module._log_det(_unequal_rule(endpoints, 40.0, orders), weights, gap)
            assert abs(got - want) <= 1e-9, (weights, orders, got - want)


def test_hard_gap_route_agrees_with_lu_where_lu_is_accurate(monkeypatch):
    # At r = 10 and 20 the smallest 1 - lambda_k is 2e-2 and 1e-4, so the
    # plain matrix's factors are accurate to about 1e-11, as a pivoted LU
    # of it was.  HARD_GAP_TAU = 0 turns the
    # route off; 0.5 makes it deflate several modes at both r.  A zero
    # beside a weight above 1 has c of both signs: the sign order, the
    # deflated update on its fill, then the two factors.
    beside_large = [((0.0, 0.5, 1.1, 1.7), WeightConfiguration(s)) for s in ((2.5, 0.0, 0.3), (0.3, 0.0, 2.5))]
    for endpoints, weights in (FIG2_LEFT, FIG2_RIGHT, *beside_large):
        for r in (10.0, 20.0):
            monkeypatch.setattr(fredholm_module, "HARD_GAP_TAU", 0.0)
            assert fredholm_module._hard_gap_route(IntervalPartition(endpoints), weights, r) == (None, 0.0)
            plain = fredholm_det(endpoints, weights, r, 64).log_f
            monkeypatch.setattr(fredholm_module, "HARD_GAP_TAU", 0.5)
            (_, modes), _ = fredholm_module._hard_gap_route(IntervalPartition(endpoints), weights, r)
            assert modes.count >= 2
            deflated = fredholm_det(endpoints, weights, r, 64).log_f
            assert abs(plain - deflated) < 1e-10, (endpoints, r, abs(plain - deflated))


def test_hard_gap_route_keeps_lu_bytes_without_small_gaps(monkeypatch):
    # r (x_p - x_{p-1}) / 2 = 3 leaves every 1 - lambda_k above tau: the
    # result is the plain matrix's, bit for bit
    endpoints, weights = FIG2_LEFT
    default = fredholm_det(endpoints, weights, 10.0, 64)
    monkeypatch.setattr(fredholm_module, "HARD_GAP_TAU", 0.0)
    assert fredholm_det(endpoints, weights, 10.0, 64) == default


def test_hard_gap_route_converges_past_r_60():
    for endpoints, weights in (FIG2_LEFT, FIG2_RIGHT):
        for r, tol in ((60.0, 1e-8), (80.0, 1e-6)):
            fine = fredholm_det(endpoints, weights, r, 128).log_f
            coarse = fredholm_det(endpoints, weights, r, 64).log_f
            assert math.isfinite(fine)
            assert abs(fine - coarse) < tol, (endpoints, r, abs(fine - coarse))


def test_hard_gap_route_raises_instead_of_returning_garbage():
    endpoints, weights = FIG2_LEFT
    # the plain LU returned about -1084 here; the expansion gives -1910
    with pytest.raises(NumericalError):
        fredholm_det(endpoints, weights, 200.0, 128)
    # half-length 36: inside the hard cap, caught by the rounding bound
    with pytest.raises(NumericalError, match="rounding bound"):
        fredholm_det(endpoints, weights, 120.0, 128)


# zeros on separated intervals, with 40-digit references at r = 40
# (tools/hard_gap_references.py, n = 40 and 52 per interval agree to 22
# digits): in A and B the first gap is the longest and is deflated, in C
# the two gaps are equal and the second one stays in the factored matrix
SEPARATED_A = ((0.0, 0.6, 0.8, 1.0), (0.0, 1.0, 0.0))
SEPARATED_B = ((0.0, 0.6, 0.8, 1.1), (0.0, 0.5, 0.0))
SEPARATED_C = ((0.0, 0.6, 0.8, 1.4), (0.0, 1.0, 0.0))
SEPARATED_REFERENCES = (
    (SEPARATED_A, -84.75187979627598072771),
    (SEPARATED_B, -102.0919196248959044089),
    (SEPARATED_C, -160.9929075516577824876),
)


def test_separated_zeros_deflate_the_smallest_gap_and_match_references():
    # the plain LU was off by 2.5e-7 (A) and 4.0e-7 (B) at n = 64; with
    # the longest gap deflated they are off by about 1e-12.  C keeps one
    # of its two equal gaps in the factored matrix and is covered by its
    # estimate only.
    for (endpoints, s), want in SEPARATED_REFERENCES:
        (k, modes), rounding = fredholm_module._hard_gap_route(
            IntervalPartition(endpoints), WeightConfiguration(s), 40.0
        )
        assert k == 0 and modes.count >= 1 and rounding > 0.0
        for n in (64, 128):
            res = fredholm_det(endpoints, s, 40.0, n)
            assert abs(res.log_f.real - want) <= res.error_estimate, (endpoints, n)
            if endpoints != SEPARATED_C[0]:
                assert abs(res.log_f.real - want) < 1e-10, (endpoints, n, res.log_f.real - want)
    # of two zeroed intervals the one with the smaller 1 - lambda_0 is
    # deflated: here the second, since it is the longer
    (k, _), _ = fredholm_module._hard_gap_route(
        IntervalPartition((0.0, 0.4, 0.8, 1.4)), WeightConfiguration((0.0, 1.0, 0.0)), 40.0
    )
    assert k == 2


def test_separated_zeros_error_estimate_covers_the_next_order():
    # the factorization's rounding on the zeroed intervals, up to
    # N eps / (1 - lambda_0) each, need not show in |log F(n) -
    # log F(n // 2)|; with that bound added the estimate covers the next
    # order from r = 30 to 46
    endpoints, s = SEPARATED_C
    for r in (30.0, 40.0, 46.0):
        coarse = fredholm_det(endpoints, s, r, 64)
        fine = fredholm_det(endpoints, s, r, 128)
        assert coarse.error_estimate >= abs(coarse.log_f - fine.log_f)


def test_separated_zeros_raise_past_the_rounding_limit():
    # the plain LU returned about -358 at r = 60, with n = 64 and 128 apart
    # by 0.7 to 2.0 depending on the BLAS thread count; from half-length
    # 14.1 (r = 47) on, eps / (1 - lambda_0) > 1e-5.  Deflating only the
    # longest gap leaves that range as it was: a guard over the other
    # gaps alone let A return -188.45657 at r = 60, off by 4.1e-8 with an
    # estimate of 3.4e-8.
    for endpoints, s in (SEPARATED_A, SEPARATED_C):
        for r in (47.0, 50.0, 60.0):
            with pytest.raises(NumericalError, match="separated"):
                fredholm_det(endpoints, s, r)
        fredholm_det(endpoints, s, 46.0)
    with pytest.raises(NumericalError, match="separated"):
        thinned_gap_probability(endpoints, s, 60.0)
