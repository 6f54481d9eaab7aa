"""Determinant layer: kernel, partitions, weights, LU and series routes.

The two evaluation routes (pivoted LU vs truncated series) are kept
independent in the implementation and are cross-checked here; the exact
symmetries of the determinant (translation, reflection, scaling) provide
oracle-free invariance checks.
"""

import math

import numpy as np
import pytest

import sinegap.fredholm as fredholm_module
from sinegap import (
    DeterminantResult,
    Discretization,
    IntervalPartition,
    NumericalError,
    ValidationError,
    WeightConfiguration,
    fredholm_det,
    reduced_indices,
    series_det,
    sine_kernel,
)

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
    # the in-place fill must round exactly as np.sinc(d / pi) / pi does,
    # so that determinants do not change in the last digit
    rng = np.random.default_rng(11)
    x = np.concatenate((rng.uniform(-60.0, 60.0, 300), [0.0, 1e-300, -2.5]))
    d = np.subtract(x[:, None], x[None, :])
    want = np.sinc(d / math.pi) / math.pi
    assert np.array_equal(sine_kernel(x[:, None], x[None, :]), want)


def test_sine_kernel_plain_values():
    assert abs(sine_kernel(math.pi, 0.0)) < 1e-16
    assert abs(sine_kernel(0.5 * math.pi, 0.0) - 1.0 / (0.5 * math.pi**2)) < 1e-15


# ---------------------------------------------------------------------------
# partition


def test_partition_basic_properties():
    part = IntervalPartition((0.0, 0.5, 1.2))
    assert part.m == 2
    assert part.lengths == (0.5, 0.7)
    assert part.delta == 0.5
    assert part.as_array().tolist() == [0.0, 0.5, 1.2]
    assert part.merged().endpoints == (0.0, 1.2)


def test_partition_transforms():
    part = IntervalPartition((0.0, 0.5, 1.2))
    assert part.translated(2.0).endpoints == (2.0, 2.5, 3.2)
    assert part.reflected().endpoints == (-1.2, -0.5, 0.0)
    assert part.scaled(3.0).endpoints == (0.0, 1.5, 3.0 * 1.2)


def test_partition_declared_delta():
    part = IntervalPartition((0.0, 0.5, 1.2), delta=0.3)
    assert part.delta == 0.3
    with pytest.raises(ValidationError):
        IntervalPartition((0.0, 0.5, 1.2), delta=0.6)
    with pytest.raises(ValidationError):
        IntervalPartition((0.0, 1.0), delta=0.0)


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
    w = WeightConfiguration((0.5, 1.0))
    assert w.is_real and w.mode == "positive"
    assert w.as_array().dtype == np.float64
    wz = WeightConfiguration((0.5, 0.0, 0.25))
    assert wz.mode == "one_zero"
    assert wz.zero_indices() == (2,)
    assert WeightConfiguration((0.0, 0.0)).mode == "general"
    assert WeightConfiguration((0.5, complex(0.1, 0.2))).mode == "general"


def test_weights_positive_u_round_trip():
    u = np.array([-1.1, -2.4, 0.7])
    w = WeightConfiguration.from_positive_u(u)
    assert np.max(np.abs(w.u_vector() - u)) < 1e-14
    # s_j = exp(u_j + ... + u_m)
    assert abs(w.values[0].real - math.exp(-1.1 - 2.4 + 0.7)) < 1e-15
    assert abs(w.values[2].real - math.exp(0.7)) < 1e-15


def test_weights_zero_u_round_trip():
    u = np.array([0.8, 1.8, -1.87])
    w = WeightConfiguration.from_zero_u(u, 3, 4)
    assert w.values[2] == 0.0
    p, idx, u_back = w.u_reduced()
    assert p == 3 and idx == (0, 1, 4)
    assert np.max(np.abs(u_back - u)) < 1e-14
    # left side: s_1 = e^{-u_0}, s_2 = e^{-u_0-u_1}; right side: s_4 = e^{u_4}
    assert abs(w.values[0].real - math.exp(-0.8)) < 1e-15
    assert abs(w.values[1].real - math.exp(-0.8 - 1.8)) < 1e-15
    assert abs(w.values[3].real - math.exp(-1.87)) < 1e-15


def test_weights_beta_vector():
    w = WeightConfiguration.from_positive_u((-1.1, -2.4))
    beta = w.beta_vector()
    assert np.allclose(beta, np.array([-1.1, -2.4]) / (2j * math.pi), atol=1e-16)


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
    with pytest.raises(ValidationError):
        WeightConfiguration((0.5, 0.5)).u_reduced()
    with pytest.raises(ValidationError):
        WeightConfiguration((0.5, 0.0)).u_vector()


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
    with pytest.raises(ValidationError):
        series_det((0.0, 1.0), (0.9,), 0.5, k_max=4)
    with pytest.raises(ValidationError):
        series_det((0.0, 1.0), (0.9,), 0.5, k_max=-1)
    # k_max = 0 returns exactly 1
    assert series_det((0.0, 1.0), (0.999,), 0.01, k_max=0) == 1.0


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
        assert abs(log_f.imag) < 1e-9
        assert log_f.real <= 1e-12


def test_gap_probability_decreases_in_r():
    part = IntervalPartition((0.0, 1.0))
    vals = [fredholm_det(part, (0.0,), r).log_f.real for r in np.linspace(0.5, 8.0, 10)]
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_symmetrized_route_agrees():
    part = IntervalPartition((0.0, 0.6, 1.4))
    s = (0.4, 0.9)
    plain = fredholm_det(part, s, 5.0).log_f
    sym = fredholm_det(part, s, 5.0, symmetrized=True).log_f
    assert abs(plain - sym) < 1e-12


def test_complex_weights_conjugate_symmetry():
    part = IntervalPartition((0.0, 0.5, 1.1))
    s = (complex(0.6, 0.35), complex(0.2, -0.8))
    conj = tuple(v.conjugate() for v in s)
    a = fredholm_det(part, s, 3.0).log_f
    b = fredholm_det(part, conj, 3.0).log_f
    assert abs(a - b.conjugate()) < 1e-12


def test_unimodular_weights_bound():
    # |F(s)| <= 1 for |s_k| = 1 (generating function of a probability law)
    rng = np.random.default_rng(29)
    part = IntervalPartition((0.0, 0.5, 1.1))
    for _ in range(10):
        theta = rng.uniform(0.0, 2.0 * math.pi, 2)
        s = tuple(complex(math.cos(t), math.sin(t)) for t in theta)
        log_f = fredholm_det(part, s, 4.0).log_f
        assert log_f.real <= 1e-12


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
    with pytest.raises(ValidationError):
        fredholm_det(part, (1.5,), 1.0, symmetrized=True)  # needs s <= 1
    with pytest.raises(ValidationError):
        fredholm_det(part, (complex(0.5, 0.5),), 1.0, symmetrized=True)


def test_fredholm_det_coerces_raw_sequences():
    res = fredholm_det([0.0, 1.0], [0.5], 2.0)
    assert res.log_f.real < 0.0


def test_error_estimate_shrinks_with_order():
    part = IntervalPartition((0.0, 1.0))
    coarse = fredholm_det(part, (0.0,), 6.0, n=16).error_estimate
    fine = fredholm_det(part, (0.0,), 6.0, n=64).error_estimate
    assert fine < coarse


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
            assert abs(got.real - want) < 1e-9, (endpoints, n, got.real - want)
            assert abs(got.imag) < 1e-12


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
    assert weights.values == (0.5, 0.0, 0.7) and weights.mode == "one_zero"
    # separated zeros are not merged: they stay mode "general" (plain LU)
    sep = IntervalPartition((0.0, 0.2, 0.4, 0.6))
    part, weights = fredholm_module._checked_weights(sep, (0.0, 0.5, 0.0))
    assert part is sep and weights.mode == "general"


def test_discretization_log_det_is_fredholm_det_without_the_half_pass():
    cases = [
        ((0.0, 0.7, 1.2), (math.exp(-3.5), math.exp(-2.4)), 20.0),
        ((0.0, 0.5, 1.0), (complex(0.6, 0.8), -1j), 3.0),
        FIG2_LEFT + (40.0,),
        ((0.0, 0.3, 0.6), (0.0, 0.0), 40.0),
    ]
    for endpoints, weights, r in cases:
        disc = Discretization(endpoints, r, 64)
        assert disc.log_det(weights) == fredholm_det(endpoints, weights, r, 64).log_f
    assert not disc.kernel.flags.writeable


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
    assert disc.halved().n == 8 and disc.halved().kernel.shape == (8, 8)
    monkeypatch.setattr(fredholm_module, "_lu_log_det", lambda mat: complex(-1.0, 0.5))
    with pytest.raises(NumericalError, match="lost determinant sign"):
        disc.log_det((0.5,))
    assert disc.log_det((1j,)) == complex(-1.0, 0.5)  # complex weights have no sign to lose


def test_fredholm_det_fills_two_kernels_and_factors_two_matrices(monkeypatch):
    calls = {"kernel": 0, "lu": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(fredholm_module, "sine_kernel", counted("kernel", fredholm_module.sine_kernel))
    monkeypatch.setattr(fredholm_module, "lu_factor", counted("lu", fredholm_module.lu_factor))
    fredholm_det((0.0, 0.5, 1.0), (0.3, 0.6), 5.0)
    assert calls == {"kernel": 2, "lu": 2}  # orders n and n // 2


def test_hard_gap_route_agrees_with_lu_where_lu_is_accurate(monkeypatch):
    # At r = 10 and 20 the smallest 1 - lambda_k is 2e-2 and 1e-4, so the
    # plain LU is accurate to about 1e-11.  HARD_GAP_TAU = 0 turns the
    # route off; 0.5 makes it deflate several modes at both r.
    for endpoints, weights in (FIG2_LEFT, FIG2_RIGHT):
        for r in (10.0, 20.0):
            monkeypatch.setattr(fredholm_module, "HARD_GAP_TAU", 0.0)
            assert fredholm_module._hard_gap_modes(IntervalPartition(endpoints), weights, r) is None
            plain = fredholm_det(endpoints, weights, r, 64).log_f
            monkeypatch.setattr(fredholm_module, "HARD_GAP_TAU", 0.5)
            _, modes = fredholm_module._hard_gap_modes(IntervalPartition(endpoints), weights, r)
            assert modes.count >= 2
            deflated = fredholm_det(endpoints, weights, r, 64).log_f
            assert abs(plain - deflated) < 1e-10, (endpoints, r, abs(plain - deflated))


def test_hard_gap_route_keeps_lu_bytes_without_small_gaps(monkeypatch):
    # r (x_p - x_{p-1}) / 2 = 3 leaves every 1 - lambda_k above tau: the
    # result is the plain LU's, bit for bit
    endpoints, weights = FIG2_LEFT
    default = fredholm_det(endpoints, weights, 10.0, 64)
    monkeypatch.setattr(fredholm_module, "HARD_GAP_TAU", 0.0)
    assert fredholm_det(endpoints, weights, 10.0, 64) == default


def test_hard_gap_route_converges_past_r_60():
    for endpoints, weights in (FIG2_LEFT, FIG2_RIGHT):
        for r, tol in ((60.0, 1e-8), (80.0, 1e-6)):
            fine = fredholm_det(endpoints, weights, r, 128).log_f
            coarse = fredholm_det(endpoints, weights, r, 64).log_f
            assert math.isfinite(fine.real) and abs(fine.imag) < 1e-9
            assert abs(fine - coarse) < tol, (endpoints, r, abs(fine - coarse))


def test_hard_gap_route_raises_instead_of_returning_garbage():
    endpoints, weights = FIG2_LEFT
    # the plain LU returned about -1084 here; the expansion gives -1910
    with pytest.raises(NumericalError):
        fredholm_det(endpoints, weights, 200.0, 128)
    # half-length 36: inside the hard cap, caught by the rounding bound
    with pytest.raises(NumericalError, match="rounding bound"):
        fredholm_det(endpoints, weights, 120.0, 128)
