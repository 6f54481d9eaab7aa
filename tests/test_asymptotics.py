"""Closed-form expansions and counting statistics.

The generic m-interval expansions are checked against the independently
coded single-interval laws (exact reductions), against hand-computable
term values, against each other (the linear term of the gap expansion is
a signed sum of the conditional means), and against the determinant at
moderate r where the neglected tail is small.
"""

import math

import numpy as np
import pytest

from sinegap import (
    DYSON_CONSTANT,
    EULER_GAMMA,
    ExpansionBreakdown,
    IntervalPartition,
    NumericalError,
    ValidationError,
    WeightConfiguration,
    barnes_pair,
    basor_widom_log,
    conditional_stats,
    counting_stats,
    dyson_gap_log,
    fredholm_det,
    positive_weights_expansion,
    reduced_indices,
    var_cov_expansion,
    zero_weight_expansion,
)

PI2 = math.pi**2


def random_partition(rng, m, span=(0.1, 0.9)):
    gaps = rng.uniform(*span, m)
    x0 = rng.uniform(-2.0, 2.0)
    return IntervalPartition(tuple(np.concatenate(([x0], x0 + np.cumsum(gaps)))))


# ---------------------------------------------------------------------------
# breakdown container


def test_breakdown_total_is_exact_sum():
    b = ExpansionBreakdown(1.5, -2.25, 0.125, 3.0)
    assert b.total == 1.5 + -2.25 + 0.125 + 3.0
    with pytest.raises(Exception):
        b.total = 0.0


def test_breakdown_rejects_nonfinite():
    with pytest.raises(NumericalError):
        ExpansionBreakdown(math.nan, 0.0, 0.0, 0.0)
    with pytest.raises(NumericalError):
        ExpansionBreakdown(0.0, math.inf, 0.0, 0.0)


# ---------------------------------------------------------------------------
# single-interval laws


def test_dyson_gap_terms():
    b = dyson_gap_log(10.0, 0.0, 1.0)
    assert b.r_squared_term == -12.5
    assert b.r_linear_term == 0.0
    assert b.log_r_term == -0.25 * math.log(10.0)
    assert b.constant_term == DYSON_CONSTANT  # log length vanishes
    b2 = dyson_gap_log(1.0, 0.3, 0.8)
    assert b2.r_squared_term == -(0.5 * 0.5) / 8.0
    assert abs(b2.constant_term - (-0.25 * math.log(0.5) + DYSON_CONSTANT)) < 1e-16


def test_basor_widom_terms():
    b = basor_widom_log(1.0, 0.0, 1.0, -1.1)
    assert b.r_squared_term == 0.0
    assert abs(b.r_linear_term - (-1.1 / math.pi)) < 1e-16
    assert b.log_r_term == 0.0  # log 1
    zero = basor_widom_log(7.0, 0.0, 2.0, 0.0)
    assert zero.total == 0.0  # s = 1 means F = 1


def test_single_interval_laws_validate():
    with pytest.raises(ValidationError):
        dyson_gap_log(-1.0, 0.0, 1.0)
    with pytest.raises(ValidationError):
        dyson_gap_log(1.0, 1.0, 0.5)
    with pytest.raises(ValidationError):
        basor_widom_log(1.0, 0.0, 1.0, math.inf)


# ---------------------------------------------------------------------------
# exact reductions of the generic expansions


def test_positive_expansion_reduces_to_basor_widom():
    rng = np.random.default_rng(41)
    for _ in range(20):
        x0 = rng.uniform(-3.0, 3.0)
        length = rng.uniform(0.05, 4.0)
        u1 = rng.uniform(-3.0, 3.0)
        r = rng.uniform(0.5, 50.0)
        a = positive_weights_expansion((x0, x0 + length), (u1,), r)
        b = basor_widom_log(r, x0, x0 + length, u1)
        assert abs(a.total - b.total) < 1e-13
        assert abs(a.r_linear_term - b.r_linear_term) < 1e-13


def test_zero_expansion_reduces_to_dyson():
    rng = np.random.default_rng(43)
    for _ in range(20):
        x0 = rng.uniform(-3.0, 3.0)
        length = rng.uniform(0.05, 4.0)
        r = rng.uniform(0.5, 50.0)
        a = zero_weight_expansion((x0, x0 + length), 1, (), r)
        b = dyson_gap_log(r, x0, x0 + length)
        assert abs(a.total - b.total) < 1e-13
        assert a.r_squared_term == b.r_squared_term


def test_positive_expansion_zero_u_is_zero():
    b = positive_weights_expansion((0.0, 0.5, 1.2), (0.0, 0.0), 9.0)
    assert b.total == 0.0


# ---------------------------------------------------------------------------
# structural invariances


def test_expansions_are_translation_invariant():
    part = IntervalPartition((0.0, 0.5, 1.1, 1.7))
    u3 = (-0.8, -1.8, -1.32)
    uz = (0.8, -1.32)
    for c in (-4.0, 1.3):
        moved = part.translated(c)
        a = positive_weights_expansion(part, u3, 12.0)
        b = positive_weights_expansion(moved, u3, 12.0)
        assert abs(a.total - b.total) < 1e-12
        az = zero_weight_expansion(part, 2, uz, 12.0)
        bz = zero_weight_expansion(moved, 2, uz, 12.0)
        assert abs(az.total - bz.total) < 1e-12


def test_zero_expansion_linear_term_is_signed_mean_sum():
    # the r-linear coefficient is the signed sum of the conditional means:
    # left-of-gap ratios enter with -u_j mu_hat_j, right-of-gap with +u_j mu_hat_j
    part = IntervalPartition((0.0, 0.5, 1.1, 1.7, 2.5))
    p, r = 3, 7.0
    u = (0.8, 1.8, -1.87)
    b = zero_weight_expansion(part, p, u, r)
    stats = conditional_stats(part, p, r)
    want = 0.0
    for uj, j, mu in zip(u, stats.labels, stats.mu):
        want += (uj * mu) if j >= p + 1 else (-uj * mu)
    assert abs(b.r_linear_term - want) < 1e-12


def test_zero_expansion_pair_denominator_identity():
    # |a^2 - b^2| = (x_p - x_{p-1})(x_k - x_j) for j < k both off the gap
    # (the sign flips when the pair straddles the gap), so the pair
    # logarithm never sees a vanishing denominator
    rng = np.random.default_rng(47)
    for _ in range(25):
        part = random_partition(rng, 4)
        x = part.as_array()
        p = int(rng.integers(1, 5))
        idx = [j for j in range(5) if j not in (p - 1, p)]
        for a_i in range(len(idx)):
            for b_i in range(a_i + 1, len(idx)):
                j, k = idx[a_i], idx[b_i]
                a = math.sqrt(abs(x[k] - x[p]) * abs(x[j] - x[p - 1]))
                b = math.sqrt(abs(x[k] - x[p - 1]) * abs(x[j] - x[p]))
                lhs = abs(a * a - b * b)
                rhs = (x[p] - x[p - 1]) * (x[k] - x[j])
                assert abs(lhs - rhs) < 1e-12 * max(1.0, rhs)
                assert abs(a - b) > 1e-12


def test_expansion_validation():
    part = IntervalPartition((0.0, 0.5, 1.2))
    with pytest.raises(ValidationError):
        positive_weights_expansion(part, (0.1,), 5.0)  # wrong length
    with pytest.raises(ValidationError):
        positive_weights_expansion(part, (0.1, math.nan), 5.0)
    with pytest.raises(ValidationError):
        zero_weight_expansion(part, 3, (0.1,), 5.0)  # p out of range
    with pytest.raises(ValidationError):
        zero_weight_expansion(part, 1, (0.1, 0.2), 5.0)  # wrong length
    with pytest.raises(ValidationError):
        positive_weights_expansion(part, (0.1, 0.2), 0.0)


# ---------------------------------------------------------------------------
# same numbers as the closed forms written out term by term

# The four paper-figure configurations: name -> (endpoints, u, p), p None
# for all weights positive.
FIGURES = {
    "fig1-left": ((0.0, 0.7, 1.2), (-1.1, -2.4), None),
    "fig1-right": ((0.0, 0.5, 1.1, 1.7), (-0.8, -1.8, -1.32), None),
    "fig2-left": ((0.0, 0.5, 1.1, 1.7), (0.8, -1.32), 2),
    "fig2-right": ((0.0, 0.5, 1.1, 1.7, 2.5), (0.8, 1.8, -1.87), 3),
}
FIELDS = ("r_squared_term", "r_linear_term", "log_r_term", "constant_term", "total")

# ExpansionBreakdown fields (in FIELDS order) at r = 1, 5, 17, 40, 200,
# frozen from the expansions as written out term by term (below,
# `_written_out_*`) before they were derived from the statistics.
PARENT_EXPANSIONS = {
    'fig1-left': {
        1.0: (0.0, -1.161831084570836, 0.0, 1.1442471786468815, -0.017583905923954424),
        5.0: (0.0, -5.80915542285418, 0.7835520913474793, 1.1442471786468815, -3.8813561528598193),
        17.0: (0.0, -19.75112843770421, 1.3793450643966558, 1.1442471786468815, -17.227536194660672),
        40.0: (0.0, -46.47324338283344, 1.7959246446657031, 1.1442471786468815, -43.533071559520856),
        200.0: (0.0, -232.3662169141672, 2.579476736013182, 1.1442471786468815, -228.64249299950714),
    },
    'fig1-right': {
        1.0: (0.0, -1.4718649137138482, 0.0, 1.2788165545490502, -0.193048359164798),
        5.0: (0.0, -7.359324568569242, 0.8556617135730475, 1.2788165545490502, -5.224846300447145),
        17.0: (0.0, -25.02170353313542, 1.5062849993552827, 1.2788165545490502, -22.236601979231086),
        40.0: (0.0, -58.87459654855394, 1.9612020386035125, 1.2788165545490502, -55.634577955401376),
        200.0: (0.0, -294.37298274276964, 2.81686375217656, 1.2788165545490502, -290.277302436044),
    },
    'fig2-left': {
        1.0: (-0.04500000000000001, -0.5453772049057196, -0.0, 0.03682210126995509, -0.5535551036357645),
        5.0: (-1.1250000000000004, -2.726886024528598, -0.3052348942153807, 0.03682210126995509, -4.1202988174740245),
        17.0: (-13.005000000000003, -9.271412483397233, -0.5373277022253655, 0.03682210126995509, -22.776918084352648),
        40.0: (-72.00000000000001, -21.815088196228785, -0.69960743514911, 0.03682210126995509, -94.47787353010794),
        200.0: (-1800.0000000000005, -109.07544098114393, -1.0048423293644906, 0.03682210126995509, -1910.0434612092388),
    },
    'fig2-right': {
        1.0: (-0.04499999999999998, -1.4643388503206394, -0.0, 0.5242776531021487, -0.9850611972184906),
        5.0: (-1.1249999999999993, -7.321694251603197, -0.10162142281917956, 0.5242776531021487, -8.024038021320228),
        17.0: (-13.004999999999994, -24.89376045545087, -0.1788917540396684, 0.5242776531021487, -37.553374556388384),
        40.0: (-71.99999999999996, -58.573554012825575, -0.23291931663803522, 0.5242776531021487, -130.2821956763614),
        200.0: (-1799.999999999999, -292.86777006412785, -0.3345407394572148, 0.5242776531021487, -2092.678033150482),
    },
}


def _written_out_positive(x, u, r):
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    m = len(u)
    d = x[1:] - x[0]
    r_linear = r * float(np.sum(u * d)) / math.pi
    log_r_coeff = float(np.sum(u * u)) / (2.0 * PI2)
    constant = float(np.sum(u * u / (2.0 * PI2) * np.log(2.0 * d)))
    for j in range(m):
        for k in range(j + 1, m):
            cjk = u[j] * u[k] / (2.0 * PI2)
            log_r_coeff += cjk
            constant += cjk * math.log(2.0 * d[j] * d[k] / (x[k + 1] - x[j + 1]))
    constant += math.fsum(barnes_pair(float(uj)) for uj in u)
    constant += barnes_pair(float(np.sum(u)))
    return 0.0, r_linear, log_r_coeff * math.log(r), constant


def _written_out_zero(x, p, u, r):
    x = np.asarray(x, dtype=float)
    idx = reduced_indices(len(x) - 1, p)
    gap = x[p] - x[p - 1]
    lin = 0.0
    for j, uj in zip(idx, u):
        if j <= p - 2:
            lin += uj * math.sqrt((x[p] - x[j]) * (x[p - 1] - x[j]))
        else:
            lin -= uj * math.sqrt((x[j] - x[p]) * (x[j] - x[p - 1]))
    log_r_coeff = -0.25
    constant = -0.25 * math.log(gap) + DYSON_CONSTANT
    for j, uj in zip(idx, u):
        cj = uj * uj / (4.0 * PI2)
        log_r_coeff += cj
        factor = (
            4.0
            * math.sqrt(abs(x[j] - x[p]) * abs(x[j] - x[p - 1]))
            * abs(2.0 * x[j] - x[p] - x[p - 1])
            / gap
        )
        constant += cj * math.log(factor)
    for a_i in range(len(idx)):
        for b_i in range(a_i + 1, len(idx)):
            j, k = idx[a_i], idx[b_i]
            a = math.sqrt(abs(x[k] - x[p]) * abs(x[j] - x[p - 1]))
            b = math.sqrt(abs(x[k] - x[p - 1]) * abs(x[j] - x[p]))
            constant += u[a_i] * u[b_i] / (2.0 * PI2) * math.log((a + b) / abs(a - b))
    constant += math.fsum(barnes_pair(float(uj)) for uj in u)
    return -((r * gap) ** 2) / 8.0, -r * lin / math.pi, log_r_coeff * math.log(r), constant


def _expansion(x, u, p, r):
    if p is None:
        return positive_weights_expansion(x, u, r)
    return zero_weight_expansion(x, p, u, r)


def test_expansions_keep_the_frozen_figure_values():
    for name, (x, u, p) in FIGURES.items():
        for r, want in PARENT_EXPANSIONS[name].items():
            got = _expansion(x, u, p, r)
            for field, v in zip(FIELDS, want):
                assert abs(getattr(got, field) - v) <= 1e-14 * max(1.0, abs(v)), (name, r, field)


def test_expansions_equal_the_written_out_closed_forms():
    rng = np.random.default_rng(53)
    for _ in range(400):
        m = int(rng.integers(1, 6))
        x = tuple(np.cumsum(np.concatenate(([rng.uniform(-2.0, 2.0)], rng.uniform(0.05, 1.0, m)))))
        r = float(np.exp(rng.uniform(math.log(0.5), math.log(200.0))))
        if rng.random() < 0.5:
            p, u = None, tuple(rng.uniform(-3.0, 3.0, m))
            want = _written_out_positive(x, u, r)
        else:
            p = int(rng.integers(1, m + 1))
            u = tuple(rng.uniform(-3.0, 3.0, m - 1))
            want = _written_out_zero(x, p, u, r)
        got = _expansion(x, u, p, r)
        for field, v in zip(FIELDS, want + (sum(want),)):
            assert abs(getattr(got, field) - v) <= 1e-13 * max(1.0, abs(v)), (x, u, p, r, field)


# ---------------------------------------------------------------------------
# agreement with the determinant at moderate r


def test_positive_expansion_tracks_determinant():
    part = IntervalPartition((0.0, 0.7, 1.2))
    u = (-1.1, -2.4)
    w = WeightConfiguration.from_positive_u(u)
    r = 30.0
    numeric = fredholm_det(part, w, r).log_f.real
    asym = positive_weights_expansion(part, u, r).total
    assert abs(numeric - asym) < 0.02


def test_zero_expansion_tracks_determinant():
    part = IntervalPartition((0.0, 0.5, 1.1, 1.7))
    u = (0.8, -1.32)
    w = WeightConfiguration.from_zero_u(u, 2, 3)
    r = 30.0
    numeric = fredholm_det(part, w, r).log_f.real
    asym = zero_weight_expansion(part, 2, u, r).total
    assert abs(numeric - asym) < 0.02


# ---------------------------------------------------------------------------
# counting statistics


def test_counting_stats_hand_values():
    t = counting_stats(IntervalPartition((0.0, math.pi)), 1.0)
    assert abs(t.mu[0] - 1.0) < 1e-15
    t2 = counting_stats(IntervalPartition((0.0, 1.0)), math.e / 2.0)
    assert abs(t2.sigma2[0] - 1.0 / PI2) < 1e-15  # log(2 r) = 1
    t3 = counting_stats(IntervalPartition((0.0, 0.5, 1.2)), 4.0)
    assert t3.labels == (1, 2)
    assert abs(t3.mu[1] - 4.0 * 1.2 / math.pi) < 1e-15
    want = math.log(2.0 * 4.0 * 0.5 * 1.2 / 0.7) / (2.0 * PI2)
    assert abs(t3.cross[0, 1] - want) < 1e-15
    assert t3.cross[0, 0] == t3.sigma2[0]
    assert t3.cross[1, 0] == t3.cross[0, 1]


def test_conditional_stats_hand_values():
    t = conditional_stats(IntervalPartition((0.0, 1.0, 2.0)), 2, 5.0)
    assert t.labels == (0,)
    assert abs(t.mu[0] - 5.0 * math.sqrt(2.0) / math.pi) < 1e-14
    # sigma_hat^2 at j=0: log(4 sqrt(2*1) |0-2-1| 5 / 1) / (2 pi^2)
    want = math.log(4.0 * math.sqrt(2.0) * 3.0 * 5.0) / (2.0 * PI2)
    assert abs(t.sigma2[0] - want) < 1e-14


def test_conditional_cross_is_r_independent():
    part = IntervalPartition((0.0, 0.5, 1.1, 1.7, 2.5))
    a = conditional_stats(part, 3, 2.0)
    b = conditional_stats(part, 3, 50.0)
    off_a = a.cross[~np.eye(3, dtype=bool)]
    off_b = b.cross[~np.eye(3, dtype=bool)]
    assert np.max(np.abs(off_a - off_b)) == 0.0


def test_var_cov_offsets():
    part = IntervalPartition((0.0, 0.5, 1.2))
    base = counting_stats(part, 20.0)
    full = var_cov_expansion(part, 20.0)
    var_off = (1.0 + EULER_GAMMA) / PI2
    assert np.max(np.abs(full.sigma2 - base.sigma2 - var_off)) < 1e-16
    assert abs(full.cross[0, 1] - base.cross[0, 1] - var_off / 2.0) < 1e-16
    assert np.max(np.abs(full.mu - base.mu)) == 0.0
    assert full.cross[0, 0] == full.sigma2[0]


def test_statistics_triple_read_only():
    t = counting_stats(IntervalPartition((0.0, 1.0)), 2.0)
    with pytest.raises(ValueError):
        t.mu[0] = 0.0
    with pytest.raises(ValueError):
        t.cross[0, 0] = 0.0
