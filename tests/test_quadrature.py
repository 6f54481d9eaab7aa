"""Gauss-Legendre rules: exactness, symmetry, composite mapping."""

import math

import numpy as np
import pytest

from sinegap import (
    CompositeRule,
    IntervalPartition,
    QuadratureRule,
    ValidationError,
    composite_rule,
    gauss_legendre,
)


def test_order_one_is_midpoint():
    rule = gauss_legendre(1)
    assert rule.nodes.tolist() == [0.0]
    assert rule.weights.tolist() == [2.0]


def test_order_two_exact_nodes():
    rule = gauss_legendre(2)
    root = 1.0 / math.sqrt(3.0)
    assert np.allclose(rule.nodes, [-root, root], atol=1e-15, rtol=0.0)
    assert np.allclose(rule.weights, [1.0, 1.0], atol=1e-15, rtol=0.0)


def test_polynomial_exactness_degree_31():
    # an n-point rule integrates degree <= 2n-1 exactly
    rule = gauss_legendre(16)
    rng = np.random.default_rng(3)
    coeffs = rng.uniform(-1.0, 1.0, 32)
    approx = np.sum(rule.weights * np.polyval(coeffs, rule.nodes))
    # exact moments: int_{-1}^1 x^k dx = 2/(k+1) for even k
    exact = sum(
        c * 2.0 / (k + 1)
        for k, c in enumerate(reversed(coeffs))
        if k % 2 == 0
    )
    assert abs(approx - exact) < 1e-13


def test_weights_positive_sum_two_nodes_symmetric():
    for n in (3, 10, 33, 64, 257):
        rule = gauss_legendre(n)
        assert np.all(rule.weights > 0.0)
        assert abs(np.sum(rule.weights) - 2.0) < 1e-14
        assert np.all(np.diff(rule.nodes) > 0.0)
        assert np.allclose(rule.nodes, -rule.nodes[::-1], atol=0.0, rtol=0.0)
        assert np.allclose(rule.weights, rule.weights[::-1], atol=0.0, rtol=0.0)


def test_matches_numpy_leggauss():
    for n in (5, 32, 64, 256):
        rule = gauss_legendre(n)
        ref_x, ref_w = np.polynomial.legendre.leggauss(n)
        assert np.max(np.abs(rule.nodes - ref_x)) < 1e-14
        assert np.max(np.abs(rule.weights - ref_w)) < 1e-14


def test_max_order_converges():
    rule = gauss_legendre(2048)
    assert rule.order == 2048
    assert abs(np.sum(rule.weights) - 2.0) < 1e-12
    assert rule.nodes[0] > -1.0 and rule.nodes[-1] < 1.0


def test_rules_are_cached_and_read_only():
    a = gauss_legendre(64)
    assert gauss_legendre(64) is a
    with pytest.raises(ValueError):
        a.nodes[0] = 0.0
    with pytest.raises(ValueError):
        a.weights[0] = 0.0


def test_gauss_legendre_rejects_bad_orders():
    for bad in (0, -1, 2049, 2.5, "8", True):
        with pytest.raises(ValidationError):
            gauss_legendre(bad)


def test_composite_rule_covers_scaled_intervals():
    part = IntervalPartition((0.0, 0.5, 1.2))
    rule = composite_rule(part, 3.0, 8)
    assert isinstance(rule, CompositeRule)
    assert rule.nodes.shape == (16,)
    assert rule.interval_index.tolist() == [0] * 8 + [1] * 8
    # one slice per interval, in order, covering the nodes of that interval
    assert rule.blocks == (slice(0, 8), slice(8, 16))
    for k, block in enumerate(rule.blocks):
        assert np.array_equal(np.flatnonzero(rule.interval_index == k), np.arange(16)[block])
    # block k sits strictly inside (r x_k, r x_{k+1})
    assert np.all(rule.nodes[:8] > 0.0) and np.all(rule.nodes[:8] < 1.5)
    assert np.all(rule.nodes[8:] > 1.5) and np.all(rule.nodes[8:] < 3.6)
    # weights integrate 1 to the total scaled length
    assert abs(np.sum(rule.weights) - 3.0 * 1.2) < 1e-13


def test_composite_rule_integrates_smooth_function():
    # int over (2*0, 2*0.5) U (2*0.5, 2*1.2) of x e^{-x} dx
    part = IntervalPartition((0.0, 0.5, 1.2))
    rule = composite_rule(part, 2.0, 24)
    approx = np.sum(rule.weights * rule.nodes * np.exp(-rule.nodes))
    exact = -(1.0 + 2.4) * math.exp(-2.4) + 1.0  # antiderivative -(1+x)e^{-x}
    assert abs(approx - exact) < 1e-14


def test_composite_rule_validations():
    part = IntervalPartition((0.0, 1.0))
    with pytest.raises(ValidationError):
        composite_rule(part, 0.0, 8)
    with pytest.raises(ValidationError):
        composite_rule(part, -2.0, 8)
    with pytest.raises(ValidationError):
        composite_rule(part, math.inf, 8)
    with pytest.raises(ValidationError):
        composite_rule(part, 1.0, 3)


def test_quadrature_rule_is_frozen():
    rule = gauss_legendre(4)
    assert isinstance(rule, QuadratureRule)
    with pytest.raises(Exception):
        rule.order = 5
