"""Gauss-Legendre rules and their composite images on a scaled partition.

Nodes and weights are computed from scratch: Newton iteration on the
Legendre recurrence, started from the Chebyshev-angle guesses
cos(pi (i + 3/4)/(n + 1/2)).  Stable through n = 2048, which is far above
anything the determinant code requests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ValidationError, _integer, _real

__all__ = ["QuadratureRule", "CompositeRule", "gauss_legendre", "composite_rule"]

MAX_ORDER = 2048


@dataclass(frozen=True)
class QuadratureRule:
    """An n-point rule on (-1, 1): strictly increasing symmetric nodes,
    positive symmetric weights summing to 2."""

    order: int
    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        self.nodes.setflags(write=False)
        self.weights.setflags(write=False)


@dataclass(frozen=True)
class CompositeRule:
    """Gauss-Legendre rules mapped affinely onto the intervals of a scaled
    partition: blocks[k] is the slice of the nodes of interval k, in order,
    and holds the gauss_legendre rule of its length; the blocks may be out
    of spatial order.  interval_index[a] tells which interval node a came
    from; weights are the base weights times the half-length, so they sum
    to the interval length interval by interval."""

    nodes: np.ndarray
    weights: np.ndarray
    interval_index: np.ndarray
    blocks: tuple[slice, ...]

    def __post_init__(self):
        self.nodes.setflags(write=False)
        self.weights.setflags(write=False)
        self.interval_index.setflags(write=False)


@lru_cache(maxsize=128)
def gauss_legendre(n: int) -> QuadratureRule:
    """The n-point Gauss-Legendre rule on (-1, 1), exact to degree 2n - 1."""
    n = _integer(n, "gauss_legendre order", 1, MAX_ORDER)

    i = np.arange(n)
    x = np.cos(math.pi * (i + 0.75) / (n + 0.5))
    dx = math.inf
    for step in range(101):  # up to 100 Newton steps, then a last pass for dp
        p0 = np.ones_like(x)
        p1 = x.copy()
        for k in range(2, n + 1):
            p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
        dp = n * (x * p1 - p0) / (x * x - 1.0)
        if np.max(np.abs(dx)) < 1e-15 or step == 100:
            break  # dp is P_n' at the final nodes
        dx = p1 / dp
        x -= dx
    w = 2.0 / ((1.0 - x * x) * dp * dp)

    order = np.argsort(x)
    x = x[order]
    w = w[order]
    # enforce the exact +/- symmetry of the rule
    x = 0.5 * (x - x[::-1])
    w = 0.5 * (w + w[::-1])
    return QuadratureRule(n, x, w)


def _check_r(r: float) -> float:
    """The scale r as a float, which must be positive and finite."""
    r = _real(r, "scale r")
    if r <= 0.0:
        raise ValidationError(f"scale r must be positive and finite, got {r!r}")
    return r


def _check_order(n: int) -> int:
    """The per-interval order n of a determinant, an integer in [8, MAX_ORDER]."""
    return _integer(n, "quadrature order n", 8, MAX_ORDER)


def composite_rule(partition, r: float, n: int) -> CompositeRule:
    """Map the n-point base rule onto every interval (r x_{k-1}, r x_k),
    as block k of the rule.

    `partition` is an IntervalPartition (anything exposing `endpoints`
    works).  Requires r > 0 and n >= 4.
    """
    r = _check_r(r)
    n = _integer(n, "composite rule order n", 4)

    base = gauss_legendre(n)
    x = np.asarray(partition.endpoints, dtype=float)
    nodes = []
    weights = []
    for k in range(len(x) - 1):
        a = r * x[k]
        b = r * x[k + 1]
        mid = 0.5 * (b + a)
        half = 0.5 * (b - a)
        nodes.append(mid + half * base.nodes)
        weights.append(half * base.weights)
    return CompositeRule(
        nodes=np.concatenate(nodes),
        weights=np.concatenate(weights),
        interval_index=np.repeat(np.arange(len(x) - 1, dtype=np.intp), n),
        blocks=tuple(slice(k * n, (k + 1) * n) for k in range(len(x) - 1)),
    )
