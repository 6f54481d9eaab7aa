"""Prolate modes of one interval: gaps 1 - lambda_k, eigenfunctions, bounds."""

import math

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

from sinegap import NumericalError, _lapack, gauss_legendre, prolate, sine_kernel
from sinegap.prolate import gap_modes

# 1 - lambda_k(c = 12), k = 0..3, from a 60-digit (mpmath) eigen-
# decomposition of the prolate matrices, lambda_k read off psi_k(0) or
# psi_k'(0) (`tools/hard_gap_references.py gaps 12`); they agree with
# independent 40-digit values to all 15 digits given here.
GAPS_C12 = (
    8.92009265193761e-10,
    7.97498460382857e-08,
    3.3025116768898866e-06,
    8.3369811104123e-05,
)


def test_gaps_to_relative_accuracy():
    # every gap comes from the Slepian integral
    modes = gap_modes(12.0)
    assert modes.count == 4
    rel = np.abs(modes.gaps / np.array(GAPS_C12) - 1.0)
    assert np.all(rel < 1e-10), rel


def test_mode_count_follows_tau(monkeypatch):
    assert prolate.HARD_GAP_TAU == 1e-4
    assert gap_modes(12.0).count == 4  # 1 - lambda_3 = 8.3e-5 < 1e-4 < 1 - lambda_4
    assert gap_modes(4.0).count == 0  # 1 - lambda_0(4) is about 5e-3
    # gap_modes reads the threshold at call time
    monkeypatch.setattr(prolate, "HARD_GAP_TAU", 1e-9)
    assert gap_modes(12.0).count == 1
    monkeypatch.setattr(prolate, "HARD_GAP_TAU", 0.0)
    assert gap_modes(12.0).count == 0


def test_modes_are_orthonormal_eigenfunctions_of_the_sine_kernel():
    c, n = 12.0, 96
    rule = gauss_legendre(n)
    modes = gap_modes(c)
    q = modes.at_gauss_nodes(n)
    assert np.max(np.abs(q.T @ q - np.eye(modes.count))) < 1e-13
    # sin(c (u - v)) / (pi (u - v)) on (-1, 1) is c K(c u, c v)
    t = c * rule.nodes
    b = c * np.sqrt(rule.weights)[:, None] * sine_kernel(t[:, None], t[None, :]) * np.sqrt(rule.weights)[None, :]
    residual = b @ q - q * (1.0 - modes.gaps)
    assert np.max(np.abs(residual)) < 1e-13


def test_rounding_bound_grows_with_the_gap():
    assert gap_modes(12.0).rounding < 1e-10
    assert 1e-9 < gap_modes(24.0).rounding < 1e-5
    assert gap_modes(36.0).rounding > 1e-3
    assert math.isfinite(gap_modes(36.0).gaps[0])


def test_edge_value_rounded_to_zero_gives_an_infinite_rounding_bound():
    # psi_0(1) rounds to exactly 0.0 at some half-lengths between 39 and
    # 40; no digit of it is left, so the bound is inf, not a division by 0
    modes = gap_modes(39.05)
    assert modes.rounding == math.inf
    assert np.all(np.isfinite(modes.gaps))


def test_parity_modes_are_the_bits_of_scipys_tridiagonal_solver():
    # _parity_modes calls LAPACK's bisection and inverse iteration itself;
    # the wrapper with the same driver gives the same bits
    def wrapped(c, parity, count):
        size = (int(2.0 * c) + prolate.DEGREE_MARGIN) // 2 + 1
        j, jj, diag_u2, off_u2, scale, at_zero = prolate._legendre_tables(parity, size)
        diag, off = jj + c * c * diag_u2, c * c * off_u2
        _, vecs = eigh_tridiagonal(diag, off, select="i", select_range=(0, count - 1), lapack_driver="stebz")
        mu = (c * math.sqrt(2.0 / 3.0) if parity else math.sqrt(2.0)) * vecs[0] / (at_zero @ vecs)
        return j, vecs, scale @ vecs, (c / (2.0 * math.pi)) * mu * mu

    for c in (0.5, 6.0, 12.0, 17.3, 24.0, 31.0, 39.8):
        count = int(c / math.pi) + 3  # as many as gap_modes asks for
        for parity in (0, 1):
            got, want = prolate._parity_modes(c, parity, count), wrapped(c, parity, count)
            assert all(np.array_equal(g, w) for g, w in zip(got, want)), (c, parity)


def test_parity_modes_raise_where_the_bisection_fails(monkeypatch):
    dstebz = _lapack.dstebz
    for broken in (
        lambda *args: dstebz(*args)[:4] + (1,),  # info != 0
        lambda *args: (dstebz(*args)[0] - 1,) + dstebz(*args)[1:],  # a mode short
    ):
        monkeypatch.setattr(_lapack, "dstebz", broken)
        with pytest.raises(NumericalError, match=r"prolate eigensolver failed at c = 12\.5"):
            prolate._parity_modes(12.5, 0, 5)
