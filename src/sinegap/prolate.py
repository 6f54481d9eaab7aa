"""Prolate spheroidal wave functions of order zero, for hard-gap determinants.

On an interval of half-length c, the sine kernel sin(x - y) / (pi (x - y))
becomes, after the affine map onto (-1, 1), the band-limiting operator

    (K f)(u) = int_{-1}^{1} sin(c (u - v)) / (pi (u - v)) f(v) dv,

whose eigenfunctions are the prolate spheroidal wave functions psi_k(c, u)
with eigenvalues 1 > lambda_0 > lambda_1 > ... > 0.  The top eigenvalues
cluster at 1 exponentially fast in c, so 1 - lambda_k cannot be read off
any discretized K.  Two classical facts give them to relative accuracy:

* psi_k are also the eigenfunctions of the differential operator
  -(1 - u^2) d^2/du^2 + 2 u d/du + c^2 u^2, which in the orthonormal
  Legendre basis Pbar_j = sqrt(j + 1/2) P_j is symmetric tridiagonal
  within each parity, with well separated eigenvalues (Osipov, Rokhlin
  & Xiao, "Prolate Spheroidal Wave Functions of Order Zero", 2013);
* Slepian's identity d lambda_k / dc = (2 / c) lambda_k psi_k(c, 1)^2,
  psi_k normalized on (-1, 1), so that
      1 - lambda_k(c) = int_c^inf (2 / c') lambda_k(c') psi_k(c', 1)^2 dc',
  an integral of positive terms, evaluated here by Gauss-Laguerre in
  c' - c with weight e^{-2 (c' - c)}.

`gap_modes(c)` returns the modes with 1 - lambda_k < HARD_GAP_TAU = 1e-4,
those that the hard-gap route of `sinegap.fredholm` deflates, and takes
every one of their gaps from that integral.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import NumericalError
from .quadrature import gauss_legendre

__all__ = ["GapModes", "gap_modes"]

# Gauss-Laguerre nodes for the Slepian integral.  Against 60-digit values
# for c = 6..24, eight nodes leave an error below the rounding bound of
# psi_k(1) (6e-12 relative for 1 - lambda_0 at c = 12); six nodes leave
# 1.5e-10 at c = 6.
LAGUERRE_ORDER = 8

# Legendre degrees kept per expansion: 2c + 40.  The coefficients decay
# super-exponentially past degree 2c, so the margin only has to clear
# the rounding level; a longer basis costs time and adds large diagonal
# entries j (j + 1) to the matrix.  Margins of 20 to 100 give the same
# gaps at c = 12 to 1e-11.
DEGREE_MARGIN = 40

# The modes returned are those with 1 - lambda_k below HARD_GAP_TAU, which
# the hard-gap route of `sinegap.fredholm` deflates.  The matrix it factors
# then has condition about 1 / HARD_GAP_TAU, so its rounding moves log F by
# about eps / HARD_GAP_TAU: between n = 64 and 128 the figure-2 points at
# r <= 40 differ by up to 4.9e-10 at tau = 1e-6, 5.8e-11 at 1e-5 and
# 2.3e-11 at 1e-4; larger tau gains nothing more.  It must stay well below
# 1e-3: every gap comes from the Slepian integral, whose Laguerre rule is
# accurate to 4e-11 relative only while lambda_k(c') stays in its
# exponential tail, i.e. for small gaps (checked against 60-digit values
# for c = 6..24; at c = 12 it is off by 2.7e-12 for 1 - lambda_4 = 1.4e-3,
# 1.5e-10 for 1.6e-2 and 6.8e-9 for 0.12).
HARD_GAP_TAU = 1e-4

EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class GapModes:
    """The prolate modes k = 0..count-1 of one interval, half-length c.

    `coefficients[:, k]` holds psi_k in the orthonormal Legendre basis
    (degrees 0..degree); `gaps[k]` = 1 - lambda_k to relative accuracy;
    `rounding` is the largest relative rounding bound of the values
    psi_k(1), k < count, that the gaps are built from (0 if there are no
    modes, inf if one of them rounds to 0.0).
    """

    c: float
    coefficients: np.ndarray
    gaps: np.ndarray
    rounding: float

    @property
    def count(self) -> int:
        return self.gaps.size

    def at_gauss_nodes(self, n: int) -> np.ndarray:
        """q = W^{1/2} psi_k on the n-point Gauss-Legendre rule of (-1, 1),
        shape (n, count): eigenvectors of W^{1/2} K W^{1/2} on its nodes,
        orthonormal up to the rule's error."""
        psi = _legendre_at_gauss_nodes(n, self.coefficients.shape[0] - 1) @ self.coefficients
        return np.sqrt(gauss_legendre(n).weights)[:, None] * psi


@lru_cache(maxsize=32)
def _legendre_at_gauss_nodes(n: int, degree: int) -> np.ndarray:
    """Pbar_j(u_i) for the n-point Gauss-Legendre nodes u_i, j = 0..degree."""
    u = gauss_legendre(n).nodes
    table = np.empty((n, degree + 1))
    table[:, 0] = 1.0
    if degree:
        table[:, 1] = u
    for j in range(1, degree):
        table[:, j + 1] = ((2 * j + 1) * u * table[:, j] - j * table[:, j - 1]) / (j + 1)
    table *= np.sqrt(np.arange(degree + 1) + 0.5)
    table.setflags(write=False)
    return table


@lru_cache(maxsize=64)
def _legendre_tables(parity: int, size: int):
    """Degree-only pieces of the prolate matrix of one parity on Pbar_j,
    j = parity, parity + 2, ...: (j, j (j + 1), diagonal and off-diagonal
    coefficients of c^2 in u^2, sqrt(j + 1/2), and the row mapping
    coefficients to psi(0) (even) or psi'(0) (odd))."""
    j = parity + 2 * np.arange(size)

    def a(jj):  # u Pbar_j = a_{j+1} Pbar_{j+1} + a_j Pbar_{j-1}, a_0 = 0
        jj = jj.astype(float)
        return jj / np.sqrt(np.abs(4.0 * jj * jj - 1.0))

    i = np.arange(1, size)
    p = np.concatenate(([1.0], np.cumprod(-(2.0 * i - 1.0) / (2.0 * i))))  # P_{2i}(0)
    scale = np.sqrt(j + 0.5)
    at_zero = scale * (j * p if parity else p)  # P_j'(0) = j P_{j-1}(0) for odd j
    tables = (j, j * (j + 1.0), a(j + 1) ** 2 + a(j) ** 2, (a(j + 1) * a(j + 2))[:-1], scale, at_zero)
    for t in tables:
        t.setflags(write=False)
    return tables


@lru_cache(maxsize=1)
def _laguerre_rule():
    # imported here: only hard gaps need it, and it adds about 3 ms to
    # `import sinegap`
    from numpy.polynomial.laguerre import laggauss

    return laggauss(LAGUERRE_ORDER)


def _parity_modes(c: float, parity: int, count: int):
    """The `count` lowest modes of one parity at half-length c, as
    (degrees j, coefficients on Pbar_j one mode per column, psi(1), lambda)."""
    # imported here so that callers which deflate no hard gap never load
    # scipy's LAPACK module (sinegap._lapack, not the scipy.linalg package)
    from ._lapack import dstebz, dstein

    size = (int(2.0 * c) + DEGREE_MARGIN) // 2 + 1
    j, jj, diag_u2, off_u2, scale, at_zero = _legendre_tables(parity, size)
    c2 = c * c
    diag, off = jj + c2 * diag_u2, c2 * off_u2
    # bisection and inverse iteration: their eigenvectors give psi(1) two
    # digits better than MRRR's (dstemr) at c = 12.  LAPACK is called
    # directly, with the arguments scipy.linalg.eigh_tridiagonal passes
    # for select="i" and lapack_driver="stebz" (the same bits), because
    # that wrapper's input checks cost more than the bisection here.
    found, chi, block, split, info = dstebz(diag, off, 2, 0.0, 0.0, 1, count, 0.0, "B")
    if info == 0 and found == count:
        vecs, info = dstein(diag, off, chi[:count], block, split)
    if info != 0 or found != count:
        raise NumericalError(f"prolate eigensolver failed at c = {c!r}: {found} of {count} modes, info {info}")
    # lambda = (c / 2 pi) mu^2, with mu the eigenvalue of
    # f -> int_{-1}^{1} e^{i c u v} f(v) dv read off at u = 0:
    # mu psi(0) = sqrt(2) beta_0 for even modes and
    # mu psi'(0) = i c sqrt(2/3) beta_1 for odd ones.  Accurate to
    # rounding in absolute terms only, which is all its callers need.
    mu = (c * math.sqrt(2.0 / 3.0) if parity else math.sqrt(2.0)) * vecs[0] / (at_zero @ vecs)
    return j, vecs, scale @ vecs, (c / (2.0 * math.pi)) * mu * mu


def gap_modes(c: float) -> GapModes:
    """The prolate modes with 1 - lambda_k < HARD_GAP_TAU at half-length c
    (possibly none), their gaps 1 - lambda_k and their rounding bound."""
    # about 2c/pi eigenvalues sit near 1; a few more per parity are checked
    per_parity = int(c / math.pi) + 3
    parts = [_parity_modes(c, parity, per_parity) for parity in (0, 1)]

    def mode(k):  # mode k has the parity of k: (degrees, beta, psi(1), lambda)
        j, vecs, edge, lam = parts[k % 2]
        return j, vecs[:, k // 2], edge[k // 2], lam[k // 2]

    count = 0
    while count < 2 * per_parity and 1.0 - mode(count)[3] < HARD_GAP_TAU:
        count += 1
    coefficients = np.zeros((int(parts[1][0][-1]) + 1, count))
    rounding = 0.0
    for k in range(count):
        j, beta, edge, _ = mode(k)
        coefficients[j, k] = beta
        # psi_k(1) = sum_j beta_j sqrt(j + 1/2) is small by cancellation;
        # where it rounds to 0.0 no digit of it is left
        bound = math.inf if edge == 0.0 else EPS * float(np.sqrt(j + 0.5) @ np.abs(beta)) / abs(float(edge))
        rounding = max(rounding, bound)

    gaps = np.zeros(count)  # the Slepian integral
    counts = ((count + 1) // 2, count // 2)
    for xi, wi in zip(*_laguerre_rule()):
        cc = c + 0.5 * xi
        for parity in (0, 1):
            if counts[parity]:
                _, _, edge, lam = _parity_modes(cc, parity, counts[parity])
                # (1/2) (2/c') lambda psi(c', 1)^2 against the weight e^{-x}
                gaps[parity::2] += (wi * math.exp(xi) / cc) * lam * edge * edge
    return GapModes(c=c, coefficients=coefficients, gaps=gaps, rounding=rounding)
