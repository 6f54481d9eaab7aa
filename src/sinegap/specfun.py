"""Log-gamma, Barnes G, and the constants entering the gap expansions.

Everything is evaluated from asymptotic or Taylor series plus functional-
equation shifts; the only tabulated inputs are Bernoulli numbers and one
frozen constant (zeta'(-1), validated in the test suite against a
limit-product oracle for the Glaisher-Kinkelin constant).

All complex functions return the analytic branch that is real on the
positive real axis (the principal branch, with the cut along the negative
real axis).
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache

from .errors import NumericalError, ValidationError, _integer, _real

__all__ = [
    "EULER_GAMMA",
    "ZETA_PRIME_MINUS_ONE",
    "DYSON_CONSTANT",
    "log_gamma",
    "log_barnes_g",
    "barnes_pair",
    "zeta_int",
]

TWO_PI = 2.0 * math.pi

# B_2, B_4, ..., B_24.
_BERNOULLI_EVEN = (
    1.0 / 6.0,
    -1.0 / 30.0,
    1.0 / 42.0,
    -1.0 / 30.0,
    5.0 / 66.0,
    -691.0 / 2730.0,
    7.0 / 6.0,
    -3617.0 / 510.0,
    43867.0 / 798.0,
    -174611.0 / 330.0,
    854513.0 / 138.0,
    -236364091.0 / 2730.0,
)

EULER_GAMMA = 0.5772156649015329

# zeta'(-1) = 1/12 - log A with A the Glaisher-Kinkelin constant.
ZETA_PRIME_MINUS_ONE = -0.16542114370045093

# Constant term of the one-interval gap law: (1/3) log 2 + 3 zeta'(-1).
DYSON_CONSTANT = math.log(2.0) / 3.0 + 3.0 * ZETA_PRIME_MINUS_ONE

_LOG_GLAISHER = 1.0 / 12.0 - ZETA_PRIME_MINUS_ONE


def _require_finite_complex(z: complex, what: str) -> complex:
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValidationError(f"{what} must be finite, got {z!r}")
    return z


def _is_nonpositive_integer(z: complex) -> bool:
    return z.imag == 0.0 and z.real <= 0.0 and z.real == math.floor(z.real)


def log_gamma(z: complex) -> complex:
    """Principal branch of log Gamma(z).

    Stirling's series

        log Gamma(w) = (w - 1/2) log w - w + log(2 pi)/2
                       + sum_k B_{2k} / ((2k-1)(2k) w^{2k-1})

    applied after shifting Re w above 10 through
    log Gamma(z) = log Gamma(z + n) - sum_{j<n} log(z + j).
    The shift with principal logs reproduces the principal branch on the
    whole cut plane.  Poles (z = 0, -1, -2, ...) are rejected.
    """
    z = _require_finite_complex(z, "log_gamma argument")
    if _is_nonpositive_integer(z):
        raise ValidationError(f"log_gamma pole at z = {z.real:g}")

    shift = max(0, math.ceil(10.0 - z.real))
    w = z + shift
    w2 = w * w
    out = (w - 0.5) * cmath.log(w) - w + 0.5 * math.log(TWO_PI)
    wp = w  # w^(2k-1)
    for k, b2k in enumerate(_BERNOULLI_EVEN[:10], start=1):
        out += b2k / ((2 * k - 1) * (2 * k) * wp)
        wp *= w2
    for j in range(shift):
        out -= cmath.log(z + j)
    if not (math.isfinite(out.real) and math.isfinite(out.imag)):
        raise NumericalError(f"log_gamma produced a non-finite value at z = {z!r}")
    return out


@lru_cache(maxsize=None)
def zeta_int(k: int) -> float:
    """Riemann zeta at an integer argument k >= 2.

    Direct sum to N plus the Euler-Maclaurin tail
        N^{1-k}/(k-1) + N^{-k}/2
        + sum_j B_{2j}/(2j)! * k(k+1)...(k+2j-2) * N^{1-k-2j}.
    Full double accuracy for every k >= 2.
    """
    k = _integer(k, "zeta_int argument k", 2)

    n_direct = 24
    acc = math.fsum(n ** (-float(k)) for n in range(1, n_direct))
    nf = float(n_direct)
    acc += nf ** (1.0 - k) / (k - 1.0) + 0.5 * nf ** (-float(k))
    poch = float(k)  # k(k+1)...(k+2j-2), j terms built up
    fact = 1.0  # (2j)!
    for j, b2j in enumerate(_BERNOULLI_EVEN, start=1):
        fact *= (2 * j - 1) * (2 * j)
        term = b2j / fact * poch * nf ** (1.0 - k - 2 * j)
        acc += term
        if abs(term) < 1e-18 * acc:
            break
        poch *= (k + 2 * j - 1) * (k + 2 * j)
    return acc


def _log_barnes_taylor(t: complex) -> complex:
    """log G(1+t) for |t| <= 1/2 by the Taylor series

    (t/2) log(2 pi) - t(1+t)/2 - gamma t^2/2
        + sum_{k>=2} (-1)^k zeta(k) t^{k+1}/(k+1).
    """
    out = 0.5 * math.log(TWO_PI) * t - 0.5 * t * (1.0 + t) - 0.5 * EULER_GAMMA * t * t
    tp = t * t  # t^k
    sign = 1.0
    for k in range(2, 64):
        tp *= t
        term = sign * zeta_int(k) * tp / (k + 1)
        out += term
        sign = -sign
        if abs(term) < 1e-18 * (1.0 + abs(out)):
            break
    return out


def _log_barnes_asymptotic(t: complex) -> complex:
    """log G(1+t) for large |t|, Re t >= 10:

    t^2/4 + t log Gamma(t+1) - (t(t+1)/2 + 1/12) log t - log A
        + sum_k B_{2k+2} / (2k(2k+1)(2k+2) t^{2k}).
    """
    out = 0.25 * t * t + t * log_gamma(t + 1.0)
    out -= (0.5 * t * (t + 1.0) + 1.0 / 12.0) * cmath.log(t)
    out -= _LOG_GLAISHER
    t2 = t * t
    tp = t2
    for k in range(1, 9):
        b = _BERNOULLI_EVEN[k]  # B_{2k+2}
        out += b / ((2 * k) * (2 * k + 1) * (2 * k + 2) * tp)
        tp *= t2
    return out


def log_barnes_g(z: complex) -> complex:
    """Principal branch of log G(z), G the Barnes function.

    G(1) = 1 and G(z+1) = Gamma(z) G(z).  Near z = 1 (|z - 1| <= 1/2) the
    Taylor series of log G(1+t) is used; elsewhere the argument is shifted
    up by the functional equation until the large-argument series applies.
    Real shifts cannot reduce an imaginary part, which is why the large
    |Im z| range is served by the asymptotic series rather than Taylor.
    Zeros of G (z = 0, -1, -2, ...) are rejected.
    """
    z = _require_finite_complex(z, "log_barnes_g argument")
    if _is_nonpositive_integer(z):
        raise ValidationError(f"log_barnes_g: G vanishes at z = {z.real:g}")

    t = z - 1.0
    if abs(t) <= 0.5:
        out = _log_barnes_taylor(t)
    else:
        shift = max(0, math.ceil(10.0 - t.real))
        out = _log_barnes_asymptotic(t + shift)
        for j in range(shift):
            out -= log_gamma(1.0 + t + j)
    if not (math.isfinite(out.real) and math.isfinite(out.imag)):
        raise NumericalError(f"log_barnes_g produced a non-finite value at z = {z!r}")
    return out


def barnes_pair(u: float) -> float:
    """log[ G(1 + u/(2 pi i)) G(1 - u/(2 pi i)) ] for real u.

    The two factors are complex conjugates, so the pair-sum equals
    2 Re log G(1 + i u/(2 pi)); evaluating the real part directly avoids
    cancellation between the factors.  Vanishes at u = 0.
    """
    return _barnes_pair(_real(u, "barnes_pair argument u"))


# keyed on the checked float: a cache on the raw argument would hand the
# value of 1.0 to True, which compares and hashes equal to it
@lru_cache(maxsize=256)
def _barnes_pair(u: float) -> float:
    if u == 0.0:
        return 0.0
    val = log_barnes_g(complex(1.0, u / TWO_PI))
    return 2.0 * val.real
