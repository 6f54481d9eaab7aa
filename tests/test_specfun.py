"""Special-function layer: log Gamma, Barnes G, zeta at integers, constants.

Every expected value is either produced by an independent oracle built in
this file (limit formulas, Euler products, quadrature of a derivative) or
is a frozen high-precision literal from an arbitrary-precision evaluation.
"""

import cmath
import math

import numpy as np
import pytest
import scipy.special

from sinegap import (
    DYSON_CONSTANT,
    EULER_GAMMA,
    ZETA_PRIME_MINUS_ONE,
    ValidationError,
    barnes_pair,
    gauss_legendre,
    log_barnes_g,
    log_gamma,
    zeta_int,
)

TWO_PI = 2.0 * math.pi

# frozen 30-digit evaluations
LOG_GAMMA_1_PLUS_I = complex(-0.650923199301856339, -0.301640320467533198)
GAMMA_1_PLUS_I = complex(0.498015668118356043, -0.154949828301810685)
BARNES_PAIR_M11 = 0.04778624843325314  # barnes_pair(-1.1)


def segment_integral(f, z, order=60):
    """Gauss-Legendre integral of f along the straight segment [0, z]."""
    rule = gauss_legendre(order)
    ts = 0.5 * (rule.nodes + 1.0)
    vals = np.array([f(z * t) for t in ts])
    return 0.5 * z * np.sum(rule.weights * vals)


# ---------------------------------------------------------------------------
# constants


def test_euler_gamma_against_harmonic_limit():
    # H_N - log N with Euler-Maclaurin tail; truncation ~ 1/(252 N^6)
    n = 1000
    h = math.fsum(1.0 / k for k in range(1, n + 1))
    oracle = h - math.log(n) - 1.0 / (2 * n) + 1.0 / (12 * n**2) - 1.0 / (120 * n**4)
    assert abs(EULER_GAMMA - oracle) < 1e-12


def test_zeta_prime_at_minus_one_against_glaisher_product():
    # log A = lim [sum k log k - (n^2/2 + n/2 + 1/12) log n + n^2/4], with
    # the first two tail corrections; zeta'(-1) = 1/12 - log A
    n = 150
    ssum = math.fsum(k * math.log(k) for k in range(1, n + 1))
    log_a = (
        ssum
        - (n * n / 2.0 + n / 2.0 + 1.0 / 12.0) * math.log(n)
        + n * n / 4.0
        - 1.0 / (720.0 * n * n)
        + 1.0 / (5040.0 * n**4)
    )
    oracle = 1.0 / 12.0 - log_a
    assert abs(ZETA_PRIME_MINUS_ONE - oracle) < 1e-10


def test_constant_table_is_consistent():
    # stored exactly as the defining float expression, not as a literal
    assert DYSON_CONSTANT == math.log(2.0) / 3.0 + 3.0 * ZETA_PRIME_MINUS_ONE


# ---------------------------------------------------------------------------
# log Gamma


def test_log_gamma_frozen_value():
    assert abs(log_gamma(complex(1, 1)) - LOG_GAMMA_1_PLUS_I) < 1e-12


def test_gamma_1_plus_i_against_euler_product():
    # Gamma(z) = (1/z) prod (1+1/k)^z / (1+z/k); 200 terms converge O(1/n),
    # so this oracle is honest only to ~2e-3
    z = complex(1, 1)
    prod = 1.0 / z
    for k in range(1, 201):
        prod *= (1.0 + 1.0 / k) ** z / (1.0 + z / k)
    assert abs(prod - cmath.exp(log_gamma(z))) < 1e-2
    # the tight check is against the frozen arbitrary-precision value
    assert abs(cmath.exp(log_gamma(z)) - GAMMA_1_PLUS_I) < 1e-12


def test_log_gamma_real_axis_matches_lgamma():
    for x in (0.1, 0.5, 1.0, 2.5, 7.0, 31.0, 200.5):
        got = log_gamma(complex(x))
        assert got.imag == 0.0
        assert abs(got.real - math.lgamma(x)) < 1e-13 * max(1.0, abs(got.real))


def test_log_gamma_half_integer_value():
    assert abs(log_gamma(complex(0.5)).real - 0.5 * math.log(math.pi)) < 1e-14


def test_log_gamma_against_scipy_grid():
    res = np.linspace(0.2, 5.0, 9)
    ims = np.linspace(-6.0, 6.0, 9)
    for a in res:
        for b in ims:
            z = complex(a, b)
            ref = scipy.special.loggamma(z)
            assert abs(log_gamma(z) - ref) < 1e-12 * max(1.0, abs(ref))


def test_log_gamma_conjugate_symmetry():
    for z in (complex(0.7, 2.3), complex(3.1, -0.4), complex(12.0, 5.0)):
        assert log_gamma(z.conjugate()) == pytest.approx(
            log_gamma(z).conjugate(), abs=1e-13
        )


def test_log_gamma_recursion():
    # Gamma(z+1) = z Gamma(z), branch-insensitively
    rng = np.random.default_rng(7)
    for _ in range(50):
        z = complex(rng.uniform(0.3, 4.0), rng.uniform(-5.0, 5.0))
        res = log_gamma(z + 1) - log_gamma(z) - cmath.log(z)
        assert abs(res.real) < 1e-12
        assert abs(math.remainder(res.imag, TWO_PI)) < 1e-12


def test_log_gamma_rejects_poles_and_nonfinite():
    for bad in (0.0, -1.0, -7.0):
        with pytest.raises(ValidationError):
            log_gamma(complex(bad))
    with pytest.raises(ValidationError):
        log_gamma(complex(math.inf, 0.0))
    with pytest.raises(ValidationError):
        log_gamma(complex(0.0, math.nan))


# ---------------------------------------------------------------------------
# zeta at integers


def test_zeta_int_basel_values():
    assert abs(zeta_int(2) - math.pi**2 / 6.0) < 1e-14
    assert abs(zeta_int(4) - math.pi**4 / 90.0) < 1e-14
    assert abs(zeta_int(6) - math.pi**6 / 945.0) < 1e-13


def test_zeta_int_against_scipy():
    for k in range(2, 41):
        ref = float(scipy.special.zeta(k))
        assert abs(zeta_int(k) - ref) < 1e-13 * ref


def test_zeta_int_large_k_tends_to_one():
    assert abs(zeta_int(200) - 1.0) < 1e-15


def test_zeta_int_rejects_bad_arguments():
    for bad in (1, 0, -3, 2.5, "2", True):
        with pytest.raises(ValidationError):
            zeta_int(bad)


# ---------------------------------------------------------------------------
# Barnes G


def test_log_barnes_g_small_integer_values():
    # G(1) = G(2) = G(3) = 1, G(4) = 2, G(5) = 12
    for z, want in ((1.0, 0.0), (2.0, 0.0), (3.0, 0.0)):
        assert abs(log_barnes_g(complex(z)) - want) < 1e-13
    assert abs(log_barnes_g(complex(4.0)).real - math.log(2.0)) < 1e-13
    assert abs(log_barnes_g(complex(5.0)).real - math.log(12.0)) < 1e-13


def test_log_barnes_g_half_value():
    # G(1/2) = 2^{1/24} e^{1/8} pi^{-1/4} A^{-3/2}, log A = 1/12 - zeta'(-1)
    log_a = 1.0 / 12.0 - ZETA_PRIME_MINUS_ONE
    want = math.log(2.0) / 24.0 + 0.125 - 0.25 * math.log(math.pi) - 1.5 * log_a
    assert abs(log_barnes_g(complex(0.5)).real - want) < 1e-12


def test_barnes_integral_identity():
    # int_0^z log Gamma(1+x) dx
    #   = (z/2) log 2pi - z(z+1)/2 + z log Gamma(z+1) - log G(z+1)
    for z in (complex(0.3), complex(0.0, 0.7), complex(1.0, 0.5)):
        lhs = segment_integral(lambda x: log_gamma(1.0 + x), z)
        rhs = (
            0.5 * z * math.log(TWO_PI)
            - 0.5 * z * (z + 1.0)
            + z * log_gamma(z + 1.0)
            - log_barnes_g(z + 1.0)
        )
        assert abs(lhs - rhs) < 1e-9


def test_barnes_recursion_on_strip():
    # G(1+z) = Gamma(z) G(z) on Re z in [0.5, 3], |Im z| <= 5
    for a in np.linspace(0.5, 3.0, 10):
        for b in np.linspace(-5.0, 5.0, 10):
            z = complex(a, b)
            res = log_barnes_g(z + 1.0) - log_barnes_g(z) - log_gamma(z)
            residual = abs(res.real) + abs(math.remainder(res.imag, TWO_PI))
            assert residual < 1e-12, f"z = {z}"


def test_log_barnes_g_conjugate_symmetry():
    for z in (complex(1.0, 0.4), complex(2.5, -3.0), complex(0.8, 0.2)):
        got = log_barnes_g(z.conjugate())
        assert abs(got - log_barnes_g(z).conjugate()) < 1e-12


def test_log_barnes_g_rejects_zeros_and_nonfinite():
    for bad in (0.0, -1.0, -5.0):
        with pytest.raises(ValidationError):
            log_barnes_g(complex(bad))
    with pytest.raises(ValidationError):
        log_barnes_g(complex(math.nan))


# ---------------------------------------------------------------------------
# barnes_pair


def test_barnes_pair_frozen_value():
    assert abs(barnes_pair(-1.1) - BARNES_PAIR_M11) < 1e-13


def test_barnes_pair_zero_and_symmetry():
    assert barnes_pair(0.0) == 0.0
    rng = np.random.default_rng(11)
    for u in rng.uniform(-4.0, 4.0, 25):
        u = float(u)
        assert abs(barnes_pair(u) - barnes_pair(-u)) < 1e-14


def test_barnes_pair_against_derivative_quadrature():
    # pair(u) = 2 Re log G(1 + iy), y = u/(2 pi); integrate the derivative
    # d/dt log G(1+t) = (1/2) log 2pi - 1/2 - t + t psi(1+t) along [0, iy]
    # with scipy's digamma as the independent ingredient
    def oracle(u):
        y = u / TWO_PI

        def deriv(t):
            return 0.5 * math.log(TWO_PI) - 0.5 - t + t * scipy.special.digamma(1.0 + t)

        val = segment_integral(deriv, complex(0.0, y), order=80)
        return 2.0 * val.real

    for u in (-2.4, -1.1, -0.3, 0.8, 1.8, 3.5):
        assert abs(barnes_pair(u) - oracle(u)) < 1e-10


def test_barnes_pair_cache_keeps_the_checks_and_the_values():
    # the cache sits behind the argument check: with 1.0 cached, True
    # (which compares and hashes equal to 1.0) and "1" are still refused
    for u in (1.0, -1.1, 0.8, 0.0, 2.5):
        uncached = 0.0 if u == 0.0 else 2.0 * log_barnes_g(complex(1.0, u / TWO_PI)).real
        assert barnes_pair(u) == uncached
        assert barnes_pair(u) == uncached  # the cached value
        assert barnes_pair(np.float64(u)) == uncached
    for bad in (True, "1", 1 + 0j):
        with pytest.raises(ValidationError):
            barnes_pair(bad)


def test_barnes_pair_rejects_bad_input():
    with pytest.raises(ValidationError):
        barnes_pair(complex(0.1, 0.2))
    with pytest.raises(ValidationError):
        barnes_pair(math.inf)
