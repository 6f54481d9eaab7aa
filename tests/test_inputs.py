"""Scalar inputs: one check per kind, the same at every public entry point.

Real numbers may be Python or numpy reals and integers Python or numpy
integers; strings, bools, complex values and None are refused with
ValidationError, as is a float where an integer is due.

The entry points reach users as the package's names: the `__all__` of
each public module, re-exported once.
"""

import numpy as np
import pytest

import sinegap
from sinegap import (
    Discretization,
    IntervalPartition,
    ValidationError,
    WeightConfiguration,
    barnes_pair,
    conditional_stats,
    fredholm_det,
    gauss_legendre,
    joint_pmf,
    numerical_cumulants,
    positive_weights_expansion,
    reduced_indices,
    thinned_gap_probability,
    zero_weight_expansion,
    zeta_int,
)


def test_every_scalar_input_is_checked_by_kind():
    pmf = joint_pmf((0.0, 0.5), 1.0, 2)
    refused = [
        # endpoints and r: complex, None and strings
        lambda: fredholm_det((0.0, 1j), (0.5,), 2.0),
        lambda: fredholm_det((0.0, None), (0.5,), 2.0),
        lambda: fredholm_det(("0", "1"), (0.5,), 2.0),
        lambda: fredholm_det((0.0, 1.0), (0.5,), 2.0 + 0j),
        lambda: fredholm_det((0.0, 1.0), (0.5,), None),
        lambda: fredholm_det((0.0, 1.0), (0.5,), "2"),
        lambda: Discretization((0.0, 1.0), "2", 16),
        # weights and log-ratios: strings and bools
        lambda: fredholm_det((0.0, 1.0), ("0.5",), 2.0),
        lambda: fredholm_det((0.0, 1.0), (True,), 2.0),
        lambda: positive_weights_expansion((0.0, 1.0), ("1",), 2.0),
        lambda: positive_weights_expansion((0.0, 1.0), "1", 2.0),
        lambda: WeightConfiguration.from_zero_u(("0.3",), 1, 2),
        # orders, gap indices and bounds: floats, bools and strings
        lambda: fredholm_det((0.0, 1.0), (0.5,), 2.0, 64.0),
        lambda: fredholm_det((0.0, 1.0), (0.5,), 2.0, True),
        lambda: gauss_legendre("8"),
        lambda: reduced_indices(2, 1.0),
        lambda: reduced_indices(2.5, 1),
        lambda: reduced_indices("3", 1),
        lambda: reduced_indices(True, 1),
        lambda: WeightConfiguration.from_zero_u((0.3,), 1, 2.0),
        lambda: WeightConfiguration.from_zero_u((), 1, True),
        lambda: zero_weight_expansion((0.0, 0.5, 1.0), True, (0.3,), 5.0),
        lambda: joint_pmf((0.0, 1.0), 1.0, 2.5),
        lambda: joint_pmf((0.0, 1.0), 1.0, (2.5,)),
        lambda: joint_pmf((0.0, 1.0, 2.0), 1.0, "12"),
        lambda: joint_pmf((0.0, 1.0), 1.0, (True,)),
        lambda: joint_pmf((0.0, 1.0), 1.0, None),
        lambda: numerical_cumulants((0.0, 1.0), 1.0, order=True),
        lambda: numerical_cumulants((0.0, 1.0), 1.0, order=2.0),
        lambda: zeta_int(np.float64(2.0)),
        lambda: barnes_pair(1 + 0j),
        lambda: barnes_pair("1"),
        # sequences that are not iterable, and integers beyond float range
        lambda: fredholm_det((0.0, 1.0), 0.5, 2.0),
        lambda: IntervalPartition(1.0),
        lambda: WeightConfiguration(0.5),
        lambda: thinned_gap_probability((0.0, 1.0), 0.5, 2.0),
        lambda: pmf.probability(1),
        lambda: fredholm_det((0.0, 10**400), (0.5,), 2.0),
        lambda: fredholm_det((0.0, 1.0), (0.5,), 10**400),
        # counts outside the table
        lambda: pmf.probability((-1,)),
        lambda: pmf.probability((3,)),
        lambda: pmf.probability((1.0,)),
        lambda: pmf.probability((1, 1)),
    ]
    for i, call in enumerate(refused):
        with pytest.raises(ValidationError):
            call()
            pytest.fail(f"case {i} was accepted")

    # numpy integers are integers: the same results as plain ints
    part, s = (0.0, 0.5, 1.2), (0.3, 0.6)
    assert fredholm_det(part, s, 5.0, np.int64(32)) == fredholm_det(part, s, 5.0, 32)
    assert Discretization(part, 5.0, np.int32(32)).log_det(s) == Discretization(part, 5.0, 32).log_det(s)
    assert reduced_indices(np.int64(2), np.int64(1)) == reduced_indices(2, 1)
    assert zero_weight_expansion(part, np.int64(2), (0.4,), 5.0) == zero_weight_expansion(part, 2, (0.4,), 5.0)
    for got, want in (
        (conditional_stats(part, np.int64(1), 5.0), conditional_stats(part, 1, 5.0)),
        (numerical_cumulants(part, 5.0, np.int64(2), np.int64(32)), numerical_cumulants(part, 5.0, 2, 32)),
    ):
        assert np.array_equal(got.mu, want.mu) and np.array_equal(got.cross, want.cross)
    for bound, plain in ((np.int64(2), 2), ((np.int64(2), np.int16(1)), (2, 1))):
        got, want = joint_pmf(part, 1.0, bound), joint_pmf(part, 1.0, plain)
        assert np.array_equal(got.table, want.table) and got.max_counts == want.max_counts
        assert got.probability((np.int64(1), 1)) == want.probability((1, 1))
    assert zeta_int(np.int64(3)) == zeta_int(3)


def test_the_package_exports_each_module_all_once():
    modules = [sinegap.asymptotics, sinegap.counting, sinegap.errors,
               sinegap.fredholm, sinegap.quadrature, sinegap.specfun]
    names = [name for module in modules for name in module.__all__]
    assert len(set(names)) == len(names)  # no name in two modules
    assert sinegap.__all__ == names
    for module in modules:
        for name in module.__all__:
            assert getattr(sinegap, name) is getattr(module, name), name
    bound = {}
    exec("from sinegap import *", bound)
    assert sorted(set(bound) - {"__builtins__"}) == sorted(names)
