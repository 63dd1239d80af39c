"""Propagator special-function tests.

The reference table below was produced by an independent 50-digit mpmath
power-series/asymptotic evaluator (not the shipped code path) and frozen at
25 significant digits; cross-checks between the independent branches agreed
to better than 1e-25 relative.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from ultradiff.mittag_leffler import (MLConvergenceError, _series_f64,
                                      _series_is_cheap, mittag_leffler,
                                      ml_on_negative_axis)

# (alpha, beta, z, E_{alpha,beta}(z)) — frozen 25-digit reference values
ORACLE = [
    (0.5, 0.5, -1.0, 0.1366060073919492825373291),
    (0.5, 0.5, -9.869604401089358, 0.002852490212493745817977820),
    (0.3, 1.0, -0.5, 0.6326490059435990224625516),
    (0.3, 0.3, -7.5, 0.003503992974599747961463429),
    (0.5, 1.0, -2.0, 0.2553956763105057438650886),
    (0.5, 0.5, -20.0, 0.0007026087267299005750963609),
    (0.7, 1.0, -44.0, 0.007736966807580387728357861),
    (0.7, 0.7, -45.0, 0.0001197252388580868582368205),
    (0.9, 1.3, -30.0, 0.01535575595959288204810578),
    (0.985, 1.0, -12.0, 0.001549584274593598224163000),
    (0.99, 1.0, -30.0, 0.0003597560516821723975365726),
    (0.3, 1.0, -60.0, 0.01271499032058584955683839),
    (0.7, 1.0, -60.0, 0.005646275166880421435508801),
    (0.5, 0.5, -80.0, 0.00004406698462804557948232007),
    (0.3, 0.3, 5.0, 9.614982187699845849874691e+94),
    (0.7, 1.0, 12.0, 1871188388856723.572886177),
    (0.5, 2.0, 3.0, 1800.178190722033343083098),
    (1.0, 1.0, -3.0, 0.04978706836786394297934242),
    (0.6, 1.0, -1e-09, 0.9999999988808250468374813),
    (0.7, 0.7, -8.497958763877723, 0.003863772635419590745981245),
    (0.5, 1.0, -8.216984654429252, 0.06816382654012102171132719),
]


@pytest.mark.parametrize("alpha,beta,z,expected", ORACLE)
def test_against_frozen_reference(alpha, beta, z, expected):
    assert_allclose(mittag_leffler(alpha, beta, z), expected, rtol=1e-9)


def test_value_at_zero_is_reciprocal_gamma():
    for beta in (0.5, 0.7, 1.0, 1.3, 2.0):
        assert_allclose(mittag_leffler(0.6, beta, 0.0),
                        1.0 / math.gamma(beta), rtol=1e-14)


def test_classical_limit_is_exponential():
    z = np.linspace(-30.0, 0.0, 61)
    vals = ml_on_negative_axis(1.0, 1.0, z)
    assert_allclose(vals, np.exp(z), rtol=1e-12)
    # scalar entry point has no sign restriction
    for zz in (0.5, 1.0, 3.0):
        assert_allclose(mittag_leffler(1.0, 1.0, zz), math.exp(zz), rtol=1e-12)


def test_vectorized_matches_scalar():
    # the router (tiny-z and contour branches) against the independent
    # compensated float64 series, wherever that series is cheap and safe
    for alpha, beta in ((0.7, 0.7), (0.3, 1.0), (0.5, 0.5), (0.9, 1.3)):
        z = np.array([zz for zz in -np.geomspace(1e-10, 55.0, 400)
                      if _series_is_cheap(alpha, beta, -zz)])
        assert z.size >= 100
        vec = ml_on_negative_axis(alpha, beta, z)
        series = np.array([_series_f64(alpha, beta, zz) for zz in z])
        assert_allclose(vec, series, rtol=5e-10)


@pytest.mark.parametrize("alpha,beta,zs", [
    (0.6, 1.0, (0.0, -0.0, -1e-9, -5e-9)),          # tiny-z Taylor
    (0.3, 1.0, (-0.5, -7.5, -30.0)),                # contour
    (0.7, 0.7, (-2.0, -8.5, -45.0)),                # contour
    (0.5, 0.5, (-50.0, -80.0, -400.0)),             # asymptotic
    (0.99, 1.0, (-0.5, -2.0, -30.0)),               # alpha > 0.985 fallback
    (0.9999, 0.9999, (-1e-9, -3.0, -60.0)),
    (1.0, 1.0, (0.0, -3.0, -70.0)),                 # classical exp
])
def test_scalar_is_the_routers_one_element_case(alpha, beta, zs):
    # one branch table: on z <= 0 the scalar is the router's own value, to
    # the bit (per element: a batched contour sum may reorder its additions)
    for z in zs:
        assert mittag_leffler(alpha, beta, z) == \
            ml_on_negative_axis(alpha, beta, np.array([z]))[0]


@pytest.mark.parametrize("alpha,beta", [(0.3, 1.0), (0.5, 0.5), (0.7, 0.7),
                                        (0.9, 1.3)])
def test_recurrence_shifts_beta(alpha, beta):
    # E_{a,b}(z) = 1/Gamma(b) + z E_{a,b+a}(z), everywhere
    z = np.linspace(-20.0, 0.0, 81)
    lhs = ml_on_negative_axis(alpha, beta, z)
    rhs = 1.0 / math.gamma(beta) + z * ml_on_negative_axis(alpha, beta + alpha, z)
    assert_allclose(lhs, rhs, rtol=1e-9, atol=1e-15)


def test_branch_consistency_deep_negative():
    # the far-negative evaluation branch has to join the mid-range branch:
    # the recurrence ties values across the switchover region [-60, -40]
    for alpha, beta in ((0.4, 1.0), (0.7, 0.7), (0.85, 1.2)):
        z = np.linspace(-60.0, -40.0, 41)
        lhs = ml_on_negative_axis(alpha, beta, z)
        rhs = 1.0 / math.gamma(beta) + z * ml_on_negative_axis(alpha, beta + alpha, z)
        assert_allclose(lhs, rhs, rtol=1e-8)
    # seam continuity: values a hair on either side of the cut agree.  The
    # gap must be small enough that the function's own variation over it
    # (|dE/dz| ~ |E/z| here) stays far below the branch-agreement budget.
    for alpha in (0.3, 0.6, 0.9):
        lo = mittag_leffler(alpha, 1.0, -50.0 - 1e-9)
        hi = mittag_leffler(alpha, 1.0, -50.0 + 1e-9)
        assert abs(lo - hi) <= 1e-8 * abs(hi)


def test_positive_and_decaying_on_negative_axis():
    x = np.linspace(0.0, 100.0, 401)
    for alpha in (0.3, 0.5, 0.7, 0.9):
        vals = ml_on_negative_axis(alpha, 1.0, -x)
        assert np.all(vals > 0.0)
        assert np.all(np.diff(vals) < 0.0)
        assert vals[0] == 1.0


def test_convergence_error_carries_parameters():
    with pytest.raises(MLConvergenceError) as err:
        mittag_leffler(0.25, 1.0, 400.0)
    assert err.value.alpha == 0.25
    assert err.value.beta == 1.0
    assert err.value.z == 400.0
    assert "alpha=0.25" in str(err.value)


def test_params_validation():
    for alpha, beta in ((0.0, 1.0), (1.2, 1.0), (0.5, -1.0)):
        with pytest.raises(ValueError):
            mittag_leffler(alpha, beta, -1.0)
        with pytest.raises(ValueError):
            mittag_leffler(alpha, beta, 1.0)
        with pytest.raises(ValueError):
            ml_on_negative_axis(alpha, beta, np.array([-1.0]))


@settings(max_examples=60, deadline=None)
@given(alpha=st.floats(0.25, 1.0), beta=st.floats(0.3, 2.5),
       z=st.floats(-40.0, 2.0))
def test_recurrence_property(alpha, beta, z):
    lhs = mittag_leffler(alpha, beta, z)
    rhs = 1.0 / math.gamma(beta) + z * mittag_leffler(alpha, beta + alpha, z)
    assert abs(lhs - rhs) <= 1e-8 * max(1.0, abs(lhs), abs(rhs))
