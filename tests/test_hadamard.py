"""Log-time fractional operators: closed forms, reflection algebra, semigroup.

Closed forms used as oracles (classical identities of the log-time calculus,
checkable by hand with the substitution u = log s/a):

    I^a (log s/a)^p (t)   = Gamma(p+1)/Gamma(p+1+a) (log t/a)^(p+a)
    D_C^a (log s/a)^p (t) = Gamma(p+1)/Gamma(p+1-a) (log t/a)^(p-a),  p >= 1
    I^a_right (log b/s)^p (t) = Gamma(p+1)/Gamma(p+1+a) (log b/t)^(p+a)

The reflection (Qf)(t) = f(ab/t) exchanges left and right operators; the four
exchange identities are asserted pointwise.  Tolerances are set at measured
envelopes with at least one decade of headroom.
"""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from _reference import (hadamard_caputo_left, hadamard_derivative_left,
                        hadamard_derivative_right, hadamard_integral_left,
                        hadamard_integral_right, reflect_Q)
from ultradiff.logtime import LogTimeWindow
from ultradiff.mittag_leffler import ml_on_negative_axis

WINDOW = LogTimeWindow(0.7, 2.9)
ALPHAS = (0.3, 0.5, 0.7)


def interior_times(n, lo=0.08, hi=0.95):
    a, b = WINDOW.a, WINDOW.b
    return a * (b / a) ** np.linspace(lo, hi, n)


def log_power(p):
    # clip guards the deepest quadrature panels where s/a rounds to 1
    def f(s):
        u = np.clip(np.log(np.asarray(s, dtype=float) / WINDOW.a), 0.0, None)
        return u ** p
    return f


@pytest.mark.parametrize("alpha", ALPHAS)
@pytest.mark.parametrize("p", [0.6, 1.0, 1.7, 2.0, 3.0])
def test_left_integral_log_power_closed_form(alpha, p):
    for t in interior_times(7):
        got = hadamard_integral_left(log_power(p), alpha, WINDOW, t)
        exact = (math.gamma(p + 1.0) / math.gamma(p + 1.0 + alpha)
                 * math.log(t / WINDOW.a) ** (p + alpha))
        assert_allclose(got, exact, rtol=1e-11)


@pytest.mark.parametrize("alpha", ALPHAS)
@pytest.mark.parametrize("p", [0.8, 1.5, 2.0])
def test_right_integral_log_power_closed_form(alpha, p):
    b = WINDOW.b

    def f(s):
        u = np.clip(np.log(b / np.asarray(s, dtype=float)), 0.0, None)
        return u ** p

    for t in interior_times(7):
        got = hadamard_integral_right(f, alpha, WINDOW, t)
        exact = (math.gamma(p + 1.0) / math.gamma(p + 1.0 + alpha)
                 * math.log(b / t) ** (p + alpha))
        assert_allclose(got, exact, rtol=1e-11)


@pytest.mark.parametrize("alpha", ALPHAS)
@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
def test_caputo_log_power_closed_form(alpha, p):
    def fprime(s):
        s = np.asarray(s, dtype=float)
        u = np.clip(np.log(s / WINDOW.a), 0.0, None)
        return p * u ** (p - 1.0) / s

    for t in interior_times(7):
        got = hadamard_caputo_left(log_power(p), alpha, WINDOW, t, fprime=fprime)
        exact = (math.gamma(p + 1.0) / math.gamma(p + 1.0 - alpha)
                 * math.log(t / WINDOW.a) ** (p - alpha))
        assert_allclose(got, exact, rtol=1e-10)


def test_caputo_annihilates_constants():
    for alpha in ALPHAS:
        for t in interior_times(4):
            got = hadamard_caputo_left(lambda s: np.full(np.shape(s), 4.2),
                                       alpha, WINDOW, t)
            assert abs(got) <= 1e-12


def test_caputo_differencing_matches_supplied_derivative():
    # smooth signal: finite-difference scale derivative vs the analytic one
    f = lambda s: np.cos(2.0 * np.log(s))
    fp = lambda s: -2.0 * np.sin(2.0 * np.log(s)) / np.asarray(s, dtype=float)
    for alpha in (0.3, 0.7):
        for t in interior_times(5):
            fd = hadamard_caputo_left(f, alpha, WINDOW, t)
            an = hadamard_caputo_left(f, alpha, WINDOW, t, fprime=fp)
            assert_allclose(fd, an, rtol=0, atol=5e-9)


def test_caputo_equals_shifted_rl_derivative():
    # D_C^a f = D_RL^a (f - f(a)) for differentiable f
    f = lambda s: np.exp(0.6 * np.log(s)) + 0.3 * np.log(s) ** 2
    fa = float(f(WINDOW.a))
    for alpha in ALPHAS:
        for t in interior_times(5, lo=0.15):
            cap = hadamard_caputo_left(f, alpha, WINDOW, t)
            rl = hadamard_derivative_left(lambda s: f(s) - fa, alpha, WINDOW, t)
            assert_allclose(cap, rl, rtol=0, atol=2e-7)


# --- reflection algebra ----------------------------------------------------

SMOOTH_FNS = [
    lambda s: np.cos(2.0 * np.log(s)),
    lambda s: np.exp(0.7 * np.log(s)),
    lambda s: 1.0 / (1.0 + np.log(s) ** 2),
]


def test_reflection_is_an_involution():
    f = SMOOTH_FNS[0]
    qqf = reflect_Q(reflect_Q(f, WINDOW), WINDOW)
    t = interior_times(11)
    assert_allclose(qqf(t), f(t), rtol=1e-14)


def test_reflection_swaps_window_endpoints():
    q = reflect_Q(lambda s: np.asarray(s, dtype=float), WINDOW)
    assert_allclose(q(WINDOW.a), WINDOW.b, rtol=1e-14)
    assert_allclose(q(WINDOW.b), WINDOW.a, rtol=1e-14)


@pytest.mark.parametrize("alpha", ALPHAS)
def test_reflection_exchanges_integrals(alpha):
    # Q I_left = I_right Q  and  I_left Q = Q I_right, pointwise
    ab = WINDOW.a * WINDOW.b
    for f in SMOOTH_FNS:
        qf = reflect_Q(f, WINDOW)
        for t in interior_times(7, lo=0.1, hi=0.9):
            lhs = hadamard_integral_left(f, alpha, WINDOW, ab / t)
            rhs = hadamard_integral_right(qf, alpha, WINDOW, t)
            assert_allclose(lhs, rhs, rtol=0, atol=1e-12)
            lhs = hadamard_integral_left(qf, alpha, WINDOW, t)
            rhs = hadamard_integral_right(f, alpha, WINDOW, ab / t)
            assert_allclose(lhs, rhs, rtol=0, atol=1e-12)


@pytest.mark.parametrize("alpha", ALPHAS)
def test_reflection_exchanges_derivatives(alpha):
    # Q D_left = D_right Q  and  D_left Q = Q D_right, pointwise
    ab = WINDOW.a * WINDOW.b
    for f in SMOOTH_FNS:
        qf = reflect_Q(f, WINDOW)
        for t in interior_times(7, lo=0.1, hi=0.9):
            lhs = hadamard_derivative_left(f, alpha, WINDOW, ab / t)
            rhs = hadamard_derivative_right(qf, alpha, WINDOW, t)
            assert_allclose(lhs, rhs, rtol=0, atol=1e-6)
            lhs = hadamard_derivative_left(qf, alpha, WINDOW, t)
            rhs = hadamard_derivative_right(f, alpha, WINDOW, ab / t)
            assert_allclose(lhs, rhs, rtol=0, atol=1e-6)


# --- composition laws ------------------------------------------------------

@pytest.mark.parametrize("p1,p2", [(0.3, 0.4), (0.25, 0.5), (0.45, 0.45)])
def test_integral_semigroup(p1, p2):
    f = SMOOTH_FNS[0]
    a = WINDOW.a

    def inner(s):
        s = np.atleast_1d(np.asarray(s, dtype=float))
        out = np.zeros(s.shape)
        for i, x in enumerate(s):
            if x > a * (1.0 + 1e-13):  # I^p2 f vanishes at the window start
                out[i] = hadamard_integral_left(f, p2, WINDOW, float(x))
        return out

    for t in interior_times(5, lo=0.2):
        lhs = hadamard_integral_left(inner, p1, WINDOW, t)
        rhs = hadamard_integral_left(f, p1 + p2, WINDOW, t)
        assert_allclose(lhs, rhs, rtol=0, atol=1e-7)


def test_order_one_integral_is_plain_log_integral():
    # I^1 cos(2 log s) = [sin(2 log t) - sin(2 log a)] / 2
    f = SMOOTH_FNS[0]
    a = WINDOW.a
    for t in interior_times(6):
        got = hadamard_integral_left(f, 1.0, WINDOW, t)
        exact = 0.5 * (math.sin(2.0 * math.log(t)) - math.sin(2.0 * math.log(a)))
        assert_allclose(got, exact, rtol=0, atol=1e-13)


def test_derivative_inverts_integral():
    # D_RL^a I^a f = f for continuous f
    f = SMOOTH_FNS[2]
    a = WINDOW.a

    for alpha in ALPHAS:
        def integrated(s):
            s = np.atleast_1d(np.asarray(s, dtype=float))
            out = np.zeros(s.shape)
            for i, x in enumerate(s):
                if x > a * (1.0 + 1e-13):
                    out[i] = hadamard_integral_left(f, alpha, WINDOW, float(x))
            return out

        for t in interior_times(4, lo=0.25, hi=0.85):
            got = hadamard_derivative_left(integrated, alpha, WINDOW, t)
            assert_allclose(got, float(f(np.array([t]))[0]), rtol=0, atol=5e-7)


def test_caputo_eigenrelation_for_propagator_profile():
    # y(t) = E_a(-lam (log t/a)^a) solves D_C^a y = -lam y; checked through
    # the shifted Riemann-Liouville form, whose integrand stays bounded
    a = WINDOW.a
    for alpha in ALPHAS:
        for lam in (2.0, math.pi ** 2):
            def shifted(s):
                u = np.clip(np.log(np.asarray(s, dtype=float) / a), 0.0, None)
                return ml_on_negative_axis(alpha, 1.0, -lam * u ** alpha) - 1.0

            for t in interior_times(6, lo=0.15, hi=0.9):
                ta = math.log(t / a)
                y_t = float(ml_on_negative_axis(
                    alpha, 1.0, np.array([-lam * ta ** alpha]))[0])
                got = hadamard_derivative_left(shifted, alpha, WINDOW, t, nodes=96)
                assert abs(got + lam * y_t) <= 1e-6 * lam * abs(y_t)


# --- quadrature robustness -------------------------------------------------

def test_node_count_stability():
    f = SMOOTH_FNS[1]
    for alpha in (0.3, 0.7):
        for t in interior_times(3, lo=0.3, hi=0.8):
            coarse = hadamard_integral_left(f, alpha, WINDOW, t, nodes=48)
            fine = hadamard_integral_left(f, alpha, WINDOW, t, nodes=96)
            assert_allclose(coarse, fine, rtol=1e-12)


def test_order_and_window_validation():
    f = SMOOTH_FNS[0]
    t = interior_times(1, lo=0.5, hi=0.5)[0]
    for bad in (0.0, -0.3, 1.2):
        with pytest.raises(ValueError, match="order"):
            hadamard_integral_left(f, bad, WINDOW, t)
    # derivatives require order strictly below one
    with pytest.raises(ValueError, match="order"):
        hadamard_derivative_left(f, 1.0, WINDOW, t)
    with pytest.raises(ValueError, match="order"):
        hadamard_caputo_left(f, 1.0, WINDOW, t)
    # ...but integrals accept order exactly one
    hadamard_integral_left(f, 1.0, WINDOW, t)
    with pytest.raises(ValueError, match="window"):
        hadamard_integral_left(f, 0.5, WINDOW, WINDOW.a)  # open start
    with pytest.raises(ValueError, match="window"):
        hadamard_integral_right(f, 0.5, WINDOW, WINDOW.b)  # open end
    with pytest.raises(ValueError, match="window"):
        hadamard_integral_left(f, 0.5, WINDOW, WINDOW.b * 1.5)
