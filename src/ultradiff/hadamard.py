"""Fractional integral and derivative operators on the logarithmic clock.

All operators reduce, after the substitution tau = log(t/s), to weighted
power-kernel integrals handled by the shared split quadrature rule:

* left integral of order alpha:
    (1/Gamma(alpha)) int_0^{log(t/a)} tau^(alpha-1) f(t e^-tau) dtau
* Caputo-type derivative of order alpha in (0, 1):
    (1/Gamma(1-alpha)) int_0^{log(t/a)} tau^(-alpha) (df)(t e^-tau) dtau,
  where (df)(s) = s f'(s) is the scale derivative;
* Riemann-Liouville-type derivative: scale derivative of the order-(1-alpha)
  integral, by central differencing in log time.

Right-sided operators come from the time reflection Q f(t) = f(ab/t), which
swaps the window endpoints; the right integral is defined *as* the reflected
left integral, so the reflection identities for integrals hold by
construction and the derivative identities remain independent checks.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import gamma as _gamma

from ._quadrature import power_weighted_rule
from .logtime import LogTimeWindow


def _as_evaluator(f):
    """Wrap a (preferably vectorized) callable to return arrays shaped like t."""
    def evaluate(t):
        t = np.asarray(t, dtype=float)
        out = f(t)
        out = np.asarray(out, dtype=float)
        if out.shape != t.shape:  # non-vectorized callable
            out = np.array([f(float(ti)) for ti in np.atleast_1d(t)], dtype=float)
            out = out.reshape(t.shape)
        return out

    return evaluate


def reflect_Q(f, window: LogTimeWindow):
    """Time reversal (Qf)(t) = f(ab/t); an involution mapping [a,b] onto itself."""
    fe = _as_evaluator(f)
    ab = window.a * window.b
    return lambda t: fe(ab / np.asarray(t, dtype=float))


def _check_order(alpha: float, *, strict_upper: bool) -> None:
    hi_ok = alpha < 1.0 if strict_upper else alpha <= 1.0
    if not (0.0 < alpha and hi_ok):
        upper = "1)" if strict_upper else "1]"
        raise ValueError(f"order must lie in (0, {upper}, got alpha={alpha}")


def _left_integral_raw(fe, alpha: float, a: float, t: float, nodes: int) -> float:
    """Order-alpha left integral at time t > a; no upper-window check."""
    T = math.log(t / a)
    xi, wbar = power_weighted_rule(alpha - 1.0, nodes)
    vals = fe(t * np.exp(-T * xi))
    return T ** alpha * float(wbar @ vals) / _gamma(alpha)


def hadamard_integral_left(f, alpha: float, window: LogTimeWindow, t: float,
                           *, nodes: int = 64) -> float:
    """(1/Gamma(a)) int_a^t (log t/s)^(alpha-1) f(s) ds/s."""
    _check_order(alpha, strict_upper=False)
    window.require_inside(t, open_start=True)
    return _left_integral_raw(_as_evaluator(f), alpha, window.a, float(t), nodes)


def hadamard_integral_right(f, alpha: float, window: LogTimeWindow, t: float,
                            *, nodes: int = 64) -> float:
    """(1/Gamma(a)) int_t^b (log s/t)^(alpha-1) f(s) ds/s.

    Defined through the reflection: right(f)(t) = left(Qf)(ab/t).
    """
    _check_order(alpha, strict_upper=False)
    window.require_inside(t, open_end=True)
    qf = reflect_Q(f, window)
    return _left_integral_raw(_as_evaluator(qf), alpha, window.a,
                              window.a * window.b / float(t), nodes)


def hadamard_caputo_left(f, alpha: float, window: LogTimeWindow, t: float,
                         *, fprime=None, nodes: int = 64, h: float = 1e-5) -> float:
    """Caputo-type derivative: (1/Gamma(1-a)) int_a^t (log t/s)^(-alpha) f'(s) ds.

    `fprime`, when given, is df/ds; otherwise the scale derivative s f'(s)
    is formed by central differencing in log time (step h), which requires f
    to be evaluable slightly outside the window near s = a.
    """
    _check_order(alpha, strict_upper=True)
    window.require_inside(t, open_start=True)
    fe = _as_evaluator(f)
    if fprime is None:
        def scale_derivative(s):
            return (fe(s * math.exp(h)) - fe(s * math.exp(-h))) / (2.0 * h)
    else:
        def scale_derivative(s):
            return s * np.asarray(fprime(s), dtype=float)

    T = math.log(t / window.a)
    xi, wbar = power_weighted_rule(-alpha, nodes)
    vals = scale_derivative(float(t) * np.exp(-T * xi))
    return T ** (1.0 - alpha) * float(wbar @ vals) / _gamma(1.0 - alpha)


def hadamard_derivative_left(f, alpha: float, window: LogTimeWindow, t: float,
                             *, nodes: int = 64, h: float = 1e-4) -> float:
    """Riemann-Liouville-type left derivative: scale derivative of I^(1-alpha)."""
    _check_order(alpha, strict_upper=True)
    window.require_inside(t, open_start=True)
    fe = _as_evaluator(f)
    a = window.a
    g_plus = _left_integral_raw(fe, 1.0 - alpha, a, float(t) * math.exp(h), nodes)
    g_minus = _left_integral_raw(fe, 1.0 - alpha, a, float(t) * math.exp(-h), nodes)
    return (g_plus - g_minus) / (2.0 * h)


def hadamard_derivative_right(f, alpha: float, window: LogTimeWindow, t: float,
                              *, nodes: int = 64, h: float = 1e-4) -> float:
    """Riemann-Liouville-type right derivative: -(scale derivative) of the
    right integral of order 1-alpha."""
    _check_order(alpha, strict_upper=True)
    window.require_inside(t, open_end=True)
    qf = _as_evaluator(reflect_Q(f, window))
    a, b = window.a, window.b

    def g(tt: float) -> float:
        return _left_integral_raw(qf, 1.0 - alpha, a, a * b / tt, nodes)

    return -(g(float(t) * math.exp(h)) - g(float(t) * math.exp(-h))) / (2.0 * h)
