"""Two-parameter Mittag-Leffler evaluation on the real axis.

E_{alpha,beta}(z) = sum_{n>=0} z^n / Gamma(n*alpha + beta), here for real z,
0 < alpha <= 1, beta > 0 — the arguments the log-clock diffusion propagators
produce.  `ml_on_negative_axis` is the one branch router for z <= 0, and the
scalar `mittag_leffler` is its one-element case there.  The regimes:

* z > 0 (scalar only): the defining series, terms by a log-space recurrence
  (never forms z^n, so only a genuinely infinite value overflows).
* -1e-8 < z <= 0: the two-term Taylor polynomial.
* moderate negative z: a parabolic-contour inverse-Laplace quadrature --
  the series is numerically impossible here (peak terms reach 1e90 while the
  sum is ~1e-3), and the textbook asymptotic has not kicked in yet.
* z <= -50: the classical asymptotic expansion in 1/z.

The contour rule (N=32, h=3/N, mu=pi*N/12) was tuned against a
high-precision series oracle: worst absolute error 2.1e-12 over
alpha in [0.1, 0.995], z in [-65, -0.05]; the asymptotic branch agrees with
it to 1.7e-13 on [-80, -50].  For alpha > 0.985 the contour degrades, and the
moderate range falls back per element to the compensated float64 series where
that is cheap and cancellation-safe, and to an mpmath series otherwise (slow,
but that corner is rare).
"""

from __future__ import annotations

import logging
import math

import numpy as np
from scipy.special import gammaln, rgamma

logger = logging.getLogger(__name__)

_MAX_TERMS = 10_000
_ASYMPTOTIC_CUT = -50.0
_ASYMPTOTIC_TERMS = 10
_SERIES_TERM_BUDGET = 220        # float64 series allowed up to this length
_SERIES_PEAK_DIGITS = 3.0        # ... and up to ~1e3 peak-term magnitude
_CONTOUR_ALPHA_MAX = 0.985
_TINY_Z = 1e-8


class MLConvergenceError(ArithmeticError):
    """Series evaluation did not converge (or overflowed) at (alpha, beta, z)."""

    def __init__(self, alpha: float, beta: float, z: float, reason: str):
        self.alpha = alpha
        self.beta = beta
        self.z = z
        super().__init__(
            f"Mittag-Leffler evaluation failed at alpha={alpha}, beta={beta}, "
            f"z={z}: {reason}")


def _check_orders(alpha: float, beta: float) -> None:
    """Validate the order pair (alpha, beta) of E_{alpha,beta}."""
    if not (0.0 < alpha <= 1.0):
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    if not (beta > 0.0 and math.isfinite(beta)):
        raise ValueError(f"beta must be positive, got {beta}")


# ---------------------------------------------------------------------------
# branch internals
# ---------------------------------------------------------------------------

def _series_peak_log10(alpha: float, beta: float, x: float) -> float:
    """log10 of the largest series term at argument magnitude x."""
    if x <= 1.0:
        return 0.0
    n_pk = max(0.0, (x ** (1.0 / alpha) - beta) / alpha)
    if n_pk <= 0.0:
        return 0.0
    return (n_pk * math.log(x) - gammaln(n_pk * alpha + beta)) / math.log(10.0)


def _series_term_estimate(alpha: float, beta: float, x: float) -> float:
    return 2.5 * max(0.0, (x ** (1.0 / alpha) - beta) / alpha) + 40.0


def _series_f64(alpha: float, beta: float, z: float) -> float:
    """Compensated direct series; caller guarantees it is float64-safe."""
    logax = math.log(abs(z)) if z != 0.0 else -math.inf
    s = 0.0
    comp = 0.0
    peak = 0.0
    for n in range(_MAX_TERMS):
        mag = n * logax - gammaln(n * alpha + beta)
        if mag > 709.0:  # exp overflow: the sum itself is leaving float64
            raise MLConvergenceError(alpha, beta, z, "series terms overflow float64")
        term = math.exp(mag)
        if z < 0.0 and (n & 1):
            term = -term
        peak = max(peak, abs(term))
        y = term - comp
        t = s + y
        comp = (t - s) - y
        s = t
        if n > 4 and abs(term) <= 1e-18 * max(abs(s), 1e-300) and abs(term) <= 1e-18 * peak:
            return s
    raise MLConvergenceError(alpha, beta, z, f"no convergence in {_MAX_TERMS} terms")


def _contour(alpha: float, beta: float, z) -> np.ndarray:
    """Parabolic-contour quadrature, z a 1-D array of strictly negative reals."""
    N = 32
    h = 3.0 / N
    mu = math.pi * N / 12.0
    u = np.arange(N + 1) * h
    zeta = mu * (1.0 + 1j * u) ** 2
    pref = np.exp(zeta) * zeta ** (alpha - beta) * (1.0 + 1j * u)
    g = pref[:, None] / (zeta[:, None] ** alpha - np.asarray(z, dtype=float)[None, :])
    g[0] *= 0.5
    return (2.0 * mu * h / math.pi) * g.real.sum(axis=0)


def _asymptotic(alpha: float, beta: float, z) -> np.ndarray:
    """Large negative-z expansion; Gamma poles contribute zero via rgamma."""
    z = np.asarray(z, dtype=float)
    s = np.zeros_like(z)
    zn = np.ones_like(z)
    for n in range(1, _ASYMPTOTIC_TERMS + 1):
        zn = zn / z
        s -= zn * rgamma(beta - n * alpha)
    return s


def _series_mp(alpha: float, beta: float, z: float) -> float:
    """High-precision series for the rare corner the contour cannot serve."""
    import mpmath as mp

    peak = _series_peak_log10(alpha, beta, abs(z))
    dps = int(peak) + 60
    if dps > 3000:
        raise MLConvergenceError(alpha, beta, z, "required precision exceeds 3000 digits")
    with mp.workdps(dps):
        a, b, zz = mp.mpf(alpha), mp.mpf(beta), mp.mpf(z)
        total = mp.mpf(0)
        for n in range(_MAX_TERMS):
            term = zz ** n / mp.gamma(a * n + b)
            total += term
            if n > 4 and abs(term) < mp.mpf(10) ** (-(dps - 5)) * max(abs(total), mp.mpf(1)):
                return float(total)
    raise MLConvergenceError(alpha, beta, z, f"no convergence in {_MAX_TERMS} terms")


def _series_is_cheap(alpha: float, beta: float, x: float) -> bool:
    """True when the float64 series at -x is short and cancellation-safe."""
    return (_series_term_estimate(alpha, beta, x) <= _SERIES_TERM_BUDGET
            and _series_peak_log10(alpha, beta, x) <= _SERIES_PEAK_DIGITS)


def _series_or_mp(alpha: float, beta: float, z: float) -> float:
    """Mid-range value for alpha above the contour's range: the float64 series
    where it is cheap, the high-precision series otherwise."""
    if _series_is_cheap(alpha, beta, -z):
        return _series_f64(alpha, beta, z)
    logger.debug("ml: high-precision fallback at alpha=%s beta=%s z=%s", alpha, beta, z)
    return _series_mp(alpha, beta, z)


# ---------------------------------------------------------------------------
# public evaluators
# ---------------------------------------------------------------------------

def mittag_leffler(alpha: float, beta: float, z: float) -> float:
    """E_{alpha,beta}(z) for real z, absolute accuracy ~1e-11 on |z| <= 50.

    For z <= 0 this is the one-element case of `ml_on_negative_axis`.
    """
    z = float(z)
    if not math.isfinite(z):
        raise ValueError(f"argument must be finite, got z={z}")
    if z <= 0.0:
        return float(ml_on_negative_axis(alpha, beta, z)[0])
    _check_orders(alpha, beta)
    if alpha == 1.0 and beta == 1.0:
        return math.exp(z)
    return _series_f64(alpha, beta, z)


def ml_on_negative_axis(alpha: float, beta: float, z) -> np.ndarray:
    """Vectorized E_{alpha,beta} for arrays of arguments z <= 0.

    This is the hot path of every kernel quadrature and the only branch
    router on the negative axis.
    """
    _check_orders(alpha, beta)
    z = np.asarray(z, dtype=float)
    if z.ndim == 0:
        z = z[None]
    if np.any(z > 0.0):
        raise ValueError("ml_on_negative_axis requires z <= 0")
    if alpha == 1.0 and beta == 1.0:
        # classical limit everywhere: the deep-negative asymptotic branch has
        # no algebraic terms at integer orders and would return 0 instead
        return np.exp(z)
    out = np.empty_like(z)
    tiny = z > -_TINY_Z
    big = z <= _ASYMPTOTIC_CUT
    mid = ~tiny & ~big
    if tiny.any():
        out[tiny] = rgamma(beta) + z[tiny] * rgamma(alpha + beta)
    if big.any():
        out[big] = _asymptotic(alpha, beta, z[big])
    if mid.any():
        if alpha <= _CONTOUR_ALPHA_MAX:
            out[mid] = _contour(alpha, beta, z[mid])
        else:
            out[mid] = [_series_or_mp(alpha, beta, zi) for zi in z[mid]]
    return out
