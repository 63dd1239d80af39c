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

The contour rule (N=32, h=3/N, mu=pi*N/12; Weideman & Trefethen, Math. Comp.
76 (2007) 1341) serves every order 0 < alpha <= 1 with no special case near
alpha = 1; only alpha = beta = 1 short-cuts to exp.  Against a high-precision
series oracle its worst absolute error is 2.1e-12 over alpha in [0.1, 0.995],
z in [-65, -0.05], and 1.5e-12 over alpha in [0.985, 1], beta in
[0.3, 3.5], z in [-50, 0) (2.6e-13 for beta in {alpha, 1}).  The asymptotic
branch agrees with it to 1.7e-13 on [-80, -50].
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import gammaln, rgamma

_MAX_TERMS = 10_000
_ASYMPTOTIC_CUT = -50.0
_ASYMPTOTIC_TERMS = 10
_TINY_Z = 1e-8
# the contour runs in blocks of this many columns through one reused buffer,
# so its working memory is 33 x 2048 complex (~1 MiB) whatever the table size
_CONTOUR_BLOCK = 2048


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
    pref = (np.exp(zeta) * zeta ** (alpha - beta) * (1.0 + 1j * u))[:, None]
    zeta_alpha = (zeta ** alpha)[:, None]
    acc = np.empty_like(z)
    buf = np.empty((N + 1, min(z.size, _CONTOUR_BLOCK)), dtype=complex)
    for start in range(0, z.size, _CONTOUR_BLOCK):
        out = acc[start:start + _CONTOUR_BLOCK]
        g = buf[:, :out.size]
        np.subtract(zeta_alpha, z[start:start + out.size], out=g)
        np.divide(pref, g, out=g)
        g[0] *= 0.5
        # one fixed order of additions, so a value does not depend on its batch
        # (numpy's axis-0 sum is pairwise for one column, row by row for several)
        out[:] = g.real[0]
        for row in g.real[1:]:
            out += row
    return (2.0 * mu * h / math.pi) * acc


def _asymptotic(alpha: float, beta: float, z) -> np.ndarray:
    """Large negative-z expansion; Gamma poles contribute zero via rgamma."""
    z = np.asarray(z, dtype=float)
    s = np.zeros_like(z)
    zn = np.ones_like(z)
    for n in range(1, _ASYMPTOTIC_TERMS + 1):
        zn = zn / z
        s -= zn * rgamma(beta - n * alpha)
    return s


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
        out[mid] = _contour(alpha, beta, z[mid])
    return out
