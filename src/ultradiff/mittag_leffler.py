"""Two-parameter Mittag-Leffler evaluation on the real axis.

E_{alpha,beta}(z) = sum_{n>=0} z^n / Gamma(n*alpha + beta), here for real z,
0 < alpha <= 1, beta > 0 — the arguments the log-clock diffusion propagators
produce; every argument the system forms is z <= 0.  `ml_on_negative_axis`
is the one branch router.  Its regimes:

* -1e-8 < z <= 0: the two-term Taylor polynomial.
* moderate negative z: a parabolic-contour inverse-Laplace quadrature --
  the series is numerically impossible here (peak terms reach 1e90 while the
  sum is ~1e-3), and the textbook asymptotic has not kicked in yet.
* z <= -50: the classical asymptotic expansion in 1/z, 10 terms summed in
  Horner form, its coefficients -1/Gamma(beta - n alpha) from `math.gamma`
  through `rgamma`, which puts zero at the poles.

The contour rule (N=32, h=3/N, mu=pi*N/12; Weideman & Trefethen, Math. Comp.
76 (2007) 1341) serves every order 0 < alpha <= 1 with no special case near
alpha = 1; only alpha = beta = 1 short-cuts to exp.  At real z each node's
term Re(P_k / (A_k - z)) is evaluated in real arithmetic, from four
constants per node cached per (alpha, beta), over the 26 nodes with
u <= 2.4 (the other 7 add less than half an ulp to every value); the
arguments run through two reused float buffers in blocks, so a table of any
size needs 128 KiB of working memory.  Against a high-precision series
oracle the rule's worst absolute error is 2.1e-12 over alpha in
[0.1, 0.995], z in [-65, -0.05], and 1.5e-12 over alpha in [0.985, 1], beta
in [0.3, 3.5], z in [-50, 0) (2.6e-13 for beta in {alpha, 1}), as measured
in complex arithmetic; the real form moves no value on those ranges by more
than 8.1e-13.  Against 750-digit series values at alpha in
{0.55, 0.7, 0.99}, beta in {alpha, 1} and 20 z in [-49.9, -0.05] its worst
error is 5.7e-13 (6.1e-13 in complex arithmetic).  The asymptotic branch
agrees with the contour to 1.7e-13 on [-80, -50].
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

_ASYMPTOTIC_CUT = -50.0
_ASYMPTOTIC_TERMS = 10
_TINY_Z = 1e-8
# the contour runs in blocks of this many arguments through two reused real
# buffers, so its working memory is 2 x 8192 floats (128 KiB) whatever the
# table size; each block pays 26 x 7 ufunc calls, so blocks are kept large
_CONTOUR_BLOCK = 8192


def rgamma(x: float) -> float:
    """1/Gamma(x): zero at the poles x = 0, -1, -2, ... and where Gamma(x)
    overflows (x > 171.6)."""
    if x <= 0.0 and x == math.floor(x):
        return 0.0
    try:
        return 1.0 / math.gamma(x)
    except OverflowError:
        return 0.0


def _check_orders(alpha: float, beta: float) -> None:
    """Validate the order pair (alpha, beta) of E_{alpha,beta}."""
    if not (0.0 < alpha <= 1.0):
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    if not (beta > 0.0 and math.isfinite(beta)):
        raise ValueError(f"beta must be positive, got {beta}")


# ---------------------------------------------------------------------------
# branch internals
# ---------------------------------------------------------------------------

@lru_cache(maxsize=16)
def _contour_terms(alpha: float, beta: float) -> tuple[tuple[np.ndarray, ...], ...]:
    """(a_r, a_i^2, p_r, p_i a_i) per node of the contour rule, last node
    first: A = zeta^alpha = a_r + i a_i, and P = p_r + i p_i is the node's
    prefactor with the rule's weight 2 mu h / pi (halved at u = 0) folded in.
    The node's term Re(P / (A - z)) at real z is then
    (p_r t + p_i a_i) / (t^2 + a_i^2) with t = a_r - z."""
    N = 32
    h = 3.0 / N
    mu = math.pi * N / 12.0
    u = np.arange(N + 1) * h
    # past u = 2.4 a node's weight exp(mu (1 - u^2)) is below 1e-17, and on
    # the (alpha, beta, z) ranges above its term adds < 6e-19 to any value
    u = u[np.exp(mu * (1.0 - u * u)) > 1e-17]
    zeta = mu * (1.0 + 1j * u) ** 2
    pref = np.exp(zeta) * zeta ** (alpha - beta) * (1.0 + 1j * u)
    pref[0] *= 0.5
    pref *= 2.0 * mu * h / math.pi
    a = zeta ** alpha
    nodes = np.stack([a.real, a.imag ** 2, pref.real, pref.imag * a.imag]).T
    # the terms shrink like exp(mu (1 - u^2)): add the small ones first.  A
    # ufunc takes a 0-d array operand faster than a Python float, and the
    # contour makes 7 calls per node and block
    return tuple(tuple(np.array(c) for c in node) for node in nodes[::-1])


def _contour(alpha: float, beta: float, z) -> np.ndarray:
    """Parabolic-contour quadrature, z a 1-D array of strictly negative reals.

    Real arithmetic only: each node's term is added over a block of
    arguments at a time, in one fixed order, so a value does not depend on
    its batch or its block."""
    terms = _contour_terms(alpha, beta)
    acc = np.zeros_like(z)
    t = np.empty(min(z.size, _CONTOUR_BLOCK))
    num = np.empty_like(t)
    for start in range(0, z.size, _CONTOUR_BLOCK):
        out = acc[start:start + _CONTOUR_BLOCK]
        zb, tb, nb = z[start:start + out.size], t[:out.size], num[:out.size]
        for a_r, a_i2, p_r, p_ia in terms:
            np.subtract(a_r, zb, tb)
            np.multiply(tb, p_r, nb)
            np.add(nb, p_ia, nb)
            np.multiply(tb, tb, tb)
            np.add(tb, a_i2, tb)
            np.divide(nb, tb, nb)
            np.add(out, nb, out)
    return acc


@lru_cache(maxsize=16)
def _asymptotic_terms(alpha: float, beta: float) -> tuple[np.ndarray, ...]:
    """-1/Gamma(beta - n alpha) for n = _ASYMPTOTIC_TERMS, ..., 1, as 0-d
    arrays; `rgamma` gives the Gamma poles (integer orders) zero terms."""
    return tuple(np.array(-rgamma(beta - n * alpha))
                 for n in range(_ASYMPTOTIC_TERMS, 0, -1))


def _asymptotic(alpha: float, beta: float, z) -> np.ndarray:
    """Large negative-z expansion -sum_n z^-n / Gamma(beta - n alpha), in
    Horner form in 1/z (one division per argument)."""
    w = 1.0 / np.asarray(z, dtype=float)
    first, *rest = _asymptotic_terms(alpha, beta)
    s = w * first
    for c in rest:
        s += c
        s *= w
    return s


# ---------------------------------------------------------------------------
# public evaluator
# ---------------------------------------------------------------------------

def ml_on_negative_axis(alpha: float, beta: float, z) -> np.ndarray:
    """Vectorized E_{alpha,beta} for arrays of arguments z <= 0.

    This is the hot path of every kernel quadrature and the only branch
    router on the negative axis.  A non-finite or positive argument raises
    ValueError before any branch runs.
    """
    _check_orders(alpha, beta)
    z = np.asarray(z, dtype=float)
    if z.ndim == 0:
        z = z[None]
    if not np.all(np.isfinite(z)):
        raise ValueError("ml_on_negative_axis requires finite z")
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
