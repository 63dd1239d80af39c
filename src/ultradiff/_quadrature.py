"""Shared quadrature rules.

Two families cover everything in the package:

* ``kernel_rule`` — the propagator kernels' time rule in ``y = tau^alpha``:
  a head of width ``1/lam_max``, then Gauss-Legendre panels doubling in width.

* plain Gauss rules on [0, 1], cached: Gauss-Jacobi for the weight x^p, whose
  p = 0 case is every Gauss-Legendre rule of the package (the kernel rule's
  panels, the spatial box rules).  Golub & Welsch (Math. Comp. 23 (1969) 221)
  give the nodes as eigenvalues of the Jacobi matrix; one Newton step
  on the three-term recurrence polishes them, and the weights come from the
  derivative there (Hale & Townsend, SIAM J. Sci. Comput. 35 (2013) A652).
  Against 50-digit values at n <= 192 and p in {-0.99, -0.57, 0, 0.5} the
  nodes are within 1.2e-16 and the weights within 2e-12 relative (1.3e-10
  at p = -0.99, where the first node's weight is 99% of the total).

Both memos hold at most a constant number of rules (16 kernel rules, 32
Gauss rules): their keys carry floats (window lengths, decay rates, Jacobi
exponents), so a long-lived process that meets ever new ones would otherwise
keep every rule it has built.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np


def _jacobi_derivative(n: int, p: float, x: np.ndarray):
    """P_n and P_n' of the Jacobi polynomial P_n^(0, p) at x in (-1, 1)."""
    prev, cur = np.ones_like(x), ((p + 2.0) * x - p) / 2.0
    for k in range(2, n + 1):
        c = 2.0 * k + p
        prev, cur = cur, ((c - 1.0) * (c * (c - 2.0) * x - p * p) * cur
                          - 2.0 * (k - 1.0) * (k + p - 1.0) * c * prev) / (
                              2.0 * k * (k + p) * (c - 2.0))
    c = 2.0 * n + p
    slope = n * ((-p - c * x) * cur + 2.0 * (n + p) * prev) / (c * (1.0 - x) * (1.0 + x))
    return cur, slope


@lru_cache(maxsize=32)
def gauss_jacobi_01(n: int, p: float):
    """Nodes/weights for int_0^1 x^p f(x) dx  (p > -1, weight absorbed)."""
    if p <= -1.0:
        raise ValueError(f"Jacobi weight exponent must exceed -1, got {p}")
    # the rule on [-1, 1] for the weight (1 + x)^p, mapped to [0, 1] at the end
    k = np.arange(1, n, dtype=float)
    c = 2.0 * k + p
    diag = np.empty(n)
    diag[0] = p / (p + 2.0)
    diag[1:] = p * p / (c * (c + 2.0))
    off = 2.0 * k * (k + p) / (c * np.sqrt(c * c - 1.0))
    x = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    value, slope = _jacobi_derivative(n, p, x)
    x -= value / slope
    _, slope = _jacobi_derivative(n, p, x)
    # the weights are proportional to 1 / ((1 - x^2) P_n'(x)^2) and sum to
    # mu_0 = int (1 + x)^p dx; the form 1 / (P_{n-1} P_n') loses digits at
    # the extreme nodes, where the roots of P_{n-1} and P_n nearly meet
    w = 1.0 / ((1.0 - x) * (1.0 + x) * slope * slope)
    w *= 2.0 ** (p + 1.0) / (p + 1.0) / w.sum()
    return (x + 1.0) / 2.0, w / 2.0 ** (p + 1.0)


@lru_cache(maxsize=16)
def kernel_rule(alpha: float, p: float, n: int = 160, eps: float = 0.0,
                length: float = 1.0, lam_max: float = 0.0):
    """Nodes/weights (tau_i, w_i) for int_eps^length tau^p g(tau) dtau
    when g is an entire function of y = tau^alpha (propagator kernels are).

    Built in y, where the integral is (1/alpha) int y^q g dy, q = (p+1)/alpha - 1.
    E_{a,a}(-lam y) varies on a 1/lam scale, so for the largest decay rate
    lam_max the n nodes are split evenly over a head [y0, y0 + 1/lam_max]
    (y0 = eps^alpha) and Gauss-Legendre panels doubling in width, the last one
    running on to length^alpha.  The head is Gauss-Jacobi with y^q absorbed
    when eps = 0; with eps > 0 (a cutoff for p <= -1) every piece is
    Gauss-Legendre with y^q explicit.  While lam_max (length^alpha - y0) < 3,
    as for the default lam_max = 0, the head is the whole interval.
    """
    if length <= 0.0:
        raise ValueError(f"integration length must be positive, got {length}")
    q = (p + 1.0) / alpha - 1.0
    if eps == 0.0:
        if q <= -1.0:
            raise ValueError(
                f"kernel weight tau^{p} is non-integrable at 0 for alpha={alpha}")
    elif not 0.0 < eps < length:
        raise ValueError(f"cutoff must lie inside (0, {length}), got {eps}")
    y0, Y = eps ** alpha, length ** alpha
    pieces = max(1, math.floor(math.log2(1.0 + lam_max * (Y - y0))))
    edges = [y0] + [y0 + (2.0 ** k - 1.0) / lam_max for k in range(1, pieces)] + [Y]
    ys, ws = [], []
    for k, (lo, hi) in enumerate(zip(edges[:-1], edges[1:])):
        size = n // pieces + (k < n % pieces)
        if k == 0 and eps == 0.0:
            x, w = gauss_jacobi_01(size, q)
            ys.append(x * hi)
            ws.append(w * hi ** (q + 1.0))
        else:
            x, w = gauss_jacobi_01(size, 0.0)
            ys.append(lo + (hi - lo) * x)
            ws.append(w * (hi - lo) * ys[-1] ** q)
    wy = np.concatenate(ws) / alpha
    return np.concatenate(ys) ** (1.0 / alpha), wy
