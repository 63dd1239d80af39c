"""Shared quadrature rules.

Two families cover everything in the package:

* ``kernel_rule`` — the propagator kernels' time rule in ``y = tau^alpha``:
  a head of width ``1/lam_max``, then Gauss-Legendre panels doubling in width.

* plain Gauss rules on [0, 1], cached.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from scipy.special import roots_jacobi, roots_legendre


@lru_cache(maxsize=None)
def gauss_legendre_01(n: int):
    """Nodes/weights for int_0^1 f(x) dx."""
    x, w = roots_legendre(n)
    return (x + 1.0) / 2.0, w / 2.0


@lru_cache(maxsize=None)
def gauss_jacobi_01(n: int, p: float):
    """Nodes/weights for int_0^1 x^p f(x) dx  (p > -1, weight absorbed)."""
    if p <= -1.0:
        raise ValueError(f"Jacobi weight exponent must exceed -1, got {p}")
    # roots_jacobi(n, 0, p): weight (1-x)^0 (1+x)^p on [-1, 1]
    x, w = roots_jacobi(n, 0.0, p)
    return (x + 1.0) / 2.0, w / 2.0 ** (p + 1.0)


@lru_cache(maxsize=None)
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
            x, w = gauss_legendre_01(size)
            ys.append(lo + (hi - lo) * x)
            ws.append(w * (hi - lo) * ys[-1] ** q)
    wy = np.concatenate(ws) / alpha
    return np.concatenate(ys) ** (1.0 / alpha), wy
