"""Independent reference implementations that the tests check the package against.

No verb of the package runs any of these; each was moved here unchanged, so
it computes the same numbers it did inside the package:

* from ``ultradiff.hadamard`` (the whole module): the log-time fractional
  integrals and derivatives ``hadamard_integral_left`` and ``_right``,
  ``hadamard_caputo_left``, ``hadamard_derivative_left`` and ``_right``,
  the reflection ``reflect_Q`` and their helpers;
* from ``ultradiff._quadrature``: ``power_weighted_rule``, which only the
  operators above use;
* from ``ultradiff.mittag_leffler``: the float64 series ``_series_f64``, its
  ``MLConvergenceError`` and ``_MAX_TERMS``;
* from ``ultradiff.solver``: ``adjoint_solution``, the backward kernel field.
  It forms log(b/t) inline, where it called ``LogTimeWindow.tau_from_end``;
* from ``ultradiff.spectral``: the pointwise mode tables
  ``SpectralBasis._rows``, ``value_matrix`` and ``gradient_component_matrix``,
  now functions taking the basis first, as in ``value_matrix(basis, points)``;
  the tensor-point evaluation of a profile, ``SeparableProfile.__call__``, now
  ``profile_values(profile, points)``, and its ``_as_points``;
* from ``ultradiff.hum.verify_minimality``: its kernel trials in their
  batched form, every draw at once, now ``batched_minimality_trials``;
* from ``ultradiff.controllability``: ``_khatri_rao_rows`` as it built each
  row group by einsum, now ``khatri_rao_rows``, and the ``_khatri_rao_qr``
  fold that used it, now ``khatri_rao_qr``.
* from ``ultradiff.spectral``: ``actuator_coefficients`` as it paired each
  actuator's own factors, one matvec per actuator, term and axis, with its
  ``_separable_pairings``, now ``per_actuator_coefficients`` and
  ``per_actuator_pairings``; and ``gradient_gram`` as it kept each box's and
  component's block in a list and stacked them with ``np.vstack``, now
  ``gradient_gram_vstack``, which returns (R_Gamma, direction norms).

``tests/`` has no ``__init__.py`` and pytest puts the test directory on
``sys.path``, so a test imports these as ``from _reference import ...``.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from scipy.special import gamma as _gamma
from scipy.special import gammaln

from ultradiff._quadrature import gauss_jacobi_01
from ultradiff.logtime import LogTimeWindow
from ultradiff.mittag_leffler import ml_on_negative_axis
from ultradiff.solver import _check_alpha, _coefficients
from ultradiff.spectral import (SeparableProfile, SpectralBasis, _axis_tables,
                                _sine, default_order)

# ---------------------------------------------------------------------------
# quadrature for the log-kernel operators
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def power_weighted_rule(p: float, n: int = 64):
    """Unit-interval nodes/weights for int_0^1 xi^p g(xi) dxi.

    For integrals ``int_0^T tau^p g(tau) dtau`` where ``g`` is smooth on
    [0, T) but may carry an *unknown integrable* singularity at ``tau = T``
    (fractional kernels evaluated near the opposite window endpoint do
    exactly this): a Gauss-Jacobi half on [0, T/2] with the ``tau^p`` weight
    absorbed, plus dyadically refined Gauss-Legendre panels on [T/2, T] whose
    geometric clustering soaks up any endpoint behavior.  Callers scale the
    unit form: ``int_0^T tau^p g = T^{p+1} * sum(wbar_i * g(T*xi_i))``.

    Tolerates an integrable singularity of g at xi = 1.  The right half has
    120 dyadic panels of 16 Gauss-Legendre nodes; the skipped geometric tail
    is ~2^(-120*beta) for g ~ (1-xi)^(beta-1), below 1e-10 for beta >= 0.3.
    """
    xs = []
    ws = []
    # left half: Gauss-Jacobi with xi^p absorbed
    xj, wj = gauss_jacobi_01(n, p)
    xs.append(0.5 * xj)
    ws.append(wj * 0.5 ** (p + 1.0))
    # right half: dyadic panels closing in on xi = 1
    xg, wg = gauss_jacobi_01(16, 0.0)
    h = 0.5
    for _ in range(120):
        lo, hi = 1.0 - h, 1.0 - h / 2.0
        t = lo + (hi - lo) * xg
        xs.append(t)
        ws.append(wg * (hi - lo) * t ** p)
        h /= 2.0
    xi = np.concatenate(xs)
    wbar = np.concatenate(ws)
    return xi, wbar


# ---------------------------------------------------------------------------
# fractional integral and derivative operators on the logarithmic clock
# ---------------------------------------------------------------------------
#
# All operators reduce, after the substitution tau = log(t/s), to weighted
# power-kernel integrals handled by `power_weighted_rule`:
#
# * left integral of order alpha:
#     (1/Gamma(alpha)) int_0^{log(t/a)} tau^(alpha-1) f(t e^-tau) dtau
# * Caputo-type derivative of order alpha in (0, 1):
#     (1/Gamma(1-alpha)) int_0^{log(t/a)} tau^(-alpha) (df)(t e^-tau) dtau,
#   where (df)(s) = s f'(s) is the scale derivative;
# * Riemann-Liouville-type derivative: scale derivative of the order-(1-alpha)
#   integral, by central differencing in log time.
#
# Right-sided operators come from the time reflection Q f(t) = f(ab/t), which
# swaps the window endpoints; the right integral is defined *as* the reflected
# left integral, so the reflection identities for integrals hold by
# construction and the derivative identities remain independent checks.


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


def _require_before_end(window: LogTimeWindow, t) -> None:
    """Refuse t outside [a, b): the right-sided operators are singular at b."""
    window.require_inside(t)
    if not np.all(np.asarray(t, dtype=float) < window.b):
        raise ValueError(
            f"t={t} outside the admissible window [{window.a}, {window.b})")


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
    _require_before_end(window, t)
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
    _require_before_end(window, t)
    qf = _as_evaluator(reflect_Q(f, window))
    a, b = window.a, window.b

    def g(tt: float) -> float:
        return _left_integral_raw(qf, 1.0 - alpha, a, a * b / tt, nodes)

    return -(g(float(t) * math.exp(h)) - g(float(t) * math.exp(-h))) / (2.0 * h)


# ---------------------------------------------------------------------------
# the Mittag-Leffler defining series in float64
# ---------------------------------------------------------------------------

_MAX_TERMS = 10_000


class MLConvergenceError(ArithmeticError):
    """Series evaluation did not converge (or overflowed) at (alpha, beta, z)."""

    def __init__(self, alpha: float, beta: float, z: float, reason: str):
        self.alpha = alpha
        self.beta = beta
        self.z = z
        super().__init__(
            f"Mittag-Leffler evaluation failed at alpha={alpha}, beta={beta}, "
            f"z={z}: {reason}")


def _series_f64(alpha: float, beta: float, z: float) -> float:
    """Compensated direct series for E_{alpha,beta}(z) on either side of zero,
    its terms by a log-space recurrence (never forms z^n, so only a genuinely
    infinite value overflows); raises `MLConvergenceError` where it fails."""
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


# ---------------------------------------------------------------------------
# the backward kernel field
# ---------------------------------------------------------------------------

def adjoint_solution(datum_coefficients, basis: SpectralBasis, alpha: float,
                     window: LogTimeWindow, t: float) -> np.ndarray:
    """Coefficients at time t of the backward kernel field driven by final-datum
    coefficients c: (log b/t)^(alpha-1) E_{alpha,alpha}(-lam_p (log b/t)^alpha) c_p.

    Singular at t = b for alpha < 1; callers integrate on nodes strictly
    inside the window.
    """
    c = _coefficients(datum_coefficients, basis, "datum")
    alpha = _check_alpha(alpha)
    if alpha < 1.0 and t >= window.b * (1 - 1e-15):
        raise ValueError(f"backward kernel is singular at the final time b = "
                         f"{window.b:g} for alpha < 1; evaluate strictly inside")
    window.require_inside(t)
    tau = np.log(window.b / np.asarray(t))
    kernel = ml_on_negative_axis(alpha, alpha, -basis.lams * tau ** alpha)
    if alpha < 1.0:
        kernel = tau ** (alpha - 1.0) * kernel
    return kernel * c


# ---------------------------------------------------------------------------
# pointwise mode tables and profile values
# ---------------------------------------------------------------------------

def _as_points(points, ndim: int) -> np.ndarray:
    points = np.asarray(points, dtype=float)
    if points.ndim == 1:
        points = points[:, None]
    if points.ndim != 2 or points.shape[1] != ndim:
        raise ValueError(f"expected points of shape (N, {ndim}), got {points.shape}")
    return points


def profile_values(profile: SeparableProfile, points) -> np.ndarray:
    """(N,) values at points (N, ndim): each term's coefficient times
    axis 0, then axis 1, and the terms added in order."""
    axes = _as_points(points, profile.ndim).T
    total = 0
    for coef, factors in profile.terms:
        term = np.float64(coef)
        for f, x in zip(factors, axes):
            term = term * f(x)
        total = total + term
    return total


def _rows(basis: SpectralBasis, points, component: int | None = None) -> np.ndarray:
    """(n_modes, N) products of per-axis factors, in axis order from
    ones, with the derivative factor on axis `component`: each axis's
    (K, N) factor table gathered at the modes' indices."""
    points = _as_points(points, basis.domain.ndim)
    k = np.arange(1, basis.cutoff + 1)[:, None]
    rows = np.ones((len(basis.modes), points.shape[0]))
    for ax in range(basis.domain.ndim):
        table = _sine(*basis._axes[ax], k, points[:, ax], ax == component)
        rows = rows * table[basis.modes[:, ax] - 1]
    return rows


def value_matrix(basis: SpectralBasis, points) -> np.ndarray:
    """(n_modes, n_points) eigenfunction values."""
    return _rows(basis, points)


def gradient_component_matrix(basis: SpectralBasis, points,
                              component: int) -> np.ndarray:
    """(n_modes, n_points) values of d(alpha_p)/dx_component."""
    return _rows(basis, points, component)


# ---------------------------------------------------------------------------
# the minimality check's kernel trials, batched
# ---------------------------------------------------------------------------

def batched_minimality_trials(solution, trials: int, seed: int):
    """(trials_passed, min_energy_increase) of `verify_minimality`'s kernel
    trials, drawn as one (trials, m nq) array and mapped by one
    `apply_factor` call."""
    gramian = solution.gramian
    lams, vecs = solution.eigenpairs
    c = solution.adjoint_datum
    u_star = (gramian.coefficient_matrix @ (gramian.table.T * c[:, None])).ravel()
    phi = np.random.default_rng(seed).standard_normal((trials, u_star.size))
    a_phi = gramian.apply_factor(phi) @ vecs       # one row per draw
    z = a_phi / np.sqrt(lams)
    null_sq = np.maximum(np.sum(phi * phi, axis=1) - np.sum(z * z, axis=1), 0.0)
    scale = np.sqrt(np.where(null_sq > 0, null_sq, 1.0))
    delta = (2.0 * (phi @ u_star - a_phi @ (vecs.T @ c)) / scale
             + null_sq / scale ** 2)
    return int(np.count_nonzero(delta >= -1e-9)), float(delta.min())


# ---------------------------------------------------------------------------
# the strategic test's Khatri-Rao fold, row groups built by einsum
# ---------------------------------------------------------------------------

def khatri_rao_rows(r_d: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Rows (j, q) of M[(j, q), p] = r_d[j, p] table[q, p], F-ordered."""
    return np.einsum("jp,qp->pjq", r_d, table).reshape(table.shape[1], -1).T


def khatri_rao_qr(d: np.ndarray, table: np.ndarray, group_rows: int = 640) -> np.ndarray:
    """R of the Khatri-Rao map T[(i, q), p] = d_ip table_qp, as
    `controllability._khatri_rao_qr` computes it: a map of at most
    `group_rows` rows built and factored by numpy's QR, a larger one folded
    group by group into a zero triangle by dtpqrt, each group's rows a fresh
    `khatri_rao_rows` array."""
    (m, n), nq = d.shape, table.shape[0]
    if m * nq <= group_rows:
        return np.linalg.qr(khatri_rao_rows(d, table), mode="r")
    from scipy.linalg.lapack import dtpqrt

    r_d = np.linalg.qr(d, mode="r")
    step = max(1, group_rows // nq)
    r = np.zeros((n, n), order="F")
    for j0 in range(0, r_d.shape[0], step):
        rows = khatri_rao_rows(r_d[j0:j0 + step, j0:], table[:, j0:])
        top, _, _, info = dtpqrt(0, min(32, n - j0), r[j0:, j0:], rows,
                                 overwrite_b=True)
        if info != 0:
            raise np.linalg.LinAlgError(f"dtpqrt failed with info={info}")
        r[j0:, j0:] = top
    return r[:min(r_d.shape[0] * nq, n)]


# ---------------------------------------------------------------------------
# spatial pairings, one actuator at a time; the Gram factor from a vstack
# ---------------------------------------------------------------------------

def per_actuator_pairings(profile: SeparableProfile, tables, index) -> np.ndarray:
    """(n_modes,) integrals over a box of `profile` times every mode: every
    factor evaluated and paired on its own, coef * axis 0 * axis 1, and the
    terms added in order."""
    if profile.ndim != len(tables):
        raise ValueError(f"a separable profile expected {profile.ndim} node "
                         f"arrays, got {len(tables)} from its box")
    total = 0
    for coef, factors in profile.terms:
        term = np.float64(coef)
        for f, k, (x, w, value, _) in zip(factors, index, tables):
            fx = f(x)
            if np.shape(fx) != x.shape:
                raise ValueError(f"a separable profile needs one factor value "
                                 f"per node, got shape {np.shape(fx)} for "
                                 f"{x.size} nodes")
            term = term * (value @ (w * fx))[k]
        total = total + term
    return total


def per_actuator_coefficients(actuators, basis: SpectralBasis,
                              order: int | None = None) -> np.ndarray:
    """(m, n_modes) couplings: one `_axis_tables` per distinct box, each
    actuator's pairings formed on their own (`per_actuator_pairings`), and
    each actuator's boxes summed in support order."""
    order = default_order(basis) if order is None else order
    index = tuple(basis.modes.T - 1)
    by_box: dict = {}
    for i, actuator in enumerate(actuators.actuators):
        for j, box in enumerate(actuator.support.boxes):
            by_box.setdefault(box, []).append((i, j))
    parts = [[None] * len(a.support.boxes) for a in actuators.actuators]
    for box, users in by_box.items():
        tables = _axis_tables(basis, box, order)
        for i, j in users:
            parts[i][j] = per_actuator_pairings(actuators.actuators[i].distribution,
                                                tables, index)
    coeffs = np.zeros((actuators.m, len(basis.modes)))
    for i, row in enumerate(parts):
        for part in row:
            coeffs[i] += part
    return coeffs


def gradient_gram_vstack(basis: SpectralBasis, region, order: int | None = None):
    """(R_Gamma, direction norms) of the restricted gradients, every box's and
    component's Kronecker block kept in a list and stacked by np.vstack."""
    n_modes = len(basis.modes)
    order = default_order(basis) if order is None else order
    index = tuple(basis.modes.T - 1)
    blocks = []
    squares = np.zeros((basis.domain.ndim, n_modes))
    for box in region.boxes:
        triangles = [tuple(np.linalg.qr((table * np.sqrt(w)).T, mode="r")
                           for table in (value, slope))
                     for _, w, value, slope in _axis_tables(basis, box, order)]
        for component in range(basis.domain.ndim):
            block = np.ones((1, n_modes))
            for ax, (k, (value_t, slope_t)) in enumerate(zip(index, triangles)):
                t = slope_t if ax == component else value_t
                block = (block[:, None] * t[:, k]).reshape(-1, n_modes)
            squares[component] += np.einsum("ip,ip->p", block, block)
            blocks.append(block)
    return np.linalg.qr(np.vstack(blocks), mode="r"), np.sqrt(squares)
