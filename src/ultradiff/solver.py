"""Mild solutions of the log-clock fractional diffusion system, per spectral mode.

Everything here works in coefficients against a fixed truncated eigenbasis.
The controlled state at time t is

    z_p(t) = E_alpha(-lam_p (log t/a)^alpha) z0_p
             + sum_i d_ip  int_0^{log(t/a)} s^{alpha-1} E_{alpha,alpha}(-lam_p s^alpha)
                                             u_i(t e^{-s}) ds,

and the adjoint field driven by final datum coefficients c is

    phi_p(t) = (log b/t)^{alpha-1} E_{alpha,alpha}(-lam_p (log b/t)^alpha) c_p.

All time quadrature happens in the log-time variable after the substitution
y = s^alpha (which turns the Mittag-Leffler factors into smooth functions),
so the power singularities at s = 0 are handled by the weights, never sampled.
"""

from __future__ import annotations

import logging
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from ._quadrature import kernel_rule
from .logtime import LogTimeWindow
from .mittag_leffler import ml_on_negative_axis
from .spectral import ActuatorSet, SpectralBasis, actuator_coefficients

logger = logging.getLogger(__name__)

DEFAULT_CONTROL_NODES = 256
KERNEL_NODES = 160


class EnergyDivergenceError(ValueError):
    """Non-integrable energy-type integrand at the singular log-time endpoint.

    Raised instead of silently regularizing: for alpha <= 1/2 the squared
    control kernel carries tau^(2*alpha-2) near tau = 0, which has a divergent
    integral.  Callers must opt in to a cutoff explicitly.
    """

    def __init__(self, alpha: float, what: str):
        self.alpha = alpha
        super().__init__(
            f"{what} carries tau^({2 * alpha - 2:.4g}) near tau = 0, which is not "
            f"integrable for alpha = {alpha:g} <= 1/2; pass an explicit epsilon "
            f"cutoff (integration restricted to [epsilon, L]) to regularize "
            f"deliberately")


def _check_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")
    return alpha


@dataclass(frozen=True, eq=False)
class ControlSignal:
    """Vector control held by an exact evaluator on the clock tau = log(b/t).

    tau runs back from the final time, so a synthesized control's singular
    end t = b sits at tau = 0.  `smooth_fn` maps a tau-array to an
    (m, tau.size) array f(tau); the control is u = tau^(alpha-1) * f(tau) when
    `singular` is set (kept only for alpha < 1: at alpha = 1 that factor is 1)
    and u = f(tau) otherwise, so the singular endpoint never
    has to be represented numerically and every quadrature evaluates u
    exactly at its own nodes.  `tau_grid` (graded toward tau = 0) and the raw
    `values` of u there are computed once, for export and plotting only.
    """

    window: LogTimeWindow
    alpha: float
    smooth_fn: Callable[[np.ndarray], np.ndarray]
    singular: bool = False
    epsilon_cutoff: float | None = None
    tau_grid: np.ndarray = field(init=False, repr=False)
    values: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        alpha = _check_alpha(self.alpha)
        singular = self.singular and alpha < 1.0
        if self.epsilon_cutoff is not None and not self.epsilon_cutoff > 0:
            raise ValueError("epsilon cutoff must be positive when given")
        # graded toward tau = 0, which is left out: u may be singular there;
        # the power stops at 64, so for alpha < 1/32 no node underflows to 0
        j = np.arange(1, DEFAULT_CONTROL_NODES + 1)
        grid = self.window.length * (j / DEFAULT_CONTROL_NODES) ** min(2.0 / alpha, 64.0)
        values = np.atleast_2d(np.array(self.smooth_fn(grid), dtype=float))
        if values.ndim != 2 or values.shape[1] != grid.size:
            raise ValueError(f"values shape {values.shape} does not match "
                             f"{grid.size} grid nodes")
        if not np.all(np.isfinite(values)):
            raise ValueError("non-finite control values")
        if singular:
            values = grid ** (alpha - 1.0) * values
        grid.setflags(write=False)
        values.setflags(write=False)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "singular", singular)
        object.__setattr__(self, "tau_grid", grid)
        object.__setattr__(self, "values", values)

    # -- constructors ---------------------------------------------------

    @classmethod
    def constant(cls, levels, window: LogTimeWindow, alpha: float) -> "ControlSignal":
        levels = np.atleast_1d(np.asarray(levels, dtype=float))
        return cls(window, alpha, lambda tau: np.tile(levels[:, None], (1, tau.size)))

    # -- shape ------------------------------------------------------------

    @property
    def m(self) -> int:
        return self.values.shape[0]

    # -- evaluation ---------------------------------------------------------

    def smooth_at_tau(self, tau) -> np.ndarray:
        """The smooth factor f at given tau values (u itself if not singular)."""
        tau = np.asarray(tau, dtype=float)
        self._check_tau_range(tau)
        return np.atleast_2d(np.asarray(self.smooth_fn(tau), dtype=float))

    def evaluate_tau(self, tau) -> np.ndarray:
        """Raw control values u(tau), shape (m, tau.size)."""
        tau = np.asarray(tau, dtype=float)
        out = self.smooth_at_tau(tau)
        if self.singular:
            if np.any(tau <= 0):
                raise ValueError("singular control cannot be evaluated at tau <= 0")
            out = out * tau ** (self.alpha - 1.0)
        return out

    def evaluate_time(self, times) -> np.ndarray:
        times = np.asarray(times, dtype=float)
        return self.evaluate_tau(np.log(self.window.b / times))

    def times(self) -> np.ndarray:
        """Actual time instants of the grid nodes (same order as the grid)."""
        return self.window.b * np.exp(-self.tau_grid)

    def _check_tau_range(self, tau: np.ndarray) -> None:
        if tau.size and (np.min(tau) < -1e-12 or
                         np.max(tau) > self.window.length * (1 + 1e-9) + 1e-12):
            raise ValueError(f"tau outside [0, {self.window.length:.6g}]")


def _ml_matrix(alpha: float, beta: float, lams, taus) -> np.ndarray:
    """E_{alpha,beta}(-lam_p tau_q^alpha), every table of the package (beta = 1
    the free evolution, beta = alpha the kernels), as (n_modes, n_taus) from
    one router call, with one row evaluated per distinct lam.  A basis gives
    every member of an eigenvalue bucket the same float, so that is one row
    per bucket, and modes of one bucket get identical rows."""
    lams, rows = np.unique(np.asarray(lams, dtype=float), return_inverse=True)
    taus = np.asarray(taus, dtype=float)
    z = -np.outer(lams, taus ** alpha)
    return ml_on_negative_axis(alpha, beta, z.ravel()).reshape(z.shape)[rows]


def _coefficients(values, basis: SpectralBasis, name: str) -> np.ndarray:
    """A read-only copy of one finite coefficient per mode of the basis;
    `name` heads the messages."""
    c = np.array(values, dtype=float)
    if c.shape != (len(basis.modes),):
        raise ValueError(f"{name}: expected {len(basis.modes)} coefficients, "
                         f"got shape {c.shape}")
    if not np.all(np.isfinite(c)):
        raise ValueError(f"{name}: non-finite coefficients")
    c.setflags(write=False)
    return c


def free_solution(z0_coefficients, basis: SpectralBasis, alpha: float,
                  window: LogTimeWindow, t) -> np.ndarray:
    """Coefficients of the uncontrolled evolution of z0 at time t, or at each
    of a vector of times (one row per time), from one kernel table."""
    z0 = _coefficients(z0_coefficients, basis, "z0")
    alpha = _check_alpha(alpha)
    times = np.asarray(t, dtype=float)
    window.require_inside(times)
    # a scalar time takes the array arithmetic too, so it gets its row of the
    # table to the bit; at t = a, z = -0.0 and the Taylor branch gives 1
    tau = window.tau_from_start(times.ravel())
    decay = _ml_matrix(alpha, 1.0, basis.lams, tau).T
    return (z0 * decay).reshape(times.shape + z0.shape)


def forced_solution(actuators: ActuatorSet, basis: SpectralBasis, u: ControlSignal,
                    alpha: float, window: LogTimeWindow, t: float, *,
                    nodes: int = KERNEL_NODES,
                    coefficient_matrix: np.ndarray | None = None,
                    epsilon: float | None = None) -> np.ndarray:
    """Coefficients of the state reached from rest at time t under the control u.

    The mode integrals use `kernel_rule` in y = s^alpha with its nodes placed
    for the largest decay rate, so the Mittag-Leffler factors are smooth on
    every piece of the rule.  The only special case is a synthesized
    (singular) control evaluated at t = b, where the control's
    own tau^(alpha-1) folds into the weight — that product is non-integrable
    for alpha <= 1/2 and refuses without an epsilon cutoff.
    """
    alpha = _check_alpha(alpha)
    window.require_inside(t, open_start=True)
    if coefficient_matrix is None:
        coefficient_matrix = actuator_coefficients(actuators, basis)
    if u.m != coefficient_matrix.shape[0]:
        raise ValueError(f"control has {u.m} channels but the actuator set has "
                         f"{coefficient_matrix.shape[0]}")
    horizon = window.tau_from_start(t)

    at_final = abs(t - window.b) <= 1e-12 * window.b
    if u.singular and at_final:
        cutoff = epsilon if epsilon is not None else (u.epsilon_cutoff or 0.0)
        if alpha <= 0.5 and cutoff == 0.0:
            raise EnergyDivergenceError(alpha, "the control-times-kernel integrand")
        s, w = kernel_rule(alpha, 2.0 * (alpha - 1.0), n=nodes, eps=cutoff,
                           length=horizon, lam_max=float(basis.lams.max()))
        channel_values = u.smooth_at_tau(s)
    else:
        s, w = kernel_rule(alpha, alpha - 1.0, n=nodes, length=horizon,
                           lam_max=float(basis.lams.max()))
        channel_values = u.evaluate_time(t * np.exp(-s))

    kernel = _ml_matrix(alpha, alpha, basis.lams, s)
    driven = coefficient_matrix.T @ channel_values     # (n_modes, n_nodes)
    return np.sum(kernel * driven * w, axis=1)
