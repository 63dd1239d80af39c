"""Minimum-energy control synthesis by duality, with optimality verification.

Given a target gradient field on the subregion (coefficients against the
restricted-gradient basis), the synthesis solves the Gramian equation in MODE
coordinates,

    W c = beta,    beta_p = target_p - free-evolution_p(b),

builds the control from the adjoint datum c,

    u*_i(t) = (1/t) (log b/t)^(alpha-1) sum_p E_{aa}(-lam_p (log b/t)^alpha) d_ip c_p,

and reports an honest residual: the state u* reaches, W c, summed on a second
kernel rule.  Every quantity is read from a discrete input map, and the solve
and its optimality checks read W's eigenpairs under one rank rule.  Solving
for c directly (rather than for the target's gradient-basis weights through
the Gram matrix) keeps the control and the reached state free of Gamma's
conditioning.  Gamma enters only through its factor R (R^T R = Gamma): norms
are |R x|, and the dual weights g = Gamma^-1 c take two solves, on R^T and R.
Only `solve_hum` checks the energy identity J(u*) = |observation of g|^2
(`g_norm`), which g's roundoff can break; the solution stores norm and gap.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from ._quadrature import kernel_rule
from .controllability import (VERDICT_THRESHOLD, ControllabilityVerdict,
                              GradientGramian, approx_controllability_verdict,
                              assemble_gramian)
from .logtime import LogTimeWindow
from .solver import (KERNEL_NODES, ControlSignal, EnergyDivergenceError,
                     _coefficients, free_solution)
from .spectral import ActuatorSet, Region, SpectralBasis

logger = logging.getLogger(__name__)

RESIDUAL_NODES = 192
PINV_NODES = 96
PINV_TOLERANCE = 1e-4
SOLVER_RTOL = 1e-12


def kept_eigenpairs(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs (lam_k, V_k) of a symmetric PSD matrix with lam above
    SOLVER_RTOL times the largest |lam|, ascending: the one rank rule of the
    synthesis and of both its minimality checks.  numpy's eigh is LAPACK's
    divide and conquer (dsyevd): MRRR is slower and loses orthogonality on
    W's equal pairs (modal actuators)."""
    vals, vecs = np.linalg.eigh(matrix)
    keep = vals > SOLVER_RTOL * np.max(np.abs(vals))
    return vals[keep], vecs[:, keep]


@dataclass(frozen=True, eq=False)
class HumProblem:
    """Steering problem: reach a target gradient field on the region at t = b.

    `target_gradient_coefficients` are weights against the restricted-gradient
    basis (the target field is sum_p gamma_p grad alpha_p on the region);
    `y0_coefficients` is the initial state in mode coordinates.
    """

    basis: SpectralBasis
    region: Region
    actuators: ActuatorSet
    alpha: float
    window: LogTimeWindow
    target_gradient_coefficients: np.ndarray
    y0_coefficients: np.ndarray | None = None
    epsilon_cutoff: float | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "target_gradient_coefficients", _coefficients(
            self.target_gradient_coefficients, self.basis, "target"))
        if self.y0_coefficients is not None:
            object.__setattr__(self, "y0_coefficients", _coefficients(
                self.y0_coefficients, self.basis, "y0"))
        object.__setattr__(self, "alpha", float(self.alpha))


@dataclass(frozen=True, eq=False)
class HumSolution:
    problem: HumProblem
    gramian: GradientGramian
    verdict: ControllabilityVerdict
    g_coefficients: np.ndarray     # dual element, gradient-basis weights
    adjoint_datum: np.ndarray      # c, mode coordinates
    control: ControlSignal
    energy: float
    residual_relative: float
    ill_posed: bool
    kept_rank: int
    solve_condition_number: float
    dual_norm_squared: float       # g_norm(g_coefficients): |observation of g|^2
    energy_identity_gap: float     # |J(u*) - dual| / max(J, dual)
    residual_map: GradientGramian  # the rule the residual is summed on
    rhs: np.ndarray                # mode-coordinate vector c was solved from
    eigenpairs: tuple[np.ndarray, np.ndarray]   # W's kept (lam_k, V_k)


def solve_hum(problem: HumProblem, *, threshold: float = VERDICT_THRESHOLD,
              gramian: GradientGramian | None = None) -> HumSolution:
    """Synthesize the minimum-energy control for the steering problem.

    If the controllability margin is not positive the solve still proceeds
    through the pseudo-inverse (steering onto the reachable part) and the
    solution is flagged ill-posed.
    """
    basis, window, alpha = problem.basis, problem.window, problem.alpha
    if gramian is None:
        gramian = assemble_gramian(basis, problem.region, problem.actuators,
                                   alpha, window, epsilon=problem.epsilon_cutoff)
    verdict = approx_controllability_verdict(gramian, threshold)
    if not verdict.controllable:
        logger.warning("synthesis on a configuration with verdict %s "
                       "(margin %.3e): proceeding with the pseudo-inverse",
                       verdict.verdict, verdict.margin)

    free = np.zeros(len(basis.modes)) if problem.y0_coefficients is None else \
        free_solution(problem.y0_coefficients, basis, alpha, window, window.b)
    rhs = problem.target_gradient_coefficients - free
    lams, vecs = eigenpairs = kept_eigenpairs(gramian.matrix)
    datum = vecs @ ((1.0 / lams) * (vecs.T @ rhs))
    kept = lams.size
    cond = float(lams[-1] / lams[0]) if kept else math.inf
    n_modes = len(basis.modes)
    ill_posed = (not verdict.controllable) or kept < n_modes
    if kept < n_modes:
        logger.warning("Gramian kernel factor numerically rank-deficient: "
                       "kept %d of %d directions", kept, n_modes)

    r_gamma = gramian.gram.factor
    g_coeffs = np.linalg.solve(r_gamma, np.linalg.solve(r_gamma.T, datum))
    control = gramian.control(datum)

    residual_map = gramian.with_nodes(RESIDUAL_NODES)
    gap = residual_map.matrix @ datum + free - problem.target_gradient_coefficients
    target_norm = float(np.linalg.norm(r_gamma @ problem.target_gradient_coefficients))
    gap_norm = float(np.linalg.norm(r_gamma @ gap))
    residual = gap_norm / target_norm if target_norm > 0 else gap_norm

    cost, dual = gramian.energy(datum), g_norm(g_coeffs, gramian)
    denom = max(cost, dual)
    identity_gap = abs(cost - dual) / denom if denom else 0.0

    return HumSolution(problem, gramian, verdict, g_coeffs, datum, control, cost,
                       residual, ill_posed, kept, cond, dual, identity_gap,
                       residual_map, rhs, eigenpairs)


def g_norm(g_coefficients, gramian: GradientGramian) -> float:
    """Squared-observation norm of a dual element, by direct time quadrature.

    Input is the element's gradient-basis weights gamma, whose datum
    Gamma gamma is taken as R_Gamma^T (R_Gamma gamma); the value equals the
    Gramian quadratic form of the same element (an identity the test suite
    checks rather than assumes).
    """
    gamma = np.asarray(g_coefficients, dtype=float)
    r_gamma = gramian.gram.factor
    return gramian.energy(r_gamma.T @ (r_gamma @ gamma))


def energy(u: ControlSignal, *, nodes: int = KERNEL_NODES) -> float:
    """Plain squared-norm cost of a control over the time window.

    One weighted rule prices every signal from its exact evaluator: a singular
    (synthesized) signal folds its tau^(2 alpha - 2) factor into the weight,
    which for alpha <= 1/2 diverges unless the signal carries an epsilon
    cutoff.  A signal carries no decay rates for the rule to follow, so the
    synthesis prices u* on its input map instead.
    """
    window = u.window
    if u.singular and u.alpha <= 0.5 and u.epsilon_cutoff is None:
        raise EnergyDivergenceError(u.alpha, "the control energy integrand")
    alpha, power = (u.alpha, 2.0 * (u.alpha - 1.0)) if u.singular else (1.0, 0.0)
    taus, weights = kernel_rule(alpha, power, n=nodes, eps=u.epsilon_cutoff or 0.0,
                                length=window.length)
    smooth = u.smooth_at_tau(taus)
    jac = window.b * np.exp(-taus)
    return float(np.sum(weights * jac * np.sum(smooth ** 2, axis=0)))


@dataclass(frozen=True)
class MinimalityReport:
    mode: str                      # "kernel+pinv" or "pinv-only"
    trials_requested: int
    trials_passed: int
    min_energy_increase: float
    kernel_dimension: int
    pinv_energy: float
    rel_pinv_gap: float
    passed: bool


def verify_minimality(solution: HumSolution, trials: int = 50, *,
                      seed: int = 0) -> MinimalityReport:
    """Check optimality of a synthesized control two independent ways.

    Kernel perturbations: admissible directions w = tau^(alpha-1) phi with phi
    in the null space of the discretized input-to-state map; the energy must
    not decrease.  Pseudo-inverse: the minimal-norm discrete control for the
    same constraint, on a different quadrature resolution, must price the
    same.  With trials == 0, or when the discrete map has no null space, only
    the pseudo-inverse comparison runs.

    Both checks work on an input map's factor A (A A^T = W), whose columns are
    the nodes whitened by their energy metric: a control's energy is a squared
    norm there, and u* = A^T c = D (kappa sqrt(w) o c).  Neither builds A.
    Each reads W's kept eigenpairs (lam_k, V_k) under the solve's rule
    (`kept_eigenpairs`), so A's row space is spanned by the orthonormal
    columns A^T V_k lam_k^-1/2 and S_k = lam_k^1/2 are its singular values.
    The trials reuse the solve's pairs: with A phi from `apply_factor` and
    z = (A phi) V_k / S_k, the draw's part off the row space has
    |phi_null|^2 = |phi|^2 - |z|^2 and pairs with u* as
    phi . u* - (V_k^T A phi) . (V_k^T c).  The cross-check's energy is
    |S_k^-1 V_k^T rhs|^2 over the pairs of the 96-node W.
    """
    gramian, rhs = solution.gramian, solution.rhs
    kernel_kept, trials_passed, min_delta = 0, 0, math.inf
    mode = "pinv-only"
    if trials > 0:
        lams, vecs = solution.eigenpairs
        c = solution.adjoint_datum
        u_star = (gramian.coefficient_matrix @ (gramian.table.T * c[:, None])).ravel()
        kernel_kept = u_star.size - lams.size
        if kernel_kept > 0:
            mode = "kernel+pinv"
            # one draw at a time: row by row, the generator gives the stream
            # a (trials, m nq) draw would, and only one draw is ever held
            rng, root, vc = np.random.default_rng(seed), np.sqrt(lams), vecs.T @ c
            delta = np.empty(trials)
            for t in range(trials):
                phi = rng.standard_normal(u_star.size)
                a_phi = gramian.apply_factor(phi[None])[0] @ vecs
                z = a_phi / root
                null_sq = max(float(phi @ phi - z @ z), 0.0)
                scale = math.sqrt(null_sq) if null_sq > 0 else 1.0
                delta[t] = (2.0 * (phi @ u_star - a_phi @ vc) / scale
                            + null_sq / scale ** 2)
            min_delta = float(delta.min())
            trials_passed = int(np.count_nonzero(delta >= -1e-9))
        else:
            logger.warning("discretized map has no null space on this grid; "
                           "falling back to the pseudo-inverse comparison only")

    # minimal-norm discrete control on an independent resolution: its
    # coordinates on the orthonormal row-space basis are S_k^-1 V_k^T rhs
    lams, vecs = kept_eigenpairs(gramian.with_nodes(PINV_NODES).matrix)
    coefficients = (vecs.T @ rhs) / np.sqrt(lams)
    pinv_energy = float(coefficients @ coefficients)
    denom = max(solution.energy, pinv_energy)
    rel_gap = abs(solution.energy - pinv_energy) / denom if denom > 0 else 0.0

    kernel_ok = (mode == "pinv-only") or trials_passed == trials
    passed = kernel_ok and rel_gap <= PINV_TOLERANCE
    return MinimalityReport(mode, trials, trials_passed, min_delta, kernel_kept,
                            pinv_energy, rel_gap, passed)
