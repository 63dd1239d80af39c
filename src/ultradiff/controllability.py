"""Regional gradient controllability: Gramian assembly, verdicts, rank tests.

The input-to-gradient map sends a control u to the restricted gradient of the
state it produces at the final time.  Its Gramian, in the coordinates of the
truncated gradient basis, factors as the pair (Gamma, W):

* Gamma — the gradient Gram matrix over the subregion (geometry only),
* W     — the actuator/kernel factor,
          W_pq = sum_i d_ip d_iq  int  tau^(2 alpha - 2)
                 E_{aa}(-lam_p tau^a) E_{aa}(-lam_q tau^a) (e^tau / b) dtau,

  where the e^tau/b factor is the time Jacobian of the substitution
  tau = log(b/t) applied to the 1/t actuator adjoint — dropping it breaks the
  energy identities downstream.  The Gramian is the discrete input map
  (`solver._InputMap`) that sums W, and the synthesis and its checks reuse it.

Verdicts are read from the eigenvalues of the symmetric coordinate operator
R_Gamma W R_Gamma^T, where R_Gamma^T R_Gamma = Gamma is the Gram pass's
triangular factor.  It has the spectrum of Gamma^(1/2) W Gamma^(1/2), whose
Rayleigh quotients are exactly those of the Gramian operator on the
(non-orthonormal) restricted-gradient span.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .logtime import LogTimeWindow
from .solver import (KERNEL_NODES, EnergyDivergenceError, _check_alpha,
                     _InputMap, _ml_matrix)
from .spectral import (Actuator, ActuatorSet, GradientBasisGram, Region,
                       SeparableProfile, SpectralBasis, actuator_coefficients,
                       adjoint_gradient_coefficients, gradient_gram)

logger = logging.getLogger(__name__)

RANK_RTOL = 1e-10
VERDICT_THRESHOLD = 1e-10    # default: smallest pencil eigenvalue over the largest
_GROUP_ROWS = 640            # rows of a Khatri-Rao map folded in per dtpqrt call
_RANK_BATCH = 32             # eigenvalue buckets scaled and ranked per batched SVD


def _khatri_rao_rows(r_d: np.ndarray, table: np.ndarray, buf: np.ndarray) -> np.ndarray:
    """Rows (j, q) of M[(j, q), p] = r_d[j, p] table[q, p], multiplied into the
    head of the flat `buf`, which every row group reuses, as a (p, j, q)
    block: an F-ordered view, which dtpqrt overwrites without a copy."""
    (j, n), nq = r_d.shape, table.shape[0]
    block = buf[:n * j * nq].reshape(n, j, nq)
    np.multiply(r_d.T[:, :, None], table.T[:, None, :], out=block)
    return block.reshape(n, j * nq).T


def _khatri_rao_qr(d: np.ndarray, table: np.ndarray) -> np.ndarray:
    """R of the Khatri-Rao map T[(i, q), p] = d_ip table_qp, never built.

    With D = Q_D R_D (economic), T = (Q_D x I) M, where block row j of M is
    table * R_D[j] and vanishes left of column j.  R starts as an n_modes x
    n_modes zero triangle, and each group of block rows, the first included,
    only meets its trailing triangle R[j0:, j0:] and is folded into it by
    the triangle-pentagon QR dtpqrt (a TSQR step: Demmel, Grigori, Hoemmen &
    Langou, SIAM J. Sci. Comput. 34, 2012), about a third of the flops of a
    dense QR of T when m >= n_modes.  Each fold's reflectors are dropped as
    soon as it is made, and the min(m nq, n_modes) rows of R are returned.
    A map of at most one group of rows, empty ones included, is built and
    factored by numpy's QR, so only the fold loads scipy.
    """
    (m, n), nq = d.shape, table.shape[0]
    if m * nq <= _GROUP_ROWS:
        return np.linalg.qr(_khatri_rao_rows(d, table, np.empty(d.size * nq)), mode="r")
    from scipy.linalg.lapack import dtpqrt

    r_d = np.linalg.qr(d, mode="r")
    step = max(1, _GROUP_ROWS // nq)
    r = np.zeros((n, n), order="F")
    buf = np.empty(min(step, r_d.shape[0]) * nq * n)
    for j0 in range(0, r_d.shape[0], step):
        rows = _khatri_rao_rows(r_d[j0:j0 + step, j0:], table[:, j0:], buf)
        top, _, _, info = dtpqrt(0, min(32, n - j0), r[j0:, j0:], rows,
                                 overwrite_b=True)
        if info != 0:
            raise np.linalg.LinAlgError(f"dtpqrt failed with info={info}")
        r[j0:, j0:] = top
    return r[:min(r_d.shape[0] * nq, n)]


class GradientGramian(_InputMap):
    """Truncated controllability Gramian on the subregion gradient space: the
    configuration's input map on `KERNEL_NODES` nodes, which sums W, and Gamma
    (`gram`)."""

    def __init__(self, gram: GradientBasisGram, coefficient_matrix: np.ndarray,
                 lams: np.ndarray, alpha: float, window: LogTimeWindow, nodes: int,
                 epsilon: float | None = None) -> None:
        super().__init__(coefficient_matrix, lams, alpha, window, nodes, epsilon)
        self.gram = gram                   # Gamma

    @cached_property
    def pencil_eigenvalues(self) -> np.ndarray:
        """Ascending, read-only eigenvalues of R_Gamma W R_Gamma^T: the
        Gramian in orthonormalized coordinates."""
        m = self.gram.factor @ self.matrix @ self.gram.factor.T
        vals = np.linalg.eigvalsh(0.5 * (m + m.T))
        vals.setflags(write=False)
        return vals


def assemble_gramian(basis: SpectralBasis, region: Region, actuators: ActuatorSet,
                     alpha: float, window: LogTimeWindow, *,
                     epsilon: float | None = None,
                     coefficient_matrix: np.ndarray | None = None,
                     gram: GradientBasisGram | None = None) -> GradientGramian:
    """Assemble the (Gamma, W) pair for one configuration.

    Refuses for alpha <= 1/2 without an explicit epsilon cutoff: the kernel
    integrand tau^(2 alpha - 2) is non-integrable there.
    """
    alpha = _check_alpha(alpha)
    if alpha <= 0.5 and epsilon is None:
        raise EnergyDivergenceError(alpha, "the controllability Gramian integrand")
    if epsilon is not None and not 0 < epsilon < window.length:
        raise ValueError(f"epsilon cutoff must be in (0, {window.length:.6g})")
    if coefficient_matrix is None:
        coefficient_matrix = actuator_coefficients(actuators, basis)
    if gram is None:
        gram = gradient_gram(basis, region)

    return GradientGramian(gram, coefficient_matrix, basis.lams, alpha, window,
                           KERNEL_NODES, epsilon)


@dataclass(frozen=True)
class ControllabilityVerdict:
    controllable: bool
    verdict: str
    margin: float                 # smallest eigenvalue of the symmetric operator
    largest_eigenvalue: float
    relative_margin: float
    condition_number: float
    exact_constant: float         # (smallest singular value)^(-1/2), truncated
    threshold: float
    epsilon_cutoff: float | None


def approx_controllability_verdict(
        gramian: GradientGramian,
        threshold: float = VERDICT_THRESHOLD) -> ControllabilityVerdict:
    """Decide truncated approximate controllability from the pencil spectrum.

    The exact-steering constant is reported as a truncated estimate only: a
    finite mode cutoff can never certify the infinite-dimensional property.
    """
    smallest, largest = (float(v) for v in gramian.pencil_eigenvalues[[0, -1]])
    relative = smallest / largest if largest > 0 else 0.0
    controllable = largest > 0 and smallest > threshold * largest
    constant = smallest ** -0.5 if smallest > 0 else math.inf
    return ControllabilityVerdict(
        controllable=controllable,
        verdict="CONTROLLABLE" if controllable else "NOT",
        margin=smallest,
        largest_eigenvalue=largest,
        relative_margin=relative,
        condition_number=largest / smallest if smallest > 0 else math.inf,
        exact_constant=constant,
        threshold=threshold,
        epsilon_cutoff=gramian.epsilon_cutoff,
    )


# -- strategic actuator test -------------------------------------------------


@dataclass(frozen=True, eq=False)
class StrategicBucket:
    bucket: int
    eigenvalue: float
    multiplicity: int
    direction_ranks: tuple[int, ...]
    block_rank: int
    passes: bool


@dataclass(frozen=True, eq=False)
class StrategicReport:
    buckets: tuple[StrategicBucket, ...]
    m: int
    sup_multiplicity: int
    m_sufficient: bool
    criterion: str                 # "exact" (1D) or "generic" (2D truncation)
    stacked_rank: int | None
    required_rank: int | None
    strategic: bool
    verdict: str


def strategic_test(basis: SpectralBasis, region: Region, actuators: ActuatorSet, *,
                   alpha: float, window: LogTimeWindow,
                   gram: GradientBasisGram | None = None,
                   coefficient_matrix: np.ndarray | None = None) -> StrategicReport:
    """Rank test for actuator adequacy on the subregion.

    Each coupling d_ip is scaled by mode p's restricted gradient norm in
    each direction, read from the Gram pass (`gram.direction_norms`).

    1D: the exact criterion — enough channels for the largest eigenvalue
    multiplicity, and every per-eigenvalue coefficient block of full rank.

    2D: the function-valued identity behind the criterion is checked as
    injectivity of the time-sampled observation map on the truncated
    restricted-gradient span (test fields sum_p zeta_p grad alpha_p on the
    region, coupled through the gradient Gram matrix).  A finite time sample
    certifies injectivity only generically, so the verdict is "generic".
    The time-sampled scaled couplings S are the Khatri-Rao product of D and
    the bucketed kernel table; `_khatri_rao_qr` gives S = Q_S R_S without
    building S, from `_kernel_directions`, and the rank is read from R_S Gamma.
    `alpha` and `window` fix the kernel's order and the sampled interval;
    the 1-D criterion does not read them.

    Open question: what a 2-D bucket's `passes` means is not settled.  Its
    block stacks one row per gradient direction, so one actuator can reach
    `block_rank` 2 on a double bucket.  On the quadrant of [-1, 1]^2 with one
    constant zone actuator, the buckets {(1,3),(3,1)}, {(1,5),(5,1)} and
    {(3,5),(5,3)} pass that way.  The Gramian sees one direction in each of
    them, and the 1-D rule would require m >= multiplicity.
    """
    if coefficient_matrix is None:
        coefficient_matrix = actuator_coefficients(actuators, basis)
    if gram is None:
        gram = gradient_gram(basis, region)
    m = coefficient_matrix.shape[0]
    ndim = basis.domain.ndim
    n_modes = len(basis.modes)
    direction_norms = gram.direction_norms

    # buckets are numbered 0, 1, ... along the modes, each one contiguous
    first = np.flatnonzero(np.diff(basis.buckets, prepend=-1))
    bucket_idx = np.split(np.arange(n_modes), first[1:])
    # rank decisions share one scale across buckets: an eigenvalue block whose
    # couplings are pure roundoff must count as dropped, not as full rank.  It
    # is max |d_ip| n_lp, and rounding is monotonic, so the column maxima of
    # |D| give the same float without a scaled or absolute copy of D
    d_max = np.maximum(coefficient_matrix.max(axis=0, initial=0.0),
                       -coefficient_matrix.min(axis=0, initial=0.0))
    scale = float(np.max(d_max * direction_norms))
    # batched SVDs per multiplicity r_k, _RANK_BATCH buckets at a time, each
    # scaled from D into one (n_b, ndim, m, r_k) stack; a block joins its
    # directions' rows
    sizes = np.array([idx.size for idx in bucket_idx])
    ranks = np.zeros((sizes.size, ndim + 1), dtype=int)  # direction ranks, block rank
    for r_k in np.unique(sizes):
        same = np.nonzero(sizes == r_k)[0]
        for start in range(0, same.size, _RANK_BATCH):
            group = same[start:start + _RANK_BATCH]
            cols = np.array([bucket_idx[pos] for pos in group])  # (n_b, r_k)
            stacks = (coefficient_matrix[:, cols].transpose(1, 0, 2)[:, None]
                      * direction_norms[:, cols].transpose(1, 0, 2)[:, :, None])
            ranks[group, :ndim] = _ranks(stacks, scale)
            ranks[group, ndim] = _ranks(stacks.reshape(group.size, -1, r_k), scale)
    buckets = [StrategicBucket(b_id, float(basis.lams[idx[0]]), idx.size,
                               tuple(row[:ndim]), row[ndim], row[ndim] == idx.size)
               for b_id, (idx, row) in enumerate(zip(bucket_idx, ranks.tolist()))]

    sup_r = max(bucket.multiplicity for bucket in buckets)
    m_sufficient = m >= sup_r

    if ndim == 1:
        strategic = m_sufficient and all(
            bucket.direction_ranks[0] == bucket.multiplicity for bucket in buckets)
        return StrategicReport(tuple(buckets), m, sup_r, m_sufficient,
                               "exact", None, None, strategic,
                               "STRATEGIC" if strategic else "NOT")

    taus = np.geomspace(window.length * 1e-4, window.length, 64)
    # one kernel row per bucket; every mode of a bucket shares its row
    directions = _kernel_directions(_ml_matrix(alpha, basis.lams[first], taus).T)
    # S Gamma = Q_S (R_S Gamma) has the singular values of the small R_S Gamma,
    # formed as (R_S R_Gamma^T) R_Gamma
    r_s = _khatri_rao_qr(coefficient_matrix, directions[:, basis.buckets])
    stacked_rank = int(_ranks(r_s @ gram.factor.T @ gram.factor))
    logger.info("stacked strategic rank %d of %d modes from %d of %d kernel "
                "directions", stacked_rank, n_modes, len(directions), len(taus))
    strategic = stacked_rank == n_modes
    return StrategicReport(tuple(buckets), m, sup_r, m_sufficient,
                           "generic", stacked_rank, n_modes, strategic,
                           "STRATEGIC" if strategic else "NOT")


def _kernel_directions(table: np.ndarray) -> np.ndarray:
    """Rows Sigma_r V_r^T of a kernel table's SVD U Sigma V^T, for the r
    singular values above 1e-3 RANK_RTOL sigma_1.  The Khatri-Rao map of D and
    the table is S = (I_m x U) S_Sigma, S_Sigma that of D and Sigma V^T, and
    I_m x U has orthonormal columns; the rows cut from S_Sigma have columns
    d_p (x) g_p, ||g_p|| <= sigma_{r+1}, so by Weyl no singular value of S Gamma
    moves by more than sigma_{r+1} ||D||_F ||Gamma||_2 (Cauchy-like tables decay
    geometrically: Beckermann & Townsend, SIAM J. Matrix Anal. Appl. 38, 2017)."""
    _, s, vt = np.linalg.svd(table, full_matrices=False)
    return (s[:, None] * vt)[s > 1e-3 * RANK_RTOL * s[0]]


def _ranks(stack: np.ndarray, scale: float | None = None) -> np.ndarray:
    """Ranks of a (..., rows, cols) stack of matrices: singular values above
    RANK_RTOL times scale, or each matrix's own largest singular value."""
    if stack.size == 0:
        return np.zeros(stack.shape[:-2], dtype=int)
    s = np.linalg.svd(stack, compute_uv=False)
    reference = s[..., :1] if scale is None else scale
    return np.count_nonzero((s > RANK_RTOL * reference) & (reference > 0), axis=-1)


# -- worked reproduction example: coefficient tables -------------------------


@dataclass(frozen=True)
class PairingRow:
    k: int
    l: int
    p: int
    q: int
    closed_form: float
    quadrature: float
    rel_discrepancy: float


def worked_example_pairing_table(basis: SpectralBasis,
                                 region: Region) -> list[PairingRow]:
    """Target-observability pairings for the reproduction example, both ways.

    Rows run over the modes (k, l) with k, l in {1, 3, 5} and the targets
    (p, q) with p, q in {2, 4}.  The quadrature column is the product of the
    zone-actuator mode mean over the region with the pairing of the target
    (as a first-direction field) against the mode gradient, everything on
    unit-norm modes, on order-96 rules.  Each target's pairings with every
    mode gradient come from one call of `adjoint_gradient_coefficients` on
    the separable field (sin(p pi x) cos(q pi y), 0).  The closed-form column
    evaluates the literal reference expression
    8p/(k l pi) (1/((k+p)pi) - 1/((k-p)pi)) (1/((l+q)pi) - 1/((l-q)pi)).
    The two disagree (normalization and sign conventions differ); both are
    reported with their relative discrepancy, and the quadrature value is the
    operative one.  Odd modes and even targets are the formula's stated
    parity regime.
    """
    if basis.domain.ndim != 2:
        raise ValueError("pairing table is defined for 2-D configurations")
    modes, targets, order = (1, 3, 5), (2, 4), 96
    constant = SeparableProfile(((1.0, (np.ones_like,) * 2),))
    zone = ActuatorSet((Actuator(region, constant, "zone"),))
    means = actuator_coefficients(zone, basis, order)[0]
    zero = SeparableProfile(((0.0, (np.zeros_like,) * 2),))
    pairings = {}
    for p in targets:
        for q in targets:
            target = SeparableProfile(((1.0, (
                lambda x, p=p: np.sin(p * math.pi * x),
                lambda y, q=q: np.cos(q * math.pi * y))),))
            pairings[(p, q)] = adjoint_gradient_coefficients(
                (target, zero), basis, region, order)
    mode_pos = {tuple(index): pos for pos, index in enumerate(basis.modes.tolist())}
    rows = []
    for k in modes:
        for l in modes:
            for p in targets:
                for q in targets:
                    if (k, l) not in mode_pos:
                        raise ValueError(f"mode {(k, l)} beyond the basis cutoff")
                    pos = mode_pos[(k, l)]
                    quad = means[pos] * pairings[(p, q)][pos]
                    closed = (8.0 * p / (k * l * math.pi)
                              * (1.0 / ((k + p) * math.pi)
                                 - 1.0 / ((k - p) * math.pi))
                              * (1.0 / ((l + q) * math.pi)
                                 - 1.0 / ((l - q) * math.pi)))
                    rel = abs(closed - quad) / abs(quad) if quad != 0 else math.nan
                    rows.append(PairingRow(k, l, p, q, closed, quad, rel))
    return rows
