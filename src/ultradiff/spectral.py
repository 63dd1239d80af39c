"""Dirichlet-Laplacian eigenstructure on boxes, subregions, and spatial pairings.

Everything spatial lives here: eigenpairs of the Dirichlet Laplacian on an
interval or rectangle (assembled analytically from tensor sines), axis-aligned
subregions, actuator coefficient vectors, and the Gram matrix of restricted
eigenfunction gradients that coordinatizes gradient fields on a subregion.
Box integrals against the modes contract per-axis 1-D factor tables one axis
at a time; no (n_modes, N) table of pointwise mode values is built.

Two mode families:

* ``canonical`` — the complete family sin(k*pi*(x-lo)/len)*sqrt(2/len) per
  axis.  Use this for every genuine analysis.
* ``whole-wave`` — sin(k*pi*x_d) per axis, which is Dirichlet-zero only when
  the axis endpoints are integers.  On [-1,1]^2 it is the odd-symmetric HALF
  of the spectrum (it skips every cosine-type mode) and is kept solely to
  reproduce the worked example built on it; reports flag it as incomplete.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from ._quadrature import gauss_legendre_01

BUCKET_RTOL = 1e-9

Box = tuple[tuple[float, float], ...]


@dataclass(frozen=True)
class RectDomain:
    """Axis-aligned box domain in 1 or 2 dimensions."""

    bounds: Box

    def __post_init__(self) -> None:
        bounds = tuple((float(lo), float(hi)) for lo, hi in self.bounds)
        if len(bounds) not in (1, 2):
            raise ValueError(f"only 1-D and 2-D domains supported, got {len(bounds)} axes")
        for ax, (lo, hi) in enumerate(bounds):
            if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
                raise ValueError(f"axis {ax}: invalid bounds [{lo}, {hi}]")
        object.__setattr__(self, "bounds", bounds)

    @classmethod
    def interval(cls, lo: float, hi: float) -> "RectDomain":
        return cls(((lo, hi),))

    @classmethod
    def rectangle(cls, b1, b2) -> "RectDomain":
        return cls((tuple(b1), tuple(b2)))

    @property
    def ndim(self) -> int:
        return len(self.bounds)

    def contains_box(self, box: Box) -> bool:
        if len(box) != self.ndim:
            return False
        return all(lo >= dlo - 1e-12 and hi <= dhi + 1e-12 and lo < hi
                   for (lo, hi), (dlo, dhi) in zip(box, self.bounds))


@dataclass(frozen=True, eq=False)
class Region:
    """Union of axis-aligned boxes inside a domain, pairwise non-overlapping."""

    domain: RectDomain
    boxes: tuple[Box, ...]

    def __post_init__(self) -> None:
        boxes = tuple(tuple((float(lo), float(hi)) for lo, hi in box)
                      for box in self.boxes)
        for i, box in enumerate(boxes):
            if not self.domain.contains_box(box):
                raise ValueError(f"region box {i} {box} is not inside the domain "
                                 f"{self.domain.bounds}")
        for i, j in overlapping_pairs(boxes):
            raise ValueError(f"region boxes {i} and {j} overlap")
        object.__setattr__(self, "boxes", boxes)

    @classmethod
    def whole(cls, domain: RectDomain) -> "Region":
        return cls(domain, (domain.bounds,))

    @classmethod
    def box(cls, domain: RectDomain, *bounds) -> "Region":
        return cls(domain, (tuple(tuple(b) for b in bounds),))

    @property
    def measure(self) -> float:
        return float(sum(math.prod(hi - lo for lo, hi in box) for box in self.boxes))

    @property
    def is_empty(self) -> bool:
        return len(self.boxes) == 0 or self.measure == 0.0


def overlapping_pairs(boxes) -> list[tuple[int, int]]:
    """Index pairs (i, j), i < j, of boxes whose interiors intersect."""
    return [(i, j) for i in range(len(boxes)) for j in range(i + 1, len(boxes))
            if all(lo1 < hi2 and lo2 < hi1
                   for (lo1, hi1), (lo2, hi2) in zip(boxes[i], boxes[j]))]


class SpectralBasis:
    """Truncated Dirichlet eigenbasis on a box domain (K modes per axis).

    Three read-only arrays describe the modes, in ascending (eigenvalue,
    index) order: `modes` (n, ndim) their 1-based per-axis indices, `lams`
    (n,) their eigenvalues and `buckets` (n,) the number 0, 1, ... of their
    bucket of equal eigenvalues.  Each bucket is contiguous, and every member
    holds the same float, its first member's.
    """

    def __init__(self, domain: RectDomain, cutoff: int, family: str = "canonical"):
        if cutoff < 1:
            raise ValueError(f"cutoff must be >= 1, got {cutoff}")
        if family not in ("canonical", "whole-wave"):
            raise ValueError(f"unknown mode family {family!r}")
        if family == "whole-wave":
            for ax, (lo, hi) in enumerate(domain.bounds):
                if not (float(lo).is_integer() and float(hi).is_integer()):
                    raise ValueError(
                        f"whole-wave family needs integer axis endpoints; axis {ax} "
                        f"is [{lo}, {hi}]")
        self.domain = domain
        self.cutoff = int(cutoff)
        self.family = family
        # each axis factor is sin(k pi (x - origin) / period) * sqrt(2 / length)
        self._axes = tuple((lo, hi - lo) if family == "canonical" else (0.0, 1.0)
                           for lo, hi in domain.bounds)

        ks = range(1, self.cutoff + 1)
        modes = np.indices((self.cutoff,) * domain.ndim).reshape(domain.ndim, -1).T + 1
        # (k pi / period)^2 per axis as Python floats, summed from 0 in axis order
        tables = [np.array([(k * math.pi / period) ** 2 for k in ks])
                  for _, period in self._axes]
        raw = sum(table[modes[:, ax] - 1] for ax, table in enumerate(tables))
        order = np.lexsort(tuple(modes.T[::-1]) + (raw,))
        modes, raw = modes[order], raw[order]

        # each bucket carries its first member's eigenvalue: members summed in
        # another order (lam_kl = lam_lk) differ in their last bits, and the
        # kernel tables, W's equal pairs and the bucket map must agree exactly
        new = np.concatenate(([True], np.diff(raw) > BUCKET_RTOL * raw[1:]))
        self.modes, self.buckets = modes, np.cumsum(new) - 1
        self.lams = raw[new][self.buckets]
        for array in (self.modes, self.lams, self.buckets):
            array.setflags(write=False)

    # -- per-axis factors ---------------------------------------------------

    def _axis_factor(self, axis: int, k: int | np.ndarray, x: np.ndarray,
                     derivative: bool) -> np.ndarray:
        """sin(k pi (x - origin) / period) * sqrt(2 / length), or its x-derivative."""
        lo, hi = self.domain.bounds[axis]
        origin, period = self._axes[axis]
        if derivative:
            w = k * math.pi / period
            return math.sqrt(2.0 / (hi - lo)) * w * np.cos(w * (x - origin))
        return math.sqrt(2.0 / (hi - lo)) * np.sin(k * math.pi * (x - origin) / period)

    def mode_profile(self, index: int) -> SeparableProfile:
        """The mode `modes[index]` as a separable profile.  The mode is looked
        up when a factor is evaluated, so an index past the cutoff fails then."""
        return SeparableProfile(((1.0, tuple(
            lambda x, ax=ax: self._axis_factor(ax, self.modes[index, ax], x, False)
            for ax in range(self.domain.ndim))),))


def _as_points(points, ndim: int) -> np.ndarray:
    points = np.asarray(points, dtype=float)
    if points.ndim == 1:
        points = points[:, None]
    if points.ndim != 2 or points.shape[1] != ndim:
        raise ValueError(f"expected points of shape (N, {ndim}), got {points.shape}")
    return points


@lru_cache(maxsize=None)
def _box_rule_1d(lo: float, hi: float, order: int):
    x, w = gauss_legendre_01(order)
    return lo + (hi - lo) * x, (hi - lo) * w


def _tensor_points(nodes) -> np.ndarray:
    """(N, ndim) tensor points of per-axis node arrays, the last axis fastest."""
    return np.column_stack([x.ravel() for x in np.meshgrid(*nodes, indexing="ij")])


def box_quadrature(box: Box, order: int):
    """Tensor Gauss-Legendre points (N, ndim) and weights (N,) for one box."""
    nodes, weights = zip(*(_box_rule_1d(lo, hi, order) for lo, hi in box))
    if len(weights) == 1:
        return _tensor_points(nodes), weights[0].copy()
    return _tensor_points(nodes), np.outer(*weights).ravel()


def _axis_tables(basis: SpectralBasis, box: Box, order: int):
    """Per axis of `box`: the 1-D Gauss nodes x and weights w (order,) and
    the (K, order) tables of the value and derivative factors k = 1..K at x.

    Every mode is a product of one factor per axis and `box_quadrature` is
    the tensor product of these 1-D rules, so every box integral against the
    modes contracts one axis at a time with these tables.
    """
    k = np.arange(1, basis.cutoff + 1)[:, None]
    tables = []
    for ax, (lo, hi) in enumerate(box):
        x, w = _box_rule_1d(lo, hi, order)
        tables.append((x, w, basis._axis_factor(ax, k, x, False),
                       basis._axis_factor(ax, k, x, True)))
    return tables


def _contract(grid: np.ndarray, weighted: list[np.ndarray]) -> np.ndarray:
    """Sum over the nodes of grid (batch, n_1, ..., n_d) times the weighted
    factor tables (K, n_ax) of each axis: (batch, K, ..., K)."""
    for table in reversed(weighted):
        flat = grid.reshape(-1, grid.shape[-1]) @ table.T
        grid = np.moveaxis(flat.reshape(grid.shape[:-1] + (table.shape[0],)), -1, 1)
    return grid


def _box_pairings(tables, index, values: np.ndarray,
                  derivative: int | None = None) -> np.ndarray:
    """(batch, n_modes) integrals over a box of each row of `values` times
    every mode, or times its derivative along axis `derivative`.

    `tables` are the box's `_axis_tables` and `index` the modes' rows in
    them, `tuple(basis.modes.T - 1)`; the rows of `values` (batch, N) are
    taken at the tensor points of the tables' nodes, the last axis fastest.
    Their grid is contracted one axis at a time with the weighted factor
    tables and gathered at the modes' indices.
    """
    grid = values.reshape((len(values),) + tuple(x.size for x, _, _, _ in tables))
    weighted = [(slope if ax == derivative else value) * w
                for ax, (_, w, value, slope) in enumerate(tables)]
    return _contract(grid, weighted)[(slice(None),) + index]


def default_order(basis: SpectralBasis) -> int:
    # NOTE: products of two cutoff-K modes need comfortably more than 2K
    # Gauss points per axis once gradient factors enter; 4K+12 holds the
    # 1e-9 tolerances with margin.
    return 4 * basis.cutoff + 12


@dataclass(frozen=True, eq=False)
class GradientBasisGram:
    """Gram matrix Gamma of restricted eigenfunction gradients over a region.

    Gamma[p, q] = <grad alpha_p, grad alpha_q> over the region is held as its
    upper triangular factor R_Gamma (R_Gamma^T R_Gamma = Gamma), which every
    gradient-space norm and solve reads; `matrix` is the product, formed on
    first use.  direction_norms[l, p] = ||d(alpha_p)/dx_l|| over the region,
    from the same pass; the strategic rank test scales the couplings by them.
    """

    factor: np.ndarray
    direction_norms: np.ndarray

    def __post_init__(self) -> None:
        for name in ("factor", "direction_norms"):
            m = np.asarray(getattr(self, name), dtype=float)
            m.setflags(write=False)
            object.__setattr__(self, name, m)

    @cached_property
    def matrix(self) -> np.ndarray:
        """Gamma = R_Gamma^T R_Gamma, read-only."""
        gram = self.factor.T @ self.factor
        gram.setflags(write=False)
        return gram


def gradient_gram(basis: SpectralBasis, region: Region,
                  order: int | None = None) -> GradientBasisGram:
    """Triangular factor of the Gram of the restricted gradients, from QRs of
    the per-axis tables.

    On each box the gradient's component l pairs as a product of 1-D Grams:
    <d_l alpha_p, d_l alpha_q> = prod over axes of M[k_p, k_q], M = A^T A with
    A = (F' sqrt(w))^T on axis l and (F sqrt(w))^T on the others.  With
    A = Q T (T is K x K upper triangular) that term is B^T B, where column p
    of B is the Kronecker product of the axes' T columns at mode p's indices.
    R_Gamma is the R of one QR of every box's and component's B, stacked, and
    cond R_Gamma = sqrt(cond Gamma).  The direction norms are the roots of
    B's column sums of squares, per component, summed over the boxes.
    """
    if region.is_empty:
        raise ValueError(f"gradient_gram: region {region.boxes} is empty")
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
    factor = np.linalg.qr(np.vstack(blocks), mode="r")
    return GradientBasisGram(factor, np.sqrt(squares))


@dataclass(frozen=True, eq=False)
class SeparableProfile:
    """Profile sum over `terms` of coef * f_1(x_1) * ... * f_d(x_d).

    Each term is (coef, factors), one 1-D callable per axis in `factors`
    (values (n,) -> (n,)).  It is callable on points (N, ndim) like any
    profile; its couplings are products of 1-D integrals
    (`actuator_coefficients`), so no factor is evaluated at tensor points.
    """

    terms: tuple

    def __post_init__(self) -> None:
        terms = tuple((float(coef), tuple(factors)) for coef, factors in self.terms)
        if len({len(factors) for _, factors in terms}) != 1:
            raise ValueError("a separable profile needs terms with one factor "
                             "per axis each")
        object.__setattr__(self, "terms", terms)

    @property
    def ndim(self) -> int:
        return len(self.terms[0][1])

    def __call__(self, points) -> np.ndarray:
        """(N,) values at points (N, ndim): each term's coefficient times
        axis 0, then axis 1, and the terms added in order."""
        axes = _as_points(points, self.ndim).T
        total = 0
        for coef, factors in self.terms:
            term = np.float64(coef)
            for f, x in zip(factors, axes):
                term = term * f(x)
            total = total + term
        return total


@dataclass(frozen=True, eq=False)
class Actuator:
    """Distributed actuator: spatial profile `distribution` on `support`.

    `distribution` maps points (N, ndim) to (N,) values; a `SeparableProfile`
    has its couplings formed from 1-D integrals on each axis.
    """

    support: Region
    distribution: object
    label: str = ""


@dataclass(frozen=True, eq=False)
class ActuatorSet:
    actuators: tuple[Actuator, ...]

    def __post_init__(self) -> None:
        if len(self.actuators) < 1:
            raise ValueError("need at least one actuator")
        object.__setattr__(self, "actuators", tuple(self.actuators))

    @property
    def m(self) -> int:
        return len(self.actuators)


def actuator_coefficients(actuators: ActuatorSet, basis: SpectralBasis,
                          order: int | None = None) -> np.ndarray:
    """Matrix of <profile_i, alpha_p> over each support; shape (m, n_modes).

    Each distinct support box builds its `_axis_tables` once, for all its
    users, and drops them before the next box: per axis, the Gauss rule
    (x, w) and the K x order value table F.  A `SeparableProfile` term
    coef * f_1(x_1) ... f_d(x_d) pairs with mode p as coef * prod over axes
    of (F (w f(x)))[k_p], one K x order matvec per axis; each factor is
    evaluated on its axis's nodes only.  Any other profile is called on the
    box's order^ndim tensor points and contracted one axis at a time
    (`_box_pairings`), one actuator at a time, so its row does not depend on
    the box's other users.  Each actuator's boxes are summed in support
    order.
    """
    order = default_order(basis) if order is None else order
    index = tuple(basis.modes.T - 1)
    by_box: dict[Box, list[tuple[int, int]]] = {}
    for i, actuator in enumerate(actuators.actuators):
        if actuator.support.domain is not basis.domain and \
                actuator.support.domain.bounds != basis.domain.bounds:
            raise ValueError(f"actuator {i} support lives on a different domain")
        for j, box in enumerate(actuator.support.boxes):
            by_box.setdefault(box, []).append((i, j))
    parts = [[None] * len(a.support.boxes) for a in actuators.actuators]
    for box, users in by_box.items():
        tables = _axis_tables(basis, box, order)
        for i, j in users:
            profile = actuators.actuators[i].distribution
            if isinstance(profile, SeparableProfile):
                parts[i][j] = _separable_pairings(profile, tables, index)
                continue
            points = _tensor_points([x for x, _, _, _ in tables])
            values = np.asarray(profile(points), dtype=float)
            parts[i][j] = _box_pairings(tables, index, values[None])[0]
    coeffs = np.zeros((actuators.m, len(basis.modes)))
    for i, row in enumerate(parts):
        for part in row:
            coeffs[i] += part
    return coeffs


def _separable_pairings(profile: SeparableProfile, tables, index) -> np.ndarray:
    """(n_modes,) integrals over a box of `profile` times every mode, from
    the box's `_axis_tables` and the modes' 0-based rows in them,
    `tuple(basis.modes.T - 1)`."""
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


def adjoint_gradient_coefficients(g, basis: SpectralBasis, region: Region,
                                  order: int | None = None) -> np.ndarray:
    """Spectral coordinates c_p = <g, grad alpha_p> over the region of a
    vector-field callable g, points (N, ndim) -> values (N, ndim).

    c equals the mode coefficients of the divergence-form adjoint datum,
    obtained by integration by parts — no Poisson solve.  For
    g = sum_q gamma_q grad alpha_q it is Gamma gamma, Gamma the gradient Gram
    matrix over the region.  g is called once per box, on its tensor Gauss
    points; each component's contraction reads its own column.
    """
    order = default_order(basis) if order is None else order
    ndim = basis.domain.ndim
    index = tuple(basis.modes.T - 1)
    c = np.zeros(len(basis.modes))
    for box in region.boxes:
        tables = _axis_tables(basis, box, order)
        field = np.asarray(g(_tensor_points([x for x, _, _, _ in tables])),
                           dtype=float)
        if field.ndim != 2 or field.shape[1] != ndim:
            raise ValueError("vector field must return shape (N, ndim)")
        for l in range(ndim):
            c += _box_pairings(tables, index, field.T[l:l + 1], l)[0]
    return c
