"""Dirichlet-Laplacian eigenstructure on boxes, subregions, and spatial pairings.

Everything spatial lives here: eigenpairs of the Dirichlet Laplacian on an
interval or rectangle (assembled analytically from tensor sines), axis-aligned
subregions, actuator coefficient vectors, and the Gram matrix of restricted
eigenfunction gradients that coordinatizes gradient fields on a subregion.

Two mode families:

* ``canonical`` — the complete family sin(k*pi*(x-lo)/len)*sqrt(2/len) per
  axis.  Use this for every genuine analysis.
* ``whole-wave`` — sin(k*pi*x_d) per axis, which is Dirichlet-zero only when
  the axis endpoints are integers.  On [-1,1]^2 it is the odd-symmetric HALF
  of the spectrum (it skips every cosine-type mode) and is kept solely to
  reproduce the worked example built on it; reports flag it as incomplete.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from ._quadrature import gauss_legendre_01

logger = logging.getLogger(__name__)

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

    def contains_box(self, box: Box, tol: float = 1e-12) -> bool:
        if len(box) != self.ndim:
            return False
        return all(lo >= dlo - tol and hi <= dhi + tol and lo < hi
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
        for i in range(len(boxes)):
            for j in range(i + 1, len(boxes)):
                if _boxes_overlap(boxes[i], boxes[j]):
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


def _boxes_overlap(b1: Box, b2: Box) -> bool:
    return all(lo1 < hi2 and lo2 < hi1 for (lo1, hi1), (lo2, hi2) in zip(b1, b2))


@dataclass(frozen=True, eq=False)
class Eigenpair:
    """One normalized Laplacian eigenfunction, evaluated through its basis."""

    index: tuple[int, ...]
    lam: float
    bucket: int
    basis: SpectralBasis = field(repr=False)

    def value(self, points) -> np.ndarray:
        """(N,) values at points (N, ndim)."""
        return self.basis._rows(points, (self.index,))[0]

    def gradient(self, points) -> np.ndarray:
        """(N, ndim) gradient at points (N, ndim)."""
        return np.column_stack([self.basis._rows(points, (self.index,), component)[0]
                                for component in range(self.basis.domain.ndim)])


class SpectralBasis:
    """Truncated Dirichlet eigenbasis on a box domain (K modes per axis)."""

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

        ndim = domain.ndim
        axis_indices = np.arange(1, cutoff + 1)
        if ndim == 1:
            raw = [((int(k),), self._axis_lam(0, int(k))) for k in axis_indices]
        else:
            raw = [((int(k), int(l)), self._axis_lam(0, int(k)) + self._axis_lam(1, int(l)))
                   for k in axis_indices for l in axis_indices]
        raw.sort(key=lambda item: (item[1], item[0]))

        modes: list[Eigenpair] = []
        bucket = -1
        prev_lam = None
        for index, lam in raw:
            if prev_lam is None or lam - prev_lam > BUCKET_RTOL * lam:
                bucket += 1
            prev_lam = lam
            modes.append(Eigenpair(index, lam, bucket, self))
        self.modes: tuple[Eigenpair, ...] = tuple(modes)
        self.lams = np.array([m.lam for m in modes])

    # -- per-axis factors ---------------------------------------------------

    def _axis_lam(self, axis: int, k: int) -> float:
        return (k * math.pi / self._axes[axis][1]) ** 2

    def _axis_factor(self, axis: int, k: int, x: np.ndarray,
                     derivative: bool) -> np.ndarray:
        """sin(k pi (x - origin) / period) * sqrt(2 / length), or its x-derivative."""
        lo, hi = self.domain.bounds[axis]
        origin, period = self._axes[axis]
        if derivative:
            w = k * math.pi / period
            return math.sqrt(2.0 / (hi - lo)) * w * np.cos(w * (x - origin))
        return math.sqrt(2.0 / (hi - lo)) * np.sin(k * math.pi * (x - origin) / period)

    def _rows(self, points, indices, component: int | None = None) -> np.ndarray:
        """(len(indices), N) products of per-axis factors, in axis order from
        ones, with the derivative factor on axis `component`.  Each factor
        is evaluated once per call, and only if some row uses it."""
        points = _as_points(points, self.domain.ndim)
        factors: list[dict[int, np.ndarray]] = [{} for _ in self._axes]
        rows = np.empty((len(indices), points.shape[0]))
        for r, index in enumerate(indices):
            row = np.ones(points.shape[0])
            for ax, k in enumerate(index):
                if k not in factors[ax]:
                    factors[ax][k] = self._axis_factor(ax, k, points[:, ax],
                                                       ax == component)
                row = row * factors[ax][k]
            rows[r] = row
        return rows

    # -- batch evaluation ---------------------------------------------------

    def value_matrix(self, points) -> np.ndarray:
        """(n_modes, n_points) eigenfunction values."""
        return self._rows(points, [mode.index for mode in self.modes])

    def gradient_component_matrix(self, points, component: int) -> np.ndarray:
        """(n_modes, n_points) values of d(alpha_p)/dx_component."""
        return self._rows(points, [mode.index for mode in self.modes], component)


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


def box_quadrature(box: Box, order: int):
    """Tensor Gauss-Legendre points (N, ndim) and weights (N,) for one box."""
    axes = [_box_rule_1d(lo, hi, order) for lo, hi in box]
    if len(axes) == 1:
        return axes[0][0][:, None], axes[0][1].copy()
    x1, w1 = axes[0]
    x2, w2 = axes[1]
    X1, X2 = np.meshgrid(x1, x2, indexing="ij")
    points = np.column_stack([X1.ravel(), X2.ravel()])
    weights = np.outer(w1, w2).ravel()
    return points, weights


def default_order(basis: SpectralBasis) -> int:
    # NOTE: products of two cutoff-K modes need comfortably more than 2K
    # Gauss points per axis once gradient factors enter; 4K+12 holds the
    # 1e-9 tolerances with margin.
    return 4 * basis.cutoff + 12


def region_inner_product(f, g, region: Region, order: int = 48) -> float:
    """Integral over the region of f*g (scalars) or f.g (vector fields).

    Empty regions integrate to 0 (logged as a warning, since that usually
    means a scenario mistake).
    """
    if region.is_empty:
        logger.warning("region_inner_product over an empty region returns 0")
        return 0.0
    total = 0.0
    for box in region.boxes:
        points, weights = box_quadrature(box, order)
        fv = np.asarray(f(points), dtype=float)
        gv = np.asarray(g(points), dtype=float)
        if fv.ndim == 1 and gv.ndim == 1:
            total += float(weights @ (fv * gv))
        elif fv.ndim == 2 and gv.ndim == 2:
            total += float(weights @ np.sum(fv * gv, axis=1))
        else:
            raise ValueError("f and g must both be scalar or both vector fields")
    return total


@dataclass(frozen=True, eq=False)
class GradientBasisGram:
    """Gram matrix of restricted eigenfunction gradients over a region.

    matrix[p, q] = <grad alpha_p, grad alpha_q> over the region; the
    coordinates of every gradient-space computation downstream.
    direction_norms[l, p] = ||d(alpha_p)/dx_l|| over the region, summed in
    the same pass; the strategic rank test scales the couplings by them.
    """

    basis: SpectralBasis
    region: Region
    matrix: np.ndarray
    direction_norms: np.ndarray

    def __post_init__(self) -> None:
        for name in ("matrix", "direction_norms"):
            m = np.asarray(getattr(self, name), dtype=float)
            m.setflags(write=False)
            object.__setattr__(self, name, m)


def gradient_gram(basis: SpectralBasis, region: Region,
                  order: int | None = None) -> GradientBasisGram:
    n_modes = len(basis.modes)
    order = default_order(basis) if order is None else order
    gram = np.zeros((n_modes, n_modes))
    squares = np.zeros((basis.domain.ndim, n_modes))
    for box in region.boxes:
        points, weights = box_quadrature(box, order)
        for component in range(basis.domain.ndim):
            d = basis.gradient_component_matrix(points, component)
            gram += (d * weights) @ d.T
            squares[component] += (d * d) @ weights
    gram = 0.5 * (gram + gram.T)
    return GradientBasisGram(basis, region, gram, np.sqrt(squares))


@dataclass(frozen=True, eq=False)
class Actuator:
    """Distributed actuator: spatial profile `distribution` on `support`."""

    support: Region
    distribution: object  # callable points (N, ndim) -> (N,)
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

    Cost: one `value_matrix` table (n_modes x order^ndim) per distinct support
    box, plus one profile evaluation and one matrix-vector product per
    actuator box.  Boxes are visited one at a time, so a single table is
    alive at once; each actuator's boxes are summed in support order.
    """
    order = default_order(basis) if order is None else order
    by_box: dict[Box, list[tuple[int, int]]] = {}
    for i, actuator in enumerate(actuators.actuators):
        if actuator.support.domain is not basis.domain and \
                actuator.support.domain.bounds != basis.domain.bounds:
            raise ValueError(f"actuator {i} support lives on a different domain")
        for j, box in enumerate(actuator.support.boxes):
            by_box.setdefault(box, []).append((i, j))
    parts = [[None] * len(a.support.boxes) for a in actuators.actuators]
    for box, users in by_box.items():
        points, weights = box_quadrature(box, order)
        values = basis.value_matrix(points)
        for i, j in users:
            profile = np.asarray(actuators.actuators[i].distribution(points),
                                 dtype=float)
            parts[i][j] = values @ (weights * profile)
        del values      # free this table before the next box builds its own
    coeffs = np.zeros((actuators.m, len(basis.modes)))
    for i, row in enumerate(parts):
        for part in row:
            coeffs[i] += part
    return coeffs


def adjoint_gradient_coefficients(g, basis: SpectralBasis, region: Region,
                                  order: int | None = None,
                                  gram: GradientBasisGram | None = None) -> np.ndarray:
    """Spectral coordinates c_p = <g, grad alpha_p> over the region.

    `g` is either a coefficient vector in the restricted-gradient basis
    (then c = Gram @ g, no quadrature) or a raw vector-field callable on the
    region.  Either way c equals the mode coefficients of the divergence-form
    adjoint datum, obtained by integration by parts — no Poisson solve.
    """
    order = default_order(basis) if order is None else order
    if callable(g):
        c = np.zeros(len(basis.modes))
        for box in region.boxes:
            points, weights = box_quadrature(box, order)
            field = np.asarray(g(points), dtype=float)
            if field.ndim != 2 or field.shape[1] != basis.domain.ndim:
                raise ValueError("vector field must return shape (N, ndim)")
            for component in range(basis.domain.ndim):
                d = basis.gradient_component_matrix(points, component)
                c += d @ (weights * field[:, component])
        return c
    gamma = np.asarray(g, dtype=float)
    if gram is None:
        gram = gradient_gram(basis, region, order)
    return gram.matrix @ gamma
