"""Eigenbasis geometry: orthonormality, Gram matrices, actuator projections."""

import itertools
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from _reference import gradient_component_matrix, profile_values, value_matrix
from ultradiff import spectral
from ultradiff.cli import (build_objects, parse_scenario, reproduction_scenario,
                           scenario_from_dict)
from ultradiff.spectral import (Actuator, ActuatorSet, Region,
                                RectDomain, SeparableProfile, SpectralBasis,
                                actuator_coefficients,
                                adjoint_gradient_coefficients, box_quadrature,
                                default_order, gradient_gram)


def value_gram(basis, order=None):
    order = default_order(basis) if order is None else order
    region = Region.whole(basis.domain)
    n = len(basis.modes)
    gram = np.zeros((n, n))
    for box in region.boxes:
        points, weights = box_quadrature(box, order)
        v = value_matrix(basis, points)
        gram += (v * weights) @ v.T
    return gram


@pytest.mark.parametrize("domain,family", [
    (RectDomain.interval(0.3, 1.7), "canonical"),
    (RectDomain.rectangle((0.3, 1.7), (-0.4, 0.9)), "canonical"),
    (RectDomain.rectangle((-1.0, 1.0), (-1.0, 1.0)), "whole-wave"),
])
def test_orthonormality(domain, family):
    basis = SpectralBasis(domain, 4, family)
    gram = value_gram(basis)
    assert_allclose(gram, np.eye(len(basis.modes)), rtol=0, atol=1e-9)


def test_eigenvalues_canonical():
    domain = RectDomain.rectangle((0.0, 2.0), (0.0, 0.5))
    basis = SpectralBasis(domain, 3)
    for (k, l), lam in zip(basis.modes.tolist(), basis.lams):
        assert lam == pytest.approx(
            (k * math.pi / 2.0) ** 2 + (l * math.pi / 0.5) ** 2, rel=1e-14)
    assert np.all(np.diff(basis.lams) >= 0.0)


def test_eigenvalues_and_buckets_whole_wave():
    domain = RectDomain.rectangle((-1.0, 1.0), (-1.0, 1.0))
    basis = SpectralBasis(domain, 3, "whole-wave")
    got = {tuple(index): lam / math.pi ** 2
           for index, lam in zip(basis.modes.tolist(), basis.lams)}
    for (k, l), v in got.items():
        assert v == pytest.approx(k * k + l * l, rel=1e-14)
    # degenerate levels share a bucket: 5, 10 and 13 are two-fold here
    buckets = {}
    for bucket, lam in zip(basis.buckets.tolist(), basis.lams):
        buckets.setdefault(bucket, []).append(round(lam / math.pi ** 2))
    sizes = sorted((lams[0], len(lams)) for lams in buckets.values())
    assert sizes == [(2, 1), (5, 2), (8, 1), (10, 2), (13, 2), (18, 1)]
    for lams in buckets.values():
        assert len(set(lams)) == 1


def reference_modes(domain, family, cutoff):
    """Modes, eigenvalues and buckets one mode at a time: the product of the
    per-axis indices sorted by (eigenvalue, index), where a new bucket starts
    once the eigenvalue climbs by more than BUCKET_RTOL of itself, and every
    member holds its bucket's first eigenvalue."""
    periods = [hi - lo if family == "canonical" else 1.0 for lo, hi in domain.bounds]
    raw = sorted((sum((k * math.pi / period) ** 2
                      for k, period in zip(index, periods)), index)
                 for index in itertools.product(range(1, cutoff + 1),
                                                repeat=domain.ndim))
    modes, lams, buckets = [], [], []
    prev = first = None
    for lam, index in raw:
        if prev is None or lam - prev > spectral.BUCKET_RTOL * lam:
            first = lam
            buckets.append(buckets[-1] + 1 if buckets else 0)
        else:
            buckets.append(buckets[-1])
        prev = lam
        modes.append(index)
        lams.append(first)
    return modes, lams, buckets


@pytest.mark.parametrize("cutoff", [1, 6, 20])
@pytest.mark.parametrize("domain,family", [
    (RectDomain.interval(0.3, 1.7), "canonical"),
    (RectDomain.rectangle((0.3, 1.7), (-0.4, 0.9)), "canonical"),
    (RectDomain.rectangle((-1.0, 1.0), (-1.0, 1.0)), "whole-wave"),
], ids=["1d", "rectangle", "whole-wave"])
def test_buckets_are_numbered_contiguously_along_the_modes(domain, family, cutoff):
    """The strategic test splits the modes at the starts of the bucket runs."""
    basis = SpectralBasis(domain, cutoff, family)
    modes, lams, buckets = reference_modes(domain, family, cutoff)
    assert basis.modes.shape == (cutoff ** domain.ndim, domain.ndim)
    assert np.array_equal(basis.modes, modes)
    assert basis.lams.tobytes() == np.array(lams).tobytes()
    assert basis.buckets.tolist() == buckets
    for array in (basis.modes, basis.lams, basis.buckets):
        assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0
    numbers = basis.buckets
    assert numbers[0] == 0 and set(np.diff(numbers)) <= {0, 1}
    firsts = []
    for bucket in range(numbers[-1] + 1):
        lams = set(basis.lams[numbers == bucket].tolist())
        assert len(lams) == 1
        firsts.append(lams.pop())
    for lam, following in zip(firsts, firsts[1:]):
        assert following - lam > spectral.BUCKET_RTOL * following


def test_gradient_evaluator_matches_finite_difference():
    domain = RectDomain.rectangle((0.3, 1.7), (-0.4, 0.9))
    basis = SpectralBasis(domain, 3)
    rng = np.random.default_rng(7)
    pts = np.column_stack([rng.uniform(0.4, 1.6, 40), rng.uniform(-0.3, 0.8, 40)])
    h = 1e-6
    for component in range(2):
        shift = np.zeros(2)
        shift[component] = h
        grad = gradient_component_matrix(basis, pts, component)[:5]
        fd = (value_matrix(basis, pts + shift)[:5]
              - value_matrix(basis, pts - shift)[:5]) / (2.0 * h)
        assert_allclose(grad, fd, rtol=0, atol=5e-5)


def reference_axis_factor(domain, family, axis, k, x, derivative):
    """One per-axis sine factor or its derivative, written out per family."""
    lo, hi = domain.bounds[axis]
    length = hi - lo
    if family == "canonical":
        if derivative:
            w = k * math.pi / length
            return math.sqrt(2.0 / length) * w * np.cos(w * (x - lo))
        return math.sqrt(2.0 / length) * np.sin(k * math.pi * (x - lo) / length)
    if derivative:
        w = k * math.pi
        return math.sqrt(2.0 / length) * w * np.cos(w * x)
    return math.sqrt(2.0 / length) * np.sin(k * math.pi * x)


@pytest.mark.parametrize("domain,family", [
    (RectDomain.rectangle((0.3, 1.7), (-0.4, 0.9)), "canonical"),
    (RectDomain.rectangle((-1.0, 1.0), (-1.0, 1.0)), "whole-wave"),
], ids=["canonical", "whole-wave"])
def test_mode_evaluators_match_per_axis_reference(domain, family):
    # every evaluator multiplies the same factors in axis order from ones,
    # so each agrees with the written-out product bit for bit
    basis = SpectralBasis(domain, 3, family)
    rng = np.random.default_rng(3)
    pts = np.column_stack([rng.uniform(lo, hi, 25) for lo, hi in domain.bounds])

    def reference(index, component=None):
        row = np.ones(len(pts))
        for ax, k in enumerate(index):
            row = row * reference_axis_factor(domain, family, ax, k, pts[:, ax],
                                              ax == component)
        return row

    vm = value_matrix(basis, pts)
    for p, index in enumerate(basis.modes.tolist()):
        assert np.array_equal(vm[p], reference(index))
    for component in range(2):
        dm = gradient_component_matrix(basis, pts, component)
        for p, index in enumerate(basis.modes.tolist()):
            assert np.array_equal(dm[p], reference(index, component))


def test_gradient_gram_symmetric_psd():
    domain = RectDomain.rectangle((0.0, 1.0), (0.0, 1.0))
    basis = SpectralBasis(domain, 4)
    region = Region.box(domain, (0.1, 0.62), (0.25, 0.8))
    factor = gradient_gram(basis, region).factor
    gram = factor.T @ factor
    assert np.array_equal(gram, gram.T)
    eigs = np.linalg.eigvalsh(gram)
    assert eigs.min() >= -1e-12 * max(eigs.max(), 1.0)


@pytest.mark.parametrize("domain,family", [
    (RectDomain.interval(0.0, 1.0), "canonical"),
    (RectDomain.rectangle((0.0, 1.0), (0.0, 1.0)), "canonical"),
])
def test_whole_domain_gradient_gram_is_diagonal_of_eigenvalues(domain, family):
    # integration by parts: <grad a_p, grad a_q>_Omega = lam_p delta_pq
    basis = SpectralBasis(domain, 4, family)
    factor = gradient_gram(basis, Region.whole(domain)).factor
    gram = factor.T @ factor
    assert_allclose(gram, np.diag(basis.lams), rtol=0,
                    atol=1e-9 * basis.lams.max())


def _ones(ndim):
    return SeparableProfile(((1.0, (np.ones_like,) * ndim),))


def _bumpy(ndim):
    """1 + (x_1 ... x_ndim)^2, as two separable terms."""
    return SeparableProfile(((1.0, (np.ones_like,) * ndim),
                             (1.0, (np.square,) * ndim)))


def _coordinate(ndim, axis):
    """The coordinate x_axis as a separable profile."""
    return SeparableProfile(((1.0, tuple((lambda x: x) if ax == axis else np.ones_like
                                         for ax in range(ndim))),))


def test_box_pairings_closed_form():
    # canonical modes 2 sin(k pi x) sin(l pi y) on the unit square, paired
    # over the quadrant [0, h]^2 with the profile 1 and with the field (x, y)
    domain = RectDomain.rectangle((0.0, 1.0), (0.0, 1.0))
    basis = SpectralBasis(domain, 3)
    h = 0.5
    region = Region.box(domain, (0.0, h), (0.0, h))
    acts = ActuatorSet((Actuator(region, _ones(2)),))
    means = actuator_coefficients(acts, basis)[0]
    field = (_coordinate(2, 0), _coordinate(2, 1))
    pairings = adjoint_gradient_coefficients(field, basis, region)

    def sine(k):        # int_0^h sin(k pi x) dx
        return (1.0 - math.cos(k * math.pi * h)) / (k * math.pi)

    def slope(k):       # int_0^h x d/dx sin(k pi x) dx
        return h * math.sin(k * math.pi * h) - sine(k)

    for p, (k, l) in enumerate(basis.modes.tolist()):
        assert_allclose(means[p], 2.0 * sine(k) * sine(l), rtol=1e-13)
        assert_allclose(pairings[p], 2.0 * (slope(k) * sine(l) + sine(k) * slope(l)),
                        rtol=1e-12, atol=1e-15)


def test_empty_region_integrates_to_zero():
    domain = RectDomain.interval(0.0, 1.0)
    region = Region(domain, ())
    assert region.is_empty
    basis = SpectralBasis(domain, 3)
    acts = ActuatorSet((Actuator(region, _ones(1)),))
    assert np.all(actuator_coefficients(acts, basis) == 0.0)
    assert np.all(adjoint_gradient_coefficients((_ones(1),), basis, region) == 0.0)


def test_region_measure_and_containment():
    domain = RectDomain.rectangle((0.0, 2.0), (0.0, 1.0))
    region = Region.box(domain, (0.5, 1.5), (0.25, 0.75))
    assert region.measure == pytest.approx(0.5)
    assert Region.whole(domain).measure == pytest.approx(2.0)
    with pytest.raises(ValueError):
        Region.box(domain, (0.5, 2.5), (0.0, 1.0))


def test_actuator_coefficients_mode_profile_is_unit_row():
    domain = RectDomain.rectangle((0.0, 1.0), (0.0, 1.0))
    basis = SpectralBasis(domain, 3)
    acts = ActuatorSet((Actuator(Region.whole(domain), basis.mode_profile(4),
                                 "modal"),))
    row = actuator_coefficients(acts, basis)[0]
    expected = np.zeros(len(basis.modes))
    expected[4] = 1.0
    assert_allclose(row, expected, rtol=0, atol=1e-9)


def test_actuator_coefficients_box_constant_closed_form():
    # <1_[c,d], sqrt(2) sin(k pi x)> = sqrt(2) (cos(k pi c) - cos(k pi d)) / (k pi)
    domain = RectDomain.interval(0.0, 1.0)
    basis = SpectralBasis(domain, 5)
    c, d = 0.2, 0.7
    acts = ActuatorSet((Actuator(Region.box(domain, (c, d)), _ones(1), "zone"),))
    row = actuator_coefficients(acts, basis)[0]
    for p, (k,) in enumerate(basis.modes.tolist()):
        exact = math.sqrt(2.0) * (math.cos(k * math.pi * c)
                                  - math.cos(k * math.pi * d)) / (k * math.pi)
        assert_allclose(row[p], exact, rtol=0, atol=1e-12)


def _per_actuator_coefficients(actuators, basis):
    # reference loop: one table per actuator box, on the profile's values at
    # the box's tensor points
    order = default_order(basis)
    coeffs = np.zeros((actuators.m, len(basis.modes)))
    for i, actuator in enumerate(actuators.actuators):
        for box in actuator.support.boxes:
            points, weights = box_quadrature(box, order)
            profile = profile_values(actuator.distribution, points)
            coeffs[i] += value_matrix(basis, points) @ (weights * profile)
    return coeffs


def _shared_box_actuators(domain, basis, boxes):
    a, b, c, d = boxes        # a overlaps b; c and d are disjoint from a
    ones, bumpy = _ones(domain.ndim), _bumpy(domain.ndim)
    return ActuatorSet((
        Actuator(Region.whole(domain), basis.mode_profile(2), "mode"),
        Actuator(Region(domain, (a,)), ones, "zone"),
        Actuator(Region(domain, (b,)), bumpy, "overlapping"),
        Actuator(Region(domain, (a,)), bumpy, "same-box"),
        Actuator(Region(domain, (c, a)), ones, "two-box"),
        Actuator(Region(domain, (a, c, d)), bumpy, "three-box"),
        Actuator(Region(domain, (d, c, a)), bumpy, "three-box-reversed"),
        Actuator(Region.whole(domain), basis.mode_profile(3), "cli-mode"),
    ))


@pytest.mark.parametrize("domain,boxes", [
    (RectDomain.interval(0.0, 1.0),
     (((0.3, 0.6),), ((0.5, 0.9),), ((0.0, 0.2),), ((0.7, 1.0),))),
    (RectDomain.rectangle((0.0, 1.0), (-0.5, 0.5)),
     (((0.3, 0.6), (-0.5, 0.0)), ((0.5, 0.9), (-0.2, 0.5)),
      ((0.0, 0.2), (-0.5, 0.5)), ((0.7, 1.0), (0.1, 0.4)))),
])
def test_actuator_coefficients_share_one_table_per_box(domain, boxes,
                                                       monkeypatch):
    basis = SpectralBasis(domain, 4)
    acts = _shared_box_actuators(domain, basis, boxes)
    expected = _per_actuator_coefficients(acts, basis)

    calls = []
    axis_tables = spectral._axis_tables

    def counted(basis, box, order):
        calls.append(box)
        return axis_tables(basis, box, order)

    monkeypatch.setattr(spectral, "_axis_tables", counted)
    got = actuator_coefficients(acts, basis)
    distinct = {box for a in acts.actuators for box in a.support.boxes}
    assert len(calls) == len(distinct) == 5
    # the per-axis sums run in another order than the N-point products
    assert np.max(np.abs(got - expected)) <= 1e-14 * np.max(np.abs(expected))


def _n_point_reference(basis, region, acts, field):
    """Couplings, Gamma, direction norms and <field, grad alpha_p> from
    (n_modes, N) tables and the profiles' values on the tensor points of
    each box."""
    order = default_order(basis)
    ndim, n_modes = basis.domain.ndim, len(basis.modes)
    gram = np.zeros((n_modes, n_modes))
    squares = np.zeros((ndim, n_modes))
    adjoint = np.zeros(n_modes)
    for box in region.boxes:
        points, weights = box_quadrature(box, order)
        for component in range(ndim):
            d = gradient_component_matrix(basis, points, component)
            gram += (d * weights) @ d.T
            squares[component] += (d * d) @ weights
            adjoint += d @ (weights * profile_values(field[component], points))
    return (_per_actuator_coefficients(acts, basis), gram, np.sqrt(squares),
            adjoint)


def _polynomial_field(ndim):
    """Component c is (c + 1) (1 + (x_1 ... x_ndim)^2) + x_c."""
    return tuple(SeparableProfile(tuple((c + 1.0, factors) for _, factors
                                        in _bumpy(ndim).terms)
                                  + _coordinate(ndim, c).terms)
                 for c in range(ndim))


@pytest.mark.parametrize("domain,family,boxes", [
    (RectDomain.interval(0.0, 1.0), "canonical",
     (((0.1, 0.4),), ((0.5, 0.9),))),
    (RectDomain.rectangle((0.3, 1.7), (-0.4, 0.9)), "canonical",
     (((0.4, 0.8), (-0.4, 0.1)), ((0.9, 1.6), (0.2, 0.9)))),
    (RectDomain.rectangle((-1.0, 1.0), (-1.0, 1.0)), "whole-wave",
     (((0.0, 1.0), (0.0, 1.0)), ((-1.0, 0.0), (-0.5, 0.5)))),
], ids=["interval", "two-box-rectangle", "whole-wave-square"])
def test_separable_box_integrals_match_n_point_reference(domain, family, boxes):
    """Couplings, Gamma, its direction norms and the adjoint pairings of a
    vector field contract per-axis tables and build no (n_modes, N) table,
    and agree with the N-point sums to roundoff; Gamma is checked as the
    product R^T R of its upper triangular factor."""
    basis = SpectralBasis(domain, 6, family)
    region = Region(domain, boxes)
    acts = ActuatorSet((
        Actuator(Region.whole(domain), basis.mode_profile(2), "mode"),
        Actuator(region, _bumpy(domain.ndim), "bumpy"),
        Actuator(Region(domain, boxes[1:]), _ones(domain.ndim), "zone"),
    ))
    field = _polynomial_field(domain.ndim)
    reference = _n_point_reference(basis, region, acts, field)
    gram = gradient_gram(basis, region)
    factor = gram.factor
    assert np.array_equal(factor, np.triu(factor))
    got = (actuator_coefficients(acts, basis), factor.T @ factor,
           gram.direction_norms,
           adjoint_gradient_coefficients(field, basis, region))
    for name, value, expected in zip(("couplings", "gram", "norms", "adjoint"),
                                     got, reference):
        err = np.max(np.abs(value - expected))
        assert err <= 1e-14 * np.max(np.abs(expected)), name


def test_gradient_gram_refuses_an_empty_region():
    """An empty region has no Gram factor to solve with."""
    domain = RectDomain.rectangle((0.0, 1.0), (0.0, 1.0))
    with pytest.raises(ValueError, match="region .* is empty"):
        gradient_gram(SpectralBasis(domain, 3), Region(domain, ()))


def test_actuator_domain_mismatch_raises():
    basis = SpectralBasis(RectDomain.interval(0.0, 1.0), 3)
    other = RectDomain.interval(0.0, 2.0)
    acts = ActuatorSet((Actuator(Region.whole(other), _ones(1)),))
    with pytest.raises(ValueError, match="different domain"):
        actuator_coefficients(acts, basis)


def test_adjoint_gradient_coefficients_both_entry_points():
    domain = RectDomain.rectangle((0.0, 1.0), (0.0, 1.0))
    basis = SpectralBasis(domain, 3)
    region = Region.box(domain, (0.0, 0.6), (0.2, 1.0))
    gram = gradient_gram(basis, region)
    rng = np.random.default_rng(11)
    gamma = rng.standard_normal(len(basis.modes))

    # for g = sum_q gamma_q grad alpha_q the pairings give Gamma gamma;
    # component l of g is a sum of one separable term per mode
    field = tuple(SeparableProfile(tuple(
        (g, tuple(lambda x, ax=ax, k=k, slope=ax == l:
                  spectral._sine(*basis._axes[ax], k, x, slope)
                  for ax, k in enumerate(index)))
        for g, index in zip(gamma, basis.modes.tolist()))) for l in range(2))

    c_fn = adjoint_gradient_coefficients(field, basis, region)
    assert_allclose(c_fn, gram.factor.T @ gram.factor @ gamma, rtol=0, atol=1e-8)


@pytest.mark.parametrize("field,got", [
    ((), "a tuple of 0"),
    ((_ones(2),), "a tuple of 1"),
    ((_ones(2),) * 3, "a tuple of 3"),
    (lambda p: np.ones_like(p), "function"),
    ([_ones(2)] * 2, "list"),
], ids=["none", "one", "three", "callable", "list"])
def test_adjoint_gradient_coefficients_refuses_a_field_of_the_wrong_size(field, got):
    """A 2-D vector field is a tuple of exactly two SeparableProfiles."""
    domain = RectDomain.rectangle((0.0, 1.0), (0.0, 1.0))
    with pytest.raises(ValueError, match=f"tuple of 2 SeparableProfiles.*got {got}"):
        adjoint_gradient_coefficients(field, SpectralBasis(domain, 3),
                                      Region.whole(domain))


def test_adjoint_field_is_called_once_per_box():
    # each factor of each component of the field (y, x^2) is called once per
    # box, on its axis's Gauss nodes only: no tensor points
    domain = RectDomain.rectangle((0.0, 1.0), (0.0, 1.0))
    basis = SpectralBasis(domain, 3)
    region = Region(domain, (((0.0, 0.5), (0.0, 1.0)), ((0.5, 1.0), (0.25, 0.75))))
    calls = []

    def counted(f):
        def factor(x):
            calls.append(x.shape)
            return f(x)
        return factor

    field = (SeparableProfile(((1.0, (counted(np.ones_like), counted(lambda y: y))),)),
             SeparableProfile(((1.0, (counted(np.square), counted(np.ones_like))),)))
    pairings = adjoint_gradient_coefficients(field, basis, region)
    # two boxes, two components, two factors each
    assert calls == [(default_order(basis),)] * 8
    # the same pairings, box by box
    assert_allclose(pairings, sum(
        adjoint_gradient_coefficients(field, basis, Region(domain, (box,)))
        for box in region.boxes), rtol=1e-14, atol=1e-15)


def test_whole_wave_modes_have_zero_mean():
    # every whole-wave mode integrates to zero over the full box
    domain = RectDomain.rectangle((-1.0, 1.0), (-1.0, 1.0))
    basis = SpectralBasis(domain, 4, "whole-wave")
    constant = SeparableProfile(((1.0, (np.ones_like,) * 2),))
    means = actuator_coefficients(
        ActuatorSet((Actuator(Region.whole(domain), constant, "zone"),)), basis)[0]
    assert np.max(np.abs(means)) <= 1e-12


def test_construction_validation():
    domain = RectDomain.interval(0.0, 1.0)
    with pytest.raises(ValueError, match="cutoff"):
        SpectralBasis(domain, 0)
    with pytest.raises(ValueError, match="family"):
        SpectralBasis(domain, 2, "fourier")
    with pytest.raises(ValueError, match="integer axis endpoints"):
        SpectralBasis(RectDomain.interval(0.0, 1.5), 2, "whole-wave")
    assert SpectralBasis(domain, 3).modes.tolist() == [[1], [2], [3]]


# -- separable profiles: couplings from 1-D integrals ------------------------

PROFILE_COEFFICIENTS = {   # per kind, the scenario coefficients in 1-D and 2-D
    "constant": ([0.8], [0.8]),
    "polynomial": ([1.5, 2.0, -0.7, 3.0, 0.3, 5.0],
                   [1.5, 2.0, 1.0, -0.7, 0.0, 3.0, 0.3, 5.0, 2.0]),
    "product-of-sines": ([1.3, 2.0], [1.3, 2.0, 3.0]),
    "mode": ([3.0], [3.0]),
}

PROFILE_DOMAINS = {        # domain, two disjoint boxes inside it
    "1d": ([[0.2, 1.4]], [[[0.3, 0.8]], [[0.9, 1.4]]]),
    "2d": ([[0.0, 1.0], [-0.5, 0.5]],
           [[[0.1, 0.6], [-0.5, 0.2]], [[0.6, 1.0], [0.0, 0.5]]]),
}


def _cli_actuators(kind, dim, supports):
    """basis and CLI-built actuators of profile `kind`, one per support."""
    bounds, _ = PROFILE_DOMAINS[dim]
    coeffs = PROFILE_COEFFICIENTS[kind][dim == "2d"]
    scenario = scenario_from_dict({
        "name": "profiles", "task": "analyze", "domain": bounds,
        "cutoff": 5, "alpha": 0.7, "window": [1.0, 2.5], "region": [bounds],
        "actuators": [{"support": support, "profile": kind,
                       "coefficients": coeffs} for support in supports]})
    _, basis, _, acts = build_objects(scenario)
    return basis, acts


def _assert_couplings_match(got, expected):
    # the 1-D integrals sum the nodes in another order than the N-point sums
    assert np.max(np.abs(got - expected)) <= 1e-15 * np.max(np.abs(expected))


@pytest.mark.parametrize("dim", sorted(PROFILE_DOMAINS))
@pytest.mark.parametrize("kind", sorted(PROFILE_COEFFICIENTS))
def test_separable_grid_couplings_equal_pointwise(kind, dim):
    """One-box, multi-box and whole-domain supports: the couplings from 1-D
    integrals equal the N-point sums of the same profile's values at the
    tensor points (`profile_values`)."""
    bounds, (a, b) = PROFILE_DOMAINS[dim]
    basis, acts = _cli_actuators(kind, dim, [[a], [a, b], [b, a], [bounds]])
    assert all(isinstance(x.distribution, SeparableProfile)
               for x in acts.actuators)
    got = actuator_coefficients(acts, basis)
    assert np.max(np.abs(got)) > 1e-2
    _assert_couplings_match(got, _per_actuator_coefficients(acts, basis))


@pytest.mark.parametrize("dim", sorted(PROFILE_DOMAINS))
@pytest.mark.parametrize("kind", sorted(PROFILE_COEFFICIENTS))
def test_box_shared_by_separable_and_opaque_users(kind, dim):
    """CLI-built profiles share their boxes with hand-built ones: every row
    matches the N-point sums, and no row depends on the box's other users."""
    bounds, (a, b) = PROFILE_DOMAINS[dim]
    basis, acts = _cli_actuators(kind, dim, [[a], [a, b]])
    domain = basis.domain
    others = ActuatorSet((Actuator(Region(domain, (a,)), _bumpy(domain.ndim), "bumpy"),
                          Actuator(Region(domain, (b, a)), _ones(domain.ndim),
                                   "ones-two-box")))
    mixed = ActuatorSet(acts.actuators + others.actuators)
    got = actuator_coefficients(mixed, basis)
    _assert_couplings_match(got, _per_actuator_coefficients(mixed, basis))
    assert np.array_equal(got[:2], actuator_coefficients(acts, basis))
    assert np.array_equal(got[2:], actuator_coefficients(others, basis))


@pytest.mark.parametrize("dim", sorted(PROFILE_DOMAINS))
def test_separable_profiles_match_their_closed_forms(dim):
    """Pointwise values (the tests' `profile_values`): coefficient first,
    then axis 0, then axis 1."""
    bounds, (box, _) = PROFILE_DOMAINS[dim]
    points, _ = box_quadrature(tuple(map(tuple, box)), 7)
    basis, _ = _cli_actuators("constant", dim, [[box]])
    profiles = {kind: _cli_actuators(kind, dim, [[box]])[1].actuators[0]
                .distribution for kind in PROFILE_COEFFICIENTS}
    assert np.array_equal(profile_values(profiles["constant"], points),
                          np.full(len(points), 0.8))
    poly = PROFILE_COEFFICIENTS["polynomial"][dim == "2d"]
    ndim = len(bounds)
    expected = 0.0
    for j in range(0, len(poly), 1 + ndim):
        term = np.full(len(points), poly[j])
        for ax in range(ndim):
            term = term * points[:, ax] ** poly[j + 1 + ax]
        expected = expected + term
    assert np.array_equal(profile_values(profiles["polynomial"], points), expected)
    amp, *ks = PROFILE_COEFFICIENTS["product-of-sines"][dim == "2d"]
    sines = amp * np.prod([np.sin(k * math.pi * (points[:, ax] - lo) / (hi - lo))
                           for ax, (k, (lo, hi)) in enumerate(zip(ks, bounds))],
                          axis=0)
    assert_allclose(profile_values(profiles["product-of-sines"], points), sines,
                    rtol=1e-15, atol=1e-15)
    assert_allclose(profile_values(profiles["mode"], points),
                    value_matrix(basis, points)[3],
                    rtol=1e-15, atol=1e-15)


def test_actuator_refuses_a_profile_that_is_not_separable():
    """Every profile is a SeparableProfile; a callable on points is refused
    with the type it got."""
    whole = Region.whole(RectDomain.interval(0.0, 1.0))
    with pytest.raises(TypeError, match="must be a SeparableProfile, got function"):
        Actuator(whole, lambda p: np.ones(p.shape[0]))
    with pytest.raises(TypeError, match="SeparableProfile, got ndarray"):
        Actuator(whole, np.ones(3))
    assert Actuator(whole, _ones(1)).distribution.ndim == 1


def test_separable_profile_validates_its_axes():
    with pytest.raises(ValueError, match="one factor per axis"):
        SeparableProfile(((1.0, (np.ones_like,)), (1.0, (np.ones_like,) * 2)))
    interval = RectDomain.interval(0.0, 1.0)
    profile = SeparableProfile(((1.0, (np.ones_like,) * 2),))
    with pytest.raises(ValueError, match="2 node arrays"):
        actuator_coefficients(ActuatorSet((Actuator(Region.whole(interval),
                                                    profile),)),
                              SpectralBasis(interval, 3))
    square = RectDomain.rectangle((0.0, 1.0), (0.0, 1.0))
    scalar = SeparableProfile(((1.0, (np.ones_like, lambda y: 1.0)),))
    with pytest.raises(ValueError, match="one factor value per node"):
        actuator_coefficients(ActuatorSet((Actuator(Region.whole(square),
                                                    scalar),)),
                              SpectralBasis(square, 3))


def test_cli_profiles_need_neither_mode_values_nor_tensor_points(monkeypatch):
    """hum-demo's mode actuators and the worked example's constant zone
    actuator couple from per-axis node values alone."""
    repo = Path(__file__).resolve().parents[1]
    objects = (build_objects(parse_scenario(str(repo / "scenarios" / "hum-demo.json"))),
               build_objects(reproduction_scenario()))

    def refuse(*args, **kwargs):
        raise AssertionError("evaluated at the tensor points")

    monkeypatch.setattr(spectral, "box_quadrature", refuse)
    for _, basis, _, acts in objects:
        coeffs = actuator_coefficients(acts, basis)
        assert coeffs.shape == (acts.m, len(basis.modes))
        assert np.all(np.isfinite(coeffs)) and np.max(np.abs(coeffs)) > 0.1


def test_modal_couplings_hold_no_profile_grid():
    """K = 24 whole-square mode actuators (576 of them, order 108): the
    couplings from 1-D integrals peak under 8 MiB, the 2.5 MiB output and
    one row per actuator box, where one (users, order, order) profile grid
    is 51 MiB."""
    cutoff = 24
    square = [[0.0, 1.0], [0.0, 1.0]]
    scenario = scenario_from_dict({
        "name": "modal", "task": "analyze", "domain": square, "cutoff": cutoff,
        "alpha": 0.7, "window": [1.0, 4.0], "region": [square],
        "actuators": [{"support": [square], "profile": "mode",
                       "coefficients": [p]} for p in range(cutoff * cutoff)]})
    _, basis, _, acts = build_objects(scenario)
    tracemalloc.start()
    try:
        coeffs = actuator_coefficients(acts, basis)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert_allclose(coeffs, np.eye(acts.m), rtol=0, atol=1e-12)
    assert peak < 8 * 2 ** 20
