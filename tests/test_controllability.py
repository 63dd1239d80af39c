"""Gramian assembly, duality, strategic rank tests, worked-example tables.

The frozen Gramian entries come from 160-digit tanh-sinh quadrature of the
squared-kernel integrand (series kernel evaluation with a precomputed
reciprocal-gamma table, actuator row from the hand closed form).
"""

import dataclasses
import logging
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import svd

from _reference import gradient_component_matrix, profile_values, value_matrix
from ultradiff._quadrature import kernel_rule
from ultradiff.cli import build_objects, parse_scenario, scenario_from_dict
from ultradiff.controllability import (RANK_RTOL, StrategicBucket,
                                       StrategicReport, _kernel_directions,
                                       _khatri_rao_qr,
                                       approx_controllability_verdict,
                                       assemble_gramian, strategic_test,
                                       worked_example_pairing_table)
from ultradiff.hum import (HumProblem, kept_eigenpairs, solve_hum,
                           verify_minimality)
from ultradiff.logtime import LogTimeWindow
from ultradiff.mittag_leffler import ml_on_negative_axis
from ultradiff.solver import (KERNEL_NODES, ControlSignal, EnergyDivergenceError,
                              _InputMap, _ml_matrix, forced_solution)
from ultradiff.spectral import (Actuator, ActuatorSet, Region,
                                RectDomain, SeparableProfile, SpectralBasis,
                                actuator_coefficients,
                                box_quadrature, default_order, gradient_gram)

WINDOW = LogTimeWindow(1.0, 2.5)
DOMAIN_1D = RectDomain.interval(0.0, 1.0)
SQUARE = RectDomain.rectangle((-1.0, 1.0), (-1.0, 1.0))
ONE_1D = SeparableProfile(((1.0, (np.ones_like,)),))
ONE_2D = SeparableProfile(((1.0, (np.ones_like,) * 2),))
RAMP = SeparableProfile(((1.0, (lambda x: x,)),))          # x on an interval
X_PLUS_2Y = SeparableProfile(((1.0, (lambda x: x, np.ones_like)),
                              (2.0, (np.ones_like, lambda y: y))))
SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

# alpha=0.7, K=2 on [0,1], whole-domain region, one constant zone actuator
# on [0.15, 0.7]; W[p][q] = d_p d_q int tau^(2a-2) E_p E_q e^tau/b dtau
FROZEN_W = np.array([
    [0.0360294988032790624111151, 0.00655806249298791582498674],
    [0.00655806249298791582498674, 0.001490869526185069431461371],
])


def single_zone_setup():
    basis = SpectralBasis(DOMAIN_1D, 2)
    acts = ActuatorSet((Actuator(Region.box(DOMAIN_1D, (0.15, 0.7)),
                                 ONE_1D, "zone"),))
    return basis, acts


def test_gramian_matches_frozen_quadrature():
    basis, acts = single_zone_setup()
    g = assemble_gramian(basis, Region.whole(DOMAIN_1D), acts, 0.7, WINDOW)
    assert_allclose(g.matrix, FROZEN_W, rtol=1e-8)


def test_gramian_is_symmetric_psd():
    basis, acts = single_zone_setup()
    g = assemble_gramian(basis, Region.box(DOMAIN_1D, (0.2, 0.9)), acts, 0.7, WINDOW)
    assert np.array_equal(g.matrix, g.matrix.T)
    pencil = g.pencil_eigenvalues
    assert pencil.min() >= -1e-12 * max(pencil.max(), 1.0)
    assert pencil[-1] >= pencil[0] and not pencil.flags.writeable
    # the Gramian is its input map: W is its own read-only array, summed once
    assert g.matrix is g.matrix and not g.matrix.flags.writeable
    assert isinstance(g, _InputMap) and g.kernel_nodes == 160
    assert not hasattr(g, "input_map")
    assert type(g.with_nodes(96)) is _InputMap


def test_divergence_refusal_and_epsilon_validation():
    basis, acts = single_zone_setup()
    region = Region.whole(DOMAIN_1D)
    with pytest.raises(EnergyDivergenceError) as err:
        assemble_gramian(basis, region, acts, 0.5, WINDOW)
    assert err.value.alpha == 0.5
    g = assemble_gramian(basis, region, acts, 0.5, WINDOW, epsilon=1e-3)
    assert np.all(np.isfinite(g.matrix))
    assert g.epsilon_cutoff == 1e-3
    with pytest.raises(ValueError, match="epsilon cutoff"):
        assemble_gramian(basis, region, acts, 0.5, WINDOW, epsilon=WINDOW.length * 2)
    with pytest.raises(ValueError, match="alpha"):
        assemble_gramian(basis, region, acts, 1.3, WINDOW)


def test_gramian_state_identity():
    # driving the system with the adjoint kernel control lands exactly on W v
    basis, acts = single_zone_setup()
    g = assemble_gramian(basis, Region.whole(DOMAIN_1D), acts, 0.7, WINDOW)
    rng = np.random.default_rng(17)
    d = g.coefficient_matrix
    for _ in range(5):
        v = rng.standard_normal(len(basis.modes))

        def smooth(tau):
            tau = np.asarray(tau, dtype=float)
            E = ml_on_negative_axis(
                0.7, 0.7, (-basis.lams[:, None] * tau[None, :] ** 0.7).ravel()
            ).reshape(len(basis.modes), tau.size)
            return (d @ (E * v[:, None])) * (np.exp(tau) / WINDOW.b)

        u = ControlSignal.from_smooth_part(smooth, WINDOW, 0.7)
        state = forced_solution(acts, basis, u, 0.7, WINDOW, WINDOW.b)
        assert_allclose(state, g.matrix @ v, rtol=1e-9)


def test_input_to_state_duality():
    # <H u, v> = int_a^b sum_i u_i(t) (H* v)_i(t) dt for 20 random pairs
    basis, acts = single_zone_setup()
    d = actuator_coefficients(acts, basis)
    rng = np.random.default_rng(23)
    taus, weights = kernel_rule(0.7, 0.7 - 1.0, length=WINDOW.length)
    E = ml_on_negative_axis(
        0.7, 0.7, (-basis.lams[:, None] * taus[None, :] ** 0.7).ravel()
    ).reshape(len(basis.modes), taus.size)
    for _ in range(20):
        a0, a1, a2 = rng.uniform(-1.0, 1.0, 3)
        fn = lambda tau: a0 + a1 * np.cos(tau) + a2 * tau ** 2
        u = ControlSignal(WINDOW, 0.7, fn)
        v = rng.standard_normal(len(basis.modes))
        lhs = float(forced_solution(acts, basis, u, 0.7, WINDOW, WINDOW.b) @ v)
        channel = d @ (E * v[:, None])             # (m, n_taus)
        rhs = float(weights @ (u.evaluate_tau(taus) * channel).sum(axis=0))
        assert_allclose(lhs, rhs, rtol=1e-7, atol=1e-12)


def test_adjoint_observation_profile_and_refusal():
    # the input map's control is H* v: (1/t) tau^(a-1) D (E_aa(-lam tau^a) o v)
    basis, acts = single_zone_setup()
    d = actuator_coefficients(acts, basis)
    v = np.array([0.8, -0.3])
    alpha = 0.7
    t = 1.8
    tau = math.log(WINDOW.b / t)
    E = ml_on_negative_axis(alpha, alpha, -basis.lams * tau ** alpha)
    expected = (d @ (E * v)) * tau ** (alpha - 1.0) / t
    control = _InputMap(d, basis.lams, alpha, WINDOW, KERNEL_NODES).control(v)
    got = control.evaluate_time(np.array([1.5, t, 2.2]))
    assert got.shape == (1, 3)
    assert_allclose(got[:, 1], expected, rtol=1e-13)
    with pytest.raises(ValueError, match="tau <= 0"):
        control.evaluate_time(np.array([WINDOW.b]))
    # no singular prefactor in the classical limit
    classical = _InputMap(d, basis.lams, 1.0, WINDOW, KERNEL_NODES).control(v)
    assert_allclose(classical.smooth_at_tau(np.array([0.0]))[:, 0],
                    (d @ v) / WINDOW.b, rtol=1e-13)


def test_adding_actuators_never_shrinks_the_margin():
    basis = SpectralBasis(DOMAIN_1D, 3)
    region = Region.box(DOMAIN_1D, (0.1, 0.8))
    first = Actuator(Region.box(DOMAIN_1D, (0.1, 0.5)),
                     ONE_1D, "a")
    second = Actuator(Region.box(DOMAIN_1D, (0.4, 0.95)),
                      RAMP, "b")
    g1 = assemble_gramian(basis, region, ActuatorSet((first,)), 0.7, WINDOW)
    g2 = assemble_gramian(basis, region, ActuatorSet((first, second)), 0.7, WINDOW)
    assert np.all(g2.pencil_eigenvalues >= g1.pencil_eigenvalues - 1e-12)


def test_one_dimensional_rank_and_spectral_verdicts_agree():
    # ten deterministic random configurations; the exact rank criterion and
    # the Gramian margin must reach the same conclusion on each
    basis = SpectralBasis(DOMAIN_1D, 4)
    for seed in range(10):
        rng = np.random.default_rng(seed)
        lo = rng.uniform(0.0, 0.45)
        hi = rng.uniform(lo + 0.25, 1.0)
        region = Region.box(DOMAIN_1D, (lo, hi))
        actuators = []
        for i in range(int(rng.integers(1, 4))):
            alo = rng.uniform(0.0, 0.55)
            ahi = rng.uniform(alo + 0.2, 1.0)
            c0, c1 = rng.uniform(0.4, 1.5), rng.uniform(-0.5, 0.5)
            profile = SeparableProfile(((c0, (np.ones_like,)), (c1, (lambda x: x,))))
            actuators.append(Actuator(Region.box(DOMAIN_1D, (alo, ahi)), profile,
                                      f"a{i}"))
        acts = ActuatorSet(tuple(actuators))
        report = strategic_test(basis, region, acts, alpha=0.7, window=WINDOW)
        verdict = approx_controllability_verdict(
            assemble_gramian(basis, region, acts, 0.7, WINDOW))
        assert report.criterion == "exact"
        assert report.strategic == verdict.controllable, f"seed {seed}"
        assert report.strategic  # these draws all couple every mode


def test_mode_orthogonal_actuator_fails_both_tests():
    # profile sin(2 pi x) couples only to the second mode, so modes 1, 3, 4
    # are invisible: the rank test and the Gramian must both say NOT
    basis = SpectralBasis(DOMAIN_1D, 4)
    region = Region.box(DOMAIN_1D, (0.2, 0.9))
    sine = SeparableProfile(((1.0, (lambda x: np.sin(2.0 * math.pi * x),)),))
    acts = ActuatorSet((Actuator(Region.whole(DOMAIN_1D), sine, "orthogonal"),))
    report = strategic_test(basis, region, acts, alpha=0.7, window=WINDOW)
    assert not report.strategic
    assert report.verdict == "NOT"
    assert any(b.direction_ranks[0] < b.multiplicity for b in report.buckets)
    verdict = approx_controllability_verdict(
        assemble_gramian(basis, region, acts, 0.7, WINDOW))
    assert not verdict.controllable


def test_two_dimensional_strategic_patterns():
    basis = SpectralBasis(SQUARE, 2, "whole-wave")
    region = Region.box(SQUARE, (0.0, 1.0), (0.0, 1.0))
    mults = sorted(
        {b.bucket: b.multiplicity
         for b in strategic_test(
             basis, region,
             ActuatorSet((Actuator(region, ONE_2D, "z"),)),
             alpha=0.7, window=WINDOW).buckets}.values())
    assert mults == [1, 1, 2]

    # one channel cannot dominate a two-fold eigenvalue
    single = strategic_test(
        basis, region,
        ActuatorSet((Actuator(region, ONE_2D, "z"),)),
        alpha=0.7, window=WINDOW)
    assert single.criterion == "generic"
    assert single.sup_multiplicity == 2
    assert not single.m_sufficient
    assert not single.strategic

    # one modal channel per mode is decisive
    modal = strategic_test(
        basis, region,
        ActuatorSet(tuple(Actuator(Region.whole(SQUARE), basis.mode_profile(i),
                                   f"m{i}") for i in range(len(basis.modes)))),
        alpha=0.7, window=WINDOW)
    assert modal.m_sufficient
    assert modal.stacked_rank == modal.required_rank == len(basis.modes)
    assert modal.strategic


def _rank(matrix, rtol, scale=None):
    """Singular values above rtol times scale, or the largest singular value:
    one SVD per matrix, the reference for strategic_test's batched ranks."""
    if matrix.size == 0:
        return 0
    s = svd(matrix, compute_uv=False)
    reference = s[0] if scale is None else scale
    return int(np.count_nonzero(s > rtol * reference)) if reference > 0 else 0


def _bucketed_table(kernel, mode_buckets):
    """(n_taus, n_modes) kernel table, every mode of a bucket on the kernel
    row of the bucket's first mode."""
    _, first, inverse = np.unique(mode_buckets, return_index=True,
                                  return_inverse=True)
    return kernel[first[inverse]].T


def _stacked_observation_map(coefficient_matrix, kernel, mode_buckets):
    """The time-sampled scaled couplings S, (n_taus * m, n_modes), dense:
    row (t, i) is D[i] * table[t]."""
    return np.einsum("ip,tp->tip", coefficient_matrix,
                     _bucketed_table(kernel, mode_buckets)).reshape(
        -1, coefficient_matrix.shape[1])


def test_stacked_observation_map_matches_per_bucket_sum():
    # canonical modes on the unit square: lam_kl = lam_lk gives double buckets
    domain = RectDomain.rectangle((0.0, 1.0), (0.0, 1.0))
    basis = SpectralBasis(domain, 4)
    region = Region.box(domain, (0.1, 0.8), (0.2, 0.9))
    acts = ActuatorSet((
        Actuator(Region.box(domain, (0.0, 0.5), (0.0, 0.5)),
                 ONE_2D, "zone-a"),
        Actuator(Region.box(domain, (0.3, 1.0), (0.4, 1.0)),
                 X_PLUS_2Y, "zone-b"),
        Actuator(Region.box(domain, (0.6, 0.9), (0.0, 0.7)),
                 ONE_2D, "zone-c"),
    ))
    mode_buckets = basis.buckets
    assert np.bincount(mode_buckets).max() == 2
    # the subject is the stacked map, so d and Gamma come from the N-point sums
    d = _n_point_couplings(acts, basis)
    gram = _n_point_gram(basis, region)[0]
    time_samples = 64
    taus = np.geomspace(WINDOW.length * 1e-4, WINDOW.length, time_samples)
    kernel = _ml_matrix(0.7, basis.lams, taus)

    def per_bucket_sum(kernel):
        """One outer product per bucket, each with its first mode's kernel row."""
        m, n_modes = d.shape
        stacked = np.zeros((time_samples * m, n_modes))
        for b_id in sorted(set(mode_buckets)):
            idx = np.nonzero(mode_buckets == b_id)[0]
            block = d[:, idx] @ gram[idx, :]
            stacked += (kernel[idx[0], :][:, None, None] * block[None, :, :]).reshape(
                time_samples * m, n_modes)
        return stacked

    reference = per_bucket_sum(kernel)
    # the helper returns the scaled couplings S; the observation map is S Gamma
    assert_allclose(_stacked_observation_map(d, kernel, mode_buckets) @ gram,
                    reference, rtol=1e-12)
    # rows that differ within a bucket: only the first one may be used
    jittered = kernel * np.random.default_rng(5).uniform(0.5, 1.5, kernel.shape)
    assert_allclose(_stacked_observation_map(d, jittered, mode_buckets) @ gram,
                    per_bucket_sum(jittered), rtol=1e-12)
    report = strategic_test(basis, region, acts, alpha=0.7, window=WINDOW)
    assert report.stacked_rank == _rank(reference, RANK_RTOL)


def _n_point_couplings(acts, basis):
    """<profile_i, alpha_p> from one (n_modes, N) value table per actuator box."""
    order = default_order(basis)
    d = np.zeros((acts.m, len(basis.modes)))
    for i, actuator in enumerate(acts.actuators):
        for box in actuator.support.boxes:
            points, weights = box_quadrature(box, order)
            profile = profile_values(actuator.distribution, points)
            d[i] += value_matrix(basis, points) @ (weights * profile)
    return d


def _n_point_gram(basis, region):
    """Gamma and the per-direction gradient norms from (n_modes, N) gradient
    tables on the tensor points of each region box."""
    order = default_order(basis)
    ndim, n_modes = basis.domain.ndim, len(basis.modes)
    gram = np.zeros((n_modes, n_modes))
    squares = np.zeros((ndim, n_modes))
    for box in region.boxes:
        points, weights = box_quadrature(box, order)
        for component in range(ndim):
            g = gradient_component_matrix(basis, points, component)
            gram += (g * weights) @ g.T
            squares[component] += (g * g) @ weights
    return 0.5 * (gram + gram.T), np.sqrt(squares)


def _stacked_map_for(basis, region, acts, time_samples=64):
    """The scaled couplings S with the inputs `strategic_test` factors them
    from, and the gradient Gram matrix Gamma: S Gamma is the stacked
    observation map, and S is a row permutation of the Khatri-Rao map of D
    and the bucketed kernel table."""
    order = default_order(basis)
    taus = np.geomspace(WINDOW.length * 1e-4, WINDOW.length, time_samples)
    d, kernel = actuator_coefficients(acts, basis, order), _ml_matrix(0.7, basis.lams, taus)
    mode_buckets = basis.buckets
    factor = gradient_gram(basis, region, order).factor
    return (_stacked_observation_map(d, kernel, mode_buckets),
            factor.T @ factor, d, _bucketed_table(kernel, mode_buckets))


def _unit_square_modal():
    domain = RectDomain.rectangle((0.0, 1.0), (0.0, 1.0))
    basis = SpectralBasis(domain, 4)
    acts = ActuatorSet(tuple(
        Actuator(Region.whole(domain), basis.mode_profile(i), f"m{i}")
        for i in range(len(basis.modes))))
    return basis, Region.box(domain, (0.1, 0.8), (0.2, 0.9)), acts, len(basis.modes)


def _quadrant_zone():
    """One zone actuator on the quadrant of [-1, 1]^2: one direction per
    distinct k^2 + l^2 over odd k, l."""
    basis = SpectralBasis(SQUARE, 4, "whole-wave")
    quadrant = Region.box(SQUARE, (0.0, 1.0), (0.0, 1.0))
    acts = ActuatorSet((Actuator(quadrant, ONE_2D, "zone"),))
    rank = len({k * k + l * l for k, l in basis.modes.tolist()
                if k % 2 == 1 and l % 2 == 1})
    return basis, quadrant, acts, rank


def _square_two_boxes_ranked():
    """Two zone actuators against 16 modes: S Gamma has rank 13, with a clean
    gap (s_12 = 2.8e-7 s_0, s_13 = 6.6e-17 s_0)."""
    return _square_two_boxes() + (13,)


@pytest.mark.parametrize("setup", [_unit_square_modal, _square_two_boxes_ranked,
                                   _quadrant_zone],
                         ids=["full-rank", "two-box-square", "rank-deficient"])
def test_stacked_rank_from_qr_matches_svd(setup):
    """S Gamma = Q_S (R_S Gamma): the small product that strategic_test
    factors has the singular values of the stacked observation map, and so
    its rank."""
    basis, region, acts, expected_rank = setup()
    stacked, gram, d, table = _stacked_map_for(basis, region, acts)
    product = stacked @ gram
    s = np.linalg.svd(product, compute_uv=False)
    assert _rank(product, RANK_RTOL) == expected_rank
    r_s = _khatri_rao_qr(d, table)
    assert r_s.shape == (len(basis.modes), len(basis.modes))
    assert_allclose(np.linalg.svd(r_s @ gram, compute_uv=False), s,
                    rtol=0, atol=1e-12 * s[0])
    report = strategic_test(basis, region, acts, alpha=0.7, window=WINDOW)
    assert report.stacked_rank == expected_rank


UNIT_SQUARE = [[0.0, 1.0], [0.0, 1.0]]


def _probe_scenario(cutoff, alpha, region, actuators):
    return scenario_from_dict({
        "name": "probe", "task": "analyze", "domain": UNIT_SQUARE,
        "family": "canonical", "cutoff": cutoff, "alpha": alpha,
        "window": [1.0, 4.0], "region": [region], "actuators": actuators})


def _modal_probe(cutoff, alpha=0.7, region=UNIT_SQUARE):
    """cutoff^2 whole-square `mode` actuators on the unit square."""
    return _probe_scenario(cutoff, alpha, region, [
        {"support": [UNIT_SQUARE], "profile": "mode", "coefficients": [p]}
        for p in range(cutoff * cutoff)])


def _zone_probe(cutoff, g):
    """A g x g grid of product-of-sines boxes on the unit square, each axis's
    frequency drawn from default_rng(3), observed on the quadrant [0, 0.5]^2."""
    rng = np.random.default_rng(3)
    boxes = [[[i / g, (i + 1) / g], [j / g, (j + 1) / g]]
             for i in range(g) for j in range(g)]
    return _probe_scenario(cutoff, 0.7, [[0.0, 0.5], [0.0, 0.5]], [
        {"support": [box], "profile": "product-of-sines",
         "coefficients": [1.0, *map(float, rng.integers(1, 7, size=2))]}
        for box in boxes])


@pytest.mark.parametrize("scenario, expected_rank", [
    (lambda: _modal_probe(6, 0.98, [[0.0, 0.5], [0.0, 0.5]]), 35),
    (lambda: _zone_probe(12, 8), 94),
    (lambda: _zone_probe(20, 4), 122),
    (lambda: parse_scenario(str(SCENARIOS / "whole-domain-negative.json")), 10),
], ids=["near-classical-k6", "zone12-8", "zone20-4", "whole-domain-negative"])
def test_compressed_kernel_table_keeps_the_explicit_stacked_rank(scenario,
                                                                 expected_rank):
    """The strategic test folds the kernel table's kept singular directions:
    its stacked rank is the rank of the explicit 64-sample S Gamma, and the
    compressed R_S Gamma keeps its singular values to 1e-12 s_0."""
    scenario = scenario()
    _, basis, region, acts = build_objects(scenario)
    window = LogTimeWindow(*scenario.window)
    d = actuator_coefficients(acts, basis)
    factor = gradient_gram(basis, region).factor
    gram = factor.T @ factor
    taus = np.geomspace(window.length * 1e-4, window.length, 64)
    kernel = _ml_matrix(scenario.alpha, basis.lams, taus)
    mode_buckets = basis.buckets
    product = _stacked_observation_map(d, kernel, mode_buckets) @ gram
    s = np.linalg.svd(product, compute_uv=False)
    assert _rank(product, RANK_RTOL) == expected_rank

    _, first, inverse = np.unique(mode_buckets, return_index=True,
                                  return_inverse=True)
    directions = _kernel_directions(kernel[first].T)
    assert len(directions) < 64
    r_s = _khatri_rao_qr(d, directions[:, inverse])
    s_cut = np.zeros_like(s)
    s_cut[:min(r_s.shape)] = np.linalg.svd(r_s @ gram, compute_uv=False)
    assert_allclose(s_cut, s, rtol=0, atol=1e-12 * s[0])
    report = strategic_test(basis, region, acts, alpha=scenario.alpha,
                            window=window)
    assert report.stacked_rank == expected_rank


def test_modal_kernel_table_keeps_few_directions(caplog):
    # K=16 modal probe: 122 buckets, of whose 64-sample kernels at most 24
    # directions clear 1e-3 RANK_RTOL sigma_1; the INFO line reports them
    scenario = _modal_probe(16)
    _, basis, region, acts = build_objects(scenario)
    window = LogTimeWindow(*scenario.window)
    taus = np.geomspace(window.length * 1e-4, window.length, 64)
    kernel = _ml_matrix(0.7, basis.lams, taus)
    first = np.unique(basis.buckets, return_index=True)[1]
    kept = len(_kernel_directions(kernel[first].T))
    assert kept <= 24
    with caplog.at_level(logging.INFO, logger="ultradiff.controllability"):
        report = strategic_test(basis, region, acts, alpha=0.7, window=window)
    assert report.stacked_rank == 256
    assert [record.getMessage() for record in caplog.records] == [
        f"stacked strategic rank 256 of 256 modes from {kept} of 64 kernel "
        "directions"]


def _buckets_reference(basis, d, direction_norms):
    """The per-bucket rank tests, one SVD per block: each direction's scaled
    couplings, and the block that stacks them."""
    ndim = basis.domain.ndim
    mode_buckets = basis.buckets
    bucket_ids = sorted(set(basis.buckets.tolist()))
    bucket_mats = [tuple(d[:, mode_buckets == b] * direction_norms[l, mode_buckets == b]
                         for l in range(ndim)) for b in bucket_ids]
    scale = max(float(np.max(np.abs(mat))) for mats in bucket_mats for mat in mats)
    buckets = []
    for b_id, mats in zip(bucket_ids, bucket_mats):
        idx = np.nonzero(mode_buckets == b_id)[0]
        block_rank = _rank(np.vstack(mats), RANK_RTOL, scale)
        buckets.append(StrategicBucket(
            b_id, float(basis.lams[idx[0]]), idx.size,
            tuple(_rank(mat, RANK_RTOL, scale) for mat in mats), block_rank,
            block_rank == idx.size))
    return buckets


def _strategic_test_reference(basis, region, acts):
    """strategic_test as it was when it integrated the direction norms itself,
    in a second pass over the region's N-point gradient tables."""
    order = default_order(basis)
    d = actuator_coefficients(acts, basis, order)
    ndim, n_modes = basis.domain.ndim, len(basis.modes)
    direction_norms = _n_point_gram(basis, region)[1]

    mode_buckets = basis.buckets
    buckets = _buckets_reference(basis, d, direction_norms)
    m = d.shape[0]
    sup_r = max(bucket.multiplicity for bucket in buckets)
    if ndim == 1:
        strategic = m >= sup_r and all(
            bucket.direction_ranks[0] == bucket.multiplicity for bucket in buckets)
        return direction_norms, StrategicReport(
            tuple(buckets), m, sup_r, m >= sup_r, "exact", None, None, strategic,
            "STRATEGIC" if strategic else "NOT")
    taus = np.geomspace(WINDOW.length * 1e-4, WINDOW.length, 64)
    stacked = _stacked_observation_map(d, _ml_matrix(0.7, basis.lams, taus),
                                       mode_buckets)
    # the explicit product S Gamma, not the R_S Gamma strategic_test factors
    factor = gradient_gram(basis, region, order).factor
    stacked_rank = _rank(stacked @ (factor.T @ factor), RANK_RTOL)
    strategic = stacked_rank == n_modes
    return direction_norms, StrategicReport(
        tuple(buckets), m, sup_r, m >= sup_r, "generic", stacked_rank, n_modes,
        strategic, "STRATEGIC" if strategic else "NOT")


def _interval_two_boxes():
    basis = SpectralBasis(DOMAIN_1D, 4)
    region = Region(DOMAIN_1D, (((0.1, 0.4),), ((0.5, 0.9),)))
    acts = ActuatorSet((
        Actuator(Region.box(DOMAIN_1D, (0.0, 0.6)), ONE_1D, "a"),
        Actuator(Region.box(DOMAIN_1D, (0.3, 1.0)), RAMP, "b")))
    return basis, region, acts


def _square_two_boxes():
    domain = RectDomain.rectangle((0.0, 1.0), (0.0, 1.0))
    basis = SpectralBasis(domain, 4)
    region = Region(domain, (((0.1, 0.5), (0.2, 0.9)), ((0.6, 0.9), (0.0, 0.4))))
    acts = ActuatorSet((
        Actuator(Region.box(domain, (0.0, 0.5), (0.0, 0.5)),
                 ONE_2D, "zone-a"),
        Actuator(Region.box(domain, (0.3, 1.0), (0.4, 1.0)),
                 X_PLUS_2Y, "zone-b")))
    return basis, region, acts


@pytest.mark.parametrize("setup", [_interval_two_boxes, _square_two_boxes,
                                   lambda: _quadrant_zone()[:3]],
                         ids=["interval", "two-box-square", "quadrant"])
def test_strategic_test_reads_the_gram_pass_direction_norms(setup):
    basis, region, acts = setup()
    norms, reference = _strategic_test_reference(basis, region, acts)
    gram = gradient_gram(basis, region)
    # per-axis Grams against N-point sums: equal up to summation order
    assert np.max(np.abs(gram.direction_norms - norms)) <= 1e-14 * np.max(norms)
    report = strategic_test(basis, region, acts, alpha=0.7, window=WINDOW)
    assert dataclasses.astuple(report) == dataclasses.astuple(reference)


def _unit_square_k8():
    domain = RectDomain.rectangle((0.0, 1.0), (0.0, 1.0))
    basis = SpectralBasis(domain, 8)
    return basis, Region.box(domain, (0.0, 0.5), (0.0, 0.5))


def _modal_k8():
    basis, quadrant = _unit_square_k8()
    acts = ActuatorSet(tuple(
        Actuator(Region.whole(basis.domain), basis.mode_profile(i), f"m{i}")
        for i in range(len(basis.modes))))
    return basis, quadrant, actuator_coefficients(acts, basis)


def _random_couplings_k8():
    basis, quadrant = _unit_square_k8()
    return basis, quadrant, np.random.default_rng(11).standard_normal((3, 64))


@pytest.mark.parametrize("setup", [_modal_k8, _random_couplings_k8],
                         ids=["modal", "dense-random"])
def test_batched_bucket_ranks_match_per_matrix_svds(setup):
    # K=8 on the unit square: buckets of multiplicity 1, 2, 3 (k^2 + l^2 = 50:
    # (1,7), (5,5), (7,1)) and 4 (65: (1,8), (8,1), (4,7), (7,4)), so every
    # multiplicity class gets its own batched SVD
    basis, region, d = setup()
    sizes = np.bincount(basis.buckets)
    assert set(sizes[sizes > 0]) == {1, 2, 3, 4}
    gram = gradient_gram(basis, region)
    report = strategic_test(basis, region, None, alpha=0.7, window=WINDOW,
                            gram=gram, coefficient_matrix=d)
    reference = _buckets_reference(basis, d, gram.direction_norms)
    assert len(report.buckets) == len(reference)
    for bucket, expected in zip(report.buckets, reference):
        assert (bucket.bucket, bucket.multiplicity) == (expected.bucket,
                                                        expected.multiplicity)
        assert bucket.direction_ranks == expected.direction_ranks
        assert bucket.block_rank == expected.block_rank
        assert bucket.passes is expected.passes
    # with m = 3 random channels the bucket of four is short in each direction
    ranks = {bucket.multiplicity: bucket.direction_ranks for bucket in report.buckets}
    assert ranks[4] == (min(d.shape[0], 4),) * 2


def _traced_peak(call):
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _modal_k12_solution():
    """K = 12 modal actuators on the unit square (144 modes and channels),
    steered on a box of the square: (basis, region, actuators, solution)."""
    domain = RectDomain.rectangle((0.0, 1.0), (0.0, 1.0))
    basis = SpectralBasis(domain, 12)
    acts = ActuatorSet(tuple(
        Actuator(Region.whole(domain), basis.mode_profile(i), f"m{i}")
        for i in range(len(basis.modes))))
    region = Region.box(domain, (0.1, 0.8), (0.2, 0.9))
    sol = solve_hum(HumProblem(basis, region, acts, 0.7, WINDOW,
                               np.random.default_rng(11).standard_normal(acts.m)))
    return basis, region, acts, sol


def test_structured_qr_peaks_below_the_dense_maps():
    """K = 12 modal actuators on the unit square: 144 modes and channels, so
    the dense 160-node map A^T is 23040 x 144 doubles and S is 9216 x 144.
    Neither is built: the minimality checks read eigenpairs of the 144 x 144
    W, and the strategic test's QR keeps one group of rows of S at a time."""
    basis, region, acts, sol = _modal_k12_solution()
    n_modes = len(basis.modes)
    report, peak = _traced_peak(lambda: verify_minimality(sol, trials=12, seed=4))
    assert report.mode == "kernel+pinv" and report.passed
    assert peak < 0.5 * (n_modes * acts.m * KERNEL_NODES * 8)
    report, peak = _traced_peak(lambda: strategic_test(
        basis, region, acts, alpha=0.7, window=WINDOW, gram=sol.gramian.gram,
        coefficient_matrix=sol.gramian.coefficient_matrix))
    assert report.stacked_rank == n_modes
    assert peak < 0.5 * (64 * acts.m * n_modes * 8)


def test_minimality_trials_hold_one_draw_at_a_time():
    """The 12 kernel trials are drawn and mapped one at a time: the traced
    peak stays within a few single draws of m nq doubles, where holding every
    draw at once would take 12 of them for the draws alone."""
    _, _, acts, sol = _modal_k12_solution()
    draw_bytes = acts.m * sol.gramian.kernel_nodes * 8
    verify_minimality(sol, trials=12, seed=4)     # first-call allocations
    report, peak = _traced_peak(lambda: verify_minimality(sol, trials=12, seed=4))
    assert report.mode == "kernel+pinv" and report.trials_passed == 12
    assert peak < 6 * draw_bytes


@pytest.mark.parametrize("ndim, cutoff, m", [(1, 256, 512), (2, 16, 2000)])
def test_strategic_test_never_scales_all_the_couplings(ndim, cutoff, m):
    """The bucket ranks read D and the direction norms a batch of buckets at a
    time: with the couplings and Gamma passed in, the traced peak stays below
    the ndim m n doubles that D scaled by every direction's norms would hold.
    In 2-D the stacked rank's QR of D runs too, so m is well above n."""
    domain = (RectDomain.interval(0.0, 1.0) if ndim == 1
              else RectDomain.rectangle((0.0, 1.0), (0.0, 1.0)))
    basis = SpectralBasis(domain, cutoff)
    region = Region.box(domain, *[(0.1, 0.8)] * ndim)
    d = np.random.default_rng(3).standard_normal((m, len(basis.modes)))
    gram = gradient_gram(basis, region)

    def call():
        # the couplings are passed in, so no actuator set is read
        return strategic_test(basis, region, None, alpha=0.7, window=WINDOW,
                              gram=gram, coefficient_matrix=d)

    call()                                        # first-call allocations
    report, peak = _traced_peak(call)
    assert all(bucket.passes for bucket in report.buckets)
    assert peak < ndim * d.nbytes


def _khatri_rao_map(d, table):
    """T[(i, q), p] = d_ip table_qp, built."""
    return np.einsum("ip,qp->iqp", d, table).reshape(-1, d.shape[1])


def _rank_deficient(d, table):
    d[3] = 0.0                     # an actuator that couples to nothing
    d[7] = d[2]                    # a duplicated actuator
    return d, table


def _twin_columns(d, table):
    table[:, 1::2] = table[:, 0:-1:2]     # bucket pairs share a kernel column
    return d, table


def _low_rank(rank_d, rank_t):
    """D of rank `rank_d` and a table of rank `rank_t`: the map's rank is
    min(rows, n_modes, rank_d rank_t), generically."""
    def edit(d, table):
        rng = np.random.default_rng(5)
        return tuple(rng.standard_normal((a.shape[0], k)) @ rng.standard_normal((k, a.shape[1]))
                     for a, k in ((d, rank_d), (table, rank_t)))
    return edit


@pytest.mark.parametrize("m, n_modes, nq, edit", [
    (5, 40, 160, None), (20, 20, 96, None), (30, 12, 64, None),
    (16, 90, 50, None), (12, 30, 160, None), (2, 700, 330, None),
    (12, 30, 160, _rank_deficient), (20, 20, 96, _twin_columns),
    (4, 37, 160, None),
    (8, 40, 100, _low_rank(5, 5)), (5, 700, 130, _low_rank(5, 5)),
    (5, 7, 160, None), (92, 291, 7, None),
    (9, 45, 80, None), (9, 45, 80, _low_rank(4, 5)),
    (1, 30, 700, _low_rank(1, 1)), (5, 1, 160, None), (5, 60, 160, _low_rank(0, 5)),
    (5, 700, 330, None),
], ids=["m<n", "m=n", "m>n", "nq<n", "nq>n", "wide", "deficient-d",
        "twin-columns", "one-group",
        "tall", "wide-deficient", "tall-below-block", "wide-below-block",
        "partial-block", "partial-block-deficient", "one-row", "one-column",
        "zero", "first-group-below-n"])
def test_khatri_rao_qr_matches_svd_of_the_built_map(m, n_modes, nq, edit):
    """Shapes off every multiple of the 32 block and of the row group; the
    `wide` maps have m nq < n_modes, and `one-group` is factored built.

    Every other map is folded, its first group included, into a zero
    triangle: rank 25 of 40 and of 700 columns (`tall`, `wide-deficient`);
    fewer than 32 columns (`tall-below-block`); a last group of 7 rows
    against 200 columns (`wide-below-block`); 45 = 32 + 13 columns at full
    rank and at rank 20 (`partial-block*`); one actuator whose 700 rows
    exceed a group, at rank 1 (`one-row`); one mode (`one-column`); rank 0
    (`zero`); and groups of 330 rows against 700 modes
    (`first-group-below-n`).
    """
    rng = np.random.default_rng(m * n_modes + nq)
    d, table = rng.standard_normal((m, n_modes)), rng.standard_normal((nq, n_modes))
    if edit is not None:
        d, table = edit(d, table)
    t_map = _khatri_rao_map(d, table)
    s_ref = np.linalg.svd(t_map, compute_uv=False)
    r = _khatri_rao_qr(d, table)
    assert r.shape == (min(m * nq, n_modes), n_modes)
    s_vals = np.linalg.svd(r, compute_uv=False)
    assert_allclose(s_vals, s_ref, rtol=0, atol=1e-12 * s_ref[0])
    assert (np.count_nonzero(s_vals > 1e-12 * s_ref[0])
            == np.count_nonzero(s_ref > 1e-12 * s_ref[0]))
    assert not np.tril(r, -1).any()
    if m * nq <= 640:
        assert np.array_equal(r, np.linalg.qr(t_map, mode="r"))


def test_khatri_rao_qr_of_an_empty_table_has_no_rows():
    """With no kernel direction left the map has no rows, and its R none."""
    d = np.random.default_rng(7).standard_normal((3, 36))
    assert _khatri_rao_qr(d, np.zeros((0, 36))).shape == (0, 36)


def test_strategic_test_holds_one_stacked_map():
    """The strategic test factors S in place and multiplies its small R by
    Gamma: with the couplings and Gamma passed in, its traced peak stays
    below 1.5 times the bytes of S, where forming S Gamma next to S takes 2."""
    domain = RectDomain.rectangle((0.0, 1.0), (0.0, 1.0))
    basis = SpectralBasis(domain, 8)
    acts = ActuatorSet(tuple(
        Actuator(Region.whole(domain), basis.mode_profile(i), f"m{i}")
        for i in range(len(basis.modes))))
    region = Region.box(domain, (0.1, 0.8), (0.2, 0.9))
    d = actuator_coefficients(acts, basis)
    gram = gradient_gram(basis, region)
    stacked_bytes = 64 * d.size * d.itemsize          # 64 time samples
    tracemalloc.start()
    try:
        report = strategic_test(basis, region, acts, alpha=0.7, window=WINDOW,
                                gram=gram, coefficient_matrix=d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.stacked_rank == len(basis.modes)
    assert peak < 1.5 * stacked_bytes


def test_verdict_threshold_semantics():
    basis, acts = single_zone_setup()
    g = assemble_gramian(basis, Region.whole(DOMAIN_1D), acts, 0.7, WINDOW)
    verdict = approx_controllability_verdict(g, threshold=1e-10)
    assert verdict.controllable
    smallest, largest = g.pencil_eigenvalues[[0, -1]]
    assert verdict.margin == smallest and verdict.largest_eigenvalue == largest
    assert verdict.relative_margin == pytest.approx(smallest / largest)
    assert verdict.condition_number == largest / smallest
    assert verdict.exact_constant == pytest.approx(smallest ** -0.5)
    # an absurdly demanding threshold flips the call
    assert not approx_controllability_verdict(g, threshold=1.0).controllable


# --- worked-example tables ---------------------------------------------------

def _zone_means(basis, region, order=None):
    """Means of each mode over a region: the couplings of one constant zone
    actuator, built as the CLI builds a `constant` profile."""
    constant = SeparableProfile(((1.0, (np.ones_like,) * basis.domain.ndim),))
    zone = ActuatorSet((Actuator(region, constant, "zone"),))
    return actuator_coefficients(zone, basis, order)[0]


def test_whole_wave_mode_means_vanish_on_the_full_box():
    basis = SpectralBasis(SQUARE, 6, "whole-wave")
    means = _zone_means(basis, Region.whole(SQUARE))
    assert np.max(np.abs(means)) <= 1e-12


def test_quadrant_mode_means_closed_form():
    # mean of sin(k pi x) sin(l pi y) over [0,1]^2: product of (1-cos(k pi))/(k pi)
    basis = SpectralBasis(SQUARE, 3, "whole-wave")
    quadrant = Region.box(SQUARE, (0.0, 1.0), (0.0, 1.0))
    means = _zone_means(basis, quadrant)
    for pos, (k, l) in enumerate(basis.modes.tolist()):
        exact = ((1.0 - math.cos(k * math.pi)) / (k * math.pi)
                 * (1.0 - math.cos(l * math.pi)) / (l * math.pi))
        assert_allclose(means[pos], exact, rtol=0, atol=1e-12)


def test_pairing_table_values_and_flags():
    basis = SpectralBasis(SQUARE, 5, "whole-wave")
    quadrant = Region.box(SQUARE, (0.0, 1.0), (0.0, 1.0))
    rows = worked_example_pairing_table(basis, quadrant)
    assert len(rows) == 3 * 3 * 2 * 2
    by_key = {(r.k, r.l, r.p, r.q): r for r in rows}

    head = by_key[(1, 1, 2, 2)]
    assert_allclose(head.quadrature, -32.0 / (9.0 * math.pi ** 3), rtol=1e-9)
    assert_allclose(head.closed_form, 256.0 / (9.0 * math.pi ** 3), rtol=1e-12)
    assert math.isfinite(head.rel_discrepancy) and head.rel_discrepancy > 0

    for row in rows:
        assert math.isfinite(row.closed_form) and row.closed_form != 0
        assert math.isfinite(row.quadrature)
        assert abs(row.quadrature) > 1e-6

    with pytest.raises(ValueError, match="2-D"):
        worked_example_pairing_table(SpectralBasis(DOMAIN_1D, 5), quadrant)
    with pytest.raises(ValueError, match="cutoff"):
        worked_example_pairing_table(SpectralBasis(SQUARE, 2, "whole-wave"),
                                     quadrant)


def test_pairing_table_contracts_the_axis_tables():
    # the reference sums target . grad alpha_kl over the 96^2 tensor points
    basis = SpectralBasis(SQUARE, 6, "whole-wave")
    quadrant = Region.box(SQUARE, (0.0, 1.0), (0.0, 1.0))
    means = _zone_means(basis, quadrant, 96)
    points, weights = box_quadrature(quadrant.boxes[0], 96)
    mode_of = {tuple(index): pos for pos, index in enumerate(basis.modes.tolist())}
    gradients = gradient_component_matrix(basis, points, 0)
    expected = {}
    for k in (1, 3, 5):
        for l in (1, 3, 5):
            pos = mode_of[(k, l)]
            gradient = gradients[pos]
            for p in (2, 4):
                for q in (2, 4):
                    target = np.sin(p * math.pi * points[:, 0]) * \
                        np.cos(q * math.pi * points[:, 1])
                    expected[(k, l, p, q)] = means[pos] * (weights @ (target * gradient))
    rows = worked_example_pairing_table(basis, quadrant)
    got = np.array([row.quadrature for row in rows])
    want = np.array([expected[(r.k, r.l, r.p, r.q)] for r in rows])
    assert len(rows) == len(expected)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


# --- small linear-algebra helpers ---------------------------------------------

def test_pinv_solve_symmetric():
    rng = np.random.default_rng(9)
    a = rng.standard_normal((4, 3))
    w = a @ a.T                      # PSD, rank 3
    # right-hand side in the range: consistent minimum-norm solution
    x_true = a @ rng.standard_normal(3)
    rhs = w @ x_true
    # the synthesis solve: x = V_k lam_k^-1 V_k^T rhs over the kept pairs
    lams, vecs = kept_eigenpairs(w)
    x = vecs @ ((1.0 / lams) * (vecs.T @ rhs))
    rank, cond = lams.size, lams[-1] / lams[0]
    assert rank == 3
    assert cond >= 1.0 and math.isfinite(cond)
    assert_allclose(w @ x, rhs, rtol=0, atol=1e-10)
    # the returned solution carries no null-space component
    null = np.linalg.svd(w)[0][:, 3]
    assert abs(null @ x) <= 1e-10
