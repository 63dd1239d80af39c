"""Minimum-energy synthesis: steering accuracy, energy identities, optimality.

The classical-limit checks use hand closed forms: with one mode and a constant
actuator profile the kernel factor is a scalar exponential integral, so every
quantity in the synthesis chain (datum, control, cost, reached state) has an
elementary expression.
"""

import math
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from _reference import batched_minimality_trials
from ultradiff import hum
from ultradiff.controllability import assemble_gramian
from ultradiff.hum import (PINV_NODES, RESIDUAL_NODES, HumProblem, energy, g_norm,
                           solve_hum, verify_minimality)
from ultradiff.logtime import LogTimeWindow
from ultradiff.solver import (KERNEL_NODES, ControlSignal, EnergyDivergenceError,
                              _InputMap)
from ultradiff.spectral import (Actuator, ActuatorSet, Region, RectDomain,
                                SeparableProfile, SpectralBasis)

WINDOW = LogTimeWindow(1.0, 2.5)
DOMAIN = RectDomain.interval(0.0, 1.0)
ONE_1D = SeparableProfile(((1.0, (np.ones_like,)),))
ONE_2D = SeparableProfile(((1.0, (np.ones_like,) * 2),))
RAMP = SeparableProfile(((1.0, (lambda x: x,)),))          # x on an interval


def steering_setup():
    """Three modes, two channels, comfortably controllable (margin ~2e-2)."""
    basis = SpectralBasis(DOMAIN, 3)
    region = Region.box(DOMAIN, (0.05, 0.95))
    acts = ActuatorSet((
        Actuator(Region.box(DOMAIN, (0.0, 0.6)),
                 ONE_1D, "const"),
        Actuator(Region.box(DOMAIN, (0.3, 1.0)), RAMP, "ramp"),
    ))
    return basis, region, acts


def test_steering_residual_and_energy_identities():
    basis, region, acts = steering_setup()
    gramian = assemble_gramian(basis, region, acts, 0.7, WINDOW)
    for seed in range(10):
        rng = np.random.default_rng(seed)
        target = rng.standard_normal(3)
        y0 = rng.standard_normal(3) * 0.5
        sol = solve_hum(HumProblem(basis, region, acts, 0.7, WINDOW, target,
                                   y0_coefficients=y0), gramian=gramian)
        assert sol.residual_relative <= 1e-6
        assert not sol.ill_posed
        # cost of the synthesized control == squared-observation norm of the
        # reported dual element
        assert sol.energy_identity_gap <= 1e-12
        assert sol.dual_norm_squared == g_norm(sol.g_coefficients, sol.gramian)


@pytest.mark.parametrize("ndim", [1, 2])
def test_input_map_energy_is_the_quadratic_form(ndim):
    """The energy sum_q w_q |D (kappa o c)_q|^2 and c'Wc are one quantity
    summed two ways, on each rule the synthesis and its checks read."""
    if ndim == 1:
        basis, region, acts = steering_setup()
    else:
        square = RectDomain.rectangle((0.0, 1.0), (0.0, 1.0))
        basis = SpectralBasis(square, 3)
        region = Region.box(square, (0.0, 0.5), (0.0, 0.5))
        acts = ActuatorSet((
            Actuator(Region.box(square, (0.0, 0.6), (0.0, 1.0)),
                     ONE_2D, "const"),
            Actuator(Region.box(square, (0.4, 1.0), (0.2, 0.9)),
                     SeparableProfile(((1.0, (lambda x: x, lambda y: y)),)), "bilinear"),
        ))
    gramian = assemble_gramian(basis, region, acts, 0.7, WINDOW)
    rng = np.random.default_rng(ndim)
    for nodes in (KERNEL_NODES, RESIDUAL_NODES, PINV_NODES):
        m = gramian.with_nodes(nodes)
        for c in rng.standard_normal((5, len(basis.modes))):
            assert_allclose(m.energy(c), c @ m.matrix @ c, rtol=1e-12)


def test_rhs_property_and_datum_solve():
    basis, region, acts = steering_setup()
    target = np.array([0.4, -0.2, 0.9])
    sol = solve_hum(HumProblem(basis, region, acts, 0.7, WINDOW, target))
    assert_allclose(sol.rhs, target, rtol=0, atol=0)   # no initial state
    assert_allclose(sol.gramian.matrix @ sol.adjoint_datum, target, rtol=1e-9)


def test_minimality_verification():
    basis, region, acts = steering_setup()
    rng = np.random.default_rng(3)
    sol = solve_hum(HumProblem(basis, region, acts, 0.7, WINDOW,
                               rng.standard_normal(3)))
    report = verify_minimality(sol, trials=50)
    assert report.mode == "kernel+pinv"
    assert report.trials_passed == report.trials_requested == 50
    assert report.min_energy_increase >= -1e-9
    assert report.kernel_dimension > 0
    assert report.rel_pinv_gap <= 1e-4
    assert report.passed


def test_minimality_pinv_only_mode():
    basis, region, acts = steering_setup()
    sol = solve_hum(HumProblem(basis, region, acts, 0.7, WINDOW,
                               np.array([0.4, -0.9, 0.25])))
    report = verify_minimality(sol, trials=0)
    assert report.mode == "pinv-only"
    assert report.trials_passed == 0
    assert report.kernel_dimension == 0
    assert report.rel_pinv_gap <= 1e-4
    assert report.passed


def _dense_factor(input_map):
    """The whitened factor A[p, (i, q)] = d_ip kappa_pq sqrt(w_q), A A^T = W, built."""
    d = input_map.coefficient_matrix
    return np.einsum("ip,pq->piq", d,
                     input_map.kernel * np.sqrt(input_map.weights)).reshape(
        -1, d.shape[0] * input_map.kernel_nodes)


def _svd_reference_trials(solution, trials, seed):
    """The kernel-perturbation trials, one draw at a time, from the SVD of the
    whole whitened factor of the discrete map.  Returns the factor, its
    singular values and row space, and the trials' pass count, least energy
    increase and worst violation."""
    input_map, window = solution.gramian, solution.problem.window
    factor = _dense_factor(input_map)
    # the control at the nodes, scaled by the square root of the energy metric
    # w_q b e^-tau_q (the map's weights carry w_q e^tau_q / b)
    u_star = (solution.control.smooth_at_tau(input_map.taus)
              * np.sqrt(input_map.weights) * window.b * np.exp(-input_map.taus)).ravel()

    s_vals, vh = np.linalg.svd(factor, full_matrices=False)[1:]
    rank = int(np.count_nonzero(s_vals > 1e-12 * s_vals[0]))
    v_range = vh[:rank]
    rng = np.random.default_rng(seed)
    rhs_scale = float(np.linalg.norm(solution.rhs)) or 1.0
    trials_passed, min_delta, max_violation = 0, math.inf, 0.0
    for _ in range(trials):
        phi = rng.standard_normal(factor.shape[1])
        phi -= v_range.T @ (v_range @ phi)
        phi /= math.sqrt(float(np.sum(phi * phi)))
        max_violation = max(max_violation,
                            float(np.linalg.norm(factor @ phi)) / rhs_scale)
        delta = 2.0 * float(np.sum(u_star * phi)) + float(np.sum(phi * phi))
        min_delta = min(min_delta, delta)
        trials_passed += delta >= -1e-9
    return factor, s_vals, v_range, (trials_passed, min_delta, max_violation)


def _modal_plus_zone_setup():
    """Modal actuators plus one zone actuator: D is not diagonal."""
    domain = RectDomain.rectangle((0.0, 1.0), (0.0, 1.0))
    basis = SpectralBasis(domain, 3)
    acts = ActuatorSet(
        tuple(Actuator(Region.whole(domain), basis.mode_profile(i), f"m{i}")
              for i in range(len(basis.modes)))
        + (Actuator(Region.box(domain, (0.0, 0.5), (0.2, 0.9)),
                    ONE_2D, "zone"),))
    return basis, Region.box(domain, (0.0, 0.5), (0.0, 1.0)), acts, len(basis.modes)


def _quadrant_zone_setup():
    """One zone actuator on the quadrant of [-1, 1]^2: the couplings vanish
    on every mode with an even index, so the map has one direction per
    distinct k^2 + l^2 over odd k, l."""
    domain = RectDomain.rectangle((-1.0, 1.0), (-1.0, 1.0))
    basis = SpectralBasis(domain, 4, "whole-wave")
    quadrant = Region.box(domain, (0.0, 1.0), (0.0, 1.0))
    acts = ActuatorSet((Actuator(quadrant, ONE_2D, "zone"),))
    rank = len({k * k + l * l for k, l in basis.modes.tolist()
                if k % 2 == 1 and l % 2 == 1})
    return basis, quadrant, acts, rank


def _whitened_pinv_map(solution):
    """The cross-check's map on its own resolution, whitened by the time metric."""
    return _dense_factor(solution.gramian.with_nodes(PINV_NODES))


@pytest.mark.parametrize("setup", [_modal_plus_zone_setup, _quadrant_zone_setup],
                         ids=["modal-plus-zone", "rank-deficient"])
def test_minimality_row_space_from_qr_matches_svd(setup):
    basis, region, acts, expected_rank = setup()
    rng = np.random.default_rng(11)
    sol = solve_hum(HumProblem(basis, region, acts, 0.7, WINDOW,
                               rng.standard_normal(len(basis.modes))))
    factor, _, v_ref, (passed_ref, min_delta_ref, violation_ref) = (
        _svd_reference_trials(sol, 12, seed=4))
    assert v_ref.shape[0] == expected_rank

    # the solve's kept pairs span the same row space: A^T V_k lam_k^-1/2 is an
    # orthonormal basis of it
    lams, vecs = sol.eigenpairs
    assert lams.size == expected_rank
    row_basis = factor.T @ vecs / np.sqrt(lams)
    phi = rng.standard_normal(factor.shape[1])
    assert_allclose(row_basis @ (row_basis.T @ phi), v_ref.T @ (v_ref @ phi),
                    rtol=0, atol=1e-10)

    report = verify_minimality(sol, trials=12, seed=4)
    assert report.mode == "kernel+pinv"
    assert report.kernel_dimension == factor.shape[1] - expected_rank
    # the block of trials against the one-draw-at-a-time loop
    assert report.trials_passed == passed_ref
    assert_allclose(report.min_energy_increase, min_delta_ref, rtol=1e-9)
    assert violation_ref <= 1e-9

    # the cross-check's minimal-norm control against np.linalg.pinv
    x_ref = np.linalg.pinv(_whitened_pinv_map(sol), rcond=1e-12) @ sol.rhs
    pinv_energy = float(x_ref @ x_ref)
    gap_ref = abs(sol.energy - pinv_energy) / max(sol.energy, pinv_energy)
    assert abs(report.rel_pinv_gap - gap_ref) <= 1e-12


def test_synthesis_decomposes_w_once_per_node_count(monkeypatch):
    """The solve and the trials share one eigh of the 160-node W; the
    cross-check takes one of the 96-node W.  Nothing else decomposes W, and
    both calls pass numpy's eigh the matrix alone: numpy has one eigh
    driver, divide and conquer (dsyevd)."""
    basis, region, acts, _ = _modal_plus_zone_setup()
    calls, eigh = [], np.linalg.eigh

    def counted(*args, **kwargs):
        calls.append((args, kwargs))
        return eigh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    sol = solve_hum(HumProblem(basis, region, acts, 0.7, WINDOW,
                               np.random.default_rng(11).standard_normal(9)))
    assert verify_minimality(sol, trials=12, seed=4).passed
    assert len(calls) == 2
    assert all(len(args) == 1 and not kwargs for args, kwargs in calls)
    assert np.array_equal(calls[0][0][0], sol.gramian.matrix)
    assert np.array_equal(calls[1][0][0], sol.gramian.with_nodes(PINV_NODES).matrix)


def test_synthesis_builds_the_kernel_table_once():
    """u* and all 12 minimality trials read one read-only copy of the input
    map's table kappa sqrt(w); each read once built a fresh one."""
    basis, region, acts, _ = _modal_plus_zone_setup()
    sol = solve_hum(HumProblem(basis, region, acts, 0.7, WINDOW,
                               np.random.default_rng(11).standard_normal(9)))
    assert verify_minimality(sol, trials=12, seed=4).passed
    table = sol.gramian.table
    assert table is sol.gramian.table
    assert not table.flags.writeable
    assert np.array_equal(table.T, sol.gramian.kernel * np.sqrt(sol.gramian.weights))


def test_paired_modal_spectrum_keeps_eigenvectors_orthonormal():
    """K = 12 whole-square modal actuators: W's spectrum comes in equal pairs
    (lam_kl = lam_lk).  Over window ends b in [3.5, 4.5], MRRR (dsyevr)
    gives max|V^T V - I| from 4e-15 to 1e-13, varying with b and the BLAS
    thread count; divide and conquer keeps every V orthonormal to 4e-15 and
    solves W c = rhs to 3e-15."""
    domain = RectDomain.rectangle((0.0, 1.0), (0.0, 1.0))
    basis = SpectralBasis(domain, 12)
    acts = ActuatorSet(tuple(
        Actuator(Region.whole(domain), basis.mode_profile(i), f"m{i}")
        for i in range(len(basis.modes))))
    target = np.random.default_rng(1).standard_normal(144)
    for b in np.linspace(3.5, 4.5, 11):
        sol = solve_hum(HumProblem(basis, Region.whole(domain), acts, 0.7,
                                   LogTimeWindow(1.0, b), target))
        w = sol.gramian.matrix
        lams, vecs = hum.kept_eigenpairs(w)
        assert lams.size == 144
        assert np.abs(vecs.T @ vecs - np.eye(144)).max() <= 2e-14
        assert (np.linalg.norm(w @ sol.adjoint_datum - sol.rhs)
                <= 1e-14 * np.linalg.norm(sol.rhs))


@pytest.mark.parametrize("setup", [_modal_plus_zone_setup, _quadrant_zone_setup],
                         ids=["modal-plus-zone", "quadrant-zone"])
def test_one_draw_trials_match_the_batched_trials(setup):
    """Drawn one at a time from the generator, the kernel trials see the
    stream that one (trials, m nq) draw would: the same trials pass, and the
    smallest energy increase moves only at roundoff."""
    basis, region, acts, _ = setup()
    for seed, trials in ((0, 1), (3, 12), (5, 50)):
        target = np.random.default_rng(seed).standard_normal(len(basis.modes))
        sol = solve_hum(HumProblem(basis, region, acts, 0.7, WINDOW, target))
        report = verify_minimality(sol, trials=trials, seed=seed)
        passed, min_delta = batched_minimality_trials(sol, trials, seed)
        assert report.mode == "kernel+pinv"
        assert report.trials_passed == passed
        assert report.min_energy_increase == pytest.approx(min_delta, rel=1e-12)


def test_input_map_applies_its_factor_without_forming_it():
    """The trials' constraint check A phi, read from D, kappa and w."""
    basis, region, acts, _ = _modal_plus_zone_setup()
    input_map = assemble_gramian(basis, region, acts, 0.7, WINDOW)
    factor = _dense_factor(input_map)
    phi = np.random.default_rng(2).standard_normal((7, factor.shape[1]))
    assert_allclose(input_map.apply_factor(phi), phi @ factor.T, rtol=1e-13)


def test_minimality_trials_factor_the_map_in_place():
    """K = 8 modal actuators on the unit square: 64 modes, 64 channels, so the
    160-node factor is 64 x 10240 doubles.  The trials read the solve's
    eigenpairs of W and never build it; two dense copies would put the traced
    peak above twice its bytes."""
    domain = RectDomain.rectangle((0.0, 1.0), (0.0, 1.0))
    basis = SpectralBasis(domain, 8)
    acts = ActuatorSet(tuple(
        Actuator(Region.whole(domain), basis.mode_profile(i), f"m{i}")
        for i in range(len(basis.modes))))
    sol = solve_hum(HumProblem(basis, Region.box(domain, (0.1, 0.8), (0.2, 0.9)),
                               acts, 0.7, WINDOW,
                               np.random.default_rng(11).standard_normal(64)))
    factor_bytes = _dense_factor(sol.gramian).nbytes
    tracemalloc.start()
    try:
        report = verify_minimality(sol, trials=12, seed=4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.mode == "kernel+pinv" and report.passed
    assert peak < 2.0 * factor_bytes


def test_minimality_cross_check_with_more_modes_than_nodes():
    """One zone actuator at cutoff 10 in 2-D: 100 modes against PINV_NODES = 96
    time nodes, so the cross-check's W has more modes than its map has
    columns."""
    domain = RectDomain.rectangle((0.0, 1.0), (0.0, 1.0))
    basis = SpectralBasis(domain, 10)
    acts = ActuatorSet((Actuator(Region.box(domain, (0.0, 0.5), (0.2, 0.9)),
                                 ONE_2D, "zone"),))
    sol = solve_hum(HumProblem(basis, Region.box(domain, (0.0, 0.5), (0.0, 1.0)),
                               acts, 0.7, WINDOW,
                               np.random.default_rng(11).standard_normal(100)))
    report = verify_minimality(sol, trials=12, seed=4)
    whitened = _whitened_pinv_map(sol)
    assert whitened.shape[0] > whitened.shape[1]
    # the solve's rule: 1e-12 on W's eigenvalues is 1e-6 on A's singular values
    x_ref = np.linalg.pinv(whitened, rcond=1e-6) @ sol.rhs
    assert_allclose(report.pinv_energy, float(x_ref @ x_ref), rtol=1e-4)
    assert report.trials_passed == 12
    assert report.passed


def test_synthesis_is_linear_in_the_target():
    basis, region, acts = steering_setup()
    t1 = np.array([1.0, 0.0, -0.5])
    t2 = np.array([0.2, 0.7, 0.1])
    sols = [solve_hum(HumProblem(basis, region, acts, 0.7, WINDOW, t))
            for t in (t1, t2, t1 + 2.0 * t2)]
    assert_allclose(sols[2].adjoint_datum,
                    sols[0].adjoint_datum + 2.0 * sols[1].adjoint_datum,
                    rtol=1e-10, atol=1e-11)
    assert_allclose(sols[2].control.values,
                    sols[0].control.values + 2.0 * sols[1].control.values,
                    rtol=1e-10, atol=1e-11)


def test_classical_limit_closed_forms():
    # one mode, constant profile on the whole interval: everything elementary
    basis = SpectralBasis(DOMAIN, 1)
    whole = Region.whole(DOMAIN)
    acts = ActuatorSet((Actuator(whole, ONE_1D, "z"),))
    lam = math.pi ** 2
    L = WINDOW.length
    d = 2.0 * math.sqrt(2.0) / math.pi
    w_exact = d * d / WINDOW.b * (1.0 - math.exp(-(2 * lam - 1) * L)) / (2 * lam - 1)
    gramian = assemble_gramian(basis, whole, acts, 1.0, WINDOW)
    assert_allclose(gramian.matrix[0, 0], w_exact, rtol=1e-11)

    gamma, y0 = 0.8, 0.35
    rhs = gamma - y0 * math.exp(-lam * L)
    sol = solve_hum(HumProblem(basis, whole, acts, 1.0, WINDOW, [gamma],
                               y0_coefficients=[y0]), gramian=gramian)
    assert_allclose(sol.rhs, [rhs], rtol=1e-14)
    assert_allclose(sol.adjoint_datum, [rhs / w_exact], rtol=1e-11)
    assert_allclose(sol.g_coefficients, [rhs / w_exact / lam], rtol=1e-11)
    assert_allclose(sol.energy, rhs ** 2 / w_exact, rtol=1e-11)
    assert sol.residual_relative <= 1e-12

    ts = np.array([1.1, 1.7, 2.3])
    taus = np.log(WINDOW.b / ts)
    u_exact = np.exp(-lam * taus) / ts * d * rhs / w_exact
    assert_allclose(sol.control.evaluate_time(ts)[0], u_exact, rtol=1e-11)


def test_epsilon_cutoff_synthesis():
    basis = SpectralBasis(DOMAIN, 2)
    region = Region.box(DOMAIN, (0.1, 0.9))
    acts = ActuatorSet((Actuator(Region.box(DOMAIN, (0.0, 0.7)),
                                 ONE_1D, "z"),))
    gramian = assemble_gramian(basis, region, acts, 0.4, WINDOW, epsilon=1e-3)
    rng = np.random.default_rng(1)
    sol = solve_hum(HumProblem(basis, region, acts, 0.4, WINDOW,
                               rng.standard_normal(2), epsilon_cutoff=1e-3),
                    gramian=gramian)
    assert sol.residual_relative <= 1e-8
    assert sol.energy_identity_gap <= 1e-12
    assert math.isfinite(sol.energy) and sol.energy > 0


def test_divergence_refusals():
    # no input map, hence no Gramian for g_norm to read, without a cutoff
    basis = SpectralBasis(DOMAIN, 2)
    with pytest.raises(ValueError, match="non-integrable"):
        _InputMap(np.ones((1, 2)), basis.lams, 0.4, WINDOW, KERNEL_NODES)

    u = ControlSignal.from_smooth_part(
        lambda tau: np.cos(tau)[None, :], WINDOW, 0.4)
    with pytest.raises(EnergyDivergenceError) as err:
        energy(u)
    assert err.value.alpha == 0.4
    u = ControlSignal.from_smooth_part(
        lambda tau: np.cos(tau)[None, :], WINDOW, 0.4, epsilon_cutoff=1e-3)
    assert math.isfinite(energy(u))


def test_energy_of_unit_control_is_the_window_length():
    # int cos^2(sigma) e^(s sigma) dsigma over [0, L] times a time scale:
    # cos(tau) with t = b e^-tau, and cos(L - tau), which is cos(sigma) at
    # sigma = log(t/a), with t = a e^sigma
    L = WINDOW.length

    def cos_squared_energy(scale, s):
        return scale * ((math.exp(s * L) - 1.0) / (2.0 * s)
                        + (math.exp(s * L) * (s * math.cos(2 * L) + 2 * math.sin(2 * L))
                           - s) / (2.0 * (s * s + 4.0)))

    u = ControlSignal.constant(1.0, WINDOW, 0.7)
    assert_allclose(energy(u), WINDOW.b - WINDOW.a, rtol=1e-11)
    for fn, scale, s in ((np.cos, WINDOW.b, -1.0),
                         (lambda tau: np.cos(L - tau), WINDOW.a, 1.0)):
        u = ControlSignal(WINDOW, 0.7, fn)
        assert_allclose(energy(u), cos_squared_energy(scale, s), rtol=1e-13)


def test_ill_posed_synthesis_is_flagged():
    # an actuator coupled to one mode only: the solve proceeds through the
    # pseudo-inverse and says so
    basis = SpectralBasis(DOMAIN, 3)
    sine = SeparableProfile(((1.0, (lambda x: np.sin(2 * math.pi * x),)),))
    acts = ActuatorSet((Actuator(Region.whole(DOMAIN), sine, "o"),))
    sol = solve_hum(HumProblem(basis, Region.box(DOMAIN, (0.2, 0.9)), acts,
                               0.7, WINDOW, np.ones(3)))
    assert sol.ill_posed
    assert sol.verdict.verdict == "NOT"
    assert sol.kept_rank == 1
    assert len(basis.modes) - sol.kept_rank == 2
    # the flags are the solution's own fields, not a second result object
    assert not hasattr(sol, "diagnostics") and not hasattr(hum, "HumDiagnostics")


def test_problem_validation():
    basis, region, acts = steering_setup()
    with pytest.raises(ValueError, match="target"):
        HumProblem(basis, region, acts, 0.7, WINDOW, np.ones(5))
    with pytest.raises(ValueError, match="target"):
        HumProblem(basis, region, acts, 0.7, WINDOW,
                   np.array([1.0, np.nan, 0.0]))
    with pytest.raises(ValueError, match="y0"):
        HumProblem(basis, region, acts, 0.7, WINDOW, np.ones(3),
                   y0_coefficients=np.ones(2))
