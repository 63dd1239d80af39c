"""Evolution maps: free/forced/adjoint propagation and control signals."""

import math
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from _reference import adjoint_solution, hadamard_derivative_left
from ultradiff._quadrature import kernel_rule
from ultradiff.logtime import LogTimeWindow
from ultradiff.mittag_leffler import ml_on_negative_axis
from ultradiff.solver import (ControlSignal, EnergyDivergenceError, _ml_matrix,
                              forced_solution, free_solution)
from ultradiff.spectral import (Actuator, ActuatorSet, Region, RectDomain,
                                SeparableProfile, SpectralBasis, gradient_gram)

WINDOW = LogTimeWindow(1.0, 2.5)
DOMAIN_1D = RectDomain.interval(0.0, 1.0)
ONE_1D = SeparableProfile(((1.0, (np.ones_like,)),))
RAMP = SeparableProfile(((1.0, (lambda x: x,)),))          # x on an interval

# Duhamel integrals for the two-channel configuration below, computed with
# 120-digit arithmetic: tanh-sinh quadrature in the original (singular)
# variable, power series for the kernel, hand closed forms for the actuator
# rows.  Keyed by (time, axis wavenumber).
FORCED_ORACLE = {
    (1.7, 1): 0.0443722913241574180211733,
    (1.7, 2): 0.0003655208907975122713443524,
    (2.5, 1): 0.04931265494412924073263329,
    (2.5, 2): 0.004202204392688270280810508,
}


def two_channel_setup():
    basis = SpectralBasis(DOMAIN_1D, 2)
    acts = ActuatorSet((
        Actuator(Region.box(DOMAIN_1D, (0.1, 0.45)),
                 ONE_1D, "zone"),
        Actuator(Region.box(DOMAIN_1D, (0.3, 0.9)), RAMP, "ramp"),
    ))

    def fn(tau):
        s = WINDOW.length - tau     # log(t/a), the clock the oracle was built on
        return np.vstack([np.sin(s), np.exp(-s) * (1.0 + s / 2.0)])

    u = ControlSignal(WINDOW, 0.7, fn)
    return basis, acts, u


def test_forced_solution_matches_frozen_quadrature():
    basis, acts, u = two_channel_setup()
    for t in (1.7, 2.5):
        state = forced_solution(acts, basis, u, 0.7, WINDOW, t)
        for p, (k,) in enumerate(basis.modes.tolist()):
            assert_allclose(state[p], FORCED_ORACLE[(t, k)], rtol=1e-8)


def test_forced_solution_node_count_converged():
    basis, acts, u = two_channel_setup()
    c160 = forced_solution(acts, basis, u, 0.7, WINDOW, 2.5)
    c320 = forced_solution(acts, basis, u, 0.7, WINDOW, 2.5, nodes=320)
    assert_allclose(c160, c320, rtol=0, atol=1e-10)


def test_forced_solution_superposition():
    basis, acts, _ = two_channel_setup()
    L = WINDOW.length
    f1 = lambda tau: np.vstack([np.sin(L - tau), np.cos(L - tau)])
    f2 = lambda tau: np.vstack([(L - tau) ** 2, np.exp(-(L - tau))])
    u1 = ControlSignal(WINDOW, 0.7, f1)
    u2 = ControlSignal(WINDOW, 0.7, f2)
    separate = (forced_solution(acts, basis, u1, 0.7, WINDOW, 2.2)
                + forced_solution(acts, basis, u2, 0.7, WINDOW, 2.2))
    total = ControlSignal(WINDOW, 0.7, lambda tau: f1(tau) + f2(tau))
    combined = forced_solution(acts, basis, total, 0.7, WINDOW, 2.2)
    assert_allclose(combined, separate, rtol=1e-12)
    scaled = ControlSignal(WINDOW, 0.7, lambda tau: 2.0 * f1(tau))
    doubled = forced_solution(acts, basis, scaled, 0.7, WINDOW, 2.2)
    assert_allclose(doubled, 2.0 * forced_solution(acts, basis, u1, 0.7, WINDOW, 2.2),
                    rtol=1e-13)


def test_forced_solution_channel_mismatch():
    basis, acts, _ = two_channel_setup()
    u = ControlSignal.constant([1.0], WINDOW, 0.7)
    with pytest.raises(ValueError, match="channels"):
        forced_solution(acts, basis, u, 0.7, WINDOW, 2.0)


# --- classical (alpha = 1) closed forms -------------------------------------

def test_classical_free_solution():
    basis = SpectralBasis(DOMAIN_1D, 3)
    z0 = np.array([1.0, -0.5, 0.25])
    for t in (1.0, 1.4, 2.5):
        state = free_solution(z0, basis, 1.0, WINDOW, t)
        tau = math.log(t / WINDOW.a)
        assert_allclose(state, z0 * np.exp(-basis.lams * tau),
                        rtol=1e-12)


def test_classical_forced_solution_constant_control():
    # d/dtau z_p = -lam_p z_p + d_p c  from rest:
    # z_p(b) = c d_p (1 - exp(-lam_p L)) / lam_p
    basis = SpectralBasis(DOMAIN_1D, 3)
    acts = ActuatorSet((Actuator(Region.whole(DOMAIN_1D),
                                 ONE_1D, "bulk"),))
    level = 0.8
    u = ControlSignal.constant([level], WINDOW, 1.0)
    state = forced_solution(acts, basis, u, 1.0, WINDOW, WINDOW.b)
    L = WINDOW.length
    for p, (k,) in enumerate(basis.modes.tolist()):
        d_p = math.sqrt(2.0) * (1.0 - math.cos(k * math.pi)) / (k * math.pi)
        exact = level * d_p * (1.0 - math.exp(-basis.lams[p] * L)) / basis.lams[p]
        assert_allclose(state[p], exact, rtol=0, atol=1e-10)


def test_classical_adjoint_solution():
    basis = SpectralBasis(DOMAIN_1D, 2)
    c = np.array([0.7, -0.2])
    # no singular prefactor at alpha = 1, so t = b is fine and gives c itself
    assert_allclose(adjoint_solution(c, basis, 1.0, WINDOW, WINDOW.b), c, rtol=1e-14)
    t = 1.6
    tau = math.log(WINDOW.b / t)
    assert_allclose(adjoint_solution(c, basis, 1.0, WINDOW, t),
                    c * np.exp(-basis.lams * tau), rtol=1e-12)


# --- fractional dynamics -----------------------------------------------------

def test_free_solution_satisfies_fractional_decay_equation():
    # the per-mode trajectory must satisfy the order-alpha decay equation;
    # checked through the shifted derivative, which keeps integrands bounded
    basis = SpectralBasis(RectDomain.rectangle((0.0, 1.0), (0.0, 1.0)), 2)
    z0 = np.ones(len(basis.modes))
    for alpha, p in ((0.3, 0), (0.7, 1)):
        lam = basis.lams[p]

        # the mode's free trajectory minus 1, one router call per grid
        def shifted(s, lam=lam, alpha=alpha):
            tau = WINDOW.tau_from_start(np.clip(s, WINDOW.a, WINDOW.b))
            return ml_on_negative_axis(alpha, 1.0, -lam * tau ** alpha) - 1.0

        for th in (0.2, 0.55, 0.9):
            t = WINDOW.a * (WINDOW.b / WINDOW.a) ** th
            y_t = free_solution(z0, basis, alpha, WINDOW, t)[p]
            tau = WINDOW.tau_from_start(t)
            assert_allclose(y_t, ml_on_negative_axis(
                alpha, 1.0, -basis.lams * tau ** alpha)[p], rtol=1e-13, atol=0)
            got = hadamard_derivative_left(shifted, alpha, WINDOW, t, nodes=96)
            assert abs(got + lam * y_t) <= 1e-6 * lam * abs(y_t)


def test_free_solution_initial_instant_is_identity():
    basis = SpectralBasis(DOMAIN_1D, 3)
    z0 = np.array([0.3, 0.1, -0.2])
    state = free_solution(z0, basis, 0.6, WINDOW, WINDOW.a)
    assert np.array_equal(state, z0)


def test_adjoint_solution_refuses_final_time_when_singular():
    basis = SpectralBasis(DOMAIN_1D, 2)
    with pytest.raises(ValueError, match="singular at the final time"):
        adjoint_solution([1.0, 0.0], basis, 0.7, WINDOW, WINDOW.b)


def test_adjoint_solution_interior_profile():
    from ultradiff.mittag_leffler import ml_on_negative_axis
    basis = SpectralBasis(DOMAIN_1D, 2)
    c = np.array([0.4, 1.1])
    alpha = 0.7
    t = 1.9
    tau = math.log(WINDOW.b / t)
    kernel = tau ** (alpha - 1.0) * ml_on_negative_axis(
        alpha, alpha, -basis.lams * tau ** alpha)
    got = adjoint_solution(c, basis, alpha, WINDOW, t)
    assert_allclose(got, kernel * c, rtol=1e-13)


# --- divergence refusal ------------------------------------------------------

def singular_signal(alpha, levels=(1.0,), epsilon=None):
    return ControlSignal.from_smooth_part(
        lambda tau: np.tile(np.asarray(levels, dtype=float)[:, None], (1, tau.size)),
        WINDOW, alpha, epsilon_cutoff=epsilon)


def test_singular_control_divergence_refusal_and_cutoff():
    basis = SpectralBasis(DOMAIN_1D, 2)
    acts = ActuatorSet((Actuator(Region.whole(DOMAIN_1D),
                                 ONE_1D, "bulk"),))
    u = singular_signal(0.4)
    with pytest.raises(EnergyDivergenceError) as err:
        forced_solution(acts, basis, u, 0.4, WINDOW, WINDOW.b)
    assert err.value.alpha == 0.4
    assert "epsilon" in str(err.value)
    # an explicit cutoff makes the same evaluation finite
    state = forced_solution(acts, basis, singular_signal(0.4, epsilon=1e-3), 0.4,
                            WINDOW, WINDOW.b)
    assert np.all(np.isfinite(state))
    # interior times never touch the singular endpoint
    interior = forced_solution(acts, basis, u, 0.4, WINDOW, 2.0)
    assert np.all(np.isfinite(interior))
    # integrable case needs no cutoff
    ok = forced_solution(acts, basis, singular_signal(0.7), 0.7, WINDOW, WINDOW.b)
    assert np.all(np.isfinite(ok))


def test_kernel_rule_moments():
    L = WINDOW.length
    for alpha in (0.4, 0.7):
        tau, w = kernel_rule(alpha, alpha - 1.0, length=L)
        assert_allclose(np.sum(w), L ** alpha / alpha, rtol=1e-13)
        assert_allclose(w @ tau ** alpha, L ** (2 * alpha) / (2 * alpha), rtol=1e-13)
    # epsilon-cutoff rule integrates the squared-kernel weight exactly
    alpha, eps = 0.4, 1e-3
    tau, w = kernel_rule(alpha, 2.0 * (alpha - 1.0), eps=eps, length=L)
    exact = (L ** (2 * alpha - 1.0) - eps ** (2 * alpha - 1.0)) / (2 * alpha - 1.0)
    assert_allclose(np.sum(w), exact, rtol=1e-12)
    with pytest.raises(ValueError, match="non-integrable"):
        kernel_rule(0.4, 2.0 * (0.4 - 1.0), length=L)
    # nodes placed for lam_max: int_0^L tau^(a-1) E_{a,a}(-lam tau^a) dtau
    # = (1 - E_a(-lam L^a)) / lam, at decay rates the plain rule misses
    L = math.log(3.0)
    for alpha in (0.3, 0.7, 0.99):
        for lam in (10.0, 1e3, 1e4):
            tau, w = kernel_rule(alpha, alpha - 1.0, n=160, length=L, lam_max=lam)
            assert tau.size == 160
            exact = (1.0 - ml_on_negative_axis(alpha, 1.0, -lam * L ** alpha)) / lam
            assert_allclose(w @ ml_on_negative_axis(alpha, alpha, -lam * tau ** alpha),
                            exact, rtol=1e-10)


def test_kernel_table_working_memory_is_bounded():
    # the K=16 modal residual table: 122 buckets of 256 modes on 192 nodes,
    # 23k arguments; the contour runs them in fixed blocks, not as two
    # 33 x 23k complex temporaries (16.4 MiB at 131 rows)
    basis = SpectralBasis(RectDomain.rectangle((0.0, 1.0), (0.0, 1.0)), 16)
    taus, _ = kernel_rule(0.7, 2.0 * (0.7 - 1.0), n=192, length=math.log(4.0),
                          lam_max=float(np.max(basis.lams)))
    tracemalloc.start()
    try:
        table = _ml_matrix(0.7, basis.lams, taus)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.shape == (256, 192)
    assert peak <= 4 * 2 ** 20


def test_kernel_table_has_one_row_per_eigenvalue_bucket():
    # on the unit square lam_kl = lam_lk, and k^2 + l^2 = 50 from (1,7), (5,5)
    # and (7,1); summed in another order they differ in their last bits, so a
    # bucket must carry one float for its members to share one kernel row
    basis = SpectralBasis(RectDomain.rectangle((0.0, 1.0), (0.0, 1.0)), 16)
    taus, _ = kernel_rule(0.7, 2.0 * (0.7 - 1.0), n=192, length=math.log(4.0),
                          lam_max=float(np.max(basis.lams)))
    table = _ml_matrix(0.7, basis.lams, taus)
    buckets = basis.buckets
    assert buckets[-1] + 1 == 122
    assert len(np.unique(table, axis=0)) == 122
    for bucket in range(122):
        rows = table[buckets == bucket]
        assert np.array_equal(rows, np.broadcast_to(rows[0], rows.shape))


# --- control signal mechanics ------------------------------------------------

def test_control_signal_times_round_trip():
    L = WINDOW.length
    # times() loses one ulp of tau through exp/log, so allow a tiny atol
    for fn in (lambda tau: np.vstack([np.sin(tau), np.cos(tau)]),
               lambda tau: np.vstack([np.sin(L - tau), np.cos(L - tau)])):
        sig = ControlSignal(WINDOW, 0.7, fn)
        assert_allclose(sig.evaluate_time(sig.times()), sig.values,
                        rtol=1e-13, atol=1e-12)
    # the singular factor amplifies that ulp by |alpha-1|/tau at the first
    # graded node (~3e-10 here), so the singular round-trip gets a wider band
    singular = singular_signal(0.7, levels=(2.0,))
    assert_allclose(singular.evaluate_time(singular.times()), singular.values,
                    rtol=1e-9)


def test_control_signal_validation():
    ones = lambda tau: np.ones((1, tau.size))
    with pytest.raises(ValueError, match="does not match"):
        ControlSignal(WINDOW, 0.7, lambda tau: np.ones((1, 9)))
    with pytest.raises(ValueError, match="non-finite"):
        ControlSignal(WINDOW, 0.7, lambda tau: np.where(tau > 0.5, np.nan, 1.0))
    with pytest.raises(ValueError, match="alpha"):
        ControlSignal(WINDOW, 1.5, ones)
    with pytest.raises(ValueError, match="tau <= 0"):
        singular_signal(0.6).evaluate_tau(np.array([0.0, 0.1]))


# --- coefficient inputs --------------------------------------------------------

def test_free_and_adjoint_solutions_validate_their_coefficients():
    # one finite coefficient per mode, checked before any arithmetic: a short
    # vector must not broadcast against the basis's decay rates
    basis = SpectralBasis(DOMAIN_1D, 4)
    bad = np.array([0.5, np.inf, 0.1, 0.2])
    for solution in (free_solution, adjoint_solution):
        for t in (2.0, WINDOW.a):
            with pytest.raises(ValueError, match="expected 4 coefficients"):
                solution([1.0], basis, 0.7, WINDOW, t)
            with pytest.raises(ValueError, match="expected 4 coefficients"):
                solution(np.ones(5), basis, 0.7, WINDOW, t)
            with pytest.raises(ValueError, match="non-finite"):
                solution(bad, basis, 0.7, WINDOW, t)
            assert solution(np.ones(4), basis, 0.7, WINDOW, t).shape == (4,)


def test_final_gradient_norm_against_eigenvalue_identity():
    # over the whole domain the restricted-gradient Gram is diag(lams), so the
    # final state's gradient seminorm |R_Gamma z| is sqrt(sum lam_p z_p^2)
    basis = SpectralBasis(DOMAIN_1D, 4)
    coeffs = np.array([0.5, -0.25, 0.125, 0.0625])
    factor = gradient_gram(basis, Region.whole(DOMAIN_1D)).factor
    exact = math.sqrt(float(np.sum(basis.lams * coeffs ** 2)))
    assert_allclose(np.linalg.norm(factor @ coeffs), exact, rtol=1e-11)
