"""Release gate: one test per shipped guarantee, at the stated tolerance.

Each test prints the measured quantity next to its bound so a failure report
carries the numbers.  Runtime ceilings use wall-clock time on the assembled
problem only (no import or fixture cost).
"""

import math
import subprocess
import sys
import time

import numpy as np
import pytest
from numpy.testing import assert_allclose

from _reference import (adjoint_solution, hadamard_caputo_left,
                        hadamard_derivative_left, hadamard_derivative_right,
                        hadamard_integral_left, hadamard_integral_right,
                        reflect_Q)
from ultradiff.controllability import (approx_controllability_verdict,
                                       assemble_gramian, strategic_test,
                                       worked_example_pairing_table)
from ultradiff.hum import HumProblem, energy, solve_hum, verify_minimality
from ultradiff.logtime import LogTimeWindow
from ultradiff.mittag_leffler import ml_on_negative_axis
from ultradiff.solver import (ControlSignal, EnergyDivergenceError,
                              forced_solution, free_solution)
from ultradiff.spectral import (Actuator, ActuatorSet, RectDomain, Region,
                                SeparableProfile, SpectralBasis,
                                actuator_coefficients)

SQUARE = RectDomain.rectangle((-1.0, 1.0), (-1.0, 1.0))
UNIT_SQUARE = RectDomain.rectangle((0.0, 1.0), (0.0, 1.0))
UNIT_INTERVAL = RectDomain.interval(0.0, 1.0)


constant_profile = SeparableProfile(((1.0, (np.ones_like,) * 2),))
constant_interval = SeparableProfile(((1.0, (np.ones_like,)),))


def interior_times(window, n, lo=0.08, hi=0.95):
    return window.a * (window.b / window.a) ** np.linspace(lo, hi, n)


# -- 1: whole-domain steering of zero-mean modes must be rejected -------------

def test_whole_domain_zero_mean_modes_not_controllable():
    started = time.perf_counter()
    window = LogTimeWindow(2.0, 4.0)
    basis = SpectralBasis(SQUARE, 8, "whole-wave")
    whole = Region.whole(SQUARE)

    # a uniform actuator cannot couple to any whole-wave mode: every mean is
    # an integral of full sine periods
    uniform = SeparableProfile(((1.0, (np.ones_like,) * 2),))
    means = actuator_coefficients(
        ActuatorSet((Actuator(whole, uniform, "uniform"),)), basis)[0]
    worst_mean = float(np.max(np.abs(means)))
    print(f"largest |actuator-mode coupling| over 8x8 modes: {worst_mean:.3e}"
          f"  (bound 1e-10)")
    assert means.shape == (len(basis.modes),)
    assert worst_mean <= 1e-10

    acts = ActuatorSet((Actuator(whole, constant_profile, "uniform"),))
    gramian = assemble_gramian(basis, whole, acts, 0.5, window, epsilon=1e-3)
    verdict = approx_controllability_verdict(gramian)
    print(f"largest Gramian eigenvalue: {verdict.largest_eigenvalue:.3e}"
          f"  (bound 1e-20); verdict: {verdict.verdict}")
    assert verdict.largest_eigenvalue <= 1e-20
    assert not verdict.controllable
    assert verdict.verdict == "NOT"

    elapsed = time.perf_counter() - started
    print(f"elapsed: {elapsed:.2f}s  (ceiling 10s)")
    assert elapsed < 10.0


# -- 2: quadrant zone actuator on the shared-period family --------------------

def test_quadrant_zone_actuator_controllable_with_simple_ranks():
    # The name records the claim once made for this worked example: one
    # constant zone actuator on the quadrant [0,1]^2 of [-1,1]^2 makes the
    # quadrant gradient-reachable with a clean margin, every eigenvalue simple
    # and every block passing.  On the whole-wave family sin(k pi x) sin(l pi y)
    # the claim is false, and this test asserts exactly why.  Every expected
    # value comes from the mode indices (k, l):
    # * couplings: int_0^1 sin(k pi x) dx = (1 - cos k pi)/(k pi) is 2/(k pi)
    #   for odd k and 0 for even k, so d_kl = 4/(k l pi^2) on the odd-odd
    #   modes and 0 on all others;
    # * eigenvalues: lam_kl = pi^2 (k^2 + l^2) = lam_lk, so the buckets are
    #   keyed by k^2 + l^2, every bucket with k != l is at least double, and
    #   one actuator is fewer than the largest multiplicity;
    # * Gramian: W = diag(d) K diag(d), with K_pq a function of lam_p and lam_q
    #   only.  Modes (k,l) and (l,k) share both kernel and coupling, so the
    #   pencil rank is the number of distinct k^2 + l^2 over odd k, l, the
    #   rest of the spectrum is roundoff, and the verdict is NOT;
    # * strategic test: the stacked observation map has the same rank, one
    #   direction per odd-odd bucket, out of the K^2 required.  Each odd-odd
    #   bucket has direction ranks (1, 1); every other bucket has none.
    # `passes` on the double odd-odd buckets {(k,l),(l,k)} is printed, not
    # asserted: their 2-D block stacks both gradient-direction rows and reaches
    # rank 2 with one actuator, while the Gramian sees one direction there (see
    # `strategic_test`).
    started = time.perf_counter()
    window = LogTimeWindow(2.0, 4.0)
    basis = SpectralBasis(SQUARE, 6, "whole-wave")
    quadrant = Region.box(SQUARE, (0.0, 1.0), (0.0, 1.0))
    acts = ActuatorSet((Actuator(quadrant, constant_profile, "zone"),))

    gramian = assemble_gramian(basis, quadrant, acts, 0.7, window)
    verdict = approx_controllability_verdict(gramian)
    report = strategic_test(basis, quadrant, acts, alpha=0.7, window=window,
                            gram=gramian.gram,
                            coefficient_matrix=gramian.coefficient_matrix)
    elapsed = time.perf_counter() - started

    indices = basis.modes.tolist()
    sums = [k * k + l * l for k, l in indices]
    odd = [k % 2 == 1 and l % 2 == 1 for k, l in indices]
    distinct_sums = sorted(set(sums))
    coupled_sums = {s for s, o in zip(sums, odd) if o}

    # couplings: nonzero exactly on the odd-odd modes
    expected_d = [4.0 / (k * l * math.pi ** 2) if o else 0.0
                  for (k, l), o in zip(indices, odd)]
    assert gramian.coefficient_matrix.shape == (1, len(indices))
    assert_allclose(gramian.coefficient_matrix[0], expected_d, rtol=0, atol=1e-12)

    # eigenvalues and buckets: lam_kl = lam_lk
    assert_allclose(basis.lams, [math.pi ** 2 * s for s in sums], rtol=1e-12)
    assert basis.buckets.tolist() == [
        distinct_sums.index(s) for s in sums]
    multiplicities = [sums.count(s) for s in distinct_sums]
    assert [bucket.multiplicity for bucket in report.buckets] == multiplicities
    assert_allclose([bucket.eigenvalue for bucket in report.buckets],
                    [math.pi ** 2 * s for s in distinct_sums], rtol=1e-12)
    assert report.m == 1
    assert report.sup_multiplicity == max(multiplicities)
    assert not report.m_sufficient

    # Gramian pencil: rank = number of distinct k^2 + l^2 over odd k, l
    rank = len(coupled_sums)
    eigenvalues = gramian.pencil_eigenvalues
    largest = float(eigenvalues[-1])
    dropped = eigenvalues[:-rank]
    print(f"pencil rank {rank} of {len(eigenvalues)}: smallest kept "
          f"{eigenvalues[-rank] / largest:.3e}, largest dropped "
          f"{np.max(np.abs(dropped)) / largest:.3e} of the largest")
    print(f"verdict: {verdict.verdict}; relative margin: "
          f"{verdict.relative_margin:.3e}  (bound |.| <= 1e-14)")
    assert largest > 0
    assert np.all(eigenvalues[-rank:] > 1e-12 * largest)
    assert np.all(np.abs(dropped) <= 1e-14 * largest)
    assert abs(verdict.relative_margin) <= 1e-14
    assert not verdict.controllable
    assert verdict.verdict == "NOT"

    # strategic test: one direction per odd-odd bucket, nothing elsewhere
    assert report.criterion == "generic"
    assert report.required_rank == len(indices)
    assert report.stacked_rank == rank
    assert not report.strategic
    assert report.verdict == "NOT"
    for s, bucket in zip(distinct_sums, report.buckets):
        if s not in coupled_sums:
            assert bucket.direction_ranks == (0, 0), s
            assert bucket.block_rank == 0, s
            assert not bucket.passes, s
            continue
        assert bucket.direction_ranks == (1, 1), s
        if bucket.multiplicity == 1:
            assert bucket.block_rank == 1, s
            assert bucket.passes, s
        else:
            members = [index for index, t in zip(indices, sums) if t == s]
            print(f"bucket {members}: block rank {bucket.block_rank}, "
                  f"passes {bucket.passes}  (not asserted)")

    print(f"elapsed: {elapsed:.2f}s  (ceiling 60s)")
    assert elapsed < 60.0


# -- 3: gradient-pairing table is nonzero where the argument needs it ---------

def test_pairing_table_quadrature_nonzero_with_closed_form_column():
    basis = SpectralBasis(SQUARE, 6, "whole-wave")
    quadrant = Region.box(SQUARE, (0.0, 1.0), (0.0, 1.0))
    rows = worked_example_pairing_table(basis, quadrant)

    assert len(rows) == 36  # k,l in {1,3,5} x p,q in {2,4}
    smallest = min(abs(row.quadrature) for row in rows)
    print(f"36 pairing rows; smallest |quadrature|: {smallest:.3e}")
    for row in rows:
        label = f"(k,l,p,q)=({row.k},{row.l},{row.p},{row.q})"
        assert math.isfinite(row.quadrature), label
        assert row.quadrature != 0.0, label
        # the closed-form column rides along for comparison only; acceptance
        # does not require agreement, just that both are reported
        assert math.isfinite(row.closed_form), label
        assert math.isfinite(row.rel_discrepancy) and row.rel_discrepancy >= 0.0, label


# -- 4: log-time operator calculus -------------------------------------------

def test_reflection_exchange_closed_forms_and_semigroup():
    window = LogTimeWindow(0.7, 2.9)
    ab = window.a * window.b
    alphas = (0.3, 0.5, 0.7)
    fns = [
        lambda s: np.cos(2.0 * np.log(s)),
        lambda s: np.exp(0.7 * np.log(s)),
        lambda s: 1.0 / (1.0 + np.log(np.asarray(s, dtype=float)) ** 2),
        lambda s: np.sin(np.log(s)),
        lambda s: 0.5 + 0.3 * np.log(np.asarray(s, dtype=float)) ** 3,
    ]
    times = interior_times(window, 20, lo=0.1, hi=0.9)

    worst = 0.0
    for alpha in alphas:
        for f in fns:
            qf = reflect_Q(f, window)
            for t in times:
                t = float(t)
                pairs = (
                    (hadamard_integral_left(f, alpha, window, ab / t),
                     hadamard_integral_right(qf, alpha, window, t)),
                    (hadamard_integral_left(qf, alpha, window, t),
                     hadamard_integral_right(f, alpha, window, ab / t)),
                    (hadamard_derivative_left(f, alpha, window, ab / t),
                     hadamard_derivative_right(qf, alpha, window, t)),
                    (hadamard_derivative_left(qf, alpha, window, t),
                     hadamard_derivative_right(f, alpha, window, ab / t)),
                )
                worst = max(worst, *(abs(lhs - rhs) for lhs, rhs in pairs))
    print(f"worst exchange-identity defect over 5 fns x 20 times x 3 alphas: "
          f"{worst:.3e}  (bound 1e-6)")
    assert worst <= 1e-6

    # Caputo derivative of log-powers against the hand closed form
    worst_caputo = 0.0
    for alpha in alphas:
        for p in (1.0, 1.5, 2.0, 3.0):
            def f(s, p=p):
                u = np.clip(np.log(np.asarray(s, dtype=float) / window.a), 0.0, None)
                return u ** p

            def fprime(s, p=p):
                s = np.asarray(s, dtype=float)
                u = np.clip(np.log(s / window.a), 0.0, None)
                return p * u ** (p - 1.0) / s

            for t in interior_times(window, 10, lo=0.1, hi=0.9):
                t = float(t)
                got = hadamard_caputo_left(f, alpha, window, t, fprime=fprime)
                exact = (math.gamma(p + 1.0) / math.gamma(p + 1.0 - alpha)
                         * math.log(t / window.a) ** (p - alpha))
                worst_caputo = max(worst_caputo, abs(got - exact) / abs(exact))
    print(f"worst Caputo log-power relative error: {worst_caputo:.3e}"
          f"  (bound 1e-7)")
    assert worst_caputo <= 1e-7

    # composition of fractional integrals adds the orders
    f = fns[0]
    worst_semi = 0.0
    for p1, p2 in ((0.3, 0.4), (0.25, 0.5), (0.45, 0.45)):
        def inner(s, p2=p2):
            s = np.atleast_1d(np.asarray(s, dtype=float))
            out = np.zeros(s.shape)
            for i, x in enumerate(s):
                if x > window.a * (1.0 + 1e-13):
                    out[i] = hadamard_integral_left(f, p2, window, float(x))
            return out

        for t in interior_times(window, 5, lo=0.2):
            lhs = hadamard_integral_left(inner, p1, window, float(t))
            rhs = hadamard_integral_left(f, p1 + p2, window, float(t))
            worst_semi = max(worst_semi, abs(lhs - rhs))
    print(f"worst semigroup defect: {worst_semi:.3e}  (bound 1e-7)")
    assert worst_semi <= 1e-7


# -- 5: the free evolution actually solves the fractional decay equation ------

def test_free_solution_residual_per_mode():
    window = LogTimeWindow(1.0, 2.5)
    cases = []
    basis_1d = SpectralBasis(UNIT_INTERVAL, 1)
    cases.append((basis_1d, 0))                       # pi^2
    basis_2d = SpectralBasis(UNIT_SQUARE, 2)
    cases.append((basis_2d, int(np.argmin(np.abs(basis_2d.lams - 5.0 * math.pi ** 2)))))

    worst = 0.0
    for basis, mode in cases:
        lam = basis.lams[mode]
        z0 = np.ones(len(basis.modes))
        for alpha in (0.3, 0.5, 0.7):
            # the mode's free trajectory minus 1, one router call per grid
            def shifted(s, lam=lam, alpha=alpha):
                tau = window.tau_from_start(np.clip(s, window.a, window.b))
                return ml_on_negative_axis(alpha, 1.0, -lam * tau ** alpha) - 1.0

            for t in interior_times(window, 10, lo=0.08, hi=0.95):
                t = float(t)
                y_t = free_solution(z0, basis, alpha, window, t)[mode]
                tau = window.tau_from_start(t)
                assert_allclose(y_t, ml_on_negative_axis(
                    alpha, 1.0, -basis.lams * tau ** alpha)[mode], rtol=1e-13, atol=0)
                got = hadamard_derivative_left(shifted, alpha, window, t, nodes=96)
                worst = max(worst, abs(got + lam * y_t) / (lam * abs(y_t)))
    print(f"worst decay-equation residual over both rates x 3 alphas x 10 "
          f"times: {worst:.3e}  (bound 1e-5)")
    assert worst <= 1e-5


# -- 6: minimum-energy synthesis on a 2D target ------------------------------

def test_minimum_energy_synthesis_end_to_end():
    started = time.perf_counter()
    window = LogTimeWindow(1.0, 4.0)
    basis = SpectralBasis(UNIT_SQUARE, 6)
    whole = Region.whole(UNIT_SQUARE)
    n_modes = len(basis.modes)

    acts = ActuatorSet(tuple(
        Actuator(whole, basis.mode_profile(i), f"mode-{i}") for i in range(n_modes)))
    target = np.random.default_rng(42).standard_normal(n_modes)

    gramian = assemble_gramian(basis, whole, acts, 0.7, window)
    verdict = approx_controllability_verdict(gramian)
    solution = solve_hum(
        HumProblem(basis, whole, acts, 0.7, window, target), gramian=gramian)

    print(f"verdict: {verdict.verdict} (relative margin "
          f"{verdict.relative_margin:.3e})")
    print(f"relative gradient residual: {solution.residual_relative:.3e}"
          f"  (bound 1e-6)")
    print(f"energy-identity gap: {solution.energy_identity_gap:.3e}"
          f"  (bound 1e-6)")
    assert verdict.controllable
    assert solution.residual_relative <= 1e-6
    assert solution.energy_identity_gap <= 1e-6

    report = verify_minimality(solution, trials=50, seed=0)
    print(f"minimality: {report.trials_passed}/{report.trials_requested} "
          f"perturbation trials, pseudo-inverse gap {report.rel_pinv_gap:.3e}"
          f"  (bound 1e-4)")
    assert report.mode == "kernel+pinv"
    assert report.trials_requested == 50
    assert report.trials_passed == 50
    assert report.rel_pinv_gap <= 1e-4
    assert report.passed

    elapsed = time.perf_counter() - started
    print(f"elapsed: {elapsed:.2f}s  (ceiling 120s)")
    assert elapsed < 120.0


@pytest.mark.parametrize("cutoff", [6, 12, 20])
def test_modal_synthesis_accuracy_holds_as_the_cutoff_grows(cutoff):
    """One whole-square modal actuator per mode: lam_max grows as cutoff^2, and
    the kernel rule's nodes must follow it for the residual to stay small."""
    window = LogTimeWindow(1.0, 3.0)
    basis = SpectralBasis(UNIT_SQUARE, cutoff)
    whole = Region.whole(UNIT_SQUARE)
    acts = ActuatorSet(tuple(Actuator(whole, basis.mode_profile(i), f"mode-{i}")
                             for i in range(len(basis.modes))))
    target = np.random.default_rng(cutoff).standard_normal(len(basis.modes))
    solution = solve_hum(HumProblem(basis, whole, acts, 0.7, window, target))
    print(f"K={cutoff}: residual {solution.residual_relative:.3e} (bound 1e-8), "
          f"energy-identity gap {solution.energy_identity_gap:.3e}"
          f" (bound 1e-10)")
    assert solution.residual_relative <= 1e-8
    assert solution.energy_identity_gap <= 1e-10
    if cutoff == 12:
        report = verify_minimality(solution, trials=12, seed=0)
        print(f"minimality: pseudo-inverse gap {report.rel_pinv_gap:.3e}"
              f"  (bound 1e-6)")
        assert report.passed
        assert report.rel_pinv_gap <= 1e-6


def test_near_classical_order_synthesis_without_mpmath():
    # alpha = 0.99: the selftest's 1-D problem (4 whole-domain modal
    # actuators, window [1, e]) meets every synthesize gate
    window = LogTimeWindow(1.0, math.e)
    basis = SpectralBasis(UNIT_INTERVAL, 4)
    region = Region.box(UNIT_INTERVAL, (0.2, 0.9))
    acts = ActuatorSet(tuple(
        Actuator(Region.whole(UNIT_INTERVAL), basis.mode_profile(i), f"mode-{i}")
        for i in range(4)))
    target = np.array([0.4, -0.2, 0.1, 0.05])
    solution = solve_hum(HumProblem(basis, region, acts, 0.99, window, target))
    print(f"alpha 0.99: residual {solution.residual_relative:.3e}, "
          f"energy-identity gap {solution.energy_identity_gap:.3e}  (bounds 1e-6)")
    assert solution.residual_relative <= 1e-6
    assert solution.energy_identity_gap <= 1e-6
    assert verify_minimality(solution, trials=12, seed=0).passed

    # a whole alpha = 0.99 table over z in [-80, 0] never loads mpmath
    code = ("import sys; import numpy as np; import ultradiff\n"
            "from ultradiff.mittag_leffler import ml_on_negative_axis\n"
            "z = np.linspace(-80.0, 0.0, 2001)\n"
            "for beta in (0.99, 1.0, 1.99):\n"
            "    assert np.all(np.isfinite(ml_on_negative_axis(0.99, beta, z)))\n"
            "print('mpmath' in sys.modules)\n")
    run = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    assert run.stdout.strip() == "False"


def _near_classical_k6(seed, pass_index):
    """The benchmark's near-classical K=6 configuration at one (seed, pass):
    36 whole-square modal actuators, the quadrant, alpha 0.98, window [1, b]."""
    rng = np.random.default_rng([seed, pass_index])
    b = rng.uniform(3.5, 4.5)
    rng.standard_normal(1)                  # the K=1 configuration's target
    basis = SpectralBasis(UNIT_SQUARE, 6)
    whole = Region.whole(UNIT_SQUARE)
    acts = ActuatorSet(tuple(Actuator(whole, basis.mode_profile(i), f"mode-{i}")
                             for i in range(len(basis.modes))))
    quadrant = Region.box(UNIT_SQUARE, (0.0, 0.5), (0.0, 0.5))
    return HumProblem(basis, quadrant, acts, 0.98, LogTimeWindow(1.0, b),
                      rng.standard_normal(36))


def _zone_probe(cutoff, grid):
    """A grid x grid array of product-of-sines box actuators, integer
    frequencies from one generator, which then draws the target; the quadrant,
    alpha 0.7, window [1, 4]."""
    rng = np.random.default_rng(3)
    acts = []
    for i in range(grid):
        for j in range(grid):
            kx, ky = rng.integers(1, 7, size=2)
            box = Region.box(UNIT_SQUARE, (i / grid, (i + 1) / grid),
                             (j / grid, (j + 1) / grid))
            acts.append(Actuator(box, SeparableProfile(((1.0, (
                lambda x, kx=kx: np.sin(kx * math.pi * x),
                lambda y, ky=ky: np.sin(ky * math.pi * y))),))))
    basis = SpectralBasis(UNIT_SQUARE, cutoff)
    quadrant = Region.box(UNIT_SQUARE, (0.0, 0.5), (0.0, 0.5))
    return HumProblem(basis, quadrant, ActuatorSet(tuple(acts)), 0.7,
                      LogTimeWindow(1.0, 4.0), rng.standard_normal(cutoff ** 2))


@pytest.mark.parametrize("problem", [
    lambda: _near_classical_k6(2, 0), lambda: _near_classical_k6(3, 0),
    lambda: _zone_probe(6, 4),
], ids=["near-classical-seed2-pass0", "near-classical-seed3-pass0", "zone6-4"])
def test_energy_identity_survives_an_ill_conditioned_gram(problem):
    """cond Gamma is ~4e11 on these quadrant problems.  The dual weights and
    their norm go through the triangular Gram factor, whose condition is the
    square root of Gamma's, so the identity holds to the synthesize gate."""
    solution = solve_hum(problem())
    print(f"residual {solution.residual_relative:.3e}, energy-identity gap "
          f"{solution.energy_identity_gap:.3e}  (bounds 1e-6)")
    assert solution.residual_relative <= 1e-6
    assert solution.energy_identity_gap <= 1e-6


def test_energy_identity_gap_shows_the_zone_probe_failure():
    """On zone8-4 cond Gamma is ~2e17 (~4e11 on zone6-4), past what double
    precision resolves, so the dual weights Gamma^-1 c lose the identity:
    J(u*) and their observation norm differ by two orders of magnitude.  The
    solution's gap shows it, as the synthesize report does; the quadratic
    form c'Wc agrees with J to ~7e-10 and would hide it."""
    solution = solve_hum(_zone_probe(8, 4))
    print(f"energy {solution.energy:.6e}, dual norm "
          f"{solution.dual_norm_squared:.6e}, gap "
          f"{solution.energy_identity_gap:.3e}  (floor 0.5)")
    assert solution.energy_identity_gap > 0.5


# -- 7: first-order limit reproduces the elementary exponential answers -------

def test_classical_limit_regression():
    window = LogTimeWindow(1.0, 2.5)
    basis = SpectralBasis(UNIT_INTERVAL, 1)
    whole = Region.whole(UNIT_INTERVAL)
    acts = ActuatorSet((Actuator(whole, constant_interval, "z"),))
    lam = math.pi ** 2
    L = window.length
    d = 2.0 * math.sqrt(2.0) / math.pi          # mean of the first mode shape

    # propagators: plain exponentials in log time
    ts = [1.1, 1.7, 2.3, window.b]
    for t in ts:
        tau = math.log(t / window.a)
        assert_allclose(free_solution([1.3], basis, 1.0, window, t),
                        [1.3 * math.exp(-lam * tau)], rtol=1e-9)
        back = math.log(window.b / t)
        assert_allclose(adjoint_solution([0.7], basis, 1.0, window, t),
                        [0.7 * math.exp(-lam * back)], rtol=1e-9)

    u_const = ControlSignal(window, 1.0,
                            lambda tau: np.full((1, np.size(tau)), 0.9))
    for t in ts[1:]:
        tau = math.log(t / window.a)
        forced = forced_solution(acts, basis, u_const, 1.0, window, t)
        assert_allclose(forced,
                        [0.9 * d * (1.0 - math.exp(-lam * tau)) / lam],
                        rtol=1e-9)

    # Gramian: one elementary integral
    w_exact = d * d / window.b * (1.0 - math.exp(-(2 * lam - 1) * L)) / (2 * lam - 1)
    gramian = assemble_gramian(basis, whole, acts, 1.0, window)
    gap = abs(gramian.matrix[0, 0] - w_exact) / w_exact
    print(f"Gramian entry relative error: {gap:.3e}  (bound 1e-9)")
    assert_allclose(gramian.matrix[0, 0], w_exact, rtol=1e-9)

    # synthesis: datum, dual weights, energy, control trajectory, residual
    gamma, y0 = 0.8, 0.35
    rhs = gamma - y0 * math.exp(-lam * L)
    solution = solve_hum(HumProblem(basis, whole, acts, 1.0, window, [gamma],
                                    y0_coefficients=[y0]), gramian=gramian)
    assert_allclose(solution.adjoint_datum, [rhs / w_exact], rtol=1e-9)
    assert_allclose(solution.g_coefficients, [rhs / w_exact / lam], rtol=1e-9)
    assert_allclose(solution.energy, rhs ** 2 / w_exact, rtol=1e-9)
    assert solution.residual_relative <= 1e-9

    sample_ts = np.array([1.1, 1.7, 2.3])
    taus = np.log(window.b / sample_ts)
    u_exact = np.exp(-lam * taus) / sample_ts * d * rhs / w_exact
    got_u = solution.control.evaluate_time(sample_ts)[0]
    print(f"control-sample worst relative error: "
          f"{float(np.max(np.abs(got_u / u_exact - 1.0))):.3e}  (bound 1e-9)")
    assert_allclose(got_u, u_exact, rtol=1e-9)
    assert_allclose(energy(solution.control), rhs ** 2 / w_exact, rtol=1e-9)


# -- 8: deep sub-diffusion refuses silent divergence, runs with a cutoff ------

def test_divergence_guard_and_regularized_synthesis():
    window = LogTimeWindow(1.0, 2.5)
    basis = SpectralBasis(UNIT_INTERVAL, 3)
    region = Region.box(UNIT_INTERVAL, (0.05, 0.95))
    acts = ActuatorSet((
        Actuator(Region.box(UNIT_INTERVAL, (0.0, 0.6)), constant_interval, "z1"),
        Actuator(Region.box(UNIT_INTERVAL, (0.3, 1.0)),
                 SeparableProfile(((1.0, (lambda x: x,)),)), "z2"),
    ))

    with pytest.raises(EnergyDivergenceError) as err:
        assemble_gramian(basis, region, acts, 0.4, window)
    message = str(err.value)
    print(f"refusal diagnostic: {message}")
    assert err.value.alpha == 0.4
    assert "tau^(-1.2)" in message
    assert "epsilon" in message

    u = ControlSignal.from_smooth_part(
        lambda tau: np.full((2, np.size(tau)), 1.0), window, 0.4)
    with pytest.raises(EnergyDivergenceError):
        energy(u)

    # with the explicit cutoff the regularized problem is fully consistent
    gramian = assemble_gramian(basis, region, acts, 0.4, window, epsilon=1e-3)
    target = np.random.default_rng(7).standard_normal(len(basis.modes))
    solution = solve_hum(HumProblem(basis, region, acts, 0.4, window, target,
                                    epsilon_cutoff=1e-3), gramian=gramian)
    datum_gap = float(np.max(np.abs(gramian.matrix @ solution.adjoint_datum
                                    - solution.rhs))) \
        / float(np.max(np.abs(solution.rhs)))
    print(f"regularized run: residual {solution.residual_relative:.3e}, "
          f"energy-identity gap {solution.energy_identity_gap:.3e}, "
          f"normal-equation gap {datum_gap:.3e}  (bounds 1e-6)")
    assert solution.residual_relative <= 1e-6
    assert solution.energy_identity_gap <= 1e-6
    assert datum_gap <= 1e-6
