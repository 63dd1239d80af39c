"""Gauss rules on [0, 1]: the numpy Gauss-Jacobi routine and its Legendre case.

The reference nodes and weights were computed with mpmath 1.3.0 at 50
decimal digits: Newton's method on the three-term recurrence of P_n^(0, p),
from the float rules' nodes, until a step fell below 1e-45, and the weights
from the closed form 2^(p+1) / ((1 - x^2) P_n'(x)^2), whose sum matched
int_0^1 x^p dx to 1e-40.  They are frozen as the float64 values nearest, at
the three smallest, the middle and the three largest nodes of each rule.
"""

import numpy as np
import pytest
from scipy.special import roots_jacobi, roots_legendre

from ultradiff._quadrature import gauss_jacobi_01, kernel_rule
from ultradiff.spectral import _box_rule_1d

# (n, p): (node indices, nodes, weights) of int_0^1 x^p f(x) dx
REFERENCE = {
    (5, 0.5): ([0, 1, 2, 3, 4],
        [0.07265351292075016, 0.26946079135749507, 0.5331219512438066, 0.786880055907332, 0.9569313076182352],
        [0.03818734674041414, 0.12567315269318233, 0.19863080149482795, 0.19763337629081512, 0.10654198944742711]),
    (24, -0.57): ([0, 1, 2, 12, 21, 22, 23],
        [0.0008815441562270288, 0.008972090072086526, 0.02531770560653865, 0.5231113040674421, 0.9684100412399228, 0.9870646417811482, 0.9975363461357999],
        [0.21489268897895014, 0.17993294113890468, 0.16576819152294525, 0.09374261934445678, 0.023073050074708924, 0.014711283367624676, 0.006326222747489514]),
    (96, 0.5): ([0, 1, 2, 48, 93, 94, 95],
        [0.00026357046774071023, 0.0010540039915417178, 0.002370467226104846, 0.5101431604529771, 0.9980012705622885, 0.9991864022751848, 0.9998455521409786],
        [8.557303886584241e-06, 3.420666295066348e-05, 7.688047349203954e-05, 0.011593714350076986, 0.0014464264325717447, 0.0009218295555932099, 0.00039631206663356483]),
    (160, -0.99): ([0, 1, 2, 80, 157, 158, 159],
        [3.9255027707590347e-07, 0.0001447632824648495, 0.00048290620251897486, 0.5024740516278133, 0.9992689008979782, 0.9997024753081988, 0.9999435278105876],
        [90.67270200973991, 1.5285708988283615, 0.8335959211335715, 0.01940351983741868, 0.0005302141207697306, 0.0003373986621184044, 0.00014493124917849034]),
    (192, 0.0): ([0, 1, 2, 96, 189, 190, 191],
        [3.901567040257784e-05, 0.00020555983029307294, 0.000505138995888591, 0.5040799314190476, 0.9994948610041114, 0.999794440169707, 0.9999609843295975],
        [0.00010012550737356336, 0.00023304724279562348, 0.00036610378331250926, 0.008159681728350753, 0.00036610378331250926, 0.00023304724279562348, 0.00010012550737356336]),
    (192, -0.57): ([0, 1, 2, 96, 189, 190, 191],
        [1.399603779821302e-05, 0.0001428274267692273, 0.00040522951926140086, 0.5029203992459034, 0.9994933610823791, 0.999793829734696, 0.9999608684613537],
        [0.03619716464988242, 0.030424283605299536, 0.02824883628799134, 0.012091219336200762, 0.00036729676184095233, 0.00023376673029146895, 0.00010042509495946201]),
}


def _scipy_rule(n, p):
    x, w = roots_legendre(n) if p == 0.0 else roots_jacobi(n, 0.0, p)
    return (x + 1.0) / 2.0, w / 2.0 ** (p + 1.0)


def _errors(rule, n, p):
    """Largest absolute node error and relative weight error at the pins."""
    idx, nodes, weights = REFERENCE[n, p]
    x, w = rule(n, p)
    return (np.max(np.abs(x[idx] - nodes)),
            np.max(np.abs(w[idx] - weights) / np.array(weights)))


@pytest.mark.parametrize("n,p", list(REFERENCE))
def test_gauss_jacobi_matches_high_precision_values(n, p):
    node_error, weight_error = _errors(gauss_jacobi_01, n, p)
    assert node_error <= 2.3e-16
    # at p = -0.99 the first weight holds 99% of the mass, and its node's
    # float spacing sets its error; the sum-to-mass scaling passes it on
    assert weight_error <= (5e-10 if p < -0.9 else 5e-12)


@pytest.mark.parametrize("n,p", list(REFERENCE))
def test_gauss_jacobi_is_as_accurate_as_scipy(n, p):
    node_error, weight_error = _errors(gauss_jacobi_01, n, p)
    scipy_node_error, scipy_weight_error = _errors(_scipy_rule, n, p)
    assert node_error <= scipy_node_error
    assert weight_error <= scipy_weight_error


@pytest.mark.parametrize("n,p", list(REFERENCE))
def test_gauss_jacobi_integrates_monomials_to_degree_2n_minus_1(n, p):
    x, w = gauss_jacobi_01(n, p)
    k = np.arange(2 * n)
    exact = 1.0 / (p + k + 1.0)
    approx = (w * x ** k[:, None]).sum(axis=1)
    assert np.max(np.abs(approx - exact) / exact) <= (5e-10 if p < -0.9 else 2e-13)


def test_legendre_is_the_p_zero_case():
    # the Legendre rule on [0, 1] is symmetric about 1/2
    x, w = gauss_jacobi_01(7, 0.0)
    assert np.allclose(x + x[::-1], 1.0, rtol=0, atol=2e-16)
    assert np.allclose(w, w[::-1], rtol=4e-15, atol=0)


def test_one_node_rule_is_exact():
    x, w = gauss_jacobi_01(1, 0.5)
    assert abs(x[0] - 0.6) <= 1e-16 and abs(w[0] - 1.0 / 1.5) <= 2e-16


def test_jacobi_exponent_must_exceed_minus_one():
    with pytest.raises(ValueError, match="exceed -1"):
        gauss_jacobi_01(8, -1.0)


def test_memos_keyed_on_continuous_inputs_stay_bounded():
    """Window lengths, decay rates, box edges and Jacobi exponents take any
    float: after 100 distinct windows each memo still holds at most its
    constant bound.  A box rule is mapped from the cached Gauss rule on each
    call, and keeps no memo of its own."""
    for length in np.linspace(1.0, 3.0, 100):
        kernel_rule(0.7, -0.6, n=24, length=float(length), lam_max=50.0)
        gauss_jacobi_01(8, float(length) - 1.5)
        _box_rule_1d(0.0, float(length), 8)
    assert not hasattr(_box_rule_1d, "cache_info")
    for memo in (kernel_rule, gauss_jacobi_01):
        info = memo.cache_info()
        assert info.maxsize is not None
        assert 0 < info.currsize <= info.maxsize
