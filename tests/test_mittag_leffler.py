"""Propagator special-function tests.

The reference tables below were produced by independent 50-digit mpmath
evaluators (not the shipped code path) and frozen at 25 significant digits,
so no test needs mpmath at run time.  For ORACLE, cross-checks between the
independent power-series and asymptotic branches agreed to better than 1e-25
relative.  NEAR_ONE was produced with mpmath 1.3.0 by summing the defining
power series at 50 decimal digits plus the digits of its largest term
(~|z| / ln 10 near alpha = 1), until a term fell below 10^-(digits + 5); a
second summation 30 digits wider agreed to 3.4e-47 relative at every entry.
CONTOUR_ORACLE was produced with mpmath 1.3.0 by summing the defining series
at the exact binary values of the float arguments, at 650 and at 750 decimal
digits (the terms peak near 1e531 at alpha = 0.55, z = -49.9), until a term
fell below 10^-digits; the two sums agreed to 3.2e-116 relative at every
entry, and the 750-digit one is frozen at 25 significant digits.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose
from scipy.special import gammaln

from _reference import MLConvergenceError, _gamma, _series_f64
from ultradiff.mittag_leffler import (_ASYMPTOTIC_TERMS, _CONTOUR_BLOCK,
                                      ml_on_negative_axis, rgamma)

# (alpha, beta, z, E_{alpha,beta}(z)) — frozen 25-digit reference values
ORACLE = [
    (0.5, 0.5, -1.0, 0.1366060073919492825373291),
    (0.5, 0.5, -9.869604401089358, 0.002852490212493745817977820),
    (0.3, 1.0, -0.5, 0.6326490059435990224625516),
    (0.3, 0.3, -7.5, 0.003503992974599747961463429),
    (0.5, 1.0, -2.0, 0.2553956763105057438650886),
    (0.5, 0.5, -20.0, 0.0007026087267299005750963609),
    (0.7, 1.0, -44.0, 0.007736966807580387728357861),
    (0.7, 0.7, -45.0, 0.0001197252388580868582368205),
    (0.9, 1.3, -30.0, 0.01535575595959288204810578),
    (0.985, 1.0, -12.0, 0.001549584274593598224163000),
    (0.99, 1.0, -30.0, 0.0003597560516821723975365726),
    (0.3, 1.0, -60.0, 0.01271499032058584955683839),
    (0.7, 1.0, -60.0, 0.005646275166880421435508801),
    (0.5, 0.5, -80.0, 0.00004406698462804557948232007),
    (0.3, 0.3, 5.0, 9.614982187699845849874691e+94),
    (0.7, 1.0, 12.0, 1871188388856723.572886177),
    (0.5, 2.0, 3.0, 1800.178190722033343083098),
    (1.0, 1.0, -3.0, 0.04978706836786394297934242),
    (0.6, 1.0, -1e-09, 0.9999999988808250468374813),
    (0.7, 0.7, -8.497958763877723, 0.003863772635419590745981245),
    (0.5, 1.0, -8.216984654429252, 0.06816382654012102171132719),
]


# arguments of NEAR_ONE: the tiny-z Taylor, contour and asymptotic branches
NEAR_ONE_Z = (-1e-9, -1e-3, -0.05, -0.5, -2.0, -8.0, -20.0, -45.0, -55.0, -80.0)

# (alpha, beta) -> E_{alpha,beta}(z) for z in NEAR_ONE_Z, orders up to alpha = 1
NEAR_ONE = {
    (0.985, 0.985): (
        0.9911943416697598930177129, 0.9901823949260400469475778,
        0.9418512254954920039329705, 0.5953898701793079990857312,
        0.1311162974477379592731088, 0.0007601754191677441671183748,
        0.00004673376111875356597136741, 0.000008068263578794855399562768,
        0.000005306917867440733133823058, 0.000002448723230492651685895563),
    (0.985, 1.0): (
        0.9999999989937113277401074, 0.9989942250943986481253185,
        0.9509486684467283310204004, 0.6058803993196205992753978,
        0.1396543579502868871685644, 0.002962664121464018536652176,
        0.0008439097296746166181674653, 0.0003518165175359399426977153,
        0.0002853863117420887077022744, 0.0001938954158408832099700939),
    (0.99, 0.99): (
        0.9941622982077029570090445, 0.9931544520677217278415771,
        0.945007487971629091971484, 0.5991075497357993275443276,
        0.1325004592158524990466872, 0.0006226998826906459499734245,
        0.00003130100920891222507015469, 0.000005395356424270818565080421,
        0.000003548227971001331666375757, 0.000001636878698613061964421952),
    (0.99, 1.0): (
        0.9999999989957956578667844, 0.9989963047575470263885502,
        0.9510416089546131465023215, 0.6060899526314164783549838,
        0.1382172806980640258397761, 0.002091731629058404744329806,
        0.0005616234836749524490371004, 0.0002339806270823245674664673,
        0.0001897858494438149541073607, 0.0001289301297632232494541227),
    (0.995, 0.995): (
        0.9970975290740477156029811, 0.9960938325111904257366462,
        0.9481335845749071424478685, 0.6028212600844603067200165,
        0.1339066651124016464924148, 0.0004811728284096331437448704,
        0.00001572247114052036997733851, 0.000002705737719034978221341065,
        0.000001779129516372409842668309, 0.0000008205821818587359218944353),
    (0.995, 1.0): (
        0.9999999989978919300742212, 0.9989983963850790350897286,
        0.9511351964841030033387429, 0.6063067027847760419442739,
        0.1367775288769377217468583, 0.001216023535557674706686895,
        0.000280304989788725879811627, 0.0001167034755758741431365507,
        0.00009465322207019409874396844, 0.00006429587226681376544905561),
    (0.999, 0.999): (
        0.9994221274983515284543503, 0.9984217850821690046981991,
        0.950612681317553681681742, 0.6057891410966375992079359,
        0.1350477490385724191176335, 0.000364945836977837155880664,
        0.000003157296182159643146119709, 0.0000005424081237144280104205254,
        0.0000003566099927820794396846308, 0.0000001644512079234355000170395),
    (0.999, 1.0): (
        0.9999999989995774494506768, 0.9990000782049365906146219,
        0.951210527972098034168988, 0.6064852913369113155761329,
        0.1356239229945434428682181, 0.0005119669014045613428059959,
        0.00005597906803527703767370816, 0.00002329408052209015427225675,
        0.00001889173452440026569890046, 0.00001283174973187814119000116),
    (0.9999, 0.9999): (
        0.9999422708746866037591147, 0.998942687298948596602265,
        0.951167804791937472343985, 0.6064565161825330788170224,
        0.1353064888640807097160672, 0.0003384187067188010159178871,
        0.0000003178331105681854146989499, 0.00000005426881653828223462877765,
        0.00000003567841355202869327667651, 0.00000001645255329963939922106313),
    (0.9999, 1.0): (
        0.9999999989999577243977109, 0.999000457649492818962332,
        0.9512275337058759233819912, 0.6065261098875411825550365,
        0.1353641513911166823328311, 0.0003531219261456608976662732,
        0.000005597852390804933806698582, 0.000002328350367121354166253138,
        0.000001888291133161838151863277, 0.000001282553575033009779461417),
    (1.0, 0.7): (
        0.770383182766018593967712, 0.7692832836021632242737097,
        0.7169446950696038697292168, 0.3556378115364301698375672,
        -0.04539789030952993643359756, -0.03582836066693322184724199,
        -0.01241180783624349067673288, -0.005292457910640972149592262,
        -0.004305836512302861429408797, -0.002937290722035587765621826),
    (1.0, 1.3): (
        1.114242507690192225003963, 1.113385771468799845355742,
        1.07230471517226829521902, 0.7662340341686772501863997,
        0.2881397265803378114063173, 0.04686934065251077204811164,
        0.0173567169602303452576952, 0.007548485764801796997221668,
        0.006157555695779972087804207, 0.00421577492303801131651669),
}


# arguments of CONTOUR_ORACLE, every one on the contour branch
CONTOUR_Z = (-0.05, -0.08, -0.13, -0.2, -0.33, -0.5, -0.8, -1.3, -2.0, -3.3,
             -5.0, -8.5, -12.0, -17.5, -22.0, -28.0, -35.0, -40.0, -45.0, -49.9)

# (alpha, beta) -> E_{alpha,beta}(z) for z in CONTOUR_Z
CONTOUR_ORACLE = {
    (0.55, 0.55): (
        0.5688751879166735542953723, 0.5413431299208675488779977,
        0.4990624752642574836367678, 0.4466019768575284655607239,
        0.3663944275750503323275802, 0.2872086066665209156374333,
        0.1942261953151616220204435, 0.1110345489526226903079611,
        0.05899320567252802964243695, 0.02477983619009637039394028,
        0.01126344988105365897460373, 0.0039477479280215576868468,
        0.001978461259922179676484166, 0.000926974844898482163995846,
        0.0005851711597412292628402709, 0.0003604237998500912468438497,
        0.0002302362983220275144442785, 0.0001760972664348546756707057,
        0.0001390256300581864060276946, 0.0001129884485696994637405528),
    (0.55, 1.0): (
        0.9460559931761497540627225, 0.9157850756056633458153241,
        0.8685265848130265995667091, 0.8084257976920276498560448,
        0.7127412076518186774802446, 0.6123666496108976182682472,
        0.4832166862388973913482611, 0.3491437407136024490163272,
        0.2457108013854200890199226, 0.1548880920252843697869541,
        0.1031349442246062680559983, 0.06062554425967102471672099,
        0.04283506729085031663343628, 0.02928996375156550045357671,
        0.02326378469418779314237471, 0.0182536623967073883751271,
        0.01458730191163513796472933, 0.01275679211419739953548827,
        0.01133435856904833193779288, 0.0102177565209059607356424),
    (0.7, 0.7): (
        0.7163463872909470758348455, 0.6860405652286338260911501,
        0.6387855077840261013500239, 0.5788654635917561186965931,
        0.4842000502996166227300263, 0.386610800822527102785893,
        0.2658640926467265665955235, 0.1514539728735957713274453,
        0.07735822433852122202817982, 0.02954651437168274715709318,
        0.01220112416715612697204908, 0.003861774666549242066723197,
        0.001848087132373878369536242, 0.0008358480113045337263454055,
        0.0005194856766558464704707226, 0.0003158805988623664293396245,
        0.0001999089035790272448733497, 0.0001521949211258527842056191,
        0.0001197252388580868582368205, 0.00009703012543712060202976299),
    (0.7, 1.0): (
        0.9469296630912468726607439, 0.9168839566773535917063694,
        0.869592143454415333808396, 0.808767128313044867880061,
        0.7103615955128770875534486, 0.6051475920595642727129876,
        0.4672711465284544262238113, 0.3229308776762171765674091,
        0.2137867270152972753355373, 0.123933306048220568847939,
        0.07756935776476980998110868, 0.04312519563404964312874696,
        0.02976116832544935660592883, 0.01999354155775372456084565,
        0.0157572900844743907276525, 0.01228503170636216938406665,
        0.009772087919762656484794634, 0.008526170230910744382411374,
        0.007561973563660924628072633, 0.006807498953913390024823904),
    (0.99, 0.99): (
        0.9450074879716290837318993, 0.9166947637086314086205458,
        0.8713885696895389673103021, 0.8117151411870178502504508,
        0.7115734094225819024472579, 0.5991075497357993209438266,
        0.4424304624116164960783383, 0.2673127529421899379578997,
        0.1325004592158524965684521, 0.03656613169233004616857603,
        0.007189542303028953453156703, 0.0004550918211486846850146148,
        0.0001131981496426137763917641, 0.00004259156328910929296921522,
        0.00002524480798889512120177395, 0.00001483688117090318824669653,
        0.000009179395448244054461904047, 0.000006914085221868877566851866,
        0.000005395356424270823328133398, 0.000004345683475750972041433269),
    (0.99, 1.0): (
        0.9510416089546131436872325, 0.922836184996649215473856,
        0.8776922802814465327191786, 0.8182136866229181966948821,
        0.7183448304513809297847403, 0.6060899526314164779763533,
        0.4494863279246749151653596, 0.273983452746391732784787,
        0.1382172806980640283949662, 0.04056696422829456427431395,
        0.009768092139174128170771058, 0.001822508865851181621089858,
        0.001034829447638198098393959, 0.0006538047692030533772404732,
        0.0005048387089726408669094942, 0.0003875709519372470409195256,
        0.0003050619054788978493663963, 0.0002648272293574449876453652,
        0.0002339806270823247762932039, 0.0002100145404962367881949403),
}


@pytest.mark.parametrize("alpha,beta,z,expected", ORACLE)
def test_against_frozen_reference(alpha, beta, z, expected):
    # the router on z <= 0; the float64 series reference on z > 0
    value = ml_on_negative_axis(alpha, beta, z)[0] if z <= 0 else \
        _series_f64(alpha, beta, z)
    assert_allclose(value, expected, rtol=1e-9)


@pytest.mark.parametrize("alpha,beta", list(NEAR_ONE))
def test_orders_near_one_against_frozen_reference(alpha, beta):
    # the contour serves alpha -> 1 with no fallback: the router stays within
    # 1e-11 absolute of the 50-digit values on every branch
    z = np.array(NEAR_ONE_Z)
    expected = np.array(NEAR_ONE[(alpha, beta)])
    assert_allclose(ml_on_negative_axis(alpha, beta, z), expected,
                    rtol=0, atol=1e-11)


@pytest.mark.parametrize("alpha,beta", list(CONTOUR_ORACLE))
def test_contour_against_high_precision_series(alpha, beta):
    # the contour's absolute accuracy over its whole range, at the kernel's
    # order pairs beta = alpha and beta = 1
    assert_allclose(ml_on_negative_axis(alpha, beta, CONTOUR_Z),
                    CONTOUR_ORACLE[(alpha, beta)], rtol=0, atol=1e-12)


def test_value_at_zero_is_reciprocal_gamma():
    for beta in (0.5, 0.7, 1.0, 1.3, 2.0):
        assert_allclose(ml_on_negative_axis(0.6, beta, 0.0)[0],
                        1.0 / math.gamma(beta), rtol=1e-14)


def test_rgamma_is_zero_at_the_poles_and_matches_gamma_elsewhere():
    """rgamma is 1/math.gamma with the poles (and Gamma's overflow) mapped to
    0; over every argument the asymptotic coefficients and the Taylor branch
    take on an alpha grid it matches the reference gamma to 1e-15."""
    assert rgamma(0.0) == rgamma(-1.0) == rgamma(-2.0) == 0.0
    assert rgamma(200.0) == 0.0
    args = [x for alpha in np.linspace(0.02, 1.0, 50) for beta in (alpha, 1.0)
            for x in [beta, alpha + beta] + [beta - n * alpha for n in
                                              range(1, _ASYMPTOTIC_TERMS + 1)]
            if not (x <= 0.0 and x == math.floor(x))]
    assert len(args) > 1000
    worst = max(abs(rgamma(x) * _gamma(x) - 1.0) for x in args)
    assert worst <= 1e-15


def test_classical_limit_is_exponential():
    z = np.linspace(-30.0, 0.0, 61)
    vals = ml_on_negative_axis(1.0, 1.0, z)
    assert_allclose(vals, np.exp(z), rtol=1e-12)


def _float64_series_is_valid(alpha, beta, x):
    """Where the float64 series at -x is a valid reference: short (an
    estimated <= 220 terms) and cancellation-safe (largest term <= 1e3)."""
    n_peak = max(0.0, (x ** (1.0 / alpha) - beta) / alpha)
    peak_log10 = 0.0 if x <= 1.0 or n_peak <= 0.0 else \
        (n_peak * math.log(x) - gammaln(n_peak * alpha + beta)) / math.log(10.0)
    return 2.5 * n_peak + 40.0 <= 220 and peak_log10 <= 3.0


def test_vectorized_matches_scalar():
    # the router (tiny-z and contour branches) against the independent
    # compensated float64 series, wherever that series is cheap and safe
    for alpha, beta in ((0.7, 0.7), (0.3, 1.0), (0.5, 0.5), (0.9, 1.3)):
        z = np.array([zz for zz in -np.geomspace(1e-10, 55.0, 400)
                      if _float64_series_is_valid(alpha, beta, -zz)])
        assert z.size >= 100
        vec = ml_on_negative_axis(alpha, beta, z)
        series = np.array([_series_f64(alpha, beta, zz) for zz in z])
        assert_allclose(vec, series, rtol=5e-10)


@pytest.mark.parametrize("alpha,beta,zs", [
    (0.6, 1.0, (0.0, -0.0, -1e-9, -5e-9)),          # tiny-z Taylor
    (0.3, 1.0, (-0.5, -7.5, -30.0)),                # contour
    (0.7, 0.7, (-2.0, -8.5, -45.0)),                # contour
    (0.5, 0.5, (-50.0, -80.0, -400.0)),             # asymptotic
    (0.99, 1.0, (-0.5, -2.0, -30.0)),               # contour near alpha = 1
    (0.9999, 0.9999, (-1e-9, -3.0, -60.0)),
    (1.0, 1.0, (0.0, -3.0, -70.0)),                 # classical exp
])
def test_scalar_is_the_routers_one_element_case(alpha, beta, zs):
    # one branch table: a scalar argument gets the value the router gives it
    # among the other arguments of its branch, to the bit
    batched = ml_on_negative_axis(alpha, beta, np.array(zs))
    for z, value in zip(zs, batched):
        assert ml_on_negative_axis(alpha, beta, z)[0] == value


@pytest.mark.parametrize("alpha,beta", [(0.3, 1.0), (0.5, 0.5), (0.7, 0.7),
                                        (0.9, 1.3), (0.99, 1.0), (1.0, 1.3)])
def test_batched_values_match_one_element_calls(alpha, beta):
    # a value must not depend on which other arguments share its call
    z = -np.geomspace(1e-8, 49.9, 300)
    batched = ml_on_negative_axis(alpha, beta, z)
    single = np.array([ml_on_negative_axis(alpha, beta, zz)[0] for zz in z])
    assert np.array_equal(batched, single)


@pytest.mark.parametrize("alpha", [0.55, 0.7, 0.99])
@pytest.mark.parametrize("beta_is_alpha", [True, False], ids=["beta=alpha", "beta=1"])
def test_values_do_not_depend_on_their_contour_block(alpha, beta_is_alpha):
    # the contour runs its columns in fixed blocks: over three blocks and a
    # part, every value equals its evaluation in slices that cut the blocks
    # anywhere (one-point slices on every 41st point and at the block edges,
    # to keep the call count small)
    beta = alpha if beta_is_alpha else 1.0
    z = -np.random.default_rng(7).uniform(1e-3, 49.9, 3 * _CONTOUR_BLOCK + 5)
    whole = ml_on_negative_axis(alpha, beta, z)
    for width in (7, _CONTOUR_BLOCK - 1, _CONTOUR_BLOCK + 1):
        sliced = np.concatenate([ml_on_negative_axis(alpha, beta, z[i:i + width])
                                 for i in range(0, z.size, width)])
        assert np.array_equal(whole, sliced), width
    edges = np.arange(_CONTOUR_BLOCK, z.size, _CONTOUR_BLOCK)
    points = np.union1d(np.arange(0, z.size, 41), np.concatenate([edges - 1, edges]))
    single = [ml_on_negative_axis(alpha, beta, z[i:i + 1])[0] for i in points]
    assert np.array_equal(whole[points], single)


@pytest.mark.parametrize("alpha,beta", [(0.3, 1.0), (0.5, 0.5), (0.7, 0.7),
                                        (0.9, 1.3)])
def test_recurrence_shifts_beta(alpha, beta):
    # E_{a,b}(z) = 1/Gamma(b) + z E_{a,b+a}(z), everywhere
    z = np.linspace(-20.0, 0.0, 81)
    lhs = ml_on_negative_axis(alpha, beta, z)
    rhs = 1.0 / math.gamma(beta) + z * ml_on_negative_axis(alpha, beta + alpha, z)
    assert_allclose(lhs, rhs, rtol=1e-9, atol=1e-15)


def test_branch_consistency_deep_negative():
    # the far-negative evaluation branch has to join the mid-range branch:
    # the recurrence ties values across the switchover region [-60, -40]
    for alpha, beta in ((0.4, 1.0), (0.7, 0.7), (0.85, 1.2)):
        z = np.linspace(-60.0, -40.0, 41)
        lhs = ml_on_negative_axis(alpha, beta, z)
        rhs = 1.0 / math.gamma(beta) + z * ml_on_negative_axis(alpha, beta + alpha, z)
        assert_allclose(lhs, rhs, rtol=1e-8)
    # seam continuity: values a hair on either side of the cut agree.  The
    # gap must be small enough that the function's own variation over it
    # (|dE/dz| ~ |E/z| here) stays far below the branch-agreement budget.
    for alpha in (0.3, 0.6, 0.9):
        lo, hi = ml_on_negative_axis(alpha, 1.0, [-50.0 - 1e-9, -50.0 + 1e-9])
        assert abs(lo - hi) <= 1e-8 * abs(hi)


def test_positive_and_decaying_on_negative_axis():
    x = np.linspace(0.0, 100.0, 401)
    for alpha in (0.3, 0.5, 0.7, 0.9):
        vals = ml_on_negative_axis(alpha, 1.0, -x)
        assert np.all(vals > 0.0)
        assert np.all(np.diff(vals) < 0.0)
        assert vals[0] == 1.0


def test_convergence_error_carries_parameters():
    with pytest.raises(MLConvergenceError) as err:
        _series_f64(0.25, 1.0, 400.0)
    assert err.value.alpha == 0.25
    assert err.value.beta == 1.0
    assert err.value.z == 400.0
    assert "alpha=0.25" in str(err.value)


def test_params_validation():
    for alpha, beta in ((0.0, 1.0), (1.2, 1.0), (0.5, -1.0)):
        with pytest.raises(ValueError):
            ml_on_negative_axis(alpha, beta, np.array([-1.0]))


@pytest.mark.parametrize("z", [[math.nan, -1.0], [-math.inf], [-2.0, math.inf]])
@pytest.mark.parametrize("alpha,beta", [(0.5, 1.0), (1.0, 1.0)])
def test_non_finite_arguments_are_refused(alpha, beta, z):
    # a NaN would reach the contour and come back as NaN, and -inf would
    # take the asymptotic branch to 0; neither is a value of E
    with pytest.raises(ValueError, match="finite"):
        ml_on_negative_axis(alpha, beta, np.array(z))


@settings(max_examples=60, deadline=None)
@given(alpha=st.floats(0.25, 1.0), beta=st.floats(0.3, 2.5),
       z=st.floats(-40.0, 0.0))
def test_recurrence_property(alpha, beta, z):
    lhs = ml_on_negative_axis(alpha, beta, z)[0]
    rhs = 1.0 / math.gamma(beta) + z * ml_on_negative_axis(alpha, beta + alpha, z)[0]
    assert abs(lhs - rhs) <= 1e-8 * max(1.0, abs(lhs), abs(rhs))
