import math

import numpy as np
import pytest

from bernwave.constants import (
    LIMIT_TARGETS,
    NORM_TARGETS,
    RATE_TARGETS,
    favard,
    favard_table,
    predict_limit,
    predict_norm_leading,
    predict_rate,
    spline_bernstein_constant,
    spline_constants,
    spline_wavelet_lower_bound,
)

# profile constants, frozen from the root-finder at machine precision
XI1 = 1.1655611852072114
LAM1 = 0.7246113537767084
BIG_LAM1 = 0.8159779536207203
XI2 = 0.2853297245111641
LAM2 = 0.6970655662114883
BIG_LAM2 = 1.1222907484804079


def test_favard_closed_forms():
    assert favard(0) == 1.0
    assert favard(1) == pytest.approx(math.pi / 2.0, rel=1e-15)
    assert favard(2) == pytest.approx(math.pi ** 2 / 8.0, rel=1e-15)
    assert favard(3) == pytest.approx(math.pi ** 3 / 24.0, rel=1e-15)
    assert favard(4) == pytest.approx(5.0 * math.pi ** 4 / 384.0, rel=1e-13)


def test_favard_parity_and_limit():
    a = favard_table(200)
    assert a.shape == (201,)
    assert np.all(np.diff(a[0::2]) >= 0.0)
    assert np.all(np.diff(a[1::2]) <= 0.0)
    assert np.all(np.diff(a[0:30:2]) > 0.0)
    assert np.all(np.diff(a[1:30:2]) < 0.0)
    assert a[200] == pytest.approx(4.0 / math.pi, abs=1e-14)
    assert a[199] == pytest.approx(4.0 / math.pi, abs=1e-14)


def test_favard_table_consistent_with_scalar():
    t = favard_table(12)
    for j in range(13):
        assert t[j] == favard(j)


def test_favard_large_even_index_does_not_overflow():
    # the beta sum once overflowed to inf, then nan, from j = 512 on
    for j in range(512, 601):
        assert favard(j) == pytest.approx(4.0 / math.pi, rel=1e-15, abs=0.0), j


def test_favard_rejects_negative():
    with pytest.raises(ValueError):
        favard(-1)


def test_profile_constants_frozen():
    c = spline_constants()
    assert c.xi1 == pytest.approx(XI1, abs=5e-15)
    assert c.lam1 == pytest.approx(LAM1, abs=5e-15)
    assert c.Lam1 == pytest.approx(BIG_LAM1, abs=5e-15)
    assert c.xi2 == pytest.approx(XI2, abs=5e-15)
    assert c.lam2 == pytest.approx(LAM2, abs=5e-15)
    assert c.Lam2 == pytest.approx(BIG_LAM2, abs=5e-15)


def test_profile_constants_are_critical_points():
    c = spline_constants()
    # xi1 maximizes sin^2(x)/x
    f = lambda x: math.sin(x) ** 2 / x
    assert f(c.xi1) == pytest.approx(c.lam1, rel=1e-14)
    assert f(c.xi1) > f(c.xi1 - 1e-5) and f(c.xi1) > f(c.xi1 + 1e-5)
    # xi2 maximizes the wavelet profile g(u) = sin^2(2u) / (2 u^2 (pi - 2u))
    g = lambda u: math.sin(2.0 * u) ** 2 / (2.0 * u * u * (math.pi - 2.0 * u))
    assert g(c.xi2) == pytest.approx(c.lam2, rel=1e-13)
    assert g(c.xi2) > g(c.xi2 - 1e-5) and g(c.xi2) > g(c.xi2 + 1e-5)


def test_xi2_is_the_correctly_rounded_root():
    # float64 brentq alone stopped 5 ulp below the root: the residual cancels
    import mpmath

    with mpmath.workdps(40):
        f = lambda u: (2 * mpmath.pi * u - 4 * u * u) * mpmath.cos(2 * u) + (3 * u - mpmath.pi) * mpmath.sin(2 * u)
        root = mpmath.findroot(f, mpmath.mpf("0.2853"))
        xi2 = spline_constants().xi2
        assert abs(mpmath.mpf(xi2) - root) <= math.ulp(xi2)
        assert xi2 == float(root)  # 0.28532972451116384


def test_as_dict_derived_entries():
    d = spline_constants().as_dict()
    assert d["two_xi1"] == pytest.approx(2.0 * XI1, abs=1e-14)
    assert d["psi_peak_scale"] == pytest.approx(2.0 * math.pi - 4.0 * XI2, abs=1e-14)


def test_bernstein_constant_values():
    # p = 2: (pi h)^k sqrt(K_{2(m-k)-1} / K_{2m-1}); K_1 = pi/2, K_3 = pi^3/24,
    # K_5 = pi^5/240 give 2 sqrt(3) at (m, k) = (2, 1) and sqrt(10) at (3, 1)
    assert spline_bernstein_constant(5, 2, 3) == pytest.approx(
        (3.0 * math.pi) ** 2 * math.sqrt(favard(5) / favard(9)), rel=1e-14
    )
    assert spline_bernstein_constant(2, 1) == pytest.approx(2.0 * math.sqrt(3.0), rel=1e-14)
    assert spline_bernstein_constant(3, 1) == pytest.approx(math.sqrt(10.0), rel=1e-14)
    # (pi h)^k scaling in h is exact
    assert spline_bernstein_constant(4, 2, 6) / spline_bernstein_constant(4, 2, 3) == pytest.approx(4.0, rel=1e-14)
    assert spline_bernstein_constant(4, 2, 6, p=3.0) / spline_bernstein_constant(4, 2, 3, p=3.0) == pytest.approx(4.0, rel=1e-14)


def test_bernstein_constant_domain():
    for bad in ((2, 0), (2, 2), (3, 5)):
        with pytest.raises(ValueError):
            spline_bernstein_constant(*bad)
    with pytest.raises(ValueError):
        spline_bernstein_constant(3, 1, 0)


def test_bernstein_constant_refuses_unchecked_range():
    # accepted only for m <= 40 and 1.01 <= p <= 20, the range of the
    # theta = pi maximiser check
    assert spline_bernstein_constant(40, 39, p=20.0) > 0.0
    for m, p in ((41, 2.0), (3, 1.0), (3, 21.0), (3, float("nan")), (3, math.inf)):
        with pytest.raises(ValueError):
            spline_bernstein_constant(m, 1, p=p)


def test_wavelet_lower_bound():
    assert spline_wavelet_lower_bound(2, 1) == pytest.approx(0.15905225257008795, rel=1e-12)
    assert spline_wavelet_lower_bound(7, 0) == 1.0
    with pytest.raises(ValueError):
        spline_wavelet_lower_bound(0, 1)


def test_predict_limit_values():
    assert predict_limit("splinePhiK", k=1) == pytest.approx(1.0 / (2.0 * XI1), rel=1e-14)
    assert predict_limit("splinePsiK", k=1) == pytest.approx(
        1.0 / (2.0 * math.pi - 4.0 * XI2), rel=1e-14
    )
    # orthonormal scaling limit at k=1, p=2 collapses to pi / sqrt(3)
    assert predict_limit("daubPhiMinusK", k=1, p=2.0) == pytest.approx(
        math.pi / math.sqrt(3.0), rel=1e-14
    )
    assert predict_limit("daubPsiK", k=1, p=2.0) == pytest.approx(
        0.22507907903927654, rel=1e-12
    )
    assert predict_limit("phiPsiRatioSpline") == pytest.approx(
        math.sqrt(LAM1 / (XI1 * LAM2 ** 2)), rel=1e-13
    )
    assert predict_limit("phiPsiRatioDaub", k1=1, k2=1, p=2.0) == pytest.approx(
        predict_limit("daubPhiMinusK", k=1, p=2.0) / predict_limit("daubPsiK", k=1, p=2.0),
        rel=1e-14,
    )


def test_predict_limit_pole_and_validation():
    with pytest.raises(ValueError):
        predict_limit("daubPsiK", k=1, p=1.0)  # p*k = 1: at the pole
    with pytest.raises(ValueError):
        predict_limit("daubPhiMinusK", k=1)  # missing p
    with pytest.raises(ValueError):
        predict_limit("noSuchTarget", k=1, p=2.0)
    assert set(LIMIT_TARGETS) >= {"daubPhiMinusK", "daubPsiK", "splinePhiK", "splinePsiK"}


def test_predict_rate_values():
    assert predict_rate("daubGeom") == 0.5
    assert predict_rate("splineGeom") == pytest.approx(16.0 / (LAM2 * math.pi ** 4), rel=1e-13)
    assert predict_rate("geomRatio") == pytest.approx(2.0 * predict_rate("splineGeom"), rel=1e-14)
    assert predict_rate("fixedKRatio") == pytest.approx(0.610982939581726, rel=1e-13)
    assert set(RATE_TARGETS) == {"daubGeom", "splineGeom", "geomRatio", "fixedKRatio"}


def test_predict_norm_leading_values():
    assert predict_norm_leading("splinePhiNorm", m=10, k=0, p=2.0) == pytest.approx(
        0.08254166258211035, rel=1e-12
    )
    # flat-weight orthonormal limit norm: alpha = 0.5, p = 2 gives sqrt(pi/2)
    assert predict_norm_leading("daubPhiAlphaNorm", k=0.5, p=2.0) == pytest.approx(
        math.sqrt(math.pi / 2.0), rel=1e-14
    )
    assert set(NORM_TARGETS) >= {"splinePhiNorm", "splinePsiNorm", "splineDiagNorm"}


def test_predict_norm_leading_validation():
    with pytest.raises(ValueError):
        predict_norm_leading("daubPsiNorm", k=1, p=1.0)
    with pytest.raises(ValueError):
        predict_norm_leading("daubPsiNorm", k=0, p=2.0)  # p*k <= 1 diverges
    with pytest.raises(ValueError):
        predict_norm_leading("splineDiagNorm", m=6, k=3, p=2.0)  # k tied to m
    with pytest.raises(ValueError):
        predict_norm_leading("splinePsiNorm", m=5, k=1, p=None)


# every prediction at one point, recorded when each target had its own formula
# (m = 10, p = 3; k = 2 except for the diagonal norm, k1 = 1 and k2 = 2)
PREDICTIONS_FROZEN = {
    ("limit", "daubPhiMinusK"): 5.159414248653449,
    ("limit", "daubPsiK"): 0.058629225662540314,
    ("limit", "splinePhiK"): 0.18402204637927944,
    ("limit", "splinePsiK"): 0.03782321330110494,
    ("limit", "phiPsiRatioDaub"): 33.755850173046376,
    ("limit", "phiPsiRatioSpline"): 1.131127078376258,
    ("rate", "daubGeom"): 0.5,
    ("rate", "splineGeom"): 0.23563883232343524,
    ("rate", "geomRatio"): 0.4712776646468705,
    ("rate", "fixedKRatio"): 0.6109829395817259,
    ("norm", "splinePhiNorm", 2): 0.01086985055582213,
    ("norm", "splinePsiNorm", 2): 0.0005504974626442972,
    ("norm", "splineDiagNorm", 10): 6.509606801796013e-09,
    ("norm", "daubPhiNorm", 2): 3.798135205719873,
    ("norm", "daubPsiNorm", 2): 0.043160272724972026,
    ("norm", "daubPhiAlphaNorm", 0.5): 0.9613870962597918,
}


@pytest.mark.parametrize("key", sorted(PREDICTIONS_FROZEN))
def test_predictions_frozen(key):
    kind, target = key[:2]
    if kind == "limit":
        got = predict_limit(target, k=2, p=3.0, k1=1, k2=2)
    elif kind == "rate":
        got = predict_rate(target)
    else:
        got = predict_norm_leading(target, m=10, k=key[2], p=3.0)
    assert got == pytest.approx(PREDICTIONS_FROZEN[key], rel=5e-15)


def test_target_lists_cover_every_target():
    assert len(LIMIT_TARGETS + RATE_TARGETS + NORM_TARGETS) == 16
    assert {key[1] for key in PREDICTIONS_FROZEN} == set(LIMIT_TARGETS + RATE_TARGETS + NORM_TARGETS)
