"""Engine tests: certified norms against exact anchors, frozen regression
values, the shared modulus model, the inequality scan, and the sweep machinery.

Frozen numbers were produced by this package at tol <= 1e-8 and
cross-checked against independent dense quadrature before being committed.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from bernwave.constants import favard, spline_bernstein_constant, spline_wavelet_lower_bound
from bernwave.daubechies import daub_phi_hat_magnitude, daub_psi_hat_magnitude
from bernwave.norms import (
    WeightedNormQuery,
    _composite_integrate,
    _N_GRID,
    _make_integrand,
    _real_line_integral,
    asymptotic_sweep,
    bernstein_violation_scan,
    ckp,
    coefficient_bound_check,
    _half_grid_kernel,
    _symbol_abs_sq,
    fejer_extremal_ratio,
    richardson_extrapolate,
    vanishing_moment_order,
    verify_bernstein_spline,
    weighted_lp_norm,
)
from bernwave.splines import bspline_ft_magnitude, bspline_integer_values, spline_wavelet, spline_wavelet_magnitude

CKP_FROZEN = {
    ("spline", "phi", 5, 1, 2.0): 1.062729357464723,
    ("spline", "psi", 5, 1, 2.0): 0.2022468274712694,
    ("spline", "psi", 10, 1, 2.0): 0.19822945949020512,
    ("spline", "psi", 15, 1, 2.0): 0.1969520589248631,
    ("spline", "psi", 5, 2, 1.5): 0.04399112679934588,
    ("daubechies", "psi", 10, 2, 1.5): 0.05653016509149296,
    ("daubechies", "phi", 10, 1, 3.0): 1.9469723788789524,
}


# ---------------------------------------------------------------------------
# exact anchors
# ---------------------------------------------------------------------------


def test_box_spline_parseval():
    r = weighted_lp_norm("spline", "phi", 1, 0.0, 2.0)
    assert r.value == pytest.approx(1.0, rel=1e-9)
    assert r.certified_rel_error <= 1e-8


def test_spline_phi_l2_exact_autocorrelation():
    # ||N_m||_2^2 = N_{2m}(m), an exact rational
    for m in (2, 3, 5):
        exact = float(bspline_integer_values(2 * m)[m - 1])
        r = weighted_lp_norm("spline", "phi", m, 0.0, 2.0)
        assert r.value ** 2 == pytest.approx(exact, rel=1e-8)


def test_spline_psi_l2_exact_rational():
    # psi = sum_n d_n N_m(2x - n) with exact rational d; then
    # ||psi||^2 = (1/2) sum d_n d_{n'} N_{2m}(m + n - n')
    for m in (2, 3):
        q = spline_wavelet(m)
        binom = [Fraction((-1) ** j * math.comb(m, j)) for j in range(m + 1)]
        d = [Fraction(0)] * (len(q) + m)
        for v, qv in enumerate(q):
            for j, bj in enumerate(binom):
                d[v + j] += qv * bj
        vals = bspline_integer_values(2 * m)  # N_{2m}(1..2m-1)
        auto = {l: (vals[m - 1 + l] if abs(l) < m else Fraction(0)) for l in range(-2 * m, 2 * m + 1)}
        exact = Fraction(1, 2) * sum(
            dn * dn2 * auto.get(n - n2, Fraction(0))
            for n, dn in enumerate(d) for n2, dn2 in enumerate(d)
        )
        r = weighted_lp_norm("spline", "psi", m, 0.0, 2.0)
        assert r.value ** 2 == pytest.approx(float(exact), rel=1e-8)


def test_orthonormal_family_parseval():
    for m, part in ((3, "psi"), (4, "phi"), (6, "psi")):
        r = weighted_lp_norm("daubechies", part, m, 0.0, 2.0, tol=1e-6)
        assert r.value == pytest.approx(1.0, abs=5e-6)


def test_spline_phi_p3_against_dense_midpoint():
    # brute midpoint rule on [-200, 200]: the integrand decays like w^{-12}
    w = np.linspace(-200.0, 200.0, 2_000_001)[:-1] + 1e-4
    brute = (np.sum(bspline_ft_magnitude(4, np.abs(w)) ** 3) * 2e-4) ** (1.0 / 3.0)
    r = weighted_lp_norm("spline", "phi", 4, 0.0, 3.0)
    assert r.value == pytest.approx(brute, rel=1e-5)


def test_spline_psi_weighted_p2_against_dense_grid():
    # |w|^{-2} |psihat_3|^2 on a dense grid, trapezoid; head below 1e-3 is
    # O(w^{2m-2k}) = O(w^4) and negligible at this tolerance
    w = np.linspace(1e-3, 400.0 * math.pi, 2_000_000)
    y = w ** (-2.0) * spline_wavelet_magnitude(3, w) ** 2
    brute = (2.0 * np.trapezoid(y, w)) ** 0.5
    r = weighted_lp_norm("spline", "psi", 3, -1.0, 2.0)
    assert r.value == pytest.approx(brute, rel=1e-6)


def test_weighted_daub_phi_anchor():
    r = weighted_lp_norm("daubechies", "phi", 4, 0.5, 2.0)
    assert r.value == pytest.approx(1.2938788617049197, rel=1e-7)


# ---------------------------------------------------------------------------
# coefficient constants
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("key", sorted(CKP_FROZEN, key=str))
def test_ckp_frozen(key):
    family, part, m, k, p = key
    r = ckp(family, part, m, k, p)
    assert r.ratio == pytest.approx(CKP_FROZEN[key], rel=1e-7)
    assert r.certified_rel_error <= 2e-8
    assert r.numerator / r.denominator == r.ratio


def test_ckp_k_zero_is_exactly_one():
    assert ckp("spline", "psi", 5, 0, 2.0).ratio == 1.0
    assert ckp("daubechies", "phi", 6, 0, 2.0).ratio == 1.0


def test_ckp_limit_approach():
    lim = 1.0 / (2.0 * math.pi - 4.0 * 0.2853297245111641)
    c5 = CKP_FROZEN[("spline", "psi", 5, 1, 2.0)]
    c15 = ckp("spline", "psi", 15, 1, 2.0).ratio
    assert abs(c15 - lim) / lim < 0.15
    assert abs(c15 - lim) < abs(c5 - lim)


def test_ckp_dominates_favard_floor():
    for m, k in ((3, 1), (6, 2)):
        assert ckp("spline", "psi", m, k, 2.0).ratio > spline_wavelet_lower_bound(m, k)


def test_ckp_rejects_k_beyond_vanishing_order():
    with pytest.raises(ValueError):
        ckp("spline", "psi", 3, 4, 2.0)
    with pytest.raises(ValueError):
        ckp("daubechies", "psi", 2, 3, 2.0)
    with pytest.raises(ValueError):
        ckp("spline", "psi", 3, -1, 2.0)


def test_norm_query_validation():
    with pytest.raises(ValueError):
        weighted_lp_norm("spline", "phi", 3, -0.8, 1.5)  # alpha p <= -1
    with pytest.raises(ValueError):
        weighted_lp_norm("spline", "phi", 1, 0.8, 2.0)  # (m - alpha) p <= 1
    with pytest.raises(ValueError):
        weighted_lp_norm("spline", "phi", 3, 0.0, 1.0)  # p must exceed 1
    with pytest.raises(ValueError):
        weighted_lp_norm("hermite", "phi", 3, 0.0, 2.0)
    with pytest.raises(ValueError):
        weighted_lp_norm("spline", "chi", 3, 0.0, 2.0)
    with pytest.raises(ValueError):
        weighted_lp_norm("spline", "phi", 41, 0.0, 2.0)
    with pytest.raises(ValueError):
        weighted_lp_norm("daubechies", "phi", 21, 0.0, 2.0)


# ---------------------------------------------------------------------------
# sharp-inequality experiments
# ---------------------------------------------------------------------------


def test_fejer_exact_rationals():
    # j = 4 aliases the Fejer kernel onto exact lattice values
    assert fejer_extremal_ratio(2, 4) == pytest.approx(3.0, rel=1e-12)
    assert fejer_extremal_ratio(3, 4) == pytest.approx(2.5, rel=1e-12)


def test_fejer_frozen():
    assert fejer_extremal_ratio(2, 64) == pytest.approx(3.424510582152248, rel=1e-12)
    assert fejer_extremal_ratio(3, 64) == pytest.approx(3.0917347120042113, rel=1e-12)
    assert fejer_extremal_ratio(4, 4) == pytest.approx(2.2099142359450377, rel=1e-12)
    assert fejer_extremal_ratio(4, 64) == pytest.approx(3.0080553481845156, rel=1e-12)


def test_fejer_monotone_toward_bound():
    js = (4, 8, 16, 32, 64)
    for m in (2, 3, 4, 5):
        for p in (1.5, 2.0, 3.0):
            r = [fejer_extremal_ratio(m, j, k=1, p=p) for j in js]
            assert all(b > a for a, b in zip(r, r[1:])), (m, p, r)


def test_fejer_requires_k_below_m():
    with pytest.raises(ValueError):
        fejer_extremal_ratio(2, 8, k=2)


def test_violation_scan_frozen():
    n_checks, violations = bernstein_violation_scan()
    assert n_checks == 45000
    # the constant is the supremum over all coefficient vectors, so no
    # finite vector exceeds it at any (m, k, h, p) of the scan
    assert violations == []


def test_violation_scan_worst_ratio_frozen():
    # with slack = -1 every check is reported, so the largest reported
    # lhs/rhs is the scan's worst ratio
    n_checks, everything = bernstein_violation_scan(slack=-1.0)
    assert n_checks == len(everything) == 45000
    assert max(v[5] for v in everything) == pytest.approx(0.9205154970828258, rel=1e-12)


def test_coeff_symbol_equals_explicit_sum():
    # |sum_j c_j e^{-i j theta}|^2 on the half grid theta_g = 2 pi g / N
    theta = 2.0 * math.pi * np.arange(_N_GRID // 2 + 1) / _N_GRID
    rng = np.random.default_rng(3)
    for n in range(1, 65):
        c = rng.uniform(-1.0, 1.0, size=n)
        explicit = np.abs(np.exp(-1j * np.outer(theta, np.arange(n))) @ c)
        values = np.sqrt(_symbol_abs_sq(c))
        np.testing.assert_allclose(values, explicit, rtol=0, atol=1e-13, err_msg=str(n))


def _gram_sum(c, m, k):
    """|| w^k shat ||_2^2 for s = sum_j c_j N_m(x - j): the Gram sum
    sum_{i,j} c_i c_j (-1)^k N_{2m}^{(2k)}(m + i - j), the B-spline
    derivative taken exactly from its truncated-power form."""
    n, e = 2 * m, 2 * m - 1 - 2 * k

    def d2k(x):
        s = sum((-1) ** i * math.comb(n, i) * (x - i) ** e for i in range(min(n, x - 1) + 1))
        return float((-1) ** k * Fraction(s, math.factorial(e)))

    corr = np.correlate(c, c, mode="full")
    mid = c.size - 1
    return sum(corr[mid + d] * d2k(m + d) for d in range(1 - m, m))


@pytest.mark.parametrize("m, k", [(4, 1), (6, 3)])
def test_verify_bernstein_longest_vector_is_exact_at_p2(m, k):
    # the 2^14-point rule integrates |chat|^2 G_k exactly while the
    # coefficient count stays within 2^13
    c = np.random.default_rng(11).uniform(-1.0, 1.0, size=8192)
    r = verify_bernstein_spline(c, m, k, p=2.0)
    assert r.lhs == pytest.approx(math.sqrt(_gram_sum(c, m, k)), rel=1e-12)
    assert r.rhs == pytest.approx(spline_bernstein_constant(m, k) * math.sqrt(_gram_sum(c, m, 0)), rel=1e-12)
    with pytest.raises(ValueError, match="at most 8192 coefficients"):
        verify_bernstein_spline(np.append(c, 0.5), m, k, p=2.0)


def test_verify_bernstein_is_scale_free():
    # the coefficients are scaled to max |c_j| = 1 inside, so huge and
    # subnormal vectors give the same ratio; norms past double range refuse
    c = np.array([0.3, 1.0, -0.2, 0.5])
    ref = verify_bernstein_spline(c, 40, 39, p=3.0)
    for s in (1e280, 1e-310):
        r = verify_bernstein_spline(c * s, 40, 39, p=3.0)
        assert r.ratio == pytest.approx(ref.ratio, rel=1e-12)
        assert r.lhs == pytest.approx(ref.lhs * s, rel=1e-12)
    with pytest.raises(ValueError, match="overflow"):
        verify_bernstein_spline(c * 1e300, 40, 39, p=3.0)


def test_verify_bernstein_reproduces_scan_violation():
    # regenerate the scan's random stream and replay the vector that was its
    # worst offender against the former p-independent constant sqrt(10): its
    # raw norm ratio at (m, k, p) = (2, 1, 1.5) is still 1.16801 sqrt(10),
    # and it is now shown to satisfy the sharp p = 1.5 bound 4.3076
    rng = np.random.default_rng(20260819)
    vecs = [rng.uniform(-1.0, 1.0, size=int(rng.integers(1, 9))) for _ in range(500)]
    r = verify_bernstein_spline(vecs[294], 2, 1, h=1, p=1.5)
    assert r.ok
    assert r.ratio == pytest.approx(
        1.1680106287741279 * math.sqrt(10.0) / spline_bernstein_constant(2, 1, p=1.5), rel=1e-9
    )


def test_verify_bernstein_smooth_vector_passes():
    r = verify_bernstein_spline([1.0, -0.5, 0.25], 3, 1, h=1, p=2.0)
    assert r.ok
    assert r.lhs <= r.rhs
    assert r.ratio == r.lhs / r.rhs


def test_verify_bernstein_h_scaling():
    # s = sum c_j N_m(h x - j) and the constant's (pi h)^k: both sides carry
    # h^{k - 1 + 1/p} relative to h = 1, so lhs/rhs carries the exact factor 1
    c = [0.3, 1.0, -0.2, 0.5]
    r1 = verify_bernstein_spline(c, 4, 2, h=1, p=2.0)
    r2 = verify_bernstein_spline(c, 4, 2, h=3, p=2.0)
    assert r2.ratio == pytest.approx(r1.ratio, rel=1e-12)
    assert r2.lhs == pytest.approx(r1.lhs * 3.0 ** 1.5, rel=1e-12)


def test_bernstein_constant_is_periodized_supremum():
    # the sine factors cancel in G_k/G_0 (and so do the trapezoid weights);
    # its maximum over the half grid sits at its last point, theta = pi, and
    # equals pi^k (lambda((m-k)p) / lambda(mp))^{1/p}
    for m in range(2, 7):
        g0 = {p: _half_grid_kernel(m, 0, p) for p in (1.5, 2.0, 3.0)}
        for k in range(1, m):
            for p in (1.5, 2.0, 3.0):
                gk = _half_grid_kernel(m, k, p)
                ratio = (gk[1:] / g0[p][1:]) ** (1.0 / p)
                assert gk.size == _N_GRID // 2 + 1
                assert int(np.argmax(ratio)) + 1 == gk.size - 1, (m, k, p)
                assert spline_bernstein_constant(m, k, p=p) == pytest.approx(
                    float(ratio.max()), rel=1e-12
                ), (m, k, p)
            assert spline_bernstein_constant(m, k) == pytest.approx(
                math.pi ** k * math.sqrt(favard(2 * (m - k) - 1) / favard(2 * m - 1)), rel=1e-14
            )


def test_verify_bernstein_high_order_is_finite():
    # the kernel's lattice terms stay bounded where (m - k) p is large
    for m, k, p in ((40, 1, 2.0), (40, 39, 2.0), (30, 1, 3.0)):
        r = verify_bernstein_spline([1.0, -0.5, 0.25], m, k, p=p)
        assert math.isfinite(r.ratio) and 0.0 < r.ratio < 1.0, (m, k, p)


def test_verify_bernstein_validation():
    with pytest.raises(ValueError):
        verify_bernstein_spline([1.0], 2, 2)
    with pytest.raises(ValueError):
        verify_bernstein_spline([], 3, 1)


# ---------------------------------------------------------------------------
# vanishing moments, bound check, sweeps
# ---------------------------------------------------------------------------


def test_vanishing_moment_orders():
    for m in (1, 2, 5, 8):
        assert vanishing_moment_order("spline", m) == m
        assert vanishing_moment_order("daubechies", m) == m


def test_coefficient_bound_holds_for_gaussian():
    fhat = lambda w: np.exp(-0.5 * w * w)
    for family, j, nu in (("spline", 0, 0), ("spline", 1, 2), ("daubechies", 0, 1)):
        r = coefficient_bound_check(fhat, family, 3, j=j, nu=nu, k=1, p=2.0, tol=1e-8)
        assert r.ok
        assert r.inner_product_abs <= r.stated_bound * (1.0 + 1e-6)
        assert r.stated_bound <= r.holder_bound * (1.0 + 1e-12)


def _gaussian_spline_wavelet_coefficient(m, center, width):
    """|<f, psi>| in the time domain for f(x) = exp(-(x - center)^2 / (2 width^2)),
    psi(x) = sum_v q_v N_{2m}^{(m)}(2x - v) with q_v = (-1)^v 2^{1-m} N_{2m}(v + 1),
    every piece from scipy's B-splines and quad."""
    from scipy import integrate
    from scipy.interpolate import BSpline

    n2m = BSpline.basis_element(np.arange(2 * m + 1, dtype=float), extrapolate=False)
    q = [(-1) ** v * 2.0 ** (1 - m) * float(n2m(v + 1.0)) for v in range(2 * m - 1)]
    d = n2m.derivative(m)

    def integrand(x):
        psi = float(np.dot(q, np.nan_to_num(d(2.0 * x - np.arange(len(q))))))
        return math.exp(-0.5 * ((x - center) / width) ** 2) * psi

    total = sum(
        integrate.quad(integrand, 0.5 * i, 0.5 * (i + 1), epsabs=0.0, epsrel=1e-12, limit=200)[0]
        for i in range(2 * (2 * m - 1))
    )
    return abs(total)


def test_coefficient_bound_matches_time_domain():
    # fhat of a Gaussian of width 0.5 centred at 1.3, in the package's
    # convention fhat(w) = (2 pi)^{-1/2} int f(x) e^{-ixw} dx
    center, width = 1.3, 0.5
    fhat = lambda w: width * np.exp(-1j * center * w - 0.5 * (width * w) ** 2)
    r = coefficient_bound_check(fhat, "spline", 4, tol=1e-6)
    want = _gaussian_spline_wavelet_coefficient(4, center, width)
    assert r.inner_product_abs == pytest.approx(want, rel=1e-10)
    assert r.ok


def test_richardson_exact_on_model():
    grid = (5.0, 10.0, 20.0)
    vals = [3.0 + 5.0 * g ** -0.5 for g in grid]
    assert richardson_extrapolate(grid, vals) == pytest.approx(3.0, abs=1e-12)
    vals = [2.0 + 7.0 / g for g in grid]
    assert richardson_extrapolate(grid, vals, exponent=1.0) == pytest.approx(2.0, abs=1e-12)
    with pytest.raises(ValueError):
        richardson_extrapolate([5.0], [1.0])


def test_sweep_spline_psi_structure():
    rep = asymptotic_sweep("splinePsiK", m_grid=(5, 10, 15), k=1, p=2.0, tol=1e-6)
    assert rep.m_grid == (5, 10, 15)
    np.testing.assert_allclose(
        rep.measured,
        [CKP_FROZEN[("spline", "psi", m, 1, 2.0)] for m in (5, 10, 15)],
        rtol=1e-5,
    )
    assert rep.predicted[0] == rep.predicted[-1]  # fixed limit target
    assert rep.rel_error[-1] < rep.rel_error[0]
    assert math.isfinite(rep.richardson) and math.isfinite(rep.fitted_decay_exponent)


def test_sweep_unknown_target():
    with pytest.raises(ValueError):
        asymptotic_sweep("noSuchTarget")


def test_daub_tail_certificate_sigma():
    from bernwave.norms import _TAIL_BLOCK, _daub_tail_certificate

    cert = _daub_tail_certificate(4)
    assert cert.sigma == pytest.approx(3.797214049034376, abs=2e-3)
    assert _TAIL_BLOCK == 12 and len(cert.log2_t) == 13
    assert cert.log2_t[0] == 0.0


def test_daub_mean_table_exact_small_orders():
    # transfer-operator octave means of the order-4 symbol product are
    # exact dyadic rationals at small depth
    from bernwave.norms import _daub_mean_table

    lq = _daub_mean_table(4)
    assert math.exp(lq[0]) == pytest.approx(1.0, rel=1e-14)
    assert math.exp(lq[1]) == pytest.approx(13.0, rel=1e-12)
    assert math.exp(lq[2]) == pytest.approx(128.0625, rel=1e-12)
    assert math.exp(lq[3]) == pytest.approx(1476.6875, rel=1e-12)
    assert math.exp(lq[5]) == pytest.approx(173716.90625, rel=1e-12)


# _daub_tail_bound(part, m, alpha, p, pi 2^l), recorded when the exact-mean and
# sup-product octaves had their own loops; p = 2 walks 70 - l mean octaves
# before the sup ones (none from pi 2^71 on), and every other p only sup ones
DAUB_TAIL_FROZEN = {
    ("phi", 4, 1.0, 2.0, 10): 0.006175791146340388,
    ("psi", 4, -1.0, 2.0, 10): 9.104615637439152e-16,
    ("phi", 8, 0.5, 2.0, 6): 2.636132554596084e-05,
    ("psi", 12, -3.0, 2.0, 20): 7.811785347383605e-78,
    ("phi", 3, 0.0, 2.0, 71): 2.8170691073690584e-49,
    ("phi", 6, 1.0, 1.5, 13): 0.0016662074416498918,
    ("psi", 6, -1.0, 1.5, 8): 6.615978943938683e-10,
    ("phi", 4, 0.5, 3.0, 9): 8.278747278888835e-09,
    ("psi", 10, 2.0, 3.0, 16): 1.0057581281093198e-05,
}


@pytest.mark.parametrize("key", sorted(DAUB_TAIL_FROZEN))
def test_daub_tail_bound_frozen(key):
    from bernwave.norms import _daub_tail_bound

    part, m, alpha, p, lpow = key
    got = _daub_tail_bound(part, m, alpha, p, math.pi * 2.0 ** lpow)
    assert got == pytest.approx(DAUB_TAIL_FROZEN[key], rel=1e-14)


def test_daub_tail_bound_refuses_weight_at_the_decay():
    from bernwave.norms import _daub_tail_bound

    with pytest.raises(ValueError, match="cannot certify tail decay .* m=2 alpha=1.0 p=2.0"):
        _daub_tail_bound("phi", 2, 1.0, 2.0, math.pi * 2.0 ** 10)


def test_negative_weight_certifies_without_underflow():
    # (z + alpha) p = -0.8: the bootstrap's dyadic stack used to run past
    # 2^-1074, put a node at w = 0 and fail with "bootstrap integral failed"
    import mpmath

    r = weighted_lp_norm("spline", "phi", 3, -0.4, 2.0)
    # ||w^a Nhat_3||_2^2 = 2^{2a+1}/pi int_0^inf x^{2a-6} sin^6 x dx, and with
    # sin^6 = (10 - 15 cos 2x + 6 cos 4x - cos 6x)/32 the integral is the
    # Mellin transform Gamma(s) cos(pi s/2) sum_j c_j j^{-s}, s = 2a - 5
    with mpmath.workdps(40):
        a = mpmath.mpf(-0.4)
        s = 2 * a - 5
        mellin = mpmath.gamma(s) * mpmath.cos(mpmath.pi * s / 2) * (-15 * 2 ** -s + 6 * 4 ** -s - 6 ** -s) / 32
        exact = float(mpmath.sqrt(2 ** (2 * a + 1) / mpmath.pi * mellin))  # 1.3163392672691859
    assert abs(r.value - exact) <= r.certified_rel_error * exact
    d = weighted_lp_norm("daubechies", "phi", 4, -0.4, 2.0, 1e-6)
    assert d.certified_rel_error <= 1e-6 and d.panels >= 1


def test_norm_result_certificate_fields():
    # p = 3 runs the quadrature route, whose fields describe its window
    r = weighted_lp_norm("spline", "psi", 4, -1.0, 3.0, tol=1e-9)
    assert r.certified_rel_error <= 1e-9
    assert r.cutoff > 0.0 and r.tail_bound >= 0.0 and r.panels >= 1
    assert r.query.m == 4 and r.query.alpha == -1.0


def test_exact_route_certificate_fields():
    # p = 2 with an integer weight: no quadrature window, no tail
    r = weighted_lp_norm("daubechies", "psi", 8, -1.0, 2.0, tol=1e-12)
    assert (r.panels, r.tail_bound, r.cutoff) == (0, 0.0, math.pi)
    assert 0.0 < r.certified_rel_error <= 1e-15
    with pytest.raises(RuntimeError, match="could not certify"):
        weighted_lp_norm("spline", "psi", 4, -1.0, 2.0, tol=1e-17)


def test_fractional_weight_at_p2_runs_quadrature():
    r = weighted_lp_norm("spline", "psi", 4, 0.5, 2.0)
    assert r.panels >= 1 and r.tail_bound > 0.0


def test_d4_weight_one_is_refused_at_p2():
    # the order-2 scaling function has L_2 Sobolev exponent exactly 1
    for part in ("phi", "psi"):
        with pytest.raises(ValueError):
            weighted_lp_norm("daubechies", part, 2, 1.0, 2.0)


def test_over_budget_norm_refuses_before_quadrature():
    # the sup-route tail puts the cutoff at pi 2^24: 2^26 panels, about
    # 1.5e9 nodes against a budget of 8e7, refused before any evaluation
    import time

    t0 = time.perf_counter()
    with pytest.raises(RuntimeError, match="node budget"):
        weighted_lp_norm("daubechies", "phi", 6, 1.0, 1.5, 1e-6)
    assert time.perf_counter() - t0 < 20.0


def test_composite_integrate_checks_budget_up_front():
    from bernwave.norms import _composite_integrate

    calls = []

    def f(w):
        calls.append(w.size)
        return np.ones_like(w)

    with pytest.raises(RuntimeError, match="node budget"):
        _composite_integrate(f, np.linspace(0.0, 1.0, 11), 1e-6, node_budget=22 * 9)
    assert calls == []
    total, _, panels = _composite_integrate(f, np.linspace(0.0, 1.0, 11), 1e-6, node_budget=22 * 10)
    assert panels == 10 and total == pytest.approx(1.0, rel=1e-14)


def test_composite_integrate_sin():
    total, err, panels = _composite_integrate(np.sin, [0.0, math.pi], 1e-12)
    assert abs(total - 2.0) < 1e-12
    assert err <= 1e-12 * abs(total)  # the stopping rule is relative
    assert panels >= 1


def test_composite_integrate_arctan_derivative():
    total, _, _ = _composite_integrate(lambda x: 4.0 / (1.0 + x * x), [0.0, 1.0], 1e-13)
    assert abs(total - math.pi) < 1e-12


def test_composite_integrate_kink_at_panel_edge():
    # |x - 1| on [0, 3]: exact area 0.5 + 2 = 2.5, the kink on a panel edge
    total, _, _ = _composite_integrate(lambda x: np.abs(x - 1.0), [0.0, 1.0, 3.0], 1e-12)
    assert abs(total - 2.5) < 1e-11


def test_real_line_integral_of_odd_integrand_is_zero():
    f = lambda w: np.sin(3.0 * w) * np.exp(-w * w / 8.0)
    tol = 1e-8
    scale = _real_line_integral(lambda w: np.abs(f(w)), tol)
    assert scale > 1.0
    assert abs(_real_line_integral(f, tol, scale=scale)) <= tol * scale
    # an even one against its closed form, sqrt(8 pi) exp(-18)
    even = _real_line_integral(lambda w: np.cos(3.0 * w) * np.exp(-w * w / 8.0), tol, scale=scale)
    assert even == pytest.approx(math.sqrt(8.0 * math.pi) * math.exp(-18.0), abs=tol * scale)


@pytest.mark.parametrize("coeffs", [[0.0, 0.0], [math.nan, 1.0], [1.0, math.inf]])
def test_verify_bernstein_rejects_degenerate_coefficients(coeffs):
    with pytest.raises(ValueError):
        verify_bernstein_spline(coeffs, 3, 1)


def test_norm_rejects_infinite_p():
    with pytest.raises(ValueError, match="finite"):
        weighted_lp_norm("spline", "phi", 3, 1.0, math.inf)


def test_composite_integrate_checks_error_when_the_sum_cancels():
    # the GL15 sum of sin over [0, 2 pi] is 0 to rounding: an exact-zero
    # total must not skip the error test
    try:
        total, err, _ = _composite_integrate(np.sin, [0.0, 2.0 * math.pi], 1e-12)
    except RuntimeError:
        return
    assert err <= 1e-12 * abs(total)
    assert abs(total) <= 1e-14


def test_kernel_caches_are_bounded():
    _half_grid_kernel.cache_clear()
    for i in range(600):
        _half_grid_kernel(3, 1, 1.5 + i / 1024.0)
    assert _half_grid_kernel.cache_info().currsize <= 512
    _half_grid_kernel.cache_clear()


def _lattice_weight_mpmath(m, k, p, g):
    """(2 pi / N) c_g G(theta_g) at 40 digits, c_g = 1 at g = 0 and N/2 and 2
    between: G summed over the lattice, |Nhat_m(w)| = (2 pi)^{-1/2}
    |2 sin(w/2) / w|^m, term by term for |l| < 64 and by mpmath's Hurwitz
    zeta beyond, where each term is S^{mp} |theta + 2 pi l|^{-(m - k) p}."""
    import mpmath

    with mpmath.workdps(40):
        n = mpmath.mpf(_N_GRID)
        theta = 2 * mpmath.pi * g / n
        r = theta / (2 * mpmath.pi)
        s = (m - k) * mpmath.mpf(p)
        near = mpmath.fsum(abs(theta + 2 * mpmath.pi * l) ** -s for l in range(-63, 64))
        far = (2 * mpmath.pi) ** -s * (mpmath.zeta(s, 64 + r) + mpmath.zeta(s, 64 - r))
        lattice = abs(2 * mpmath.sin(theta / 2)) ** (m * p) * (near + far)
        c = 1 if g in (0, _N_GRID // 2) else 2
        return float(2 * mpmath.pi / n * c * (2 * mpmath.pi) ** (-p / 2) * lattice)


@pytest.mark.parametrize("m, k, p", [(7, 3, 2.5), (13, 6, 3.0), (4, 1, 1.5)])
def test_half_grid_kernel_matches_lattice_sum(m, k, p):
    w = _half_grid_kernel(m, k, p)
    for g in (1, 2, 5, 100, _N_GRID // 2):
        assert w[g] == pytest.approx(_lattice_weight_mpmath(m, k, p, g), rel=1e-13), g


_PUBLIC_MAGNITUDE = {
    ("spline", "phi"): lambda m, w: bspline_ft_magnitude(m, w),
    ("spline", "psi"): lambda m, w: spline_wavelet_magnitude(m, w),
    ("daubechies", "phi"): lambda m, w: daub_phi_hat_magnitude(m, w, tol=1e-13),
    ("daubechies", "psi"): lambda m, w: daub_psi_hat_magnitude(m, w, tol=1e-13),
}


@pytest.mark.parametrize("family, part", sorted(_PUBLIC_MAGNITUDE))
@pytest.mark.parametrize("m, alpha, p", [(2, -0.25, 2.0), (4, 0.0, 1.5), (6, 1.0, 3.0)])
def test_integrand_is_weighted_public_magnitude(family, part, m, alpha, p):
    # one modulus model: the norm integrand is w^{alpha p} |fhat(w)|^p with
    # |fhat| the public magnitude, down to small w where psi has its zero
    q = WeightedNormQuery(family, part, m, alpha, p, 1e-8)
    f, expo, coeff = _make_integrand(q, 1e-13)
    w = np.logspace(-6, 3, 301)
    want = w ** (alpha * p) * _PUBLIC_MAGNITUDE[family, part](m, w) ** p
    np.testing.assert_allclose(f(w), want, rtol=1e-11, atol=0.0)
    assert expo == (q.zero_order + alpha) * p
    assert np.all(f(w) <= coeff * w ** expo * (1.0 + 1e-12))


@pytest.mark.parametrize("family, part, m, alpha, p", [
    ("spline", "phi", 3, -0.5, 2.0),     # (0 + alpha) p = -1: not integrable at 0
    ("daubechies", "psi", 3, -3.5, 2.0),  # (3 + alpha) p = -1
    ("spline", "psi", 2, -2.5, 3.0),     # beyond the zero of order 2
    ("spline", "phi", 2, 1.5, 2.0),      # (m - alpha) p = 1: the tail diverges
    ("spline", "psi", 2, math.nan, 2.0),
])
def test_query_refuses_divergent_weights(family, part, m, alpha, p):
    with pytest.raises(ValueError):
        WeightedNormQuery(family, part, m, alpha, p)


def test_ckp_refuses_divergent_numerator_before_quadrature():
    # the denominator (spline phi, m = 1, p = 1.2) alone would take a long
    # slow-decay quadrature; the numerator's query refuses first
    import time

    t0 = time.perf_counter()
    with pytest.raises(ValueError, match="convergent"):
        ckp("spline", "phi", 1, 1, 1.2)
    assert time.perf_counter() - t0 < 1.0
