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
from bernwave.daubechies import MASK_ORDER_LIMIT, daub_phi_hat_magnitude, daub_psi_hat_magnitude
from bernwave.norms import (
    WeightedNormQuery,
    _composite_integrate,
    _N_GRID,
    _folded_integrand,
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


def _scan_before_basis(seed=20260819, slack=1e-6):
    """The violation scan as it was before the blocked basis pass: one
    zero-padded real FFT of every vector, then each p's power of the whole
    500 x (N/2 + 1) array against the stacked kernels."""
    from bernwave.norms import _SCAN_MAX_LEN, _SCAN_ORDERS, _SCAN_POWERS, _SCAN_STEPS, _SCAN_VECTORS

    rng = np.random.default_rng(seed)
    coeffs = np.zeros((_SCAN_VECTORS, _SCAN_MAX_LEN))
    for row in coeffs:
        ln = int(rng.integers(1, _SCAN_MAX_LEN + 1))
        row[:ln] = rng.uniform(-1.0, 1.0, size=ln)
    abs_sq = _symbol_abs_sq(coeffs)
    cols = [(m, k) for m in _SCAN_ORDERS for k in range(m)]
    violations = []
    n_checks = 0
    for p in _SCAN_POWERS:
        kernels = np.stack([_half_grid_kernel(m, k, p) for m, k in cols], axis=1)
        sums = dict(zip(cols, (abs_sq ** (0.5 * p) @ kernels).T))
        for m in _SCAN_ORDERS:
            for k in range(1, m):
                ratio = (sums[m, k] / sums[m, 0]) ** (1.0 / p)
                rel = ratio / spline_bernstein_constant(m, k, 1, p)
                bad = np.nonzero(rel > 1.0 + slack)[0]
                for h in _SCAN_STEPS:
                    n_checks += ratio.size
                    violations.extend((m, k, h, p, int(i), float(rel[i])) for i in bad)
    return n_checks, violations


@pytest.mark.parametrize("seed", [20260819, 1, 2, 3])
def test_violation_scan_against_the_scan_before_basis(seed):
    # the basis pass sums the same terms in another order, so at the default
    # slack the verdicts are equal, and every one of the 45,000 ratios agrees
    # to a few units in the last place
    assert bernstein_violation_scan(seed) == _scan_before_basis(seed)
    n_checks, got = bernstein_violation_scan(seed, slack=-1.0)
    want = _scan_before_basis(seed, slack=-1.0)[1]
    assert n_checks == len(got) == len(want) == 45000
    for g, w in zip(got, want):
        assert g[:5] == w[:5]
        assert g[5] == pytest.approx(w[5], rel=1e-13), g


def test_violation_scan_memory_peak():
    # one warm scan allocates nothing of size 500 x (N/2 + 1); the FFT scan
    # peaked at 125 MiB (numpy reports its buffers to tracemalloc)
    import tracemalloc

    bernstein_violation_scan()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        bernstein_violation_scan()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 32 * 2 ** 20


@pytest.mark.parametrize("slack", [math.nan, math.inf, -math.inf])
def test_violation_scan_refuses_non_finite_slack(slack):
    # a nan slack compares false everywhere and would report no violation
    with pytest.raises(ValueError, match="slack must be finite"):
        bernstein_violation_scan(slack=slack)


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
    # off p = 2 and j = 0 the stated bound is the Hoelder product, not a
    # factor 2^{j(2/p - 1)} below it
    fhat = lambda w: np.exp(-0.5 * w * w)
    for family, j, nu, p in (("spline", 0, 0, 2.0), ("spline", 1, 2, 2.0), ("daubechies", 0, 1, 2.0),
                             ("spline", 2, 1, 1.5), ("spline", 2, 1, 3.0)):
        r = coefficient_bound_check(fhat, family, 3, j=j, nu=nu, k=1, p=p, tol=1e-8)
        assert r.ok
        assert r.inner_product_abs <= r.stated_bound * (1.0 + 1e-6)
        assert r.stated_bound == pytest.approx(r.holder_bound, rel=1e-12)


@pytest.mark.parametrize("bad", [{"p": 1.0}, {"p": math.nan}, {"k": -1}, {"tol": 0.0}, {"tol": -1.0}])
def test_coefficient_bound_refuses_bad_input_before_any_integral(monkeypatch, bad):
    from bernwave import norms

    calls = []
    quadrature = norms._composite_integrate

    def counted(*args, **kwargs):
        calls.append(args)
        return quadrature(*args, **kwargs)

    monkeypatch.setattr(norms, "_composite_integrate", counted)
    with pytest.raises(ValueError):
        coefficient_bound_check(lambda w: np.exp(-0.5 * w * w), "spline", 3, **bad)
    assert calls == []


def test_coefficient_bound_evaluates_psihat_once_over_the_window(monkeypatch):
    # the Daubechies m = 8 case of the benchmark: one complex integral
    # (704 nodes of psihat), not a mass and separate re/im parts (2,288)
    from bernwave import norms

    nodes = []
    psihat = norms._daub.daub_psi_hat_complex

    def counted(m, w):
        nodes.append(np.size(w))
        return psihat(m, w)

    monkeypatch.setattr(norms._daub, "daub_psi_hat_complex", counted)
    fhat = lambda w: 0.5 * np.exp(-1.3j * w - 0.5 * (0.5 * w) ** 2)
    assert coefficient_bound_check(fhat, "daubechies", 8, tol=1e-6).ok
    assert 0 < sum(nodes) <= 1000


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


# _daub_tail_certificate(m) for every order m <= MASK_ORDER_LIMIT, bit for
# bit: log2_t, bmax, log_e and sigma as float.hex, and a SHA-256 of
# log_sup.tobytes(), recorded from the gather-based build
DAUB_TAIL_CERTIFICATE_FROZEN = {
    1: (
        ("0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
         "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
         "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
         "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
         "0x0.0p+0"),
        "0x1.0000000000000p+0", "0x0.0p+0", "0x1.0000000000000p+1",
        "46320d3181f7095d77f31e79c87ba0f20a79b9322791a72695d5f81c5c4803df"),
    2: (
        ("0x0.0p+0", "0x1.95c02c5b1f4cdp+0", "0x1.5943500a260acp+1",
         "0x1.05230df07a00bp+2", "0x1.5772b967872efp+2", "0x1.ad16d22226a9bp+2",
         "0x1.00938e1dbb032p+3", "0x1.2b033b2785ebbp+3", "0x1.55407749d69dfp+3",
         "0x1.7f987c072b5dcp+3", "0x1.a9e5fbc9d2271p+3", "0x1.d43e6ce695a02p+3",
         "0x1.fe9cc2a64f79fp+3"),
        "0x1.8000000000000p+1", "0x1.0c805c37f2295p+0", "0x1.55cbbf1de5820p+1",
        "792ca73deb5edd71db1f545e90eb9edef731d9490b314eff8e825223be7b10c4"),
    3: (
        ("0x0.0p+0", "0x1.a93502b8be1f5p+1", "0x1.64e3853d960fep+2",
         "0x1.0e23e7a61e207p+3", "0x1.62d8a201aadfcp+3", "0x1.bb4f6ee316e4cp+3",
         "0x1.08ff46241eda6p+4", "0x1.34cba0682189ep+4", "0x1.605efcf917dedp+4",
         "0x1.8c106da9148dfp+4", "0x1.b7b5b56434e71p+4", "0x1.e366c32f50938p+4",
         "0x1.078eaac8ffcbbp+5"),
        "0x1.4000000000000p+3", "0x1.fd9767767cb03p+0", "0x1.a0971c49559b1p+1",
        "6595ef996d1ee731506937cfcaf2e826989113547f00e02e53cfc7510c959ec4"),
    4: (
        ("0x0.0p+0", "0x1.484639df48808p+2", "0x1.115c17499cf2fp+3",
         "0x1.9e02245bdc8b9p+3", "0x1.0fbabbfb23ecbp+4", "0x1.537738109e14ep+4",
         "0x1.95c6b6951aea8p+4", "0x1.d8d14a276d3c9p+4", "0x1.0dc0419aebf3dp+5",
         "0x1.2f2fe727a7d4dp+5", "0x1.5095b21ae3358p+5", "0x1.7204b15e58e45p+5",
         "0x1.9377aae34e9e8p+5"),
        "0x1.1800000000000p+5", "0x1.74429f930f6e8p+1", "0x1.e60b1c2641d76p+1",
        "35d7aa56bc659d07937612921424ffd61539e2b157f33db96a83dda76a32126c"),
    5: (
        ("0x0.0p+0", "0x1.be8bd338c2d8bp+2", "0x1.71f034c947fdap+3",
         "0x1.1836f3506e815p+4", "0x1.6fae56124e83dp+4", "0x1.cb54ebaae6695p+4",
         "0x1.128038e0cd817p+5", "0x1.3fd7ef10c0a76p+5", "0x1.6cf02a36aee1ep+5",
         "0x1.9a29bdaaec8dfp+5", "0x1.c75588a72efccp+5", "0x1.f48dee0e1f28dp+5",
         "0x1.10e5bfe0b3d3ep+6"),
        "0x1.f800000000000p+6", "0x1.e8a7106739a1ap+1", "0x1.14230029bae58p+2",
        "3f4e706914344cb128f60514a2bd5f671f04bd1d094dfc59496c11c8be03544d"),
    6: (
        ("0x0.0p+0", "0x1.1b41928960474p+3", "0x1.d3a1d9f01785ep+3",
         "0x1.62471a70f9277p+4", "0x1.d0bd4c0fb9b3cp+4", "0x1.224a64304817dp+5",
         "0x1.5af0415790251p+5", "0x1.943d27a8af5bfp+5", "0x1.cd387002da915p+5",
         "0x1.032f457c6bd68p+6", "0x1.1fb96d36e1ad9p+6", "0x1.3c4b9b3240819p+6",
         "0x1.58e0f73bb9397p+6"),
        "0x1.ce00000000000p+8", "0x1.2e4dd53c27342p+2", "0x1.34296105b3b37p+2",
        "ad01cc0f2242de183f44e32349d5dfd2ab9292216809249688a5a4ab3d698151"),
    7: (
        ("0x0.0p+0", "0x1.57d5bb5e7cbc8p+3", "0x1.1b10b8aa64495p+4",
         "0x1.acf42a79a6bc5p+4", "0x1.194c936107365p+5", "0x1.5f6a67d82fefep+5",
         "0x1.a3f942fc43205p+5", "0x1.e954a0312c28ep+5", "0x1.1726060aa6455p+6",
         "0x1.39bbeeb75383ep+6", "0x1.5c46ea16f99f6p+6", "0x1.7edba87a93e74p+6",
         "0x1.a1742d6348396p+6"),
        "0x1.ad00000000000p+10", "0x1.682fc3c51c548p+2", "0x1.536518d0f508ep+2",
        "959aa9e460bae671fe0ad1339ea3c2a9057dd26238a321a02e4893b78fe3530b"),
    8: (
        ("0x0.0p+0", "0x1.94dafd0fc7decp+3", "0x1.4c9e990284d18p+4",
         "0x1.f817dda96e9d3p+4", "0x1.4a885631c911cp+5", "0x1.9cebc079840a9p+5",
         "0x1.ed76a8acd15f2p+5", "0x1.1f79e324a96a6p+6", "0x1.47fd4158c6177p+6",
         "0x1.709fa2eb6c532p+6", "0x1.99350c59caa92p+6", "0x1.c1d5f76a86aa7p+6",
         "0x1.ea7b43c514ff3p+6"),
        "0x1.9230000000000p+12", "0x1.a206b765a24b7p+2", "0x1.7206504e8eabcp+2",
        "9e1bb1311d45f2024375275162fccee590561e92664abf3891c8aa13f18ea609"),
    9: (
        ("0x0.0p+0", "0x1.d23777a4c741ap+3", "0x1.7e69e17b2c78bp+4",
         "0x1.21cc51968f9a9p+5", "0x1.7c0167bc86e15p+5", "0x1.dab9c67250e05p+5",
         "0x1.1ba7eba2aaef5p+6", "0x1.4a7ef9f29c2d0p+6", "0x1.79119730822d0p+6",
         "0x1.a7c80cd3b9cfap+6", "0x1.d66f7d4c02ee1p+6", "0x1.0292180df0ecdp+7",
         "0x1.19eef04328682p+7"),
        "0x1.7bd8000000000p+14", "0x1.dbd89fc340259p+2", "0x1.902d7f4ce9950p+2",
        "7bf2a3186d25ec132a2d9e164caac7a8a8a948dbfefcaa73fe69473ea679eb19"),
    10: (
        ("0x0.0p+0", "0x1.07eca1b8a3504p+4", "0x1.b066d22e54000p+4",
         "0x1.47b24157e2bdfp+5", "0x1.adac1cacde9fap+5", "0x1.0c62f19788dbep+6",
         "0x1.40b9b430d5261p+6", "0x1.75af72524c7aap+6", "0x1.aa5779e17e3c0p+6",
         "0x1.df2831662efadp+6", "0x1.09f3eade41d67p+7", "0x1.245b3f1535a8bp+7",
         "0x1.3ec5611f08b15p+7"),
        "0x1.68da000000000p+16", "0x1.0ad417ac359c6p+3", "0x1.adf1a7ad3e272p+2",
        "64b6178ea9ffde355dfc40a49bfe573675765dfad69c5c6cd3e12eecff2c0bc7"),
    11: (
        ("0x0.0p+0", "0x1.26d9bc84f1130p+4", "0x1.e28ccef10aa6ep+4",
         "0x1.6db72c6a5b5c9p+5", "0x1.df7fe429522f9p+5", "0x1.2b82b061132c2p+6",
         "0x1.65ea491213186p+6", "0x1.a103d8ebe09e5p+6", "0x1.dbc669d31d746p+6",
         "0x1.0b5b41e76cf6dp+7", "0x1.28c9bde1b50c3p+7", "0x1.46409d38d2bffp+7",
         "0x1.63ba99ff4ea04p+7"),
        "0x1.5873000000000p+18", "0x1.27bb5269723b2p+3", "0x1.cb63baac83aa0p+2",
        "867ad825e1593a8278d2c98ffe39bc36786f05b07a4915fbd5d2b8654fed45ef"),
    12: (
        ("0x0.0p+0", "0x1.45de3e83cf38cp+4", "0x1.0a6aaabb7a3e2p+5",
         "0x1.93d61e25ab6f8p+5", "0x1.08bb210543c3ep+6", "0x1.4ab8117e03186p+6",
         "0x1.8b34d1a810e1fp+6", "0x1.cc7687bfd53fcp+6", "0x1.06abfa84e15a5p+7",
         "0x1.2735e2a618e8fp+7", "0x1.47b5325f74b0cp+7", "0x1.683dc6b819d11p+7",
         "0x1.88c9c93603319p+7"),
        "0x1.4a18e00000000p+20", "0x1.44a24a73c6822p+3", "0x1.e890921aa2268p+2",
        "08109ba3a9efd6965d4d61e6ba57d5f44338611576baf4adc52cd85803b65b6b"),
    13: (
        ("0x0.0p+0", "0x1.64f67b84a4d62p+4", "0x1.239dacd668edap+5",
         "0x1.ba0b40ab9ccbap+5", "0x1.21c516b4346e1p+6", "0x1.69ffeee072a68p+6",
         "0x1.b09589dcbd369p+6", "0x1.f8031ad470739p+6", "0x1.1f838c4942946p+7",
         "0x1.432129c0a0bc7p+7", "0x1.66b32740bc68bp+7", "0x1.8a4f4ba70fff9p+7",
         "0x1.adef30b235d8dp+7"),
        "0x1.3d66b00000000p+22", "0x1.618922c6d6ab8p+3", "0x1.02c11467b8344p+3",
        "70ed5c3ee6fc5e1a2f7e62e5013c48d69dfb485bde7a51d93c377b5e916620ea"),
    14: (
        ("0x0.0p+0", "0x1.841f9492eee84p+4", "0x1.3cdd6e2781208p+5",
         "0x1.e0538bbd185f9p+5", "0x1.3adbd43628d5bp+6", "0x1.8957c96efe696p+6",
         "0x1.d60974c093be1p+6", "0x1.11d30b141ba58p+7", "0x1.3867ecf94cba5p+7",
         "0x1.5f1ada96496e8p+7", "0x1.85c120d540c69p+7", "0x1.ac72703646717p+7",
         "0x1.d327d176c4817p+7"),
        "0x1.3210bc0000000p+24", "0x1.7e6febf3858e4p+3", "0x1.11203e0c4f536p+3",
        "73df305e54e8b0e4def4eb3dca8da1042d4a91d61f6d74cd911f74d970eb00c0"),
    15: (
        ("0x0.0p+0", "0x1.a3574046196dep+4", "0x1.562852352036bp+5",
         "0x1.03564744b5c32p+6", "0x1.53fdbd44691cep+6", "0x1.a8bd9d69e9adcp+6",
         "0x1.fb8e28a52d951p+6", "0x1.27ae54a817f20p+7", "0x1.51578132a4154p+7",
         "0x1.7b21267f5104bp+7", "0x1.a4dd1d1e0bb7dp+7", "0x1.cea4ff5124d71p+7",
         "0x1.f871494f0f6f9p+7"),
        "0x1.27dcfa0000000p+26", "0x1.9b56addc8fb47p+3", "0x1.1f68f3969615ep+3",
        "0061f108e00f670a763f83abd9d82b44f9073208fac75ac059c420ed7b0baab9"),
    16: (
        ("0x0.0p+0", "0x1.c29ba4c1dda1dp+4", "0x1.6f7d0759a8048p+5",
         "0x1.168a252b86997p+6", "0x1.6d29801eefcefp+6", "0x1.c82fc4463c5d8p+6",
         "0x1.1090d59a73f4dp+7", "0x1.3d9242d1fe5a8p+7", "0x1.6a50f7967bf59p+7",
         "0x1.97329204cb35cp+7", "0x1.c405769ea166ap+7", "0x1.f0e529587a4aap+7",
         "0x1.0ee4cbb18abbcp+8"),
        "0x1.1e9e123000000p+28", "0x1.b83d6c470e18ep+3", "0x1.2d9de0d138b60p+3",
        "166e8785dccb00498a31fff7a50c61a17719465d9bc5b5217d1f472f93813fd2"),
    17: (
        ("0x0.0p+0", "0x1.e1eb3d0ff0959p+4", "0x1.88da7583a8368p+5",
         "0x1.29c48c0a35297p+6", "0x1.865e046d7619fp+6", "0x1.e7acdf45dc99bp+6",
         "0x1.23612bf7dc5a6p+7", "0x1.537de0445980ep+7", "0x1.835337e49f1fbp+7",
         "0x1.b34de1df58addp+7", "0x1.e338cf22f6287p+7", "0x1.0998b6784cd13p+8",
         "0x1.21978f91142e8p+8"),
        "0x1.1630029800000p+30", "0x1.d52429020ee46p+3", "0x1.3bc12bd274d96p+3",
        "0c16178c7567114d5548499bc95a1a77f5a9c98610b26e8c2beede937f84c354"),
    18: (
        ("0x0.0p+0", "0x1.00a262fe2fc29p+5", "0x1.a23fb1b17aa55p+5",
         "0x1.3d04ca9853308p+6", "0x1.9f9a5ecf2e5e7p+6", "0x1.0399e3f555501p+7",
         "0x1.363766cee265ap+7", "0x1.69705eeb25039p+7", "0x1.9c5d569972d99p+7",
         "0x1.cf720d1b8a1cap+7", "0x1.013b0008cf557p+8", "0x1.1ac44376abae3p+8",
         "0x1.34503c523a595p+8"),
        "0x1.0e75c9a200000p+32", "0x1.f20ae4ec6e50fp+3", "0x1.49d4b47a0f11ep+3",
        "fd038428df4af9eb1515e06ac3ff2a105ba90ba0f95ff231b0691462ea8324fe"),
    19: (
        ("0x0.0p+0", "0x1.10539806847fap+5", "0x1.bbabf4ac71914p+5",
         "0x1.504a4ab8ead6cp+6", "0x1.b8ddc7a265422p+6", "0x1.1361c236f7adbp+7",
         "0x1.4912f045f4511p+7", "0x1.7f690fe7e57e7p+7", "0x1.b56e8bd888224p+7",
         "0x1.eb9e32e1113d4p+7", "0x1.10de07e58e145p+8", "0x1.2bf4b20979ecbp+8",
         "0x1.470e3d9b65f4bp+8"),
        "0x1.0757bd9700000p+34", "0x1.0778d038dbd34p+4", "0x1.57da06619ac8ep+3",
        "b5bcebdb0ed5c30bcb0e0388f3b55abdfb3e3fe33f8ab9a30791554fcfb4ed8e"),
    20: (
        ("0x0.0p+0", "0x1.2008ca837638fp+5", "0x1.d51e940c3f310p+5",
         "0x1.63948c25ce061p+6", "0x1.d227940f832d1p+6", "0x1.232d9f86dd8c9p+7",
         "0x1.5bf3481368b27p+7", "0x1.95675d7fe55a4p+7", "0x1.ce862c7e7ecb0p+7",
         "0x1.03e8c94c7affep+8", "0x1.208513fdedeccp+8", "0x1.3d298c344b507p+8",
         "0x1.59d1138f84401p+8"),
        "0x1.00c258d9a0000p+36", "0x1.15ec2de2f7a13p+4", "0x1.65d2768149ffep+3",
        "c6a717bb0e38cd8fa0dffdb98f561b9002ad9bd17db2427e1919c5947a600815"),
}


@pytest.mark.parametrize("m", range(1, MASK_ORDER_LIMIT + 1))
def test_daub_tail_certificate_frozen_bit_for_bit(m):
    import hashlib

    from bernwave.norms import _daub_tail_certificate

    log2_t, bmax, log_e, sigma, digest = DAUB_TAIL_CERTIFICATE_FROZEN[m]
    cert = _daub_tail_certificate(m)
    assert tuple(x.hex() for x in cert.log2_t) == log2_t
    assert (cert.bmax.hex(), cert.log_e.hex(), cert.sigma.hex()) == (bmax, log_e, sigma)
    assert hashlib.sha256(cert.log_sup.tobytes()).hexdigest() == digest


def test_daub_tail_certificate_memory_peak():
    # one cold build holds at most three float64 arrays of the 2^22-point grid
    # (numpy reports its buffers to tracemalloc, so this does not depend on timing)
    import tracemalloc

    from bernwave.norms import _TAIL_GRID_POW, _daub_tail_certificate

    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        _daub_tail_certificate.__wrapped__(12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * 8 * 2 ** _TAIL_GRID_POW


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


# _daub_tail_bound(part, m, alpha, p, pi 2^l).  p = 2 walks 70 - l mean
# octaves before the sup ones (none from pi 2^71 on), recorded when the
# exact-mean and sup-product octaves had their own loops.  Every other p
# takes the smaller of the Hoelder-carried mean bound and the sup bound on
# those octaves; DAUB_TAIL_SUP_ONLY holds its values from sup octaves alone.
DAUB_TAIL_FROZEN = {
    ("phi", 4, 1.0, 2.0, 10): 0.006175791146340388,
    ("psi", 4, -1.0, 2.0, 10): 9.104615637439152e-16,
    ("phi", 8, 0.5, 2.0, 6): 2.636132554596084e-05,
    ("psi", 12, -3.0, 2.0, 20): 7.811785347383605e-78,
    ("phi", 3, 0.0, 2.0, 71): 2.8170691073690584e-49,
    ("phi", 6, 1.0, 1.5, 13): 4.9127551349682705e-05,
    ("psi", 6, -1.0, 1.5, 8): 6.525708084079328e-10,
    ("phi", 4, 0.5, 3.0, 9): 2.7909316645913607e-09,
    ("psi", 10, 2.0, 3.0, 16): 4.65787492784248e-08,
}
DAUB_TAIL_SUP_ONLY = {
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
    assert got <= DAUB_TAIL_SUP_ONLY.get(key, got)


def _walk_before_hoelder(part, m, alpha, p, omega):
    """The tail walk as it was before the Hoelder octaves, as a scalar loop:
    exact-mean octaves at p = 2 only, then sup octaves and the remainder,
    floored at the smallest normal float like the walk itself; None where the
    decay gate refuses."""
    from bernwave.norms import _TAIL_BLOCK, _daub_mean_table, _daub_tail_certificate

    cert = _daub_tail_certificate(m)
    t, r, ln2 = cert.log2_t, _TAIL_BLOCK, math.log(2.0)
    log2_rho = r * (alpha * p - m * p + 1.0) + 0.5 * p * t[r]
    if log2_rho > -0.01:
        return None
    rho, scale = 2.0 ** log2_rho, 1.0
    if part == "psi":
        scale, omega = 2.0 ** (alpha * p + 1.0), omega / 2.0
    beta = (alpha - m) * p
    l0 = math.floor(math.log2(omega / math.pi) + 1e-12)
    log_q = _daub_mean_table(m) if p == 2.0 else ()
    n_mean = max(0, len(log_q) - 1 - l0)
    mean, sup = [], []
    for n in range(l0, l0 + n_mean + 3 * r):
        w_lo, w_hi = max(omega, math.pi * 2.0 ** n), math.pi * 2.0 ** (n + 1)
        if n < l0 + n_mean:
            lp = (2.0 * m + n) * ln2 + beta * math.log(w_lo) + log_q[n] + math.log(cert.bmax) + cert.log_e
            mean.append(math.exp(lp) if lp < 700.0 else math.inf)
            continue
        log_pb = ((n + 1) // r) * t[r] * ln2 + t[(n + 1) % r] * ln2 + cert.log_e
        log_int = (beta + 1.0) * math.log(w_lo) + math.log(-math.expm1((beta + 1.0) * math.log(w_hi / w_lo))) \
            - math.log(-(beta + 1.0))
        lp = -0.5 * p * math.log(2.0 * math.pi) + m * p * ln2 + 0.5 * p * log_pb + log_int
        sup.append(math.exp(lp) if lp < 700.0 else math.inf)
    return max(scale * (sum(mean, 0.0) + (sum(sup, 0.0) + sum(sup[2 * r:], 0.0) * rho / (1.0 - rho))),
               2.0 ** -1022)


def test_daub_tail_bound_against_the_walk_before_hoelder():
    # a seeded sample of the grid m <= 20 (every order), both parts, alpha in
    # Z/2, cutoffs pi 2^6 .. pi 2^24: p = 2 is unchanged to the last bit, the
    # Hoelder octaves never raise a bound at any other p, and the gate refuses
    # exactly where it did, with the same message
    from bernwave.norms import _daub_tail_bound

    rng = np.random.default_rng(17)
    points = [(part, m, a / 2.0, p, lpow)
              for m in range(1, MASK_ORDER_LIMIT + 1) for part in ("phi", "psi")
              for p in (1.25, 1.5, 2.0, 3.0, 6.0)
              for a in range(-2 * (m if part == "psi" else 0) - 2, 2 * m + 1) for lpow in range(6, 25)]
    lower = refused = 0
    for i in rng.choice(len(points), 2000, replace=False):
        part, m, alpha, p, lpow = points[i]
        omega = math.pi * 2.0 ** lpow
        want = _walk_before_hoelder(part, m, alpha, p, omega)
        if want is None:
            refused += 1
            with pytest.raises(ValueError, match=f"part={part} m={m} alpha={alpha} p={p}: certified decay"):
                _daub_tail_bound(part, m, alpha, p, omega)
            continue
        got = _daub_tail_bound(part, m, alpha, p, omega)
        if p == 2.0:
            assert got == want, points[i]
        else:
            assert got <= want, points[i]
            lower += got < want
    assert refused > 0 and lower > 0


def test_composite_integrate_streams_panels_in_blocks(monkeypatch):
    # _EVAL_CHUNK = 30 sends 2 panels (30 GL15 nodes) through the rules at a
    # time: the same triple as one block per round, on 4 panels that refine
    # to 12 over the rounds
    from bernwave import norms

    f, period = _folded_integrand(WeightedNormQuery("spline", "phi", 2, 0.0, 1.25, 1e-12))
    edges = np.linspace(period / 64.0, period, 5)
    want = _composite_integrate(f, edges, 1e-13)
    monkeypatch.setattr(norms, "_EVAL_CHUNK", 30)
    sizes = []
    assert _composite_integrate(lambda x: sizes.append(x.size) or f(x), edges, 1e-13) == want
    assert want[2] == 12 and max(sizes) == 30


@pytest.mark.parametrize("part, m, alpha, p", [
    ("phi", 4, 0.5, 1.25), ("psi", 6, -1.0, 1.5), ("phi", 10, 1.0, 3.0),
    ("psi", 4, 1.0, 3.0), ("phi", 6, 0.0, 6.0),
])
def test_daub_tail_bound_holds_the_octave_mass(part, m, alpha, p):
    # the integrand is nonnegative, so its mass on [Omega, 16 Omega] is a
    # lower bound on the whole tail beyond Omega
    from bernwave.norms import _daub_tail_bound

    q = WeightedNormQuery("daubechies", part, m, alpha, p, 1e-8)
    f, _, _ = _make_integrand(q, 1e-12)
    omega = math.pi * 2.0 ** 6
    total, err, _ = _composite_integrate(f, np.linspace(omega, 16.0 * omega, 481), 1e-8)
    assert _daub_tail_bound(part, m, alpha, p, omega) >= total + err > 0.0


@pytest.mark.parametrize("part, omega", [("phi", 1.0), ("psi", 4.0), ("phi", 1e300)])
def test_daub_tail_bound_refuses_cutoff_outside_the_octave_table(part, omega):
    # below pi, or so far out that the walk's last octave passes the float range
    from bernwave.norms import _daub_tail_bound

    with pytest.raises(ValueError, match="leaves the octave table"):
        _daub_tail_bound(part, 4, 0.0, 3.0, omega)


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
    # an orthonormal query at p = 3 runs the quadrature route, whose fields
    # describe its window
    r = weighted_lp_norm("daubechies", "psi", 4, -1.0, 3.0, tol=1e-9)
    assert r.certified_rel_error <= 1e-9
    assert r.cutoff > 0.0 and r.tail_bound >= 0.0 and r.panels >= 1
    assert r.query.m == 4 and r.query.alpha == -1.0


@pytest.mark.parametrize("part, period", [("phi", 2.0 * math.pi), ("psi", 4.0 * math.pi)])
def test_one_period_route_certificate_fields(part, period):
    # a spline query off the exact route folds the half-line onto one period:
    # its window is that period, with panels on it and no tail
    r = weighted_lp_norm("spline", part, 4, -1.0 if part == "psi" else 0.5, 3.0, tol=1e-9)
    assert r.certified_rel_error <= 1e-9
    assert r.panels >= 1 and r.tail_bound == 0.0 and r.cutoff == period


def test_exact_route_certificate_fields():
    # p = 2 with an integer weight: no quadrature window, no tail
    r = weighted_lp_norm("daubechies", "psi", 8, -1.0, 2.0, tol=1e-12)
    assert (r.panels, r.tail_bound, r.cutoff) == (0, 0.0, math.pi)
    assert 0.0 < r.certified_rel_error <= 1e-15
    with pytest.raises(RuntimeError, match="could not certify"):
        weighted_lp_norm("spline", "psi", 4, -1.0, 2.0, tol=1e-17)


def test_fractional_weight_at_p2_runs_quadrature():
    r = weighted_lp_norm("daubechies", "phi", 6, 0.5, 2.0)
    assert r.panels >= 1 and r.tail_bound > 0.0 and r.cutoff > 2.0 * math.pi


def test_d4_weight_one_is_refused_at_p2():
    # the order-2 scaling function has L_2 Sobolev exponent exactly 1
    for part in ("phi", "psi"):
        with pytest.raises(ValueError):
            weighted_lp_norm("daubechies", part, 2, 1.0, 2.0)


def test_over_budget_norm_refuses_before_quadrature():
    # the tail puts the cutoff at pi 2^23: 2^22 panels of width 2 pi, about
    # 9.2e7 nodes against a budget of 8e7, refused before any evaluation on
    # the window
    import time

    t0 = time.perf_counter()
    with pytest.raises(RuntimeError, match="node budget"):
        weighted_lp_norm("daubechies", "phi", 6, 1.0, 1.2, 1e-6)
    assert time.perf_counter() - t0 < 20.0


@pytest.mark.parametrize("part, m, alpha, lpow", [
    ("psi", 10, -1.0, 6), ("psi", 12, 1.0, 11), ("phi", 10, 1.0, 11),
])
def test_quadrature_route_cutoffs_pinned(part, m, alpha, lpow):
    # norms-lp queries at p = 1.5: the bootstrap that sets the tail target
    # integrates the body first and deepens its head stack only relative to
    # that body, and these cutoffs are where the tail walk then stops
    r = weighted_lp_norm("daubechies", part, m, alpha, 1.5, 1e-6)
    assert r.cutoff == math.pi * 2.0 ** lpow
    assert r.certified_rel_error <= 1e-6


@pytest.mark.parametrize("m, tols", [(2, (1e-2, 1e-3)), (3, (1e-4, 1e-6))])
@pytest.mark.parametrize("part", ["phi", "psi"])
@pytest.mark.parametrize("p", [1.25, 1.5])
def test_quadrature_route_kinks_at_panel_edges(m, tols, part, p):
    # |phihat|^p has zeros of fractional order mp at the nonzero multiples of
    # 2 pi, and |psihat|^p at those of 4 pi: every one is an edge of the 2 pi
    # panels.  The certified intervals at a loose and a tight tolerance must
    # overlap.  The order-2 tails decay slowly: at p = 1.25 tol 1e-4 already
    # needs a cutoff of pi 2^22 for psi (2^21 panels, about 13 s), and tol 1e-8
    # is refused at both p, so that order runs 1e-2 and 1e-3
    res = [weighted_lp_norm("daubechies", part, m, 0.0, p, tol) for tol in tols]
    assert all(r.certified_rel_error <= tol for r, tol in zip(res, tols))
    lo = max(r.value / (1.0 + r.certified_rel_error) for r in res)
    hi = min(r.value / (1.0 - r.certified_rel_error) for r in res)
    assert lo <= hi


def test_quadrature_route_reaches_the_roadmap_query():
    # weight +1 on the order-4 scaling function at p = 2: the tail needs a
    # cutoff of pi 2^19, 2^18 panels of width 2 pi.  The exact route gives
    # the reference
    from bernwave.norms import _quadrature_norm

    r = _quadrature_norm(WeightedNormQuery("daubechies", "phi", 4, 1.0, 2.0, 1e-6))
    exact = weighted_lp_norm("daubechies", "phi", 4, 1.0, 2.0, 1e-6)
    assert r.cutoff == math.pi * 2.0 ** 19
    assert abs(r.value - exact.value) <= (r.certified_rel_error + exact.certified_rel_error) * exact.value


def test_daub_tail_bound_is_positive_where_every_octave_underflows():
    # every octave bound of this walk is below the float range; the walk is
    # floored at the smallest normal float, since 0.0 bounds no positive mass
    from bernwave.norms import _daub_tail_bound

    got = _daub_tail_bound("psi", 5, -6.0, 6.0, math.pi * 2.0 ** 22)
    assert got > 0.0 and got >= 2.0 ** -1022


def test_slow_decay_norm_certifies_through_hoelder_octaves():
    # on sup octaves alone this tail needed a cutoff of pi 2^24, over the node
    # budget; the exact L_2 octave means carried to p = 1.5 bring it to
    # pi 2^17.  The value agrees with the same norm at tol 1e-4: the two
    # certified intervals for the exact norm overlap
    fine = weighted_lp_norm("daubechies", "phi", 6, 1.0, 1.5, 1e-6)
    coarse = weighted_lp_norm("daubechies", "phi", 6, 1.0, 1.5, 1e-4)
    assert fine.certified_rel_error <= 1e-6 and coarse.certified_rel_error <= 1e-4
    lo = max(r.value / (1.0 + r.certified_rel_error) for r in (fine, coarse))
    hi = min(r.value / (1.0 - r.certified_rel_error) for r in (fine, coarse))
    assert lo <= hi


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


def test_composite_integrate_complex_equals_its_parts():
    f = lambda x: np.exp((3.0j - 0.5) * x)
    edges = np.linspace(0.0, 4.0, 9)
    z, _, _ = _composite_integrate(f, edges, 1e-10)
    re, _, _ = _composite_integrate(lambda x: f(x).real, edges, 1e-10)
    im, _, _ = _composite_integrate(lambda x: f(x).imag, edges, 1e-10)
    assert type(z) is complex and type(re) is float and type(im) is float
    assert abs(z - complex(re, im)) <= 1e-15 * abs(z)  # a few ulp: einsum rounds complex rows its own way


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
    from bernwave.norms import _lattice

    _half_grid_kernel.cache_clear()
    _lattice.cache_clear()
    for i in range(600):
        _half_grid_kernel(3, 1, 1.5 + i / 1024.0)
    assert _half_grid_kernel.cache_info().currsize <= 512
    assert _lattice.cache_info().currsize <= 512
    _half_grid_kernel.cache_clear()
    _lattice.cache_clear()


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


# SHA-256 over _half_grid_kernel(m, k, p).tobytes() for every k < m with
# (m - k) p > 1, in increasing k, recorded when each kernel built its own
# lattice (before the per-s lattice cache)
HALF_GRID_KERNEL_FROZEN = {
    (2, 1.25): "c93a96cb184bde0f5bb8b23f59209e19de50fb120216fea232fbf2bc4a984870",
    (2, 1.5): "d86a7fd6fb5a3fa98c63ef711427315de02a941ed4b1db6ed7a3c0c492a645c9",
    (2, 2.0): "3de230ba3a985bc9af5f555a510f2abadc95895017473c1c6b3e633d100748eb",
    (2, 3.0): "d83f86b5ad5166120babb851f98978de80202cf7c06c81c5b1581f73384a1356",
    (2, 6.0): "17173d09f2c7a144030533438ceb561686580c4a528ac1ee2804094ca80f20c9",
    (3, 1.25): "4636a43278e5bdab9fc4ae23a2fd9c2ba33821288861058c5d341e88cf831b54",
    (3, 1.5): "1e42ec28306f6154413156fd5e13df129034f4678448d2446e03cd7ad8c044bb",
    (3, 2.0): "ab7d28377748cf9713c737a70efcc3fc0d93372ff18e10903e875fe1d2d4c60c",
    (3, 3.0): "c73bf9afdc32c883ff3137f3b76d69c5465fb823bd3b2822e4f42af29a90c127",
    (3, 6.0): "5aafd75ae1abcaf509cd9d120a73b89588114c10bd1d8818084bddf61db69716",
    (6, 1.25): "06637abede98b6149ee814446c9ac29e3f27f7ed98d00abfd466be572157c2b7",
    (6, 1.5): "2a3903e80b4651d38c73d6030f4222e2e35723b76d52518f93c6793b30a0d897",
    (6, 2.0): "05960d41032db3a8bab54ef3b1c3067c6f96a56b28431ce2eb5887e228f35267",
    (6, 3.0): "0908c6c1e07bc7d1a9ce83e8c1ad6b4a512ca42759dba10a603d2c274a9a22ae",
    (6, 6.0): "1f9482b93a1cd7cb750f3a4ae0108c7f764a522e436ecaed08324ddd7425aef0",
    (13, 1.25): "7d75c0ea60e4082a88e987498dbea13ca6a5850813efb2226e2bc4fd9874cae5",
    (13, 1.5): "fa2fb093c43479bd5d580d2e9a5a72ecebc40369b73c641d9d1bb2685cac5001",
    (13, 2.0): "a8b317ff5f998c627a2900b863fa5009e977a311de351c6ef19dc4db604009db",
    (13, 3.0): "f32c8b9f70e145236b36c38d67353fc50c77f350f1d88c308aaf2c54f561be2a",
    (13, 6.0): "6fe731d3080d414a0920e3c93f55b08824f711c0e59b4e3218111de1bdb2725c",
    (40, 1.25): "6bfa762f716c7109e785ffd75da6ede99174449b050c6850414640ffcd13dda6",
    (40, 1.5): "17183ecd6136f107f2ad1b721c5530cc1ce2397ff5d77d6e1b1473e15609f937",
    (40, 2.0): "94cea517f3db5d571f1543415461f4314094358d8861f7706381ca1a6fe4eb24",
    (40, 3.0): "8551d8bb00ea272b7d818498c49b35cfd9020f4ffa852c1edaefcb66a88b167e",
    (40, 6.0): "7b7113b364d3c15cbe49b49cd6e4113e6dcc185028d12e175367d58eb3cd413c",
}


@pytest.mark.parametrize("m, p", sorted(HALF_GRID_KERNEL_FROZEN))
def test_half_grid_kernel_frozen_bit_for_bit(m, p):
    import hashlib

    digest = hashlib.sha256()
    for k in range(m):
        if (m - k) * p > 1.0:
            digest.update(_half_grid_kernel(m, k, p).tobytes())
    assert digest.hexdigest() == HALF_GRID_KERNEL_FROZEN[m, p]


_PUBLIC_MAGNITUDE = {
    ("spline", "phi"): lambda m, w: bspline_ft_magnitude(m, w),
    ("spline", "psi"): lambda m, w: spline_wavelet_magnitude(m, w),
    ("daubechies", "phi"): lambda m, w: daub_phi_hat_magnitude(m, w, tol=1e-13),
    ("daubechies", "psi"): lambda m, w: daub_psi_hat_magnitude(m, w, tol=1e-13),
}


def _folded_reference(weighted, s, period, theta, terms=64):
    """sum_{l>=0} weighted(theta + l T): the first `terms` from the public
    magnitude, the rest at 30 digits from mpmath's Hurwitz zeta, since
    weighted(theta + l T) = weighted(theta) (theta / (theta + l T))^s."""
    import mpmath

    near = sum(weighted(theta + l * period) for l in range(terms))
    with mpmath.workdps(30):
        far = [float((th / period) ** s * mpmath.zeta(s, terms + th / period)) for th in theta]
    return near + weighted(theta) * np.array(far)


@pytest.mark.parametrize("family, part", sorted(_PUBLIC_MAGNITUDE))
@pytest.mark.parametrize("m, alpha, p", [(2, -0.25, 2.0), (4, 0.0, 1.5), (6, 1.0, 3.0)])
def test_integrand_is_weighted_public_magnitude(family, part, m, alpha, p):
    # one modulus model: the norm integrand is w^{alpha p} |fhat(w)|^p with
    # |fhat| the public magnitude, down to small w where psi has its zero;
    # a spline's is that sum folded onto one period (0, T]
    q = WeightedNormQuery(family, part, m, alpha, p, 1e-8)
    weighted = lambda w: w ** (alpha * p) * _PUBLIC_MAGNITUDE[family, part](m, w) ** p
    if family == "spline":
        f, period = _folded_integrand(q)
        assert period == (2.0 if part == "phi" else 4.0) * math.pi
        theta = period * np.logspace(-7, -0.02, 301)
        want = _folded_reference(weighted, (m - alpha) * p, period, theta)
        np.testing.assert_allclose(f(theta), want, rtol=1e-11, atol=0.0)
        return
    f, expo, coeff = _make_integrand(q, 1e-13)
    w = np.logspace(-6, 3, 301)
    np.testing.assert_allclose(f(w), weighted(w), rtol=1e-11, atol=0.0)
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


def test_tail_gate_refuses_before_any_quadrature(monkeypatch):
    # the numerator's weight is beyond what the certified decay can sum; the
    # denominator's quadrature (about 9 s) used to run before the refusal
    from bernwave import norms

    calls = []
    quadrature = norms._composite_integrate

    def counted(*args, **kwargs):
        calls.append(args)
        return quadrature(*args, **kwargs)

    monkeypatch.setattr(norms, "_composite_integrate", counted)
    with pytest.raises(ValueError, match="cannot certify tail decay"):
        ckp("daubechies", "phi", 2, 1, 1.279, 5e-4)
    with pytest.raises(ValueError, match="cannot certify tail decay"):
        norms.asymptotic_sweep("daubPhiMinusK", m_grid=[4, 2], k=1, p=1.279, tol=5e-4)
    assert calls == []


def test_tail_gate_names_the_callers_part():
    # the wavelet tail reduces to the scaling one; the refusal still says psi
    with pytest.raises(ValueError, match="part=psi m=2 alpha=1.0 p=1.5"):
        weighted_lp_norm("daubechies", "psi", 2, 1.0, 1.5)


def test_exact_route_builds_no_tail_certificate(monkeypatch):
    # a certificate allocates 2^22-point arrays; p = 2 with an integer weight
    # never needs one, the query check included
    from bernwave import norms

    built = []
    monkeypatch.setattr(norms, "_daub_tail_certificate", lambda m: built.append(m))
    assert ckp("daubechies", "phi", 4, 1, 2.0).ratio > 0.0
    assert norms.asymptotic_sweep("daubPsiK", m_grid=[4, 6], k=1, p=2.0).measured[0] > 0.0
    assert built == []
