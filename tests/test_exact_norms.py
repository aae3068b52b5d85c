"""Audit of the exact p = 2 route of weighted_lp_norm (integer weights).

The references are built here, apart from bernwave's own construction:
Gram sums of B-spline derivatives from the truncated-power formula, in
integers and Fractions; Parseval for the orthonormal family; and, for the
orthonormal family at m <= 8, an exact Fraction solve of the refinement
equation for the derivative samples Phi^{(2 alpha)}(l) of the autocorrelation
of phi, the unfolded system with its moment normalisation.  The quadrature
route and the one-period spline route are then held to their own
certificates against exact values: the Gram sums at p = 2, at p = 4 through
Nhat_m^2 = Nhat_{2m} / sqrt(2 pi), and a Mellin closed form for fractional
weights.
"""

import math
from fractions import Fraction

import pytest

from bernwave.norms import (
    WeightedNormQuery,
    _one_period_norm,
    _quadrature_norm,
    _spline_l2_squared,
    weighted_lp_norm,
)

# a reference rounds twice: the exact square to float, then its square root
_REF_ROUNDING = 2.0 ** -52


# ---------------------------------------------------------------------------
# spline family: Gram sums
# ---------------------------------------------------------------------------


def _bspline_derivatives(n, r, points):
    """N_n^{(r)}(x) at integer points x, exactly, from
    N_n(x) = sum_i (-1)^i C(n, i) (x - i)_+^{n-1} / (n-1)!  (r <= n - 2)."""
    e = n - 1 - r
    powers = [x ** e for x in range(n + 1)]
    signed = [(-1) ** i * math.comb(n, i) for i in range(n + 1)]
    f = math.factorial(e)
    return {x: Fraction(sum(signed[i] * powers[x - i] for i in range(min(n, x - 1) + 1)), f)
            for x in points}


def _spline_phi_squared(m, alpha):
    # || w^alpha Nhat_m ||_2^2 = || N_m^{(alpha)} ||_2^2 = (-1)^alpha N_{2m}^{(2 alpha)}(m)
    return (-1) ** alpha * _bspline_derivatives(2 * m, 2 * alpha, [m])[m]


def _wavelet_correlation(m):
    # q_v = (-1)^v 2^{1-m} N_{2m}(v+1), and sum_v q_v q_{v+d}
    vals = _bspline_derivatives(2 * m, 0, range(1, 2 * m))
    q = [(-1) ** v * Fraction(1, 2 ** (m - 1)) * vals[v + 1] for v in range(2 * m - 1)]
    return {d: sum(q[v] * q[v + d] for v in range(len(q) - d)) for d in range(len(q))}


def _spline_psi_squared(m, alpha, corr):
    # psi = sum_v q_v N_{2m}^{(m)}(2x - v): its alpha-th derivative has squared norm
    # 2^{2 alpha - 1} sum_{v,v'} q_v q_v' (-1)^r N_{4m}^{(2r)}(2m + v - v'), r = m + alpha
    r = m + alpha
    kernel = _bspline_derivatives(4 * m, 2 * r, range(2 * m, 4 * m - 1))
    total = corr[0] * kernel[2 * m] + 2 * sum(corr[d] * kernel[2 * m + d] for d in range(1, len(corr)))
    return (-1) ** r * Fraction(2) ** (2 * alpha - 1) * total


@pytest.mark.parametrize("m", list(range(1, 13)) + [20, 40])
def test_spline_exact_route_matches_gram_sums(m):
    for alpha in range(0, m):
        r = weighted_lp_norm("spline", "phi", m, alpha, 2.0)
        want = math.sqrt(_spline_phi_squared(m, alpha))
        assert abs(r.value - want) <= (r.certified_rel_error + _REF_ROUNDING) * want, ("phi", m, alpha)
    corr = _wavelet_correlation(m)
    for alpha in range(-m, m):
        r = weighted_lp_norm("spline", "psi", m, alpha, 2.0)
        want = math.sqrt(_spline_psi_squared(m, alpha, corr))
        assert abs(r.value - want) <= (r.certified_rel_error + _REF_ROUNDING) * want, ("psi", m, alpha)
        assert r.certified_rel_error <= 2.5e-16


# ---------------------------------------------------------------------------
# orthonormal family: Parseval and exact refinement solves
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("m", range(1, 21))
def test_daubechies_parseval_is_one(m):
    for part in ("phi", "psi"):
        r = weighted_lp_norm("daubechies", part, m, 0, 2.0)
        assert abs(r.value - 1.0) <= r.certified_rel_error, (part, m, r.value)


def _laurent_mul(a, b):
    out = {}
    for i, x in a.items():
        for j, y in b.items():
            out[i + j] = out.get(i + j, 0) + x * y
    return out


def _laurent_pow(a, k):
    out = {0: Fraction(1)}
    for _ in range(k):
        out = _laurent_mul(out, a)
    return out


_SIN2 = {-1: Fraction(-1, 4), 0: Fraction(1, 2), 1: Fraction(-1, 4)}  # sin^2(w/2), z = e^{iw}
_COS2 = {-1: Fraction(1, 4), 0: Fraction(1, 2), 1: Fraction(1, 4)}   # cos^2(w/2)


def _daub_squared_symbol(m, c, high=False):
    """cos^{2c}(w/2) P_m(sin^2(w/2)) (or sine and cosine swapped) as a Laurent dict."""
    a, b = (_SIN2, _COS2) if high else (_COS2, _SIN2)
    p = {}
    for v in range(m):
        for j, x in _laurent_pow(b, v).items():
            p[j] = p.get(j, 0) + math.comb(m - 1 + v, v) * x
    return _laurent_mul(_laurent_pow(a, c), p)


def _fraction_solve(a, b):
    n = len(a)
    rows = [list(r) + [y] for r, y in zip(a, b)]
    for col in range(n):
        piv = next(i for i in range(col, n) if rows[i][col] != 0)
        rows[col], rows[piv] = rows[piv], rows[col]
        for i in range(n):
            if i != col and rows[i][col] != 0:
                f = rows[i][col] / rows[col][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[col])]
    return [rows[i][n] / rows[i][i] for i in range(n)]


def _derivative_samples(m, n):
    """Phi^{(n)}(l), |l| < 2m - 1, for the autocorrelation Phi of the order-m
    scaling function: v = 2^n sum_k 2 M_k v_{2l-k}, with the equation at the
    largest l replaced by sum_l l^n v_l = n!."""
    sym = _daub_squared_symbol(m, m)
    d = 2 * m - 1
    idx = list(range(-(d - 1), d))
    a = [[(1 if l == j else 0) - 2 ** (n + 1) * sym.get(2 * l - j, 0) for j in idx] for l in idx]
    b = [Fraction(0)] * len(idx)
    a[-1] = [Fraction(l) ** n for l in idx]
    b[-1] = Fraction(math.factorial(n))
    return dict(zip(idx, _fraction_solve(a, b)))


def _daub_squared_reference(part, m, alpha):
    if alpha <= 0 and part == "psi":
        # 2^{1-4k} sum_j b_j Phi_{m+k}(j), b from sin^{2(m-k)}(u/2) P_m(cos^2(u/2)), Phi_c(l) from
        # the refinement equation of cos^{2c}(w/2) P_m(sin^2(w/2)) with sum_l Phi_c(l) = 1
        k = -alpha
        sym = _daub_squared_symbol(m, m + k)
        d = 2 * m + k - 1
        idx = list(range(-(d - 1), d))
        a = [[(1 if l == j else 0) - 2 * sym.get(2 * l - j, 0) for j in idx] for l in idx]
        b = [Fraction(0)] * len(idx)
        a[-1], b[-1] = [Fraction(1)] * len(idx), Fraction(1)
        v = dict(zip(idx, _fraction_solve(a, b)))
        w = _daub_squared_symbol(m, m - k, high=True)
        return Fraction(2) ** (1 - 4 * k) * sum(x * v.get(j, 0) for j, x in w.items())
    v = _derivative_samples(m, 2 * alpha)
    if part == "phi":  # (-1)^alpha Phi^{(2 alpha)}(0)
        return (-1) ** alpha * v[0]
    # 2^{2 alpha + 1} (-1)^alpha sum_j b_j Phi^{(2 alpha)}(j), b from sin^{2m}(u/2) P_m(cos^2(u/2))
    w = _daub_squared_symbol(m, m, high=True)
    return (-1) ** alpha * Fraction(2) ** (2 * alpha + 1) * sum(x * v.get(j, 0) for j, x in w.items())


# the largest integer weight with a finite norm, m <= 8: the L_2 Sobolev
# exponent of the order-m scaling function is 1 at m = 2, 1.42 at m = 3,
# 1.78 at m = 4 and 2.91 at m = 8
_ALPHA_MAX = {1: 0, 2: 0, 3: 1, 4: 1, 5: 2, 6: 2, 7: 2, 8: 2}
_DAUB_EXACT = [("phi", m, a) for m in range(1, 9) for a in range(_ALPHA_MAX[m] + 1)]
_DAUB_EXACT += [("psi", m, a) for m in range(1, 9) for a in sorted({-m, -1, 0} | set(range(1, _ALPHA_MAX[m] + 1)))]


@pytest.mark.parametrize("part, m, alpha", _DAUB_EXACT)
def test_daubechies_exact_route_matches_fraction_solve(part, m, alpha):
    want = math.sqrt(_daub_squared_reference(part, m, alpha))
    r = weighted_lp_norm("daubechies", part, m, alpha, 2.0)
    assert abs(r.value - want) <= (r.certified_rel_error + _REF_ROUNDING) * want
    assert r.certified_rel_error <= 2.5e-16


def test_daubechies_infinite_weights_are_refused():
    # D4 (m = 2) has Sobolev exponent 1: || w phihat ||_2 is infinite
    for part, m, alpha in (("phi", 2, 1), ("psi", 2, 1), ("phi", 4, 2), ("phi", 8, 3)):
        with pytest.raises(ValueError, match="finite"):
            weighted_lp_norm("daubechies", part, m, alpha, 2.0)


# ---------------------------------------------------------------------------
# the quadrature route against the exact values
# ---------------------------------------------------------------------------

# alpha = 1 at m <= 4 is left out: at tol 1e-8 its cutoff passes the node budget
_QUAD_AUDIT = [(part, m, a) for m in (3, 4, 6, 8, 12, 16)
               for part, a in (("psi", -m), ("psi", -1), ("psi", 0), ("phi", 0))]
_QUAD_AUDIT += [(part, m, 1) for m in (6, 8, 12, 16) for part in ("phi", "psi")]
_QUAD_AUDIT += [("phi", 2, 0)]


def test_quadrature_route_within_its_certificate():
    bad = []
    for part, m, alpha in _QUAD_AUDIT:
        q = WeightedNormQuery("daubechies", part, m, float(alpha), 2.0, 1e-8)
        quad = _quadrature_norm(q)
        exact = weighted_lp_norm("daubechies", part, m, alpha, 2.0, 1e-8)
        gap = abs(quad.value - exact.value)
        if not gap <= quad.certified_rel_error * exact.value + exact.certified_rel_error * exact.value:
            bad.append((part, m, alpha, gap / exact.value, quad.certified_rel_error))
    assert not bad


# ---------------------------------------------------------------------------
# the one-period spline route against exact values
# ---------------------------------------------------------------------------


def _mellin_phi_p2(m, a):
    """|| |w|^a Nhat_m ||_2 for fractional a at 80 digits:
    2^{2a+1}/pi int_0^inf x^{2a-2m} sin^{2m} x dx, and with sin^{2m} x =
    sum_j c_j cos(2jx) the integral is the Mellin transform
    Gamma(s) cos(pi s/2) sum_{j>=1} c_j (2j)^{-s}, s = 2a - 2m + 1, where
    c_j = 2^{1-2m} (-1)^j C(2m, m-j)."""
    import mpmath

    with mpmath.workdps(80):
        a = mpmath.mpf(a)
        s = 2 * a - 2 * m + 1
        cos_sum = sum((-1) ** j * mpmath.binomial(2 * m, m - j) * (2 * j) ** -s for j in range(1, m + 1))
        mellin = mpmath.gamma(s) * mpmath.cos(mpmath.pi * s / 2) * cos_sum / mpmath.mpf(2) ** (2 * m - 1)
        return float(mpmath.sqrt(2 ** (2 * a + 1) / mpmath.pi * mellin))


# (m, a) with 2a not an integer, where Gamma(s) has no pole
_MELLIN_POINTS = [(1, -0.3), (2, -0.4), (3, -0.4), (5, 0.7), (5, -0.25), (8, 2.3), (8, -0.45),
                  (12, 5.3), (20, -0.3), (40, -0.2), (40, 25.1)]


def test_one_period_route_against_exact_values():
    # _one_period_norm is called directly, so it also runs where weighted_lp_norm
    # takes the exact route; no reference uses its folded integrand
    bad = []

    def check(label, q, want, ref_err):
        r = _one_period_norm(q)
        if not abs(r.value - want) <= (r.certified_rel_error + ref_err) * want:
            bad.append((label, q.part, q.m, q.alpha, abs(r.value / want - 1.0), r.certified_rel_error))

    for m in list(range(1, 13)) + [20, 40]:
        for part, lowest in (("phi", 0), ("psi", -m)):
            for alpha in range(lowest, m):
                check("p=2", WeightedNormQuery("spline", part, m, float(alpha), 2.0),
                      math.sqrt(_spline_l2_squared(part, m, alpha)), _REF_ROUNDING)
        # || w^a Nhat_m ||_4^4 = || w^{2a} Nhat_{2m} ||_2^2 / (2 pi)
        for twice in range(2 * m):
            check("p=4", WeightedNormQuery("spline", "phi", m, twice / 2.0, 4.0),
                  (_spline_l2_squared("phi", 2 * m, twice) / (2.0 * math.pi)) ** 0.25, 2.0 * _REF_ROUNDING)
    for m, a in _MELLIN_POINTS:
        check("mellin", WeightedNormQuery("spline", "phi", m, a, 2.0), _mellin_phi_p2(m, a), _REF_ROUNDING)
    assert not bad
