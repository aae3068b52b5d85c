import math
from fractions import Fraction

import numpy as np
import pytest

from bernwave.numerics import poly_real_roots
from bernwave.splines import (
    autocorrelation_symbol,
    bspline_ft_magnitude,
    bspline_integer_values,
    bspline_value,
    euler_frobenius,
    spline_wavelet,
    spline_wavelet_ft,
    spline_wavelet_magnitude,
)

SQRT_2PI = math.sqrt(2.0 * math.pi)


# ---------------------------------------------------------------------------
# B-spline values
# ---------------------------------------------------------------------------


def test_box_and_hat():
    assert bspline_value(1, 0.5) == 1.0
    assert bspline_value(1, 1.5) == 0.0
    assert bspline_value(2, 1.0) == pytest.approx(1.0, abs=1e-14)
    assert bspline_value(2, 0.25) == pytest.approx(0.25, abs=1e-14)


def test_cubic_integer_values():
    np.testing.assert_allclose(
        [bspline_value(4, x) for x in (1.0, 2.0, 3.0)],
        [1.0 / 6.0, 2.0 / 3.0, 1.0 / 6.0],
        atol=1e-14,
    )


def test_support_and_nonnegativity():
    x = np.linspace(-2.0, 12.0, 571)
    for m in (1, 3, 6, 10):
        v = bspline_value(m, x)
        assert np.all(v >= 0.0)
        assert np.all(v[(x < 0.0) | (x > m)] == 0.0)


def test_partition_of_unity():
    rng = np.random.default_rng(7)
    x = rng.uniform(0.0, 1.0, 64)
    for m in (2, 3, 5, 8):
        s = sum(bspline_value(m, x + j) for j in range(m))
        np.testing.assert_allclose(s, 1.0, atol=1e-13)


def test_integer_values_exact():
    assert bspline_integer_values(2) == [Fraction(1)]
    assert bspline_integer_values(4) == [Fraction(1, 6), Fraction(2, 3), Fraction(1, 6)]
    # rows sum to 1 and are symmetric
    for m in (5, 9, 12):
        row = bspline_integer_values(m)
        assert sum(row) == 1
        assert row == row[::-1]


# ---------------------------------------------------------------------------
# Euler-Frobenius polynomials
# ---------------------------------------------------------------------------


def test_euler_frobenius_small():
    assert euler_frobenius(2) == [1, 4, 1]
    assert euler_frobenius(3) == [1, 26, 66, 26, 1]


def test_euler_frobenius_palindrome_and_mass():
    for m in range(2, 11):
        c = euler_frobenius(m)
        assert len(c) == 2 * m - 1
        assert c == c[::-1]
        assert sum(c) == math.factorial(2 * m - 1)


def test_euler_frobenius_roots_negative_reciprocal():
    r = sorted(poly_real_roots(euler_frobenius(5)))
    assert len(r) == 8
    assert all(x < 0.0 for x in r)
    for i in range(8):
        assert r[i] * r[7 - i] == pytest.approx(1.0, rel=1e-10)


# ---------------------------------------------------------------------------
# Fourier side
# ---------------------------------------------------------------------------


def test_ft_magnitude_at_zero_and_lattice():
    for m in (1, 4, 9):
        assert bspline_ft_magnitude(m, 0.0) == pytest.approx(1.0 / SQRT_2PI, rel=1e-14)
        # sin(pi) rounds to ~1.2e-16, so the lattice zero is only clean to
        # that level (raised to the m-th power)
        assert bspline_ft_magnitude(m, 2.0 * math.pi) < 1e-15


def test_ft_magnitude_matches_direct_quadrature():
    # |int N_3 e^{-iwx} dx| / sqrt(2 pi) at a generic frequency, with N_3 and
    # the integral taken from scipy alone
    from scipy import integrate
    from scipy.interpolate import BSpline

    n3 = BSpline.basis_element([0.0, 1.0, 2.0, 3.0], extrapolate=False)
    w = 1.7
    re, im = (
        integrate.quad(lambda x: float(n3(x)) * trig(w * x), 0.0, 3.0, points=[1.0, 2.0],
                       epsabs=0.0, epsrel=1e-13)[0]
        for trig in (math.cos, math.sin)
    )
    assert math.hypot(re, im) / SQRT_2PI == pytest.approx(bspline_ft_magnitude(3, w), rel=1e-10)


def test_autocorrelation_symbol_order_one_is_constant():
    w = np.linspace(0.0, 2.0 * math.pi, 41)
    np.testing.assert_allclose(autocorrelation_symbol(1, w), 1.0, atol=1e-14)


def test_autocorrelation_symbol_matches_cosine_sum():
    # at small m the naive cosine sum is well conditioned
    m = 3
    vals = bspline_integer_values(2 * m)  # N_6(1) .. N_6(5)
    w = np.linspace(-4.0 * math.pi, 6.0 * math.pi, 81)
    direct = sum(float(vals[m - 1 + k]) * np.cos(k * w) for k in range(-(m - 1), m))
    np.testing.assert_allclose(autocorrelation_symbol(m, w), direct, atol=1e-13)


def test_autocorrelation_symbol_is_one_on_the_lattice():
    w = [0.0, 5e-324, -2.0 * math.pi, 4.0 * math.pi]
    for m in (1, 4, 40):
        np.testing.assert_allclose(autocorrelation_symbol(m, w), 1.0, rtol=1e-15)


def test_autocorrelation_symbol_positive_min_at_pi():
    w = np.linspace(0.0, 2.0 * math.pi, 201)
    for m in (2, 7, 15):
        a = autocorrelation_symbol(m, w)
        assert np.all(a > 0.0)
        assert np.argmin(a) == 100  # w = pi


def test_wavelet_coefficients_exact():
    assert spline_wavelet(2) == [Fraction(1, 12), Fraction(-1, 3), Fraction(1, 12)]
    for m in (2, 3, 5):
        q = spline_wavelet(m)
        assert len(q) == 2 * m - 1
        assert all((v > 0) == (i % 2 == 0) for i, v in enumerate(q))
        assert q == q[::-1]


def test_wavelet_magnitude_matches_complex_ft():
    w = np.linspace(0.3, 30.0, 57)
    for m in (2, 3, 5):
        np.testing.assert_allclose(
            np.abs(spline_wavelet_ft(m, w)),
            spline_wavelet_magnitude(m, w),
            rtol=1e-11,
        )


def test_wavelet_magnitude_from_two_scale_coefficients():
    # reconstruct |psihat| independently: psi = sum_v q_v (d/dx)^m N_{2m}(2x - v)
    # so |psihat(w)| = (1/2) (w/2)^m |N_{2m}hat(w/2)| |sum_v q_v e^{-i v w/2}|
    w = np.linspace(0.5, 40.0, 83)
    for m in (2, 3, 4):
        q = [float(v) for v in spline_wavelet(m)]
        symbol = np.abs(sum(c * np.exp(-1j * v * w / 2.0) for v, c in enumerate(q)))
        direct = 0.5 * (w / 2.0) ** m * bspline_ft_magnitude(2 * m, w / 2.0) * symbol
        np.testing.assert_allclose(spline_wavelet_magnitude(m, w), direct, rtol=1e-10)


def test_wavelet_orthogonal_to_coarse_space():
    # the defining property: psi is orthogonal to every integer translate
    # of the order-m B-spline one scale up.  (Same-scale psi translates
    # are NOT orthogonal -- the family is only semiorthogonal.)
    # Expand psi = sum_n d_n N_m(2x - n), refine N_m(x - l) to the fine
    # grid, and reduce everything to the exact rational autocorrelation
    # values N_{2m}(integer).  Zero must come out exactly.
    for m in (2, 3, 4):
        q = spline_wavelet(m)
        binom = [Fraction((-1) ** j * math.comb(m, j)) for j in range(m + 1)]
        d = [Fraction(0)] * (len(q) + m)
        for v, qv in enumerate(q):
            for j, bj in enumerate(binom):
                d[v + j] += qv * bj
        vals = bspline_integer_values(2 * m)  # N_{2m}(1..2m-1)

        def auto(k):
            return vals[m - 1 + k] if abs(k) < m else Fraction(0)

        for l in range(-m - 1, 2 * m + 1):
            # <psi, N_m(.-l)> up to the 2^{-m} prefactor
            inner = sum(
                dn * math.comb(m, j) * auto(n - 2 * l - j)
                for n, dn in enumerate(d)
                for j in range(m + 1)
            )
            assert inner == Fraction(0), (m, l, inner)


def test_order_validation():
    with pytest.raises(ValueError):
        bspline_value(0, 0.5)
    with pytest.raises(ValueError):
        spline_wavelet(-1)
