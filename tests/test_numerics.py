import math

import mpmath
import numpy as np
import pytest

from bernwave import daubechies, splines
from bernwave.numerics import poly_complex_roots, poly_real_roots
from bernwave.splines import euler_frobenius

_TRANSFORMS = [
    (splines.bspline_value, float),
    (splines.bspline_ft_magnitude, float),
    (splines.autocorrelation_symbol, float),
    (splines.spline_wavelet_magnitude, float),
    (splines.spline_wavelet_ft, complex),
    (daubechies.daub_symbol_squared, float),
    (daubechies.daub_phi_hat_magnitude, float),
    (daubechies.daub_psi_hat_magnitude, float),
    (daubechies.daub_phi_hat_complex, complex),
    (daubechies.daub_psi_hat_complex, complex),
]


@pytest.mark.parametrize("transform, scalar_type", _TRANSFORMS, ids=lambda v: getattr(v, "__name__", ""))
def test_transforms_share_scalar_array_policy(transform, scalar_type):
    # a 0-d input gives a Python scalar; 1-d and 2-d inputs give an array of
    # their own shape.  Values agree to the certified magnitudes' tolerance,
    # whose product depth follows the largest node of a call
    grid = np.array([[0.0, 0.7, 1.3], [2.5, math.pi, 9.0]])
    full = transform(3, grid)
    assert isinstance(full, np.ndarray) and full.shape == grid.shape
    row = transform(3, grid[1])
    assert isinstance(row, np.ndarray) and row.shape == (3,)
    np.testing.assert_allclose(row, full[1], rtol=1e-11)
    for x in (1.3, np.float64(1.3), np.array(1.3), 2):
        v = transform(3, x)
        assert type(v) is scalar_type, (x, type(v))
        assert v == pytest.approx(transform(3, np.array([float(x)]))[0], rel=1e-11)


def test_poly_real_roots_cubic():
    # (x - 1)(x - 2)(x + 3) = 6 - 7x + 0x^2 + x^3
    roots = poly_real_roots([6.0, -7.0, 0.0, 1.0])
    np.testing.assert_allclose(roots, [-3.0, 1.0, 2.0], atol=1e-12)


def test_poly_real_roots_multiple_root_reported_once():
    roots = poly_real_roots([1.0, -2.0, 1.0])  # (x - 1)^2
    np.testing.assert_allclose(roots, [1.0], atol=1e-12)


def test_poly_real_roots_none():
    assert poly_real_roots([1.0, 0.0, 1.0]) == []


def test_poly_real_roots_close_pair():
    # roots at 1 and 1 + 1e-7: Sturm isolation must separate them.  The
    # coefficient rounding alone moves roots this close together by
    # ~1e-16 / 1e-7, so only ask for agreement well beyond that level.
    a, b = 1.0, 1.0 + 1e-7
    roots = poly_real_roots([a * b, -(a + b), 1.0])
    assert len(roots) == 2
    np.testing.assert_allclose(roots, [a, b], atol=1e-8)
    assert roots[1] - roots[0] == pytest.approx(1e-7, rel=0.1)


def test_poly_real_roots_at_bisection_points():
    # x (10x - 3) (2x + 1)^2 (x + 5): 0 is the first bisection point and the
    # bracket to its right starts at a root; -1/2 is a double root
    coeffs = [0, -15, -13, 138, 228, 40]
    assert poly_real_roots(coeffs) == [-5.0, -0.5, 0.0, 0.3]


def test_poly_complex_roots_quadratic():
    roots = poly_complex_roots([1.0, 0.0, 1.0])
    np.testing.assert_allclose(roots, [-1j, 1j], atol=1e-12)


def test_poly_complex_roots_match_real():
    c = [6.0, -7.0, 0.0, 1.0]
    z = poly_complex_roots(c)
    np.testing.assert_allclose(sorted(r.real for r in z), [-3.0, 1.0, 2.0], atol=1e-10)
    assert max(abs(r.imag) for r in z) < 1e-10


@pytest.mark.parametrize("m", range(2, 16))
def test_euler_frobenius_roots_match_mpmath(m):
    # an independent reference: mpmath's simultaneous iteration at 30 digits
    coeffs = euler_frobenius(m)
    with mpmath.workdps(30):
        ref = mpmath.polyroots(coeffs[::-1], maxsteps=100, extraprec=30)
    assert max(abs(z.imag) for z in ref) < 1e-25
    roots = poly_real_roots(coeffs)
    n = 2 * m - 2
    assert len(roots) == n
    np.testing.assert_allclose(roots, sorted(float(z.real) for z in ref), rtol=1e-13, atol=0)
    assert max(abs(roots[i] * roots[n - 1 - i] - 1.0) for i in range(n)) < 1e-13
