"""Cardinal B-splines and the semiorthogonal spline wavelet family.

Time-domain quantities (integer samples, wavelet coefficients,
Euler-Frobenius polynomials) are computed in exact rational arithmetic;
frequency-domain magnitudes are evaluated in the log domain so that orders
up to m = 40 stay well inside double-precision range.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import List, Tuple

import numpy as np
from scipy.special import zeta as _hurwitz_zeta

from .numerics import scalar_or_array

__all__ = [
    "bspline_value",
    "bspline_integer_values",
    "bspline_ft_magnitude",
    "euler_frobenius",
    "autocorrelation_symbol",
    "spline_wavelet",
    "spline_wavelet_magnitude",
    "spline_wavelet_ft",
]

_SQRT_2PI = math.sqrt(2.0 * math.pi)


def _check_order(m: int):
    if not isinstance(m, (int, np.integer)) or m < 1:
        raise ValueError(f"spline order must be a positive integer, got {m!r}")


# ---------------------------------------------------------------------------
# time domain
# ---------------------------------------------------------------------------


@scalar_or_array
def bspline_value(m: int, x):
    """Cardinal B-spline of order m (support [0, m]) at x, vectorised.

    Uses the two-term order-raising recurrence, never the truncated-power
    expansion (which cancels catastrophically for large m).
    """
    _check_order(m)
    # triangle of shifted order-1 values
    cols = [np.where((x - j >= 0.0) & (x - j < 1.0), 1.0, 0.0) for j in range(m)]
    for order in range(2, m + 1):
        nxt = []
        for j in range(m - order + 1):
            t = x - j
            nxt.append((t * cols[j] + (order - t) * cols[j + 1]) / (order - 1))
        cols = nxt
    return cols[0]


@lru_cache(maxsize=None)
def _eulerian_row(n: int) -> Tuple[int, ...]:
    """(n-1)! N_n(j) for j = 1..n-1 (n >= 2): the Eulerian numbers A(n-1, j-1),
    integers from A(k, i) = (i + 1) A(k-1, i) + (k - i) A(k-1, i-1)."""
    row = [1]
    for k in range(2, n):
        row = [(i + 1) * (row[i] if i < k - 1 else 0) + (k - i) * (row[i - 1] if i else 0)
               for i in range(k)]
    return tuple(row)


def bspline_integer_values(m: int) -> List[Fraction]:
    """Exact rational values N_m(1), ..., N_m(m-1)."""
    _check_order(m)
    if m == 1:
        return []
    fact = math.factorial(m - 1)
    return [Fraction(e, fact) for e in _eulerian_row(m)]


def euler_frobenius(m: int) -> List[int]:
    """Integer coefficient list (ascending) of the degree-(2m-2) polynomial
    (2m-1)! * sum_v N_{2m}(v+1) z^v.

    Its roots are simple, real, negative, and come in reciprocal pairs.
    """
    _check_order(m)
    return list(_eulerian_row(2 * m))


def spline_wavelet(m: int) -> List[Fraction]:
    """Exact wavelet coefficients q_v = (-1)^v 2^{1-m} N_{2m}(v+1), v = 0..2m-2.

    The compactly supported semiorthogonal spline wavelet of order m is
    sum_v q_v (d/dx)^m N_{2m} evaluated at (2x - v); everything downstream
    works with its Fourier transform, which these coefficients determine.
    """
    _check_order(m)
    den = math.factorial(2 * m - 1) << (m - 1)
    return [Fraction((-1) ** v * e, den) for v, e in enumerate(_eulerian_row(2 * m))]


# ---------------------------------------------------------------------------
# frequency domain
# ---------------------------------------------------------------------------


def _log_abs_sinc(u: np.ndarray) -> np.ndarray:
    # ln|sin(u)/u|, 0 at u = 0.  sin is taken at u itself: np.sinc(u / pi)
    # rounds u / pi first, which near a zero of sin can change sin(u) by
    # a factor of order one
    q = np.ones_like(u)
    np.divide(np.sin(u), u, out=q, where=u != 0.0)
    with np.errstate(divide="ignore"):
        return np.log(np.abs(q))


@scalar_or_array
def bspline_ft_magnitude(m: int, omega):
    """|FT of N_m| = (2*pi)^{-1/2} |sin(w/2) / (w/2)|^m, evaluated stably."""
    _check_order(m)
    return np.exp(m * _log_abs_sinc(omega / 2.0)) / _SQRT_2PI


@scalar_or_array
def autocorrelation_symbol(m: int, omega):
    """The 2*pi-periodic autocorrelation symbol sum_k N_{2m}(m+k) cos(k w).

    Evaluated through its lattice representation
    sum_l [sin(u)/u]^{2m} at u = (w + 2*pi*l)/2, which is exact (the |l| >= 3
    part is a Hurwitz-zeta pair) and free of the cancellation that kills the
    cosine sum in double precision once m is large.  Strictly positive, with
    minimum at w = pi.
    """
    _check_order(m)
    th = np.mod(omega, 2.0 * np.pi)
    r = th / (2.0 * np.pi)
    s = 2 * m
    out = np.zeros_like(th)
    for l in (-2, -1, 0, 1, 2):
        out += np.sinc(r + l) ** s
    # remaining lattice points: (sin(pi r)/pi)^s * (zeta(s,3+r) + zeta(s,3-r))
    rem = (np.sin(np.pi * r) / np.pi) ** s
    out += rem * (_hurwitz_zeta(s, 3.0 + r) + _hurwitz_zeta(s, 3.0 - r))
    return out


def _log_wavelet_regular(m: int, u: np.ndarray) -> np.ndarray:
    """r(u) in |FT of the order-m spline wavelet| = (2*pi)^{-1/2} |u|^m e^{r(u)}:
    2m ln|sinc(u/4)| + ln A(u/2 + pi) - m ln 4, finite at u = 0 and at most
    -m ln 4 (sinc and the autocorrelation symbol A never exceed 1)."""
    return (
        2.0 * m * _log_abs_sinc(u / 4.0)
        + np.log(autocorrelation_symbol(m, u / 2.0 + np.pi))
        - m * math.log(4.0)
    )


@scalar_or_array
def spline_wavelet_magnitude(m: int, omega):
    """|FT of the order-m spline wavelet|:
    (2*pi)^{-1/2} |sin^2(w/4) / (w/4)|^m * (autocorrelation symbol at w/2 + pi).
    """
    _check_order(m)
    with np.errstate(divide="ignore"):
        logw = np.log(np.abs(omega))
    return np.exp(m * logw + _log_wavelet_regular(m, omega)) / _SQRT_2PI


@scalar_or_array
def spline_wavelet_ft(m: int, omega):
    """Complex FT of the order-m spline wavelet (one fixed phase convention).

    (-1)^{m-1} (2*pi)^{-1/2} (i w/4)^m sinc(w/4)^{2m}
    * (autocorrelation symbol at w/2 + pi) * exp(-i (2m-1) w / 2).

    Intended for inner products at moderate m; magnitudes at large m should
    go through spline_wavelet_magnitude, which works in the log domain.
    """
    _check_order(m)
    A = autocorrelation_symbol(m, omega / 2.0 + np.pi)
    core = (1j * omega / 4.0) ** m * np.sinc(omega / (4.0 * np.pi)) ** (2 * m)
    return (-1.0) ** (m - 1) / _SQRT_2PI * core * A * np.exp(-1j * (2 * m - 1) * omega / 2.0)
