"""Reference values computed apart from bernwave.

Nothing here imports bernwave.  Exact B-spline values come from the
truncated-power formula in integer arithmetic, the p = 2 spline norms from
Plancherel and Gram sums of those values (or scipy's BSpline), the p != 2
spline norms from scipy.integrate.quad with a tail bound of their own, a
few Daubechies norms from quad of an infinite product built on a mask that
numpy's roots factor, and the Bernstein constant from scipy.special.zeta.

Fourier convention, as in bernwave: fhat(w) = (2 pi)^{-1/2} int f(x) e^{-ixw} dx.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np
from scipy import integrate
from scipy.interpolate import BSpline
from scipy.special import zeta

_LN_2PI = math.log(2.0 * math.pi)


# ---------------------------------------------------------------------------
# exact cardinal B-splines
# ---------------------------------------------------------------------------


def bspline_derivative_at(n: int, r: int, x: int) -> Fraction:
    """N_n^{(r)}(x) at an integer x, exactly, for r <= n - 2, from
    N_n(x) = sum_i (-1)^i C(n, i) (x - i)_+^{n-1} / (n-1)!."""
    if not 0 <= r <= n - 2:
        raise ValueError("derivative order must leave a continuous function")
    e = n - 1 - r
    s = sum((-1) ** i * math.comb(n, i) * (x - i) ** e for i in range(min(n, x - 1) + 1))
    return Fraction(s, math.factorial(e))


@lru_cache(maxsize=None)
def bspline_integer_values(n: int) -> tuple:
    """(N_n(1), ..., N_n(n-1)) exactly (n >= 2)."""
    if n == 2:
        return (Fraction(1),)
    return tuple(bspline_derivative_at(n, 0, j) for j in range(1, n))


@lru_cache(maxsize=None)
def euler_frobenius(m: int) -> tuple:
    """Integer coefficients (ascending) of (2m-1)! sum_v N_{2m}(v+1) z^v."""
    f = math.factorial(2 * m - 1)
    out = []
    for v in bspline_integer_values(2 * m):
        c = v * f
        if c.denominator != 1:
            raise ArithmeticError("Euler-Frobenius coefficient is not an integer")
        out.append(int(c))
    return tuple(out)


@lru_cache(maxsize=None)
def spline_wavelet(m: int) -> tuple:
    """q_v = (-1)^v 2^{1-m} N_{2m}(v+1), v = 0..2m-2: the spline wavelet is
    psi(x) = sum_v q_v N_{2m}^{(m)}(2x - v)."""
    vals = bspline_integer_values(2 * m)
    return tuple((-1) ** v * Fraction(2) ** (1 - m) * vals[v] for v in range(2 * m - 1))


# ---------------------------------------------------------------------------
# p = 2 spline norms
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def spline_phi_l2(m: int, k: int) -> float:
    """|| w^k Nhat_m ||_2 = sqrt((-1)^k N_{2m}^{(2k)}(m)), N from scipy's BSpline."""
    b = BSpline.basis_element(np.arange(2 * m + 1, dtype=float), extrapolate=False)
    val = float((b.derivative(2 * k) if k else b)(float(m)))
    return math.sqrt((-1) ** k * val)


@lru_cache(maxsize=None)
def spline_psi_l2(m: int, k: int) -> float:
    """|| w^{-k} psihat ||_2 for the order-m spline wavelet, 0 <= k <= m.

    |w|^{-k} |psihat| is the transform modulus of the k-th antiderivative
    sum_v q_v 2^{-k} N_{2m}^{(m-k)}(2x - v), so Plancherel gives the Gram sum
    2^{-2k-1} sum_{v,v'} q_v q_v' (-1)^{m-k} N_{4m}^{(2(m-k))}(2m + v - v')."""
    q = spline_wavelet(m)
    r = m - k
    n = len(q)
    total = Fraction(0)
    for d in range(-(n - 1), n):
        corr = sum(q[v] * q[v - d] for v in range(max(0, d), min(n, n + d)))
        total += corr * bspline_derivative_at(4 * m, 2 * r, 2 * m + d)
    total *= (-1) ** r * Fraction(1, 2 ** (2 * k + 1))
    return math.sqrt(float(total))


@lru_cache(maxsize=None)
def _gram_row(m: int, k: int) -> np.ndarray:
    """(-1)^k N_{2m}^{(2k)}(m + d) for d = -(m-1)..(m-1), as floats."""
    return np.array(
        [float((-1) ** k * bspline_derivative_at(2 * m, 2 * k, m + d)) for d in range(-(m - 1), m)]
    )


def spline_expansion_l2_sq(coeffs, m: int, k: int) -> float:
    """|| w^k shat ||_2^2 for s = sum_j c_j N_m(x - j): the Gram sum
    sum_{i,j} c_i c_j (-1)^k N_{2m}^{(2k)}(m + i - j)."""
    c = np.asarray(coeffs, dtype=float)
    row = _gram_row(m, k)
    corr = np.correlate(c, c, mode="full")  # index n-1+d holds sum_i c_i c_{i+d}
    mid = c.size - 1
    total = 0.0
    for d in range(-min(m - 1, mid), min(m - 1, mid) + 1):
        total += corr[mid + d] * row[(m - 1) + d]
    return total


# ---------------------------------------------------------------------------
# the sharp spline Bernstein constant
# ---------------------------------------------------------------------------


def _dirichlet_lambda(s: float) -> float:
    return (1.0 - 2.0 ** (-s)) * float(zeta(s))


def bernstein_constant(m: int, k: int, h: int, p: float) -> float:
    """(pi h)^k (lambda((m-k)p) / lambda(mp))^{1/p}, lambda(s) = (1 - 2^-s) zeta(s)."""
    return (math.pi * h) ** k * (_dirichlet_lambda((m - k) * p) / _dirichlet_lambda(m * p)) ** (1.0 / p)


# ---------------------------------------------------------------------------
# p != 2 spline norms by quad
# ---------------------------------------------------------------------------


def _autocorrelation(m: int):
    """theta -> sum_j N_{2m}(m+j) cos(j theta).  The cosine sum is used up to
    m = 12, where its smallest value (at pi) is still far above rounding;
    beyond that the lattice form sum_l sinc((theta + 2 pi l)/2)^{2m}."""
    if m <= 12:
        vals = bspline_integer_values(2 * m)
        coef = [float(vals[m - 1])] + [2.0 * float(vals[m - 1 + j]) for j in range(1, m)]

        def a(theta):
            return sum(c * math.cos(j * theta) for j, c in enumerate(coef))

        return a
    ls = np.arange(-30, 31)

    def a(theta):
        u = 0.5 * (theta + 2.0 * math.pi * ls)
        return float(np.sum(np.sinc(u / math.pi) ** (2 * m)))

    return a


@lru_cache(maxsize=None)
def spline_lp_norm(part: str, m: int, alpha: float, p: float) -> tuple:
    """(value, relative uncertainty) of || |w|^alpha fhat ||_p for the order-m
    B-spline (part "phi") or spline wavelet (part "psi").

    The integrand is C w^{-s} P(w) with P periodic (period T), 0 <= P <= 1.
    quad integrates (0, Omega] period by period.  Beyond Omega, a multiple of
    T, the tail is C (Pbar Omega^{1-s} / (s-1) + R) with |R| <= T Omega^{-s}:
    integrate by parts against Q(w) = int_Omega^w (P - Pbar), |Q| <= T."""
    lc = -0.5 * p * _LN_2PI
    if part == "phi":
        period, c = 2.0 * math.pi, math.exp(lc) * 2.0 ** (m * p)

        def osc(w):
            return abs(math.sin(0.5 * w)) ** (m * p)

        def f(w):
            # (2 pi)^{-p/2} w^{alpha p} |sin(w/2) / (w/2)|^{mp}
            sn = abs(math.sin(0.5 * w))
            if w <= 0.0 or sn == 0.0:
                return 0.0
            return math.exp(lc + p * (alpha * math.log(w) + m * math.log(sn / (0.5 * w))))
    else:
        period, c = 4.0 * math.pi, math.exp(lc) * 4.0 ** (m * p)
        a = _autocorrelation(m)

        def osc(w):
            return abs(math.sin(0.25 * w)) ** (2 * m * p) * a(0.5 * w + math.pi) ** p

        def f(w):
            # (2 pi)^{-p/2} w^{alpha p} |sin^2(w/4) / (w/4)|^{mp} A(w/2 + pi)^p
            sn = abs(math.sin(0.25 * w))
            if w <= 0.0 or sn == 0.0:
                return 0.0
            return math.exp(lc + p * (alpha * math.log(w) + m * math.log(sn * sn / (0.25 * w))
                                      + math.log(a(0.5 * w + math.pi))))

    s = (m - alpha) * p

    pbar = integrate.quad(osc, 0.0, period, epsabs=0.0, epsrel=1e-12, limit=200)[0] / period
    body, body_err, j = 0.0, 0.0, 0
    n_periods = 8
    while True:
        while j < n_periods:
            v, e = integrate.quad(f, j * period, (j + 1) * period, epsabs=0.0, epsrel=1e-12, limit=200)
            body += v
            body_err += e
            j += 1
        om = n_periods * period
        tail = c * pbar * om ** (1.0 - s) / (s - 1.0)
        tail_unc = c * period * om ** (-s)
        if tail_unc <= 1e-9 * body or n_periods >= 1024:
            break
        n_periods *= 2
    total = body + tail
    return (2.0 * total) ** (1.0 / p), (body_err + tail_unc) / (p * total)


# ---------------------------------------------------------------------------
# Daubechies norms by quad
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def daubechies_mask(m: int) -> np.ndarray:
    """Low-pass mask h_0..h_{2m-1}, summing to 1, with m vanishing moments.

    Spectral factorisation with numpy's roots: each root y of
    P(y) = sum_{k<m} C(m-1+k, k) y^k gives z + 1/z = 2 - 4y, and the root z
    inside the unit disc joins the m roots at -1."""
    ys = np.roots([math.comb(m - 1 + k, k) for k in reversed(range(m))]) if m > 1 else []
    zs = []
    for y in ys:
        r = np.roots([1.0, -(2.0 - 4.0 * y), 1.0])
        zs.append(r[np.argmin(np.abs(r))])
    h = np.real(np.poly(np.concatenate([-np.ones(m), np.asarray(zs, dtype=complex)])))
    h = h / h.sum()
    xi = np.linspace(0.0, math.pi, 257)
    qmf = _mask_modulus(h, xi) ** 2 + _mask_modulus(h, xi + math.pi) ** 2
    if np.max(np.abs(qmf - 1.0)) > 1e-10:
        raise ArithmeticError(f"mask of order {m} is not a quadrature mirror filter")
    return h


def _mask_modulus(h, xi):
    """|sum_n h_n e^{-i n xi}|."""
    return np.abs(np.polyval(h[::-1], np.exp(-1j * np.asarray(xi))))


def _daub_modulus(h, part: str, w: float) -> float:
    """|phihat(w)| = (2 pi)^{-1/2} prod_{j>=1} |m0(w / 2^j)|, truncated where
    w / 2^j < 1e-4 (there 1 - |m0|^2 = O((w / 2^j)^{2m}) is below rounding);
    |psihat(w)| = |m0(w/2 + pi)| |phihat(w/2)|."""
    lead = 1.0
    if part == "psi":
        lead = float(_mask_modulus(h, 0.5 * w + math.pi))
        w *= 0.5
    depth = max(1, math.ceil(math.log2(max(w, 1e-4) / 1e-4)))
    xi = w / 2.0 ** np.arange(1, depth + 1)
    return lead * float(np.prod(_mask_modulus(h, xi))) / math.sqrt(2.0 * math.pi)


@lru_cache(maxsize=None)
def daubechies_lp_norm(part: str, m: int, alpha: float, p: float) -> tuple:
    """(value, relative uncertainty) of || |w|^alpha fhat ||_p for the order-m
    Daubechies scaling function (part "phi") or wavelet (part "psi").

    quad integrates 2 int_0^inf w^{alpha p} |fhat|^p between consecutive
    multiples of 2 pi, where the integrand vanishes, one octave of such
    pieces at a time.  Once an octave holds below 1e-10 of the total and its
    mass has fallen at least twofold from the octave before, the rest is
    estimated as the geometric series of that ratio and counted in the
    uncertainty.  The ratio is measured, not a proven decay rate."""
    h = daubechies_mask(m)

    def f(w):
        return 0.0 if w <= 0.0 else w ** (alpha * p) * _daub_modulus(h, part, w) ** p

    def piece(j):
        # far pieces hold a tiny share of the total: ask for accuracy against it
        return integrate.quad(f, 2.0 * math.pi * j, 2.0 * math.pi * (j + 1),
                              epsabs=1e-13 * body, epsrel=1e-11, limit=200)

    body = 0.0
    body, err = piece(0)
    prev, n = body, 0
    while True:
        octave = [piece(j) for j in range(1 << n, 1 << (n + 1))]
        mass = sum(v for v, _ in octave)
        body += mass
        err += sum(e for _, e in octave)
        ratio = mass / prev
        if mass <= 1e-10 * body and ratio <= 0.5:
            break
        if n >= 14:
            raise ArithmeticError(f"{part} m={m} weight {alpha:+g} p={p}: no decay by octave {n}")
        prev, n = mass, n + 1
    tail = mass * ratio / (1.0 - ratio)
    total = body + tail
    return (2.0 * total) ** (1.0 / p), (err + tail) / (p * total)


# ---------------------------------------------------------------------------
# the coefficient of a fixed Gaussian against the spline wavelet
# ---------------------------------------------------------------------------

GAUSS_CENTER = 1.3
GAUSS_WIDTH = 0.5


def gaussian(x):
    return np.exp(-0.5 * ((np.asarray(x) - GAUSS_CENTER) / GAUSS_WIDTH) ** 2)


def gaussian_hat(w):
    """Transform of gaussian(x): s e^{-i c w} e^{-s^2 w^2 / 2}."""
    w = np.asarray(w, dtype=float)
    return GAUSS_WIDTH * np.exp(-1j * GAUSS_CENTER * w - 0.5 * (GAUSS_WIDTH * w) ** 2)


def gaussian_l2() -> float:
    return math.sqrt(GAUSS_WIDTH * math.sqrt(math.pi))


@lru_cache(maxsize=None)
def gaussian_spline_wavelet_coefficient(m: int) -> float:
    """|<gaussian, psi>| in the time domain, psi = sum_v q_v N_{2m}^{(m)}(2x - v)
    built from scipy's BSpline, integrated piece by piece over [0, 2m - 1]."""
    q = [float(v) for v in spline_wavelet(m)]
    d = BSpline.basis_element(np.arange(2 * m + 1, dtype=float), extrapolate=False).derivative(m)

    def psi(x):
        y = 2.0 * x - np.arange(len(q))
        vals = np.nan_to_num(d(y))
        return float(np.dot(q, vals))

    total = 0.0
    for i in range(2 * (2 * m - 1)):
        total += integrate.quad(lambda x: float(gaussian(x)) * psi(x), 0.5 * i, 0.5 * (i + 1),
                                epsabs=0.0, epsrel=1e-12, limit=200)[0]
    return abs(total)
