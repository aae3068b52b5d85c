"""Daubechies orthonormal family: squared symbol, extremal-phase masks, and
certified scaling/wavelet Fourier magnitudes.

The squared symbol |a(w)|^2 = cos^{2m}(w/2) P(sin^2(w/2)) is available for
every order in closed form; explicit masks are produced by spectral
factorisation for m <= 20, which is where double precision stops being able
to separate the factor roots reliably.  Fourier magnitudes never need the
mask: they go through the squared symbol directly, with a truncation of the
infinite product that carries an explicit multiplicative error certificate.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import List, Tuple

import numpy as np
from scipy.special import comb as _comb, gammaln as _gammaln

from .numerics import poly_complex_roots, scalar_or_array
from .splines import _log_abs_sinc

__all__ = [
    "MASK_ORDER_LIMIT",
    "daub_symbol_squared",
    "daub_mask",
    "daub_phi_hat_magnitude",
    "daub_psi_hat_magnitude",
    "daub_phi_hat_complex",
    "daub_psi_hat_complex",
    "binomial_tail_constant",
]

MASK_ORDER_LIMIT = 20

# _log_phi_hat takes sin^2 directly at one level in this many, the rest by
# the double-angle identity
_SIN_EVERY = 4
# nodes per block of _log_phi_hat: its four work arrays (512 KB) stay in a
# core's own cache instead of streaming through memory once per level
_PHI_BLOCK = 1 << 14
# elements per (depth x nodes) block of daub_phi_hat_complex: 512 KB of
# complex, in a core's own cache for the same reason
_COMPLEX_CHUNK = 1 << 15


def _check_order(m: int, for_mask: bool = False):
    if not isinstance(m, (int, np.integer)) or m < 1:
        raise ValueError(f"order must be a positive integer, got {m!r}")
    if for_mask and m > MASK_ORDER_LIMIT:
        raise ValueError(
            f"explicit masks are limited to m <= {MASK_ORDER_LIMIT}; "
            "magnitude queries work at any order via the squared symbol"
        )


@lru_cache(maxsize=None)
def _p_coeffs(m: int) -> Tuple[float, ...]:
    # P(y) = sum_{v<m} C(m-1+v, v) y^v
    return tuple(float(_comb(m - 1 + v, v, exact=True)) for v in range(m))


@lru_cache(maxsize=None)
def _p_laurent(m: int) -> Tuple[int, ...]:
    """Integers R_j, j = 1-m..m-1, with P(sin^2(w/2)) = 4^{1-m} sum_j R_j e^{ijw}:
    y = sin^2(w/2) = (2 - z - 1/z)/4 at z = e^{iw}, so 4^{m-1} y^v contributes
    4^{m-1-v} (-1)^j C(2v, v+j) at z^j."""
    out = [0] * (2 * m - 1)
    for v in range(m):
        c = math.comb(m - 1 + v, v) << (2 * (m - 1 - v))
        for j in range(-v, v + 1):
            out[m - 1 + j] += (-c if j % 2 else c) * math.comb(2 * v, v + j)
    return tuple(out)


def _symbol_coefficients(m: int, c: int, high: bool = False) -> np.ndarray:
    """Integer Laurent coefficients, j = -D..D with D = c + m - 1, of
    4^D cos^{2c}(w/2) P(sin^2(w/2)), or with high=True of
    4^D sin^{2c}(w/2) P(cos^2(w/2)), as an object array.

    4 cos^2(w/2) = z^{-1} (1 + z)^2, so the first is the binomial row
    C(2c, c + j) convolved with _p_laurent(m); w -> w + pi swaps sine and
    cosine and multiplies the coefficient of z^j by (-1)^j."""
    row = np.array([math.comb(2 * c, i) for i in range(2 * c + 1)], dtype=object)
    out = np.convolve(row, np.array(_p_laurent(m), dtype=object))
    if high:
        out[1 - (c + m - 1) % 2 :: 2] *= -1
    return out


def binomial_tail_constant(m: int) -> float:
    """c_m = Gamma(m + 1/2) / (sqrt(pi) Gamma(m)): the normaliser in the
    integral form of the squared symbol, and the sharp constant in the
    small-angle bound 1 - |a(t)|^2 <= (c_m / 2m) t^{2m}."""
    _check_order(m)
    return math.exp(_gammaln(m + 0.5) - _gammaln(m)) / math.sqrt(math.pi)


def _log_symbol_squared(m: int, w: np.ndarray) -> np.ndarray:
    """ln(cos^{2m}(w/2) P(sin^2(w/2))) with -inf at the zeros."""
    y = np.sin(w / 2.0) ** 2
    P = np.zeros_like(y)
    for c in reversed(_p_coeffs(m)):
        P = P * y + c
    c2 = np.cos(w / 2.0) ** 2
    with np.errstate(divide="ignore"):
        return m * np.log(c2) + np.log(P)


@scalar_or_array
def daub_symbol_squared(m: int, omega):
    """Squared symbol |a(w)|^2 = cos^{2m}(w/2) P(sin^2(w/2)) of the order-m mask."""
    _check_order(m)
    return np.exp(_log_symbol_squared(m, omega))


@lru_cache(maxsize=None)
def daub_mask(m: int) -> Tuple[float, ...]:
    """Extremal-phase mask coefficients h_0..h_{2m-1}, normalised to sum 1.

    Spectral factorisation: the roots of P are lifted to z-plane pairs
    (z, 1/z) through y = (2 - z - 1/z)/4; the factor built from the in-disc
    roots is combined with ((1+z)/2)^m and the list is oriented so the
    energy leads (the classical tabulated convention).
    """
    _check_order(int(m), for_mask=True)
    m = int(m)
    if m == 1:
        return (0.5, 0.5)
    proots = poly_complex_roots(_p_coeffs(m))
    # z^2 - (2 - 4y) z + 1 = 0; keep |z| <= 1
    zs = []
    for y in proots:
        b = 2.0 - 4.0 * y
        disc = np.sqrt(complex(b * b - 4.0))
        z1, z2 = (b + disc) / 2.0, (b - disc) / 2.0
        zs.append(z1 if abs(z1) <= abs(z2) else z2)
    # multiply factors pairing conjugates first (real quadratics condition best)
    used = [False] * len(zs)
    factors = []
    for i, z in enumerate(zs):
        if used[i]:
            continue
        used[i] = True
        if abs(z.imag) < 1e-12:
            factors.append(np.array([-z.real, 1.0]))
            continue
        j = min(
            (jj for jj in range(len(zs)) if not used[jj]),
            key=lambda jj: abs(zs[jj] - z.conjugate()),
            default=None,
        )
        if j is None:
            factors.append(np.array([-z, 1.0], dtype=complex))
            continue
        used[j] = True
        zc = zs[j]
        factors.append(np.array([(z * zc).real, -(z + zc).real, 1.0]))
    b = np.array([1.0])
    for f in sorted(factors, key=len):
        b = np.convolve(b, f)
    b = np.real_if_close(b, tol=1e6)
    if np.iscomplexobj(b):
        b = b.real
    b = b / np.sum(b)  # B(1) = 1 so that a(0) = 1
    lowpass = np.array([0.5, 0.5])
    h = np.array([1.0])
    for _ in range(m):
        h = np.convolve(h, lowpass)
    h = np.convolve(h, b)
    h = h[::-1]  # orient energy-first (tabulated extremal-phase order)
    return tuple(float(v) for v in h)


def _mask_transform(m: int, w: np.ndarray) -> np.ndarray:
    """a(w) = sum_n h_n e^{-inw}, by Horner in z = e^{-iw}: one complex
    exponential per node instead of one per coefficient."""
    h = daub_mask(m)
    z = np.exp(-1j * np.asarray(w, dtype=float))
    out = np.full_like(z, h[-1])
    for hn in h[-2::-1]:
        out *= z
        out += hn
    return out


# ---------------------------------------------------------------------------
# certified magnitudes
# ---------------------------------------------------------------------------


def _product_depth(m: int, wmax: float, tol: float) -> int:
    """Smallest truncation depth whose dropped factors multiply into 1 +/- tol/2."""
    cm = binomial_tail_constant(m)
    L = max(1, int(math.ceil(math.log2(max(wmax, 1e-30)))) + 1)
    while L < 120:
        theta = wmax / 2.0 ** (L + 1)
        if theta <= 0.5:
            rest = (cm / (2 * m)) * theta ** (2 * m) / (1.0 - 4.0 ** (-m))
            if 2.0 * rest <= 0.5 * tol:  # |prod - 1| <= 2 * sum of deficits
                return L
        L += 1
    raise RuntimeError("could not certify the infinite-product truncation")


def _log_phi_hat(m: int, w: np.ndarray, tol: float) -> np.ndarray:
    """ln|phi^(w)| + ln sqrt(2 pi), certified within a (1 +/- tol) factor.

    Equals 0.5 * sum_{l=1..L} ln|a(w/2^l)|^2 with |a(2x)|^2 =
    cos^{2m}(x) P(sin^2 x).  The cosine factors of all L levels
    telescope, prod_{l=1..L} cos(w/2^{l+1}) = sinc(w/2) / sinc(w/2^{L+1}),
    so a level only needs y = sin^2(w/2^{l+1}) and the Horner polynomial
    P(y) >= 1.  Levels run from the deepest up; y is evaluated directly
    every _SIN_EVERY levels and carried between by the double-angle
    identity sin^2(2x) = 4 y (1 - y); its rounding error in y grows at
    most 4-fold per step and enters ln P times P'/P < 2m.  The P
    factors are multiplied into a running product whose log is taken
    every few levels, before it can overflow.  Nodes go through in blocks
    of _PHI_BLOCK, all at the depth L set by the largest node.
    """
    wmax = float(np.max(np.abs(w))) if w.size else 1.0
    L = _product_depth(m, max(wmax, 1.0), tol)
    pc = _p_coeffs(m)
    # P <= P(1) on [0, 1]: keep every partial product below e^700
    log_p1 = math.log(sum(pc))
    flush = max(1, min(8, int(700.0 / log_p1))) if log_p1 > 0.0 else 8
    flat = w.ravel()
    out = m * (_log_abs_sinc(0.5 * flat) - _log_abs_sinc(flat * 2.0 ** -(L + 1)))
    y, t, P, prod = (np.empty(min(flat.size, _PHI_BLOCK)) for _ in range(4))
    for i in range(0, flat.size, _PHI_BLOCK):
        wb = flat[i : i + _PHI_BLOCK]
        k = wb.size
        ob, yb, tb, Pb, pb = out[i : i + k], y[:k], t[:k], P[:k], prod[:k]
        pb.fill(1.0)
        for n, l in enumerate(range(L, 0, -1), start=1):
            if (L - l) % _SIN_EVERY == 0:
                np.multiply(wb, 2.0 ** -(l + 1), out=yb)
                np.sin(yb, out=yb)
                np.square(yb, out=yb)
            else:
                np.subtract(1.0, yb, out=tb)
                yb *= tb
                yb *= 4.0
            Pb.fill(pc[-1])
            for c in pc[-2::-1]:
                Pb *= yb
                Pb += c
            pb *= Pb
            if n % flush == 0 or l == 1:
                np.log(pb, out=pb)
                pb *= 0.5
                ob += pb
                pb.fill(1.0)
    return out.reshape(w.shape)


@scalar_or_array
def daub_phi_hat_magnitude(m: int, omega, tol: float = 1e-12):
    """|FT of the order-m scaling function|, certified within (1 +/- tol).

    The infinite product over octaves is truncated once the dropped factors
    are provably within tol/2 of 1 (small-angle bound on 1 - |a|^2).
    """
    _check_order(m)
    if tol <= 0:
        raise ValueError("tol must be positive")
    return np.exp(_log_phi_hat(m, omega, tol)) / math.sqrt(2.0 * math.pi)


def _log_psi_regular(m: int, u: np.ndarray, tol: float) -> np.ndarray:
    """r(u) in |FT of the order-m wavelet| = (2 pi)^{-1/2} |u|^m e^{r(u)},
    certified like _log_phi_hat.

    |a(u/2 + pi)|^2 = sin^{2m}(u/4) P(cos^2(u/4)), and the zero of order m
    is taken out exactly as (u/4)^m sinc^m(u/4), so
    r = ln P(cos^2(u/4)) / 2 + m ln|sinc(u/4)| - m ln 4 + _log_phi_hat(u/2),
    finite at u = 0 and at most ln P(1) / 2 - m ln 4."""
    pc = _p_coeffs(m)
    y = np.square(np.cos(0.25 * u))
    acc = np.full_like(y, pc[-1])
    for c in pc[-2::-1]:
        acc *= y
        acc += c
    return (0.5 * np.log(acc) + m * _log_abs_sinc(0.25 * u) - m * math.log(4.0)
            + _log_phi_hat(m, 0.5 * u, tol))


@scalar_or_array
def daub_psi_hat_magnitude(m: int, omega, tol: float = 1e-12):
    """|FT of the order-m wavelet| = |a(w/2 + pi)| * |FT of scaling fn at w/2|,
    certified within (1 +/- tol) down to w = 0."""
    _check_order(m)
    with np.errstate(divide="ignore"):
        logw = np.log(np.abs(omega))
    return np.exp(m * logw + _log_psi_regular(m, omega, tol)) / math.sqrt(2.0 * math.pi)


@scalar_or_array
def daub_phi_hat_complex(m: int, omega, depth: int = 48):
    """Complex FT of the scaling function via the mask product (m <= 20).

    All `depth` levels of a chunk of nodes go through one (depth x chunk)
    mask evaluation, with chunks of about _COMPLEX_CHUNK elements."""
    _check_order(m, for_mask=True)
    scales = 2.0 ** -np.arange(1, depth + 1, dtype=float)[:, None]
    flat = omega.ravel()
    out = np.empty(flat.shape, dtype=complex)
    step = max(1, _COMPLEX_CHUNK // max(depth, 1))
    for i in range(0, flat.size, step):
        out[i : i + step] = np.prod(_mask_transform(m, scales * flat[i : i + step]), axis=0)
    return out.reshape(omega.shape) / math.sqrt(2.0 * math.pi)


@scalar_or_array
def daub_psi_hat_complex(m: int, omega, depth: int = 48):
    """Complex FT of the wavelet, one fixed phase convention (m <= 20)."""
    _check_order(m, for_mask=True)
    return (
        np.exp(-1j * omega / 2.0)
        * np.conj(_mask_transform(m, omega / 2.0 + np.pi))
        * daub_phi_hat_complex(m, omega / 2.0, depth=depth)
    )
