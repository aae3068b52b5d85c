"""Shared numerical kernels: polynomial roots, the real ones isolated in
exact integer arithmetic, and the transforms' scalar/array policy.

Everything in this module is wavelet-agnostic.  The family modules build on
these primitives, and the test suite exercises them directly against
elementary closed forms.  Quadrature lives with its only user, norms.py.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

import numpy as np

__all__ = [
    "scalar_or_array",
    "poly_real_roots",
    "poly_complex_roots",
]


def scalar_or_array(transform):
    """Wrap transform(m, omega, ...), written for float arrays of at least one
    dimension: a 0-d omega then gives a Python float (complex for a complex
    transform), and any other omega an array of its own shape."""

    @functools.wraps(transform)
    def wrapped(m, omega, *args, **kwargs):
        w = np.asarray(omega, dtype=float)
        out = transform(m, np.atleast_1d(w), *args, **kwargs)
        return out if w.ndim else out.item()

    return wrapped


# ---------------------------------------------------------------------------
# polynomial roots, companion-matrix free
# ---------------------------------------------------------------------------


def _as_fraction_coeffs(coeffs) -> list:
    out = []
    for c in coeffs:
        if isinstance(c, Fraction):
            out.append(c)
        elif isinstance(c, int):
            out.append(Fraction(c))
        else:
            out.append(Fraction(float(c)))  # exact binary value of the float
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


def _primitive(p) -> list:
    """p divided by the positive gcd of its integer coefficients."""
    g = math.gcd(*p)
    return [c // g for c in p] if g > 1 else p


def _pseudo_remainder(a, b) -> list:
    """Remainder of |lc(b)|^(deg a - deg b + 1) * a on division by b, in
    integers (Collins' pseudo-remainder with a positive multiplier, so the
    sign pattern a Sturm sequence relies on is kept)."""
    r = list(a)
    lb, db = b[-1], len(b) - 1
    for top in range(len(a) - 1, db - 1, -1):
        q, shift = r[top], top - db
        r = [lb * x for x in r[:top]]  # the leading coefficient cancels
        for j in range(db):
            r[shift + j] -= q * b[j]
    if lb < 0 and (len(a) - db) % 2:
        r = [-x for x in r]
    while len(r) > 1 and r[-1] == 0:
        r.pop()
    return r


def _sturm_sequence(p) -> list:
    """p, p', then the negated pseudo-remainders, each divided by its
    content.  Every entry is a positive multiple of the classical Sturm
    polynomial, and the last one is gcd(p, p') up to a constant."""
    chain = [p, _primitive([i * c for i, c in enumerate(p)][1:])]
    while len(chain[-1]) > 1:
        r = _pseudo_remainder(chain[-2], chain[-1])
        if not any(r):
            break
        chain.append(_primitive([-c for c in r]))
    return chain


def _exact_quotient(a, b) -> list:
    """a / b for integer polynomials, b primitive and dividing a."""
    r = list(a)
    q = [0] * (len(a) - len(b) + 1)
    for i in range(len(q) - 1, -1, -1):
        q[i] = r[i + len(b) - 1] // b[-1]
        for j, c in enumerate(b):
            r[i + j] -= q[i] * c
    return q


def _horner(p, num: int, den: int) -> int:
    """den^deg(p) * p(num / den) by integer Horner; den > 0 keeps the sign."""
    acc, pw = p[-1], 1
    for c in p[-2::-1]:
        pw *= den
        acc = acc * num + c * pw
    return acc


def _variations(chain, num: int, den: int) -> int:
    signs = [v > 0 for v in (_horner(q, num, den) for q in chain) if v]
    return sum(s != t for s, t in zip(signs, signs[1:]))


def poly_real_roots(coeffs) -> list:
    """All real roots of a real polynomial, ascending, to near machine precision.

    The exact rational coefficients are scaled to a primitive integer
    polynomial, reduced to its squarefree part, and the roots are isolated
    with an integer Sturm sequence (so no root is missed and none is
    spurious) evaluated at the points B n / 2^e, B the Cauchy bound.  Each
    root is then bisected on the polynomial alone to relative width 1e-20,
    so the result is the double nearest the root.  Multiple roots are
    reported once.
    """
    p = _as_fraction_coeffs(coeffs)
    if len(p) <= 1:
        raise ValueError("constant polynomial has no well-defined root set")
    scale = math.lcm(*(c.denominator for c in p))
    p = _primitive([int(c * scale) for c in p])
    chain = _sturm_sequence(p)
    if len(chain[-1]) > 1:  # p and p' share a factor: keep the squarefree part
        p = _exact_quotient(p, chain[-1])
        chain = _sturm_sequence(p)
    if len(p) == 2:  # linear
        return [float(Fraction(-p[0], p[1]))]

    # interval (lo, hi, e) is (B lo / 2^e, B hi / 2^e) with B = bn / bd
    bd = abs(p[-1])
    bn = bd + max(abs(c) for c in p[:-1])

    def var(n: int, e: int) -> int:
        return _variations(chain, bn * n, bd << e)

    isolated = []
    stack = [(-1, 1, 0, var(-1, 0), var(1, 0))]
    while stack:
        lo, hi, e, vlo, vhi = stack.pop()
        n = vlo - vhi  # distinct roots in (lo, hi], a root at hi included
        if n == 1:
            isolated.append((lo, hi, e))
        elif n > 1:
            lo, mid, hi, e = 2 * lo, lo + hi, 2 * hi, e + 1
            vmid = var(mid, e)
            stack.append((lo, mid, e, vlo, vmid))
            stack.append((mid, hi, e, vmid, vhi))

    roots = []
    for lo, hi, e in isolated:
        # exact bisection to relative width 1e-20 (the scale B / 2^e
        # cancels), steered by the sign at hi: lo may be a root of the
        # interval to its left.  The midpoint then rounds to the double
        # nearest the root; a Newton step in floating point would only add
        # the rounding of p's values.  0, the first midpoint, is never
        # inside a bracket, so the relative width always shrinks.
        v_hi = _horner(p, bn * hi, bd << e)
        if v_hi == 0:
            lo = hi
        while lo < hi and (hi - lo) * 10**20 >= max(abs(lo), abs(hi)):
            lo, mid, hi, e = 2 * lo, lo + hi, 2 * hi, e + 1
            v = _horner(p, bn * mid, bd << e)
            if v == 0:
                lo = hi = mid
            elif (v > 0) == (v_hi > 0):
                hi = mid
            else:
                lo = mid
        roots.append(float(Fraction(bn * (lo + hi), bd << (e + 1))))
    return sorted(roots)


def poly_complex_roots(coeffs) -> list:
    """All complex roots via Aberth-Ehrlich simultaneous iteration.

    Deterministic start: points spread on the Cauchy-bound circle.  Returned
    sorted by (real, imag).
    """
    c = np.asarray([complex(v) for v in coeffs], dtype=complex)
    while len(c) > 1 and c[-1] == 0:
        c = c[:-1]
    n = len(c) - 1
    if n < 1:
        raise ValueError("constant polynomial has no well-defined root set")
    mon = c / c[-1]
    radius = 1.0 + max(abs(mon[:-1]))
    ang = 2.0 * np.pi * (np.arange(n) + 0.375) / n
    z = radius * np.exp(1j * ang)

    dmon = mon[1:] * np.arange(1, n + 1)

    def horner(cs, x):
        acc = np.zeros_like(x)
        for cc in cs[::-1]:
            acc = acc * x + cc
        return acc

    for _ in range(400):
        pz = horner(mon, z)
        dz = horner(dmon, z)
        w = np.where(dz != 0, pz / np.where(dz == 0, 1, dz), 0.0)
        diff = z[:, None] - z[None, :]
        np.fill_diagonal(diff, np.inf)
        s = np.sum(1.0 / diff, axis=1)
        denom = 1.0 - w * s
        step = np.where(denom != 0, w / np.where(denom == 0, 1, denom), w)
        z = z - step
        if np.max(np.abs(step)) < 1e-15 * (1.0 + np.max(np.abs(z))):
            break
    # final Newton touch-up
    for _ in range(3):
        pz = horner(mon, z)
        dz = horner(dmon, z)
        z = z - np.where(dz != 0, pz / np.where(dz == 0, 1, dz), 0.0)
    return sorted((complex(v) for v in z), key=lambda v: (v.real, v.imag))
