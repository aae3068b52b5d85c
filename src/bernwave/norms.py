"""Certified weighted Fourier-side L_p norms and everything built on them:
coefficient constants (ratios of weighted to unweighted norms), the
derivative-inequality verifier for spline expansions, Fejer-kernel
near-extremal ratios, asymptotic sweeps with Richardson extrapolation,
and a directly checkable wavelet-coefficient bound.

Every transform a norm weighs -- phi and psi of either family -- has
one modulus model, |fhat(w)| = (2 pi)^{-1/2} |w|^z e^{r(w)}: z = m for a
wavelet (its vanishing moments), z = 0 for a scaling function, and the
regular part r, finite at 0 and bounded above by r_max, comes from the
family module that also builds the public magnitude.  So one integrand,
exp(p (r(w) - ln(2 pi)/2 + (z + alpha) ln w)), serves all four cases, its
small-w bound is exp(p (r_max - ln(2 pi)/2)) w^{(z + alpha) p}, and the
query is admissible at 0 exactly when (z + alpha) p > -1.

One quadrature engine serves every integral here: composite
Gauss-Legendre panels (GL15 value, GL7 check) that split where the two
disagree.  For a norm off the exact p = 2 route (below) it integrates
w^{alpha*p} |fhat(w)|^p over (0, Omega) on panels aligned to multiples of
pi (all kinks of |sin|^q live there) with a dyadic stack toward w = 0, and
a rigorous bound on the tail beyond Omega is added.  The coefficient
bound's real-line integrals run on the same engine in a doubling window,
with an absolute floor for the signed ones.  Spline transforms have
elementary envelopes, so their tails are closed-form.  For the orthonormal
family, |phihat(w)|^2 equals (2 pi)^{-1} sinc(w/2)^{2m} * prod_{j>=1} B(w/2^j)
with B >= 1 a fixed trigonometric polynomial, and the tail is one walk over
the octaves [pi 2^n, pi 2^{n+1}) from the cutoff (_daub_tail_bound): each
octave's mass is bounded by the exact octave mean of the partial product
(p = 2, from the transfer matrix) or else by its certified supremum (grid
plus Bernstein inflation), and a geometric remainder closes the sum.

At p = 2 with an integer alpha no quadrature runs: weighted_lp_norm takes
an exact route, chosen from the query alone.  A spline's weighted transform
is the transform of another spline, so its squared norm is a Gram sum of
integer B-spline values, summed in Python integers and rounded once.  For
the orthonormal family it is a finite combination of the samples at
integers of an autocorrelation Phi_c whose squared symbol
cos^{2c}(w/2) P(sin^2(w/2)) has rational coefficients: an eigenvector of the
refinement matrix, solved in float64 and certified a posteriori (a
verified bound on the inverse, an exact integer residual, refinement
steps until the bound is negligible).  A positive weight is first proved
finite from powers of the transfer matrix of the symbol product.  Such a
result has panels = 0, tail_bound = 0.0 and cutoff = pi, and a
certified_rel_error of a few units in the last place.

The Bernstein side (spline expansions, Fejer profiles) needs no engine: its
norms are 2^14-point trapezoid sums of |chat|^p against a periodized weight,
all even about theta = pi, so each runs on the half grid theta in [0, pi]
against one cached kernel of trapezoid weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.special import zeta as _zeta

from . import daubechies as _daub
from . import splines as _spl
from .constants import (
    predict_limit,
    predict_norm_leading,
    predict_rate,
    spline_bernstein_constant,
)

__all__ = [
    "WeightedNormQuery",
    "NormResult",
    "CkpResult",
    "BernsteinCheckResult",
    "CoefficientBoundResult",
    "AsymptoticReport",
    "weighted_lp_norm",
    "ckp",
    "verify_bernstein_spline",
    "bernstein_violation_scan",
    "fejer_extremal_ratio",
    "vanishing_moment_order",
    "coefficient_bound_check",
    "asymptotic_sweep",
    "richardson_extrapolate",
]

SPLINE_ORDER_LIMIT = 40
_LN_2PI = math.log(2.0 * math.pi)

# Gauss-Legendre nodes for the composite rule (GL15 value, GL7 check).
_X15, _W15 = np.polynomial.legendre.leggauss(15)
_X7, _W7 = np.polynomial.legendre.leggauss(7)

_EVAL_CHUNK = 1 << 22
# integrand evaluations one norm may spend; 22 per panel (GL15 + GL7)
_NODE_BUDGET = 80_000_000
_BUDGET_MESSAGE = "quadrature node budget exceeded; request a looser tolerance"
# panel-splitting rounds of one integral before it must have converged
_MAX_ROUNDS = 24
# depth of the dyadic stack toward w = 0: eps = (pi/4) 2^-D must stay a normal
# float, or from D = 1075 on it rounds to 0 and puts a node at w = 0
_MAX_DEPTH = 1000


# ---------------------------------------------------------------------------
# queries and results
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WeightedNormQuery:
    """An admissible norm || |w|^alpha fhat ||_p; every check lives here."""

    family: str          # "spline" | "daubechies"
    part: str            # "phi" | "psi"
    m: int
    alpha: float         # weight exponent: || |w|^alpha fhat ||_p
    p: float
    tol: float = 1e-8

    @property
    def zero_order(self) -> int:
        """z: the order of the zero of |fhat| at w = 0."""
        return self.m if self.part == "psi" else 0

    def __post_init__(self):
        if self.family not in ("spline", "daubechies"):
            raise ValueError(f"unknown family {self.family!r}")
        if self.part not in ("phi", "psi"):
            raise ValueError(f"unknown part {self.part!r}")
        if not (isinstance(self.m, (int, np.integer)) and self.m >= 1):
            raise ValueError("m must be a positive integer")
        if not (math.isfinite(self.p) and self.p > 1.0):
            raise ValueError("p must be finite and exceed 1")
        if not (math.isfinite(self.tol) and self.tol > 0.0):
            raise ValueError("tol must be finite and positive")
        limit = SPLINE_ORDER_LIMIT if self.family == "spline" else _daub.MASK_ORDER_LIMIT
        if self.m > limit:
            raise ValueError(f"order m={self.m} beyond supported limit {limit} for {self.family}")
        z = self.zero_order
        if not (z + self.alpha) * self.p > -1.0:
            raise ValueError(
                f"the weight |w|^{self.alpha:g} exceeds what the order-{z} zero of fhat at 0 "
                f"absorbs: need ({z} + alpha) * p > -1"
            )
        if self.family == "spline" and not (self.m - self.alpha) * self.p > 1.0:
            raise ValueError("need (m - alpha) * p > 1 for a convergent spline norm")


@dataclass(frozen=True)
class NormResult:
    """A certified norm: |value / exact - 1| <= certified_rel_error.

    From the quadrature route, cutoff is the upper end of the window, panels
    the number of Gauss-Legendre panels on it and tail_bound the rigorous
    bound on the p-th power beyond it.  From the exact route (p = 2, integer
    alpha) there is no window: panels = 0 and tail_bound = 0.0, and cutoff
    is pi, finite and positive so that log2(cutoff / pi) = 0 reads as "no
    cutoff search"."""

    query: WeightedNormQuery
    value: float
    certified_rel_error: float
    cutoff: float        # upper end of the quadrature window; pi on the exact route
    tail_bound: float    # rigorous bound on the discarded tail of the p-th power
    panels: int          # quadrature panels; 0 on the exact route


@dataclass(frozen=True)
class CkpResult:
    family: str
    part: str
    m: int
    k: int
    p: float
    numerator: float
    denominator: float
    ratio: float
    certified_rel_error: float


@dataclass(frozen=True)
class BernsteinCheckResult:
    m: int
    k: int
    h: int
    p: float
    lhs: float
    rhs: float
    ratio: float   # lhs / rhs
    ok: bool


@dataclass(frozen=True)
class CoefficientBoundResult:
    family: str
    m: int
    j: int
    nu: int
    k: int
    p: float
    inner_product_abs: float
    stated_bound: float
    holder_bound: float
    coefficient_constant: float
    ok: bool


@dataclass(frozen=True)
class AsymptoticReport:
    target: str
    m_grid: tuple
    measured: tuple
    predicted: tuple
    rel_error: tuple
    fitted_decay_exponent: float
    richardson: float


# ---------------------------------------------------------------------------
# integrand construction
# ---------------------------------------------------------------------------


def _make_integrand(q: WeightedNormQuery, mag_tol: float):
    """Return (vectorized integrand of the p-th power, small-w exponent g,
    coefficient C with integrand <= C * w^g near 0), from the modulus
    model (2 pi)^{-1/2} w^z e^{r(w)} with r <= r_max."""
    m, p = q.m, q.p
    if q.family == "spline" and q.part == "phi":
        r, r_max = (lambda w: m * _spl._log_abs_sinc(0.5 * w)), 0.0
    elif q.family == "spline":
        r, r_max = (lambda w: _spl._log_wavelet_regular(m, w)), -m * math.log(4.0)
    elif q.part == "phi":
        r, r_max = (lambda w: _daub._log_phi_hat(m, w, mag_tol)), 0.0
    else:
        r = lambda w: _daub._log_psi_regular(m, w, mag_tol)
        r_max = 0.5 * math.log(sum(_daub._p_coeffs(m))) - m * math.log(4.0)
    g = q.zero_order + q.alpha
    lc = -0.5 * _LN_2PI

    def f(w):
        e = r(w)
        if g != 0.0:
            e += g * np.log(w)
        e += lc
        e *= p
        return np.exp(e, out=e)

    return f, g * p, math.exp(p * (r_max + lc))


# ---------------------------------------------------------------------------
# composite Gauss-Legendre with panel-splitting refinement
# ---------------------------------------------------------------------------


def _chunked(f, x):
    if x.size <= _EVAL_CHUNK:
        return f(x)
    out = np.empty_like(x)
    for i in range(0, x.size, _EVAL_CHUNK):
        out[i : i + _EVAL_CHUNK] = f(x[i : i + _EVAL_CHUNK])
    return out


def _gl_on_panels(f, lo, hi):
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    x15 = (mid[:, None] + half[:, None] * _X15[None, :]).ravel()
    v15 = _chunked(f, x15).reshape(-1, 15)
    i15 = (v15 @ _W15) * half
    x7 = (mid[:, None] + half[:, None] * _X7[None, :]).ravel()
    v7 = _chunked(f, x7).reshape(-1, 7)
    i7 = (v7 @ _W7) * half
    return i15, np.abs(i15 - i7)


def _composite_integrate(f, edges, rel_tol, node_budget=_NODE_BUDGET, abs_floor=0.0):
    """Integrate f (vectorized, real) over the panels defined by `edges`,
    splitting the panels whose GL15-vs-GL7 discrepancy dominates until the
    summed discrepancy is below rel_tol * |integral| + abs_floor.  The norms
    integrate nonnegative functions with abs_floor = 0; a signed integral
    that may vanish needs the floor.

    Returns (integral, error_estimate, n_panels)."""
    lo = np.asarray(edges[:-1], dtype=float)
    hi = np.asarray(edges[1:], dtype=float)
    used = 22 * lo.size
    if used > node_budget:  # refuse before the first evaluation
        raise RuntimeError(_BUDGET_MESSAGE)
    vals, errs = _gl_on_panels(f, lo, hi)
    for _ in range(_MAX_ROUNDS):
        total = float(vals.sum())
        err = float(errs.sum())
        target = rel_tol * abs(total) + abs_floor
        if err <= target:
            return total, err, lo.size
        mask = errs > target / lo.size
        if not mask.any():
            order = np.argsort(errs)[-max(1, lo.size // 4):]
            mask = np.zeros(lo.size, dtype=bool)
            mask[order] = True
        nl, nh = lo[mask], hi[mask]
        mid = 0.5 * (nl + nh)
        slo = np.concatenate([nl, mid])
        shi = np.concatenate([mid, nh])
        used += 22 * slo.size
        if used > node_budget:
            raise RuntimeError(_BUDGET_MESSAGE)
        svals, serrs = _gl_on_panels(f, slo, shi)
        lo = np.concatenate([lo[~mask], slo])
        hi = np.concatenate([hi[~mask], shi])
        vals = np.concatenate([vals[~mask], svals])
        errs = np.concatenate([errs[~mask], serrs])
    total = float(vals.sum())
    err = float(errs.sum())
    if err > 4.0 * (rel_tol * abs(total) + abs_floor):
        raise RuntimeError("panel refinement failed to converge")
    return total, err, lo.size


def _build_edges(omega, small_expo, small_coeff, abs_target):
    """Panel edges on (eps, omega]: pi/4-wide panels aligned so every
    multiple of pi is an edge, plus a dyadic stack shrinking toward 0.
    Returns (edges, head_bound) where head_bound >= integral over (0, eps)."""
    w0 = 0.25 * math.pi
    n = int(round(omega / w0))
    if 22 * n > _NODE_BUDGET:  # do not even allocate the edges
        raise RuntimeError(_BUDGET_MESSAGE)
    body = w0 * np.arange(1, n + 1)
    g1 = small_expo + 1.0
    # pick eps = w0 * 2^-D with remaining mass below abs_target, D <= _MAX_DEPTH
    head_bound = lambda eps: small_coeff * eps ** g1 / g1
    depth = 1
    while depth < _MAX_DEPTH and head_bound(w0 * 2.0 ** (-depth)) > abs_target:
        depth += 1
    head = w0 * 2.0 ** (-np.arange(depth, 0, -1, dtype=float))
    return np.concatenate([head, body]), head_bound(w0 * 2.0 ** (-depth))


# ---------------------------------------------------------------------------
# tail certificates
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _spline_tail_mean(part: str, m: int, p: float) -> float:
    """Mean over one period of the oscillatory factor of |fhat(u)|^p u^{mp}.

    For the B-spline that factor is |sin(u/2)|^{mp} (exact Wallis mean);
    for the wavelet it is sin(u/4)^{2mp} A_m(u/2 + pi)^p, averaged by a
    trapezoid rule over its 4 pi period (the integrand is at least C^2,
    so 2^17 points leave an error far below what the tail can resolve).
    """
    q = m * p
    if part == "phi":
        return math.exp(math.lgamma(0.5 * (q + 1.0)) - math.lgamma(0.5 * q + 1.0)) / math.sqrt(math.pi)
    u = 4.0 * math.pi * np.arange(1 << 17) / (1 << 17)
    vals = np.abs(np.sin(0.25 * u)) ** (2.0 * q) * _spl.autocorrelation_symbol(m, 0.5 * u + math.pi) ** p
    return float(vals.mean())


def _spline_tail(part, m, alpha, p, omega):
    """(estimate, uncertainty) for int_Omega^inf w^{alpha p}|fhat(w)|^p dw.

    The integrand is exactly C w^{-s} P(w) with P periodic (period 2 pi
    for the spline, 4 pi for the wavelet), 0 <= P <= 1 and
    s = (m - alpha) p > 1.  The mean of P gives
    the estimate C Pbar Omega^{1-s}/(s-1); the oscillatory remainder is
    bounded by Abel summation (integrals of P - Pbar over whole periods
    vanish) by 2 T C Omega^{-s} -- one power of Omega smaller, which is
    what keeps slowly decaying cases inside the cutoff budget."""
    s = (m - alpha) * p
    num = 2.0 if part == "phi" else 4.0
    c = math.exp(-0.5 * p * _LN_2PI) * num ** (m * p)
    period = 2.0 * math.pi if part == "phi" else 4.0 * math.pi
    est = c * _spline_tail_mean(part, m, p) * omega ** (1.0 - s) / (s - 1.0)
    unc = 2.0 * period * c * omega ** (-s)
    return est, unc


# the orthonormal tail: octaves per block of the sup-product table, log2 of its
# grid, and the octaves n < _MEAN_OCTAVES whose exact mean _daub_mean_table holds
_TAIL_BLOCK, _TAIL_GRID_POW, _MEAN_OCTAVES = 12, 22, 70


@dataclass(frozen=True)
class _DaubTailCertificate:
    log2_t: tuple         # log2 of certified sup of prod_{i<r} B(2^i nu), r=0.._TAIL_BLOCK
    bmax: float           # sup B = P(1)
    log_e: float          # log of the small-argument product bound E_m
    sigma: float          # certified decay: |phihat(w)|^2 <= C * w^-sigma


@lru_cache(maxsize=None)
def _daub_tail_certificate(m: int) -> _DaubTailCertificate:
    pc = np.asarray(_daub._p_coeffs(m))
    n = 1 << _TAIL_GRID_POW
    delta = 2.0 * math.pi / n
    nu = delta * np.arange(n)
    y = np.square(np.sin(0.5 * nu))
    b = np.full(n, pc[-1])
    for c in pc[-2::-1]:
        b = b * y + c
    del y
    idx = np.arange(n, dtype=np.int64)
    cum = b.copy()
    log2_t = [0.0]
    for r in range(1, _TAIL_BLOCK + 1):
        if r > 1:
            cum = cum * b[(idx * (1 << (r - 1))) & (n - 1)]
        deg = (m - 1) * ((1 << r) - 1)
        inflate = 1.0 - 0.5 * deg * delta
        if inflate <= 0.5:
            raise RuntimeError("certificate grid too coarse for this block size")
        log2_t.append(math.log2(float(cum.max()) / inflate))
    bmax = float(np.polyval(pc[::-1], 1.0))
    # E_m = prod_{i>=1} B(pi / 2^i); terms reach 1 quadratically fast
    log_e = 0.0
    for i in range(1, 61):
        yi = math.sin(math.pi / 2 ** (i + 1)) ** 2
        log_e += math.log(float(np.polyval(pc[::-1], yi)))
    log_e += (bmax - 1.0) * (math.pi ** 2 / 4.0) * 4.0 ** (-61) * (4.0 / 3.0)
    sigma = 2.0 * m - log2_t[_TAIL_BLOCK] / _TAIL_BLOCK
    return _DaubTailCertificate(tuple(log2_t), bmax, log_e, sigma)


def _folded_decimation(h: np.ndarray, size: int) -> np.ndarray:
    """The map f -> ((h f)(w/2) + (h f)(w/2 + pi)) / 2 on even trigonometric
    polynomials, for the centered coefficient array h of an even one: the
    output's coefficient of e^{ilw} is sum_j h_{2l-j} f_j.  Folded onto the
    coefficients f_0..f_{size-1} of an even f (f_{-j} = f_j) its matrix has
    entries h_{2l} (j = 0) and h_{2l-j} + h_{2l+j} (j >= 1); h keeps its
    dtype, so integer coefficients give an exact integer matrix."""
    half = (len(h) - 1) // 2
    padded = np.concatenate([h, np.zeros(3 * size, dtype=h.dtype)])
    row = 2 * np.arange(size)[:, None] + half
    col = np.arange(size)[None, :]
    out = padded[row - col] + padded[row + col]
    out[:, 0] = padded[row[:, 0]]
    return out


@lru_cache(maxsize=None)
def _daub_transfer(m: int) -> np.ndarray:
    """Folded matrix of the transfer map (Tf)(w) = ((B f)(w/2) + (B f)(w/2 + pi))/2
    with B(w) = P(sin^2(w/2)), on cosine polynomials of degree < m (an
    invariant space).  mean(prod_{i<n} B(2^i theta)) = mean(T^n 1) exactly, so
    the octave means of the symbol product are the (0, 0) entries of T^n.
    Entries are integers over 4^{m-1}, each rounded once."""
    h = np.array(_daub._p_laurent(m), dtype=object)
    return np.ldexp(_folded_decimation(h, m).astype(float), -2 * (m - 1))


@lru_cache(maxsize=None)
def _daub_mean_table(m: int):
    """log of Q_n = mean over [0, 2 pi) of prod_{i<n} B(2^i theta),
    n <= _MEAN_OCTAVES, from powers of the m-dimensional transfer map
    _daub_transfer(m) applied to the constant 1.  Means decay a full Sobolev
    order faster than the sup table, which is what makes slowly decaying
    weighted L_2 tails computable."""
    t = _daub_transfer(m)
    c = np.zeros(m)
    c[0] = 1.0  # folded coefficients of T^n 1, renormalised to mean 1
    log_q = [0.0]
    acc = 0.0
    for _ in range(_MEAN_OCTAVES):
        c = t @ c
        mid = c[0]
        if not mid > 0.0:
            raise RuntimeError("octave-mean recursion lost positivity")
        c = c / mid
        acc += math.log(mid)
        log_q.append(acc)
    return tuple(log_q)


def _daub_tail_bound(part, m, alpha, p, omega):
    """Certified bound on int_Omega^inf w^{alpha p}|fhat(w)|^p dw for the
    orthonormal family: one walk over the octaves [pi 2^n, pi 2^{n+1}) from
    the cutoff.  The wavelet case reduces to the scaling case through
    |psihat(w)| <= |phihat(w/2)|.

    With w = 2^n theta, prod_{j>=1} B(w/2^j) splits exactly into
    Pi_n(theta) = prod_{i<n} B(2^i theta) times prod_{l>=1} B(theta/2^l) <=
    B(pi) E_m (B increases on [0, pi]).  An octave's mass is bounded
      - at p = 2 while n < _MEAN_OCTAVES, through the exact mean Q_n of Pi_n
        and sin^{2m} <= 1: 2^{2m} w_lo^{2(alpha-m)} 2^n Q_n B_max E_m (2 pi,
        the mean's period, cancels the (2 pi)^{-1} of |phihat|^2);
      - else through the certified sup of Pi_{n+1} (split at w/2^{n+1} <= pi,
        so the rest is at most E_m) from the block table, against the exact
        integral of w^{(alpha-m) p} over the octave.
    Three blocks of sup octaves follow; each later block is at most rho
    times the one before, so the last one times rho / (1 - rho) bounds the
    rest."""
    if part == "psi":
        # |psihat(u)| <= |phihat(u/2)|; substitute u = 2v in the tail integral
        return 2.0 ** (alpha * p + 1.0) * _daub_tail_bound("phi", m, alpha, p, omega / 2.0)
    cert = _daub_tail_certificate(m)
    r_blk, log2_t = _TAIL_BLOCK, cert.log2_t
    # gate: the geometric ratio of the sup blocks must be < 1, or even the far
    # remainder cannot be summed (for p = 2 that also rejects weights at
    # or beyond the true decay, e.g. m = 2 with alpha = 1)
    log2_rho = r_blk * (alpha * p - m * p + 1.0) + 0.5 * p * log2_t[r_blk]
    if log2_rho > -0.01:
        raise ValueError(
            f"cannot certify tail decay for family=daubechies part={part} m={m} "
            f"alpha={alpha} p={p}: certified decay exponent {cert.sigma:.3f} is "
            f"too small for this weight"
        )
    rho = 2.0 ** log2_rho
    log_q = _daub_mean_table(m) if p == 2.0 else ()
    beta = (alpha - m) * p
    ln2 = math.log(2.0)
    l0 = math.floor(math.log2(omega / math.pi) + 1e-12)
    n_mean = max(0, len(log_q) - 1 - l0)
    # three sums: the last sup block's mass also feeds the remainder, and the
    # mean octaves' sum is added last, to the sup octaves' and the remainder
    mean_mass = sup_mass = last_block = 0.0
    for jj in range(n_mean + 3 * r_blk):
        lj = l0 + jj
        w_lo = max(omega, math.pi * 2.0 ** lj) if jj == 0 else math.pi * 2.0 ** lj
        if jj < n_mean:
            lp = (2.0 * m + lj) * ln2 + beta * math.log(w_lo) + log_q[lj] \
                + math.log(cert.bmax) + cert.log_e
            mean_mass += math.exp(lp) if lp < 700.0 else math.inf
            continue
        w_hi = math.pi * 2.0 ** (lj + 1)
        nn = lj + 1
        log_pb = (nn // r_blk) * log2_t[r_blk] * ln2 + log2_t[nn % r_blk] * ln2 + cert.log_e
        if beta + 1.0 > 0.0:
            log_int = math.log((w_hi ** (beta + 1.0) - w_lo ** (beta + 1.0)) / (beta + 1.0))
        elif beta + 1.0 < 0.0:
            log_int = (beta + 1.0) * math.log(w_lo) + math.log(
                -math.expm1((beta + 1.0) * math.log(w_hi / w_lo))
            ) - math.log(-(beta + 1.0))
        else:
            log_int = math.log(math.log(w_hi / w_lo))
        lp = -0.5 * p * _LN_2PI + m * p * ln2 + 0.5 * p * log_pb + log_int
        piece = math.exp(lp) if lp < 700.0 else math.inf
        sup_mass += piece
        if jj >= n_mean + 2 * r_blk:
            last_block += piece
    return mean_mass + (sup_mass + last_block * rho / (1.0 - rho))


def _tail(q: WeightedNormQuery, omega):
    """(estimate, uncertainty) of the integral beyond the cutoff.  The
    estimate is added to the computed integral; only the uncertainty
    enters the error budget.  The orthonormal certificate is a pure
    upper bound, so there the estimate is zero."""
    if q.family == "spline":
        return _spline_tail(q.part, q.m, q.alpha, q.p, omega)
    return 0.0, _daub_tail_bound(q.part, q.m, q.alpha, q.p, omega)


# ---------------------------------------------------------------------------
# exact p = 2 norms for integer weights
# ---------------------------------------------------------------------------

_U = 2.0 ** -53  # unit roundoff of float64
# refinement steps of the Daubechies solve, each against an exact residual
_REFINE_STEPS = 3
# squarings of the scaled transfer matrix before finiteness is given up
_FINITE_SQUARINGS = 16


def _dyadic(num: int, e: int) -> float:
    """num * 2^e, correctly rounded."""
    return float(num << e) if e >= 0 else num / (1 << -e)


def _inf_norm(x: np.ndarray) -> float:
    return float(np.max(np.sum(np.abs(x), axis=-1)))


@lru_cache(maxsize=None)
def _spline_wavelet_autocorrelation(m: int) -> np.ndarray:
    """sum_v e_v e_{v+d}, d = 0..2m-2, of the integers
    e_v = (-1)^v (2m-1)! N_{2m}(v+1) = 2^{m-1} (2m-1)! q_v."""
    e = np.array(_spl._eulerian_row(2 * m), dtype=object)
    e[1::2] *= -1
    return np.convolve(e, e[::-1])[2 * m - 2 :]


def _spline_l2_squared(part: str, m: int, alpha: int) -> float:
    """|| |w|^alpha fhat ||_2^2 for the order-m B-spline or spline wavelet,
    computed in integers and rounded once.

    |w|^alpha |fhat| is the transform modulus of a spline of order
    n = m - alpha: the alpha-th derivative (an antiderivative for alpha < 0)
    N_m^{(alpha)} = sum_i (-1)^i C(alpha, i) N_n(x - i), or for the wavelet
    psi = sum_v q_v N_{2m}^{(m)}(2x - v), 2^alpha sum_j c_j N_n(2x - j) with c
    the q_v differenced r = m + alpha times.  Plancherel turns its squared
    norm into the Gram sum sum_d A(d) N_{2n}(n + d), A the autocorrelation of
    the coefficients (halved on the half grid).  Differencing r times
    convolves A with (-1, 2, -1) r times, so the differences are taken of the
    short row of Eulerian numbers (2n-1)! N_{2n}(n + d) instead, and the
    per-order autocorrelation of the q_v is cached.  The sum cancels by up
    to 14 digits at m = 40, which integers do not mind."""
    n = m - alpha
    if part == "phi":
        auto, r, e2, den = np.array([1], dtype=object), alpha, 0, math.factorial(2 * n - 1)
    else:
        auto, r = _spline_wavelet_autocorrelation(m), m + alpha
        e2 = 2 * alpha + 1 - 2 * m
        den = math.factorial(2 * m - 1) ** 2 * math.factorial(2 * n - 1)
    h = np.array(_spl._eulerian_row(2 * n), dtype=object)
    zero = np.zeros(2, dtype=object)
    for _ in range(r):
        padded = np.concatenate([zero, h, zero])
        h = 2 * padded[1:-1] - padded[:-2] - padded[2:]
    c = (len(h) - 1) // 2
    width = min(len(auto), c + 1)
    sym = h[c : c + width] + h[c - width + 1 : c + 1][::-1]
    sym[0] = h[c]
    total = int(np.dot(auto[:width], sym))
    return total / (den << -e2) if e2 < 0 else (total << e2) / den


def _daub_weight_is_finite(m: int, alpha: int) -> bool:
    """True once || |w|^alpha phihat ||_2 < inf is proved (alpha >= 1).

    On the octave [pi 2^n, pi 2^{n+1}) the squared weighted transform has
    mass at most a constant times 2^{n(2 alpha - 2m + 1)} Q_n, Q_n the mean of
    prod_{i<n} B(2^i theta) (see _daub_tail_bound), and Q_n is at most
    ||T^n||_inf for the transfer matrix T of _daub_transfer.  So the norm is
    finite when ||(T / tau)^N||_inf < 1 for some N, tau = 2^{2m-1-2 alpha}
    (Villemoes 1994).  N runs through 1, 2, 4, ... by squaring in float64;
    eps carries a bound on the distance to the exact power: T's one rounding
    per entry, then per product ||X^2 - S^2|| <= (2 ||S|| + eps) eps plus
    the rounding gamma_m ||S||^2 of the product itself."""
    g = (m + 4) * _U / (1.0 - (m + 4) * _U)
    s = np.ldexp(_daub_transfer(m), -(2 * m - 1 - 2 * alpha))
    eps = _U * _inf_norm(s) * (1.0 + g)
    for _ in range(_FINITE_SQUARINGS + 1):
        ns = _inf_norm(s) * (1.0 + g)
        if ns + eps < 1.0:
            return True
        if not ns < 1e100:
            return False
        eps = ((2.0 * ns + eps) * eps + g * ns * ns) * (1.0 + g)
        s = s @ s
    return False


def _common_integers(parts):
    """Integers V and an exponent E with sum(parts) = V 2^E exactly, for a
    list of float arrays of one length."""
    fr = [np.frexp(x) for x in parts]
    e = min(int(ex.min()) for _, ex in fr) - 53
    total = np.zeros(len(parts[0]), dtype=object)
    for mant, ex in fr:
        total += np.left_shift(np.ldexp(mant, 53).astype(np.int64).astype(object),
                               (ex - 53 - e).astype(object))
    return total, e


def _refinement_functional(m: int, c: int, weights: np.ndarray, e_w: int):
    """2^e_w sum_l weights_l v_l and a certified bound on its absolute error,
    v_l = Phi_c(l), l = 0..D-1, the samples at integers of the
    autocorrelation Phi_c of the refinable function with squared symbol
    M(w) = cos^{2c}(w/2) P(sin^2(w/2)), D = c + m - 1 (Phi_c is even and
    vanishes outside (-D, D)).  The caller proves Phi_c continuous.

    Phi_c(x) = sum_k 2 M_k Phi_c(2x - k), so v = 2 M v with M the folded
    decimation of M's coefficients: an eigenvector, made unique by the
    partition of unity sum_l v_l = 1 (M vanishes at pi), which replaces the
    last row.  The integer matrix (rows over 4^D) is solved in float64
    with an approximate inverse R.  Certificate: delta >= ||I - R A||_inf
    from R A computed in float64 plus rounding margins (gamma_{D+4} |R| |A|,
    which also covers A's one rounding to float), so ||A^{-1}||_inf <=
    ||R||_inf / (1 - delta); the residual A v - b is exact in integers, and
    ||v - v*||_inf <= ||A^{-1}||_inf ||A v - b||_inf.  Each refinement step
    adds the correction -R (A v - b) as one more float component of v, so v
    carries more than 53 bits."""
    coef = _daub._symbol_coefficients(m, c)
    d = (len(coef) - 1) // 2
    weights = weights[:d]  # a weight at D or beyond meets Phi_c(+-D) = 0
    a = -2 * _folded_decimation(coef, d)
    a[np.arange(d), np.arange(d)] += 1 << (2 * d)
    a[-1] = [1] + [2] * (d - 1)
    af = a.astype(float)
    af[:-1] = np.ldexp(af[:-1], -2 * d)
    rhs = np.zeros(d)
    rhs[-1] = 1.0
    inv = np.linalg.inv(af)
    g = (d + 4) * _U / (1.0 - (d + 4) * _U)
    delta = (_inf_norm(inv @ af - np.eye(d)) + g * (_inf_norm(np.abs(inv) @ np.abs(af)) + 1.0)) * (1.0 + g)
    if not delta < 1.0:
        raise RuntimeError(f"could not bound the inverse of the refinement system (m={m}, c={c})")
    inv_bound = _inf_norm(inv) * (1.0 + g) / (1.0 - delta)
    w_l1 = float(sum(abs(x) for x in weights)) * (1.0 + _U)
    parts = [inv @ rhs]
    for step in range(_REFINE_STEPS + 1):
        v, e = _common_integers(parts)
        av = a.dot(v)
        last = (av[-1] << e) - 1 if e >= 0 else av[-1] - (1 << -e)
        res = np.array([_dyadic(int(x), e - 2 * d) for x in av[:-1]] + [_dyadic(int(last), min(e, 0))])
        err = _inf_norm(res) * (1.0 + 2.0 * _U) * inv_bound * (1.0 + 2.0 * _U)
        value = _dyadic(int(np.dot(weights, v[: len(weights)])), e + e_w)
        bound = math.ldexp(w_l1 * err, e_w) * (1.0 + 4.0 * _U)
        if step == _REFINE_STEPS or bound <= 2.0 ** -64 * abs(value):
            return value, bound
        parts.append(-(inv @ res))


def _daub_l2_squared(part: str, m: int, alpha: int):
    """(|| |w|^alpha fhat ||_2^2, bound on its absolute error) for the
    orthonormal family of order m, from _refinement_functional with
    c = m - alpha.

    |phihat(u)|^2 = (2 pi)^{-1} sinc^{2m}(u/2) prod_j P(sin^2(u/2^{j+1})), so
    u^{2 alpha} |phihat(u)|^2 = (2 sin(u/2))^{2 alpha} |phihat_c(u)|^2 for the
    refinable phi_c, and || w^alpha phihat ||_2^2 = sum_j b_j Phi_c(j) with b
    the coefficients of (2 sin(u/2))^{2 alpha}.  For the wavelet,
    |psihat(2u)|^2 = sin^{2m}(u/2) P(cos^2(u/2)) |phihat(u)|^2 gives
    2^{4 alpha + 1} sum_j b_j Phi_c(j) with b the coefficients of
    sin^{2(m + alpha)}(u/2) P(cos^2(u/2)).  Only samples of Phi_c are
    needed, never of its derivatives, which keeps the system well
    conditioned (its inf-norm condition stays below 1e6 for every
    admissible query).  A positive weight needs finiteness proved first; an
    unproved one is refused with ValueError."""
    if alpha >= 1 and not _daub_weight_is_finite(m, alpha):
        raise ValueError(
            f"cannot certify a finite norm for family=daubechies part={part} m={m} "
            f"alpha={alpha} p=2: the transfer-operator bound does not decay for this weight"
        )
    if part == "phi":
        b = np.array([(-1) ** j * math.comb(2 * alpha, alpha + j) for j in range(alpha + 1)], dtype=object)
        e_w = 0
    else:
        b = _daub._symbol_coefficients(m, m + alpha, high=True)
        h = (len(b) - 1) // 2
        b, e_w = b[h:], 4 * alpha + 1 - 2 * h
    weights = 2 * b
    weights[0] = b[0]
    return _refinement_functional(m, m - alpha, weights, e_w)


def _exact_norm(q: WeightedNormQuery) -> NormResult:
    """The p = 2, integer-alpha route of weighted_lp_norm: no quadrature,
    no tail.  rel bounds |sq / exact - 1| for the squared norm sq (its one
    rounding for the spline family); the square root turns that into at
    most rel / (1 + sqrt(1 - rel)) and adds its own rounding."""
    alpha = int(q.alpha)
    if q.family == "spline":
        sq, rel = _spline_l2_squared(q.part, q.m, alpha), _U
    else:
        sq, bound = _daub_l2_squared(q.part, q.m, alpha)
        err = bound + 2.0 * _U * abs(sq)  # and the value's one rounding
        rel = err / (sq - err) if sq > err else math.inf
    cre = (rel / (1.0 + math.sqrt(1.0 - rel)) + _U) * (1.0 + 4.0 * _U) if rel < 1.0 else math.inf
    if not cre <= q.tol:
        raise RuntimeError(f"could not certify the norm to tol={q.tol} (achieved {cre:.2e})")
    return NormResult(q, math.sqrt(sq), cre, math.pi, 0.0, 0)


# ---------------------------------------------------------------------------
# the norm itself
# ---------------------------------------------------------------------------


def weighted_lp_norm(
    family: str,
    part: str,
    m: int,
    alpha: float,
    p: float,
    tol: float = 1e-8,
) -> NormResult:
    """Certified || |w|^alpha fhat ||_{L_p(R)} for the spline or
    orthonormal scaling function (part="phi") or wavelet (part="psi") of
    order m.

    A query with p = 2 and an integer alpha takes the exact route
    (_exact_norm: integer Gram sums for splines, a certified refinement
    solve for the orthonormal family); every other query runs the
    quadrature (_quadrature_norm).  Either way certified_rel_error is kept
    below tol or the call raises RuntimeError.
    """
    q = WeightedNormQuery(family, part, m, float(alpha), float(p), tol)
    if q.p == 2.0 and q.alpha.is_integer():
        return _exact_norm(q)
    return _quadrature_norm(q)


def _quadrature_norm(q: WeightedNormQuery) -> NormResult:
    """The quadrature route of weighted_lp_norm, callable on any query.

    Its certified_rel_error accounts for quadrature discrepancy, the
    rigorously bounded tail beyond the cutoff, and (for the orthonormal
    family) the truncation certificate of the infinite symbol product."""
    family, part, m, alpha, p, tol = q.family, q.part, q.m, q.alpha, q.p, q.tol
    mag_tol = tol / 8.0
    f, g, c0 = _make_integrand(q, mag_tol)
    if q.family == "daubechies":
        _daub_tail_certificate(m)  # raise early if the grid cannot certify

    # bootstrap estimate of the p-th power integral (underestimate: the
    # integrand is nonnegative, so truncation only loses mass)
    boot_edges, _ = _build_edges(64.0 * math.pi, g, c0, 1e-280)
    i_boot, _, _ = _composite_integrate(f, boot_edges, 1e-3)
    if not (i_boot > 0.0) or not math.isfinite(i_boot):
        raise RuntimeError("bootstrap integral failed; the norm may underflow")

    tail_target = 0.25 * tol * i_boot
    for lpow in range(6, 25):  # cutoffs pi 2^6 .. pi 2^24
        omega = math.pi * 2.0 ** lpow
        tail_est, tail = _tail(q, omega)
        if tail <= tail_target:
            break
    else:
        raise RuntimeError(
            f"tail cannot be certified below target within the cutoff budget "
            f"(family={family}, part={part}, m={m}, alpha={alpha}, p={p})"
        )

    edges, head = _build_edges(omega, g, c0, tail_target / 10.0)
    for quad_rel in (0.5 * tol, 0.0625 * tol):  # one retry, 8 times tighter
        integral, quad_err, panels = _composite_integrate(f, edges, quad_rel)
        total = integral + tail_est
        cre = (quad_err + tail + head) / (q.p * total) + (mag_tol if family == "daubechies" else 1e-14)
        if cre <= tol:
            break
    else:
        raise RuntimeError(f"could not certify the norm to tol={tol} (achieved {cre:.2e})")
    value = (2.0 * total) ** (1.0 / q.p)
    return NormResult(q, value, cre, omega, tail, panels)


# ---------------------------------------------------------------------------
# coefficient constants
# ---------------------------------------------------------------------------


def _weight_exponent(sign: int, k: int) -> float:
    """sign * k as a float, for an integer weight index k.  No supported
    order admits |k| > SPLINE_ORDER_LIMIT (a finite norm needs |alpha| <= m),
    so such k is refused before float(k), which overflows for huge k."""
    if abs(k) > SPLINE_ORDER_LIMIT:
        raise ValueError(f"weight index k exceeds {SPLINE_ORDER_LIMIT}: no supported order admits it")
    return sign * float(k)


def _ckp_query(family: str, part: str, m: int, k: int, p: float, tol: float) -> WeightedNormQuery:
    """The weighted query of ckp(family, part, m, k, p, tol); building it
    refuses whatever that call refuses, before any norm is computed."""
    if not (isinstance(k, (int, np.integer)) and k >= 0):
        raise ValueError("k must be a nonnegative integer")
    return WeightedNormQuery(family, part, m, _weight_exponent(-1 if part == "psi" else 1, k), float(p), tol)


def ckp(family: str, part: str, m: int, k: int, p: float, tol: float = 1e-8) -> CkpResult:
    """Coefficient constant of order m at weight index k: the ratio of the
    weighted to the plain Fourier L_p norm.  The wavelet ratio uses the
    inverse weight |w|^{-k}; the scaling ratio uses |w|^{+k}.  For the
    orthonormal family that is the ratio daubPhiMinusK describes.  For the
    spline family the pairing with splinePhiK is open: the B-spline's +k
    ratio tends to 0 (at p = 2 like sqrt(6/m) for k = 1), while
    splinePhiK predicts (2 xi1)^{-k}.  k = 0 gives exactly 1.
    """
    alpha = _ckp_query(family, part, m, k, p, tol).alpha  # refuse before any norm
    den = weighted_lp_norm(family, part, m, 0.0, p, tol)
    if k == 0:
        return CkpResult(family, part, m, 0, p, den.value, den.value, 1.0,
                         2.0 * den.certified_rel_error)
    num = weighted_lp_norm(family, part, m, alpha, p, tol)
    return CkpResult(
        family, part, m, int(k), p, num.value, den.value, num.value / den.value,
        num.certified_rel_error + den.certified_rel_error,
    )


# ---------------------------------------------------------------------------
# periodized kernel: exact reduction of spline-expansion norms to (0, 2 pi)
# ---------------------------------------------------------------------------

_N_GRID = 1 << 14  # points of the Bernstein side's 2 pi-periodic trapezoid rule

# the seeded scan: random vectors of 1.._SCAN_MAX_LEN coefficients, every (m, k < m, h, p)
_SCAN_VECTORS, _SCAN_MAX_LEN = 500, 8
_SCAN_ORDERS, _SCAN_STEPS, _SCAN_POWERS = (2, 3, 4, 5, 6), (1, 2), (1.5, 2.0, 3.0)


@lru_cache(maxsize=512)
def _half_grid_kernel(m: int, k: int, p: float):
    """Trapezoid weights (2 pi / N) (G_0, 2 G_1, ..., 2 G_{N/2-1}, G_{N/2}),
    N = _N_GRID, of G_g = G(theta_g = 2 pi g / N) for
        G(theta) = sum_l |theta + 2 pi l|^{kp} |Nhat_m(theta + 2 pi l)|^p,
    so that int_R |w|^{kp} |chat(w)|^p |Nhat_m(w)|^p dw = int_0^{2pi} |chat|^p G
    for any 2 pi-periodic chat.  G is even about pi, and on [0, pi]
    sin(theta/2) keeps its relative accuracy.  With S = 2 sin(theta/2) and
    s = (m - k) p the lattice sum is
        (2 pi)^{-p/2} S^{kp} sum_l (S / |theta + 2 pi l|)^s,
    which collapses to the l = 0 and l = -1 terms plus two Hurwitz zeta
    values; every base is at most 1, so nothing overflows at high order.
    s must exceed 1."""
    s = (m - k) * p
    if s <= 1.0:
        raise ValueError("periodized kernel needs (m - k) * p > 1")
    half = _N_GRID // 2
    theta = 2.0 * math.pi * np.arange(half + 1) / _N_GRID
    r = theta / (2.0 * math.pi)
    sin2 = 2.0 * np.sin(0.5 * theta)
    with np.errstate(divide="ignore", invalid="ignore"):
        lattice = (
            (sin2 / theta) ** s
            + (sin2 / (2.0 * math.pi - theta)) ** s
            + (sin2 / (2.0 * math.pi)) ** s * (_zeta(s, 1.0 + r) + _zeta(s, 2.0 - r))
        )
        g = (2.0 * math.pi) ** (-0.5 * p) * sin2 ** (k * p) * lattice
    g[0] = (2.0 * math.pi) ** (-0.5 * p) if k == 0 else 0.0
    g[1:half] *= 2.0
    return g * (2.0 * math.pi / _N_GRID)


def _symbol_abs_sq(c):
    """|chat(theta_g)|^2 on the half grid theta_g = 2 pi g / N, g = 0..N/2,
    for chat(theta) = sum_j c_j e^{-i j theta} and each row of c: one
    zero-padded real FFT.  The grid rule is exact at p = 2 only while the
    length stays within N/2, and a longer row would be cropped, so it is
    refused."""
    if c.shape[-1] > _N_GRID // 2:
        raise ValueError(
            f"at most {_N_GRID // 2} coefficients fit the {_N_GRID}-point rule, got {c.shape[-1]}"
        )
    f = np.fft.rfft(c, n=_N_GRID)
    return f.real ** 2 + f.imag ** 2


def verify_bernstein_spline(
    coeffs: Sequence[float], m: int, k: int, h: int = 1, p: float = 2.0,
    slack: float = 1e-6,
) -> BernsteinCheckResult:
    """Check the derivative-side inequality for s(x) = sum_j c_j N_m(h x - j)
    on the 1/h-step grid: the weighted Fourier norm || w^k shat ||_p against
    spline_bernstein_constant(m, k, h, p) times || shat ||_p.  Both sides
    scale with h so that lhs/rhs does not depend on h.

    Both sides are computed exactly (up to the 2 pi-periodic trapezoid
    rule, spectrally accurate here, and exact at p = 2) through the
    periodized kernel, so a reported violation is a property of the
    inequality, not of the quadrature.  At most 2^13 coefficients are
    accepted, and norms that overflow double precision are refused."""
    if not 1 <= k < m:
        raise ValueError("need 1 <= k < m")
    if not (isinstance(h, (int, np.integer)) and h >= 1):
        raise ValueError("h must be a positive integer")
    if not math.isfinite(slack):
        raise ValueError(f"slack must be finite, got {slack!r}")
    bound = spline_bernstein_constant(m, k, h, p)
    c = np.asarray(coeffs, dtype=float)
    if c.ndim != 1 or c.size == 0:
        raise ValueError("coefficient vector must be one-dimensional and nonempty")
    if not np.isfinite(c).all():
        raise ValueError("coefficients must be finite")
    if not c.any():
        raise ValueError("coefficient vector is zero; the inequality has no ratio")
    # divided by max |c_j|, so that nothing overflows or underflows
    scale = float(np.max(np.abs(c)))
    cpow = _symbol_abs_sq(c / scale) ** (0.5 * p)
    num = float(cpow @ _half_grid_kernel(m, k, p))
    den = float(cpow @ _half_grid_kernel(m, 0, p))
    hf = float(h)
    # shat(w) = chat(w/h) Nhat_m(w/h) / h; substitute v = w/h in both norms
    lhs = hf ** (k - 1.0 + 1.0 / p) * num ** (1.0 / p)
    rhs = bound * hf ** (1.0 / p - 1.0) * den ** (1.0 / p)
    ratio, ok = lhs / rhs, lhs <= rhs * (1.0 + slack)
    lhs, rhs = scale * lhs, scale * rhs
    if not (math.isfinite(lhs) and math.isfinite(rhs)):
        raise ValueError("the norms overflow double precision; scale the coefficients down")
    return BernsteinCheckResult(m, k, int(h), p, lhs, rhs, ratio, ok)


def bernstein_violation_scan(seed: int = 20260819, slack: float = 1e-6):
    """Drive the inequality check over _SCAN_VECTORS seeded random
    coefficient vectors and every (m, k < m, h, p) of the scan's axes.
    Returns (n_checks, violations) where violations is a list of
    (m, k, h, p, vector_index, lhs/rhs).

    lhs/rhs does not depend on h on the 1/h-step grid, so the h axis
    repeats the h = 1 comparison: each h is counted in n_checks and
    reported with its violations, but adds no coverage."""
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


def fejer_extremal_ratio(m: int, j: int, k: int = 1, p: float = 2.0) -> float:
    """Weighted-to-plain norm ratio for the coefficient profile whose
    squared symbol power is the order-j Fejer kernel centered at theta=pi
    (concentrating, as j grows, at the frequency where the inequality is
    tightest)."""
    if not 1 <= k < m:
        raise ValueError("need 1 <= k < m")
    half = _N_GRID // 2
    if not 0 <= j < half:
        raise ValueError(f"Fejer order j must be in [0, {half}) on the {_N_GRID}-point grid, got {j}")
    t = 2.0 * math.pi * np.arange(half) / _N_GRID - math.pi  # and t = 0, where the limit is appended
    phi = np.append((np.sin(0.5 * (j + 1) * t) / np.sin(0.5 * t)) ** 2, (j + 1.0) ** 2) / (j + 1.0)
    return float((phi @ _half_grid_kernel(m, k, p)) / (phi @ _half_grid_kernel(m, 0, p))) ** (1.0 / p)


# ---------------------------------------------------------------------------
# vanishing moments
# ---------------------------------------------------------------------------


def vanishing_moment_order(family: str, m: int) -> int:
    """Order of the zero of |psihat| at w = 0, measured by a log-log slope
    over two small frequencies and rounded to the nearest integer."""
    if family == "spline":
        mag = lambda w: _spl.spline_wavelet_magnitude(m, w)
    elif family == "daubechies":
        mag = lambda w: _daub.daub_psi_hat_magnitude(m, w)
    else:
        raise ValueError(f"unknown family {family!r}")
    w1, w2 = 1e-3, 1e-2
    v1, v2 = mag(w1), mag(w2)
    slope = (math.log(v2) - math.log(v1)) / (math.log(w2) - math.log(w1))
    r = int(round(slope))
    if abs(slope - r) > 0.15:
        raise RuntimeError(f"ambiguous vanishing-moment slope {slope!r}")
    return r


# ---------------------------------------------------------------------------
# wavelet-coefficient bound, directly checked
# ---------------------------------------------------------------------------


def _real_line_integral(f, tol, scale=0.0):
    """Integrate a decaying function over R: 16 panels on the window
    [-32, 32], then shells [-2 omega, -omega] and [omega, 2 omega] of 4
    panels each, doubling omega until a shell adds a negligible amount.

    Convergence is judged against max(|integral|, scale).  The integral's
    own magnitude alone never settles when the true value is zero (an odd
    integrand, say), so a caller integrating a signed quantity passes the
    scale of the unsigned mass."""
    omega = 32.0
    val = _composite_integrate(f, np.linspace(-omega, omega, 17), tol, abs_floor=tol * scale)[0]
    for _ in range(12):
        floor = tol * max(abs(val), scale) + 1e-300
        lo = _composite_integrate(f, np.linspace(-2.0 * omega, -omega, 5), 10 * tol, abs_floor=floor)[0]
        hi = _composite_integrate(f, np.linspace(omega, 2.0 * omega, 5), 10 * tol, abs_floor=floor)[0]
        val += lo + hi
        omega *= 2.0
        if abs(lo) + abs(hi) <= 4.0 * tol * max(abs(val), scale) + 1e-300:
            return val
    raise RuntimeError("real-line integral did not settle under window doubling")


def coefficient_bound_check(
    fhat: Callable[[np.ndarray], np.ndarray],
    family: str,
    m: int,
    j: int = 0,
    nu: int = 0,
    k: int = 1,
    p: float = 2.0,
    tol: float = 1e-8,
) -> CoefficientBoundResult:
    """Compare |<f, psi_{j,nu}>| (computed on the Fourier side) against the
    coefficient bound C_{k,p} 2^{-j(k + 1/p - 1/2)} ||psihat||_p
    ||w^k fhat||_{p'}, and against the raw Holder product it descends
    from.  fhat must be a vectorized callable on real frequencies."""
    if family == "spline":
        psihat = lambda w: _spl.spline_wavelet_ft(m, w)
    elif family == "daubechies":
        psihat = lambda w: _daub.daub_psi_hat_complex(m, w)
    else:
        raise ValueError(f"unknown family {family!r}")
    q = p / (p - 1.0)
    two_j = 2.0 ** (-j)

    def inner(w):
        return fhat(w) * np.conj(2.0 ** (-0.5 * j) * np.exp(-1j * two_j * nu * w) * psihat(two_j * w))

    # unsigned mass of the coefficient integrand: the scale that makes the
    # signed re/im integrals well-posed even when symmetry kills one of them
    mass = _real_line_integral(
        lambda w: 2.0 ** (-0.5 * j) * np.abs(fhat(w)) * np.abs(psihat(two_j * w)), tol
    )
    re = _real_line_integral(lambda w: np.real(inner(w)), tol, scale=mass)
    im = _real_line_integral(lambda w: np.imag(inner(w)), tol, scale=mass)
    lhs = math.hypot(re, im)

    fw = lambda w: np.abs(w) ** (k * q) * np.abs(fhat(w)) ** q
    f_weight = _real_line_integral(fw, tol) ** (1.0 / q)

    const = ckp(family, "psi", m, k, p, tol=max(tol, 1e-10))
    stated = const.ratio * 2.0 ** (-j * (k + 1.0 / p - 0.5)) * const.denominator * f_weight
    holder = 2.0 ** (j * (1.0 / p - k - 0.5)) * const.numerator * f_weight
    return CoefficientBoundResult(
        family, m, j, nu, k, p, lhs, stated, holder,
        const.ratio, lhs <= stated * (1.0 + 1e-6) + 1e-300,
    )


# ---------------------------------------------------------------------------
# asymptotic sweeps
# ---------------------------------------------------------------------------


def richardson_extrapolate(m_values: Sequence[float], values: Sequence[float], exponent: float = 0.5) -> float:
    """Eliminate a c * m^{-exponent} correction using the last two points."""
    if len(m_values) < 2 or len(m_values) != len(values):
        raise ValueError("need at least two (m, value) pairs")
    s1 = float(m_values[-2]) ** (-exponent)
    s2 = float(m_values[-1]) ** (-exponent)
    v1, v2 = float(values[-2]), float(values[-1])
    return (v2 * s1 - v1 * s2) / (s1 - s2)


# norm targets: (family, part, sign of the weight exponent alpha = sign * k)
_NORM_SWEEPS = {
    "splinePhiNorm": ("spline", "phi", -1),
    "splinePsiNorm": ("spline", "psi", -1),
    "splineDiagNorm": ("spline", "psi", -1),
    "daubPhiNorm": ("daubechies", "phi", +1),
    "daubPsiNorm": ("daubechies", "psi", -1),
}

# limit targets: (family, part) of the ckp ratio
_LIMIT_SWEEPS = {
    "daubPhiMinusK": ("daubechies", "phi"),
    "daubPsiK": ("daubechies", "psi"),
    "splinePhiK": ("spline", "phi"),
    "splinePsiK": ("spline", "psi"),
}

# rate targets: (default grid, numerator family, denominator family or None)
# of the wavelet ckp ratio, whose k-th root is measured
_RATE_SWEEPS = {
    "splineGeom": ("spline_rate", "spline", None),
    "daubGeom": ("daub_rate", "daubechies", None),
    "geomRatio": ("daub_rate", "spline", "daubechies"),
    "fixedKRatio": ("daub_rate", "spline", "daubechies"),
}

# targets whose weight index is tied to the order: k = m
_DIAGONAL_SWEEPS = {"splineDiagNorm", "splineGeom", "daubGeom", "geomRatio"}

_DEFAULT_GRIDS = {
    "spline": (5, 10, 15, 20, 25, 30, 35, 40),
    "daubechies": (4, 6, 8, 10, 12, 14, 16, 18),
    "spline_rate": (10, 15, 20, 25),
    "daub_rate": (10, 12, 14, 16),
}


def asymptotic_sweep(
    target: str,
    m_grid: Optional[Sequence[int]] = None,
    k: int = 1,
    p: float = 2.0,
    tol: float = 1e-6,
) -> AsymptoticReport:
    """Measure a norm, constant-ratio limit, or geometric rate over a grid
    of orders and compare with its predicted value.

    Norm targets compare weighted_lp_norm against predict_norm_leading
    (per-m predictions); limit targets compare ckp ratios against the
    fixed predict_limit value; rate targets compare per-order roots of
    wavelet constants (diagonal k = m, or fixed k for fixedKRatio) against
    predict_rate.  The report carries pointwise relative errors, a log-log
    decay fit of those errors, and the m^{-1/2}-Richardson extrapolant of
    the measured sequence (of measured / predicted for norm targets).

    The grid needs at least two distinct orders, and the queries of every
    order are checked before the first norm is computed.
    """
    index = (lambda m: m) if target in _DIAGONAL_SWEEPS else (lambda m: k)  # weight index k at order m
    if target in _NORM_SWEEPS:
        family, part, sign = _NORM_SWEEPS[target]
        grid_key = family
        predict = lambda m: predict_norm_leading(target, m=m, k=index(m), p=p)
        check = lambda m: WeightedNormQuery(family, part, m, _weight_exponent(sign, index(m)), float(p), tol)
        measure = lambda m: weighted_lp_norm(family, part, m, _weight_exponent(sign, index(m)), p, tol).value
    elif target in _LIMIT_SWEEPS:
        family, part = _LIMIT_SWEEPS[target]
        grid_key = family
        predict = lambda m: predict_limit(target, k=k, p=p)
        check = lambda m: _ckp_query(family, part, m, k, p, tol)
        measure = lambda m: ckp(family, part, m, k, p, tol).ratio
    elif target in _RATE_SWEEPS:
        grid_key, num, den = _RATE_SWEEPS[target]
        if target not in _DIAGONAL_SWEEPS and k < 1:
            raise ValueError(f"a rate is a k-th root and needs k >= 1, got k = {k}")
        predict = lambda m: predict_rate(target)
        check = lambda m: [_ckp_query(f, "psi", m, index(m), p, tol) for f in (num, den) if f]

        def measure(m):
            r = ckp(num, "psi", m, index(m), p, tol).ratio
            if den is not None:
                r /= ckp(den, "psi", m, index(m), p, tol).ratio
            return r ** (1.0 / index(m))
    else:
        raise ValueError(f"unknown sweep target {target!r}")

    grid = tuple(m_grid) if m_grid is not None else _DEFAULT_GRIDS[grid_key]
    if len(grid) < 2 or len(set(grid)) < len(grid):
        raise ValueError(f"a sweep needs at least two distinct orders, got {list(grid)}")
    for m in grid:
        check(m)
    predicted = [predict(m) for m in grid]
    measured = [measure(m) for m in grid]
    scaled = [ms / ps for ms, ps in zip(measured, predicted)] if target in _NORM_SWEEPS else measured
    rel = [abs(ms - ps) / abs(ps) for ms, ps in zip(measured, predicted)]
    lm = np.log(np.asarray(grid, dtype=float))
    le = np.log(np.maximum(rel, 1e-300))
    slope = float(np.polyfit(lm, le, 1)[0])
    return AsymptoticReport(
        target, grid, tuple(measured), tuple(predicted), tuple(rel), slope,
        richardson_extrapolate(grid, scaled),
    )
