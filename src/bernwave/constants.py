"""Closed-form constants: the Favard sequence, stationary-point constants of
the two spline profiles, sharp-inequality constants, and the one table of
named targets.  Each target has its predicted limit, geometric rate or
leading-order norm, which the measurement side of the package is compared
against, and says what its sweep measures.

Nothing in this module integrates anything: every value is a root of an
explicit equation or an explicit expression in such roots, so the whole
module evaluates in well under a second.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional, Tuple

import numpy as np
from scipy.special import zeta as _zeta

__all__ = [
    "favard",
    "favard_table",
    "SplineProfileConstants",
    "spline_constants",
    "spline_bernstein_constant",
    "spline_wavelet_lower_bound",
    "predict_limit",
    "predict_rate",
    "predict_norm_leading",
    "LIMIT_TARGETS",
    "RATE_TARGETS",
    "NORM_TARGETS",
]

_FOUR_OVER_PI = 4.0 / math.pi


def _dirichlet_lambda(s: float) -> float:
    """lambda(s) = sum over odd n >= 1 of n^{-s} = (1 - 2^{-s}) zeta(s), s > 1."""
    return (1.0 - 2.0 ** (-s)) * float(_zeta(s))


@lru_cache(maxsize=None)
def favard(j: int) -> float:
    """Favard constant K_j.

    K_0 = 1; odd j via the Dirichlet lambda function
    (4/pi)(1 - 2^{-(j+1)}) zeta(j+1); even j >= 2 via the Dirichlet beta
    function (4/pi) beta(j+1), beta(s) = 1 - 3^{-s} + 5^{-s} - ...  The
    terms from 5^{-s} on are summed as 4^{-s} (zeta(s, 5/4) - zeta(s, 7/4)),
    where every factor is at most 1: the classical 4^{-s} (zeta(s, 1/4) -
    zeta(s, 3/4)) overflows to inf, then nan, from j = 512 on.  Accuracy is
    a few ulp at every j.
    """
    if not isinstance(j, (int, np.integer)) or j < 0:
        raise ValueError(f"Favard index must be a nonnegative integer, got {j!r}")
    if j == 0:
        return 1.0
    s = j + 1
    if j % 2 == 1:
        return _FOUR_OVER_PI * _dirichlet_lambda(s)
    return _FOUR_OVER_PI * (1.0 - 3.0 ** (-s) + 4.0 ** (-s) * float(_zeta(s, 1.25) - _zeta(s, 1.75)))


def favard_table(j_max: int = 200) -> np.ndarray:
    """K_0 .. K_{j_max} as an array."""
    if j_max < 0:
        raise ValueError("j_max must be nonnegative")
    return np.array([favard(j) for j in range(j_max + 1)])


# ---------------------------------------------------------------------------
# stationary-point constants of the two spline frequency profiles
# ---------------------------------------------------------------------------
#
# Scaling side: s(x) = sin(x)^2 / x on (0, pi), maximised where
# 2 cot(x) = 1/x.  Wavelet side: b(t) = sin(2t)^2 / ((pi - 2t) t^2) on
# (0, pi/2), maximised where (2 pi t - 4 t^2) cos(2t) + (3t - pi) sin(2t) = 0
# (that equation is exactly the stationarity of b cleared of denominators).
# The curvature constants are -(1/2) (ln profile)'' at the maximiser,
# differentiated analytically.


@dataclass(frozen=True)
class SplineProfileConstants:
    xi1: float   # maximiser of sin^2(x)/x
    lam1: float  # its maximum value
    Lam1: float  # half the negative log-curvature there
    xi2: float   # maximiser of the wavelet profile
    lam2: float  # half the wavelet profile's maximum value
    Lam2: float  # half the negative log-curvature there

    def as_dict(self) -> dict:
        return {
            "xi1": self.xi1,
            "lam1": self.lam1,
            "Lam1": self.Lam1,
            "xi2": self.xi2,
            "lam2": self.lam2,
            "Lam2": self.Lam2,
            "two_xi1": 2.0 * self.xi1,
            "psi_peak_scale": 2.0 * math.pi - 4.0 * self.xi2,
        }


def _root(f, a: float, b: float) -> float:
    """The root of f on the sign-changing bracket [a, b], to brentq's finest
    relative tolerance."""
    # imported here: scipy.optimize takes about 0.2 s to import, and only
    # these two roots, computed once per process, need it
    from scipy.optimize import brentq

    return brentq(f, a, b, xtol=1e-300, rtol=4.0 * np.finfo(float).eps)


# double-double arithmetic (Dekker 1971): a pair (hi, lo) stands for hi + lo
_SPLIT = 134217729.0  # 2^27 + 1
_DD_PI = (math.pi, 1.2246467991473532e-16)  # pi = math.pi + 1.2246e-16 to 1e-32


def _two_sum(a: float, b: float):
    s = a + b
    t = s - a
    return s, (a - (s - t)) + (b - t)


def _two_prod(a: float, b: float):
    p = a * b
    a1 = _SPLIT * a
    a1 -= a1 - a
    b1 = _SPLIT * b
    b1 -= b1 - b
    a2, b2 = a - a1, b - b1
    return p, ((a1 * b1 - p) + a1 * b2 + a2 * b1) + a2 * b2


def _dd_add(x, y):
    s, e = _two_sum(x[0], y[0])
    return _two_sum(s, e + x[1] + y[1])


def _dd_mul(x, y):
    p, e = _two_prod(x[0], y[0])
    return _two_sum(p, e + x[0] * y[1] + x[1] * y[0])


def _dd_div(x, n: int):
    q = x[0] / n
    p, e = _two_prod(q, float(n))
    return _two_sum(q, ((x[0] - p) - e + x[1]) / n)


def _dd_sin_cos(x: float):
    """(sin x, cos x) in double-double for a float 0 <= x <= 1: Horner on
    the Taylor series through x^29 and x^28, whose remainders are at most
    1/31! and 1/30! < 4e-33."""
    x2 = _two_prod(x, x)
    s = c = (1.0, 0.0)
    for k in range(14, 0, -1):
        s = _dd_add((1.0, 0.0), _dd_div(_dd_mul(x2, s), -(2 * k) * (2 * k + 1)))
        c = _dd_add((1.0, 0.0), _dd_div(_dd_mul(x2, c), -(2 * k - 1) * (2 * k)))
    return _dd_mul(s, (x, 0.0)), c


def _wavelet_stationarity_root(u: float) -> float:
    """One Newton step on (2 pi u - 4 u^2) cos 2u + (3u - pi) sin 2u from a
    float u a few ulp from its root.  In float64 the two products cancel to
    a residual whose rounding error moves the root by several ulp, so the
    residual is formed in double-double.  The step's own error is about
    1e-31, so it lands on the correctly rounded root unless that root lies
    within 1e-31 of a midpoint between two floats."""
    s, c = _dd_sin_cos(2.0 * u)
    a = _dd_add(_dd_mul((2.0 * _DD_PI[0], 2.0 * _DD_PI[1]), (u, 0.0)), _dd_mul((-4.0 * u, 0.0), (u, 0.0)))
    b = _dd_add(_two_prod(3.0, u), (-_DD_PI[0], -_DD_PI[1]))
    f = _dd_add(_dd_mul(a, c), _dd_mul(b, s))
    df = (2.0 * math.pi - 8.0 * u + 2.0 * b[0]) * c[0] + (3.0 - 2.0 * a[0]) * s[0]
    return u - (f[0] + f[1]) / df


@lru_cache(maxsize=1)
def spline_constants() -> SplineProfileConstants:
    xi1 = _root(lambda x: 2.0 / math.tan(x) - 1.0 / x, 0.5, 1.5)
    lam1 = math.sin(xi1) ** 2 / xi1
    Lam1 = 1.0 / math.sin(xi1) ** 2 - 1.0 / (2.0 * xi1 * xi1)

    def wavelet_stationarity(u: float) -> float:
        return (2.0 * math.pi * u - 4.0 * u * u) * math.cos(2.0 * u) + (
            3.0 * u - math.pi
        ) * math.sin(2.0 * u)

    xi2 = _wavelet_stationarity_root(_root(wavelet_stationarity, 0.05, 0.6))
    lam2 = math.sin(2.0 * xi2) ** 2 / (2.0 * xi2 * xi2 * (math.pi - 2.0 * xi2))
    Lam2 = (
        4.0 / math.sin(2.0 * xi2) ** 2
        - 2.0 / (math.pi - 2.0 * xi2) ** 2
        - 1.0 / (xi2 * xi2)
    )
    return SplineProfileConstants(xi1, lam1, Lam1, xi2, lam2, Lam2)


# ---------------------------------------------------------------------------
# sharp-inequality constants and lower bounds
# ---------------------------------------------------------------------------


# The maximiser theta = pi of the periodized ratio below was checked on the
# 2^14-point grid (see spline_bernstein_constant) for every order up to the
# limit and for a grid of exponents spanning the range.  p between grid
# points is accepted because the ratio is smooth in p; m or p outside
# these limits is refused, not extrapolated.
SPLINE_BERNSTEIN_ORDER_LIMIT = 40
SPLINE_BERNSTEIN_P_RANGE = (1.01, 20.0)


def spline_bernstein_constant(m: int, k: int, h: int = 1, p: float = 2.0) -> float:
    """Sharp constant C in || w^k shat ||_p <= C || shat ||_p for every
    spline s(x) = sum_j c_j N_m(h x - j) of order m (support of N_m is
    [0, m]) on the 1/h-step grid, 1 <= k < m:

        C = (pi h)^k (lambda((m - k) p) / lambda(m p))^{1/p},

    lambda the Dirichlet lambda function.  At p = 2 this is
    (pi h)^k sqrt(K_{2(m-k)-1} / K_{2m-1}) in Favard numbers.

    Periodizing shat = chat(w/h) Nhat_m(w/h) / h reduces the norm ratio
    to sup_theta (G_k / G_0)(theta)^{1/p} with
    G_k(theta) = sum_l |theta + 2 pi l|^{kp} |Nhat_m(theta + 2 pi l)|^p;
    the sine factors cancel in G_k / G_0, which leaves a ratio of lattice
    sums.  Its maximum sits at theta = pi, where the lattice runs over the
    odd multiples of pi and gives the closed form above.  That maximiser
    was checked on the 2^14-point grid of (0, 2 pi) for 2 <= m <= 40,
    every 1 <= k < m and p on a grid of 41 values in [1.01, 20]
    (scripts/check_bernstein_maximiser.py).  p between those grid points
    is accepted on the strength of the ratio's smoothness in p, not of a
    check; m or p outside that range raise ValueError.  The supremum is approached by
    coefficient profiles concentrating at theta = pi (fejer_extremal_ratio)
    and is not attained by any finite coefficient vector.
    """
    if not (isinstance(m, (int, np.integer)) and isinstance(k, (int, np.integer))):
        raise ValueError("m and k must be integers")
    if not 1 <= k < m:
        raise ValueError(f"need 1 <= k < m, got k={k}, m={m}")
    if m > SPLINE_BERNSTEIN_ORDER_LIMIT:
        raise ValueError(
            f"the theta = pi maximiser is checked only for m <= "
            f"{SPLINE_BERNSTEIN_ORDER_LIMIT}, got m={m}"
        )
    if not (isinstance(h, (int, np.integer)) and h >= 1):
        raise ValueError(f"h must be a positive integer, got {h!r}")
    p_lo, p_hi = SPLINE_BERNSTEIN_P_RANGE
    if not p_lo <= p <= p_hi:
        raise ValueError(
            f"the theta = pi maximiser is checked only for {p_lo} <= p <= {p_hi}, got p={p!r}"
        )
    p = float(p)
    ratio = _dirichlet_lambda((m - k) * p) / _dirichlet_lambda(m * p)
    try:
        c = (math.pi * h) ** k * ratio ** (1.0 / p)
    except OverflowError:
        c = math.inf
    if not math.isfinite(c):
        raise ValueError(f"the constant overflows double precision at h={h}, k={k}")
    return c


def spline_wavelet_lower_bound(m: int, k: int) -> float:
    """(2 pi)^{-k} sqrt(K_{2(m+k)+1} / K_{2m+1}): a floor under the measured
    wavelet coefficient constant of order m at weight exponent k."""
    if not (isinstance(m, (int, np.integer)) and m >= 1 and isinstance(k, (int, np.integer)) and k >= 0):
        raise ValueError("need integer m >= 1 and integer k >= 0")
    return (2.0 * math.pi) ** (-k) * math.sqrt(favard(2 * (m + k) + 1) / favard(2 * m + 1))


# ---------------------------------------------------------------------------
# the named targets: each prediction, and what a sweep measures against it
# ---------------------------------------------------------------------------


def _need(value, name):
    if value is None:
        raise ValueError(f"this target requires parameter {name!r}")
    return value


# Predictions take keyword arguments m, k, p, k1, k2 and ignore those they do
# not use.  A leading-order norm is its k = 0 envelope times its ratio limit.


def _spline_phi_k(k=None, **_):
    return spline_constants().as_dict()["two_xi1"] ** (-_need(k, "k"))


def _spline_psi_k(k=None, **_):
    return spline_constants().as_dict()["psi_peak_scale"] ** (-_need(k, "k"))


def _daub_phi_power(a, p):
    """pi^a (1 + p a)^{-1/p}, finite for p a > -1: the large-order ratio of
    || |w|^a phihat ||_p to || phihat ||_p in the orthonormal family, whose
    |phihat| tends to (2 pi)^{-1/2} times the indicator of [-pi, pi]."""
    if p * a <= -1.0:
        raise ValueError("need p*alpha > -1 for an integrable weight")
    return math.pi ** a / (1.0 + p * a) ** (1.0 / p)


def _daub_phi_minus_k(k=None, p=None, **_):
    k, p = _need(k, "k"), _need(p, "p")
    if k < 0 or p <= 1:
        raise ValueError("need k >= 0 and p > 1")
    return _daub_phi_power(k, p)


def _daub_psi_k(k=None, p=None, **_):
    k, p = _need(k, "k"), _need(p, "p")
    if p <= 1:
        raise ValueError("need p > 1")
    if p * k <= 1.0:
        raise ValueError(
            f"the fixed-k limit for the orthonormal wavelet needs p*k > 1 "
            f"(got p*k = {p * k}); no value is defined at or below the pole"
        )
    return math.pi ** (-k) * ((1.0 - 2.0 ** (1.0 - p * k)) / (p * k - 1.0)) ** (1.0 / p)


def _phi_psi_ratio_daub(k1=None, k2=None, p=None, **_):
    k1, k2, p = _need(k1, "k1"), _need(k2, "k2"), _need(p, "p")
    return _daub_phi_minus_k(k=k1, p=p) / _daub_psi_k(k=k2, p=p)


def _phi_psi_ratio_spline(**_):
    c = spline_constants()
    return math.sqrt(c.lam1 / (c.xi1 * c.lam2 ** 2))


def _daub_geom(**_):
    return 0.5


def _spline_geom(**_):
    return 16.0 / (spline_constants().lam2 * math.pi ** 4)


def _spline_envelope(m, p, curvature, growth):
    """The k = 0 Laplace envelope of a spline norm of order m: `curvature`
    is -(1/2)(ln profile)'' / m at the peak, `growth` the peak value to the
    power of the order."""
    return (
        2.0 ** (3.0 / p)
        * (2.0 * math.pi) ** (-(1.0 - 1.0 / p) / 2.0)
        * math.sqrt(curvature * m * p) ** (-1.0 / p)
        * growth
    )


def _spline_phi_norm(m=None, k=None, p=None, **_):
    c, m = spline_constants(), _need(m, "m")
    return _spline_envelope(m, p, c.Lam1, (c.lam1 / c.xi1) ** (m / 2.0)) * _spline_phi_k(k=k)


def _spline_psi_norm(m=None, k=None, p=None, **_):
    c, m = spline_constants(), _need(m, "m")
    return _spline_envelope(m, p, 2.0 * c.Lam2, c.lam2 ** m) * _spline_psi_k(k=k)


def _spline_diag_norm(m=None, k=None, p=None, **_):
    m = _need(m, "m")
    if k is not None and k != m:
        raise ValueError("the diagonal norm has k tied to m; pass k=None or k=m")
    return (
        2.0 ** (1.0 / p)
        * (2.0 * math.pi) ** (-(1.0 - 1.0 / p) / 2.0)
        * (math.pi / math.sqrt(math.pi ** 2 - 8.0)) ** (1.0 / p)
        * math.sqrt(2.0 * m * p) ** (-1.0 / p)
        * (16.0 / math.pi ** 4) ** m
    )


def _daub_phi_norm(k=None, p=None, **_):
    # daubPhiMinusK's formula, which the norm also takes at -1/p < alpha < 0
    return (2.0 * math.pi) ** (1.0 / p - 0.5) * _daub_phi_power(float(_need(k, "k")), p)


def _daub_psi_norm(k=None, p=None, **_):
    return (2.0 * math.pi) ** (1.0 / p - 0.5) * _daub_psi_k(k=k, p=p)


@dataclass(frozen=True)
class _Target:
    """A named prediction and what a sweep measures against it: per family
    the norm || |w|^{sign k} fhat ||_p of `part` (a norm target), its ratio
    to the plain norm (a limit), or the k-th root of that ratio (a rate; of
    two families, the first one's ratio over the second one's)."""

    kind: str                        # "limit", "rate" or "norm"
    predict: Callable[..., float]
    families: Tuple[str, ...] = ()   # () for a target no sweep measures
    part: str = "psi"
    sign: int = -1
    diagonal: bool = False           # k is tied to the order: k = m
    grid: Tuple[int, ...] = ()       # the sweep's default orders


_S, _D, _SD = ("spline",), ("daubechies",), ("spline", "daubechies")
_S_GRID = (5, 10, 15, 20, 25, 30, 35, 40)
_D_GRID = (4, 6, 8, 10, 12, 14, 16, 18)
_RATE_GRID = (10, 12, 14, 16)

_TARGETS = {
    "daubPhiMinusK": _Target("limit", _daub_phi_minus_k, _D, "phi", +1, grid=_D_GRID),
    "daubPsiK": _Target("limit", _daub_psi_k, _D, "psi", -1, grid=_D_GRID),
    "splinePhiK": _Target("limit", _spline_phi_k, _S, "phi", +1, grid=_S_GRID),
    "splinePsiK": _Target("limit", _spline_psi_k, _S, "psi", -1, grid=_S_GRID),
    "phiPsiRatioDaub": _Target("limit", _phi_psi_ratio_daub),
    "phiPsiRatioSpline": _Target("limit", _phi_psi_ratio_spline),
    "daubGeom": _Target("rate", _daub_geom, _D, diagonal=True, grid=_RATE_GRID),
    "splineGeom": _Target("rate", _spline_geom, _S, diagonal=True, grid=(10, 15, 20, 25)),
    "geomRatio": _Target("rate", lambda **_: _spline_geom() / _daub_geom(), _SD, diagonal=True, grid=_RATE_GRID),
    "fixedKRatio": _Target("rate", lambda **_: math.pi * _spline_psi_k(k=1), _SD, grid=_RATE_GRID),
    "splinePhiNorm": _Target("norm", _spline_phi_norm, _S, "phi", -1, grid=_S_GRID),
    "splinePsiNorm": _Target("norm", _spline_psi_norm, _S, "psi", -1, grid=_S_GRID),
    "splineDiagNorm": _Target("norm", _spline_diag_norm, _S, "psi", -1, True, _S_GRID),
    "daubPhiNorm": _Target("norm", _daub_phi_norm, _D, "phi", +1, grid=_D_GRID),
    "daubPsiNorm": _Target("norm", _daub_psi_norm, _D, "psi", -1, grid=_D_GRID),
    "daubPhiAlphaNorm": _Target("norm", _daub_phi_norm),
}

LIMIT_TARGETS, RATE_TARGETS, NORM_TARGETS = (
    tuple(name for name, t in _TARGETS.items() if t.kind == kind) for kind in ("limit", "rate", "norm")
)
# the targets a sweep measures
_SWEEP_TARGETS = tuple(name for name, t in _TARGETS.items() if t.grid)


def _target(name: str, kind: str, known: Tuple[str, ...]) -> _Target:
    t = _TARGETS.get(name)
    if t is None or t.kind != kind:
        raise ValueError(f"unknown {kind} target {name!r}; choose from {known}")
    return t


def _named_values() -> dict:
    """The six profile constants and the eight values derived from them, in
    the order `bernwave constants` lists them."""
    return {
        **spline_constants().as_dict(),
        "fixed_k_ratio": predict_rate("fixedKRatio"),
        "spline_geom_rate": predict_rate("splineGeom"),
        "geom_ratio": predict_rate("geomRatio"),
        "phi_psi_mix": predict_limit("phiPsiRatioSpline"),
        "spline_phi_limit_k1": predict_limit("splinePhiK", k=1),
        "spline_psi_limit_k1": predict_limit("splinePsiK", k=1),
    }


def predict_limit(
    target: str,
    k: Optional[int] = None,
    p: Optional[float] = None,
    k1: Optional[int] = None,
    k2: Optional[int] = None,
) -> float:
    """Large-order limit of a coefficient-constant (or constant ratio).

    Targets: daubPhiMinusK(k, p), daubPsiK(k, p) [requires p*k > 1],
    splinePhiK(k), splinePsiK(k), phiPsiRatioDaub(k1, k2, p),
    phiPsiRatioSpline().
    """
    return _target(target, "limit", LIMIT_TARGETS).predict(k=k, p=p, k1=k1, k2=k2)


def predict_rate(target: str) -> float:
    """Geometric rate (per unit order) of a diagonal-index constant."""
    return _target(target, "rate", RATE_TARGETS).predict()


def predict_norm_leading(
    target: str,
    m: Optional[int] = None,
    k: Optional[int] = None,
    p: Optional[float] = None,
) -> float:
    """Predicted leading-order value of a weighted Fourier L_p norm.

    Spline targets depend on m (the prediction is an asymptotic formula in
    m); the orthonormal-family targets are the m -> infinity limits of the
    corresponding norms, so m is accepted and ignored there.  Each norm but
    the diagonal one is its k = 0 envelope times the limit of its ratio.
    """
    p = _need(p, "p")
    if p <= 1:
        raise ValueError("need p > 1")
    return _target(target, "norm", NORM_TARGETS).predict(m=m, k=k, p=p)
