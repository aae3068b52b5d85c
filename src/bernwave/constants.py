"""Closed-form constants: the Favard sequence, stationary-point constants of
the two spline profiles, sharp-inequality constants, and the predicted
limits / geometric rates / leading-order norm formulas that the measurement
side of the package is compared against.

Nothing in this module integrates anything: every value is a root of an
explicit equation or an explicit expression in such roots, so the whole
module evaluates in well under a second.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np
from scipy.special import zeta as _zeta

from .numerics import find_root_bracketed

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


@lru_cache(maxsize=1)
def spline_constants() -> SplineProfileConstants:
    xi1 = find_root_bracketed(lambda x: 2.0 / math.tan(x) - 1.0 / x, 0.5, 1.5)
    lam1 = math.sin(xi1) ** 2 / xi1
    Lam1 = 1.0 / math.sin(xi1) ** 2 - 1.0 / (2.0 * xi1 * xi1)

    def wavelet_stationarity(u: float) -> float:
        return (2.0 * math.pi * u - 4.0 * u * u) * math.cos(2.0 * u) + (
            3.0 * u - math.pi
        ) * math.sin(2.0 * u)

    xi2 = find_root_bracketed(wavelet_stationarity, 0.05, 0.6)
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
# predicted limits, rates, and leading-order norms
# ---------------------------------------------------------------------------

LIMIT_TARGETS = (
    "daubPhiMinusK",
    "daubPsiK",
    "splinePhiK",
    "splinePsiK",
    "phiPsiRatioDaub",
    "phiPsiRatioSpline",
)

RATE_TARGETS = ("daubGeom", "splineGeom", "geomRatio", "fixedKRatio")

NORM_TARGETS = (
    "splinePhiNorm",
    "splinePsiNorm",
    "splineDiagNorm",
    "daubPhiNorm",
    "daubPsiNorm",
    "daubPhiAlphaNorm",
)


def _need(value, name):
    if value is None:
        raise ValueError(f"this target requires parameter {name!r}")
    return value


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
    c = spline_constants()
    if target == "daubPhiMinusK":
        k, p = _need(k, "k"), _need(p, "p")
        if k < 0 or p <= 1:
            raise ValueError("need k >= 0 and p > 1")
        return math.pi ** k / (1.0 + p * k) ** (1.0 / p)
    if target == "daubPsiK":
        k, p = _need(k, "k"), _need(p, "p")
        if p <= 1:
            raise ValueError("need p > 1")
        if p * k <= 1.0:
            raise ValueError(
                f"the fixed-k limit for the orthonormal wavelet needs p*k > 1 "
                f"(got p*k = {p * k}); no value is defined at or below the pole"
            )
        return math.pi ** (-k) * (
            (1.0 - 2.0 ** (1.0 - p * k)) / (p * k - 1.0)
        ) ** (1.0 / p)
    if target == "splinePhiK":
        k = _need(k, "k")
        return (2.0 * c.xi1) ** (-k)
    if target == "splinePsiK":
        k = _need(k, "k")
        return (2.0 * math.pi - 4.0 * c.xi2) ** (-k)
    if target == "phiPsiRatioDaub":
        k1, k2, p = _need(k1, "k1"), _need(k2, "k2"), _need(p, "p")
        return predict_limit("daubPhiMinusK", k=k1, p=p) / predict_limit(
            "daubPsiK", k=k2, p=p
        )
    if target == "phiPsiRatioSpline":
        return math.sqrt(c.lam1 / (c.xi1 * c.lam2 ** 2))
    raise ValueError(f"unknown limit target {target!r}; choose from {LIMIT_TARGETS}")


def predict_rate(target: str) -> float:
    """Geometric rate (per unit order) of a diagonal-index constant."""
    c = spline_constants()
    if target == "daubGeom":
        return 0.5
    if target == "splineGeom":
        return 16.0 / (c.lam2 * math.pi ** 4)
    if target == "geomRatio":
        return 32.0 / (c.lam2 * math.pi ** 4)
    if target == "fixedKRatio":
        return math.pi / (2.0 * math.pi - 4.0 * c.xi2)
    raise ValueError(f"unknown rate target {target!r}; choose from {RATE_TARGETS}")


def predict_norm_leading(
    target: str,
    m: Optional[int] = None,
    k: Optional[int] = None,
    p: Optional[float] = None,
) -> float:
    """Predicted leading-order value of a weighted Fourier L_p norm.

    Spline targets depend on m (the prediction is an asymptotic formula in
    m); the orthonormal-family targets are the m -> infinity limits of the
    corresponding norms, so m is accepted and ignored there.
    """
    c = spline_constants()
    p = _need(p, "p")
    if p <= 1:
        raise ValueError("need p > 1")
    if target == "splinePhiNorm":
        m, k = _need(m, "m"), _need(k, "k")
        return (
            2.0 ** (3.0 / p)
            * (2.0 * math.pi) ** (-(1.0 - 1.0 / p) / 2.0)
            * (2.0 * c.xi1) ** (-k)
            * math.sqrt(c.Lam1 * m * p) ** (-1.0 / p)
            * (c.lam1 / c.xi1) ** (m / 2.0)
        )
    if target == "splinePsiNorm":
        m, k = _need(m, "m"), _need(k, "k")
        return (
            2.0 ** (3.0 / p)
            * (2.0 * math.pi) ** (-(1.0 - 1.0 / p) / 2.0)
            * (2.0 * math.pi - 4.0 * c.xi2) ** (-k)
            * math.sqrt(2.0 * c.Lam2 * m * p) ** (-1.0 / p)
            * c.lam2 ** m
        )
    if target == "splineDiagNorm":
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
    if target in ("daubPhiNorm", "daubPhiAlphaNorm"):
        a = float(_need(k, "k"))
        if p * a <= -1.0:
            raise ValueError("need p*alpha > -1 for an integrable weight")
        return (2.0 * math.pi) ** -0.5 * (
            2.0 * math.pi ** (p * a + 1.0) / (p * a + 1.0)
        ) ** (1.0 / p)
    if target == "daubPsiNorm":
        k = _need(k, "k")
        if p * k <= 1.0:
            raise ValueError("need p*k > 1; the limit norm diverges otherwise")
        return (2.0 * math.pi) ** -0.5 * (
            2.0 * math.pi ** (1.0 - p * k) * (1.0 - 2.0 ** (1.0 - p * k)) / (p * k - 1.0)
        ) ** (1.0 / p)
    raise ValueError(f"unknown norm target {target!r}; choose from {NORM_TARGETS}")
