"""Separable two-dimensional wavelet constants.

A tensor wavelet on the plane pairs the two one-dimensional profiles
axis by axis, so every weighted-to-plain norm ratio factorizes into the
one-dimensional ratios, and the semiorthogonal lower bounds multiply the
Favard-quotient bounds of the two axes.  Three kinds are indexed the
usual way:

    kind 1:  psi (x) phi   -- detail along the first axis only
    kind 2:  phi (x) psi   -- detail along the second axis only
    kind 3:  psi (x) psi   -- detail along both axes

The inverse weight |w|^{-k} sits on a psi axis (its vanishing moments
absorb it); a phi axis carries the direct weight |w|^{+k}, whose bound
is the reciprocal of the order-(m+k) derivative constant -- integrating
a spline k times raises its order by k, which is why the bounds below
stay inside the Favard family.  That mechanism has no orthonormal
analog, so for the Daubechies family the mixed kinds require k = 0 on
the phi axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .constants import _TARGETS, favard, predict_limit
from .norms import CkpResult, _ckp_queries, ckp

__all__ = [
    "TensorCkpResult",
    "tensor_ckp",
    "tensor_limit",
    "tensor_lower_bound",
]

_KINDS = (1, 2, 3)


def _check_kind(kind: int):
    if kind not in _KINDS:
        raise ValueError(f"kind must be 1, 2 or 3, got {kind!r}")


def _check_k(k1: int, k2: int):
    for k in (k1, k2):
        if not (isinstance(k, int) and k >= 0):
            raise ValueError("k1 and k2 must be nonnegative integers")


def tensor_lower_bound(m: int, k1: int, k2: int, kind: int = 3) -> float:
    """Semiorthogonal lower bound for the order-m tensor constant.

    All three kinds share the Favard quotient
    sqrt(K_{2(m+k1)+1} K_{2(m+k2)+1}) / K_{2m+1}; the prefactor carries
    (2 pi)^{-k} for a psi axis and pi^{-k} for a phi axis, so
    kind1 / kind3 = 2^{k2} and kind2 / kind3 = 2^{k1} exactly, and each
    kind factorizes through its k1 = 0 and k2 = 0 sections.
    """
    _check_kind(kind)
    _check_k(k1, k2)
    if not (isinstance(m, int) and m >= 1):
        raise ValueError("m must be a positive integer")
    if kind == 1:
        pref = 2.0 ** (-k1) * math.pi ** (-(k1 + k2))
    elif kind == 2:
        pref = 2.0 ** (-k2) * math.pi ** (-(k1 + k2))
    else:
        pref = (2.0 * math.pi) ** (-(k1 + k2))
    return pref * math.sqrt(favard(2 * (m + k1) + 1) * favard(2 * (m + k2) + 1)) / favard(2 * m + 1)


@dataclass(frozen=True)
class TensorCkpResult:
    family: str
    kind: int
    m: int
    k1: int
    k2: int
    p: float
    axis1: CkpResult
    axis2: CkpResult
    value: float
    certified_rel_error: float


def _axis_parts(family: str, kind: int, k1: int, k2: int, p: float):
    """(part of axis 1, part of axis 2), once the family, kind, weights and
    p are checked: an orthonormal phi axis admits only k = 0."""
    _check_kind(kind)
    _check_k(k1, k2)
    if not (math.isfinite(p) and p > 1.0):
        raise ValueError(f"p must be finite and exceed 1, got {p}")
    if family not in ("spline", "daubechies"):
        raise ValueError(f"unknown family {family!r}")
    parts = {1: ("psi", "phi"), 2: ("phi", "psi"), 3: ("psi", "psi")}[kind]
    if family == "daubechies":
        for axis, (part, k) in enumerate(zip(parts, (k1, k2)), start=1):
            if part == "phi" and k != 0:
                raise ValueError(f"orthonormal mixed kinds need k = 0 on the phi axis (axis {axis})")
    return parts


def tensor_ckp(
    family: str,
    kind: int,
    m: int,
    k1: int,
    k2: int,
    p: float,
    tol: float = 1e-8,
) -> TensorCkpResult:
    """Measured tensor constant: the product of the two axis ratios.

    Separability is exact on the Fourier side, so no two-dimensional
    quadrature is involved; the certificate is the sum of the axis
    certificates.  Both axes' queries are built, and so checked, before
    the first norm is computed.
    """
    part1, part2 = _axis_parts(family, kind, k1, k2, p)
    _ckp_queries(family, part1, m, k1, p, tol)
    _ckp_queries(family, part2, m, k2, p, tol)
    a1 = ckp(family, part1, m, k1, p, tol)
    a2 = ckp(family, part2, m, k2, p, tol)
    return TensorCkpResult(
        family, kind, m, k1, k2, float(p), a1, a2,
        a1.ratio * a2.ratio,
        a1.certified_rel_error + a2.certified_rel_error,
    )


def _axis_limit(family: str, part: str, k: int, p: float) -> float:
    """The limit of the axis ratio ckp(family, part, m, k, p): 1 at k = 0,
    else the limit target that measures that ratio."""
    if k == 0:
        return 1.0
    (target,) = (name for name, t in _TARGETS.items() if t.kind == "limit" and t.families == (family,)
                 and t.part == part)
    return predict_limit(target, k=k, p=p)


def tensor_limit(family: str, kind: int, k1: int, k2: int, p: float = 2.0) -> float:
    """Large-m limit of the tensor constant: the product of axis limits."""
    part1, part2 = _axis_parts(family, kind, k1, k2, p)
    return _axis_limit(family, part1, k1, p) * _axis_limit(family, part2, k2, p)
