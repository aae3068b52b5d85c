"""The three workloads: fixed operation lists over bernwave's public functions,
each operation with the checks its output must pass.

An operation calls bernwave through module attributes (``norms.ckp``, not a
name bound at import), so the traced run can wrap those attributes.  The
seed fixes the coefficient values of the Bernstein vectors, the seed of the
violation scan and the order in which each pass runs the operations.  The
set of (family, part, m, weight, p) shapes is not drawn from the seed: the
cost of one certified norm spans three orders of magnitude across shapes, so
a drawn set would make the throughput depend on the seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List

import numpy as np

import refs

TOL = 1e-6

SPLINE_SWEEP = (5, 10, 15, 20, 25, 30, 35, 40)
DAUB_P2 = (6, 8, 16)
DAUB_LP = (10, 12)
# Daubechies norms with a quad reference (refs.py); elsewhere Parseval and the
# two-scale identity (p = 2) or inequality (p != 2) check them
DAUB_REF = ((12, 3.0),)

BERNSTEIN_ORDERS = (2, 3, 4, 5, 6, 8, 10, 13, 16, 20, 25, 32, 40)
BERNSTEIN_P = (1.25, 2.0, 3.0, 6.0)
# 5 short vectors (one precomputed basis) against 10 long ones (a dense
# basis built per call); a third of them have 16 coefficients, so the median
# falls inside that one class instead of between two lengths
BERNSTEIN_LENGTHS = (1, 2, 3, 5, 8, 16, 16, 16, 16, 16, 24, 32, 40, 48, 64)
FEJER_J = (4, 8, 16, 32, 64)

ROOT_ORDERS = (2, 3, 4, 5, 6, 7, 8)

WORKLOADS = ("norms-p2", "norms-lp", "bernstein")


@dataclass
class Op:
    key: tuple                     # the operation and its inputs, unique within a workload
    call: Callable[[], object]
    check: Callable[[object], List[str]]


@dataclass
class Workload:
    ops: List[Op]
    # checks that need the results of several operations of one pass
    cross_check: Callable[[Dict[tuple, object]], List[str]] = field(default=lambda res: [])


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


def _close(label, got, want, tol):
    if not (math.isfinite(got) and _rel(got, want) <= tol):
        return [f"{label}: got {got!r}, reference {want!r} (rel {_rel(got, want):.2e} > {tol:.1e})"]
    return []


def _certified(label, res, tol):
    """A NormResult or CkpResult must carry its error certificate within tol
    (a ckp ratio adds the errors of its two norms)."""
    bound = tol if hasattr(res, "panels") else 2.0 * tol
    if not (0.0 <= res.certified_rel_error <= bound):
        return [f"{label}: certified_rel_error {res.certified_rel_error!r} > {bound:.1e}"]
    return []


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------


def _ckp_op(bw, family, part, m, k, p, ref_num=None, ref_den=None):
    key = ("ckp", family, part, m, k, p)

    def check(r):
        errs = _certified(str(key), r, TOL)
        if r.ratio != r.numerator / r.denominator:
            errs.append(f"{key}: ratio is not numerator / denominator")
        for label, got, ref in (("numerator", r.numerator, ref_num), ("denominator", r.denominator, ref_den)):
            if ref is not None:
                want, unc = ref()
                errs += _close(f"{key} {label}", got, want, TOL + unc)
        return errs

    return Op(key, lambda: bw.norms.ckp(family, part, m, k, p, TOL), check)


def _norm_op(bw, family, part, m, alpha, p):
    key = ("norm", family, part, m, alpha, p)
    return Op(key, lambda: bw.norms.weighted_lp_norm(family, part, m, alpha, p, TOL),
              lambda r: _certified(str(key), r, TOL))


def _exact(value):
    return lambda: (value(), 1e-9)


def _spline_ref(part, m, alpha, p):
    if p == 2.0:
        if part == "phi":
            return _exact(lambda: refs.spline_phi_l2(m, int(alpha)))
        return _exact(lambda: refs.spline_psi_l2(m, int(-alpha)))
    return lambda: refs.spline_lp_norm(part, m, float(alpha), p)


def _spline_ckp(bw, part, m, k, p):
    alpha = float(k) if part == "phi" else -float(k)
    return _ckp_op(bw, "spline", part, m, k, p,
                   ref_num=_spline_ref(part, m, alpha, p), ref_den=_spline_ref(part, m, 0.0, p))


def _two_scale_errors(res, m, p, alpha):
    """|phihat(w)|^2 + |psihat(w)|^2 = |phihat(w/2)|^2 gives
    ||w^a phihat||_p^p + ||w^a psihat||_p^p <= 2^{ap+1} ||w^a phihat||_p^p for
    p >= 2 (>= for p <= 2), with equality at p = 2."""
    phi = res[("ckp", "daubechies", "phi", m, 1, p)]
    if alpha == 0.0:
        a, b = phi.denominator ** p, res[("ckp", "daubechies", "psi", m, 1, p)].denominator ** p
    else:
        a, b = phi.numerator ** p, res[("norm", "daubechies", "psi", m, 1.0, p)].value ** p
    lhs, rhs = a + b, 2.0 ** (alpha * p + 1.0) * a
    slack = 2.0 * p * TOL * rhs
    label = f"two-scale m={m} p={p} weight {alpha:+g}"
    if p == 2.0 and abs(lhs - rhs) > slack:
        return [f"{label}: {lhs!r} != {rhs!r}"]
    if p > 2.0 and lhs > rhs + slack:
        return [f"{label}: {lhs!r} > {rhs!r}"]
    if p < 2.0 and lhs < rhs - slack:
        return [f"{label}: {lhs!r} < {rhs!r}"]
    return []


def _daub_ckp(bw, part, m, k, p):
    # at k = m the mask sum loses the high-pass zero of order m to cancellation
    if (m, p) in DAUB_REF and k == 1:
        alpha = -float(k) if part == "psi" else float(k)
        op = _ckp_op(bw, "daubechies", part, m, k, p,
                     ref_num=lambda: refs.daubechies_lp_norm(part, m, alpha, p),
                     ref_den=lambda: refs.daubechies_lp_norm(part, m, 0.0, p))
    else:
        op = _ckp_op(bw, "daubechies", part, m, k, p)
    if p != 2.0:
        return op
    inner = op.check

    def check(r):  # Parseval: an orthonormal scaling function or wavelet has norm 1
        return inner(r) + _close(f"{op.key} Parseval", r.denominator, 1.0, TOL)

    op.check = check
    return op


def _coefficient_op(bw, family, m):
    key = ("coefficient_bound_check", family, m)

    def check(r):
        errs = [] if r.ok and r.inner_product_abs <= r.stated_bound else [f"{key}: bound not met"]
        scale = refs.gaussian_l2()  # Cauchy-Schwarz: |<f, psi>| <= ||f|| ||psi||, ||psi|| = 1
        if family == "spline":
            want = refs.gaussian_spline_wavelet_coefficient(m)
            if abs(r.inner_product_abs - want) > TOL * scale:
                errs.append(f"{key}: |<f, psi>| = {r.inner_product_abs!r}, time-domain reference {want!r}")
        elif r.inner_product_abs > scale * (1.0 + TOL):
            errs.append(f"{key}: |<f, psi>| = {r.inner_product_abs!r} exceeds ||f|| = {scale!r}")
        return errs

    return Op(key, lambda: bw.norms.coefficient_bound_check(refs.gaussian_hat, family, m, tol=TOL), check)


def _norms_p2(bw, rng):
    p = 2.0
    ops = [_spline_ckp(bw, "phi", m, 1, p) for m in SPLINE_SWEEP]
    ops += [_spline_ckp(bw, "psi", m, 1, p) for m in SPLINE_SWEEP]
    # the diagonal k = m of the rate sweeps, and k = 2, so that the list holds
    # the 40 operations a tail percentile needs (run.tail_percentile)
    ops += [_spline_ckp(bw, "psi", m, m, p) for m in SPLINE_SWEEP]
    ops += [_spline_ckp(bw, "psi", m, 2, p) for m in SPLINE_SWEEP[1::2]]
    ops += [_daub_ckp(bw, part, m, 1, p) for part in ("phi", "psi") for m in DAUB_P2]
    ops += [_daub_ckp(bw, "psi", m, m, p) for m in DAUB_P2 if m >= 8]
    ops += [_norm_op(bw, "daubechies", "psi", m, 1.0, p) for m in DAUB_P2 if m >= 8]
    ops += [_coefficient_op(bw, "spline", 4), _coefficient_op(bw, "daubechies", 8)]

    def cross(res):
        return [e for m in DAUB_P2 if m >= 8 for e in _two_scale_errors(res, m, p, 1.0)]

    return Workload(ops, cross)


def _lp_psi_plus_one(m, p):
    # the orthonormal wavelet at weight +1 takes 2.4 s at m = 10, p = 1.5
    return p > 2.0 or m >= 12


def _norms_lp(bw, rng):
    ops = []
    # criterion 4's spline wavelet grid, m <= 12, k <= 3, one exponent per order
    for m in range(1, 13):
        for k in range(1, min(3, m) + 1):
            ops.append(_spline_ckp(bw, "psi", m, k, 3.0 if m % 2 else 1.5))
    for p in (1.5, 3.0):
        ops += [_spline_ckp(bw, "phi", m, 1, p) for m in SPLINE_SWEEP]
        ops += [_spline_ckp(bw, "psi", m, 1, p) for m in (20, 40)]
        ops += [_spline_ckp(bw, "psi", m, m, p) for m in (10, 20)]
        ops += [_daub_ckp(bw, part, m, 1, p) for part in ("phi", "psi") for m in DAUB_LP]
        ops.append(_daub_ckp(bw, "psi", 12, 12, p))
        ops += [_norm_op(bw, "daubechies", "psi", m, 1.0, p) for m in DAUB_LP if _lp_psi_plus_one(m, p)]

    def cross(res):
        errs = []
        for p in (1.5, 3.0):
            for m in DAUB_LP:
                errs += _two_scale_errors(res, m, p, 0.0)
                if _lp_psi_plus_one(m, p):
                    errs += _two_scale_errors(res, m, p, 1.0)
        return errs

    return Workload(ops, cross)


# ---------------------------------------------------------------------------
# Bernstein inequality for spline expansions
# ---------------------------------------------------------------------------


def _verify_op(bw, coeffs, m, k, h, p):
    key = ("verify", m, k, h, p, len(coeffs))
    bound = refs.bernstein_constant(m, k, h, p)

    def check(r):
        errs = []
        if not (r.ok and r.ratio <= 1.0 + 1e-6):
            errs.append(f"{key}: lhs/rhs = {r.ratio!r} above the sharp constant")
        # rhs is built on bernwave's constant; it must be the zeta formula
        own = bw.constants.spline_bernstein_constant(m, k, h, p)
        errs += _close(f"{key} constant", own, bound, 1e-12)
        if p == 2.0:
            hf = float(h)
            lhs = hf ** (k - 0.5) * math.sqrt(refs.spline_expansion_l2_sq(coeffs, m, k))
            rhs = bound * hf ** -0.5 * math.sqrt(refs.spline_expansion_l2_sq(coeffs, m, 0))
            errs += _close(f"{key} lhs", r.lhs, lhs, 1e-9) + _close(f"{key} rhs", r.rhs, rhs, 1e-9)
        return errs

    return Op(key, lambda: bw.norms.verify_bernstein_spline(coeffs, m, k, h, p), check)


def _fejer_op(bw, m):
    key = ("fejer", m)
    bound = refs.bernstein_constant(m, 1, 1, 2.0)

    def check(r):
        if all(b > a for a, b in zip(r, r[1:])) and r[-1] < bound:
            return []
        return [f"{key}: ratios {r!r} do not rise toward {bound!r} from below"]

    return Op(key, lambda: [bw.norms.fejer_extremal_ratio(m, j) for j in FEJER_J], check)


def _scan_op(bw, seed):
    def check(r):
        n_checks, violations = r
        if n_checks != 45000 or violations:
            return [f"violation scan: {len(violations)} violations in {n_checks} checks"]
        return []

    return Op(("scan",), lambda: bw.norms.bernstein_violation_scan(seed=seed), check)


def _bernstein(bw, rng):
    ops = []
    i = 0
    for m in BERNSTEIN_ORDERS:
        for k in range(1, m):
            n = BERNSTEIN_LENGTHS[i % len(BERNSTEIN_LENGTHS)]
            coeffs = rng.uniform(-1.0, 1.0, size=n)
            ops.append(_verify_op(bw, coeffs, m, k, 1 + i % 2, BERNSTEIN_P[i % len(BERNSTEIN_P)]))
            i += 1
    ops += [_fejer_op(bw, m) for m in (2, 3, 4)]
    ops.append(_scan_op(bw, int(rng.integers(1 << 31))))
    ops += [_roots_op(bw, m) for m in ROOT_ORDERS]
    return Workload(ops, _interlacing)


# ---------------------------------------------------------------------------
# exact arithmetic: Euler-Frobenius roots, wavelet masks, integer samples
# ---------------------------------------------------------------------------


def _roots_op(bw, m):
    key = ("roots", m)

    def call():
        coeffs = bw.splines.euler_frobenius(m)
        return (coeffs, bw.numerics.poly_real_roots(coeffs), bw.splines.spline_wavelet(m),
                bw.splines.bspline_integer_values(m))

    def check(r):
        coeffs, roots, mask, values = r
        errs = []
        if tuple(coeffs) != refs.euler_frobenius(m):
            errs.append(f"{key}: Euler-Frobenius coefficients differ")
        if tuple(mask) != refs.spline_wavelet(m):
            errs.append(f"{key}: spline wavelet coefficients differ")
        if tuple(values) != (refs.bspline_integer_values(m) if m > 1 else ()):
            errs.append(f"{key}: B-spline integer values differ")
        n = 2 * m - 2
        if len(roots) != n or not all(x < 0.0 for x in roots):
            return errs + [f"{key}: want {n} negative roots, got {roots!r}"]
        if any(abs(roots[i] * roots[n - 1 - i] - 1.0) > 1e-8 for i in range(n)):
            errs.append(f"{key}: roots are not reciprocal pairs")
        ref = np.sort(np.polynomial.polynomial.polyroots([float(c) for c in refs.euler_frobenius(m)]).real)
        if np.max(np.abs(np.asarray(roots) - ref) / np.abs(ref)) > 1e-6:
            errs.append(f"{key}: roots differ from numpy's {ref.tolist()!r}")
        return errs

    return Op(key, call, check)


def _interlacing(res):
    """The roots below -1 of order m + 1 interlace those of order m."""
    errs = []
    for m in ROOT_ORDERS[:-1]:
        a = [x for x in res[("roots", m)][1] if x < -1.0]
        b = [x for x in res[("roots", m + 1)][1] if x < -1.0]
        if not all(b[i] < a[i] < b[i + 1] for i in range(len(a))):
            errs.append(f"roots of orders {m} and {m + 1} do not interlace")
    return errs


def probe(bw) -> Workload:
    """One operation of each traced layer, for the traced run of a workload
    that does not call that layer itself."""
    rng = np.random.default_rng(0)
    ops = [
        _norm_op(bw, "daubechies", "phi", 10, 0.0, 2.0),
        _norm_op(bw, "spline", "psi", 10, 0.0, 2.0),
        _coefficient_op(bw, "spline", 4),
        _verify_op(bw, rng.uniform(-1.0, 1.0, size=5), 6, 2, 1, 2.0),
        _verify_op(bw, rng.uniform(-1.0, 1.0, size=40), 6, 3, 1, 2.0),
        _fejer_op(bw, 2),
        _scan_op(bw, 20260819),
    ]
    return Workload(ops + [_roots_op(bw, m) for m in ROOT_ORDERS], _interlacing)


_BUILDERS = {"norms-p2": _norms_p2, "norms-lp": _norms_lp, "bernstein": _bernstein}


def build(name: str, bw, seed: int) -> Workload:
    """The workload's operation list; bw is a namespace holding the bernwave
    modules norms, splines, numerics and constants."""
    return _BUILDERS[name](bw, np.random.default_rng([seed, WORKLOADS.index(name)]))
