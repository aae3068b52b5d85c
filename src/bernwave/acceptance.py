"""Acceptance gate: one callable per promised numerical property.

Each criterion is a self-contained check with a stated wall-clock budget
and returns a pass/fail plus a human-readable detail line.  Failures are
reported, never masked: a criterion that a formula genuinely cannot meet
stays red here and in the test suite.
"""

from __future__ import annotations

import math
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from . import daubechies as _daub
from . import splines as _spl
from .constants import (
    _named_values,
    favard,
    favard_table,
    predict_limit,
    predict_norm_leading,
    spline_bernstein_constant,
    spline_wavelet_lower_bound,
)
from .norms import (
    asymptotic_sweep,
    bernstein_violation_scan,
    ckp,
    fejer_extremal_ratio,
    vanishing_moment_order,
    weighted_lp_norm,
)
from .numerics import poly_real_roots
from .tensor import tensor_ckp, tensor_limit, tensor_lower_bound

__all__ = ["CriterionResult", "CRITERION_NAMES", "run_criterion", "run_all"]


@dataclass(frozen=True)
class CriterionResult:
    name: str
    passed: bool
    elapsed_s: float
    budget_s: float
    detail: str

    @property
    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        return f"[{tag}] {self.name} ({self.elapsed_s:.1f}s / budget {self.budget_s:.0f}s): {self.detail}"


# ---------------------------------------------------------------------------
# criterion 1: the eleven printed profile constants, to their printed digits
# ---------------------------------------------------------------------------


def _c1_printed_constants() -> Tuple[bool, str]:
    computed = _named_values()
    table = [
        # (label, printed value, printed decimals)
        ("xi1", 1.1655, 4),
        ("lam1", 0.72461, 5),
        ("Lam1", 0.81597, 5),
        ("xi2", 0.2853, 4),
        ("lam2", 0.69706, 5),
        ("Lam2", 1.2229, 4),
        ("two_xi1", 2.331, 3),
        ("psi_peak_scale", 5.1419, 4),
        ("fixed_k_ratio", 0.61098, 5),
        ("geom_ratio", 0.47128, 5),
        ("phi_psi_mix", 1.1311, 4),
    ]
    bad = []
    for label, printed, dec in table:
        value = computed[label]
        if abs(value - printed) > 10.0 ** (-dec):
            bad.append(f"{label}: computed {value:.10f} vs printed {printed} "
                       f"(gap {abs(value - printed):.1e} > 1e-{dec})")
    detail = f"{len(table) - len(bad)}/{len(table)} constants within printed digits"
    if bad:
        detail += "; " + "; ".join(bad)
    return not bad, detail


# ---------------------------------------------------------------------------
# criterion 2: Favard closed forms and parity monotonicity
# ---------------------------------------------------------------------------


def _c2_favard() -> Tuple[bool, str]:
    exact = [1.0, math.pi / 2.0, math.pi ** 2 / 8.0, math.pi ** 3 / 24.0]
    errs = [abs(favard(j) - exact[j]) for j in range(4)]
    ok = all(e <= 1e-12 for e in errs)
    tab = favard_table(200)
    lim = 4.0 / math.pi
    evens, odds = tab[0::2], tab[1::2]
    # evens rise to 4/pi, odds fall to it; strict until double precision
    # saturates (j ~ 33), never the wrong way after that
    ok &= bool(np.all(np.diff(evens) >= 0.0)) and bool(np.all(np.diff(odds) <= 0.0))
    ok &= bool(np.all(np.diff(evens[:15]) > 0.0)) and bool(np.all(np.diff(odds[:15]) < 0.0))
    end_err = max(abs(tab[200] - lim), abs(tab[199] - lim))
    ok &= end_err <= 1e-12
    detail = (f"K_0..K_3 max gap {max(errs):.1e}; parity monotone to j=200; "
              f"|K_199,200 - 4/pi| <= {end_err:.1e}")
    return ok, detail


# ---------------------------------------------------------------------------
# criterion 3: random-vector sharpness scan plus Fejer near-extremal ratios
# ---------------------------------------------------------------------------


def _c3_sharpness() -> Tuple[bool, str]:
    n_checks, violations = bernstein_violation_scan()
    scan_ok = not violations
    parts = [f"random scan: {len(violations)} violations in {n_checks} checks"]
    if violations:
        worst = max(violations, key=lambda v: v[5])
        parts[-1] += (f" (worst lhs/rhs = {worst[5]:.5f} at m={worst[0]}, k={worst[1]}, "
                      f"h={worst[2]}, p={worst[3]})")
    fejer_ok = True
    j_list = (4, 8, 16, 32, 64)
    for m in (2, 3, 4):
        ratios = [fejer_extremal_ratio(m, j) for j in j_list]
        floor = ratios[-1] / spline_bernstein_constant(m, 1)
        mono = all(b > a for a, b in zip(ratios, ratios[1:]))
        fejer_ok &= mono and floor >= 0.93
        parts.append(f"fejer m={m}: floor {floor:.4f}, increasing={mono}")
    return scan_ok and fejer_ok, "; ".join(parts)


# ---------------------------------------------------------------------------
# criterion 4: wavelet constants dominate the Favard-quotient lower bound
# ---------------------------------------------------------------------------


def _c4_lower_bound() -> Tuple[bool, str]:
    worst = math.inf
    worst_at = None
    bad = []
    for m in range(1, 13):
        for k in range(1, min(3, m) + 1):
            bound = spline_wavelet_lower_bound(m, k)
            for p in (1.5, 2.0, 3.0):
                r = ckp("spline", "psi", m, k, p, tol=1e-6)
                margin = r.ratio / bound
                if margin < worst:
                    worst, worst_at = margin, (m, k, p)
                if r.ratio < bound:
                    bad.append((m, k, p, margin))
    detail = f"min ratio/bound = {worst:.4f} at (m,k,p)={worst_at}"
    if bad:
        detail += f"; {len(bad)} violations: {bad[:4]}"
    return not bad, detail


# ---------------------------------------------------------------------------
# criterion 5: constant-ratio sweeps converge, Richardson lands on the limit
# ---------------------------------------------------------------------------


def _c5_sweeps() -> Tuple[bool, str]:
    ok = True
    parts = []
    for target in ("splinePhiK", "splinePsiK", "daubPhiMinusK", "daubPsiK"):
        rep = asymptotic_sweep(target, k=1, p=2.0, tol=1e-6)
        shrink = rep.rel_error[-1] < rep.rel_error[0]
        rich_err = abs(rep.richardson - rep.predicted[0]) / abs(rep.predicted[0])
        good = shrink and rich_err <= 0.02
        ok &= good
        parts.append(
            f"{target}: rel_err {rep.rel_error[0]:.3f}->{rep.rel_error[-1]:.3f}, "
            f"richardson {rep.richardson:.6f} vs {rep.predicted[0]:.6f} "
            f"({100 * rich_err:.2f}%){'' if good else ' <-- FAIL'}"
        )
    return ok, "; ".join(parts)


# ---------------------------------------------------------------------------
# criterion 6: geometric decay rates of the diagonal constants
# ---------------------------------------------------------------------------


def _c6_rates() -> Tuple[bool, str]:
    parts = []
    rep = asymptotic_sweep("splineGeom", p=2.0, tol=1e-6)
    tgt = rep.predicted[0]
    mono_s = all(b < a for a, b in zip(rep.measured, rep.measured[1:]))
    err_s = abs(rep.measured[-1] - tgt) / tgt
    ok_s = mono_s and err_s <= 0.05
    parts.append(f"spline: C^(1/m) -> {rep.measured[-1]:.6f} vs {tgt:.6f} "
                 f"({100 * err_s:.2f}% vs 5%), monotone={mono_s}{'' if ok_s else ' <-- FAIL'}")
    rep = asymptotic_sweep("daubGeom", p=2.0, tol=1e-6)
    tgt = rep.predicted[0]
    mono_d = all(b > a for a, b in zip(rep.measured, rep.measured[1:]))
    err_d = abs(rep.measured[-1] - tgt) / tgt
    ok_d = mono_d and err_d <= 0.08
    parts.append(f"orthonormal: C^(1/m) -> {rep.measured[-1]:.6f} vs {tgt:.6f} "
                 f"({100 * err_d:.2f}% vs 8%), monotone={mono_d}{'' if ok_d else ' <-- FAIL'}")
    return ok_s and ok_d, "; ".join(parts)


# ---------------------------------------------------------------------------
# criterion 7: leading-order envelopes within 1 +- 3 m^{-1/2}
# ---------------------------------------------------------------------------


def _c7_envelopes() -> Tuple[bool, str]:
    ok = True
    parts = []
    spline_grid, daub_grid = (10, 16, 25, 36), (10, 14, 18)

    def _band_check(label, pairs):
        nonlocal ok
        bad = []
        for m, ratio in pairs:
            band = 3.0 / math.sqrt(m)
            if not (1.0 - band <= ratio <= 1.0 + band):
                bad.append(f"m={m}: {ratio:.4f} outside 1+-{band:.3f}")
        good = not bad
        ok &= good
        last = pairs[-1][1]
        parts.append(f"{label}: ratios end {last:.4f}"
                     + ("" if good else " <-- FAIL " + "; ".join(bad[:3])))

    for p in (2.0, 3.0):
        _band_check(
            f"splinePhiNorm k=0 p={p}",
            [(m, weighted_lp_norm("spline", "phi", m, 0.0, p, 1e-6).value
              / predict_norm_leading("splinePhiNorm", m=m, k=0, p=p)) for m in spline_grid],
        )
        _band_check(
            f"splinePsiNorm k=1 p={p}",
            [(m, weighted_lp_norm("spline", "psi", m, -1.0, p, 1e-6).value
              / predict_norm_leading("splinePsiNorm", m=m, k=1, p=p)) for m in spline_grid],
        )
        _band_check(
            f"splineDiagNorm p={p}",
            [(m, weighted_lp_norm("spline", "psi", m, -float(m), p, 1e-6).value
              / predict_norm_leading("splineDiagNorm", m=m, p=p)) for m in spline_grid],
        )
        lim = predict_limit("daubPhiMinusK", k=1, p=p)
        _band_check(
            f"daubPhiMinusK k=1 p={p}",
            [(m, ckp("daubechies", "phi", m, 1, p, tol=1e-6).ratio / lim) for m in daub_grid],
        )
    return ok, "; ".join(parts)


# ---------------------------------------------------------------------------
# criterion 8: structural identities of both families
# ---------------------------------------------------------------------------


def _c8_structure() -> Tuple[bool, str]:
    ok = True
    parts = []

    w = np.linspace(0.0, 2.0 * math.pi, 500, endpoint=False)
    qmf = max(
        float(np.max(np.abs(
            np.abs(_daub._mask_transform(m, w)) ** 2
            + np.abs(_daub._mask_transform(m, w + math.pi)) ** 2 - 1.0
        )))
        for m in range(1, 16)
    )
    ok &= qmf <= 1e-10
    parts.append(f"QMF residual {qmf:.1e}")

    x = np.linspace(0.0, 1.0, 41, endpoint=False)
    pou = max(
        float(np.max(np.abs(sum(_spl.bspline_value(m, x + j) for j in range(m)) - 1.0)))
        for m in range(1, 21)
    )
    ok &= pou <= 1e-12
    parts.append(f"partition-of-unity residual {pou:.1e}")

    big = {}
    rec_ok = True
    for m in range(3, 16):
        r = sorted(poly_real_roots(list(_spl.euler_frobenius(m))))
        rec_ok &= len(r) == 2 * m - 2 and all(x < 0.0 for x in r)
        rec_ok &= all(abs(r[i] * r[len(r) - 1 - i] - 1.0) < 1e-8 for i in range(len(r)))
        big[m] = [x for x in r if x < -1.0]
    inter_ok = all(
        all(big[m + 1][i] < big[m][i] < big[m + 1][i + 1] for i in range(len(big[m])))
        for m in range(3, 15)
    )
    ok &= rec_ok and inter_ok
    parts.append(f"spectral roots: negative+reciprocal={rec_ok}, interlacing={inter_ok}")

    wg = np.linspace(0.0, 2.0 * math.pi, 1001)
    lmax_ok = all(
        int(np.argmax(4.0 * np.sin(0.5 * wg) ** 2
                      * _spl.autocorrelation_symbol(m - 1, wg)
                      / _spl.autocorrelation_symbol(m, wg))) == 500
        for m in range(2, 16)
    )
    ok &= lmax_ok
    parts.append(f"transfer-ratio max at pi: {lmax_ok}")

    vm_ok = all(
        vanishing_moment_order(fam, m) == m
        for fam in ("spline", "daubechies") for m in range(1, 11)
    )
    ok &= vm_ok
    parts.append(f"vanishing moments == m: {vm_ok}")

    pars = max(abs(weighted_lp_norm("daubechies", "phi", m, 0.0, 2.0, 1e-6).value - 1.0)
               for m in (2, 4, 6, 8))
    ok &= pars <= 1e-6
    parts.append(f"orthonormal Parseval gap {pars:.1e}")

    k0 = (ckp("spline", "psi", 5, 0, 2.0).ratio, ckp("daubechies", "phi", 6, 0, 2.0).ratio)
    ok &= k0 == (1.0, 1.0)
    parts.append(f"k=0 ratios exactly 1: {k0 == (1.0, 1.0)}")

    fact = max(
        abs(tensor_lower_bound(m, k1, k2, kind)
            - tensor_lower_bound(m, k1, 0, kind) * tensor_lower_bound(m, 0, k2, kind)
            / tensor_lower_bound(m, 0, 0, kind))
        / tensor_lower_bound(m, k1, k2, kind)
        for m in (2, 4, 7) for k1 in (0, 1, 2) for k2 in (0, 1, 3) for kind in (1, 2, 3)
    )
    kinds = max(
        abs(tensor_lower_bound(m, k1, k2, 1) / tensor_lower_bound(m, k1, k2, 3) - 2.0 ** k2)
        + abs(tensor_lower_bound(m, k1, k2, 2) / tensor_lower_bound(m, k1, k2, 3) - 2.0 ** k1)
        for m in (2, 5) for k1 in (1, 2) for k2 in (1, 2)
    )
    t = tensor_ckp("spline", 3, 4, 1, 1, 2.0, tol=1e-6)
    a = ckp("spline", "psi", 4, 1, 2.0, tol=1e-6)
    tens_ok = fact <= 1e-12 and kinds <= 1e-12 and abs(t.value - a.ratio ** 2) <= 1e-12
    ok &= tens_ok
    parts.append(f"tensor factorization/kind ratios/product: {tens_ok}")

    return ok, "; ".join(parts)


# ---------------------------------------------------------------------------
# criterion 9: the CLI gate reproduces all of the above and exits cleanly
# ---------------------------------------------------------------------------


def _c9_full_verify() -> Tuple[bool, str]:
    proc = subprocess.run(
        [sys.executable, "-m", "bernwave", "verify", "--format", "json"],
        capture_output=True, text=True, timeout=3600,
    )
    tail = "; ".join(line for line in proc.stderr.strip().splitlines()[-9:])
    return proc.returncode == 0, f"exit code {proc.returncode}; {tail}"


_CRITERIA: List[Tuple[str, float, Callable[[], Tuple[bool, str]]]] = [
    ("printed-constants-digits", 1.0, _c1_printed_constants),
    ("favard-closed-forms", 1.0, _c2_favard),
    ("sharp-inequality-random-and-fejer", 120.0, _c3_sharpness),
    ("wavelet-ratio-lower-bound", 120.0, _c4_lower_bound),
    ("sweep-convergence-richardson", 600.0, _c5_sweeps),
    ("geometric-rates", 600.0, _c6_rates),
    ("leading-order-envelopes", 600.0, _c7_envelopes),
    ("structural-identities", 120.0, _c8_structure),
    ("full-verify", 1800.0, _c9_full_verify),
]

CRITERION_NAMES = tuple(name for name, _, _ in _CRITERIA)


def run_criterion(which) -> CriterionResult:
    """Run one criterion by 1-based index or name."""
    if isinstance(which, str) and which in CRITERION_NAMES:
        idx = CRITERION_NAMES.index(which)
    elif isinstance(which, int) and 1 <= which <= len(_CRITERIA):
        idx = which - 1
    else:
        raise ValueError(f"unknown criterion {which!r}")
    name, budget, func = _CRITERIA[idx]
    t0 = time.perf_counter()
    passed, detail = func()
    elapsed = time.perf_counter() - t0
    if elapsed > budget:
        passed = False
        detail = f"over budget ({elapsed:.1f}s > {budget:.0f}s); " + detail
    return CriterionResult(name, bool(passed), elapsed, budget, detail)


def run_all(
    names: Optional[Sequence[str]] = None,
    progress: Optional[Callable[[CriterionResult], None]] = None,
) -> List[CriterionResult]:
    """Run the selected criteria (default: all but the self-referential CLI
    gate, which would recurse) and return their results in order."""
    selected = tuple(names) if names is not None else CRITERION_NAMES[:-1]
    out = []
    for name in selected:
        res = run_criterion(name)
        out.append(res)
        if progress is not None:
            progress(res)
    return out
