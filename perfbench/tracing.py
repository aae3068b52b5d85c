"""Spans around bernwave's public functions, recorded from the benchmark's
own files, and the per-layer metrics computed from them.

install() replaces module attributes with wrappers that record a span per
call: name, start, end, the enclosing span, the operation it belongs to, the
phase of the run and a few attributes read from the arguments or from the
result (the panel count and cutoff a NormResult returns).  Spans stay in
memory until the run ends.  uninstall() puts the original functions back.
"""

from __future__ import annotations

import json
import math
import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: Optional[int] = None
    op: Optional[int] = None
    phase: str = ""
    attrs: dict = field(default_factory=dict)

    @property
    def ms(self) -> float:
        return 1e3 * (self.end - self.start)


def _norm_attrs(args, kwargs, res):
    q = res.query
    return {"key": (q.family, q.part, q.m, q.alpha, q.p), "family": q.family, "part": q.part,
            "m": q.m, "p": q.p, "panels": res.panels, "cutoff_log2": math.log2(res.cutoff / math.pi)}


def _no_attrs(args, kwargs, res):
    return {}


# (module attribute, span name, attributes)
_WRAPPED = (
    ("norms", "weighted_lp_norm", _norm_attrs),
    ("norms", "ckp", _no_attrs),
    ("norms", "coefficient_bound_check", _no_attrs),
    ("norms", "verify_bernstein_spline", lambda a, kw, r: {"length": len(a[0])}),
    ("norms", "bernstein_violation_scan", _no_attrs),
    ("norms", "fejer_extremal_ratio", _no_attrs),
    ("numerics", "poly_real_roots", lambda a, kw, r: {"degree": len(a[0]) - 1}),
    ("splines", "spline_wavelet", _no_attrs),
)


class Tracer:
    def __init__(self, bw):
        self.bw = bw
        self.spans: List[Span] = []
        self.phase = ""
        self._stack: List[int] = []
        self._op: Optional[int] = None
        self._saved = []

    def install(self):
        for mod_name, attr, attrs in _WRAPPED:
            mod = getattr(self.bw, mod_name)
            orig = getattr(mod, attr)
            self._saved.append((mod, attr, orig))
            setattr(mod, attr, self._wrap(attr, orig, attrs))

    def uninstall(self):
        for mod, attr, orig in reversed(self._saved):
            setattr(mod, attr, orig)
        self._saved = []

    def _wrap(self, name, fn, attrs):
        def wrapper(*args, **kwargs):
            span = Span(name, 0.0, parent=self._stack[-1] if self._stack else None, op=self._op, phase=self.phase)
            self.spans.append(span)
            self._stack.append(len(self.spans) - 1)
            span.start = time.perf_counter()
            try:
                res = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            span.attrs = attrs(args, kwargs, res)
            return res

        return wrapper

    def dump(self, path):
        """Write the spans as JSON lines; parent is the index of the enclosing span."""
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps({"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
                                    "op": s.op, "phase": s.phase, "attrs": s.attrs}, default=str) + "\n")

    def begin_op(self, op_id: int):
        self._op = op_id

    def end_op(self):
        self._op = None


def _median(xs):
    return statistics.median(xs) if xs else None


def _first_call_ms(spans, cold_phases, warm_phase, select, group):
    """Median over cold phases and groups of (first matching call of the group
    in a cold phase) minus (median of the same call when warm)."""
    warm: Dict[tuple, list] = {}
    for s in spans:
        if s.phase == warm_phase and select(s):
            warm.setdefault(s.attrs["key"], []).append(s.ms)
    diffs = []
    for phase in cold_phases:
        seen = set()
        for s in spans:
            if s.phase != phase or not select(s):
                continue
            g = group(s)
            if g in seen:
                continue
            seen.add(g)
            if s.attrs["key"] in warm:
                diffs.append(s.ms - statistics.median(warm[s.attrs["key"]]))
    return _median(diffs)


def layer_metrics(spans: List[Span], cold_phases, warm_phase) -> Dict[str, float]:
    """Per-layer metrics from one tracer's spans; a metric whose layer has no
    span in warm_phase is left out."""
    warm = [s for s in spans if s.phase == warm_phase]

    def ms(name, pred=lambda s: True):
        return _median([s.ms for s in warm if s.name == name and pred(s)])

    norms = [s for s in warm if s.name == "weighted_lp_norm"]
    out = {
        "norms.weighted_lp_norm_ms": ms("weighted_lp_norm"),
        "norms.panels_per_norm": statistics.fmean([s.attrs["panels"] for s in norms]) if norms else None,
        "norms.cutoff_log2_max": max((s.attrs["cutoff_log2"] for s in norms), default=None),
        "norms.daub_first_call_ms": _first_call_ms(
            spans, cold_phases, warm_phase,
            lambda s: s.name == "weighted_lp_norm" and s.attrs["family"] == "daubechies",
            lambda s: s.attrs["m"]),
        "norms.spline_psi_first_call_ms": _first_call_ms(
            spans, cold_phases, warm_phase,
            lambda s: s.name == "weighted_lp_norm" and s.attrs["family"] == "spline" and s.attrs["part"] == "psi",
            lambda s: (s.attrs["m"], s.attrs["p"])),
        "norms.coefficient_bound_check_ms": ms("coefficient_bound_check"),
        "norms.verify_short_ms": ms("verify_bernstein_spline", lambda s: s.attrs["length"] <= 8),
        "norms.verify_long_ms": ms("verify_bernstein_spline", lambda s: s.attrs["length"] > 8),
        "norms.violation_scan_ms": ms("bernstein_violation_scan"),
        "norms.fejer_ms": ms("fejer_extremal_ratio"),
        "splines.spline_wavelet_ms": ms("spline_wavelet"),
    }
    for deg in sorted({s.attrs["degree"] for s in warm if s.name == "poly_real_roots"}):
        out[f"numerics.poly_real_roots_ms.deg{deg}"] = ms("poly_real_roots", lambda s, d=deg: s.attrs["degree"] == d)
    return {k: v for k, v in out.items() if v is not None}
