"""Command-line front end.

Every subcommand prints one report envelope to stdout:

    {"command", "parameters", "results", "provenance", "tolerances",
     "wall_time_ms"}

with `results` a homogeneous list of flat records and `provenance` the named
reference constants the command's comparisons consulted (empty when the
command computes from first principles and cites nothing).  --format csv
emits just the results table.  Output is deterministic apart from
wall_time_ms.

Exit codes: 0 success, 1 a verification failed (a red criterion under
`verify`, a violated inequality under `bernstein`), 2 usage or parameter
errors.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
import time
from typing import Dict, List, Optional

import numpy as np

from . import __version__
from . import daubechies as _daub
from . import splines as _spl
from .acceptance import CRITERION_NAMES, run_all
from .constants import _SWEEP_TARGETS, _named_values, favard, spline_bernstein_constant
from .norms import (
    SPLINE_ORDER_LIMIT,
    asymptotic_sweep,
    bernstein_violation_scan,
    ckp,
    fejer_extremal_ratio,
    verify_bernstein_spline,
)
from .tensor import tensor_ckp, tensor_limit, tensor_lower_bound

_FAMILIES = ("spline", "daubechies")
# largest Favard index `constants` lists; every K_j past j ~ 60 rounds to 4/pi
FAVARD_J_LIMIT = 10_000


# ---------------------------------------------------------------------------
# envelope plumbing
# ---------------------------------------------------------------------------


def _emit(
    args,
    command: str,
    parameters: Dict,
    results: List[Dict],
    tolerances: Dict,
    t0: float,
    provenance: Optional[Dict] = None,
) -> None:
    if args.format == "csv":
        buf = io.StringIO()
        if results:
            writer = csv.DictWriter(buf, fieldnames=list(results[0].keys()))
            writer.writeheader()
            writer.writerows(results)
        sys.stdout.write(buf.getvalue())
        return
    envelope = {
        "command": command,
        "parameters": parameters,
        "results": results,
        "provenance": provenance if provenance is not None else {},
        "tolerances": tolerances,
        "wall_time_ms": int(round(1000.0 * (time.perf_counter() - t0))),
    }
    json.dump(envelope, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")


def _int_list(text: str) -> List[int]:
    try:
        return [int(tok) for tok in text.replace(",", " ").split()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated integer list: {text!r}")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_constants(args) -> int:
    t0 = time.perf_counter()
    if not 0 <= args.j_max <= FAVARD_J_LIMIT:
        raise ValueError(f"--j-max must be in [0, {FAVARD_J_LIMIT}], got {args.j_max}")
    rows = []
    if args.set in ("spline", "all"):
        rows += [{"name": name, "value": value} for name, value in _named_values().items()]
    if args.set in ("favard", "all"):
        for j in range(args.j_max + 1):
            rows.append({"name": f"K_{j}", "value": favard(j)})
    _emit(args, "constants", {"set": args.set, "j_max": args.j_max}, rows, {}, t0)
    return 0


def _cmd_mask(args) -> int:
    t0 = time.perf_counter()
    if args.m < 1:
        raise ValueError(f"order must be a positive integer, got {args.m}")
    if args.family == "spline" and args.m > SPLINE_ORDER_LIMIT:
        raise ValueError(f"spline masks are limited to m <= {SPLINE_ORDER_LIMIT}, got {args.m}")
    if args.family == "daubechies":
        h = [float(x) for x in np.asarray(_daub.daub_mask(args.m), dtype=float)]
        if args.part == "phi":
            coeffs = h
        else:
            n = len(h)
            coeffs = [((-1.0) ** i) * h[n - 1 - i] for i in range(n)]
        rows = [{"n": i, "coefficient": c} for i, c in enumerate(coeffs)]
    else:
        if args.part == "phi":
            # two-scale mask of the order-m B-spline: 2^{1-m} C(m, j)
            coeffs = [2.0 ** (1 - args.m) * math.comb(args.m, j) for j in range(args.m + 1)]
            rows = [{"n": i, "coefficient": c} for i, c in enumerate(coeffs)]
        else:
            rows = [
                {"n": i, "coefficient": float(q), "exact": f"{q.numerator}/{q.denominator}"}
                for i, q in enumerate(_spl.spline_wavelet(args.m))
            ]
    _emit(args, "mask", {"family": args.family, "part": args.part, "m": args.m}, rows, {}, t0)
    return 0


def _cmd_ckp(args) -> int:
    t0 = time.perf_counter()
    r = ckp(args.family, args.part, args.m, args.k, args.p, tol=args.tol)
    rows = [{
        "family": r.family, "part": r.part, "m": r.m, "k": r.k, "p": r.p,
        "numerator": r.numerator, "denominator": r.denominator,
        "ratio": r.ratio, "certified_rel_error": r.certified_rel_error,
    }]
    params = {"family": args.family, "part": args.part, "m": args.m, "k": args.k, "p": args.p}
    _emit(args, "ckp", params, rows, {"tol": args.tol}, t0)
    return 0


def _cmd_sweep(args) -> int:
    t0 = time.perf_counter()
    m_grid = args.m_grid
    if args.m_min is not None or args.m_max is not None:
        if m_grid is not None:
            raise ValueError("--m-grid conflicts with --m-min/--m-max")
        if args.m_min is None or args.m_max is None or args.m_min > args.m_max:
            raise ValueError("--m-min and --m-max must both be given, with m-min <= m-max")
        m_grid = list(range(args.m_min, args.m_max + 1))
    rep = asymptotic_sweep(args.target, m_grid=m_grid, k=args.k, p=args.p, tol=args.tol)
    rows = [
        {
            "m": m, "measured": ms, "predicted": ps, "rel_error": re,
            "richardson": rep.richardson,
            "fitted_decay_exponent": rep.fitted_decay_exponent,
        }
        for m, ms, ps, re in zip(rep.m_grid, rep.measured, rep.predicted, rep.rel_error)
    ]
    params = {"target": args.target, "m_grid": list(rep.m_grid), "k": args.k, "p": args.p}
    # a target converging to one closed-form constant cites that constant
    cited = {"predicted_constant": rep.predicted[0]} if len(set(rep.predicted)) == 1 else {}
    _emit(args, "sweep", params, rows, {"tol": args.tol}, t0, provenance=cited)
    return 0


def _cmd_sharpness(args) -> int:
    t0 = time.perf_counter()
    if args.scan:
        n_checks, violations = bernstein_violation_scan()
        rows = [
            {"m": m, "k": k, "h": h, "p": p, "vector_index": idx, "lhs_over_rhs": ratio}
            for (m, k, h, p, idx, ratio) in violations
        ]
        params = {"scan": True, "n_checks": n_checks, "n_violations": len(rows), "seed": 20260819}
        _emit(args, "sharpness", params, rows, {"slack": 1e-6}, t0)
        return 0
    bound = spline_bernstein_constant(args.m, args.k, p=args.p)
    rows = []
    for j in args.j_list:
        ratio = fejer_extremal_ratio(args.m, j, k=args.k, p=args.p)
        rows.append({"m": args.m, "k": args.k, "p": args.p, "j": j,
                     "ratio": ratio, "bound": bound, "floor": ratio / bound})
    params = {"scan": False, "m": args.m, "k": args.k, "p": args.p, "j_list": list(args.j_list)}
    _emit(args, "sharpness", params, rows, {}, t0, provenance={"sharp_bound": bound})
    return 0


def _cmd_bernstein(args) -> int:
    t0 = time.perf_counter()
    if args.coeffs is not None:
        text, source = args.coeffs, "inline"
    elif args.file is not None:
        try:
            with open(args.file, "r") as fh:
                text = fh.read()
        except OSError as exc:
            print(f"bernwave bernstein: cannot read {args.file}: {exc}", file=sys.stderr)
            return 2
        source = "file"
    else:
        text, source = sys.stdin.read(), "stdin"
    try:
        coeffs = [float(tok) for tok in text.replace(",", " ").split()]
    except ValueError:
        print("bernwave bernstein: coefficient stream is not numeric", file=sys.stderr)
        return 2
    if not coeffs:
        print(f"bernwave bernstein: no coefficients on {source}", file=sys.stderr)
        return 2
    r = verify_bernstein_spline(coeffs, args.m, args.k, h=args.h, p=args.p, slack=args.slack)
    rows = [{
        "m": r.m, "k": r.k, "h": r.h, "p": r.p,
        "lhs": r.lhs, "rhs": r.rhs, "lhs_over_rhs": r.ratio, "ok": r.ok,
    }]
    params = {"m": args.m, "k": args.k, "h": args.h, "p": args.p, "n_coefficients": len(coeffs)}
    cited = {"sharp_bound": spline_bernstein_constant(args.m, args.k, h=args.h, p=args.p)}
    _emit(args, "bernstein", params, rows, {"slack": args.slack}, t0, provenance=cited)
    return 0 if r.ok else 1


def _cmd_tensor(args) -> int:
    t0 = time.perf_counter()
    if args.m < 1:
        raise ValueError(f"order must be a positive integer, got {args.m}")
    if not (math.isfinite(args.tol) and args.tol > 0.0):
        raise ValueError(f"--tol must be finite and positive, got {args.tol}")
    bound = tensor_lower_bound(args.m, args.k1, args.k2, args.kind) if args.family == "spline" else None
    limit = tensor_limit(args.family, args.kind, args.k1, args.k2, p=args.p)
    row = {
        "family": args.family, "kind": args.kind, "m": args.m,
        "k1": args.k1, "k2": args.k2, "p": args.p,
        "limit": limit, "lower_bound": bound,
    }
    if not args.limit_only:
        r = tensor_ckp(args.family, args.kind, args.m, args.k1, args.k2, args.p, tol=args.tol)
        row.update({
            "axis1_ratio": r.axis1.ratio, "axis2_ratio": r.axis2.ratio,
            "value": r.value, "certified_rel_error": r.certified_rel_error,
        })
    params = {k: row[k] for k in ("family", "kind", "m", "k1", "k2", "p")}
    cited = {"limit": limit}
    if bound is not None:
        cited["lower_bound"] = bound
    _emit(args, "tensor", params, [row], {"tol": args.tol}, t0, provenance=cited)
    return 0


def _parse_criteria(text: str) -> List[str]:
    if text.strip() == "all":
        return list(CRITERION_NAMES)
    names = []
    for tok in text.replace(",", " ").split():
        if tok.isdigit():
            idx = int(tok)
            if not 1 <= idx <= len(CRITERION_NAMES):
                raise ValueError(f"criterion index out of range: {tok}")
            names.append(CRITERION_NAMES[idx - 1])
        elif tok in CRITERION_NAMES:
            names.append(tok)
        else:
            raise ValueError(f"unknown criterion: {tok!r}")
    if not names:
        raise ValueError("empty criterion list")
    return names


def _cmd_verify(args) -> int:
    t0 = time.perf_counter()
    names = _parse_criteria(args.criteria) if args.criteria is not None else None
    results = run_all(names, progress=lambda res: print(res.line, file=sys.stderr, flush=True))
    rows = [
        {
            "name": r.name, "passed": r.passed, "elapsed_s": round(r.elapsed_s, 3),
            "budget_s": r.budget_s, "detail": r.detail,
        }
        for r in results
    ]
    params = {"criteria": [r.name for r in results]}
    _emit(args, "verify", params, rows, {}, t0)
    return 0 if all(r.passed for r in results) else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bernwave",
        description="certified wavelet coefficient constants and the reports behind them",
    )
    parser.add_argument("--version", action="version", version=f"bernwave {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "csv"), default="json",
                        help="report envelope (json) or bare results table (csv)")

    pc = sub.add_parser("constants", parents=[common],
                        help="profile constants and Favard numbers")
    pc.add_argument("--set", choices=("spline", "favard", "all"), default="all")
    pc.add_argument("--j-max", type=int, default=10, help="largest Favard index to list")
    pc.set_defaults(func=_cmd_constants)

    pm = sub.add_parser("mask", parents=[common],
                        help="two-scale coefficient masks of either family")
    pm.add_argument("--family", choices=_FAMILIES, required=True)
    pm.add_argument("--m", type=int, required=True, help="order / vanishing moments")
    pm.add_argument("--part", choices=("phi", "psi"), default="phi")
    pm.set_defaults(func=_cmd_mask)

    pk = sub.add_parser("ckp", parents=[common],
                        help="certified coefficient constant C_{k,p}")
    pk.add_argument("--family", choices=_FAMILIES, required=True)
    pk.add_argument("--part", choices=("phi", "psi"), default="psi")
    pk.add_argument("--m", type=int, required=True)
    pk.add_argument("--k", type=int, required=True)
    pk.add_argument("--p", type=float, default=2.0)
    pk.add_argument("--tol", type=float, default=1e-8)
    pk.set_defaults(func=_cmd_ckp)

    ps = sub.add_parser("sweep", parents=[common],
                        help="measure a constant across orders against its prediction")
    ps.add_argument("--target", required=True, help="one of " + ", ".join(_SWEEP_TARGETS))
    ps.add_argument("--m-grid", type=_int_list, default=None,
                    help="comma-separated orders (default: the target's standard grid)")
    ps.add_argument("--m-min", type=int, default=None,
                    help="with --m-max: sweep every order in [m-min, m-max]")
    ps.add_argument("--m-max", type=int, default=None)
    ps.add_argument("--k", type=int, default=1)
    ps.add_argument("--p", type=float, default=2.0)
    ps.add_argument("--tol", type=float, default=1e-6)
    ps.set_defaults(func=_cmd_sweep)

    ph = sub.add_parser("sharpness", parents=[common],
                        help="near-extremal ratios or the random violation scan")
    ph.add_argument("--m", type=int, default=2)
    ph.add_argument("--k", type=int, default=1)
    ph.add_argument("--p", type=float, default=2.0)
    ph.add_argument("--j-list", type=_int_list, default=[4, 8, 16, 32, 64])
    ph.add_argument("--scan", action="store_true",
                    help="run the seeded random-vector scan instead of the concentrating profiles")
    ph.set_defaults(func=_cmd_sharpness)

    pb = sub.add_parser("bernstein", parents=[common],
                        help="check the derivative inequality for a coefficient vector")
    pb.add_argument("--m", type=int, required=True)
    pb.add_argument("--k", type=int, required=True)
    pb.add_argument("--h", type=int, default=1)
    pb.add_argument("--p", type=float, default=2.0)
    pb.add_argument("--slack", type=float, default=1e-6)
    src = pb.add_mutually_exclusive_group()
    src.add_argument("--coeffs", default=None,
                     help="inline whitespace/comma-separated coefficients")
    src.add_argument("--file", default=None,
                     help="file of whitespace/comma-separated coefficients")
    pb.set_defaults(func=_cmd_bernstein)

    pt = sub.add_parser("tensor", parents=[common],
                        help="separable two-axis constants, limits, and floors")
    pt.add_argument("--family", choices=_FAMILIES, required=True)
    pt.add_argument("--kind", type=int, choices=(1, 2, 3), required=True,
                    help="1: wavelet x scaling, 2: scaling x wavelet, 3: wavelet x wavelet")
    pt.add_argument("--m", type=int, required=True)
    pt.add_argument("--k1", type=int, required=True)
    pt.add_argument("--k2", type=int, required=True)
    pt.add_argument("--p", type=float, default=2.0)
    pt.add_argument("--tol", type=float, default=1e-6)
    pt.add_argument("--limit-only", action="store_true",
                    help="skip the measured constant; report limit and floor only")
    pt.set_defaults(func=_cmd_tensor)

    pv = sub.add_parser("verify", parents=[common],
                        help="run the acceptance criteria; exit 0 only if all pass")
    pv.add_argument("--criteria", default=None,
                    help="names or 1-based indices; 'all' includes the self-referential gate")
    pv.set_defaults(func=_cmd_verify)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"bernwave {args.command}: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"bernwave {args.command}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
