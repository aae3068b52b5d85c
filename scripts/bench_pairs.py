"""Run perfbench on two checkouts in alternating pairs and record every result line.

    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --workload bernstein \
        --seeds 101-110 --out pairs.json

Each directory is a checkout of the repository (perfbench and src).  Pair i
runs with seed seeds[i] on both sides, the parent first when i is even and
the change first when i is odd, since the second run of a pair can read
slower.  Each run's last stdout line is appended to the runs list of --out
(created when missing), and the file's summary is recomputed over all its
runs: per workload and end-to-end metric, the quartiles of each side and the
number of pairs in which the change reads better.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

import numpy as np

BETTER = {"ops_per_s": 1.0, "op_p50_ms": -1.0, "op_tail_ms": -1.0, "setup_s": -1.0, "peak_rss_mb": -1.0}


def run_once(root: str, workload: str, seed: int, trace: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--trace", str(trace), "--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(runs: list) -> dict:
    out = {}
    for wl in sorted({r["workload"] for r in runs}):
        pairs = {}
        for r in runs:
            if r["workload"] == wl and r["trace"] == 0:
                metrics = r["result"]["metrics"]
                pairs.setdefault(r["seed"], {})[r["side"]] = {n: metrics[n]["value"] for n in BETTER}
        pairs = [p for p in pairs.values() if len(p) == 2]
        if not pairs:
            continue
        out[wl] = {"pairs": len(pairs)}
        for name, sign in BETTER.items():
            side = {s: [p[s][name] for p in pairs] for s in ("parent", "change")}
            wins = sum(sign * (p["change"][name] - p["parent"][name]) > 0 for p in pairs)
            out[wl][name] = {
                **{s: [float(q) for q in np.percentile(v, [25, 50, 75])] for s, v in side.items()},
                "change_better_pairs": wins,
            }
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True, help="first-last, inclusive")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--seconds", type=float, default=12.0)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    first, last = (int(s) for s in args.seeds.split("-"))
    record = {"runs": []}
    if os.path.exists(args.out):
        with open(args.out) as fh:
            record = json.load(fh)
    for i, seed in enumerate(range(first, last + 1)):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for position, side in enumerate(order):
            root = args.parent if side == "parent" else args.change
            result = run_once(root, args.workload, seed, args.trace, args.seconds)
            record["runs"].append({"workload": args.workload, "seed": seed, "trace": args.trace,
                                   "side": side, "position": position, "result": result})
            print(f"{args.workload} seed {seed} {side}: {result['metrics'].get('ops_per_s', {}).get('value')}",
                  file=sys.stderr, flush=True)
            record["summary"] = summarize(record["runs"])
            with open(args.out, "w") as fh:
                json.dump(record, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
