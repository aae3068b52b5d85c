"""Benchmark of bernwave's certified norms and Bernstein checks.

    python3 perfbench/run.py --workload norms-p2 --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --quick [--workload NAME]

Run from the root of a checkout; bernwave is imported from its src/.  One
process, one thread, one client in a closed loop: each operation starts when
the one before it has returned.  A run imports bernwave and sets up SETUPS
times (clear every lru_cache in bernwave, then one untimed warm-up pass over
the operation list); each set-up is followed by a third of the timed phase,
whole passes, each in a seeded order, until the timed operations have taken
--seconds in all.  The end-to-end metrics are taken from the median of
each operation's timed durations.  Every output is checked against the
references in refs.py.  The last line of stdout is one JSON object: with
--trace 0 the end-to-end metrics, with --trace 1 the per-layer ones
from a separate traced run.  --quick runs each operation list once, with its
checks (the probe list of traced runs too), and reports no metric but the
time of each list.  See README.md for the workloads and metrics.
"""

import os

# BLAS and OpenMP pools would compete for the machine's two cores
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import collections
import gc
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"  # results, timed durations, and the spans of traced runs
SETUPS = 3

END_TO_END = {"ops_per_s": "1/s", "op_p50_ms": "ms", "op_tail_ms": "ms", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "setup.import_s": "s",
    "norms.daub_first_call_ms": "ms",
    "norms.spline_psi_first_call_ms": "ms",
    "norms.weighted_lp_norm_ms": "ms",
    "norms.panels_per_norm": "count",
    "norms.cutoff_log2_max": "log2",
    "norms.coefficient_bound_check_ms": "ms",
    "daubechies.phi_hat_ns_per_node": "ns",
    "splines.wavelet_magnitude_ns_per_node": "ns",
    "norms.verify_short_ms": "ms",
    "norms.verify_long_ms": "ms",
    "norms.violation_scan_ms": "ms",
    "norms.fejer_ms": "ms",
    **{f"numerics.poly_real_roots_ms.deg{2 * m - 2}": "ms" for m in range(2, 9)},
    "splines.spline_wavelet_ms": "ms",
    "trace.overhead_pct": "%",
}


def tail_percentile(n):
    """The highest whole percentile of n values with at least ten of them
    beyond it: numpy's linear interpolation puts percentile q at index
    q (n - 1) / 100, which must stay below n - 10."""
    if n < 40:
        raise ValueError(f"{n} operations: a tail needs 40 or more")
    return math.ceil(100.0 * (n - 10) / (n - 1)) - 1


def import_bernwave():
    src = ROOT / "src"
    if not (src / "bernwave" / "__init__.py").is_file():
        sys.exit(f"run.py: no bernwave sources under {src}; run from the root of a checkout")
    sys.path.insert(0, str(src))
    # numpy and scipy are first imported here, by bernwave, so they count in
    # setup.import_s; nothing in this file imports them before this point
    t0 = time.perf_counter()
    from bernwave import constants, daubechies, norms, numerics, splines
    import_s = time.perf_counter() - t0
    bw = SimpleNamespace(constants=constants, daubechies=daubechies, norms=norms,
                         numerics=numerics, splines=splines)
    return bw, import_s


def clear_caches():
    for name, mod in list(sys.modules.items()):
        if name == "bernwave" or name.startswith("bernwave."):
            for obj in list(vars(mod).values()):
                clear = getattr(obj, "cache_clear", None)
                if callable(clear):
                    clear()
    gc.collect()


class Runner:
    def __init__(self, workload, tracer=None):
        self.wl = workload
        self.tracer = tracer
        self.errors = []
        self.attempted = 0
        self.failed = 0
        self._op_id = 0

    def run_pass(self, order):
        """One pass in the given order.  Returns the durations of the
        operations that completed, by index, and the time all of them took,
        in s."""
        times, spent, results, failed = {}, 0.0, {}, False
        for i in order:
            op = self.wl.ops[i]
            self.attempted += 1
            if self.tracer is not None:
                self._op_id += 1
                self.tracer.begin_op(self._op_id)
            t0 = time.perf_counter()
            try:
                res = op.call()
            except Exception as exc:  # a refused or crashed operation counts as failed
                self.failed += 1
                failed = True
                print(f"failed {op.key}: {exc!r}", file=sys.stderr)
                continue
            finally:
                spent += time.perf_counter() - t0
                if self.tracer is not None:
                    self.tracer.end_op()
            times[i] = time.perf_counter() - t0
            results[op.key] = res
            self.errors += op.check(res)
        if not failed:
            self.errors += self.wl.cross_check(results)
        return times, spent

    def run_for(self, seconds, rng, samples):
        """Whole passes, each in a fresh seeded order, until their operations
        have taken seconds; appends each duration to samples[op index] and
        returns the time taken."""
        spent = 0.0
        while spent < seconds or not spent:
            t, s = self.run_pass(rng.permutation(len(self.wl.ops)))
            for i, dt in t.items():
                samples[i].append(dt)
            spent += s
        return spent

    def setup(self):
        """Clear every cache, then one warm-up pass; returns its time."""
        clear_caches()
        return self.run_pass(range(len(self.wl.ops)))[1]


def ns_per_node(fn):
    """Median time per node of fn on a fixed node set spanning the
    quadrature windows, pi/64 to pi 2^13."""
    import numpy as np

    nodes = np.geomspace(math.pi / 64.0, math.pi * 2.0 ** 13, 1 << 16)
    fn(nodes)
    ts = []
    for _ in range(5):
        t0 = time.perf_counter()
        fn(nodes)
        ts.append(time.perf_counter() - t0)
    return 1e9 * statistics.median(ts) / nodes.size


def end_to_end(runner, import_s, seconds, rng, samples_path):
    import numpy as np

    # each set-up is followed by a third of the timed passes, so the timed
    # operations are spread over the whole run rather than over its last
    # seconds: the machine's speed drifts over periods of seconds to minutes
    setup_times, samples, spent = [], collections.defaultdict(list), 0.0
    for i in range(SETUPS):
        setup_times.append(runner.setup())
        spent += runner.run_for(seconds * (i + 1) / SETUPS - spent, rng, samples)
    samples_path.write_text(json.dumps({str(runner.wl.ops[i].key): v for i, v in sorted(samples.items())}) + "\n")

    # each operation's median in the run, so that every operation counts
    # once whatever its pass count, and the tail sits at a fixed operation
    typical = 1e3 * np.array([statistics.median(v) for v in samples.values()])
    return {
        "ops_per_s": len(typical) / (1e-3 * typical.sum()),
        "op_p50_ms": float(np.median(typical)),
        "op_tail_ms": float(np.percentile(typical, tail_percentile(len(typical)))),
        "setup_s": import_s + statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(runner, bw, import_s, seconds, rng, spans_path):
    import tracing
    import workloads

    tracer = tracing.Tracer(bw)
    runner.tracer = tracer
    tracer.install()
    for i in range(SETUPS):
        tracer.phase = f"setup{i}"
        runner.setup()
    tracer.uninstall()
    runner.tracer = None
    # traced and untraced passes alternate, so that both sample the same
    # drift of the machine's speed; the ratio of their rates is the overhead
    tracer.phase = "timed"
    done = {False: [0, 0.0], True: [0, 0.0]}
    traced = False
    while done[False][1] + done[True][1] < seconds or traced:
        if traced:
            tracer.install()
            runner.tracer = tracer
        t, s = runner.run_pass(rng.permutation(len(runner.wl.ops)))
        if traced:
            tracer.uninstall()
            runner.tracer = None
        done[traced][0] += len(t)
        done[traced][1] += s
        traced = not traced
    metrics = tracing.layer_metrics(tracer.spans, [f"setup{i}" for i in range(SETUPS)], "timed")
    tracer.dump(spans_path)

    # layers this workload does not call are measured on the probe list
    probe = Runner(workloads.probe(bw), tracing.Tracer(bw))
    probe.tracer.install()
    clear_caches()
    for phase in ("probe-cold", "probe-warm"):
        probe.tracer.phase = phase
        probe.run_pass(range(len(probe.wl.ops)))
    probe.tracer.uninstall()
    runner.errors += probe.errors
    runner.attempted += probe.attempted
    runner.failed += probe.failed
    out = tracing.layer_metrics(probe.tracer.spans, ["probe-cold"], "probe-warm")
    out.update(metrics)
    out["setup.import_s"] = import_s
    out["daubechies.phi_hat_ns_per_node"] = ns_per_node(
        lambda w: bw.daubechies.daub_phi_hat_magnitude(10, w, tol=workloads.TOL / 8.0))
    out["splines.wavelet_magnitude_ns_per_node"] = ns_per_node(
        lambda w: bw.splines.spline_wavelet_magnitude(10, w))
    (n_plain, plain_s), (n_traced, traced_s) = done[False], done[True]
    out["trace.overhead_pct"] = 100.0 * ((n_plain / plain_s) / (n_traced / traced_s) - 1.0)
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=12.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true",
                    help="run each operation list, and the probe list of traced runs, once with its checks")
    args = ap.parse_args(argv)
    if not args.quick and args.workload is None:
        ap.error("--workload is required unless --quick is given")

    bw, import_s = import_bernwave()
    sys.path.insert(0, str(HERE))
    import numpy as np
    import workloads

    if args.workload is not None and args.workload not in workloads.WORKLOADS:
        ap.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    if args.quick:
        lists = {name: workloads.build(name, bw, args.seed)
                 for name in ([args.workload] if args.workload else workloads.WORKLOADS)}
        if not args.workload:
            lists["probe"] = workloads.probe(bw)
        errors, attempted, failed, metrics = [], 0, 0, {}
        for name, wl in lists.items():
            runner = Runner(wl)
            clear_caches()
            t0 = time.perf_counter()
            runner.run_pass(range(len(runner.wl.ops)))
            metrics[f"{name}.pass_s"] = {"value": time.perf_counter() - t0, "unit": "s"}
            errors += runner.errors
            attempted += runner.attempted
            failed += runner.failed
        for e in errors:
            print(e, file=sys.stderr)
        print(json.dumps({"correct": not errors, "attempted": attempted, "failed": failed, "metrics": metrics}))
        return 0 if not errors and not failed else 1

    runner = Runner(workloads.build(args.workload, bw, args.seed))
    rng = np.random.default_rng([args.seed, 1])
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        values = per_layer(runner, bw, import_s, args.seconds, rng, OUT / f"{stem}-spans.jsonl")
    else:
        values = end_to_end(runner, import_s, args.seconds, rng, OUT / f"{stem}-samples.json")
    units = PER_LAYER if args.trace else END_TO_END
    for e in runner.errors:
        print(e, file=sys.stderr)
    result = json.dumps({
        "correct": not runner.errors,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    })
    (OUT / f"{stem}.json").write_text(result + "\n")
    print(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
