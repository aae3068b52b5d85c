"""Tests of the benchmark itself, through its quick mode.

    python3 -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _run(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=900)


def test_quick_mode_runs_every_workload_and_its_checks():
    proc = _run(ROOT, "--quick", "--seed", "7")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert proc.returncode == 0, proc.stderr
    assert out["correct"] and out["failed"] == 0 and out["attempted"] > 0


def test_benchmark_json_lists_the_metrics_run_py_prints():
    sys.path.insert(0, str(HERE))
    import run
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_refuses_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = _run(tmp_path, "--workload", "bernstein", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0 and proc.stdout == ""


def test_traced_run_reports_every_per_layer_metric():
    sys.path.insert(0, str(HERE))
    import run

    proc = _run(ROOT, "--workload", "bernstein", "--seed", "3", "--seconds", "1", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out["correct"] and out["failed"] == 0
    assert set(out["metrics"]) == set(run.PER_LAYER)


def test_tail_percentile_leaves_ten_operations_beyond_it():
    sys.path.insert(0, str(HERE))
    import numpy as np
    import run

    for n in (40, 70, 182):
        q = run.tail_percentile(n)
        values = np.arange(n, dtype=float)
        assert (values > np.percentile(values, q)).sum() >= 10
        assert (values > np.percentile(values, q + 1)).sum() < 10
