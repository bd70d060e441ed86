"""Fast self-test of the benchmark at tiny sizes (a few seconds)."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from spans import PER_LAYER, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _bench(*args: str, root: Path = BENCH.parent) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(root / "perfbench" / "run.py"), *args],
                          capture_output=True, text=True, timeout=120)


def test_self_time_excludes_child_spans():
    tr = Tracer()
    inner = tr.wrap("core.inner", lambda: time.sleep(0.02))

    def body():
        time.sleep(0.01)
        inner()

    outer = tr.wrap("solver.outer", body)
    tr.active = True
    tr.begin_op(0)
    outer()
    assert list(tr.span_parent) == [-1, 0]
    assert list(tr.span_op) == [0, 0]
    m = tr.op_metrics()
    assert 0.009 <= m["solver.self_s"] < 0.02
    assert m["core.self_s"] >= 0.019
    total = tr.span_end[0] - tr.span_start[0]
    assert m["solver.self_s"] + m["core.self_s"] == pytest.approx(total)


def test_benchmark_json_matches_the_code():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["perfbench"]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(PER_LAYER)


def test_summary_percentile_needs_ten_samples_beyond_it():
    assert run.summary([1.0, 3.0, 2.0])["pct"] is None
    s = run.summary([float(i) for i in range(100)])
    assert (s["median"], s["n"], s["pct"], s["pct_value"]) == (49.5, 100, 90, 90.0)


def test_outputs_and_counters_must_repeat_between_runs(tmp_path):
    record = tmp_path / "repeat.json"
    problems: list[str] = []
    run.compare_with_earlier(record, "code", "hash1", None, problems)
    run.compare_with_earlier(record, "code", "hash1", {"solver.jumps": 14.0}, problems)
    assert problems == []
    run.compare_with_earlier(record, "code", "hash2", {"solver.jumps": 15.0}, problems)
    assert len(problems) == 2
    problems = []
    run.compare_with_earlier(record, "other code", "hash2", {"solver.jumps": 15.0}, problems)
    assert problems == []


def test_tiny_traced_fig3_run():
    proc = _bench("--workload", "fig3", "--size", "tiny", "--seconds", "0", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 3
    metrics = result["metrics"]
    assert list(metrics) == [name for name, _ in PER_LAYER]
    assert metrics["solver.solves"]["value"] == 2  # simulate, then replay regenerates
    assert metrics["solver.jumps"]["value"] == 1
    assert metrics["core.check_rhs_evals"]["value"] > 0


def test_tiny_untraced_toggle_run():
    proc = _bench("--workload", "toggle", "--size", "tiny", "--seconds", "0", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["attempted"] == 1
    assert set(result["metrics"]) == {name for name, _ in run.END_TO_END}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "work", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = _bench("--workload", "fig3", root=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
