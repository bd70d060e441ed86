"""hybridkit benchmark: one workload per invocation, checked and timed.

    python3 perfbench/run.py --workload fig3|toggle|chain [--seed N] \\
        [--seconds 10] [--trace 0|1]

Run from anywhere; the program under test is the ``src/`` next to this
directory.  The benchmark

1. runs the workload in one fresh worker process (``worker.py``), single
   threaded, through ``hybridkit.cli.main``, checking every op's outputs;
2. untraced, times ``SIZES[size]["setup_reps"]`` fresh interpreters that import
   ``hybridkit.cli`` and build the fixture ``catalog()``, the larger half
   before the worker and the rest after it, so that a passing slowdown of
   the host moves fewer of them (``setup_s`` is their median);
3. prints every metric by name with its unit, writes the full record to
   ``perfbench/out/``, and prints one JSON object as the last line.

With ``--trace 0`` the metrics are the end-to-end ones (``op_s``, ``setup_s``,
``peak_rss_mb``); with ``--trace 1`` they are the per-layer ones of
``spans.PER_LAYER``, from traced ops, plus the tracing overhead against an
untraced op of the same run.  Outputs or a deterministic per-layer counter
that differ between two ops of a run, or from an earlier run of the same code
on the same inputs, make the result incorrect.

Exits 2 without a result when there is no ``src/hybridkit`` to measure, and
3 when a process fails or runs out of time.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from spans import DETERMINISTIC, PER_LAYER  # noqa: E402
from workloads import DEFAULT_SEED, SIZES, WORKLOADS  # noqa: E402

#: a run must end within this many seconds of its start
DEADLINE_S = 170.0

END_TO_END = (("op_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))

SETUP_CODE = "import hybridkit.cli, hybridkit.systems as s; s.catalog()"


class BenchError(Exception):
    """The benchmark could not produce a result."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    return env


def run_child(argv: list[str], deadline: float) -> subprocess.CompletedProcess:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting " + " ".join(argv[:3]))
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"timed out: {' '.join(argv[:3])}") from exc
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(argv[:3])} exited {proc.returncode}:\n{proc.stderr}")
    return proc


def measure_setup(reps: int, deadline: float) -> list[float]:
    times = []
    for _ in range(reps):
        t = time.perf_counter()
        run_child([sys.executable, "-c", SETUP_CODE], deadline)
        times.append(time.perf_counter() - t)
    return times


def summary(samples: list[float]) -> dict:
    """Median, the highest of p99/p95/p90/p75 with at least ten samples
    beyond it (None when there are too few samples), and the count."""
    s = sorted(samples)
    out = {"median": statistics.median(s), "n": len(s), "pct": None, "pct_value": None}
    for pct in (99, 95, 90, 75):
        if len(s) * (100 - pct) / 100 >= 10:
            out["pct"] = pct
            out["pct_value"] = s[min(len(s) - 1, int(len(s) * pct / 100))]
            break
    return out


def environment() -> dict:
    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10,
                              env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu, "git_commit": commit,
            "code_sha256": code_hash()}


def code_hash() -> str:
    """Identity of the measured code: hybridkit's sources and the benchmark's."""
    h = hashlib.sha256()
    for f in sorted([*(ROOT / "src").rglob("*.py"), *BENCH.glob("*.py")]):
        h.update(str(f.relative_to(ROOT)).encode())
        h.update(f.read_bytes())
    return h.hexdigest()


def layer_metrics(layers: list[dict], problems: list[str]) -> dict[str, float]:
    """Per-layer values of a traced run: counters must agree across its ops;
    times are medians."""
    out = {}
    for name, _ in PER_LAYER:
        values = [m[name] for m in layers]
        if name in DETERMINISTIC:
            if len(set(values)) > 1:
                problems.append(f"counter {name} did not repeat across ops: {values}")
            out[name] = values[0]
        else:
            out[name] = statistics.median(values)
    return out


def compare_with_earlier(path: Path, code: str, digest: str, counters: dict | None,
                         problems: list[str]):
    """The output hash, and the counters of a traced run, must match an
    earlier run of the same code on the same inputs.  What no earlier run
    recorded, a run without problems records."""
    try:
        record = json.loads(path.read_text())
    except (OSError, ValueError):
        record = {}
    if record.get("code") != code:
        record = {"code": code}
    if record.setdefault("digest", digest) != digest:
        problems.append(f"outputs differ from an earlier run's: {record['digest']} "
                        f"then {digest}")
    if counters is not None:
        for name, value in counters.items():
            before = record.setdefault("counters", counters).get(name)
            if before != value:
                problems.append(f"counter {name} did not repeat between runs: "
                                f"{before} then {value}")
    if not problems:
        path.write_text(json.dumps(record, indent=1))


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help="toggle's analysis seed; fig3 and chain have fixed inputs")
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=sorted(SIZES), default="full",
                    help="'tiny' shrinks every workload for the self-test")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "hybridkit" / "cli.py").is_file():
        print(f"no hybridkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    # fixed-input workloads share one record of what must repeat across seeds
    inputs = f"{args.workload}-{args.size}"
    if WORKLOADS[args.workload].seeded:
        inputs += f"-seed{args.seed}"
    tag = f"{args.workload}-{args.size}-seed{args.seed}"
    out_dir = BENCH / "out"
    work = BENCH / "work" / f"{tag}-pid{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)

    # set-up is an end-to-end metric, so a traced run does not measure it
    reps = 0 if args.trace else SIZES[args.size]["setup_reps"]
    try:
        setup = measure_setup((reps + 1) // 2, deadline)
        cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--work", str(work), "--size", args.size]
        if args.trace:
            cmd += ["--spans", str(out_dir / f"spans-{tag}.npz")]
        proc = run_child(cmd, deadline)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        setup += measure_setup(reps // 2, deadline)
    except (BenchError, ValueError, IndexError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    ops = result["ops"]
    problems = [f"op {i}: {p}" for i, o in enumerate(ops) for p in o["problems"]]
    failed = sum(1 for o in ops if o["problems"])
    env = environment() | result["versions"]

    report: dict = {"workload": args.workload, "seed": args.seed, "size": args.size,
                    "trace": args.trace, "seconds": args.seconds, "env": env,
                    "attempted": len(ops), "failed": failed,
                    "failed_frac": failed / len(ops), "op_s_samples": [o["seconds"] for o in ops],
                    "setup_s_samples": setup,
                    "import_s": result["import_s"]}
    counters = None
    if args.trace:
        layers = layer_metrics(result["layers"], problems)
        counters = {k: layers[k] for k in DETERMINISTIC}
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in PER_LAYER}
        report["untraced_op_s"] = ops[1]["seconds"]
    else:
        timed = {"op_s": summary([o["seconds"] for o in ops])}
        for kind in ("simulate", "analyze", "replay"):
            samples = [o["cmd_s"][kind] for o in ops if kind in o["cmd_s"]]
            if samples:
                timed[f"{kind}_s"] = summary(samples)
        timed["setup_s"] = summary(setup)
        report["timings"] = timed
        values = {"op_s": timed["op_s"]["median"], "setup_s": timed["setup_s"]["median"],
                  "peak_rss_mb": result["peak_rss_mb"]}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        for name, s in timed.items():
            pct = f"  p{s['pct']} {s['pct_value']:.4f} s" if s["pct"] else ""
            print(f"{name:28s} median {s['median']:.4f} s{pct}  n={s['n']}")
    compare_with_earlier(out_dir / f"repeat-{inputs}.json", env["code_sha256"],
                         ops[0]["digest"], counters, problems)
    report["metrics"] = metrics
    report["problems"] = problems
    correct = not problems

    for name, m in metrics.items():
        print(f"{name:28s} {m['value']:.6g} {m['unit']}")
    print(f"{'failed_frac':28s} {failed / len(ops):.6g} ({failed}/{len(ops)} ops)")
    for key in ("python", "numpy", "scipy", "nproc", "cpu", "git_commit"):
        print(f"env.{key:24s} {env.get(key)}")
    for p in problems:
        print(f"PROBLEM {p}", file=sys.stderr)
    (out_dir / f"{tag}-trace{args.trace}.json").write_text(json.dumps(report, indent=1))
    print(json.dumps({"correct": correct, "attempted": len(ops), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
