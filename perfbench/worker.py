"""Runs one workload's ops in this process through ``hybridkit.cli.main``.

    PYTHONPATH=src python3 perfbench/worker.py --workload fig3 --seed 0 \\
        --seconds 10 --trace 0 --work perfbench/work/fig3

Untraced (``--trace 0``): ops run back to back until ``--seconds`` have
passed, at least one.  Traced (``--trace 1``): two untraced ops, the second
of which is the warm reference for the tracing overhead, then traced ops
until ``--seconds`` have passed, at least one; ``--spans`` names the file
the spans are written to.  Every op's outputs are checked and
hashed; an op whose outputs differ from the first op's is a failed op.

The last line of standard output is one JSON object with the ops, the
per-layer metrics of each traced op, peak RSS and the import time.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from workloads import SIZES, WORKLOADS, Done  # noqa: E402


def _digest(out: Path) -> str:
    h = hashlib.sha256()
    for f in sorted(out.rglob("*")):
        if f.is_file():
            h.update(str(f.relative_to(out)).encode())
            h.update(f.read_bytes())
    return h.hexdigest()


def run_op(cli, workload, out: Path, seed: int, size: dict) -> dict:
    """One op: its commands in order, then the output check and hash."""
    shutil.rmtree(out, ignore_errors=True)
    gc.collect()  # every op starts from a collected heap
    done: list[Done] = []
    problems: list[str] = []
    t_op = time.perf_counter()
    for cmd in workload.commands(out, seed, size):
        buf = io.StringIO()
        t = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(cmd.argv)
        except Exception:  # noqa: BLE001 - a crashing command is a failed op
            problems.append(f"{cmd.kind} raised:\n{traceback.format_exc()}")
            code = -1
        done.append(Done(cmd.kind, code, buf.getvalue(), time.perf_counter() - t))
    seconds = time.perf_counter() - t_op
    if not problems:
        problems = workload.check(out, done, size)
    cmd_s: dict[str, float] = {}
    for d in done:
        cmd_s[d.kind] = cmd_s.get(d.kind, 0.0) + d.seconds
    return {"seconds": seconds, "cmd_s": cmd_s, "problems": problems,
            "digest": _digest(out)}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--work", required=True, help="scratch directory for op outputs")
    ap.add_argument("--size", choices=sorted(SIZES), default="full")
    ap.add_argument("--spans", default=None, help="where a traced run writes its spans")
    args = ap.parse_args(argv)

    t = time.perf_counter()
    from hybridkit import cli
    import_s = time.perf_counter() - t

    workload = WORKLOADS[args.workload]
    size = SIZES[args.size]
    out = Path(args.work) / "op"
    ops: list[dict] = []
    layers: list[dict] = []

    def op(traced: bool) -> dict:
        r = run_op(cli, workload, out, args.seed, size)
        r["traced"] = traced
        if ops and r["digest"] != ops[0]["digest"]:
            r["problems"].append("outputs differ from the first op's at the same seed")
        ops.append(r)
        return r

    tracer = None
    t_start = time.perf_counter()
    if args.trace:
        from spans import Tracer

        op(traced=False)  # warms up first calls and the heap
        ref = op(traced=False)
        tracer = Tracer()
        tracer.install()
    while True:
        if tracer is not None:
            tracer.begin_op(len(ops))
        r = op(traced=tracer is not None)
        if tracer is not None:
            m = tracer.op_metrics()
            m["trace.overhead_frac"] = r["seconds"] / ref["seconds"] - 1.0
            layers.append(m)
        if time.perf_counter() - t_start >= args.seconds:
            break
    if tracer is not None and args.spans:
        tracer.write(args.spans)
    shutil.rmtree(out, ignore_errors=True)

    import numpy
    import scipy

    print(json.dumps({
        "ops": ops,
        "layers": layers,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "import_s": import_s,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
