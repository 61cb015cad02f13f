"""One pass of a benchmark workload, in a fresh interpreter.

Started by run.py, one process per pass, with the checkout's ``src`` on
PYTHONPATH. It builds the workload's inputs, prints ``ready``, runs every op
once in order, checks each result against the expected canonical value and
prints one JSON line with the per-op times and outcomes.

    python3 perfbench/worker.py WORKLOAD SEED [--setup-only] [--trace SPANS.json]

With ``--trace`` the lieq entry points are wrapped before the inputs are
built, and the spans are written to SPANS.json when the pass ends.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
EXPECTED = HERE / "expected.json"


def environment() -> dict:
    try:
        backend = getattr(importlib.import_module("lieq._kernel"), "BACKEND", None)
    except ImportError:
        backend = None
    return {"python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "kernel_backend": backend}


def run_pass(ops, expected: dict, clock=time.perf_counter) -> list:
    """Run each op once; returns [key, seconds, ok, error] per op.

    An op that raises, returns something other than its expected value, or
    has no expected value counts as failed; the pass goes on either way.
    """
    results = []
    for op in ops:
        start = clock()
        try:
            got = op.run()
            error = None
        except Exception as exc:  # a failing op is a result, not the end of the run
            got, error = None, f"{type(exc).__name__}: {exc}"
        seconds = clock() - start
        if error is None:
            want = expected.get(op.expect)
            if want is None:
                error = f"no expected value for {op.expect!r}"
            elif json.loads(json.dumps(got)) != want:
                error = "result differs from the expected value"
        results.append([op.key, seconds, error is None, error])
    return results


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("workload")
    ap.add_argument("seed", type=int)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", metavar="SPANS")
    args = ap.parse_args(argv)

    import lieq
    src = HERE.parent / "src"
    if Path(lieq.__file__).resolve().parent.parent != src:
        print(f"lieq imported from {lieq.__file__}, not from {src}", file=sys.stderr)
        return 2
    import workloads

    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    ops = workloads.build_ops(args.workload, args.seed)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    with open(EXPECTED, encoding="utf-8") as fh:
        expected = json.load(fh)[args.workload]
    start = time.perf_counter()
    results = run_pass(ops, expected)
    end = time.perf_counter()
    report = {
        "wall_s": end - start,
        "ops": results,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "env": environment(),
    }
    if tracer is not None:
        report["layers"] = tracer.metrics(start, end)
        report["absent"] = tracer.absent
        tracer.uninstall()
        with open(args.trace, "w", encoding="utf-8") as fh:
            tracer.dump(fh)
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
