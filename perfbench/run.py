"""The lieq benchmark: one workload, one seed, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload scale-ladder --seed 1 --seconds 60 --trace 0

Run from the root of a checkout. Each pass runs in a fresh worker process
(worker.py) with the checkout's ``src`` on PYTHONPATH and without
LIEQ_THREADS or LIEQ_PURE_PYTHON, so the library defaults are what is
measured. A pass starts only if it would end within ``--seconds``; the
first always runs. Load model: one process, one thread, a closed loop issuing
the next op when the previous one returns.

--trace 0 reports the end-to-end metrics: setup_s (worker start until the
inputs are built, median over every worker started), wall_s (median pass
time), slowest_op_s (the longest op, each op taken at its median over
passes, so a one-off stall in one pass does not count) and peak_rss_mb
(largest peak RSS of a pass). --trace 1 alternates untraced and traced passes
and reports the per-layer metrics of the traced ones.

Human-readable lines come first; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics. The full result, with
the environment and every op, goes to .perfbench-out/. The exit code is 0
when every op matched its expected result, 1 when one did not, and 2 when the
benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"
WORKLOADS = ("verify-catalog", "centers-sweep", "scale-ladder",
             "coefficient-growth")
SETUP_PROBES = 5        # extra set-up-only workers, so setup_s is a median
TIME_LIMIT = 170.0      # seconds; no pass starts that could end after this
LADDER = (50, 90, 95, 99, 99.9)

# Per-layer metrics in the traced run's last line, as BENCHMARK.json lists
# them. Every metric is printed in the table above that line; times appear
# in the last line only for entry points that run on every workload.
TIMED = ("kernel.snf", "kernel.hnf", "exactlin.FpModule.__init__",
         "qtensor.q_tensor_product", "qtensor.q_exterior_product",
         "qtensor.QProduct.__init__", "qtensor.jacobi_defects",
         "qtensor.bracket_closure_defects", "liealg.lie_algebra")


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def percentiles(values) -> dict:
    """Median and the highest ladder percentile with >= 10 samples beyond it.

    Nearest-rank percentiles; ``tail`` is None when fewer than 20 samples
    leave no percentile with ten beyond it.
    """
    s = sorted(values)
    n = len(s)
    out = {"n": n, "median": median(s), "tail": None}
    for p in LADDER:
        rank = max(1, math.ceil(round(p * n / 100, 9)))
        if n - rank >= 10:
            out["tail"] = (p, s[rank - 1])
    return out


def median(values) -> float:
    s = sorted(values)
    n = len(s)
    if not n:
        raise ValueError("median of no values")
    return s[n // 2] if n % 2 else (s[n // 2 - 1] + s[n // 2]) / 2


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items()
           if k not in ("LIEQ_THREADS", "LIEQ_PURE_PYTHON", "PYTHONPATH")}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def spawn(workload, seed, deadline, setup_only=False, trace=None):
    """Run one worker; returns (set-up seconds, report or None)."""
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(seed)]
    if setup_only:
        cmd.append("--setup-only")
    if trace:
        cmd += ["--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(),
                            stdout=subprocess.PIPE, text=True)
    overran = threading.Event()

    def stop():
        overran.set()
        proc.kill()
    timer = threading.Timer(max(1.0, deadline - start), stop)
    timer.start()
    try:
        first = proc.stdout.readline()
        setup = time.perf_counter() - start
        rest = proc.stdout.read()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if overran.is_set():
        raise BenchError(f"{workload} pass overran the {TIME_LIMIT:.0f} s limit")
    if first.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"worker failed (exit {proc.returncode}) on {workload}")
    if setup_only:
        return setup, None
    return setup, json.loads(rest.strip().splitlines()[-1])


def measure(workload, seed, seconds, trace):
    """Run passes for ``seconds``; returns (setups, passes).

    Each pass is (traced, report). A pass starts only if it would end within
    ``seconds``, judged by the longest pass so far, but the first pass always
    runs, and the traced run alternates untraced and traced passes, untraced
    first, until it has one of each.
    """
    t0 = time.perf_counter()
    deadline = t0 + TIME_LIMIT
    setups = [spawn(workload, seed, deadline, setup_only=True)[0]
              for _ in range(SETUP_PROBES)]
    passes = []
    longest = 0.0
    while True:
        traced = bool(trace) and len(passes) % 2 == 1
        spans = None
        if traced:
            OUT.mkdir(exist_ok=True)
            spans = OUT / f"spans-{workload}-seed{seed}-pass{len(passes)}.json"
        began = time.perf_counter()
        setup, report = spawn(workload, seed, deadline, trace=spans)
        now = time.perf_counter()
        longest = max(longest, now - began)
        setups.append(setup)
        passes.append((traced, report))
        ends = now + longest
        if not trace or len(passes) >= 2:
            if ends > t0 + min(seconds, TIME_LIMIT):
                return setups, passes
        elif ends > deadline:
            raise BenchError("no time left for a traced pass")


def end_to_end(setups, reports) -> dict:
    per_op = {}
    for r in reports:
        for key, seconds, _, _ in r["ops"]:
            per_op.setdefault(key, []).append(seconds)
    return {
        "setup_s": (median(setups), "s"),
        "wall_s": (median([r["wall_s"] for r in reports]), "s"),
        "slowest_op_s": (max(median(v) for v in per_op.values()), "s"),
        "peak_rss_mb": (max(r["peak_rss_mb"] for r in reports), "MB"),
    }


def per_layer(plain, traced) -> dict:
    """Median over traced passes of each layer metric, plus trace overhead."""
    out = {}
    for name in traced[0]["layers"]:
        values = [r["layers"][name] for r in traced]
        unit = ("s" if name.endswith(("_s", ".s")) else
                "frac" if name.endswith("_frac") else
                "ratio" if name.endswith(("_ratio", "_per_build")) else
                "bits" if name.endswith("max_bits") else "count")
        out[name] = (median(values), unit)
    out["trace.overhead_frac"] = (
        median([r["wall_s"] for r in traced]) / median([r["wall_s"] for r in plain]) - 1,
        "frac")
    return out


def reported_layers(all_metrics: dict) -> dict:
    """The per-layer metrics BENCHMARK.json lists, out of every one measured."""
    keep = {}
    for name, value in all_metrics.items():
        if name.endswith(".calls"):
            keep[name] = value
        elif name.endswith((".s", ".self_s")):
            if name.rsplit(".", 1)[0] in TIMED:
                keep[name] = value
        elif name != "trace.bookkeeping_s":
            keep[name] = value
    return keep


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "lieq" / "__init__.py").is_file():
        print(f"error: no lieq sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        setups, passes = measure(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    reports = [r for _, r in passes]
    plain = [r for t, r in passes if not t]
    traced = [r for t, r in passes if t]
    ops = [op for r in reports for op in r["ops"]]
    failures = [op for op in ops if not op[2]]
    if args.trace:
        everything = per_layer(plain, traced)
        metrics = reported_layers(everything)
    else:
        everything = metrics = end_to_end(setups, reports)

    env = reports[0]["env"]
    print(f"{args.workload} seed={args.seed} passes={len(passes)} "
          f"(traced {len(traced)}) python={env['python']} nproc={env['nproc']} "
          f"kernel_backend={env['kernel_backend']}")
    lat = percentiles([op[1] for r in plain for op in r["ops"]])
    tail = (f", p{lat['tail'][0]:g} {lat['tail'][1]:.6f} s" if lat["tail"] else "")
    print(f"op latency (untraced): median {lat['median']:.6f} s{tail}, n={lat['n']}")
    print(f"failed_frac {len(failures) / len(ops):.6g} ({len(failures)}/{len(ops)})")
    for key, _, _, error in failures[:10]:
        print(f"FAILED {key}: {error}")
    if args.trace and traced[0]["absent"]:
        print("absent entry points: " + ", ".join(traced[0]["absent"]))
    for name, (value, unit) in everything.items():
        print(f"  {name:48s} {value:.6g} {unit}")

    OUT.mkdir(exist_ok=True)
    result = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "env": env, "setups_s": setups,
              "passes": [{"traced": t, **r} for t, r in passes],
              "metrics": {k: v for k, (v, _) in everything.items()}}
    with open(OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json",
              "w", encoding="utf-8") as fh:
        json.dump(result, fh)

    print(json.dumps({
        "correct": not failures,
        "attempted": len(ops),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
