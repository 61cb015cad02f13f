"""Build the squares and centers of large algebras; print their invariants.

Usage (from the repository root):

    PYTHONPATH=src python3 scripts/scale_probe.py L40 h21 n7

Each argument names one algebra built in code: ``L<n>`` is filiform L_n,
``h<n>`` (n odd) is Heisenberg h_n and ``n<k>`` is ``strictly_upper(k)``.
The builders are those of ``perfbench/workloads.py``. For each algebra the
script builds the four q-tensor and q-exterior squares at q in {0, 2}, each
followed by xi and ker xi, then runs ``center_report`` at q in {0, 2}.

stdout is one JSON object: per algebra, the invariant factors of each square,
the invariant factors of ker xi, and the canonical center results. It holds
no timing, so two checkouts can be compared with ``diff``. stderr gets the
time of each step (a square, its xi and ker xi are three steps), the number
of relation rows each square handed to ``FpModule.from_terms`` next to its
time (the rows of the echelon of the q-free families that every square of
the algebra shares, then the square's own rows), and the peak resident set
size of the process.
"""

import json
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from lieq import capability, io_catalog, qtensor  # noqa: E402
from perfbench.workloads import canon_centers, filiform, heisenberg_odd  # noqa: E402

QS = (0, 2)
BUILDERS = {"L": filiform, "h": lambda n: heisenberg_odd((n - 1) // 2),
            "n": io_catalog.strictly_upper}


def build(name: str):
    kind, size = name[:1], name[1:]
    if kind not in BUILDERS or not size.isdigit() \
            or (kind == "h" and int(size) % 2 == 0):
        raise SystemExit(f"unknown algebra {name!r}: use L<n>, h<odd n> or n<k>")
    return BUILDERS[kind](int(size))


def _timed(label: str, fn, note=None):
    """fn(), with its time on stderr, followed by ``note(result)`` if given."""
    start = time.perf_counter()
    out = fn()
    elapsed = time.perf_counter() - start
    extra = f", {note(out)}" if note else ""
    print(f"{label}: {elapsed:.3f} s{extra}", file=sys.stderr)
    return out


def probe(name: str) -> dict:
    g = _timed(f"{name} build", lambda: build(name))
    squares = {}
    for q in QS:
        for kind in ("tensor", "exterior"):
            label = f"{name} {kind} q={q}"
            build_square = getattr(qtensor, f"q_{kind}_product")
            prod = _timed(label, lambda: build_square(g, None, q),
                          lambda p: f"{len(p.module.relations)} echelon and own relation rows")
            xi = _timed(f"{label} xi", prod.xi)
            ker_factors = _timed(f"{label} ker xi", lambda: xi.kernel().invariant_factors)
            squares[f"{kind} q={q}"] = {"factors": list(prod.invariant_factors()),
                                        "xi_kernel": list(ker_factors)}
    centers = {f"q={q}": _timed(f"{name} centers q={q}",
                                lambda q=q: canon_centers(capability.center_report(g, q)))
               for q in QS}
    return {"squares": squares, "centers": centers}


def main(names) -> int:
    if not names:
        print("usage: scale_probe.py NAME [NAME ...]", file=sys.stderr)
        return 2
    start = time.perf_counter()
    out = {name: probe(name) for name in names}
    print(json.dumps(out, indent=1, sort_keys=True))
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"total: {time.perf_counter() - start:.3f} s, peak RSS {peak_mb:.1f} MB",
          file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
