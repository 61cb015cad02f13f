"""Write expected.json: the canonical result of every op of every workload.

    PYTHONPATH=src python3 perfbench/record_expected.py

The benchmark compares each op's result with this file, so regenerate it only
at a commit whose results are trusted. For coefficient-growth the values are
those of the unconjugated heisenberg algebra, which every conjugate must
reproduce.
"""

import json
from pathlib import Path

import workloads

OUT = Path(__file__).resolve().parent / "expected.json"


def main():
    expected = {}
    for workload in workloads.WORKLOADS:
        expected[workload] = {op.expect: op.run()
                              for op in workloads.reference_ops(workload)}
    with open(OUT, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
