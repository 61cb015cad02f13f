"""The traced benchmark's entry points into lieq still resolve."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"

# Deleted from lieq on purpose; the tracer still lists them and reports them
# absent, in ENTRY_POINTS order. Kernels now count under kernel.hnf.
EXPECTED_ABSENT = ["kernel.rowker", "exactlin.direct_sum", "exactlin.row_kernel"]


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_qtensor_and_liealg_entry_points_resolve():
    tracing = _tracing()
    paths = [path for _, paths in tracing.ENTRY_POINTS for path in paths
             if path.startswith(("lieq.qtensor.", "lieq.liealg."))]
    assert len(paths) >= 10
    assert [path for path in paths if tracing.resolve(path) is None] == []


def test_every_entry_point_resolves():
    tracing = _tracing()
    names = [name for name, _ in tracing.ENTRY_POINTS]
    assert {"kernel.hnf", "kernel.rowker", "exactlin.FpModule.__init__",
            "exactlin.ModuleHom.kernel", "exactlin.row_kernel"} <= set(names)
    absent = [name for name, paths in tracing.ENTRY_POINTS
              if all(tracing.resolve(path) is None for path in paths)]
    assert absent == EXPECTED_ABSENT
