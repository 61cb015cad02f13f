"""The traced benchmark's entry points into lieq still resolve."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


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
