"""Tests of the benchmark's own code: inputs, tracing, statistics, checking.

    python3 -m pytest perfbench/tests -q
"""

import json
import random

import pytest

import run
import tracing
import worker
import workloads
from lieq import exactlin, io_catalog

EXPECTED = json.loads(worker.EXPECTED.read_text())


@pytest.mark.parametrize("seed", range(8))
def test_unimodular_is_seeded_and_has_det_pm1(seed):
    p, pinv = workloads.unimodular(random.Random(seed), 5, 8)
    assert (p, pinv) == workloads.unimodular(random.Random(seed), 5, 8)
    assert exactlin.det(exactlin.IntMatrix(p)) in (1, -1)
    assert exactlin.matmul(p, pinv) == exactlin.identity_matrix(5)
    assert max(abs(x) for r in p + pinv for x in r).bit_length() >= 8


def test_conjugated_heisenberg_matches_base_invariants():
    base = io_catalog.heisenberg()
    p, pinv = workloads.unimodular(random.Random(3), 3, 8)
    g = workloads.conjugate(base, p, pinv, "heisenberg~")  # validates
    assert g.table != base.table
    got = [op.run() for op in workloads.growth_ops(g, "heisenberg", "h~")]
    want = [op.run() for op in workloads.growth_ops(base, "heisenberg", "h")]
    assert got == want
    assert want == [EXPECTED["coefficient-growth"][op.expect]
                    for op in workloads.growth_ops(base, "heisenberg", "h")]


def test_self_time_on_a_synthetic_span_tree():
    # root [0,10] has children a [1,4] and b [5,6]; a has c [2,3]
    names = ["trace.bookkeeping", "root", "a", "b", "c"]
    spans = [(1, 0.0, 10.0, -1), (2, 1.0, 4.0, 0), (3, 5.0, 6.0, 0),
             (4, 2.0, 3.0, 1)]
    assert tracing.self_times(spans) == [6.0, 2.0, 1.0, 1.0]
    stats = tracing.span_stats(names, spans)
    assert stats["root"] == (1, 10.0, 6.0)
    assert stats["a"] == (1, 3.0, 2.0)
    # a span nested in one of its own name adds to calls and self time only
    spans.append((1, 7.0, 9.0, 0))
    assert tracing.span_stats(names, spans)["root"] == (2, 10.0, 6.0)
    assert tracing.coverage(spans, 0.0, 20.0) == 0.5


def test_tracer_patches_every_binding_and_reports_absent_entry_points():
    from lieq import _kernel
    original = exactlin.hnf_rows
    tracer = tracing.Tracer()
    tracer.install((("kernel.hnf", ("lieq._kernel.hnf_rows",)),
                    ("exactlin.FpModule.__init__", ("lieq.exactlin.FpModule.__init__",)),
                    ("gone", ("lieq.nowhere.function", "lieq.exactlin.nothing"))))
    try:
        assert exactlin.hnf_rows is _kernel.hnf_rows is not original
        exactlin.FpModule(2, [(2, 4)])
    finally:
        tracer.uninstall()
    assert exactlin.hnf_rows is _kernel.hnf_rows is original
    assert tracer.absent == ["gone"]
    m = tracer.metrics(0.0, 1e12)
    assert m["kernel.hnf.calls"] == 1 and m["exactlin.FpModule.__init__.calls"] == 1
    assert m["gone.calls"] == 0
    assert m["kernel.hnf.cells"] == 2 and m["kernel.hnf.max_bits"] == 3
    assert m["exactlin.fpmodule.max_rank"] == 2


@pytest.mark.parametrize("n, tail", [(19, None), (20, 50), (100, 90),
                                     (109, 90), (1000, 99), (10000, 99.9)])
def test_percentile_rule(n, tail):
    values = list(range(n, 0, -1))
    out = run.percentiles(values)
    assert out["n"] == n and out["median"] == (n + 1) / 2
    if tail is None:
        assert out["tail"] is None
    else:
        p, v = out["tail"]
        assert p == tail
        assert sum(x > v for x in values) >= 10


def test_corrupted_expected_value_fails_only_its_op():
    ops = workloads.growth_ops(io_catalog.heisenberg(), "heisenberg", "h")
    expected = json.loads(json.dumps(EXPECTED["coefficient-growth"]))
    expected["heisenberg exterior q=2"]["factors"].append(7)

    def boom():
        raise ArithmeticError("synthetic")
    ops.insert(1, workloads.Op("boom", "heisenberg exterior q=0", boom))
    results = worker.run_pass(ops, expected)
    assert len(results) == len(ops)
    failed = {key: error for key, _, ok, error in results if not ok}
    assert set(failed) == {"boom", "h exterior q=2"}
    assert failed["boom"] == "ArithmeticError: synthetic"


def test_names_match_benchmark_json():
    bench = json.loads((worker.HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in bench["workloads"]} <= set(run.WORKLOADS)
    assert run.WORKLOADS == workloads.WORKLOADS
    assert [m["name"] for m in bench["end_to_end"]] == list(
        run.end_to_end([1.0], [{"wall_s": 1.0, "ops": [["op", 1.0, True, None]],
                                "peak_rss_mb": 1.0}]))
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    plain = {"wall_s": 1.0}
    traced = {"wall_s": 1.0, "layers": tracer.metrics(0.0, 1.0)}
    layers = run.reported_layers(run.per_layer([plain], [traced]))
    assert [m["name"] for m in bench["per_layer"]] == list(layers)
    assert [m["unit"] for m in bench["per_layer"]] == [u for _, u in layers.values()]
