"""Self-tests of the benchmark's own arithmetic: percentiles and self time.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

from stats import median, percentile  # noqa: E402
from tracing import (  # noqa: E402
    Span,
    Tracer,
    layer_metrics,
    layer_self_times,
    self_times,
    union_length,
)


def test_percentile_interpolates_between_ranks():
    values = [4.0, 1.0, 3.0, 2.0]
    assert percentile(values, 0) == 1.0
    assert percentile(values, 100) == 4.0
    assert percentile(values, 50) == 2.5
    assert percentile(values, 90) == pytest.approx(3.7)
    assert median([5.0]) == 5.0
    assert median([3.0, 1.0, 2.0]) == 2.0


def test_percentile_matches_statistics_inclusive_quartiles():
    values = [0.3, 1.9, 0.7, 2.2, 0.05, 1.1, 0.9, 3.4, 0.2, 1.6, 0.8]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    assert percentile(values, 25) == pytest.approx(q1)
    assert percentile(values, 50) == pytest.approx(q2)
    assert percentile(values, 75) == pytest.approx(q3)


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 101)


def test_union_length_merges_overlaps_and_skips_empty():
    assert union_length([]) == 0.0
    assert union_length([(0.0, 1.0), (0.5, 2.0), (3.0, 4.0)]) == 3.0
    assert union_length([(2.0, 1.0), (1.0, 1.0)]) == 0.0
    assert union_length([(0.0, 4.0), (1.0, 2.0)]) == 4.0


def _span(name, start, end, parent=None, pass_no=0):
    return Span(name, start, end, parent, "job", pass_no)


def test_self_time_subtracts_direct_children_only():
    spans = [
        _span("moments.from_distribution", -5.0, -1.0, pass_no=None),
        _span("harness.run_pipeline", 0.0, 10.0),
        _span("lasserre.solve", 1.0, 7.0, parent=1),
        _span("flow_lp.solve_lp", 7.5, 8.0, parent=1),
        _span("instance.as_layered", 2.0, 3.0, parent=2),
    ]
    assert self_times(spans) == pytest.approx([4.0, 3.5, 5.0, 0.5, 1.0])
    # Only spans of traced passes count towards the per-layer totals.
    assert layer_self_times(spans) == pytest.approx(
        {"harness": 3.5, "lasserre": 5.0, "flow_lp": 0.5, "instance": 1.0}
    )


def test_self_time_clips_children_to_parent_and_unions_overlaps():
    spans = [
        _span("harness.run_pipeline", 0.0, 4.0),
        _span("exact.exact_opt", -1.0, 1.0, parent=0),
        _span("exact.exact_opt", 0.5, 2.0, parent=0),
        _span("exact.exact_opt", 3.0, 6.0, parent=0),
    ]
    assert self_times(spans)[0] == pytest.approx(1.0)


def test_tracer_nests_spans_and_restores_the_library(tmp_path):
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    harness = workloads.harness
    original = harness.gen_random_layered
    tracer = Tracer()
    tracer.install(workloads.MODULES)
    try:
        tracer.job = "j1"
        harness.gen_random_layered(2, [2, 1], seed=3)
    finally:
        tracer.uninstall()
    assert harness.gen_random_layered is original
    # gen_random_layered calls as_layered through harness's own binding.
    assert [(s.name, s.parent, s.job) for s in tracer.spans] == [
        ("harness.gen_random_layered", None, "j1"),
        ("instance.as_layered", 0, "j1"),
    ]

    path = tmp_path / "trace.jsonl"
    tracer.write(path, {"seed": 1}, {"done": True})
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert lines[0] == {"seed": 1} and lines[-1] == {"done": True}
    assert [line["id"] for line in lines[1:-1]] == [0, 1]


def test_reported_metrics_match_benchmark_json():
    """run.py reports exactly the metrics BENCHMARK.json declares."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layer = dict(layer_metrics([], 1))
    layer.update({"trace.pass_s": (0, "s"), "trace.overhead_s": (0, "s"),
                  "trace.target_share": (0, "ratio")})
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: unit for name, (_, unit) in layer.items()
    }
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert end_to_end == {
        "pass_s": "s",
        "pass_cpu_s": "s",
        "job_s.p50": "s",
        "job_s.p90": "s",
        "peak_rss_mb": "MB",
        "setup_s": "s",
    }
