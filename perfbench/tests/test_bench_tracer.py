"""Span tracer: self time, rollup and the wrappers it installs in rimkit."""

from __future__ import annotations

import json

import pytest

from perfbench import harness, metricdefs, tracer
from perfbench.common import ROOT


def span(sid, parent, name, start, end, inv="a", **extra):
    return dict(inv=inv, id=sid, parent=parent, name=name, start_ns=start, end_ns=end, **extra)


def test_self_time_subtracts_the_union_of_child_intervals():
    spans = [
        span(0, None, "cli.main", 0, 100),
        span(1, 0, "ingest.load_dataset", 10, 30),
        span(2, 0, "metrics.expand_rows", 20, 50),  # overlaps its sibling
        span(3, 2, "metrics.compute_game_metrics", 22, 40),
        span(4, 0, "figures.write_table", 60, 70),
        span(5, None, "cli.main", 0, 7, inv="b"),  # same id space, other invocation
    ]
    selfs = tracer.self_times(spans)
    assert selfs[("a", 0)] == 100 - 40 - 10
    assert selfs[("a", 2)] == 30 - 18
    assert selfs[("a", 3)] == 18
    assert selfs[("b", 5)] == 7


def test_rollup_counts_nested_same_name_once_and_sums_counts():
    spans = [
        span(0, None, "x.f", 0, 1_000_000_000, rows=3),
        span(1, 0, "x.f", 100, 500_000_100, rows=4),
        span(2, None, "x.g", 0, 10, error=True),
    ]
    roll = tracer.rollup(spans)
    assert roll["x.f"]["s"] == pytest.approx(1.0)
    assert roll["x.f"]["self_s"] == pytest.approx(1.0)
    assert roll["x.f"]["calls"] == 2
    assert roll["x.f"]["rows"] == 7
    assert roll["x.g"]["errors"] == 1
    assert tracer.fit_errors([span(0, None, "inference.fit_ols", 0, 1, error=True)]) == 1


def test_kernel_calls_per_game_takes_the_worst_invocation():
    spans = [span(i, None, "metrics.compute_game_metrics", 0, 1, inv="m", game=f"g{i}") for i in range(4)]
    spans += [span(i, None, "metrics.compute_game_metrics", 0, 1, inv="r", game=f"g{i % 2}") for i in range(6)]
    assert tracer.kernel_calls_per_game(spans) == 3.0


def test_install_wraps_every_binding_and_uninstall_restores_it():
    import rimkit.cli
    import rimkit.metrics
    import rimkit.outliers

    original = rimkit.metrics.compute_game_metrics
    leaf = rimkit.metrics.period_bucket
    tr = tracer.Tracer("t")
    replaced = tracer.install(tr)
    try:
        assert rimkit.outliers.compute_game_metrics is rimkit.metrics.compute_game_metrics
        assert rimkit.metrics.compute_game_metrics is not original
        assert rimkit.cli.main.__wrapped__ is not None
        assert rimkit.metrics.period_bucket is leaf  # per-event helpers stay untraced
        rimkit.metrics.expand_rows([])
    finally:
        tracer.uninstall(replaced)
    assert rimkit.metrics.compute_game_metrics is original
    assert rimkit.outliers.compute_game_metrics is original
    assert [s["name"] for s in tr.spans] == ["metrics.expand_rows"]
    assert tr.spans[0]["rows"] == 0 and tr.spans[0]["inv"] == "t"


def test_layer_values_cover_every_per_layer_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    values = metricdefs.layer_values([], [], 0, {"failed_ops_ratio": 0.0})
    assert list(values) == [m["name"] for m in spec["per_layer"]]
    assert [w["name"] for w in spec["workloads"]] == list(harness.WORKLOADS)
