"""Every metric the benchmark reports. Names, units and bounds live in BENCHMARK.json.

End-to-end metrics are measured with tracing off and exist on every workload:

* ``setup_s``: median of several set-ups (building the workload's inputs).
* ``round_s``: median wall time of one round of the closed loop: the seven
  analysis commands (cli_pipeline), one fit mix cycle (mc_fits), or
  ``ingest`` plus ``validate`` (raw_ingest).
* ``peak_rss_mb``: peak resident set of the processes doing the timed work.

Per-layer metrics come from the traced run. Span totals are per round.
"""

from __future__ import annotations

import json

from . import tracer
from .common import ROOT

_SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = [m["name"] for m in _SPEC["end_to_end"]]
PER_LAYER = [m["name"] for m in _SPEC["per_layer"]]
UNITS = {m["name"]: m["unit"] for m in _SPEC["end_to_end"] + _SPEC["per_layer"]}

# Fields read straight off a span rollup: "<layer>.<function>.<field>".
_SPAN_FIELDS = {"s", "self_s", "calls", "bytes", "games", "rows", "cells"}
# Counts recorded on fit_clustered spans, exposed under the layer's name.
_DESIGN_COUNTS = {
    "inference.design_rows": "design_rows",
    "inference.design_cols_kept": "cols_kept",
    "inference.design_cols_dropped": "cols_dropped",
}


def layer_values(
    timed_spans: list[dict],
    setup_spans: list[dict],
    rounds: int,
    measured: dict[str, float],
) -> dict[str, float]:
    """Every per-layer metric. Spans of the timed phase are averaged per round;
    ``synth.*`` come from the traced set-up; ``measured`` holds what the
    workload timed itself. A layer the workload never reaches reads 0."""
    rounds = max(rounds, 1)
    timed = tracer.rollup(timed_spans)
    setup = tracer.rollup(setup_spans)
    ingest_dir = timed.get("ingest.ingest_directory", {})
    imports = timed.get("cli.import", {})
    out: dict[str, float] = {}
    for name in PER_LAYER:
        span, _, fld = name.rpartition(".")
        if name in measured:
            value = measured[name]
        elif fld in _SPAN_FIELDS and span.startswith("synth."):
            value = setup.get(span, {}).get(fld, 0.0)
        elif fld in _SPAN_FIELDS:
            value = timed.get(span, {}).get(fld, 0.0) / rounds
        elif name in _DESIGN_COUNTS:
            value = timed.get("inference.fit_clustered", {}).get(_DESIGN_COUNTS[name], 0) / rounds
        elif span == "ingest.quarantine":
            value = ingest_dir.get(f"q_{fld}", 0) / rounds
        elif name == "ingest.kept_ratio":
            docs = ingest_dir.get("documents", 0)
            value = ingest_dir.get("kept", 0) / docs if docs else 0.0
        elif name == "cli.import_s":
            value = imports["s"] / imports["calls"] if imports else 0.0
        elif name == "metrics.kernel_calls_per_game":
            value = tracer.kernel_calls_per_game(timed_spans)
        elif name == "inference.fit_errors":
            value = tracer.fit_errors(timed_spans) / rounds
        elif name == "figures.skipped":
            value = timed.get("figures.emit_figures", {}).get("skipped", 0) / rounds
        else:
            value = 0.0
        out[name] = float(value)
    return out

