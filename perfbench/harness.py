"""Run one workload and report it: the result line, provenance, trace and full record."""

from __future__ import annotations

import json
import os
import shutil
import sys

from . import cli_pipeline, mc_fits, metricdefs, raw_ingest
from .common import STATE, Outcome, provenance

WORKLOADS = {
    "cli_pipeline": cli_pipeline.run,
    "mc_fits": mc_fits.run,
    "raw_ingest": raw_ingest.run,
}


def metrics_of(outcome: Outcome, trace: bool) -> dict[str, float]:
    """The reported metrics: end-to-end with tracing off, per-layer with it on."""
    if not trace:
        return dict(outcome.end_to_end)
    measured = dict(outcome.layer_values)
    measured["failed_ops_ratio"] = outcome.failed / outcome.attempted
    return metricdefs.layer_values(
        outcome.timed_spans, outcome.setup_spans, outcome.traced_rounds, measured
    )


def result_line(outcome: Outcome, metrics: dict[str, float]) -> dict:
    return {
        "correct": outcome.failed == 0 and outcome.attempted > 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {k: {"value": v, "unit": metricdefs.UNITS[k]} for k, v in metrics.items()},
    }


def run(workload: str, seed: int, seconds: float, trace: bool, **options) -> tuple[int, dict]:
    """Run a workload; returns (exit code, result line). Keeps the merged trace
    and a full record under .perfbench/, removes the work directory."""
    work = STATE / f"work-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    try:
        outcome = WORKLOADS[workload](seed, seconds, trace, work, **options)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    metrics = metrics_of(outcome, trace)
    line = result_line(outcome, metrics)
    stem = f"{workload}-seed{seed}-trace{int(trace)}"
    (STATE / "results").mkdir(parents=True, exist_ok=True)
    inputs = {k: v for k, v in outcome.info.items() if k.endswith("seed") or k.endswith("sha256")}
    record = {
        "provenance": {**provenance(workload, seed), **inputs},
        "info": outcome.info,
        "result": line,
        "end_to_end": outcome.end_to_end,
        "failures": outcome.failures[:50],
    }
    (STATE / "results" / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if trace:
        (STATE / "traces").mkdir(parents=True, exist_ok=True)
        with open(STATE / "traces" / f"{stem}.jsonl", "w", encoding="utf-8") as fh:
            for span in outcome.setup_spans + outcome.timed_spans:
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")
    for failure in outcome.failures[:10]:
        print(f"failed: {failure}", file=sys.stderr)
    print("provenance: " + json.dumps(record["provenance"], sort_keys=True))
    print(json.dumps(line))
    return (0 if line["correct"] else 1), line


def main(argv: list[str] | None = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    code, _ = run(args.workload, args.seed, args.seconds, bool(args.trace))
    return code
