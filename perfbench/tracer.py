"""In-memory span tracer for rimkit's public functions, plus the rollup into layer metrics.

A span records its name, start and end (``perf_counter_ns``), the span that
called it, and the invocation it belongs to (one CLI command or one fit
replicate). Spans stay in memory and are written as JSON lines when the
process ends. Only the standard library is imported here, so the launcher
can load it before rimkit.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import time
from collections import defaultdict
from pathlib import Path

# Modules whose public functions get spans, named by their last component.
LAYERS = (
    "ingest",
    "model",
    "metrics",
    "aggregate",
    "outliers",
    "inference",
    "figures",
    "config",
    "synth",
    "cli",
)

# Leaf helpers called once per event, record, cell or coefficient from inside
# a traced function. A span on each would cost more than the work it times;
# their time shows as their caller's self time.
UNTRACED = frozenset(
    {
        "metrics.event_leverage",
        "metrics.period_bucket",
        "metrics.game_rim",
        "metrics.swing_per_call",
        "metrics.signed_disparity",
        "metrics.signed_team_rim",
        "metrics.period_breakdown",
        "model.canonical_series_key",
        "model.canonicalize_name",
        "ingest.game_from_dict",
        "ingest.game_to_dict",
        "figures.format_value",
        "outliers.excess",
        "inference.robustness_rho",
        "synth.team_name",
        "synth.referee_name",
    }
)


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _partition_bytes(root, manifest) -> int:
    return sum((Path(root) / p.path).stat().st_size for p in manifest.partitions)


def _count_load(args, kwargs, result):
    games, manifest = result
    root = _arg(args, kwargs, 0, "root")
    return {"games": len(games), "bytes": _partition_bytes(root, manifest)}


def _count_write(args, kwargs, result):
    root = Path(_arg(args, kwargs, 1, "root"))
    return {"bytes": _partition_bytes(root, result) + (root / "manifest.json").stat().st_size}


def _count_ingest(args, kwargs, result):
    report = result[1]
    counts = {f"q_{k}": v for k, v in report.quarantine_counts().items()}
    counts.update(documents=report.documents_seen, kept=report.kept_games)
    return counts


def _count_design(args, kwargs, result):
    design = _arg(args, kwargs, 0, "design")
    return {
        "design_rows": int(design.matrix.shape[0]),
        "cols_kept": len(design.columns),
        "cols_dropped": len(design.dropped),
    }


# Counts recorded at the boundaries where the work happens.
COUNTERS = {
    "ingest.load_dataset": _count_load,
    "ingest.write_dataset": _count_write,
    "ingest.ingest_directory": _count_ingest,
    "metrics.compute_game_metrics": lambda a, k, r: {"game": _arg(a, k, 0, "game").game_id},
    "metrics.expand_rows": lambda a, k, r: {"rows": len(r)},
    "outliers.panel_rows": lambda a, k, r: {"rows": len(r[0])},
    "outliers.build_cells": lambda a, k, r: {"cells": len(r)},
    "inference.fit_clustered": _count_design,
    "figures.write_table": lambda a, k, r: {
        "bytes": Path(_arg(a, k, 0, "path")).stat().st_size
    },
    "figures.emit_figures": lambda a, k, r: {"skipped": len(r.skipped)},
}


class Tracer:
    """Collects spans for one process; ``invocation`` tags every new span."""

    def __init__(self, invocation: str = "main"):
        self.invocation = invocation
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._ids = itertools.count()

    def record(self, name: str, start: int, end: int, **extra) -> None:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(
            dict(inv=self.invocation, id=next(self._ids), parent=parent, name=name,
                 start_ns=start, end_ns=end, **extra)
        )

    def wrap(self, name: str, fn, counter=None):
        spans, stack, ids = self.spans, self._stack, self._ids

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            ok = False
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                span = dict(inv=self.invocation, id=sid, parent=parent, name=name,
                            start_ns=start, end_ns=end)
                if not ok:
                    span["error"] = True
                elif counter is not None:
                    span.update(counter(args, kwargs, result))
                spans.append(span)

        return traced

    def dump(self, path: Path) -> None:
        with open(path, "a", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")


def install(tracer: Tracer, package: str = "rimkit") -> list[tuple]:
    """Wrap every public function of each layer wherever a rimkit module binds it.

    Returns the replaced bindings so :func:`uninstall` can restore them.
    """
    modules = {layer: importlib.import_module(f"{package}.{layer}") for layer in LAYERS}
    wrappers = {}
    for layer, module in modules.items():
        for attr, obj in vars(module).items():
            name = f"{layer}.{attr}"
            if (
                attr.startswith("_")
                or not inspect.isfunction(obj)
                or obj.__module__ != module.__name__
                or name in UNTRACED
            ):
                continue
            wrappers[obj] = tracer.wrap(name, obj, COUNTERS.get(name))
    replaced = []
    consumers = list(modules.values()) + [importlib.import_module(package)]
    for module in consumers:
        for attr, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                replaced.append((module, attr, obj))
                setattr(module, attr, wrappers[obj])
    return replaced


def uninstall(replaced: list[tuple]) -> None:
    for module, attr, obj in replaced:
        setattr(module, attr, obj)


def read_spans(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


# ---------------------------------------------------------------------------
# Rollup
# ---------------------------------------------------------------------------


def _covered(intervals: list[tuple[int, int]]) -> int:
    total = 0
    end_so_far = None
    for start, end in sorted(intervals):
        if end_so_far is None or start > end_so_far:
            total += end - start
            end_so_far = end
        elif end > end_so_far:
            total += end - end_so_far
            end_so_far = end
    return total


def self_times(spans: list[dict]) -> dict[tuple, int]:
    """Each span's duration minus the part of its interval its children cover."""
    children: dict[tuple, list[tuple[int, int]]] = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[(s["inv"], s["parent"])].append((s["start_ns"], s["end_ns"]))
    return {
        (s["inv"], s["id"]): s["end_ns"] - s["start_ns"]
        - _covered(children.get((s["inv"], s["id"]), []))
        for s in spans
    }


_NOT_COUNTS = {"inv", "id", "parent", "name", "start_ns", "end_ns", "error", "game"}


def rollup(spans: list[dict]) -> dict[str, dict]:
    """Per span name: total ``s`` (outermost spans of that name), ``self_s``,
    ``calls``, ``errors`` and the sum of every count recorded on the spans."""
    by_id = {(s["inv"], s["id"]): s for s in spans}
    selfs = self_times(spans)
    out: dict[str, dict] = defaultdict(lambda: defaultdict(float))
    for s in spans:
        key = (s["inv"], s["id"])
        row = out[s["name"]]
        row["calls"] += 1
        row["self_s"] += selfs[key] / 1e9
        row["errors"] += 1 if s.get("error") else 0
        parent = s["parent"]
        nested = False
        while parent is not None:
            p = by_id[(s["inv"], parent)]
            if p["name"] == s["name"]:
                nested = True
                break
            parent = p["parent"]
        if not nested:
            row["s"] += (s["end_ns"] - s["start_ns"]) / 1e9
        for k, v in s.items():
            if k not in _NOT_COUNTS:
                row[k] += v
    return out


def kernel_calls_per_game(spans: list[dict]) -> float:
    """Per-game kernel calls over distinct games, for the worst invocation."""
    calls: dict[str, int] = defaultdict(int)
    games: dict[str, set] = defaultdict(set)
    for s in spans:
        if s["name"] == "metrics.compute_game_metrics":
            calls[s["inv"]] += 1
            games[s["inv"]].add(s["game"])
    return max((calls[i] / len(games[i]) for i in calls), default=0.0)


def fit_errors(spans: list[dict]) -> int:
    """Outermost inference spans that raised."""
    by_id = {(s["inv"], s["id"]): s for s in spans}
    count = 0
    for s in spans:
        if not (s.get("error") and s["name"].startswith("inference.")):
            continue
        parent = by_id.get((s["inv"], s["parent"]))
        if parent is None or not parent["name"].startswith("inference."):
            count += 1
    return count
