"""raw_ingest: raw feeds into the canonical dataset, then the dataset re-verified.

Set-up simulates a Baseline-shaped corpus and renders it as raw summary and
wp documents with filler plays and a seeded set of gaps (see render.py). A
round runs ``rimkit ingest --raw-dir ... --out ...`` and then
``rimkit validate --dataset ...``, each as a fresh process. This is the
parse, align, quarantine and write side of ``ingest``, which no other
workload reaches; ``inference`` is never touched.

Correctness: both commands exit 0, the ingested games equal the simulated
games less the injected gaps, and the manifest's quarantine counts equal the
renderer's ledger exactly, and ``validate`` flags exactly the kept
no-crew games (see :func:`validate_verdict`).
"""

from __future__ import annotations

import hashlib
import shutil
import statistics
import time
from dataclasses import asdict
from pathlib import Path

from . import render, tracer
from .common import LAUNCHER, RIMKIT, Corpus, Outcome, closed_loop, run_process, sha256_file

SETUP_REPEATS = 3


BASELINE = Corpus()


def setup(corpus: Corpus, seed: int, raw: Path):
    from rimkit import synth

    if raw.exists():
        shutil.rmtree(raw)
    games, _ = synth.generate(corpus.sim_config(seed))
    return render.render_corpus(games, raw, seed)


def validate_verdict(p, no_crew: set[str]) -> str | None:
    """None when ``validate`` judged the ingested dataset as expected.

    ``validate`` counts an empty crew as a violation and exits 2, although
    ingest keeps such games on purpose. Expected: exactly the no-crew games
    flagged, for their crew only, with exit 2; or nothing flagged and exit 0.
    """
    flagged: dict[str, list[str]] = {}
    for line in p.log.read_text(encoding="utf-8", errors="replace").splitlines():
        if line.startswith("dataset ok:"):
            break
        gid, _, message = line.partition(": ")
        flagged.setdefault(gid, []).append(message)
    only_crew = all(m.startswith("crew:") for ms in flagged.values() for m in ms)
    if flagged.keys() == no_crew and only_crew and p.returncode == 2:
        return None
    if not flagged and p.returncode == 0:
        return None
    return f"exit {p.returncode}, flagged {sorted(flagged)[:5]}: {p.tail()}"


def run(seed: int, seconds: float, trace: bool, work: Path, *,
        corpus: Corpus = BASELINE) -> Outcome:
    seed = seed % 2**32
    out = Outcome(info={"corpus_seed": seed, "corpus": asdict(corpus)})
    raw, dataset = work / "raw", work / "dataset"
    spans_file = work / "spans.jsonl"

    setups = []
    for _ in range(1 if trace else SETUP_REPEATS):
        start = time.perf_counter()
        ledger, expected = setup(corpus, seed, raw)
        setups.append(time.perf_counter() - start)
    out.info["ledger"] = ledger
    out.info["documents"] = sum(1 for _ in raw.rglob("*.summary.json"))
    out.info["expected_sha256"] = hashlib.sha256(repr(sorted(expected.items())).encode()).hexdigest()

    no_crew = {gid for gid, game in expected.items() if not game["crew"]}
    cmd_times: dict[str, list[float]] = {"ingest": [], "validate": []}
    peak_kb = 0

    def one_round(i: int, traced: bool) -> float:
        nonlocal peak_kb
        if dataset.exists():
            shutil.rmtree(dataset)
        total = 0.0
        for name, args in (
            ("ingest", ["ingest", "--raw-dir", str(raw), "--out", str(dataset)]),
            ("validate", ["validate", "--dataset", str(dataset)]),
        ):
            tag = f"r{i}{'t' if traced else ''}.{name}"
            argv = LAUNCHER + [str(spans_file), tag, "--"] + args if traced else RIMKIT + args
            p = run_process(argv, work / f"{tag}.log")
            total += p.wall_s
            if not traced:
                cmd_times[name].append(p.wall_s)
                peak_kb = max(peak_kb, p.maxrss_kb)
            if name == "validate":
                problem = validate_verdict(p, no_crew)
                out.op(problem is None, f"validate: {problem}")
            elif p.returncode != 0:
                out.op(False, f"ingest exited {p.returncode}: {p.tail()}")
                out.op(False, "validate skipped: ingest failed")
                break
            else:
                problems = render.compare_dataset(dataset, expected, ledger)
                out.op(not problems, f"ingest: {problems[:3]}")
                out.info["manifest_sha256"] = sha256_file(dataset / "manifest.json")
        return total

    budget = seconds / 2 if trace else seconds
    rounds = closed_loop(budget, 1, lambda i: one_round(i, False))
    out.end_to_end = {
        "setup_s": statistics.median(setups),
        "round_s": statistics.median(rounds),
        "peak_rss_mb": peak_kb / 1024,
    }
    if trace:
        traced = closed_loop(budget, 1, lambda i: one_round(i, True))
        out.timed_spans = tracer.read_spans(spans_file)
        out.traced_rounds = len(traced)
        out.layer_values = {f"cli.cmd.{name}_s": statistics.median(t) for name, t in cmd_times.items()}
        out.layer_values["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(rounds)
    return out
