"""cli_pipeline: the analyst's quick tour over the Baseline corpus, one fresh process per command.

Set-up runs ``rimkit simulate``. A round runs ``metrics``, ``refs``,
``outliers``, ``regress``, ``robustness --target T03:home``,
``emit-figures`` and ``validate`` one after another. Every command reads
the dataset again and the kernel-heavy commands recompute per-game metrics
several times, so this is where dataset loading, the per-game kernels, the
screens and the ref-team fit inside ``regress`` and ``emit-figures`` show.

Correctness: every command exits 0, and the data rows (every line not
starting with ``#``) of every CSV hash to the digests recorded at the seed
commit for that corpus. Corpus seeds cycle through the recorded ones, so the
same ``--seed`` always builds the same corpus.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import statistics
from dataclasses import asdict
from pathlib import Path

from . import tracer
from .common import BENCH, LAUNCHER, RIMKIT, Corpus, Outcome, closed_loop, run_process, sha256_file

REFERENCE = BENCH / "reference" / "cli_digests.json"
SETUP_REPEATS = 3


BASELINE = Corpus()

# (command, extra arguments); validate re-parses the emit-figures outputs.
COMMANDS = (
    ("metrics", ()),
    ("refs", ()),
    ("outliers", ()),
    ("regress", ()),
    ("robustness", ("--target", "T03:home")),
    ("emit-figures", ()),
    ("validate", ()),
)


def command_args(name: str, extra, dataset: Path, out: Path) -> list[str]:
    if name == "validate":
        return ["validate", "--dataset", str(dataset), "--outputs", str(out / "emit-figures")]
    return [name, "--dataset", str(dataset), "--out", str(out / name), *extra]


def data_rows_digest(path: Path) -> str:
    """sha256 of a CSV's header and data rows, as written (numbers at 6 decimals)."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for line in fh:
            if not line.startswith(b"#"):
                digest.update(line)
    return digest.hexdigest()


def output_digests(out: Path) -> dict[str, str]:
    return {
        f"{d.name}/{f.name}": data_rows_digest(f)
        for d in sorted(p for p in out.iterdir() if p.is_dir())
        for f in sorted(d.glob("*.csv"))
    }


def load_reference(path: Path = REFERENCE) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))


def _invoke(args: list[str], work: Path, tag: str, spans: Path | None):
    argv = LAUNCHER + [str(spans), tag, "--"] + args if spans else RIMKIT + args
    return run_process(argv, work / f"{tag}.log")


def run(seed: int, seconds: float, trace: bool, work: Path, *,
        corpus: Corpus = BASELINE, reference: dict | None = None) -> Outcome:
    reference = load_reference() if reference is None else reference
    cseed = seed % corpus.corpus_seeds
    digests = reference["seeds"].get(str(cseed))
    out = Outcome(info={"corpus_seed": cseed, "corpus": asdict(corpus)})
    if reference["corpus"] != json.loads(json.dumps(asdict(corpus))) or digests is None:
        raise SystemExit(f"no digests recorded for this corpus at corpus seed {cseed}")
    dataset, outputs = work / "dataset", work / "out"
    spans_file = work / "spans.jsonl" if trace else None

    setups = []
    for i in range(1 if trace else SETUP_REPEATS):
        p = _invoke(corpus.simulate_args(cseed, dataset), work, f"setup.{i}", spans_file)
        if p.returncode != 0:
            raise SystemExit(f"simulate failed ({p.returncode}):\n{p.tail()}")
        setups.append(p.wall_s)
    out.info["manifest_sha256"] = sha256_file(dataset / "manifest.json")
    if trace:
        out.setup_spans = tracer.read_spans(spans_file)
        spans_file.unlink()

    cmd_times: dict[str, list[float]] = {name: [] for name, _ in COMMANDS}
    peak_kb = 0

    def one_round(i: int, traced: bool) -> float:
        nonlocal peak_kb
        if outputs.exists():
            shutil.rmtree(outputs)  # each round's check sees only what that round wrote
        total = 0.0
        results = []
        for name, extra in COMMANDS:
            p = _invoke(command_args(name, extra, dataset, outputs), work,
                        f"r{i}{'t' if traced else ''}.{name}", spans_file if traced else None)
            total += p.wall_s
            results.append((name, p))
            if not traced:
                cmd_times[name].append(p.wall_s)
                peak_kb = max(peak_kb, p.maxrss_kb)
        got = output_digests(outputs)
        for name, p in results:
            if p.returncode != 0:
                out.op(False, f"{name} exited {p.returncode}: {p.tail()}")
                continue
            want = {k: v for k, v in digests.items() if k.startswith(f"{name}/")}
            have = {k: v for k, v in got.items() if k.startswith(f"{name}/")}
            bad = sorted(k for k in want.keys() | have.keys() if want.get(k) != have.get(k))
            out.op(not bad, f"{name}: outputs differ from the recorded digests: {bad}")
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


def record(work: Path, corpus: Corpus = BASELINE) -> dict:
    """Digests of every CSV for each corpus seed, from the code as it stands."""
    recorded = {}
    for cseed in range(corpus.corpus_seeds):
        dataset, outputs = work / f"dataset{cseed}", work / f"out{cseed}"
        p = _invoke(corpus.simulate_args(cseed, dataset), work, f"rec{cseed}.simulate", None)
        if p.returncode != 0:
            raise SystemExit(f"simulate failed:\n{p.tail()}")
        for name, extra in COMMANDS:
            p = _invoke(command_args(name, extra, dataset, outputs), work, f"rec{cseed}.{name}", None)
            if p.returncode != 0:
                raise SystemExit(f"{name} failed:\n{p.tail()}")
        recorded[str(cseed)] = output_digests(outputs)
    return json.loads(json.dumps({"corpus": asdict(corpus), "seeds": recorded}))
