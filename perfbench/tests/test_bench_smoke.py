"""Tiny-scale runs of every workload, traced and untraced, through the harness."""

from __future__ import annotations

import copy
import shutil
import subprocess
import sys

import pytest

from perfbench import cli_pipeline, harness, mc_fits, metricdefs
from perfbench.common import BENCH, ROOT, Corpus

E2E = metricdefs.END_TO_END
LAYER = metricdefs.PER_LAYER


@pytest.fixture(autouse=True)
def state_in_tmp(tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "STATE", tmp_path / "state")


def run(workload, trace, **options):
    code, line = harness.run(workload, 0, 0.01, trace, **options)
    values = {k: v["value"] for k, v in line["metrics"].items()}
    assert list(values) == (LAYER if trace else E2E)
    if not trace:
        assert all(v > 0 for v in values.values()), values
    return code, line, values


def test_cli_pipeline(tmp_path):
    corpus = Corpus(seasons=("2021-22",), postseason_games=24, games_per_season=240,
                    teams=8, referees=12, fouls_mean=12.0, corpus_seeds=1)
    (tmp_path / "rec").mkdir()
    reference = cli_pipeline.record(tmp_path / "rec", corpus)
    assert len(reference["seeds"]["0"]) > 20

    code, line, _ = run("cli_pipeline", False, corpus=corpus, reference=reference)
    assert (code, line["correct"], line["failed"], line["attempted"]) == (0, True, 0, 7)

    tampered = copy.deepcopy(reference)
    tampered["seeds"]["0"]["refs/referee_summary.csv"] = "0" * 64
    code, line, values = run("cli_pipeline", True, corpus=corpus, reference=tampered)
    assert (code, line["correct"], line["failed"], line["attempted"]) == (1, False, 2, 14)
    assert values["failed_ops_ratio"] == pytest.approx(2 / 14)
    assert values["metrics.kernel_calls_per_game"] > 3
    assert values["ingest.load_dataset.calls"] == 7
    assert values["ingest.load_dataset.games"] == 7 * 264
    assert values["figures.write_table.calls"] > 20
    assert values["inference.design_cols_kept"] > 0
    assert values["synth.write_corpus.s"] > 0
    assert values["cli.import_s"] > 0 and values["cli.cmd.emit-figures_s"] > 0
    assert values["ingest.parse_game_summary.calls"] == 0


def test_mc_fits():
    study = mc_fits.Study(team_games=120, panel_games=300, teams=8, referees=12,
                          team_side_per_round=4, corpus_seeds=1)
    reference = mc_fits.record(study)
    code, line, _ = run("mc_fits", False, study=study, reference=reference)
    assert code == 0 and line["failed"] == 0
    assert line["attempted"] >= mc_fits.MIN_TEAM_SIDE_FITS

    code, line, values = run("mc_fits", True, study=study, reference=reference)
    assert code == 0 and line["failed"] == 0
    assert values["inference.team_side_effects.calls"] == 4
    assert values["inference.fit_ols.calls"] == 4 + 2
    assert values["inference.ref_team_fit_p50_ms"] > values["inference.team_side_fit_p50_ms"] > 0
    assert values["synth.simulate_ref_team_panel.s"] > 0
    assert values["metrics.compute_game_metrics.calls"] == 0
    assert values["ingest.load_dataset.calls"] == 0

    wrong = copy.deepcopy(reference)
    target = wrong["seeds"]["0"]["team_side"][1]["disparity"]["targets"]
    for term in target:
        target[term][0] += 1e-6
    code, line, _ = run("mc_fits", False, study=study, reference=wrong)
    assert code == 1 and 0 < line["failed"] < line["attempted"]


def test_raw_ingest():
    corpus = Corpus(seasons=("2021-22",), postseason_games=8, games_per_season=40,
                    teams=8, referees=12, fouls_mean=12.0)
    code, line, _ = run("raw_ingest", False, corpus=corpus)
    assert (code, line["correct"], line["failed"], line["attempted"]) == (0, True, 0, 2)

    code, line, values = run("raw_ingest", True, corpus=corpus)
    assert code == 0 and line["failed"] == 0
    assert values["ingest.parse_game_summary.calls"] == 48
    assert values["ingest.parse_wp_feed.calls"] == 48 - 2 - 2  # malformed, missing wp
    assert values["ingest.quarantine.document_errors"] == 2
    assert values["ingest.quarantine.quarantined_games"] == 1
    assert values["ingest.quarantine.no_crew_games"] == 2
    assert values["ingest.quarantine.dropped_samples"] > 0
    assert values["ingest.kept_ratio"] == pytest.approx(45 / 48)
    assert values["model.validate_game.calls"] == 48 - 2 + 45
    assert values["ingest.write_dataset.bytes"] > values["ingest.load_dataset.bytes"] > 0
    assert values["inference.fit_ols.calls"] == 0


def test_refuses_to_run_without_the_rimkit_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mc_fits", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 2
    assert done.stdout == "" and "no rimkit sources" in done.stderr
