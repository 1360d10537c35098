"""Raw-feed renderer -> rimkit ingest round trip."""

from __future__ import annotations

import json

from perfbench import render
from perfbench.common import Corpus
from rimkit.ingest import game_to_dict, ingest_directory, write_dataset
from rimkit.synth import generate

TINY = Corpus(seasons=("2021-22",), postseason_games=12, games_per_season=48,
              teams=8, referees=12, fouls_mean=12.0)


def test_round_trip_reproduces_games_and_the_exact_ledger(tmp_path):
    games, _ = generate(TINY.sim_config(7))
    ledger, expected = render.render_corpus(games, tmp_path / "raw", 7)
    assert ledger["document_errors"] == render.GAPS["malformed"]
    assert ledger["quarantined_games"] == render.GAPS["self_play"]
    assert ledger["no_crew_games"] == render.GAPS["no_crew"]
    assert ledger["dropped_samples"] == render.GAPS["bad_samples"] * len(render.BAD_SAMPLES)
    assert ledger["quarantined_fouls"] > 0
    assert len(expected) == len(games) - render.GAPS["malformed"] - render.GAPS["self_play"]

    ingested, report = ingest_directory(tmp_path / "raw")
    assert report.documents_seen == len(games)
    assert report.quarantine_counts() == ledger
    assert {g.game_id: json.loads(json.dumps(game_to_dict(g))) for g in ingested} == expected

    write_dataset(ingested, tmp_path / "ds", quarantine=report.quarantine_counts())
    assert render.compare_dataset(tmp_path / "ds", expected, ledger) == []
    wrong = dict(expected)
    gid = next(iter(wrong))
    wrong[gid] = dict(wrong[gid], crew=["Nobody"])
    assert render.compare_dataset(tmp_path / "ds", wrong, ledger) == [
        f"game {gid} differs from the simulated game"
    ]


def test_rendering_is_deterministic(tmp_path):
    games, _ = generate(TINY.sim_config(3))
    first = render.render_corpus(games, tmp_path / "a", 3)
    second = render.render_corpus(games, tmp_path / "b", 3)
    assert first == second
    names = sorted(p.relative_to(tmp_path / "a") for p in (tmp_path / "a").rglob("*.json"))
    assert names == sorted(p.relative_to(tmp_path / "b") for p in (tmp_path / "b").rglob("*.json"))
    for name in names:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
