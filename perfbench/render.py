"""Render simulated games as raw feed documents, with a seeded set of feed gaps.

Each game becomes ``<season>/<game_id>.summary.json`` (header, officials and
plays) and a sibling ``<game_id>.wp.json`` (win-probability samples keyed by
play id). Filler plays carrying samples surround every foul; the last sample
before each foul is exactly that foul's ``pre_wp`` and the foul's own sample
is its ``post_wp``, so ingest must rebuild every event bit for bit.

The gaps, each on distinct games chosen from the seed, and what ingest owes
for them in its quarantine ledger:

* ``malformed``: the summary is cut in half -> one document error, game gone.
* ``missing_wp``: no wp feed -> every foul quarantined, game kept without events.
* ``bad_samples``: extra plays whose samples are out of range, null, text or
  absent -> each one a dropped sample, game unchanged.
* ``no_crew``: empty officials list -> a no-crew game, kept with an empty crew.
* ``self_play``: the away team is the home team -> a quarantined game, gone.

The expected games are written in the canonical dataset line format, built
here from the simulated records rather than by rimkit's own serializer.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

GAPS = {"malformed": 2, "missing_wp": 2, "bad_samples": 3, "no_crew": 2, "self_play": 1}
# Sample fields ingest must drop: out of range, null, text, absent.
BAD_SAMPLES = ({"home_wp": 1.25}, {"home_wp": -0.05}, {"home_wp": None}, {"home_wp": "n/a"}, {})
FILLER_TEXT = (
    "Jump shot missed",
    "Defensive rebound",
    "Turnover",
    "Layup made",
    "Three point attempt",
    "Timeout",
    "Substitution",
)


def expected_record(game, *, crew=None, events=None) -> dict:
    """A game as one canonical dataset line decodes to."""
    return {
        "game_id": game.game_id,
        "season": game.season,
        "season_type": game.season_type,
        "home_team": game.home_team,
        "away_team": game.away_team,
        "crew": list(game.crew if crew is None else crew),
        "series_state": list(game.series_state) if game.series_state else None,
        "events": [
            {
                "event_id": e.event_id,
                "period": e.period,
                "clock": e.clock_seconds_remaining,
                "team": e.charged_team,
                "pre_wp": e.pre_wp,
                "post_wp": e.post_wp,
                "description": e.description,
            }
            for e in (game.events if events is None else events)
        ],
    }


def _filler(draw) -> str:
    return FILLER_TEXT[int(draw() * len(FILLER_TEXT))]


def _period_start(period: int) -> float:
    return 720.0 if period <= 4 else 300.0


def _plays(game, rng: random.Random, bad_before: set[int]):
    """Plays and wp items for one game, plus the number of bad samples placed."""
    plays: list[dict] = []
    items: list[dict] = []
    seq = 0
    bad = 0

    draw = rng.random  # plain draws; randint and choice cost more than the rendering

    def add(period, clock, text, sample, foul=False, team=None):
        nonlocal seq
        seq += 1 + int(draw() * 3)
        pid = f"{game.game_id}-{seq}"
        play = {"id": pid, "sequence": seq, "period": period,
                "clock_seconds": clock, "text": text, "foul": foul}
        if team is not None:
            play["team"] = team
        plays.append(play)
        items.append({"play_id": pid, **sample})

    first = game.events[0].pre_wp if game.events else 0.5
    add(1, 720.0, "Start of period", {"home_wp": first})
    last_wp, period, clock = first, 1, 720.0
    for k, e in enumerate(game.events):
        top = clock if e.period == period else _period_start(e.period)
        if k in bad_before:
            add(e.period, round(top, 1), _filler(draw), BAD_SAMPLES[bad % len(BAD_SAMPLES)])
            bad += 1
        fillers = (0, 1, 1, 2)[int(draw() * 4)]
        if e.pre_wp != last_wp:
            fillers = max(fillers, 1)
        for i in range(fillers):
            c = e.clock_seconds_remaining + (top - e.clock_seconds_remaining) * draw()
            if i == fillers - 1:
                wp = e.pre_wp
            else:
                wp = min(max(e.pre_wp + rng.gauss(0.0, 0.01), 0.0), 1.0)
            add(e.period, round(c, 1), _filler(draw), {"home_wp": wp})
        add(e.period, e.clock_seconds_remaining, e.description, {"home_wp": e.post_wp},
            foul=True, team=e.charged_team)
        last_wp, period, clock = e.post_wp, e.period, e.clock_seconds_remaining
    add(period, 0.0, "End of game", {"home_wp": last_wp})
    return plays, items, bad


def render_corpus(games, raw_dir: Path, seed: int) -> tuple[dict[str, int], dict[str, dict]]:
    """Write raw documents for ``games``; return (quarantine ledger, expected games by id)."""
    raw_dir = Path(raw_dir)
    rng = random.Random(f"perfbench-render:{seed}")
    picked = rng.sample(range(len(games)), sum(GAPS.values()))
    gap_of: dict[int, str] = {}
    for kind, count in GAPS.items():
        for _ in range(count):
            gap_of[picked.pop()] = kind
    ledger = {
        "document_errors": 0,
        "quarantined_games": 0,
        "no_crew_games": 0,
        "quarantined_fouls": 0,
        "dropped_samples": 0,
    }
    expected: dict[str, dict] = {}
    for index, game in enumerate(games):
        gap = gap_of.get(index)
        game_rng = random.Random(f"{seed}:{game.game_id}")
        bad_before = set()
        if gap == "bad_samples":
            bad_before = set(game_rng.sample(range(len(game.events)), min(5, len(game.events))))
        plays, items, bad = _plays(game, game_rng, bad_before)
        officials = list(game.crew)
        if game_rng.random() < 0.1:
            officials = [name.upper() for name in officials]  # feeds shout; canonicalized back
        summary = {
            "game_id": game.game_id,
            "season": game.season,
            "season_type": game.season_type,
            "home_team": game.home_team,
            "away_team": game.home_team if gap == "self_play" else game.away_team,
            "officials": [] if gap == "no_crew" else officials,
            "plays": plays,
        }
        if game.series_state is not None:
            summary["series"] = {"home_wins": game.series_state[0], "away_wins": game.series_state[1]}
        wp = {"game_id": game.game_id, "pregame": items[0]["home_wp"], "items": items}

        folder = raw_dir / game.season
        folder.mkdir(parents=True, exist_ok=True)
        data = json.dumps(summary, separators=(",", ":")).encode("utf-8")
        if gap == "malformed":
            data = data[: len(data) // 2]
        (folder / f"{game.game_id}.summary.json").write_bytes(data)
        if gap != "missing_wp":
            (folder / f"{game.game_id}.wp.json").write_bytes(
                json.dumps(wp, separators=(",", ":")).encode("utf-8")
            )

        if gap == "malformed":
            ledger["document_errors"] += 1
        elif gap == "self_play":
            ledger["quarantined_games"] += 1
        elif gap == "missing_wp":
            ledger["quarantined_fouls"] += len(game.events)
            expected[game.game_id] = expected_record(game, events=())
        elif gap == "no_crew":
            ledger["no_crew_games"] += 1
            expected[game.game_id] = expected_record(game, crew=())
        else:
            ledger["dropped_samples"] += bad
            expected[game.game_id] = expected_record(game)
    return ledger, expected


def compare_dataset(dataset: Path, expected: dict[str, dict], ledger: dict[str, int]) -> list[str]:
    """Differences between an ingested dataset and the renderer's expectations."""
    dataset = Path(dataset)
    problems: list[str] = []
    manifest = json.loads((dataset / "manifest.json").read_text(encoding="utf-8"))
    if manifest.get("quarantine") != ledger:
        problems.append(f"quarantine {manifest.get('quarantine')} != ledger {ledger}")
    seen: set[str] = set()
    for part in manifest["partitions"]:
        with open(dataset / part["path"], encoding="utf-8") as fh:
            for line in fh:
                game = json.loads(line)
                gid = game["game_id"]
                seen.add(gid)
                if expected.get(gid) != game:
                    problems.append(f"game {gid} differs from the simulated game")
    missing = len(set(expected) - seen)
    if missing:
        problems.append(f"{missing} expected games missing")
    return problems
