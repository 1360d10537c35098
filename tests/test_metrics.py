"""Per-game metric kernels against hand-computed values and identities."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from conftest import make_event, make_game, random_games
from rimkit.ingest import load_dataset, write_dataset
from rimkit.metrics import (
    PERIOD_BUCKETS,
    compute_game_metrics,
    event_leverage,
    expand_rows,
    period_bucket,
    signed_disparity,
    swing_per_call,
)
from rimkit.model import EventColumns
from rimkit.synth import SimConfig, generate


def test_event_leverage_hand_values():
    assert event_leverage(0.5, 0.5) == 0.0
    assert event_leverage(0.62, 0.55) == pytest.approx(0.07, abs=1e-12)
    assert event_leverage(0.55, 0.62) == pytest.approx(0.07, abs=1e-12)


def test_event_leverage_perspective_symmetry(rng):
    a = rng.random(500)
    b = rng.random(500)
    for x, y in zip(a, b):
        assert event_leverage(1.0 - x, 1.0 - y) == pytest.approx(
            event_leverage(x, y), abs=1e-15
        )


def test_game_rim_empty_and_sum():
    assert compute_game_metrics(make_game([])).home_row.game_rim == 0.0
    events = [
        make_event(0.50, 0.52, event_id=1),
        make_event(0.52, 0.57, event_id=2),
        make_event(0.57, 0.47, event_id=3),
    ]
    assert compute_game_metrics(make_game(events)).home_row.game_rim == pytest.approx(
        0.17, abs=1e-12
    )


def test_swing_per_call_hand_values():
    assert swing_per_call(0.17, 3) == pytest.approx(0.17 / 3, abs=1e-15)
    assert swing_per_call(0.0, 5) == 0.0
    assert swing_per_call(0.4, 0) is None
    with pytest.raises(ValueError):
        swing_per_call(0.1, -1)


def test_signed_disparity_hand_values():
    assert signed_disparity(10, 12) == 2
    assert signed_disparity(12, 10) == -2
    assert signed_disparity(0, 0) == 0


def test_signed_team_rim_single_event():
    m = compute_game_metrics(make_game([make_event(0.50, 0.57)]))
    assert m.home_row.team_rim == pytest.approx(0.07, abs=1e-15)
    assert m.away_row.team_rim == pytest.approx(-0.07, abs=1e-15)


def test_micro_game_frozen_values():
    # Three calls: +0.07 toward home (charged away), -0.04 (charged home),
    # a zero-move call (charged home). Totals worked out by hand.
    events = [
        make_event(0.50, 0.57, charged="BOS", event_id=1, clock=700.0),
        make_event(0.57, 0.53, charged="HOU", event_id=2, clock=400.0),
        make_event(0.53, 0.53, charged="HOU", event_id=3, clock=100.0),
    ]
    m = compute_game_metrics(make_game(events))
    h = m.home_row
    assert h.n_calls == 3
    assert h.game_rim == pytest.approx(0.11, abs=1e-12)
    assert swing_per_call(h.game_rim, h.n_calls) == pytest.approx(0.11 / 3, abs=1e-12)
    assert m.home_row.disparity == -1
    assert m.away_row.disparity == 1
    assert m.home_row.team_rim == pytest.approx(0.03, abs=1e-12)
    assert m.away_row.team_rim == -m.home_row.team_rim


def test_unattributed_fouls_count_toward_rim_not_disparity():
    events = [
        make_event(0.50, 0.60, charged=None, event_id=1),
        make_event(0.60, 0.55, charged="HOU", event_id=2),
    ]
    m = compute_game_metrics(make_game(events))
    assert m.home_row.n_calls == 2
    assert m.home_row.game_rim == pytest.approx(0.15, abs=1e-12)
    assert m.home_row.disparity == -1
    assert m.away_row.disparity == 1


def test_period_bucket_rule():
    assert [period_bucket(p) for p in (1, 2, 3, 4, 5, 9)] == [
        "Q1",
        "Q2",
        "Q3",
        "Q4",
        "OT",
        "OT",
    ]


def test_period_breakdown_single_quarter():
    events = [
        make_event(0.5, 0.6, period=2, event_id=1),
        make_event(0.6, 0.55, period=2, event_id=2, charged="BOS"),
    ]
    m = compute_game_metrics(make_game(events, home="HOU", away="BOS"))
    assert PERIOD_BUCKETS == ("Q1", "Q2", "Q3", "Q4", "OT")
    assert len(m.period_rim) == len(m.period_home_disparity) == len(PERIOD_BUCKETS)
    assert m.period_rim[1] == pytest.approx(0.15, abs=1e-12)
    assert m.period_home_disparity == (0, 0, 0, 0, 0)  # Q2: one each way
    for i in (0, 2, 3, 4):
        assert m.period_rim[i] == 0.0


def test_ot_bucket_pools_all_extra_periods():
    events = [
        make_event(0.5, 0.6, period=5, event_id=1, clock=200.0),
        make_event(0.6, 0.7, period=7, event_id=2, clock=100.0),
    ]
    m = compute_game_metrics(make_game(events, home="HOU", away="BOS"))
    assert m.period_rim[PERIOD_BUCKETS.index("OT")] == pytest.approx(0.2, abs=1e-12)
    assert m.period_rim[:4] == (0.0, 0.0, 0.0, 0.0)


def test_period_breakdown_reconciles_with_game_totals(rng):
    for game in random_games(rng, 200):
        m = compute_game_metrics(game)
        assert sum(m.period_rim) == pytest.approx(m.home_row.game_rim, abs=1e-12)
        assert sum(m.period_home_disparity) == m.home_row.disparity


def test_mirror_identities_random_games(rng):
    games = random_games(rng, 400)
    for game in games:
        m = compute_game_metrics(game)
        q_home = m.home_row.team_rim
        q_away = m.away_row.team_rim
        assert q_home + q_away == 0.0  # exact negation, not approximate
        assert abs(q_home) <= m.home_row.game_rim + 1e-12
        assert m.home_row.game_rim >= 0.0
        assert m.home_row.disparity == -m.away_row.disparity
        assert m.home_row.game_rim == m.away_row.game_rim


def test_rim_zero_iff_all_events_flat():
    flat = [make_event(0.4, 0.4, event_id=i) for i in range(1, 4)]
    assert compute_game_metrics(make_game(flat)).home_row.game_rim == 0.0
    moved = flat + [make_event(0.4, 0.41, event_id=9)]
    assert compute_game_metrics(make_game(moved)).home_row.game_rim > 0.0


def _reference_metrics(game):
    """Each quantity in its own plain loop, adding in event order from 0.0."""
    rim = 0.0
    for e in game.events:
        rim += event_leverage(e.pre_wp, e.post_wp)
    signed = 0.0
    for e in game.events:
        signed += e.post_wp - e.pre_wp
    home_fouls = sum(1 for e in game.events if e.charged_team == game.home_team)
    away_fouls = sum(1 for e in game.events if e.charged_team == game.away_team)
    per = []
    for bucket in PERIOD_BUCKETS:
        events = [e for e in game.events if period_bucket(e.period) == bucket]
        bucket_rim = 0.0
        for e in events:
            bucket_rim += event_leverage(e.pre_wp, e.post_wp)
        disparity = sum(1 for e in events if e.charged_team == game.away_team) - sum(
            1 for e in events if e.charged_team == game.home_team
        )
        per.append((bucket_rim.hex(), disparity))
    return rim.hex(), signed.hex(), (-signed).hex(), away_fouls - home_fouls, per


def test_one_pass_kernel_matches_separate_loops_to_the_bit(rng):
    games = random_games(rng, 300)
    games.append(make_game([make_event(0.5, 0.6, period=0), make_event(0.6, 0.6, period=-1)]))
    for game in games:
        m = compute_game_metrics(game)
        per = [(r.hex(), d) for r, d in zip(m.period_rim, m.period_home_disparity)]
        got = (
            m.home_row.game_rim.hex(),
            m.home_row.team_rim.hex(),
            m.away_row.team_rim.hex(),
            m.home_row.disparity,
            per,
        )
        assert got == _reference_metrics(game)


def _exact_metrics(m) -> tuple:
    """Every field of a ``GameMetrics``, each float as ``float.hex``."""
    def exact(v):
        return v.hex() if type(v) is float else v

    rows = [[exact(getattr(r, f.name)) for f in dataclasses.fields(r)]
            for r in (m.home_row, m.away_row)]
    return rows, [exact(v) for v in m.period_rim], m.period_home_disparity


def test_the_kernel_reads_loaded_columns_to_the_bit_of_the_tuple_form(tmp_path, rng):
    # A loaded game holds its events as typed columns, which the kernel reads
    # without building an event; every sum keeps its order and its bits.
    games = random_games(rng, 200) + generate(SimConfig(
        seed=5, seasons=("2020-21",), n_teams=6, n_referees=9, games_per_season=60,
        postseason_games_per_season=12, overtime_rate=0.3, unattributed_rate=0.1))[0]
    write_dataset(games, tmp_path / "ds")
    loaded = {g.game_id: g for g in load_dataset(tmp_path / "ds")[0]}
    assert all(type(g.events) is EventColumns for g in loaded.values() if g.events)
    for game in games:
        assert (_exact_metrics(compute_game_metrics(loaded[game.game_id]))
                == _exact_metrics(compute_game_metrics(game)))


def test_permutation_invariance(rng):
    games = random_games(rng, 100)
    for game in games:
        if len(game.events) < 2:
            continue
        order = rng.permutation(len(game.events))
        shuffled = make_game(
            [game.events[i] for i in order],
            home=game.home_team,
            away=game.away_team,
        )
        a = compute_game_metrics(game)
        b = compute_game_metrics(shuffled)
        assert a.home_row.n_calls == b.home_row.n_calls
        assert a.home_row.game_rim == pytest.approx(b.home_row.game_rim, abs=1e-12)
        assert a.home_row.team_rim == pytest.approx(b.home_row.team_rim, abs=1e-12)
        assert a.home_row.disparity == b.home_row.disparity


def test_expand_rows_home_first():
    game = make_game([make_event(0.5, 0.6)])
    rows = expand_rows([game])
    assert len(rows) == 2
    assert rows[0].is_home and not rows[1].is_home
    assert rows[0].team == "HOU" and rows[1].team == "BOS"
    assert rows[0].opponent == "BOS" and rows[1].opponent == "HOU"
