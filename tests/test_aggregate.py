"""Referee distributions, rankings, splits, and check tables."""

from __future__ import annotations

import math

import pytest

from conftest import make_event, make_game, random_games
from rimkit.aggregate import (
    component_check_tables,
    home_away_summary,
    pearson,
    referee_distribution,
    series_state_summary,
    top_bottom_table,
)
from rimkit.metrics import compute_game_metrics, expand_rows


def test_pearson_hand_value():
    assert pearson([1.0, 2.0, 3.0], [2.0, 1.0, 4.0]) == pytest.approx(
        math.sqrt(3.0 / 7.0), abs=1e-12
    )
    assert pearson([1.0, 2.0, 3.0], [10.0, 20.0, 30.0]) == pytest.approx(1.0)
    assert pearson([1.0, 2.0, 3.0], [-1.0, -2.0, -3.0]) == pytest.approx(-1.0)


def test_pearson_undefined_cases():
    assert pearson([1.0, 2.0], [3.0, 4.0]) is None
    assert pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0]) is None
    with pytest.raises(ValueError):
        pearson([1.0], [1.0, 2.0])


def _game_with_rim(game_id: str, rim: float, crew, n_calls: int = 2, **kw):
    # Split the target rim across events, alternating direction so the
    # home-side disparity stays small and deterministic.
    step = rim / n_calls
    events = []
    wp = 0.5
    for i in range(n_calls):
        post = wp + step if i % 2 == 0 else wp - step
        events.append(
            make_event(
                wp, post, charged="HOU" if i % 2 else "BOS", event_id=i + 1,
                clock=700.0 - i,
            )
        )
        wp = post
    return make_game(events, game_id=game_id, crew=crew, **kw)


def test_single_referee_mean_matches_corpus_mean():
    games = [
        _game_with_rim("g1", 0.12, crew=("Solo Ref",)),
        _game_with_rim("g2", 0.20, crew=("Solo Ref",)),
        _game_with_rim("g3", 0.04, crew=("Solo Ref",)),
    ]
    summaries, band = referee_distribution(games, 1)
    assert len(summaries) == 1
    expected = sum(compute_game_metrics(g).home_row.game_rim for g in games) / 3
    assert summaries[0].mean_rim == pytest.approx(expected, abs=1e-12)
    assert band.mean == pytest.approx(expected, abs=1e-12)


def test_qualification_threshold_is_strict():
    games = [
        _game_with_rim(f"g{i}", 0.1, crew=("Ref Busy", "Ref Rare")[: 1 + (i < 2)])
        for i in range(5)
    ]
    # Ref Busy works 5 games, Ref Rare only 2.
    summaries, _ = referee_distribution(games, 3)
    assert [s.referee for s in summaries] == ["Ref Busy"]
    summaries, _ = referee_distribution(games, 2)
    assert sorted(s.referee for s in summaries) == ["Ref Busy", "Ref Rare"]


def test_crew_games_sum_to_three_per_game(rng):
    games = random_games(rng, 50)
    summaries, _ = referee_distribution(games, 1)
    assert sum(s.games for s in summaries) == 3 * len(games)


def test_ordering_mean_desc_name_asc():
    games = [
        _game_with_rim("g1", 0.30, crew=("B Ref",)),
        _game_with_rim("g2", 0.30, crew=("A Ref",)),
        _game_with_rim("g3", 0.10, crew=("C Ref",)),
    ]
    summaries, _ = referee_distribution(games, 1)
    assert [s.referee for s in summaries] == ["A Ref", "B Ref", "C Ref"]


def test_band_hand_computation():
    games = [
        _game_with_rim("g1", 0.10, crew=("R1",)),
        _game_with_rim("g2", 0.20, crew=("R2",)),
        _game_with_rim("g3", 0.30, crew=("R3",)),
    ]
    summaries, band = referee_distribution(games, 1)
    means = sorted(s.mean_rim for s in summaries)
    grand = sum(means) / 3
    sd = math.sqrt(sum((m - grand) ** 2 for m in means) / 2)
    assert band.mean == pytest.approx(grand, abs=1e-12)
    assert band.sd == pytest.approx(sd, abs=1e-12)
    assert band.lower == pytest.approx(grand - sd, abs=1e-12)
    assert band.upper == pytest.approx(grand + sd, abs=1e-12)


def test_empty_qualified_set():
    summaries, band = referee_distribution([], 1)
    assert summaries == [] and band is None


def test_zero_call_games_do_not_drag_swing():
    busy = _game_with_rim("g1", 0.2, crew=("R1",), n_calls=4)
    quiet = make_game([], game_id="g2", crew=("R1",))
    summaries, _ = referee_distribution([busy, quiet], 1)
    s = summaries[0]
    assert s.games == 2
    # Swing averages only the game that had calls: 0.2/4.
    assert s.mean_swing_per_call == pytest.approx(0.05, abs=1e-12)


def test_no_crew_games_are_skipped():
    games = [
        _game_with_rim("g1", 0.2, crew=("R1",)),
        make_game([], game_id="g2", crew=()),
    ]
    summaries, _ = referee_distribution(games, 1)
    assert summaries[0].games == 1


def test_top_bottom_table_small_set_flagged():
    games = [
        _game_with_rim("g1", 0.1, crew=("R1",)),
        _game_with_rim("g2", 0.2, crew=("R2",)),
        _game_with_rim("g3", 0.3, crew=("R3",)),
    ]
    summaries, _ = referee_distribution(games, 1)
    table = top_bottom_table(summaries, 10)
    assert table.truncated
    sections = [e.section for e in table.entries]
    assert sections == ["bottom"] * 3 + ["mean"] + ["top"] * 3
    bottom = [e for e in table.entries if e.section == "bottom"]
    top = [e for e in table.entries if e.section == "top"]
    assert bottom[0].value <= bottom[-1].value
    assert top[0].value >= top[-1].value
    mean_row = next(e for e in table.entries if e.section == "mean")
    assert mean_row.label == "all qualified"
    assert mean_row.value == pytest.approx(0.2, abs=1e-9)


def test_top_bottom_table_k1():
    games = [
        _game_with_rim("g1", 0.1, crew=("Low",)),
        _game_with_rim("g2", 0.9, crew=("High",)),
        _game_with_rim("g3", 0.5, crew=("Mid",)),
    ]
    summaries, _ = referee_distribution(games, 1)
    table = top_bottom_table(summaries, 1)
    assert not table.truncated
    assert table.entries[0].label == "Low"
    assert table.entries[-1].label == "High"
    with pytest.raises(ValueError):
        top_bottom_table(summaries, 0)


def test_home_away_league_mirror():
    games = [
        make_game(
            [make_event(0.5, 0.62, charged="BOS"), make_event(0.62, 0.5, charged="HOU", event_id=2)],
            game_id="g1",
        ),
        make_game(
            [make_event(0.5, 0.4, charged="HOU")],
            game_id="g2",
            home="NYK",
            away="MIA",
        ),
    ]
    # Second game charges "HOU" which is neither side; rebuild correctly.
    games[1] = make_game(
        [make_event(0.5, 0.4, charged="NYK")],
        game_id="g2",
        home="NYK",
        away="MIA",
    )
    rows = expand_rows(games)
    summary = home_away_summary(rows)
    league = {(s.season_type, s.side): s for s in summary.league}
    home = league[("regular", "home")]
    away = league[("regular", "away")]
    assert home.n_rows == 2 and away.n_rows == 2
    assert home.mean_disparity == -away.mean_disparity
    assert home.mean_team_rim == -away.mean_team_rim


def test_home_away_per_team_splits():
    games = [
        make_game(
            [make_event(0.5, 0.6, charged="BOS")], game_id="g1", home="HOU", away="BOS"
        ),
        make_game(
            [make_event(0.5, 0.45, charged="HOU")], game_id="g2", home="BOS", away="HOU"
        ),
    ]
    rows = expand_rows(games)
    summary = home_away_summary(rows)
    by_team = {t.team: t for t in summary.teams}
    hou = by_team["HOU"]
    assert hou.home_games == 1 and hou.away_games == 1
    assert hou.home_mean_disparity == pytest.approx(1.0)  # BOS charged in g1
    assert hou.away_mean_disparity == pytest.approx(-1.0)  # HOU charged in g2
    # team rim: g1 home +0.1 toward HOU, g2 away: home moved -0.05 => +0.05 for HOU
    assert hou.home_mean_team_rim == pytest.approx(0.1, abs=1e-12)
    assert hou.away_mean_team_rim == pytest.approx(0.05, abs=1e-12)


def test_home_away_league_splits_season_types():
    games = [
        make_game([make_event(0.5, 0.6)], game_id="g1"),
        make_game(
            [make_event(0.5, 0.6)],
            game_id="g2",
            season_type="postseason",
            series_state=(0, 0),
        ),
    ]
    league = home_away_summary(expand_rows(games)).league
    assert [(s.season_type, s.side, s.n_rows) for s in league] == [
        ("postseason", "home", 1),
        ("postseason", "away", 1),
        ("regular", "home", 1),
        ("regular", "away", 1),
    ]


def test_series_state_summary_pools_mirrored_states():
    def post_game(gid, state, pre, post):
        return make_game(
            [make_event(pre, post, charged="BOS")],
            game_id=gid,
            season_type="postseason",
            series_state=state,
        )

    games = [
        post_game("g1", (2, 1), 0.5, 0.6),
        post_game("g2", (1, 2), 0.5, 0.7),
        post_game("g3", (0, 0), 0.5, 0.55),
        post_game("g4", None, 0.5, 0.52),
    ]
    rows = expand_rows(games)
    summary = series_state_summary(rows)
    assert sum(b.games for b in summary.buckets) == 3
    assert summary.games_missing_state == 1
    labels = [b.key.label for b in summary.buckets]
    assert labels == ["0--0", "1--2"]  # ascending, mirrored states pooled
    pooled = summary.buckets[1]
    assert pooled.games == 2
    assert pooled.team_rows == 4
    assert pooled.mean_game_rim == pytest.approx((0.1 + 0.2) / 2, abs=1e-12)
    assert pooled.mean_abs_disparity == pytest.approx(1.0)


def test_series_state_summary_ignores_regular_season_rows():
    rows = expand_rows([make_game([make_event(0.5, 0.6)], game_id="g1")])
    summary = series_state_summary(rows)
    assert summary.buckets == []


def test_component_check_tables_track_summary_fields(rng):
    games = random_games(rng, 60)
    summaries, _ = referee_distribution(games, 1)
    series = component_check_tables(summaries)
    assert len(series.points) == len(
        [s for s in summaries if s.mean_swing_per_call is not None]
    )
    if len(series.points) >= 3:
        assert series.correlation is not None
