"""Record validation, series-state keys, and name normalization."""

from __future__ import annotations

import math

import pytest

from conftest import make_event, make_game
from rimkit.model import (
    SeriesStateKey,
    canonical_series_key,
    canonicalize_name,
    validate_game,
)


def test_well_formed_game_has_no_violations():
    game = make_game([make_event(0.5, 0.55, clock=700.0)])
    assert validate_game(game) == []


def test_out_of_range_wp_is_reported_not_raised():
    game = make_game([make_event(1.2, 0.5)])
    problems = validate_game(game)
    assert len(problems) == 1
    assert "pre_wp" in problems[0]
    assert "outside [0, 1]" in problems[0]


def test_postseason_series_state_out_of_bounds():
    game = make_game(
        season_type="postseason",
        series_state=(4, 0),
    )
    problems = validate_game(game)
    assert any("series_state.home_wins" in p for p in problems)


def test_series_state_on_regular_season_game_is_flagged():
    game = make_game(series_state=(1, 0))
    problems = validate_game(game)
    assert any("non-postseason" in p for p in problems)


def test_identical_home_away_teams_flagged():
    game = make_game(home="HOU", away="HOU")
    assert any(p.startswith("teams:") for p in validate_game(game))


def test_event_ordering_violation():
    events = [
        make_event(0.5, 0.5, event_id=1, period=2, clock=100.0),
        make_event(0.5, 0.5, event_id=2, period=1, clock=500.0),
    ]
    problems = validate_game(make_game(events))
    assert any("out of order" in p for p in problems)


def test_same_clock_tie_is_legal():
    events = [
        make_event(0.5, 0.5, event_id=1, period=1, clock=300.0),
        make_event(0.5, 0.5, event_id=2, period=1, clock=300.0),
    ]
    assert validate_game(make_game(events)) == []


def test_overtime_clock_bound_differs_from_regulation():
    ok = make_game([make_event(0.5, 0.5, period=5, clock=299.0)])
    assert validate_game(ok) == []
    bad = make_game([make_event(0.5, 0.5, period=5, clock=500.0)])
    assert any("clock_seconds_remaining" in p for p in validate_game(bad))


def test_unknown_charged_team_flagged_but_none_allowed():
    bad = make_game([make_event(0.5, 0.5, charged="LAL")])
    assert any("charged_team" in p for p in validate_game(bad))
    unattributed = make_game([make_event(0.5, 0.5, charged=None)])
    assert validate_game(unattributed) == []


def test_an_empty_crew_alone_is_no_violation():
    # Ingest keeps such a game and counts it from its crew, not from a message.
    assert validate_game(make_game(crew=())) == []
    problems = validate_game(make_game(crew=(), season_type="preseason"))
    assert [p.split(":")[0] for p in problems] == ["season_type"]


def test_crew_members_must_be_non_empty_names():
    game = make_game([make_event(0.5, 0.55, clock=700.0)], crew=("Tony Brothers", 5, " "))
    assert validate_game(game) == [
        "crew[1]: 5 is not a non-empty name",
        "crew[2]: ' ' is not a non-empty name",
    ]


def test_a_team_or_crew_name_with_a_control_character_is_reported():
    # The tables print these names: a line break would end a comment line
    # early or split a value across rows.
    game = make_game([make_event(0.5, 0.55, charged="HOU\nX", clock=700.0)], home="HOU\nX",
                     crew=("Tony Brothers", "Ann\x00Lee", "Pat\x85Fraher"))
    assert validate_game(game) == [
        "home_team: 'HOU\\nX' holds a control character",
        "crew[1]: 'Ann\\x00Lee' holds a control character",
        "crew[2]: 'Pat\\x85Fraher' holds a control character",
    ]
    assert validate_game(make_game(away="BOS\x7f")) == [
        "away_team: 'BOS\\x7f' holds a control character"]


def test_a_crew_member_listed_twice_is_reported():
    # Counted twice, the official would get the game twice in the referee
    # tallies and two rows of it in the crew panel.
    game = make_game(crew=("Tony Brothers", "Pat Fraher", "Tony Brothers", "Pat Fraher", 5, 5))
    assert validate_game(game) == [
        "crew[4]: 5 is not a non-empty name",
        "crew[5]: 5 is not a non-empty name",
        "crew[2]: 'Tony Brothers' repeats crew[0]",
        "crew[3]: 'Pat Fraher' repeats crew[1]",
    ]


def test_names_with_spaces_and_non_ascii_letters_are_plain():
    game = make_game(home="Team Dončić", away="São Paulo", crew=("José Núñez", "Zhang\u3000Wei"))
    assert validate_game(game) == []


def test_non_string_headers_are_reported_not_raised():
    game = make_game(season=2021, game_id=7, home=None)
    assert validate_game(game) == [
        "game_id: 7 is not a string",
        "season: 2021 is not a string",
        "home_team: None is not a string",
        "teams: home and away ids must be non-empty",
    ]


def test_non_numeric_event_fields_are_reported_not_raised():
    events = [
        make_event(0.5, 0.55, event_id=1, period="1", clock=700.0),
        make_event("0.5", 0.55, event_id=2, clock=True),
        make_event(0.5, 0.55, event_id=3, period=2, clock=100.0),
    ]
    assert validate_game(make_game(events)) == [
        "events[0].period: '1' is not a number",
        "events[1].clock_seconds_remaining: True is not a number",
        "events[1].pre_wp: '0.5' is not a number",
    ]


def test_a_float_period_is_not_an_integer():
    # The kernel indexes its period buckets with the period, so 1.0 is
    # refused like a string; the range and order checks skip the event.
    events = [
        make_event(0.5, 0.55, event_id=1, period=3, clock=100.0),
        make_event(0.5, 0.55, event_id=2, period=1.0, clock=-1.0),
        make_event(0.5, 0.55, event_id=3, period=math.inf, clock=100.0),
        make_event(0.5, 0.55, event_id=4, period=2, clock=100.0),
    ]
    assert validate_game(make_game(events)) == [
        "events[1].period: 1.0 is not an integer",
        "events[2].period: inf is not an integer",
        "events[3]: out of order (period asc, clock desc violated)",
    ]


def test_a_numpy_number_is_judged_by_its_exact_type():
    # np.float64 subclasses float, so an isinstance test let a float64
    # period through validate and the kernel then failed indexing with it.
    import numpy as np

    period, pre = np.float64(1.0), np.float64(0.5)
    events = [
        make_event(0.5, 0.55, event_id=1, period=period, clock=100.0),
        make_event(pre, 0.55, event_id=2, period=1, clock=90.0),
    ]
    assert validate_game(make_game(events)) == [
        f"events[0].period: {period!r} is not an integer",
        f"events[1].pre_wp: {pre!r} is not a number",
    ]


@pytest.mark.parametrize("season", ["../../escaped", "a/b", "/abs", "..", "", "2021 22"])
def test_season_that_is_not_a_plain_directory_name_is_flagged(season):
    problems = validate_game(make_game(season=season))
    assert len(problems) == 1 and problems[0].startswith("season:")


@pytest.mark.parametrize("season", ["2021-22", "S1", "2019_20"])
def test_ordinary_season_labels_pass(season):
    assert validate_game(make_game(season=season)) == []


def test_series_key_collapses_mirrored_states():
    assert canonical_series_key(1, 0) == SeriesStateKey(0, 1)
    assert canonical_series_key(0, 1) == SeriesStateKey(0, 1)
    assert canonical_series_key(2, 2) == SeriesStateKey(2, 2)
    assert canonical_series_key(3, 1).label == "1--3"


def test_series_key_rejects_out_of_range():
    with pytest.raises(ValueError):
        canonical_series_key(4, 0)
    with pytest.raises(ValueError):
        canonical_series_key(0, -1)


@pytest.mark.parametrize(
    "raw,expected",
    [
        ("  tony   brothers ", "Tony Brothers"),
        ("TONY BROTHERS", "Tony Brothers"),
        ("Sean Wright JR", "Sean Wright Jr."),
        ("james capers jr.", "James Capers Jr."),
        ("John Smith iii", "John Smith III"),
    ],
)
def test_canonicalize_name_casing_and_suffixes(raw, expected):
    assert canonicalize_name(raw) == expected


def test_canonicalize_name_preserves_mixed_case():
    assert canonicalize_name("JB DeRosa") == "JB DeRosa"


def test_canonicalize_name_applies_aliases_last():
    aliases = {"Tony Brothers": "Anthony Brothers"}
    assert canonicalize_name("TONY BROTHERS", aliases) == "Anthony Brothers"
