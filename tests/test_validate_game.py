"""``validate_game`` against a frozen copy of its rule-by-rule form.

``validate_game`` checks a passing event with one chain of comparisons and
words messages only for an event that fails. ``reference_validate_game``
below is the function as it was before that fast path, kept verbatim
apart from its name and three later rules (a float period is not an integer,
and the range and order checks skip it; a crew member listed twice is
reported after the name check of every crew member; an empty crew is no
violation): every message, and
the order of the messages, must match it on games built to break each
rule, alone and together, and for a loaded game whose events are held as
columns.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from conftest import make_event, make_game
from rimkit.ingest import game_from_dict, game_to_dict
from rimkit.model import (
    MAX_SERIES_WINS,
    OVERTIME_SECONDS,
    PERIOD_SECONDS,
    POSTSEASON,
    REGULATION_PERIODS,
    SAFE_LABEL,
    SEASON_TYPES,
    EventColumns,
    FoulEvent,
    GameRecord,
    validate_game,
)

_EVENT_NUMBERS = ("period", "clock_seconds_remaining", "pre_wp", "post_wp")


def _period_length(period: int) -> float:
    return PERIOD_SECONDS if period <= REGULATION_PERIODS else OVERTIME_SECONDS


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def reference_validate_game(record: GameRecord) -> list[str]:
    problems: list[str] = []
    if record.season_type not in SEASON_TYPES:
        problems.append(
            f"season_type: {record.season_type!r} not one of {SEASON_TYPES}"
        )
    problems += [f"{name}: {getattr(record, name)!r} is not a string"
                 for name in ("game_id", "season", "home_team", "away_team")
                 if not isinstance(getattr(record, name), str)]
    if isinstance(record.season, str) and not SAFE_LABEL.fullmatch(record.season):
        problems.append(f"season: {record.season!r} is not a plain directory name")
    if not record.game_id:
        problems.append("game_id: empty")
    if not record.home_team or not record.away_team:
        problems.append("teams: home and away ids must be non-empty")
    elif record.home_team == record.away_team:
        problems.append(f"teams: home and away are both {record.home_team!r}")
    for i, ref in enumerate(record.crew):
        if not isinstance(ref, str) or not ref.strip():
            problems.append(f"crew[{i}]: {ref!r} is not a non-empty name")
    listed: list = []
    for i, ref in enumerate(record.crew):
        if isinstance(ref, str) and ref in listed:
            problems.append(f"crew[{i}]: {ref!r} repeats crew[{listed.index(ref)}]")
        listed.append(ref)

    sides = (record.home_team, record.away_team)
    prev: tuple | None = None  # (period, clock) of the last event checked
    for i, (_, period, clock, charged, pre, post, _) in enumerate(record.events):
        tag = f"events[{i}]"
        if (type(period) is not int or type(clock) is not float
                or type(pre) is not float or type(post) is not float):
            typed = [f"{tag}.{name}: {value!r} is not a number"
                     for name, value in zip(_EVENT_NUMBERS, (period, clock, pre, post))
                     if not _is_number(value)]
            if type(period) is float:  # a number, but periods are counted
                typed.insert(0, f"{tag}.period: {period!r} is not an integer")
            if typed:
                problems += typed  # the range and order checks need numbers
                continue
        if period < 1:
            problems.append(f"{tag}.period: {period} below 1")
        else:
            limit = _period_length(period)
            if not 0.0 <= clock <= limit:
                problems.append(f"{tag}.clock_seconds_remaining: {clock} outside [0, {limit}]")
        for field_name, wp in (("pre_wp", pre), ("post_wp", post)):
            if not 0.0 <= wp <= 1.0:
                problems.append(f"{tag}.{field_name}: win probability {wp} outside [0, 1]")
        if charged is not None and charged not in sides:
            problems.append(f"{tag}.charged_team: {charged!r} is neither side")
        # Ties (same period, same clock) keep feed order and are legal.
        if prev is not None and (period < prev[0] or (period == prev[0] and clock > prev[1])):
            problems.append(f"{tag}: out of order (period asc, clock desc violated)")
        prev = (period, clock)

    state = record.series_state
    if state is not None:
        if record.season_type != POSTSEASON:
            problems.append("series_state: present on a non-postseason game")
        hw, aw = state
        for side, wins in (("home_wins", hw), ("away_wins", aw)):
            if not 0 <= wins <= MAX_SERIES_WINS:
                problems.append(
                    f"series_state.{side}: {wins} outside 0..{MAX_SERIES_WINS}"
                )
    return problems


# Values at and around every bound, and of every wrong type; each field is
# valid about half the time, so passing and failing events mix in one game.
NOT_NUMBERS = st.sampled_from([True, False, None, "1", (1,)])
NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])


def mostly(valid, *others):
    return st.one_of(valid, st.one_of(*others))


periods = mostly(st.integers(1, 5), st.integers(-1, 7), st.floats(-1.0, 7.0), NON_FINITE,
                 NOT_NUMBERS)
clocks = mostly(
    st.sampled_from([0.0, -0.0, 300.0, 720.0, 600.0, 100.0]),
    st.sampled_from([math.nextafter(300.0, math.inf), math.nextafter(720.0, math.inf),
                     -5e-324]),
    st.floats(-10.0, 800.0),
    st.integers(-5, 800),  # an int clock is a number, though not a float
    NON_FINITE,
    NOT_NUMBERS,
)
probabilities = mostly(
    st.floats(0.0, 1.0),
    st.sampled_from([0.0, 1.0, math.nextafter(1.0, 2.0), -5e-324]),
    st.floats(-0.5, 1.5),
    st.integers(-1, 2),
    NON_FINITE,
    NOT_NUMBERS,
)
SIDES = ("HOU", "BOS")
events = st.tuples(
    st.integers(1, 50),
    periods,
    clocks,
    mostly(st.sampled_from((None,) + SIDES), st.sampled_from(("LAL", "", 7))),
    probabilities,
    probabilities,
    st.just("Foul"),
).map(lambda fields: FoulEvent(*fields))
games = st.builds(
    GameRecord,
    game_id=st.sampled_from(["g1", "", 7, None]),
    season=st.sampled_from(["2021-22", "../x", "a/b", "", 2021]),
    season_type=st.sampled_from(list(SEASON_TYPES) + ["preseason", None]),
    home_team=st.sampled_from(SIDES + ("", None, 5)),
    away_team=st.sampled_from(SIDES + ("", None)),
    crew=st.lists(st.sampled_from(["Ref A", "Ref B", "", "  ", 5, None]), max_size=3).map(tuple),
    events=st.lists(events, max_size=8).map(tuple),
    series_state=st.one_of(
        st.none(),
        st.tuples(st.integers(-1, MAX_SERIES_WINS + 1), st.integers(-1, MAX_SERIES_WINS + 1)),
    ),
)


@settings(max_examples=400, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(games)
@example(make_game([
    make_event(0.5, 0.6, period=2, clock=100.0),
    make_event(1.5, -0.1, period=1, clock=800.0, charged="LAL"),  # four messages at once
    make_event(0.5, 0.6, period=1, clock=800.0),  # a tie with the event before
    make_event(0.5, 0.6, period=5, clock=300.0),
    make_event(0.5, 0.6, period=5, clock=301.0),
]))
@example(make_game([make_event(0.5, 0.6, period=True, clock=math.nan)]))
@example(make_game([make_event(0.5, 0.6, clock=700), make_event(0.5, 0.6, clock=710)]))
@example(make_game([make_event(0.5, 0.6, period=0, clock=-1.0)], crew=(),
                   series_state=(4, -1)))
@example(make_game(home="HOU", away="HOU", season_type="postseason", series_state=(3, 3)))
def test_validate_game_matches_the_rule_by_rule_reference(game):
    assert validate_game(game) == reference_validate_game(game)


# Events of the column form's types, at and around every bound.
column_events = st.tuples(
    st.integers(1, 50),
    st.integers(-1, 7),
    st.one_of(st.sampled_from([0.0, -0.0, 300.0, 720.0, 600.0, 100.0]),
              st.sampled_from([math.nextafter(300.0, math.inf), math.nextafter(720.0, math.inf),
                               -5e-324]),
              st.floats(-10.0, 800.0), NON_FINITE),
    st.sampled_from((None, "LAL") + SIDES),
    st.one_of(st.floats(0.0, 1.0), st.floats(-0.5, 1.5), NON_FINITE),
    st.one_of(st.floats(0.0, 1.0), st.floats(-0.5, 1.5), NON_FINITE),
    st.just("Foul"),
).map(lambda fields: FoulEvent(*fields))


@settings(max_examples=300, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(column_events, min_size=1, max_size=8))
def test_validate_game_reads_events_held_as_columns_as_the_reference(events):
    # The fast chain reads the columns; a failing event is built to word its
    # messages, which must be the reference's for the same events as tuples.
    game = make_game(events)
    loaded = game_from_dict(game_to_dict(game))
    assert type(loaded.events) is EventColumns
    assert validate_game(loaded) == reference_validate_game(game)


# One rule broken by the smallest step past its bound, first in its game and
# after a valid event: the one chain of comparisons must send each to the
# rule-by-rule check.
_AFTER = make_event(0.5, 0.6, period=2, clock=200.0)
ONE_RULE_BROKEN = {
    "period-0": make_event(0.5, 0.6, period=0, clock=600.0),
    "clock-below-0": make_event(0.5, 0.6, period=2, clock=-5e-324),
    "clock-past-720": make_event(0.5, 0.6, period=4, clock=math.nextafter(720.0, 800.0)),
    "overtime-clock-past-300": make_event(0.5, 0.6, period=5, clock=600.0),
    "pre-past-1": make_event(math.nextafter(1.0, 2.0), 0.6, period=2, clock=100.0),
    "post-below-0": make_event(0.5, -5e-324, period=2, clock=100.0),
    "pre-nan": make_event(math.nan, 0.6, period=2, clock=100.0),
    "foreign-team": make_event(0.5, 0.6, period=2, clock=100.0, charged="LAL"),
    "earlier-period": make_event(0.5, 0.6, period=1, clock=100.0),
    "later-clock": make_event(0.5, 0.6, period=2, clock=200.5),
    "int-clock": make_event(0.5, 0.6, period=2, clock=100),
    "bool-period": make_event(0.5, 0.6, period=True, clock=100.0),
    "float-period": make_event(0.5, 0.6, period=2.0, clock=100.0),
}


@pytest.mark.parametrize("event", ONE_RULE_BROKEN.values(), ids=ONE_RULE_BROKEN.keys())
def test_validate_game_words_each_broken_rule_as_the_reference(event):
    for events in ([event], [_AFTER, event, make_event(0.5, 0.6, period=5, clock=0.0)]):
        game = make_game(events)
        assert validate_game(game) == reference_validate_game(game)
