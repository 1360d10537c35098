"""Domain model for leverage-weighted officiating statistics.

Win probabilities are plain floats in [0, 1], always stored from the home
team's perspective; away-side values are derived as ``1 - w``. Validation
is data, not control flow: records must be constructible from whatever a
feed contains, and :func:`validate_game` reports rule violations for the
ingest layer to quarantine or flag.
"""

from __future__ import annotations

import re
from array import array
from collections.abc import Iterator, Mapping, Sequence
from dataclasses import dataclass
from functools import partial
from itertools import repeat
from typing import NamedTuple

REGULAR = "regular"
POSTSEASON = "postseason"
SEASON_TYPES = (REGULAR, POSTSEASON)

# How a team-side target enters a design: a 0/1 column on its own rows, or
# also -1 on the mirror rows where the team is the opponent on the other side.
TARGET_FORMS = ("indicator", "paired")

REGULATION_PERIODS = 4
PERIOD_SECONDS = 12 * 60.0
OVERTIME_SECONDS = 5 * 60.0

MAX_SERIES_WINS = 3

# A game's leading ``GameRecord`` fields: strings the analyses sort, key and partition by.
HEADERS = ("game_id", "season", "season_type", "home_team", "away_team")
# Event fields the range and order rules compare as numbers.
_EVENT_NUMBERS = ("period", "clock_seconds_remaining", "pre_wp", "post_wp")
# The exact types the analyses compute with (a bool is not a number): a
# period indexes the period buckets, so it must be an int; the clock and
# probabilities may be ints or floats.
PERIOD_TYPES = frozenset({int})
NUMBER_TYPES = frozenset({int, float})

# Season labels name dataset directories, so one must be a single plain
# path component ("2021-22", "S1"), never "..", "a/b" or an absolute path.
SAFE_LABEL = re.compile(r"[A-Za-z0-9][A-Za-z0-9_-]*")

# Team and crew names are printed in the tables, as values and in comment
# lines, so one may hold no control character (Unicode category Cc): a line
# break would end a comment early or split a value across rows.
CONTROL_CHARACTER = re.compile(r"[\x00-\x1f\x7f-\x9f]")

# Generational suffixes keep conventional casing under name normalization.
_SUFFIXES = {"jr": "Jr.", "sr": "Sr.", "ii": "II", "iii": "III", "iv": "IV", "v": "V"}


class FoulEvent(NamedTuple):
    """One whistle bracketed by win-probability samples.

    ``pre_wp`` is the last sample strictly before the call, ``post_wp`` the
    sample attached to the call itself (or the nearest one after it); both
    are home-side probabilities. ``charged_team`` is None when the feed
    cannot attribute the call to either team.

    A NamedTuple rather than a dataclass: the simulator and ingest build one
    per call, and a tuple of atoms is cheaper to build and is left alone by
    the cyclic garbage collector. A loaded game holds its events as
    :class:`EventColumns` instead, which yields one on demand. Use
    ``_replace`` to derive a modified event.
    """

    event_id: int
    period: int
    clock_seconds_remaining: float
    charged_team: str | None
    pre_wp: float
    post_wp: float
    description: str = ""


# A FoulEvent from a tuple of its field values, without its Python-level __new__.
new_event = partial(tuple.__new__, FoulEvent)


class EventColumns(Sequence):
    """One game's events as typed columns, one per ``FoulEvent`` field.

    A loaded game holds its events this way: ``event_id`` and ``period`` in
    ``array('q')``, the clock and both win probabilities in ``array('d')``,
    and the team and description strings, shared across a load, in tuples.
    That keeps about 60 bytes an event where a tuple of ``FoulEvent``s
    keeps about 200. It reads as that tuple: indexing and iteration yield
    ``FoulEvent``s, a slice is a tuple of them, and it compares equal to,
    hashes like and has the repr of the tuple of the same events. The
    kernels read the columns directly, building no event; the arrays hold
    only 64-bit ints and floats, so every event number is of a type the
    analyses accept. The columns are not to be written to.
    """

    __slots__ = FoulEvent._fields

    def __init__(self, event_id: array, period: array, clock_seconds_remaining: array,
                 charged_team: tuple[str | None, ...], pre_wp: array, post_wp: array,
                 description: tuple[str, ...]):
        self.event_id = event_id
        self.period = period
        self.clock_seconds_remaining = clock_seconds_remaining
        self.charged_team = charged_team
        self.pre_wp = pre_wp
        self.post_wp = post_wp
        self.description = description

    def _columns(self) -> tuple:
        return (self.event_id, self.period, self.clock_seconds_remaining, self.charged_team,
                self.pre_wp, self.post_wp, self.description)

    def __len__(self) -> int:
        return len(self.event_id)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(self)[index]
        return new_event(column[index] for column in self._columns())

    def __iter__(self) -> Iterator[FoulEvent]:
        return map(new_event, zip(*self._columns()))

    def __eq__(self, other):
        if isinstance(other, (tuple, EventColumns)):
            return tuple(self) == tuple(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return repr(tuple(self))


@dataclass(frozen=True, slots=True, order=True)
class SeriesStateKey:
    """Pregame playoff series score with mirrored orderings collapsed.

    ``(2, 1)`` and ``(1, 2)`` both canonicalize to ``lo=1, hi=2``; ordering
    is plain tuple order on ``(lo, hi)``, which puts 0--0 first.
    """

    lo: int
    hi: int

    @property
    def label(self) -> str:
        return f"{self.lo}--{self.hi}"


def canonical_series_key(home_wins: int, away_wins: int) -> SeriesStateKey:
    """Collapse a pregame series score over home/away orientation."""
    for name, wins in (("home_wins", home_wins), ("away_wins", away_wins)):
        if not 0 <= wins <= MAX_SERIES_WINS:
            raise ValueError(f"{name} must be in 0..{MAX_SERIES_WINS}, got {wins}")
    return SeriesStateKey(min(home_wins, away_wins), max(home_wins, away_wins))


@dataclass(frozen=True, slots=True)
class GameRecord:
    """One game: identity, crew, aligned foul events, optional series state.

    ``events`` hold only fouls that survived alignment, in feed order: a
    tuple of ``FoulEvent``s, or :class:`EventColumns` for a loaded game
    whose event values all fit its columns. ``series_state`` is the raw
    pregame ``(home_wins, away_wins)`` pair and is only meaningful for
    postseason games.
    """

    game_id: str
    season: str
    season_type: str
    home_team: str
    away_team: str
    crew: tuple[str, ...]
    events: tuple[FoulEvent, ...] | EventColumns
    series_state: tuple[int, int] | None = None


@dataclass(frozen=True, slots=True)
class TeamGameRow:
    """One team's side of one game, the unit of every panel downstream.

    ``disparity`` is opponent fouls minus own fouls (positive favors
    ``team``); ``team_rim`` is the net win-probability movement toward
    ``team`` over all calls. The two rows of a game are exact mirrors:
    disparity and team_rim negate, shared game-level fields match.
    """

    game_id: str
    team: str
    opponent: str
    is_home: bool
    season: str
    season_type: str
    disparity: int
    team_rim: float
    game_rim: float
    n_calls: int
    series_key: SeriesStateKey | None = None


def _period_length(period: int) -> float:
    return PERIOD_SECONDS if period <= REGULATION_PERIODS else OVERTIME_SECONDS


def unusable_values(record: GameRecord, events: bool = True) -> Iterator[tuple[str, object, str]]:
    """Each value of ``record`` the analyses cannot use, in field order, as
    (field path, value, what it should be): a header that is not a string,
    then, with ``events``, each event number whose exact type is not in
    ``PERIOD_TYPES`` or ``NUMBER_TYPES``; a float period is "an integer".
    Events held as :class:`EventColumns` have none.
    """
    for key in HEADERS:
        if not isinstance(value := getattr(record, key), str):
            yield key, value, "a string"
    if events and type(record.events) is not EventColumns:  # whose arrays hold only numbers
        for i, event in enumerate(record.events):
            yield from _unusable_numbers(f"events[{i}]", event)


def _unusable_numbers(tag: str, event: FoulEvent) -> Iterator[tuple[str, object, str]]:
    _, period, clock, _, pre, post, _ = event
    for key, value in zip(_EVENT_NUMBERS, (period, clock, pre, post)):
        if type(value) not in (PERIOD_TYPES if key == "period" else NUMBER_TYPES):
            integer = key == "period" and isinstance(value, float)
            yield f"{tag}.{key}", value, "an integer" if integer else "a number"


def control_named(record: GameRecord) -> list[tuple[str, str]]:
    """Each team or crew name of ``record`` that holds a control character,
    as (field path, name), in field order: the tables print these names, and
    such a character would break a comment line or split a value. Names
    that are not strings are other rules' to report."""
    names = (record.home_team, record.away_team, *record.crew)
    try:
        if not CONTROL_CHARACTER.search("".join(names)):  # one scan for a plain game
            return []
    except TypeError:  # a name that is not a string
        pass
    paths = ("home_team", "away_team", *(f"crew[{i}]" for i in range(len(record.crew))))
    return [(path, name) for path, name in zip(paths, names)
            if isinstance(name, str) and CONTROL_CHARACTER.search(name)]


def repeated_crew(record: GameRecord) -> list[tuple[str, str, str]]:
    """Each crew member of ``record`` who repeats an earlier one, as (field
    path, name, path of the first), in crew order: an official listed
    twice would count the game twice in that official's tallies and panel
    rows. Names that are not strings are other rules' to report."""
    first: dict[str, int] = {}
    return [(f"crew[{i}]", name, f"crew[{first[name]}]")
            for i, name in enumerate(record.crew)
            if isinstance(name, str) and first.setdefault(name, i) != i]


# Stands for the columns validate_game's fast chain does not read.
_UNREAD = repeat(None)


def validate_game(record: GameRecord) -> list[str]:
    """Check every record rule, returning one message per violation.

    Violations are data for the caller to act on, never exceptions: a
    record holding out-of-range feed values must still be constructible so
    the problem can be reported and the game quarantined. An empty crew is
    no violation: such games stay usable for team-level analysis, and
    callers count them from ``record.crew``. Every message is prefixed with
    the offending field. An event that passes every rule costs one chain of
    comparisons; only a failing one is checked again, rule by rule, to word
    its messages.
    """
    problems: list[str] = []
    if record.season_type not in SEASON_TYPES:
        problems.append(
            f"season_type: {record.season_type!r} not one of {SEASON_TYPES}"
        )
    problems += [f"{path}: {value!r} is not {what}"
                 for path, value, what in unusable_values(record, events=False)
                 if path != "season_type"]  # worded by the rule above
    if isinstance(record.season, str) and not SAFE_LABEL.fullmatch(record.season):
        problems.append(f"season: {record.season!r} is not a plain directory name")
    if not record.game_id:
        problems.append("game_id: empty")
    if not record.home_team or not record.away_team:
        problems.append("teams: home and away ids must be non-empty")
    elif record.home_team == record.away_team:
        problems.append(f"teams: home and away are both {record.home_team!r}")
    problems += [f"{path}: {name!r} holds a control character"
                 for path, name in control_named(record)]
    for i, ref in enumerate(record.crew):
        if not isinstance(ref, str) or not ref.strip():
            problems.append(f"crew[{i}]: {ref!r} is not a non-empty name")
    problems += [f"{path}: {name!r} repeats {first}"
                 for path, name, first in repeated_crew(record)]

    sides = (record.home_team, record.away_team)
    prev: tuple | None = None  # (period, clock) of the last event checked
    events = record.events
    # Columns are read as they are, with no FoulEvent built, and their
    # arrays hold only ints and floats, so their types need no check.
    typed = type(events) is EventColumns
    rows = (zip(_UNREAD, events.period, events.clock_seconds_remaining, events.charged_team,
                events.pre_wp, events.post_wp, _UNREAD) if typed else events)
    for i, (_, period, clock, charged, pre, post, _) in enumerate(rows):
        if (
            (typed or (type(period) is int and type(clock) is float
                       and type(pre) is float and type(post) is float))
            and period >= 1
            and 0.0 <= clock <= (PERIOD_SECONDS if period <= REGULATION_PERIODS
                                 else OVERTIME_SECONDS)
            and 0.0 <= pre <= 1.0 and 0.0 <= post <= 1.0
            and (charged is None or charged in sides)
            and not (prev is not None and (period < prev[0]
                                           or (period == prev[0] and clock > prev[1])))
        ):
            prev = (period, clock)
        else:
            prev = _event_problems(problems, i, events[i], sides, prev)

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


def _event_problems(
    problems: list[str], i: int, event: FoulEvent, sides: tuple, prev: tuple | None
) -> tuple | None:
    """Append the messages of ``record.events[i]``, rule by rule, to
    ``problems``; returns the (period, clock) the next event is ordered
    against, which an event with a number the analyses cannot use leaves
    unchanged."""
    _, period, clock, charged, pre, post, _ = event
    tag = f"events[{i}]"
    typed = [f"{path}: {value!r} is not {what}"
             for path, value, what in _unusable_numbers(tag, event)]
    if typed:
        problems += typed  # the range and order checks need numbers
        return prev
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
    return (period, clock)


def canonicalize_name(raw: str, aliases: Mapping[str, str] | None = None) -> str:
    """Normalize a referee name: trim, collapse whitespace, fix casing.

    All-upper or all-lower tokens are recased to leading capital; tokens the
    feed already mixes ("DeRosa") pass through; generational suffixes get
    their conventional form. ``aliases`` maps normalized output to a
    preferred replacement for known feed variants.
    """
    tokens = raw.split()
    out: list[str] = []
    for tok in tokens:
        bare = tok.rstrip(".").lower()
        if bare in _SUFFIXES:
            out.append(_SUFFIXES[bare])
        elif tok.isupper() and len(tok) <= 2:
            out.append(tok)  # initials ("JB", "CJ") keep their caps
        elif tok.isupper() or tok.islower():
            out.append(tok[:1].upper() + tok[1:].lower())
        else:
            out.append(tok)
    name = " ".join(out)
    if aliases:
        name = aliases.get(name, name)
    return name
