"""Raw feed parsing, foul/win-probability alignment, and the dataset on disk.

Raw documents are parsed defensively: a malformed document fails
atomically with a byte offset and no partial game, while recoverable data
problems (missing crew, unalignable fouls) become quarantine entries
instead of exceptions. Both raw feeds are decoded by one skeleton,
:func:`_parsed`: orjson first, and json, the reference, for a document
orjson refuses, one with enough brackets to nest near json's recursion
limit, and one holding a value orjson may have read differently (see
:func:`_fast_decode`).

The canonical dataset is JSONL, one game per line, partitioned by
``<root>/<season>/<season_type>/games.jsonl`` with a manifest recording a
schema version, per-partition counts, and content hashes. Writes are
deterministic (games ordered by id, stable serialization) and staged
through a temp directory so an interrupted run never leaves a corrupt
dataset behind. Each game line is encoded by orjson, with json's escapes
applied to the characters orjson writes raw, where one rule over the
record's values shows json would write the same bytes (see
:func:`_serialize_game_line`), and by json, the reference, everywhere else.
A load keeps the games each partition decodes to in a cache entry named by
the partition's sha256, for a later load of the same bytes to read instead
of decoding them (see :func:`_write_entry`).
"""

from __future__ import annotations

import codecs
import errno
import gc
import hashlib
import json
import math
import mmap
import os
import re
import shutil
import sys
from array import array
from collections.abc import Iterable, Iterator, Mapping, Sequence
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field
from functools import cache
from itertools import accumulate, chain
from operator import attrgetter, itemgetter
from pathlib import Path
from typing import NamedTuple

import orjson

from .model import (
    HEADERS,
    SAFE_LABEL,
    EventColumns,
    FoulEvent,
    GameRecord,
    canonicalize_name,
    unusable_values,
    validate_game,
)

SCHEMA_VERSION = 1
MANIFEST_NAME = "manifest.json"
DEFAULT_START_PRIOR = 0.5

REASON_NO_POST_SAMPLE = "no-post-sample"

# The dataset decoder reads integers of 64 bits or fewer exactly.
_INT64_LIMIT = 2**63

# Bytes holding this many "[" and "{" could nest as deep as json's recursion
# limit (1000 by default, less the caller's frames), so only json decodes
# them. orjson 3.8.3 also crashes the process (its C stack overflows) on a
# document nested about 150,000 deep; it decodes 100,000.
_NEST_GUARD = 800
# A dataset line shorter than this cannot nest deep enough to harm orjson,
# so only a longer line is counted against _NEST_GUARD.
_LONG_LINE = 16_384


class IngestError(Exception):
    """Base class for ingest failures."""


class ParseError(IngestError):
    """Malformed raw document; carries a byte offset when one is known."""

    def __init__(self, message: str, offset: int | None = None):
        super().__init__(message if offset is None else f"{message} (byte {offset})")
        self.offset = offset


class DatasetError(IngestError):
    """Dataset on disk is missing, inconsistent, or fails its manifest."""


@contextmanager
def cyclic_gc_paused() -> Iterator[None]:
    """Pause the cyclic collector, restoring its prior state on exit.

    A decode loop allocates many objects and frees few, so each collection
    would rescan the whole growing corpus for cycles it cannot hold.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


# ---------------------------------------------------------------------------
# Raw feed parsing
# ---------------------------------------------------------------------------


class RawPlay(NamedTuple):
    """One summary play as alignment reads it, in feed order."""

    play_id: str
    period: int
    clock_seconds_remaining: float
    description: str
    is_foul: bool
    charged_team: str | None


def _deep(data: bytes) -> bool:
    return data.count(b"[") + data.count(b"{") >= _NEST_GUARD


class _Fallback(Exception):
    """The orjson-decoded document holds a value json might have read differently."""


def _fast_decode(data: bytes):
    """``data`` decoded by orjson, or None when only the json path may decode it.

    None for bytes that could nest too deep (see ``_NEST_GUARD``) and for a
    document orjson refuses: NaN and the infinities, lone surrogates,
    invalid UTF-8, doubles that overflow, over-long integers and malformed
    JSON, which json accepts or reports in its own words. On any other
    document orjson agrees with json, except that it reads an integer
    outside [-2**63, 2**64) as a float; the parsers leave the fast path
    wherever that could show.
    """
    if _deep(data):
        return None
    try:
        return orjson.loads(data)
    except orjson.JSONDecodeError:
        return None


def _load_json(data: bytes, what: str) -> dict:
    try:
        doc = json.loads(data.decode("utf-8"))
    except UnicodeDecodeError as e:
        raise ParseError(f"{what}: not valid UTF-8", offset=e.start) from e
    except json.JSONDecodeError as e:
        raise ParseError(f"{what}: {e.msg}", offset=e.pos) from e
    except RecursionError as e:
        raise ParseError(f"{what}: nested too deeply") from e
    except ValueError as e:  # the only other: the digit limit on integer literals
        raise ParseError(f"{what}: integer over {sys.get_int_max_str_digits()} digits") from e
    if not isinstance(doc, dict):
        raise ParseError(f"{what}: top-level value must be an object", offset=0)
    return doc


def _lone_surrogate(doc) -> bool:
    """Whether a string in ``doc`` holds a lone surrogate, which the dataset decoder refuses."""
    try:
        json.dumps(doc, ensure_ascii=False).encode("utf-8")
    except UnicodeEncodeError:
        return True
    return False


def _require(doc: Mapping, key: str, what: str):
    if key not in doc:
        raise ParseError(f"{what}: missing required field {key!r}")
    return doc[key]


def _text(doc: dict, key: str, what: str, exact: bool) -> str:
    """A required string field; a number is read as its decimal text, and
    anything else (null, a boolean, a list, an object) is a ParseError
    naming the field. With ``exact``, only a string is read; any other
    value raises ``_Fallback``."""
    value = _require(doc, key, what)
    if type(value) is str:
        return value
    if exact:
        raise _Fallback
    if type(value) in (int, float):
        return str(value)
    raise ParseError(f"{what}.{key}: not a string: {value!r:.40}")


def _number(doc: Mapping, key: str, what: str, kind: type[int] | type[float], exact: bool = False):
    """A required field read exactly as ``kind``, or a ParseError naming the field.

    A conversion that would change the value is refused, not coerced: a
    boolean, a fractional value read as ``int``, a non-finite value, and an
    integer beyond 64 bits (which the dataset decoder reads back as a float).
    Integral numeric strings such as "2" are accepted. With ``exact``, only a
    value already of type ``kind`` and inside 64 bits is read; any other
    raises ``_Fallback``.
    """
    value = _require(doc, key, what)
    if type(value) is kind and -_INT64_LIMIT < value < _INT64_LIMIT:
        return value
    if exact:
        raise _Fallback
    try:
        number = kind(value)
    except (TypeError, ValueError, OverflowError):
        number = None
    if number is None or isinstance(value, bool):
        problem = ""
    elif kind is float and not math.isfinite(number):
        problem = " (not finite)"
    elif kind is int and not -_INT64_LIMIT <= number < _INT64_LIMIT:
        problem = " (beyond 64 bits)"
    elif number != value and not isinstance(value, str):
        problem = f" (would change to {number!r})"
    else:
        return number
    raise ParseError(f"{what}.{key}: not a number: {value!r:.40}{problem}")


def _parsed(data: bytes, what: str, body, *args, lone_surrogates: bool = True):
    """``body(doc, *args, exact=True)`` on orjson's decode of ``data``; on
    json's, the reference, with ``exact=False``, where orjson refuses the
    bytes (see :func:`_fast_decode`) or ``body`` raises ``_Fallback``.

    A ParseError on orjson's document stands: with ``exact``, one comes
    only from a missing key or a container of the wrong type, where the
    decoders agree. Without ``lone_surrogates``, a document holding one is
    refused (orjson refuses one itself).
    """
    doc = _fast_decode(data)
    if type(doc) is dict:
        try:
            return body(doc, *args, exact=True)
        except _Fallback:
            pass  # json decodes the document of record
    doc = _load_json(data, what)
    # Only a \u escape can spell a lone surrogate.
    if not lone_surrogates and b"\\u" in data and _lone_surrogate(doc):
        raise ParseError(f"{what}: a \\u escape spells a lone surrogate")
    return body(doc, *args, exact=False)


def parse_game_summary(
    data: bytes, aliases: Mapping[str, str] | None = None
) -> tuple[GameRecord, list[RawPlay]]:
    """Parse one game summary document into (game, plays).

    ``game`` holds the summary's identity, crew and series state, with no
    events yet; alignment supplies them. The crew may come back empty
    (callers flag such games); any structural problem — bad JSON, missing
    or non-numeric fields, a header or a play's id, text or team that is
    neither a string nor a number, an official that is not a string, a
    foul flag that is neither absent, null nor a boolean, non-increasing
    play sequence, a string the dataset could not hold (a lone surrogate) —
    raises :class:`ParseError` and yields no partial game. Decoded by
    :func:`_parsed`.
    """
    return _parsed(data, "summary", _summary_from_doc, aliases, lone_surrogates=False)


def _summary_from_doc(
    doc: dict, aliases: Mapping[str, str] | None, exact: bool
) -> tuple[GameRecord, list[RawPlay]]:
    """The body of :func:`parse_game_summary` over a decoded document.

    With ``exact`` (an orjson-decoded document), any value outside the fast
    path raises ``_Fallback``: only a ``str``, an ``int`` inside 64 bits and a
    ``float`` of magnitude below 2**63 are certain to be what json decodes.
    """
    series = doc.get("series")
    series_state: tuple[int, int] | None = None
    if series is not None:
        if type(series) is not dict:
            raise ParseError("summary: 'series' must be an object")
        series_state = (
            _number(series, "home_wins", "summary.series", int, exact),
            _number(series, "away_wins", "summary.series", int, exact),
        )
    game_id = _text(doc, "game_id", "summary", exact)
    season = _text(doc, "season", "summary", exact)
    season_type = _text(doc, "season_type", "summary", exact)
    home_team = _text(doc, "home_team", "summary", exact)
    away_team = _text(doc, "away_team", "summary", exact)
    officials = doc.get("officials")
    if officials is None:  # absent or null: no officials listed
        officials = []
    elif type(officials) is not list:
        raise ParseError("summary: 'officials' must be a list")
    for i, o in enumerate(officials):
        if type(o) is not str:
            if exact:
                raise _Fallback
            raise ParseError(f"summary.officials[{i}]: not a string: {o!r:.40}")
    crew = tuple(canonicalize_name(o, aliases) for o in officials if o.strip())

    raw_plays = doc.get("plays", [])
    if type(raw_plays) is not list:
        raise ParseError("summary: 'plays' must be a list")
    plays: list[RawPlay] = []
    append = plays.append
    new = tuple.__new__  # RawPlay(...) less its Python-level __new__
    last_seq = -_INT64_LIMIT - 1  # below every sequence _number accepts
    for i, p in enumerate(raw_plays):
        if type(p) is dict:
            # Fast path: exact types, read unchanged, as _number would return them.
            play_id, seq, period = p.get("id"), p.get("sequence"), p.get("period")
            clock, text, team = p.get("clock_seconds"), p.get("text", ""), p.get("team")
            foul = p.get("foul", False)
            if (
                type(foul) is bool
                and type(play_id) is str
                and type(seq) is int
                and type(period) is int
                and type(clock) is float
                and type(text) is str
                and (team is None or type(team) is str)
                and last_seq < seq < _INT64_LIMIT
                and -_INT64_LIMIT < period < _INT64_LIMIT
                and -_INT64_LIMIT < clock < _INT64_LIMIT
            ):
                last_seq = seq
                append(new(RawPlay, (play_id, period, clock, text, foul, team)))
                continue
        if exact:
            raise _Fallback
        if type(p) is not dict:
            raise ParseError(f"summary: plays[{i}] must be an object")
        what = f"summary.plays[{i}]"
        seq = _number(p, "sequence", what, int)
        if seq <= last_seq:
            raise ParseError(f"{what}: sequence {seq} not increasing")
        last_seq = seq
        foul = p.get("foul")
        if foul is not None and type(foul) is not bool:
            raise ParseError(f"{what}.foul: not a boolean: {foul!r:.40}")
        append(
            RawPlay(
                play_id=_text(p, "id", what, False),
                period=_number(p, "period", what, int),
                clock_seconds_remaining=_number(p, "clock_seconds", what, float),
                description="" if p.get("text") is None else _text(p, "text", what, False),
                is_foul=foul is True,
                charged_team=None if p.get("team") is None else _text(p, "team", what, False),
            )
        )
    game = GameRecord(
        game_id=game_id,
        season=season,
        season_type=season_type,
        home_team=home_team,
        away_team=away_team,
        crew=crew,
        events=(),
        series_state=series_state,
    )
    return game, plays


def parse_wp_feed(data: bytes) -> tuple[dict[str, float], float | None, int]:
    """Parse a win-probability feed into (home wp by play id, pregame prior, dropped).

    Samples with a missing, boolean or non-numeric probability, or one
    outside [0, 1], are dropped and counted rather than propagated; the
    alignment step treats a foul whose samples were dropped the same as one
    never sampled. A pregame value that would be dropped is absent. A play
    id sampled more than once keeps its last usable value. Decoded by
    :func:`_parsed`; the feed's strings only key samples, so a lone
    surrogate in one is read, not refused.
    """
    return _parsed(data, "wp", _wp_from_doc)


def _probability(value) -> float | None:
    if type(value) is not float:
        if value is None or type(value) is bool:
            return None
        try:
            value = float(value)
        except (TypeError, ValueError, OverflowError):
            return None
    return value if 0.0 <= value <= 1.0 else None  # NaN fails both comparisons


def _wp_from_doc(doc: dict, exact: bool) -> tuple[dict[str, float], float | None, int]:
    """The body of :func:`parse_wp_feed`; ``exact`` as in :func:`_summary_from_doc`.

    A probability is safe to read from either decoder: an integer that
    orjson reads as a float is out of range either way.
    """
    items = doc.get("items", [])
    if type(items) is not list:
        raise ParseError("wp: 'items' must be a list")
    pregame = _probability(doc.get("pregame"))
    wp_by_play: dict[str, float] = {}
    dropped = 0
    for i, item in enumerate(items):
        if type(item) is not dict:
            raise ParseError(f"wp: items[{i}] must be an object")
        play_id = item.get("play_id")
        if type(play_id) is not str:
            play_id = _text(item, "play_id", f"wp.items[{i}]", exact)
        wp = _probability(item.get("home_wp"))
        if wp is None:
            dropped += 1
        else:
            wp_by_play[play_id] = wp
    return wp_by_play, pregame, dropped


# ---------------------------------------------------------------------------
# Alignment
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class QuarantinedFoul:
    play_id: str
    reason: str


def align_foul_wp(
    plays: Sequence[RawPlay],
    wp_by_play: Mapping[str, float],
    *,
    start_prior: float,
) -> tuple[tuple[FoulEvent, ...], tuple[QuarantinedFoul, ...]]:
    """Attach pre/post win-probability samples to each foul play.

    Returns (events, quarantined fouls). The pre value is the last sampled
    play strictly before the foul (the start prior when none exists); the
    post value is the foul's own sample, falling back to the nearest later
    sampled play. A foul with no usable post sample is quarantined with a
    reason code — alignment never guesses forward and never reorders plays.
    """
    events: list[FoulEvent] = []
    append = events.append
    new = tuple.__new__  # FoulEvent(...) less its Python-level __new__
    get = wp_by_play.get
    pending: list[tuple] = []  # fouls as (play, pre value), awaiting a sample
    before = start_prior
    for play in plays:
        play_id, period, clock, description, is_foul, team = play
        own = get(play_id)
        if own is None:
            if is_foul:
                pending.append((play, before))
            continue
        if pending:
            for (_, p_period, p_clock, p_description, _, p_team), pre in pending:
                append(new(FoulEvent, (len(events) + 1, p_period, p_clock, p_team,
                                       pre, own, p_description)))
            pending.clear()
        if is_foul:
            append(new(FoulEvent, (len(events) + 1, period, clock, team, before, own,
                                   description)))
        before = own
    quarantined = tuple(
        QuarantinedFoul(foul.play_id, REASON_NO_POST_SAMPLE) for foul, _ in pending
    )
    return tuple(events), quarantined


# ---------------------------------------------------------------------------
# Directory ingest
# ---------------------------------------------------------------------------


@dataclass
class IngestReport:
    """Quarantine ledger for one ingest run."""

    documents_seen: int = 0
    document_errors: list[tuple[str, str]] = field(default_factory=list)
    quarantined_games: list[tuple[str, tuple[str, ...]]] = field(default_factory=list)
    no_crew_games: list[str] = field(default_factory=list)
    quarantined_fouls: dict[str, tuple[QuarantinedFoul, ...]] = field(
        default_factory=dict
    )
    dropped_samples: int = 0
    kept_games: int = 0

    def quarantine_counts(self) -> dict[str, int]:
        return {
            "document_errors": len(self.document_errors),
            "quarantined_games": len(self.quarantined_games),
            "no_crew_games": len(self.no_crew_games),
            "quarantined_fouls": sum(
                len(v) for v in self.quarantined_fouls.values()
            ),
            "dropped_samples": self.dropped_samples,
        }


def _read(path: str, what: str, missing_ok: bool = False) -> bytes | None:
    """The bytes of the file at ``path``; with ``missing_ok``, None when no
    file is there (the errors for which ``Path.exists`` is False)."""
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as e:  # a directory, or a file this process may not read
        if missing_ok and e.errno in _ABSENT:
            return None
        raise ParseError(f"{what}: cannot read: {e.strerror or e}") from e


_ABSENT = frozenset({errno.ENOENT, errno.ENOTDIR, errno.EBADF, errno.ELOOP})
_SUMMARY_SUFFIX = ".summary.json"


def ingest_directory(
    raw_dir: Path,
    *,
    start_prior: float = DEFAULT_START_PRIOR,
    aliases: Mapping[str, str] | None = None,
) -> tuple[list[GameRecord], IngestReport]:
    """Ingest every ``*.summary.json`` under ``raw_dir`` (wp feeds optional).

    Nothing here raises for data problems: malformed documents, invalid
    games, unalignable fouls, and missing crews all land in the report.
    Documents are read in sorted ``Path`` order (component by component,
    so ``a/x`` comes before ``a-b/x``); a later document that repeats an
    earlier one's ``game_id`` is quarantined as its duplicate. A summary's
    wp feed is its sibling with the trailing ``.summary.json`` replaced by
    ``.wp.json``; a feed that is not there, as ``Path.exists`` judges it,
    counts as absent. A feed-supplied pregame probability overrides
    ``start_prior`` for fouls that precede every sample.

    Past the sorted listing, documents are opened by their path strings,
    and each game is built once, with its events.
    """
    raw_dir = Path(raw_dir)
    skip = len(raw_dir.parts)  # path components above a document's relative path
    report = IngestReport()
    games: list[GameRecord] = []
    first_document: dict[str, str] = {}  # game_id -> the document that claimed it
    with cyclic_gc_paused():
        # Sorted by components, as ``Path`` sorts on POSIX, without its per-pair overhead.
        for summary_path in sorted(raw_dir.rglob("*" + _SUMMARY_SUFFIX), key=lambda p: p.parts):
            report.documents_seen += 1
            path = str(summary_path)
            rel = os.sep.join(summary_path.parts[skip:])
            try:
                header, plays = parse_game_summary(_read(path, "summary"), aliases)
                wp = _read(path[: -len(_SUMMARY_SUFFIX)] + ".wp.json", "wp", missing_ok=True)
                if wp is not None:
                    wp_by_play, pregame, dropped = parse_wp_feed(wp)
                    report.dropped_samples += dropped
                else:
                    wp_by_play, pregame = {}, None
            except ParseError as e:
                report.document_errors.append((rel, str(e)))
                continue
            game_id = header.game_id
            first = first_document.setdefault(game_id, rel)
            if first != rel:
                report.quarantined_games.append(
                    (game_id, (f"game_id: duplicate of {first}",))
                )
                continue
            prior = pregame if pregame is not None else start_prior
            events, quarantined = align_foul_wp(plays, wp_by_play, start_prior=prior)
            if quarantined:
                report.quarantined_fouls[game_id] = quarantined
            game = GameRecord(game_id, header.season, header.season_type, header.home_team,
                              header.away_team, header.crew, events, header.series_state)
            violations = validate_game(game)
            if violations:
                report.quarantined_games.append((game_id, tuple(violations)))
                continue
            if not game.crew:
                report.no_crew_games.append(game_id)
            games.append(game)
            report.kept_games += 1
    return games, report


# ---------------------------------------------------------------------------
# Canonical dataset
# ---------------------------------------------------------------------------


def game_to_dict(g: GameRecord) -> dict:
    return {
        "game_id": g.game_id,
        "season": g.season,
        "season_type": g.season_type,
        "home_team": g.home_team,
        "away_team": g.away_team,
        "crew": list(g.crew),
        "series_state": list(g.series_state) if g.series_state else None,
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
            for e in g.events
        ],
    }


# An event's stored fields in ``FoulEvent`` order, read in one C-level call.
_EVENT_FIELDS = itemgetter("event_id", "period", "clock", "team", "pre_wp", "post_wp",
                           "description")
_header_values = itemgetter(*HEADERS)
_TEAM_TYPES = frozenset({str, type(None)})
_INT = frozenset({int})
_FLOAT = frozenset({float})


def _events_reference(events: list) -> tuple[FoulEvent, ...]:
    """One ``FoulEvent`` per stored event, built field by field: the reference
    for every event tuple and every error :func:`_events` gives."""
    intern = sys.intern
    return tuple(
        FoulEvent(
            e["event_id"],
            e["period"],
            e["clock"],
            None if (team := e["team"]) is None else intern(team),
            e["pre_wp"],
            e["post_wp"],
            intern(e.get("description", "")),
        )
        for e in events
    )


def _events(events: list, strings: dict) -> tuple[FoulEvent, ...] | EventColumns:
    """Events equal to :func:`_events_reference`'s result, built column-wise in C.

    The events are :class:`EventColumns` when every value fits its column
    exactly: ``int`` ids and periods within 64 bits (a bool is not an int),
    ``float`` clocks and win probabilities (an int is not a float), and
    ``str`` descriptions and teams, or no team. Every team and description
    string is then swapped for the first equal one in ``strings``, so the
    events share one copy of each. Any other list (a missing key, a
    description left to its default, a value of another type, an event that
    is not a dict) goes to the reference, which gives its result, holding
    each value as stored, or raises its error.
    """
    if not events:
        return ()
    try:
        ids, periods, clocks, teams, pre, post, descs = zip(*map(_EVENT_FIELDS, events))
    except (KeyError, TypeError):
        return _events_reference(events)
    if (set(map(type, teams)) <= _TEAM_TYPES and set(map(type, descs)) == {str}
            and _INT.issuperset(map(type, ids)) and _INT.issuperset(map(type, periods))
            and _FLOAT.issuperset(map(type, clocks)) and _FLOAT.issuperset(map(type, pre))
            and _FLOAT.issuperset(map(type, post))):
        share = strings.setdefault
        try:  # the ids and periods are packed first, before any string is shared
            return EventColumns(array("q", ids), array("q", periods), array("d", clocks),
                                tuple(map(share, teams, teams)), array("d", pre),
                                array("d", post), tuple(map(share, descs, descs)))
        except OverflowError:  # an id or a period beyond 64 bits
            pass
    return _events_reference(events)


def game_from_dict(d: Mapping, strings: dict | None = None) -> GameRecord:
    """Rebuild a game from its stored dict (the inverse of :func:`game_to_dict`).

    Events are built column-wise by :func:`_events`: as typed
    :class:`EventColumns` when every value fits them, otherwise as the
    tuple of ``FoulEvent``s holding each value as stored, whose numbers
    :func:`unusable_values` checks. Team and description strings repeat
    across a corpus, so every event shares one copy of each, through
    ``strings``: pass one dict for a whole load to share across its games.
    The containers are checked here, where a wrong type would otherwise be
    iterated into nonsense (a crew string into one-letter referees); the
    types of the crew members and event fields are left to
    :func:`validate_game`, which reports them.
    """
    crew, state, events = d["crew"], d.get("series_state"), d["events"]
    if type(crew) is not list:
        raise TypeError(f"crew: {crew!r:.40} is not a list")
    if state is not None and (type(state) is not list or len(state) != 2
                              or type(state[0]) is not int or type(state[1]) is not int):
        raise TypeError(f"series_state: {state!r:.40} is not null or a list of two integers")
    if type(events) is not list:
        raise TypeError(f"events: {events!r:.40} is not a list")
    headers = _header_values(d)  # before the events, whose errors come after a missing header
    return GameRecord(*headers, crew=tuple(crew),
                      events=_events(events, {} if strings is None else strings),
                      series_state=None if state is None else tuple(state))


def _string(value) -> str:
    if not isinstance(value, str):
        raise TypeError(f"expected a string, got {value!r:.40}")
    return value


def _integer(value) -> int:
    if type(value) is not int:  # a bool, a float or a string is not a count
        raise TypeError(f"expected an integer, got {value!r:.40}")
    return value


@dataclass(frozen=True)
class PartitionInfo:
    path: str
    games: int
    sha256: str


@dataclass(frozen=True)
class DatasetManifest:
    schema_version: int
    partitions: tuple[PartitionInfo, ...]
    quarantine: Mapping[str, int]

    @property
    def total_games(self) -> int:
        return sum(p.games for p in self.partitions)

    def to_dict(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "partitions": [
                {"path": p.path, "games": p.games, "sha256": p.sha256}
                for p in self.partitions
            ],
            "quarantine": dict(self.quarantine),
            "total_games": self.total_games,
        }

    @classmethod
    def from_dict(cls, d: Mapping) -> DatasetManifest:
        return cls(
            schema_version=_integer(d["schema_version"]),
            partitions=tuple(
                PartitionInfo(_string(p["path"]), _integer(p["games"]), _string(p["sha256"]))
                for p in d["partitions"]
            ),
            quarantine={k: _integer(v) for k, v in d.get("quarantine", {}).items()},
        )


def _orjson_exact(g: GameRecord, d: dict) -> bool:
    """Whether orjson writes the values of ``d``, ``game_to_dict(g)``, as json does.

    One rule for every scalar of the record (the headers, the crew members,
    the series state and the event values): it is None, a ``str``, an exact
    ``int`` within 64 bits, or an exact ``float`` that is 0 or whose
    magnitude is in [1e-4, 1e16). Python's float repr uses fixed notation
    exactly there, as orjson does; NaN and the infinities fail the range
    test. The event values are read from ``g``'s event tuples, which hold
    those of ``d``'s event dicts and are quicker to scan.
    """
    for v in chain(_header_values(d), d["crew"], d["series_state"] or (), *g.events):
        t = type(v)
        if t is float:
            if not (1e-4 <= v < 1e16 or v == 0.0 or -1e16 < v <= -1e-4):
                return False
        elif t is int:
            if not -_INT64_LIMIT <= v < _INT64_LIMIT:
                return False
        elif t is not str and v is not None:
            return False
    return True


# json's escapes for a run of non-ASCII characters: "\uXXXX" in lowercase
# hex, an astral character as a surrogate pair.
codecs.register_error("rimkit-json-escape",
                      lambda e: (json.dumps(e.object[e.start:e.end])[1:-1], e.end))


def _serialize_game_line(g: GameRecord) -> bytes:
    """One dataset line, byte for byte :func:`_json_game_line`'s.

    A record :func:`_orjson_exact` accepts goes to orjson, which escapes as
    json does but writes DEL and non-ASCII characters raw; those are then
    escaped as json escapes them. Any other record, and one orjson cannot
    encode (a lone surrogate), goes to the reference, which owns every
    refusal.
    """
    d = game_to_dict(g)
    if _orjson_exact(g, d):
        try:
            line = orjson.dumps(d, option=orjson.OPT_SORT_KEYS)
        except orjson.JSONEncodeError:  # a lone surrogate
            pass
        else:
            line = line.decode().encode("ascii", "rimkit-json-escape")
            return line.replace(b"\x7f", b"\\u007f") + b"\n"
    return _json_game_line(g, d)


def _json_game_line(g: GameRecord, d: dict) -> bytes:
    """The reference serialization of ``g`` (``d`` is its :func:`game_to_dict`).

    A line the dataset decoder would refuse or read back changed is refused
    here: a NaN or an infinity (not standard JSON), a value json cannot
    encode (such as a numpy integer), a lone surrogate, and an integer
    beyond 64 bits (read back as a float).
    """
    try:
        text = json.dumps(d, sort_keys=True, separators=(",", ":"), allow_nan=False)
    except (TypeError, ValueError) as e:
        raise DatasetError(f"game {g.game_id!r}: {e}") from e
    # json escapes every surrogate, paired or lone, as \udXXX.
    if "\\ud" in text and _lone_surrogate(d):
        raise DatasetError(f"game {g.game_id!r}: a string holds a lone surrogate")
    ints = [v for e in (*g.events, g.series_state or ()) for v in e if type(v) is int]
    if ints and not (-_INT64_LIMIT <= min(ints) and max(ints) < _INT64_LIMIT):
        raise DatasetError(f"game {g.game_id!r}: an integer beyond 64 bits")
    return (text + "\n").encode("utf-8")


def write_dataset(
    games: Iterable[GameRecord],
    root: Path,
    *,
    quarantine: Mapping[str, int] | None = None,
) -> DatasetManifest:
    """Write the canonical partitioned dataset under ``root``.

    Deterministic: games sort by id within each (season, season_type)
    partition and serialization is stable, so re-running on the same input
    is byte-identical. Files are staged in a temp directory and moved into
    place, manifest last — an interrupted write leaves the stage behind,
    never a half-updated dataset.
    """
    root = Path(root)
    by_partition: dict[tuple[str, str], list[GameRecord]] = {}
    ids_seen: set[str] = set()
    for g in games:
        for path, value, what in unusable_values(g, events=False):
            # Partition labels and the sort by id need strings.
            raise DatasetError(f"game {g.game_id!r}: {path} {value!r:.40} is not {what}")
        if g.game_id in ids_seen:
            raise DatasetError(f"duplicate game_id {g.game_id!r}")
        ids_seen.add(g.game_id)
        for label in (g.season, g.season_type):
            if not SAFE_LABEL.fullmatch(label):
                raise DatasetError(f"game {g.game_id!r}: {label!r} cannot name a partition")
        by_partition.setdefault((g.season, g.season_type), []).append(g)

    root.mkdir(parents=True, exist_ok=True)
    stage = root / ".staging"
    if stage.exists():
        shutil.rmtree(stage)
    stage.mkdir()

    partitions: list[PartitionInfo] = []
    completed = False
    try:
        for (season, season_type) in sorted(by_partition):
            part_games = sorted(by_partition[(season, season_type)], key=lambda g: g.game_id)
            rel = f"{season}/{season_type}/games.jsonl"
            staged = stage / rel
            staged.parent.mkdir(parents=True, exist_ok=True)
            digest = hashlib.sha256()
            with staged.open("wb") as fh:
                for g in part_games:
                    line = _serialize_game_line(g)
                    fh.write(line)
                    digest.update(line)
            partitions.append(
                PartitionInfo(path=rel, games=len(part_games), sha256=digest.hexdigest())
            )
        manifest = DatasetManifest(
            schema_version=SCHEMA_VERSION,
            partitions=tuple(partitions),
            quarantine=dict(quarantine or {}),
        )
        staged_manifest = stage / MANIFEST_NAME
        staged_manifest.write_text(
            json.dumps(manifest.to_dict(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        # Stage is complete; move data files into place, manifest last.
        for p in partitions:
            target = root / p.path
            target.parent.mkdir(parents=True, exist_ok=True)
            (stage / p.path).replace(target)
        staged_manifest.replace(root / MANIFEST_NAME)
        completed = True
    finally:
        if completed:
            shutil.rmtree(stage, ignore_errors=True)
        # On failure the stage directory is left behind for inspection; the
        # previously live dataset (if any) is untouched.
    return manifest


def read_manifest(root: Path) -> DatasetManifest:
    path = Path(root) / MANIFEST_NAME
    if not path.exists():
        raise DatasetError(f"no manifest at {path}")
    try:
        return DatasetManifest.from_dict(json.loads(path.read_text(encoding="utf-8")))
    except (OSError, KeyError, TypeError, ValueError, AttributeError, RecursionError) as e:
        raise DatasetError(f"manifest unreadable: {e}") from e


def _line_spans(data: bytes | mmap.mmap) -> Iterator[tuple[bytes | mmap.mmap, int, int]]:
    """Each line of ``data`` (bytes or a map) as ``(buffer, start, end)``, in
    the order and number of ``data.splitlines()``, without copying it: the
    buffer is ``data`` itself. A buffer holding a carriage return, which
    :func:`write_dataset` never writes, is copied and split by
    ``splitlines`` instead, each line its own buffer."""
    if data.find(b"\r") >= 0:  # not ``in``, which a map answers byte by byte
        for line in data[:].splitlines():
            yield line, 0, len(line)
        return
    start, size = 0, len(data)
    while start < size:
        end = data.find(b"\n", start)
        if end < 0:
            end = size
        yield data, start, end
        start = end + 1


# The bytes ``bytes.strip`` removes; a line of only these holds no game.
_BLANK = re.compile(rb"[ \t\n\r\x0b\x0c]*")


def _read_partition(path: Path) -> bytes | mmap.mmap:
    """The bytes of ``path`` in an anonymous map, or ``b""`` for an empty file.

    A buffer as large as a partition taken from malloc raises glibc's mmap
    threshold once it is freed, so the next one comes from the heap and
    stays resident after it too is freed; a map of its own is returned to
    the system when it is closed. The map is not of the file itself: a
    partition truncated while mapped would kill the process with SIGBUS
    rather than fail its hash check. A file that shrinks while it is read
    gives the bytes read, as bytes.
    """
    with open(path, "rb", buffering=0) as fh:
        return _mapped(fh)


def _mapped(fh) -> bytes | mmap.mmap:
    """The rest of the unbuffered file ``fh`` as :func:`_read_partition` reads a partition."""
    size = os.fstat(fh.fileno()).st_size - fh.tell()
    if size <= 0:
        return b""
    data = mmap.mmap(-1, size)
    got = 0
    with memoryview(data) as view:
        while got < size and (n := fh.readinto(view[got:])):
            got += n
    if got < size:
        short = data[:got]
        data.close()
        return short
    return data


def _close(data: bytes | mmap.mmap) -> None:
    if type(data) is not bytes:  # a map, which is unmapped now
        data.close()


def _verified_partition(path: Path, part: PartitionInfo) -> bytes | mmap.mmap:
    """The bytes of one partition (see :func:`_read_partition`), refused
    unless they hash to the manifest's sha256."""
    try:
        data = _read_partition(path)
    except OSError as e:  # a directory, or a file this process may not read
        raise DatasetError(f"partition unreadable: {part.path}: {e.strerror}") from e
    if hashlib.sha256(data).hexdigest() != part.sha256:
        _close(data)
        raise DatasetError(f"partition hash mismatch: {part.path}")
    return data


def _partition_games(path: Path, part: PartitionInfo, games: list[GameRecord], seen: set,
                     strings: dict, cache: Path | None) -> int:
    """Append the games of one partition, its hash verified first, to
    ``games``; returns how many.

    With a ``cache`` directory, the partition's entry there (see
    :func:`_open_entry`) gives the games when it holds them; the
    partition's map is closed before the entry's is read. Otherwise, and
    whenever the entry fails, the partition is decoded, the reference for
    every game and every error, line by line through views of its map, so
    a load holds one partition's bytes, outside the malloc heap, besides
    the games it has built; a partition that decodes completely is then
    written to the cache for the next load (see :func:`_write_entry`).
    """
    data = _verified_partition(path, part)
    entry = None if cache is None else _open_entry(cache / part.sha256)
    if entry is not None:
        _close(data)
        cached = _entry_games(*entry, seen, strings)
        if cached is not None:
            games += cached
            return len(cached)
        data = _verified_partition(path, part)
    before = len(games)
    try:
        for line_no, (buf, start, end) in enumerate(_line_spans(data), start=1):
            if _BLANK.fullmatch(buf, start, end):
                continue
            try:
                if end - start >= _LONG_LINE and _deep(line := buf[start:end]):
                    json.loads(line)  # raises RecursionError where orjson could crash
                game = game_from_dict(orjson.loads(memoryview(buf)[start:end]), strings)
                fresh = game.game_id not in seen  # TypeError: an unhashable id
            except (
                ValueError, KeyError, IndexError, TypeError, AttributeError, RecursionError
            ) as e:
                # ValueError covers orjson.JSONDecodeError and RecursionError
                # a line nested too deeply; the rest are a well-formed line
                # of the wrong shape.
                raise DatasetError(f"{part.path}:{line_no}: bad game line: {e}") from e
            if not fresh:
                raise DatasetError(f"{part.path}:{line_no}: duplicate game_id {game.game_id!r}")
            seen.add(game.game_id)
            games.append(game)
    finally:
        _close(data)
    if cache is not None:
        _write_entry(cache / part.sha256, games[before:])
    return len(games) - before


def load_dataset(root: Path) -> tuple[list[GameRecord], DatasetManifest]:
    """Read every partition listed by the manifest, verifying its hash first.

    A game id seen before, in this partition or an earlier one (a partition
    the manifest lists twice included), is a ``DatasetError``. The peak
    memory of a load is the games it returns plus about one partition's
    bytes: each partition is read once into an anonymous map, decoded
    through views of it, and unmapped before the next is read, so no
    partition's bytes stay resident in the malloc heap after the load.

    A partition decoded before, by any process running this code, is read
    from the cache of decoded partitions instead (see
    :func:`_partition_games`); the games, and every error, are those the
    decode gives. The dataset directory is only read.

    A game whose values the analyses cannot use still loads, for
    :func:`validate_game` to report and :func:`unusable_values` to name.
    """
    root = Path(root)
    manifest = read_manifest(root)
    if manifest.schema_version != SCHEMA_VERSION:
        raise DatasetError(
            f"schema version {manifest.schema_version} unsupported "
            f"(expected {SCHEMA_VERSION})"
        )
    games: list[GameRecord] = []
    seen: set[str] = set()
    strings: dict = {}  # one copy of each team and description string per load
    inside = root.resolve()
    cache = _cache_dir()
    for part in manifest.partitions:
        if "\0" in part.path:  # no file name holds one
            raise DatasetError(f"partition path holds a NUL byte: {part.path!r}")
        path = root / part.path
        if not path.resolve().is_relative_to(inside):
            raise DatasetError(f"partition path leaves the dataset root: {part.path}")
        if not path.exists():
            raise DatasetError(f"partition missing: {part.path}")
        count = _partition_games(path, part, games, seen, strings, cache)
        if count != part.games:
            raise DatasetError(
                f"partition {part.path}: manifest says {part.games} games, found {count}"
            )
    return games, manifest


# ---------------------------------------------------------------------------
# Decoded-partition cache
# ---------------------------------------------------------------------------

# A partition's bytes decode to the same games every time, so a load keeps
# what it decodes in an entry named by the partition's sha256, under
# ``${XDG_CACHE_HOME:-~/.cache}/rimkit``, and a later load of the same bytes
# reads the entry instead of decoding them. An entry starts with _MAGIC, the
# fingerprint of the code that wrote it (see _fingerprint) and the sha256 of
# its payload, which holds, in native byte order:
#   counts       int64 x 5: games, crew members, events, strings, shared strings
#   games        int64 x 10 a game: the string codes of its five headers, its
#                crew size and event count, 1 and the series state's two
#                numbers, or 0, 0, 0 for no series state
#   crew         int64 a crew member: its string code
#   events       each EventColumns column in turn, 8 bytes an event: a number
#                as stored, a team or description as its string code
#   string ends  int64 a string: where its UTF-8 bytes end in the text
#   text         the strings' UTF-8 bytes, one after another
# String code 0 is None (an unattributed call). Codes 1 up to the shared
# count are the event teams and descriptions, which a load shares through
# its string dict as the decode does; the rest are header and crew strings.
_MAGIC = b"rimkit\x00\x01"
_HEADER = len(_MAGIC) + 64
_COUNTS = 5
_GAME_FIELDS = 10
# Each EventColumns column's typecode in an entry; None for a string column.
_ENTRY_COLUMNS = tuple(EventColumns._numbers.get(name) for name in EventColumns.__slots__)


@cache
def _fingerprint() -> bytes | None:
    """What the games an entry holds depend on besides the partition's
    bytes: the interpreter's bytecode tag, the byte order, orjson's version
    and the sha256 of this module's and ``model``'s source. None when a
    source cannot be read, which turns the cache off."""
    from . import model

    parts = [str(sys.implementation.cache_tag), sys.byteorder, orjson.__version__]
    try:
        parts += [hashlib.sha256(Path(m.__file__).read_bytes()).hexdigest()
                  for m in (sys.modules[__name__], model)]
    except (OSError, TypeError):  # TypeError: a module with no file
        return None
    return hashlib.sha256("\0".join(parts).encode()).digest()


def _cache_dir() -> Path | None:
    """``$XDG_CACHE_HOME/rimkit``, or ``~/.cache/rimkit`` when that is unset,
    empty or relative; None when no home directory is found or the code
    cannot be fingerprinted."""
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):
        try:
            base = os.path.join(Path.home(), ".cache")
        except RuntimeError:  # no home directory to be found
            return None
    if not os.path.isabs(base) or _fingerprint() is None:
        return None
    return Path(base, "rimkit")


def _open_entry(path: Path):
    """The entry at ``path``, open past its header, and its payload's
    sha256, when the header names this code; else None."""
    try:
        fh = open(path, "rb", buffering=0)
    except OSError:  # none there, or no directory to hold one
        return None
    try:
        header = fh.read(_HEADER)
    except OSError:
        header = b""
    if len(header) != _HEADER or header[:-32] != _MAGIC + _fingerprint():
        fh.close()
        return None
    return fh, header[-32:]


def _entry_games(fh, digest: bytes, seen: set, strings: dict) -> list[GameRecord] | None:
    """The games of the open entry ``fh``, their ids added to ``seen``; None
    when its payload does not hash to ``digest`` or one of its ids is in
    ``seen``, for the decode to report. The payload is read as a partition
    is, into a map of its own, and each game's arrays are filled straight
    from slices of it."""
    try:
        with fh:
            payload = _mapped(fh)
    except OSError:
        return None
    try:
        if hashlib.sha256(payload).digest() != digest:
            return None
        games = _payload_games(memoryview(payload), strings)
    finally:
        _close(payload)
    if games is None:
        return None
    ids = {g.game_id for g in games}
    if len(ids) < len(games) or not seen.isdisjoint(ids):
        return None
    seen |= ids
    return games


def _filled(typecode: str, data: memoryview) -> array:
    column = array(typecode)
    column.frombytes(data)
    return column


def _payload_games(payload: memoryview, strings: dict) -> list[GameRecord] | None:
    """The games an entry's payload holds, or None for one of another shape."""
    try:
        n_games, n_crew, n_events, n_strings, n_shared = payload[:8 * _COUNTS].cast("q")
        sections, at = [], 8 * _COUNTS
        for size in (_GAME_FIELDS * n_games, n_crew, *(n_events,) * len(_ENTRY_COLUMNS),
                     n_strings):
            sections.append(payload[at:at + 8 * size])
            at += 8 * size
        records, crew, *columns, ends = sections
        text = payload[at:]
        table, start = [None], 0
        for end in ends.cast("q"):
            table.append(str(text[start:end], "utf-8"))
            start = end
        shared = table[1:n_shared + 1]
        table[1:n_shared + 1] = map(strings.setdefault, shared, shared)
        get = table.__getitem__
        columns = [(typecode, column if typecode else column.cast("q"))
                   for typecode, column in zip(_ENTRY_COLUMNS, columns)]
        crew = crew.cast("q")
        games: list[GameRecord] = []
        crew_at = events_at = 0
        for (game_id, season, season_type, home, away, size, count, stated, home_wins,
             away_wins) in zip(*[iter(records.cast("q"))] * _GAME_FIELDS):
            lo, hi = events_at, events_at + count
            events = EventColumns(*[
                _filled(typecode, column[8 * lo:8 * hi]) if typecode
                else tuple(map(get, column[lo:hi])) for typecode, column in columns
            ]) if count else ()
            games.append(GameRecord(get(game_id), get(season), get(season_type), get(home),
                                    get(away), tuple(map(get, crew[crew_at:crew_at + size])),
                                    events, (home_wins, away_wins) if stated else None))
            crew_at, events_at = crew_at + size, hi
    except (ValueError, TypeError, IndexError):  # ValueError: a cast or decode that fails
        return None
    return games


def _write_entry(path: Path, games: list[GameRecord]) -> None:
    """Write the entry at ``path`` for a partition that decoded to ``games``.

    None is written when one of them holds what an entry has no place for:
    events held as a tuple (see :func:`_events`), a header or crew member
    that is not a string, or a series number beyond 64 bits. The entry is
    written to a file named with this process's id, then moved into place,
    so a reader sees a whole entry or none. A cache that cannot be written
    is left as it is; the load goes on.
    """
    headers = attrgetter(*HEADERS)
    if any(type(g.events) is not EventColumns and g.events for g in games):
        return
    if not all(type(s) is str for g in games for s in (*headers(g), *g.crew)):
        return
    columns = [g.events for g in games if g.events]
    shared = dict.fromkeys(chain.from_iterable(
        chain(events.charged_team, events.description) for events in columns))
    shared.pop(None, None)
    named = dict.fromkeys(chain.from_iterable((*headers(g), *g.crew) for g in games))
    texts = [*shared, *(s for s in named if s not in shared)]
    codes = dict(zip(texts, range(1, len(texts) + 1)))
    codes[None] = 0
    code = codes.__getitem__
    digest = hashlib.sha256()
    temp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        encoded = [s.encode() for s in texts]  # UnicodeEncodeError: a lone surrogate
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(temp, "wb") as fh:
            fh.write(bytes(_HEADER))  # written last, once the payload's sha256 is known

            def put(data) -> None:
                digest.update(data)
                fh.write(data)

            put(array("q", (len(games), sum(len(g.crew) for g in games),
                            sum(map(len, columns)), len(texts), len(shared))))
            for g in games:
                state = g.series_state
                put(array("q", (*map(code, headers(g)), len(g.crew), len(g.events),
                                state is not None, *(state or (0, 0)))))
            put(array("q", map(code, chain.from_iterable(g.crew for g in games))))
            for name, typecode in zip(EventColumns.__slots__, _ENTRY_COLUMNS):
                for events in columns:
                    column = getattr(events, name)
                    put(column if typecode else array("q", map(code, column)))
            put(array("q", accumulate(map(len, encoded))))
            for data in encoded:
                put(data)
            fh.seek(0)
            fh.write(_MAGIC + _fingerprint() + digest.digest())
        os.replace(temp, path)
    except (OSError, UnicodeEncodeError, OverflowError):  # OverflowError: beyond 64 bits
        with suppress(OSError):
            os.unlink(temp)
