"""The canonical dataset round-trips any record it accepts, to the bit.

``write_dataset`` serializes each game line with orjson, json's escapes
applied to the characters orjson writes raw, where one rule over the
record's values shows the bytes cannot differ from the standard library's,
and with json, the reference, everywhere else; ``load_dataset`` decodes
with orjson. A differential property pins the two writers together: for
any record, fitting the fast path or not, the line is the reference's byte
for byte, or the same ``DatasetError`` text; the scan that decides,
``_orjson_exact``, which reads the event values from the event tuples,
accepts exactly what the same rule over every scalar of ``game_to_dict``'s
dict, kept here as the oracle, accepts. Simulated events hold plain Python
values, so a simulated corpus is written without json, and a line with
non-ASCII text or DEL is written without the reference. The round-trip
properties pin writer and loader together: every finite float comes back
with the same ``float.hex`` (signed zero, the smallest subnormal and the
largest double included), and every string comes back unchanged however
many escapes it needs. A line whose crew, series state or events container
has the wrong shape is refused, not coerced. ``game_from_dict`` builds
events column-wise in C; a differential property pins it to the per-event
reference build, result for result and error for error, and another that
it flags every game whose event numbers the analyses cannot compute with.
The loader reads a partition's lines through views of its bytes; a
differential property pins the lines it keeps, and the line number in
every error, to a read through ``splitlines`` copies. A load that reads
the cache of decoded partitions gives what the decode gives, value for
value and typecode for typecode, each event string shared once; a game
the decode holds as stored, or with a value no entry can hold, writes no
entry.
"""

from __future__ import annotations

import hashlib
import json
import math
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import orjson
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from conftest import make_event, make_game
from rimkit import ingest
from rimkit.ingest import (
    DatasetError,
    _json_game_line,
    _serialize_game_line,
    game_from_dict,
    game_to_dict,
    load_dataset,
    read_manifest,
    write_dataset,
)
from rimkit.model import EventColumns, FoulEvent, GameRecord, unusable_values
from rimkit.synth import SimConfig, generate

EDGE_FLOATS = (
    0.0,
    -0.0,
    5e-324,
    -5e-324,
    2.2250738585072014e-308,  # smallest normal
    2.225073858507201e-308,  # largest subnormal
    1.7976931348623157e308,
    -1.7976931348623157e308,
    0.1,
    1 / 3,
)
ESCAPES = '"\\/\b\f\n\r\t\x00\x1f\x7f\u2028\u2029\ufeff\U0001f600\u00e9\u5b57'

floats = st.one_of(
    st.sampled_from(EDGE_FLOATS), st.floats(allow_nan=False, allow_infinity=False)
)
ints = st.integers(min_value=-(2**63), max_value=2**63 - 1)
texts = st.one_of(st.text(), st.text(alphabet=ESCAPES))
labels = st.from_regex(r"[A-Za-z0-9][A-Za-z0-9_-]{0,8}", fullmatch=True)

events = st.builds(
    FoulEvent,
    event_id=ints,
    period=ints,
    clock_seconds_remaining=floats,
    charged_team=st.one_of(st.none(), texts),
    pre_wp=floats,
    post_wp=floats,
    description=texts,
)
games = st.builds(
    GameRecord,
    game_id=texts,
    season=labels,
    season_type=labels,
    home_team=texts,
    away_team=texts,
    crew=st.lists(texts, max_size=4).map(tuple),
    events=st.lists(events, max_size=6).map(tuple),
    series_state=st.one_of(st.none(), st.tuples(ints, ints)),
)


def _bits(game: GameRecord) -> list:
    """The type of every event field, and every event float as ``float.hex``."""
    out = []
    for e in game.events:
        out.append([type(v).__name__ for v in e])
        out.append(
            [v.hex() for v in (e.clock_seconds_remaining, e.pre_wp, e.post_wp)]
        )
    return out


@settings(
    max_examples=60,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(st.lists(games, max_size=5, unique_by=lambda g: g.game_id))
@example(
    [
        make_game(
            [
                make_event(-0.0, 5e-324, charged=None, description=ESCAPES),
                make_event(1.7976931348623157e308, 2.225073858507201e-308, charged=ESCAPES),
            ],
            game_id=ESCAPES,
            home="\U0001f600",
            series_state=(2, 3),
        )
    ]
)
def test_write_then_load_returns_every_record_field_for_field(records):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "ds"
        write_dataset(records, root)
        loaded, manifest = load_dataset(root)
    assert manifest.total_games == len(records)
    by_id = {g.game_id: g for g in loaded}
    assert sorted(by_id) == sorted(g.game_id for g in records)
    for want in records:
        got = by_id[want.game_id]
        assert got == want
        assert _bits(got) == _bits(want)


# Values of every kind a hand-built record may hold, including each one the
# orjson path must leave to json: floats at and beyond the fixed-notation
# bounds, non-finite floats, integers beyond 64 bits, booleans, numpy
# scalars, and strings needing escapes or holding lone surrogates.
BOUND_FLOATS = (1e-4, math.nextafter(1e-4, 0.0), 1e16, math.nextafter(1e16, 0.0), 1e-05, 1e20)
any_value = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(2**64), max_value=2**64),
    st.floats(),
    st.sampled_from(BOUND_FLOATS).flatmap(lambda v: st.sampled_from((v, -v))),
    st.floats(min_value=1e-6, max_value=1e-3),
    st.floats(min_value=1e15, max_value=1e17),
    st.floats().map(np.float64),
    ints.map(np.int64),
    st.text(),
    st.text(alphabet=ESCAPES + "\ud800\udbff\udc00\udfff"),
)


def loose(typed):
    """Mostly ``typed`` values, so the orjson path runs, else anything."""
    return st.one_of(typed, any_value)


loose_events = st.builds(
    FoulEvent,
    event_id=loose(ints),
    period=loose(ints),
    clock_seconds_remaining=loose(floats),
    charged_team=loose(st.one_of(st.none(), texts)),
    pre_wp=loose(floats),
    post_wp=loose(floats),
    description=loose(texts),
)
loose_games = st.builds(
    GameRecord,
    game_id=loose(texts),
    season=loose(labels),
    season_type=loose(labels),
    home_team=loose(texts),
    away_team=loose(texts),
    crew=st.lists(loose(texts), max_size=4).map(tuple),
    events=st.lists(loose_events, max_size=4).map(tuple),
    series_state=st.one_of(st.none(), st.tuples(loose(ints), loose(ints))),
)


def _line_or_error(write, game: GameRecord):
    try:
        return write(game)
    except DatasetError as e:
        return f"DatasetError: {e}"


@settings(
    max_examples=300,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(loose_games)
@example(make_game([make_event(1e-05, 0.5)]))
@example(make_game([make_event(0.5, 1e16)]))
@example(make_game([make_event(0.5, 0.6, clock=1e20)]))
@example(make_game([make_event(-0.0, 0.5)]))
@example(make_game([make_event(5e-324, 0.5)]))
@example(make_game([make_event(0.5, float("nan"))]))
@example(make_game([make_event(0.5, 0.6, clock=float("inf"))]))
@example(make_game([make_event(float("-inf"), 0.6)]))
@example(make_game([make_event(0.5, 0.6, period=2**63)]))
@example(make_game([make_event(0.5, 0.6, event_id=2**64 - 1)]))
@example(make_game([make_event(0.5, 0.6, period=True)]))
@example(make_game([make_event(np.float64(0.25), 0.6)]))
@example(make_game([make_event(0.5, 0.6, period=np.int64(2))]))
@example(make_game([make_event(0.5, 0.6, description="\u00e9")]))
@example(make_game([make_event(0.5, 0.6, description="\x7f")]))
@example(make_game([make_event(0.5, 0.6, charged="\u2028")]))
@example(make_game([make_event(0.5, 0.6, description="\ud800")]))
@example(make_game(crew=("Ref A", 5)))
@example(make_game(crew=(1e20,)))
@example(make_game([make_event(0.5, 0.6, description="Luka Don\u010di\u0107")]))
@example(make_game([make_event(0.5, 0.6, description="\u2028")]))
@example(make_game([make_event(0.5, 0.6, description="\U0001f3c0")]))
@example(make_game([make_event(0.5, 0.6, description="Joki\u0107\x7f\u2028\U0001f3c0\x7f")]))
def test_a_game_line_is_the_json_reference_byte_for_byte(game):
    reference = _line_or_error(lambda g: _json_game_line(g, game_to_dict(g)), game)
    assert _line_or_error(_serialize_game_line, game) == reference


def _orjson_exact_reference(d: dict) -> bool:
    """The writer guard as one Python pass, with one rule, over every scalar
    of ``d`` (the headers, the crew members, the series state and the event
    values): the oracle for ``ingest._orjson_exact``, which reads the event
    values from the event tuples instead."""
    headers = [d[key] for key in ("game_id", "season", "season_type", "home_team", "away_team")]
    event_values = [v for e in d["events"] for v in e.values()]
    for v in [*headers, *d["crew"], *(d["series_state"] or ()), *event_values]:
        t = type(v)
        if t is float:
            if not (1e-4 <= v < 1e16 or v == 0.0 or -1e16 < v <= -1e-4):
                return False
        elif t is int:
            if not -(2**63) <= v < 2**63:
                return False
        elif t is not str and v is not None:
            return False
    return True


@settings(
    max_examples=300,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(st.one_of(games, loose_games))
@example(make_game([make_event(1e-4, math.nextafter(1e16, 0.0), event_id=2**63 - 1,
                               period=-(2**63))]))
@example(make_game([make_event(0.5, 0.6), make_event(0.5, 0.6, clock=1e16)]))
@example(make_game([make_event(0.5, 0.6), make_event(5e-324, 0.6)]))
@example(make_game([make_event(0.5, 0.6), make_event(0.5, 0.6, charged=5)]))
@example(make_game([make_event(0.5, 0.6), make_event(0.5, 0.6, period=2**63)]))
@example(make_game([make_event(0.5, 0.6), make_event(0.0, 0.6, charged=None)]))
@example(make_game([make_event(0.5, 0.6), make_event(0.5, 0.6, clock=float("nan"))]))
@example(make_game([make_event(0.5, 0.6), make_event(0.5, 0.6)._replace(pre_wp=True)]))
@example(make_game([make_event(0.5, 0.6, clock=700), make_event(0.5, 0.6, clock=1e16)]))
@example(make_game([make_event(0.5, 0.6, clock=700), make_event(0.5, 0.6, clock=1e-05)]))
@example(make_game([make_event(0.5, 0.6, clock=2**63), make_event(0.5, 0.6, clock=0.5)]))
@example(make_game([make_event(0.5, 0.6, clock=-(2**63)), make_event(-0.0, 0.6, clock=0.5)]))
@example(make_game([make_event(0.5, 0.6, event_id=0.5), make_event(0.5, float("nan"))]))
@example(make_game([make_event(0.5, 0.6, charged=5), make_event(0.5, 0.6, charged=2**64)]))
@example(make_game([make_event(0.5, 0.6, description=None)]))
@example(make_game([make_event(-1e-4, -9.999999999999998e15)]))
@example(make_game(crew=()))
def test_the_writer_guard_accepts_what_the_per_value_scan_accepts(game):
    d = game_to_dict(game)
    assert ingest._orjson_exact(game, d) == _orjson_exact_reference(d)


SIM = SimConfig(
    seed=17, n_teams=8, n_referees=12, games_per_season=160, postseason_games_per_season=40,
    fouls_mean=15.0, fouls_dispersion=0.3, overtime_rate=0.1, unattributed_rate=0.05,
    missing_series_rate=0.2, team_home_shift={"T03": 1.5}, pair_shift={("Ref01", "T01"): 0.02},
    series_shift={(0, 0): 0.01},
)
PLAIN_EVENT_TYPES = {
    "event_id": {int},
    "period": {int},
    "clock_seconds_remaining": {float},
    "charged_team": {str, type(None)},
    "pre_wp": {float},
    "post_wp": {float},
    "description": {str},
}


def test_simulated_events_hold_plain_python_values():
    games, _ = generate(SIM)
    seen = {name: set() for name in FoulEvent._fields}
    for g in games:
        for e in g.events:
            for name, value in zip(FoulEvent._fields, e):
                seen[name].add(type(value))
    assert seen == PLAIN_EVENT_TYPES


def test_a_simulated_corpus_is_written_without_json(monkeypatch):
    games, _ = generate(SIM)

    def refuse(*args, **kwargs):
        raise AssertionError("a simulated game line went through json.dumps")

    monkeypatch.setattr(json, "dumps", refuse)
    lines = [_serialize_game_line(g) for g in games]
    monkeypatch.undo()
    assert lines == [_json_game_line(g, game_to_dict(g)) for g in games]


def test_a_line_with_non_ascii_text_or_del_is_written_without_the_reference(monkeypatch):
    # Such a line used to go through json.dumps whole; orjson now writes it,
    # with json's escapes applied to the characters it writes raw.
    texts = ["Luka Don\u010di\u0107", "line\u2028separator", "ball \U0001f3c0", "del\x7f"]
    games = [make_game([make_event(0.5, 0.6, description=t)], game_id=f"g{i}")
             for i, t in enumerate(texts)]
    games.append(make_game([make_event(0.5, 0.6, description=t, charged=t) for t in texts],
                           crew=tuple(texts), game_id="all"))
    expected = [_json_game_line(g, game_to_dict(g)) for g in games]

    def refuse(*args, **kwargs):
        raise AssertionError("a game line went through the json reference")

    monkeypatch.setattr(ingest, "_json_game_line", refuse)
    assert [_serialize_game_line(g) for g in games] == expected


def _rewrite_line(root: Path, line_no: int, new: bytes) -> str:
    """Replace one game line and recompute its manifest hash, so only the
    line itself is wrong; returns the partition's path."""
    manifest_path = root / "manifest.json"
    doc = json.loads(manifest_path.read_text(encoding="utf-8"))
    part = doc["partitions"][0]
    target = root / part["path"]
    lines = target.read_bytes().splitlines(keepends=True)
    lines[line_no - 1] = new + b"\n"
    data = b"".join(lines)
    target.write_bytes(data)
    part["sha256"] = hashlib.sha256(data).hexdigest()
    manifest_path.write_text(json.dumps(doc), encoding="utf-8")
    return part["path"]


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda line: line[: len(line) // 2],  # truncated
        lambda line: line.replace(b'"pre_wp":', b'"pre_wp":NaN,"x":', 1),
        lambda line: line.replace(b'"events":', b'"evnts":', 1),
        lambda line: line.replace(b'"team":', b'"team":7,"x":', 1),
        lambda line: b"[1, 2]",
        lambda line: b'"a string"',
        lambda line: b'{"a": "\\ud800"}',
    ],
    ids=["truncated", "nan", "missing-key", "wrong-type", "array", "string", "surrogate"],
)
def test_a_corrupted_game_line_names_its_partition_and_line(tmp_path, corrupt):
    root = tmp_path / "ds"
    write_dataset([make_game([make_event(0.5, 0.6)], game_id=f"g{i}") for i in range(4)], root)
    part = read_manifest(root).partitions[0]
    path = _rewrite_line(root, 2, corrupt((root / part.path).read_bytes().splitlines()[1]))
    with pytest.raises(DatasetError, match=rf"^{path}:2: bad game line"):
        load_dataset(root)


@pytest.mark.parametrize(
    "field, value",
    [
        ("crew", "Tony Brothers"),
        ("crew", {}),
        ("series_state", [2.9, "1"]),
        ("series_state", [2.0, 1]),
        ("series_state", [True, 1]),
        ("series_state", [1, 2, 0]),
        ("series_state", []),
        ("events", {}),
        ("events", ""),
    ],
    ids=["crew-string", "crew-object", "series-float-and-string",
         "series-integral-float", "series-bool", "series-three", "series-empty",
         "events-object", "events-string"],
)
def test_a_game_line_of_the_wrong_shape_is_refused(tmp_path, field, value):
    # Each value decodes and indexes without error, so only a shape check
    # stops it: a crew string would load as one referee per letter.
    root = tmp_path / "ds"
    write_dataset([make_game([make_event(0.5, 0.6)], game_id=f"g{i}", season_type="postseason",
                             series_state=(1, 2)) for i in range(4)], root)
    part = read_manifest(root).partitions[0]
    doc = json.loads((root / part.path).read_bytes().splitlines()[1])
    doc[field] = value
    path = _rewrite_line(root, 2, json.dumps(doc, sort_keys=True).encode())
    with pytest.raises(DatasetError, match=rf"^{path}:2: bad game line: {field}: "):
        load_dataset(root)


# ---------------------------------------------------------------------------
# The loader reads lines through views of the partition, as splitlines counts them
# ---------------------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.binary(max_size=8), st.sampled_from([b"\n", b"\r", b"\r\n"])),
                max_size=12))
def test_line_spans_are_the_lines_splitlines_gives(pieces):
    data = b"".join(pieces)
    assert [buf[start:end] for buf, start, end in ingest._line_spans(data)] == data.splitlines()


_GAME_LINES = [orjson.dumps(game_to_dict(make_game([make_event(0.5, 0.6)], game_id=f"g{i}")),
                            option=orjson.OPT_SORT_KEYS) for i in range(4)]
_LINE_BODIES = st.one_of(
    st.sampled_from(_GAME_LINES),  # a repeat is a duplicate game_id
    st.text(" \t\x0b\x0c", max_size=100).map(str.encode),  # blank, under and over 64 bytes
    st.sampled_from([
        b'{"game_id": ',  # truncated
        b"[1, 2]",  # a well-formed line of the wrong shape
        b" " * 17_000 + _GAME_LINES[3],  # long, but shallow: orjson reads it
        b"[" * 9_000 + b"]" * 9_000,  # long and deep: json refuses it first
        b"\x0c" + _GAME_LINES[2] + b"\x0b",
    ]),
)


def _splitlines_outcome(label: str, data: bytes):
    """What a load of one partition holding ``data`` gives, read through
    ``splitlines`` copies: the game ids, or the first error's text."""
    ids: list = []
    for line_no, line in enumerate(data.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            if len(line) >= 16_384 and line.count(b"[") + line.count(b"{") >= 800:
                json.loads(line)
            game_id = game_from_dict(orjson.loads(line)).game_id
        except (ValueError, KeyError, TypeError, RecursionError) as e:
            return "error", f"{label}:{line_no}: bad game line: {e}"
        if game_id in ids:
            return "error", f"{label}:{line_no}: duplicate game_id {game_id!r}"
        ids.append(game_id)
    return "ok", ids


@st.composite
def partitions(draw) -> bytes:
    """Partition bytes: game, blank and bad lines, each ended by "\\n" or,
    in about half the partitions, by any of "\\n", "\\r\\n" and "\\r"; the
    last ending is sometimes left off."""
    ends = [b"\n", b"\r\n", b"\r"] if draw(st.booleans()) else [b"\n"]
    lines = draw(st.lists(st.tuples(_LINE_BODIES, st.sampled_from(ends)), max_size=8))
    raw = b"".join(body + end for body, end in lines)
    if lines and draw(st.booleans()):
        raw = raw[:len(raw) - len(lines[-1][1])]
    return raw


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(partitions())
@example(_GAME_LINES[0] + b"\n" + b" " * 80 + b"\n" + _GAME_LINES[1])
@example(_GAME_LINES[0] + b"\r\n\t\r" + b'{"game_id": \n')
@example(b"")  # an empty file, which is not mapped
@example(_GAME_LINES[0] + b"\r\n" + _GAME_LINES[1] + b"\r\n")
@example(_GAME_LINES[0] + b"\n" + b"[" * 9_000 + b"]" * 9_000 + b"\n" + _GAME_LINES[1])
def test_the_loader_keeps_and_numbers_lines_as_splitlines_does(raw):
    # A carriage return in the partition sends it to splitlines; without
    # one, the lines are views split at "\n". Either way the kept lines,
    # and the line numbers in every error, are the ones splitlines gives.
    label = "2021-22/regular/games.jsonl"
    want = _splitlines_outcome(label, raw)
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / label).parent.mkdir(parents=True)
        (root / label).write_bytes(raw)
        games = len(want[1]) if want[0] == "ok" else 0
        manifest = {"schema_version": 1, "quarantine": {}, "partitions": [
            {"path": label, "games": games, "sha256": hashlib.sha256(raw).hexdigest()}]}
        (root / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
        try:
            got = "ok", [g.game_id for g in load_dataset(root)[0]]
        except DatasetError as e:
            got = "error", str(e)
    assert got == want


_STORED_KEYS = ("event_id", "period", "clock", "team", "pre_wp", "post_wp", "description")


@st.composite
def stored_events(draw):
    """An event as a dataset line may hold it: the right keys with a few
    dropped, and a team or description of any JSON type."""
    event = {
        "event_id": draw(st.integers(1, 99)),
        "period": draw(st.integers(1, 5)),
        "clock": draw(st.floats(0.0, 720.0)),
        "team": draw(st.one_of(st.none(), st.sampled_from(["HOU", "BOS"]), st.text(max_size=2),
                               st.integers(), st.lists(st.integers(), max_size=1))),
        "pre_wp": draw(st.floats(0.0, 1.0)),
        "post_wp": draw(st.floats(0.0, 1.0)),
        "description": draw(st.one_of(st.sampled_from(["Foul on HOU", ""]), st.text(max_size=2),
                                      st.none(), st.integers())),
    }
    for key in draw(st.sets(st.sampled_from(_STORED_KEYS), max_size=2)):
        del event[key]
    return event


def _stored_game(events) -> dict:
    return {"game_id": "g1", "season": "2021-22", "season_type": "regular",
            "home_team": "HOU", "away_team": "BOS", "crew": ["Ref A"],
            "series_state": None, "events": events}


def _outcome(build, d):
    try:
        return "ok", build(d)
    except Exception as e:  # the reference's error, type and text, is the expected outcome
        return "error", type(e), str(e)


def _exact(events) -> list:
    """Every event value with its type, a float as ``float.hex``."""
    return [[(type(v), v.hex() if type(v) is float else v) for v in e] for e in events]


def _reference_game(d: dict) -> GameRecord:
    reference = lambda events, strings: ingest._events_reference(events)  # noqa: E731
    with mock.patch.object(ingest, "_events", reference):
        return game_from_dict(d)


_VALID = {"event_id": 1, "period": 1, "clock": 600.0, "team": "HOU", "pre_wp": 0.5,
          "post_wp": 0.6, "description": "Foul on HOU"}


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(st.one_of(stored_events(), stored_events(), st.lists(st.integers(), max_size=2),
                          st.text(max_size=2), st.integers(), st.none()), max_size=4))
@example([])
@example([{k: v for k, v in _VALID.items() if k != "description"}])  # description left out
@example([dict(_VALID, team=None), dict(_VALID, team="BOS")])
@example([_VALID, dict(_VALID, team=7)])  # a team that is not a string
@example([_VALID, dict(_VALID, description=None)])
@example([_VALID, ["HOU"]])  # an event that is not an object
@example([{k: v for k, v in dict(_VALID, team=7).items() if k != "pre_wp"}])  # bad, then missing
@example([_VALID, dict(_VALID, clock=600)])  # values that do not fit the columns
@example([dict(_VALID, event_id=2**63), dict(_VALID, period=-(2**63), pre_wp=-0.0)])
def test_game_from_dict_matches_the_per_event_reference(events):
    d = _stored_game(events)
    got, want = _outcome(game_from_dict, d), _outcome(_reference_game, d)
    assert got == want
    if got[0] == "ok":
        built = got[1].events
        assert all(type(e) is FoulEvent for e in built)
        assert _exact(built) == _exact(want[1].events)
        for field in ("charged_team", "description"):
            strings = [getattr(e, field) for e in built if getattr(e, field) is not None]
            assert len({id(x) for x in strings}) == len(set(strings)), field


@pytest.mark.parametrize(
    "edit, form",
    [
        ({}, EventColumns),
        ({"team": None}, EventColumns),
        ({"event_id": -(2**63), "period": 2**63 - 1, "pre_wp": -0.0}, EventColumns),
        ({"clock": 600}, tuple),
        ({"pre_wp": 1}, tuple),
        ({"period": 1.0}, tuple),
        ({"event_id": True}, tuple),
        ({"event_id": 2**63}, tuple),
        ({"period": -(2**63) - 1}, tuple),
    ],
    ids=["plain", "none-team", "64-bit-bounds", "int-clock", "int-pre-wp", "float-period",
         "bool-event-id", "event-id-past-64-bits", "period-past-64-bits"],
)
def test_a_game_takes_the_column_form_only_when_every_value_fits(edit, form):
    # Anything else keeps the tuple, holding each value as stored, so the
    # game is written back byte for byte, or refused with the same error.
    d = _stored_game([_VALID, {**_VALID, "event_id": 2, "team": "BOS", **edit}])
    game, reference = game_from_dict(d), _reference_game(d)
    assert type(game.events) is form
    assert game == reference and _exact(game.events) == _exact(reference.events)
    assert _outcome(_serialize_game_line, game) == _outcome(_serialize_game_line, reference)


def test_a_game_without_events_holds_the_empty_tuple():
    assert game_from_dict(_stored_game([])).events == ()
    assert type(game_from_dict(_stored_game([])).events) is tuple


def _columns_and_tuple():
    """One game's events as loaded, in column form, and as the tuple of the
    same events."""
    stored = [_VALID,
              {**_VALID, "event_id": 2, "team": None, "clock": 500.5, "pre_wp": 0.6,
               "post_wp": 0.25, "description": "Unattributed"},
              {**_VALID, "event_id": 3, "period": 5, "team": "BOS", "clock": 0.0, "pre_wp": -0.0,
               "post_wp": 1.0}]
    columns = game_from_dict(_stored_game(stored)).events
    assert type(columns) is EventColumns
    return columns, ingest._events_reference(stored)


def test_event_columns_compare_and_hash_as_the_tuple_of_their_events():
    columns, events = _columns_and_tuple()
    assert columns == events and events == columns and not columns != events
    assert columns == _columns_and_tuple()[0] and columns != events[:2]
    assert columns != list(events) and columns != events[::-1]
    assert hash(columns) == hash(events)
    game = game_from_dict(_stored_game([_VALID]))
    assert type(game.events) is EventColumns
    as_tuple = _reference_game(_stored_game([_VALID]))
    assert game == as_tuple and hash(game) == hash(as_tuple)


def test_event_columns_index_slice_and_print_as_the_tuple_of_their_events():
    columns, events = _columns_and_tuple()
    assert len(columns) == len(events) == 3
    for i in range(-3, 3):
        assert type(columns[i]) is FoulEvent and columns[i] == events[i]
    for i in (3, -4):
        with pytest.raises(IndexError):
            columns[i]
    for cut in (slice(None), slice(1, None), slice(None, None, -1), slice(-2, -1), slice(5, 9)):
        assert type(columns[cut]) is tuple and columns[cut] == events[cut]
    assert repr(columns) == repr(events)
    assert list(columns) == list(events) and list(reversed(columns)) == list(reversed(events))
    assert events[2] in columns and columns.index(events[2]) == 2 and columns.count(events[0]) == 1
    assert columns[2].pre_wp.hex() == (-0.0).hex()


# Event numbers of every JSON type, so about half the events hold one the
# analyses cannot compute with.
_ANY_NUMBER = st.one_of(st.integers(0, 5), st.floats(0.0, 5.0), st.booleans(), st.none(),
                        st.text(max_size=1))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.fixed_dictionaries(
    {"period": _ANY_NUMBER, "clock": _ANY_NUMBER, "pre_wp": _ANY_NUMBER, "post_wp": _ANY_NUMBER}),
    st.booleans()), max_size=4))
def test_game_from_dict_flags_every_game_whose_event_numbers_the_analyses_cannot_use(drawn):
    # A period must be an int, the other numbers ints or floats. Whichever
    # form the game loads in (a description left to its default, or a
    # number of another type, keeps the tuple), unusable_values names
    # exactly the games holding such a number.
    events = [{k: v for k, v in dict(_VALID, **e).items() if k != "description" or keep}
              for e, keep in drawn]
    game = game_from_dict(_stored_game(events))
    wrong = any(type(e["period"]) is not int or not all(
        type(e[k]) in (int, float) for k in ("clock", "pre_wp", "post_wp")) for e in events)
    assert bool(list(unusable_values(game))) == wrong


def test_a_load_lists_the_flagged_games_in_load_order(tmp_path):
    games = [make_game([make_event(0.5, 0.6, period=p)], game_id=f"g{i}")
             for i, p in enumerate([1, 2.0, 3, True, 1.5])]
    write_dataset(games, tmp_path / "ds")
    loaded, _ = load_dataset(tmp_path / "ds")
    assert [g.game_id for g in loaded if list(unusable_values(g))] == ["g1", "g3", "g4"]


def test_a_load_shares_one_copy_of_each_event_string(tmp_path):
    write_dataset(generate(SIM)[0], tmp_path / "ds")
    games, _ = load_dataset(tmp_path / "ds")
    strings = [s for g in games for e in g.events for s in (e.charged_team, e.description)
               if s is not None]
    assert len({id(s) for s in strings}) == len(set(strings)) < len(strings)


# ---------------------------------------------------------------------------
# A load that reads the cache gives what the decode gives
# ---------------------------------------------------------------------------


def _refuse_decode(*args, **kwargs):
    raise AssertionError("a game line was decoded")


def _typecodes(games) -> list:
    return [[getattr(c, "typecode", type(c).__name__) for c in g.events._columns()]
            if type(g.events) is EventColumns else type(g.events).__name__ for g in games]


def _shares_each_event_string_once(games) -> bool:
    strings = [s for g in games if type(g.events) is EventColumns
               for s in (*g.events.charged_team, *g.events.description) if s is not None]
    return len({id(s) for s in strings}) == len(set(strings))


def _cold_then_warm(root: Path, cache: Path) -> tuple[list, list]:
    """A load that decodes every partition, then one that must read every
    partition from the entries the first wrote under ``cache``."""
    with mock.patch.dict("os.environ", {"XDG_CACHE_HOME": str(cache)}):
        cold, manifest = load_dataset(root)
        entries = sorted(p.name for p in cache.glob("rimkit/*"))
        assert entries == sorted({p.sha256 for p in manifest.partitions})
        with mock.patch.object(ingest, "game_from_dict", _refuse_decode):
            warm, again = load_dataset(root)
    assert again == manifest
    return cold, warm


def _assert_same_load(cold: list, warm: list) -> None:
    assert warm == cold
    assert [_bits(g) for g in warm] == [_bits(g) for g in cold]
    assert _typecodes(warm) == _typecodes(cold)
    assert [(type(g.events), type(g.series_state)) for g in warm] == [
        (type(g.events), type(g.series_state)) for g in cold]
    assert _shares_each_event_string_once(cold) and _shares_each_event_string_once(warm)


@settings(max_examples=60, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(games, max_size=6, unique_by=lambda g: g.game_id))
@example([make_game([make_event(-0.0, 5e-324, charged=None, description=ESCAPES),
                     make_event(0.25, 0.5, charged=ESCAPES, period=7, description=ESCAPES)],
                    game_id=ESCAPES, home="\U0001f600", crew=(ESCAPES, "字"),
                    season_type="postseason", series_state=(-(2**63), 2**63 - 1)),
          make_game([], game_id="no events", series_state=(3, 0))])
def test_a_load_from_the_cache_equals_the_decode(records):
    # Non-ASCII text, astral characters (surrogate pairs on disk),
    # unattributed calls, overtime periods, 64-bit bounds, games without
    # events and the first load's strings shared across games.
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "ds"
        write_dataset(records, root)
        _assert_same_load(*_cold_then_warm(root, Path(tmp) / "cache"))


def test_a_simulated_corpus_loads_from_the_cache_as_it_decodes(tmp_path):
    write_dataset(generate(SIM)[0], tmp_path / "ds")
    tree = {p: p.read_bytes() for p in (tmp_path / "ds").rglob("*") if p.is_file()}
    cold, warm = _cold_then_warm(tmp_path / "ds", tmp_path / "cache")
    _assert_same_load(cold, warm)
    assert any(g.series_state for g in warm) and any(g.series_state is None for g in warm)
    # The dataset directory is only read.
    assert {p: p.read_bytes() for p in (tmp_path / "ds").rglob("*") if p.is_file()} == tree


def _typed_line(edit):
    def rewrite(root: Path) -> None:
        part = read_manifest(root).partitions[0]
        doc = json.loads((root / part.path).read_bytes().splitlines()[0])
        edit(doc)
        _rewrite_line(root, 1, json.dumps(doc, sort_keys=True).encode())
    return rewrite


@pytest.mark.parametrize(
    "edit",
    [
        _typed_line(lambda d: d["events"][0].update(clock=600)),
        _typed_line(lambda d: d["events"][0].update(pre_wp=True)),
        _typed_line(lambda d: d.update(crew=["Ref A", 5])),
        _typed_line(lambda d: d.update(home_team=7)),
        _typed_line(lambda d: d.update(series_state=[2**63, 0], season_type="postseason")),
    ],
    ids=["int-clock", "bool-pre-wp", "crew-number", "header-number", "series-past-64-bits"],
)
def test_a_mistyped_or_tuple_held_game_writes_no_entry(tmp_path, monkeypatch, edit):
    # The decode keeps each value as stored, so only it may build such a game.
    root, cache = tmp_path / "ds", tmp_path / "cache"
    write_dataset([make_game([make_event(0.5, 0.6)], game_id=f"g{i}") for i in range(3)], root)
    edit(root)
    monkeypatch.setenv("XDG_CACHE_HOME", str(cache))
    first, _ = load_dataset(root)
    assert not any(cache.glob("rimkit/*"))
    again, _ = load_dataset(root)
    assert again == first and [_exact(g.events) for g in again] == [_exact(g.events) for g in first]
