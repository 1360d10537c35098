"""Raw-document parsing, foul/sample alignment, dataset persistence."""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import orjson
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import rimkit
from conftest import make_event, make_game, play, random_games, summary_doc, wp_doc
from rimkit import ingest
from rimkit.ingest import (
    DatasetError,
    ParseError,
    QuarantinedFoul,
    RawPlay,
    align_foul_wp,
    game_from_dict,
    game_to_dict,
    ingest_directory,
    load_dataset,
    parse_game_summary,
    parse_wp_feed,
    read_manifest,
    write_dataset,
)


def dumps(doc) -> bytes:
    return json.dumps(doc).encode("utf-8")


def _typed(value):
    """``value`` with every scalar tagged by its type, floats by repr (the sign of zero)."""
    if isinstance(value, float):
        return ("float", repr(value))
    if isinstance(value, (list, tuple)):
        return (type(value).__name__, [_typed(v) for v in value])
    if isinstance(value, dict):
        return ("dict", [(_typed(k), _typed(v)) for k, v in value.items()])
    return (type(value).__name__, value)


def _outcome(parse, data: bytes):
    """What ``parse`` makes of ``data``: its typed result, or its ParseError text."""
    try:
        result = parse(data)
    except ParseError as e:
        return ("error", str(e))
    if parse is parse_game_summary:
        game, plays = result
        result = (dataclasses.astuple(game), plays)
    return ("ok", _typed(result))


def _json_path_outcome(parse, data: bytes):
    """:func:`_outcome` with orjson switched off: the json decode is the reference."""
    with mock.patch.object(ingest, "_fast_decode", return_value=None):
        return _outcome(parse, data)


# ---------------------------------------------------------------------------
# parse_game_summary
# ---------------------------------------------------------------------------


def test_parse_summary_roundtrip():
    doc = summary_doc(
        plays=[
            play("p1", 1, clock=700.0),
            play("p2", 2, clock=650.0, foul=True, team="HOU", text="Foul on HOU"),
        ],
        series=None,
    )
    game, plays = parse_game_summary(dumps(doc))
    assert game.game_id == "0022100001"
    assert game.season == "2021-22"
    assert game.home_team == "HOU"
    assert game.crew == ("Tony Brothers", "Raisa Chen", "Pat Fraher")
    assert game.events == () and game.series_state is None
    assert len(plays) == 2
    assert plays[1].is_foul and plays[1].charged_team == "HOU"
    assert plays[0].charged_team is None


def test_parse_summary_zero_plays_is_fine():
    game, plays = parse_game_summary(dumps(summary_doc(plays=[])))
    assert plays == []
    assert game.game_id


def test_parse_summary_truncated_document():
    raw = dumps(summary_doc())[:-20]
    with pytest.raises(ParseError) as exc:
        parse_game_summary(raw)
    assert "byte" in str(exc.value)


def test_parse_summary_missing_field():
    doc = summary_doc()
    del doc["home_team"]
    with pytest.raises(ParseError, match="home_team"):
        parse_game_summary(dumps(doc))


def test_parse_summary_non_increasing_sequence():
    doc = summary_doc(plays=[play("p1", 5), play("p2", 5)])
    with pytest.raises(ParseError, match="not increasing"):
        parse_game_summary(dumps(doc))


@pytest.mark.parametrize(
    "field, value",
    [("sequence", "abc"), ("sequence", None), ("period", "first"), ("clock_seconds", [1]),
     ("sequence", 1e400), ("sequence", 1.9), ("period", 1.5), ("sequence", True),
     ("period", False), ("period", 2**63), ("clock_seconds", "nan"), ("clock_seconds", "inf"),
     ("clock_seconds", "-Infinity"), ("clock_seconds", 2**53 + 1)],
)
def test_parse_summary_non_numeric_play_field(field, value):
    bad = dict(play("p2", 2), **{field: value})
    doc = summary_doc(plays=[play("p1", 1), bad])
    with pytest.raises(ParseError, match=rf"summary\.plays\[1\]\.{field}: not a number"):
        parse_game_summary(dumps(doc))


@pytest.mark.parametrize(
    "home, away", [(1, None), ("two", 1), (1, {"wins": 2}), (2.9, 1), (1, 0.5), (True, 0)]
)
def test_parse_summary_non_numeric_series_wins(home, away):
    doc = summary_doc(season_type="postseason", series=(0, 0))
    doc["series"] = {"home_wins": home, "away_wins": away}
    with pytest.raises(ParseError, match=r"summary\.series\.(home|away)_wins: not a number"):
        parse_game_summary(dumps(doc))


def test_parse_summary_accepts_numbers_that_convert_exactly():
    plays = [
        dict(play("p1", 1), sequence="2", period="3", clock_seconds="600"),
        dict(play("p2", 2), sequence=3.0, period=4.0, clock_seconds=12),
    ]
    doc = summary_doc(season_type="postseason", series=(0, 0), plays=plays)
    doc["series"] = {"home_wins": "2", "away_wins": 1.0}
    game, parsed = parse_game_summary(dumps(doc))
    assert game.series_state == (2, 1)
    assert [(p.period, p.clock_seconds_remaining) for p in parsed] == [(3, 600.0), (4, 12.0)]
    for p in parsed:
        assert type(p.period) is int
        assert type(p.clock_seconds_remaining) is float


def test_parse_summary_lossy_number_names_the_value_it_would_become():
    doc = summary_doc(plays=[dict(play("p1", 1), period=1.5)])
    with pytest.raises(ParseError) as exc:
        parse_game_summary(dumps(doc))
    assert str(exc.value) == "summary.plays[0].period: not a number: 1.5 (would change to 1)"


def test_parse_summary_refuses_a_lone_surrogate_escape():
    doc = summary_doc(plays=[play("p1", 1, foul=True, team="HOU", text="\ud800 foul")])
    with pytest.raises(ParseError, match="lone surrogate"):
        parse_game_summary(dumps(doc))
    # A surrogate pair spells one character and is kept.
    doc = summary_doc(plays=[play("p1", 1, foul=True, team="HOU", text="\U0001F600 foul")])
    _, plays = parse_game_summary(dumps(doc))
    assert plays[0].description == "\U0001F600 foul"


def test_ingest_directory_ledgers_non_numeric_fields(tmp_path):
    good = summary_doc(game_id="g-good", plays=[play("p1", 1)])
    bad_seq = summary_doc(game_id="g-seq", plays=[dict(play("p1", 1), sequence="abc")])
    bad_series = summary_doc(game_id="g-series", season_type="postseason", series=(1, 0))
    bad_series["series"]["away_wins"] = None
    for name, doc in (("good", good), ("seq", bad_seq), ("series", bad_series)):
        (tmp_path / f"{name}.summary.json").write_bytes(dumps(doc))
    games, report = ingest_directory(tmp_path)
    assert [g.game_id for g in games] == ["g-good"]
    assert report.document_errors == [
        ("seq.summary.json", "summary.plays[0].sequence: not a number: 'abc'"),
        ("series.summary.json", "summary.series.away_wins: not a number: None"),
    ]


def test_parse_summary_series_block():
    game, _ = parse_game_summary(dumps(summary_doc(season_type="postseason", series=(2, 1))))
    assert game.series_state == (2, 1)


def test_parse_summary_canonicalizes_officials():
    doc = summary_doc(officials=["TONY BROTHERS", "  raisa   chen "])
    game, _ = parse_game_summary(dumps(doc))
    assert game.crew == ("Tony Brothers", "Raisa Chen")


def test_parse_summary_not_utf8():
    with pytest.raises(ParseError, match="UTF-8"):
        parse_game_summary(b"\xff\xfe{}")


@pytest.mark.parametrize("parse", [parse_game_summary, parse_wp_feed])
def test_parse_too_deeply_nested_document_is_a_parse_error(parse):
    with pytest.raises(ParseError, match="nested too deeply"):
        parse(b"[" * 200_000)


@pytest.mark.parametrize("parse", [parse_game_summary, parse_wp_feed])
def test_parse_integer_past_the_digit_limit_is_a_parse_error(parse):
    with pytest.raises(ParseError, match="integer over [0-9]+ digits"):
        parse(b'{"game_id": ' + b"1" * 5000 + b"}")


_SUMMARY = dumps(summary_doc(plays=[play("p1", 1, foul=True, team="HOU", text="Foul")]))
_WP = dumps(wp_doc([("p1", 0.5)], pregame=0.5))
_BIG = b"100000000000000000000"  # 10**20, which orjson would read as a float


def _nest(depth: int, closed: bool) -> bytes:
    return b"[" * depth + (b"]" * depth if closed else b"")


def _splice(doc: bytes, old: bytes, new: bytes) -> bytes:
    assert old in doc
    return doc.replace(old, new, 1)


def _decode_cases(doc: bytes, number: bytes, text: bytes, play_id: bytes) -> dict[str, bytes]:
    """Documents that orjson refuses, guards against, or reads differently from json."""

    def number_as(value: bytes) -> bytes:
        return _splice(doc, number, number.split(b":")[0] + b": " + value)

    return {
        "nan": number_as(b"NaN"),
        "digits-5000": number_as(b"1" * 5000),
        "number-10**20+1": number_as(_BIG[:-1] + b"1"),
        "number-below-64-bits": number_as(b"-9223372036854775809"),
        "id-10**20": _splice(doc, play_id, play_id.split(b":")[0] + b": " + _BIG),
        "lone-surrogate": _splice(doc, text, b'"\\ud800"'),
        "invalid-utf8": b"\xff",
        "invalid-utf8-in-a-string": _splice(doc, text, b'"\xff"'),
        **{
            f"nest-{depth}-{'closed' if closed else 'open'}": _nest(depth, closed)
            for depth in (980, 1000, 5000, 200_000)
            for closed in (True, False)
        },
        **{
            f"nest-{depth}-in-a-field": _splice(doc, b"{", b'{"x": ' + _nest(depth, True) + b", ")
            for depth in (390, 980, 1000, 5000, 200_000)
        },
    }


_PARSE_CASES = [
    pytest.param(parse_game_summary, data, id=f"summary-{name}")
    for name, data in _decode_cases(
        _SUMMARY, b'"clock_seconds": 600.0', b'"Foul"', b'"id": "p1"'
    ).items()
] + [
    pytest.param(parse_wp_feed, data, id=f"wp-{name}")
    for name, data in _decode_cases(_WP, b'"home_wp": 0.5', b'"p1"', b'"play_id": "p1"').items()
]
_SERIES = dumps(summary_doc(season_type="postseason", series=(1, 0)))
_PARSE_CASES += [
    pytest.param(
        parse_game_summary,
        _splice(_SUMMARY, b'"game_id": "0022100001"', b'"game_id": ' + _BIG),
        id="summary-game-id-10**20",
    ),
    pytest.param(
        parse_game_summary,
        _splice(_SERIES, b'"home_wins": 1', b'"home_wins": ' + _BIG),
        id="summary-series-10**20",
    ),
    pytest.param(
        parse_game_summary,
        _splice(_SERIES, b'"home_wins": 1', b'"home_wins": -9223372036854775809'),
        id="summary-series-below-64-bits",
    ),
    pytest.param(
        parse_game_summary,
        dumps(summary_doc(officials=["Tony Brothers", {"name": "Pat Fraher"}, 7, True])),
        id="summary-official-not-a-string",
    ),
] + [
    pytest.param(parse_game_summary, dumps(dict(summary_doc(), **{key: value})),
                 id=f"summary-{key}-{name}")
    for key in ("game_id", "season", "home_team")
    for name, value in [("null", None), ("boolean", False), ("list", ["HOU"]),
                        ("object", {"id": "HOU"}), ("integer", 7), ("float", 2.5)]
]




def _made_shot_with(key: str, value) -> bytes:
    return dumps(summary_doc(plays=[dict(play("p1", 1, text="Made shot"), **{key: value})]))


# A play field, foul flag or sample id of the wrong type, each of which used
# to be read through bool() or str(): "false" as a foul, null as 'None'.
_REFUSALS = [
    (parse_game_summary, _made_shot_with("foul", value),
     f"summary.plays[0].foul: not a boolean: {value!r}", f"summary-foul-{name}")
    for name, value in [("string", "false"), ("zero", 0), ("one", 1), ("list", [True])]
] + [
    (parse_game_summary, _made_shot_with(key, value),
     f"summary.plays[0].{key}: not a string: {value!r}", f"summary-play-{key}-{name}")
    for key, name, value in [("id", "null", None), ("id", "boolean", True),
                             ("text", "object", {"x": 1}), ("text", "boolean", False),
                             ("team", "list", ["HOU"])]
] + [
    (parse_wp_feed, dumps({"items": [{"play_id": value, "home_wp": 0.5}]}),
     f"wp.items[0].play_id: not a string: {value!r}", f"wp-play-id-{name}")
    for name, value in [("null", None), ("list", ["p1"])]
]
_PARSE_CASES += [pytest.param(parse, data, id=name) for parse, data, _, name in _REFUSALS]


@pytest.mark.parametrize("parse, data", _PARSE_CASES)
def test_parse_gives_the_json_path_result_or_error_text(parse, data):
    assert _outcome(parse, data) == _json_path_outcome(parse, data)


@pytest.mark.parametrize("parse, data, error",
                         [pytest.param(*case[:3], id=case[3]) for case in _REFUSALS])
def test_parse_refuses_a_play_field_or_foul_flag_of_the_wrong_type(parse, data, error):
    assert _outcome(parse, data) == ("error", error)


def test_parse_reads_a_number_as_its_text_and_null_as_absent_in_a_play():
    doc = summary_doc(plays=[dict(play("p1", 1), id=7, text=None, team=None, foul=None),
                             dict(play("p2", 2), text=2.5, team=3, foul=True)])
    _, plays = parse_game_summary(dumps(doc))
    assert [(p.play_id, p.description, p.charged_team, p.is_foul) for p in plays] == [
        ("7", "", None, False), ("p2", "2.5", "3", True)]
    assert parse_wp_feed(dumps({"items": [{"play_id": 7, "home_wp": 0.5}]}))[0] == {"7": 0.5}


def _refuses_json(parse, data: bytes) -> str:
    """``parse(data)``'s ParseError text, with the json decode made to fail the test."""
    with mock.patch.object(ingest, "_load_json", side_effect=AssertionError("decoded by json")):
        with pytest.raises(ParseError) as exc:
            parse(data)
    assert _outcome(parse, data) == _json_path_outcome(parse, data)
    return str(exc.value)


_NO_GAME_ID = {k: v for k, v in summary_doc().items() if k != "game_id"}


@pytest.mark.parametrize(
    "doc, error",
    [
        (_NO_GAME_ID, "summary: missing required field 'game_id'"),
        (dict(summary_doc(), plays=5), "summary: 'plays' must be a list"),
        (dict(summary_doc(), officials="Tony Brothers"), "summary: 'officials' must be a list"),
        # Falsy values that are not a list are not an empty crew either.
        (dict(summary_doc(), officials=""), "summary: 'officials' must be a list"),
        (dict(summary_doc(), officials=0), "summary: 'officials' must be a list"),
        (dict(summary_doc(), officials=False), "summary: 'officials' must be a list"),
        (dict(summary_doc(), officials={}), "summary: 'officials' must be a list"),
        (dict(summary_doc(), series=[1, 0]), "summary: 'series' must be an object"),
        (dict(summary_doc(), series={"home_wins": 1}),
         "summary.series: missing required field 'away_wins'"),
    ],
    ids=["missing-field", "plays", "officials", "officials-empty-string", "officials-zero",
         "officials-false", "officials-empty-object", "series", "series-field"],
)
def test_parse_game_summary_raises_on_the_orjson_document_without_a_json_decode(doc, error):
    # A missing key or a container of the wrong type reads the same from
    # either decoder, so decoding the document again cannot change the error.
    assert _refuses_json(parse_game_summary, dumps(doc)) == error


def test_parse_game_summary_reads_absent_or_null_officials_as_no_crew():
    absent = {k: v for k, v in summary_doc().items() if k != "officials"}
    for doc in (absent, dict(summary_doc(), officials=None)):
        game, _ = parse_game_summary(dumps(doc))
        assert game.crew == ()


@pytest.mark.parametrize(
    "doc, error",
    [
        ({"items": {"p1": 0.5}}, "wp: 'items' must be a list"),
        ({"items": [{"play_id": "p1", "home_wp": 0.5}, ["p2", 0.6]]},
         "wp: items[1] must be an object"),
    ],
    ids=["items", "item"],
)
def test_parse_wp_feed_raises_on_the_orjson_document_without_a_json_decode(doc, error):
    assert _refuses_json(parse_wp_feed, dumps(doc)) == error


def test_parse_reads_an_integer_beyond_64_bits_as_json_does():
    game, plays = parse_game_summary(_splice(_SUMMARY, b'"id": "p1"', b'"id": ' + _BIG))
    assert plays[0].play_id == "100000000000000000000"
    game, _ = parse_game_summary(
        _splice(_SUMMARY, b'"game_id": "0022100001"', b'"game_id": ' + _BIG)
    )
    assert game.game_id == "100000000000000000000"
    wp_by_play, _, _ = parse_wp_feed(_splice(_WP, b'"play_id": "p1"', b'"play_id": ' + _BIG))
    assert list(wp_by_play) == ["100000000000000000000"]
    with pytest.raises(ParseError, match=r"would change to 1e\+20"):
        parse_game_summary(_splice(_SUMMARY, b"600.0", _BIG[:-1] + b"1"))


@pytest.mark.parametrize(
    "field, value, error",
    [
        ("sequence", True, "summary.plays[0].sequence: not a number: True"),
        ("sequence", 1.0, None),
        ("sequence", "2", None),
        (
            "sequence",
            2**63,
            "summary.plays[0].sequence: not a number: 9223372036854775808 (beyond 64 bits)",
        ),
        ("clock_seconds", 720, None),
    ],
)
def test_parse_summary_off_the_fast_path_reads_as_before(field, value, error):
    data = dumps(summary_doc(plays=[dict(play("p1", 1), **{field: value}), play("p2", 3)]))
    assert _outcome(parse_game_summary, data) == _json_path_outcome(parse_game_summary, data)
    if error is not None:
        with pytest.raises(ParseError) as exc:
            parse_game_summary(data)
        assert str(exc.value) == error
    else:
        _, plays = parse_game_summary(data)
        assert [p.play_id for p in plays] == ["p1", "p2"]
        clock = plays[0].clock_seconds_remaining
        assert type(clock) is float and clock == (720.0 if field == "clock_seconds" else 600.0)


# ---------------------------------------------------------------------------
# parse_wp_feed
# ---------------------------------------------------------------------------


def test_parse_wp_feed_drops_bad_samples():
    doc = {
        "pregame": 0.58,
        "items": [
            {"play_id": "p1", "home_wp": 0.61},
            {"play_id": "p2", "home_wp": 1.7},
            {"play_id": "p3"},
            {"play_id": "p4", "home_wp": "not-a-number"},
            {"play_id": "p5", "home_wp": float("nan")},
            {"play_id": "p6", "home_wp": 0.0},
            {"play_id": "p1", "home_wp": 0.64},
            {"play_id": "p6", "home_wp": "late-garbage"},
        ],
    }
    wp_by_play, pregame, dropped = parse_wp_feed(dumps(doc))
    # A repeated play id keeps its last usable value.
    assert wp_by_play == {"p1": 0.64, "p6": 0.0}
    assert pregame == 0.58
    assert dropped == 5


def test_parse_wp_feed_refuses_booleans():
    items = [
        {"play_id": "p1", "home_wp": True},
        {"play_id": "p2", "home_wp": False},
        {"play_id": "p3", "home_wp": 0.5},
    ]
    wp_by_play, pregame, dropped = parse_wp_feed(dumps({"pregame": True, "items": items}))
    assert wp_by_play == {"p3": 0.5}
    assert pregame is None and dropped == 2


def test_parse_wp_feed_invalid_pregame_becomes_none():
    wp_by_play, pregame, dropped = parse_wp_feed(
        dumps({"pregame": 3.0, "items": [{"play_id": "p1", "home_wp": 0.5}]})
    )
    assert pregame is None
    assert wp_by_play == {"p1": 0.5} and dropped == 0


def test_parse_wp_feed_integer_beyond_float_range_is_dropped():
    huge = 10**400
    items = [{"play_id": "p1", "home_wp": huge}, {"play_id": "p2", "home_wp": 0.5}]
    wp_by_play, pregame, dropped = parse_wp_feed(dumps({"pregame": huge, "items": items}))
    assert pregame is None
    assert wp_by_play == {"p2": 0.5} and dropped == 1


# ---------------------------------------------------------------------------
# align_foul_wp
# ---------------------------------------------------------------------------


def _plays_fixture():
    return [
        RawPlay("p1", 1, 700.0, "", False, None),
        RawPlay("p2", 1, 650.0, "", True, "HOU"),
        RawPlay("p3", 1, 600.0, "", False, None),
        RawPlay("p4", 1, 550.0, "", True, "BOS"),
    ]


def test_align_uses_own_sample_and_prior_sampled_play():
    wp_by_play = {"p1": 0.62, "p2": 0.55, "p3": 0.57, "p4": 0.51}
    events, quarantined = align_foul_wp(_plays_fixture(), wp_by_play, start_prior=0.5)
    assert quarantined == ()
    assert len(events) == 2
    first, second = events
    assert (first.pre_wp, first.post_wp) == (0.62, 0.55)
    assert (second.pre_wp, second.post_wp) == (0.57, 0.51)
    assert [e.event_id for e in events] == [1, 2]


def test_align_first_foul_before_any_sample_uses_start_prior():
    plays = [RawPlay("p1", 1, 700.0, "", True, "HOU")]
    events, _ = align_foul_wp(plays, {"p1": 0.54}, start_prior=0.47)
    assert events[0].pre_wp == 0.47
    assert events[0].post_wp == 0.54


def test_align_foul_without_own_sample_takes_next():
    events, quarantined = align_foul_wp(
        _plays_fixture(), {"p1": 0.62, "p3": 0.59}, start_prior=0.5
    )
    # First foul p2 has no sample; nearest later sampled play is p3.
    assert events[0].pre_wp == 0.62
    assert events[0].post_wp == 0.59
    # Second foul p4 has nothing after it -> quarantined.
    assert len(events) == 1
    assert [q.play_id for q in quarantined] == ["p4"]
    assert quarantined[0].reason == "no-post-sample"


def test_align_last_play_foul_without_sample_quarantined():
    plays = [
        RawPlay("p1", 1, 700.0, "", False, None),
        RawPlay("p2", 1, 650.0, "", True, "HOU"),
    ]
    events, quarantined = align_foul_wp(plays, {"p1": 0.6}, start_prior=0.5)
    assert events == ()
    assert [q.play_id for q in quarantined] == ["p2"]


def test_align_no_samples_at_all_quarantines_every_foul():
    events, quarantined = align_foul_wp(_plays_fixture(), {}, start_prior=0.5)
    assert events == ()
    assert [q.play_id for q in quarantined] == ["p2", "p4"]


def test_align_never_reorders():
    plays = [
        RawPlay("p1", 1, 700.0, "", True, "HOU"),
        RawPlay("p2", 1, 650.0, "", True, "BOS"),
        RawPlay("p3", 1, 600.0, "", True, "HOU"),
    ]
    events, _ = align_foul_wp(plays, {"p1": 0.5, "p2": 0.6, "p3": 0.4}, start_prior=0.5)
    assert [e.charged_team for e in events] == ["HOU", "BOS", "HOU"]
    assert [e.event_id for e in events] == [1, 2, 3]


# ---------------------------------------------------------------------------
# Directory ingest
# ---------------------------------------------------------------------------


def _write_raw_game(raw_dir, doc, wp=None):
    raw_dir.mkdir(parents=True, exist_ok=True)
    gid = doc["game_id"]
    (raw_dir / f"{gid}.summary.json").write_bytes(dumps(doc))
    if wp is not None:
        (raw_dir / f"{gid}.wp.json").write_bytes(dumps(wp))


def test_ingest_directory_mixed_corpus(tmp_path):
    raw = tmp_path / "raw"
    # A clean game.
    _write_raw_game(
        raw,
        summary_doc(
            game_id="g-good",
            plays=[play("p1", 1), play("p2", 2, foul=True, team="HOU")],
        ),
        wp_doc([("p1", 0.6), ("p2", 0.55)]),
    )
    # Malformed JSON document.
    raw.mkdir(exist_ok=True)
    (raw / "g-trunc.summary.json").write_bytes(b'{"game_id": "g-tr')
    # Invalid game (same team both sides).
    _write_raw_game(raw, summary_doc(game_id="g-bad", home="HOU", away="HOU"))
    # Missing crew -> kept but flagged.
    _write_raw_game(
        raw,
        summary_doc(game_id="g-nocrew", officials=()),
        wp_doc([("p1", 0.5)]),
    )
    # Foul with no post sample -> foul quarantined, game kept.
    _write_raw_game(
        raw,
        summary_doc(game_id="g-gap", plays=[play("p1", 1, foul=True, team="BOS")]),
        wp_doc([]),
    )

    games, report = ingest_directory(raw)
    assert report.documents_seen == 5
    assert len(report.document_errors) == 1
    assert "g-trunc.summary.json" in report.document_errors[0][0]
    assert [gid for gid, _ in report.quarantined_games] == ["g-bad"]
    assert report.no_crew_games == ["g-nocrew"]
    assert set(report.quarantined_fouls) == {"g-gap"}
    assert report.kept_games == 3
    assert sorted(g.game_id for g in games) == ["g-gap", "g-good", "g-nocrew"]
    counts = report.quarantine_counts()
    assert counts == {
        "document_errors": 1,
        "quarantined_games": 1,
        "no_crew_games": 1,
        "quarantined_fouls": 1,
        "dropped_samples": 0,
    }


def test_ingest_directory_quarantines_a_later_duplicate_game_id(tmp_path):
    raw = tmp_path / "raw"
    raw.mkdir()
    first = summary_doc(game_id="g-1", plays=[play("p1", 1, foul=True, team="HOU")])
    later = summary_doc(game_id="g-1", home="LAL", away="MIA", plays=[play("p1", 1)])
    (raw / "a.summary.json").write_bytes(dumps(first))
    (raw / "a.wp.json").write_bytes(dumps(wp_doc([("p1", 0.6)])))
    (raw / "b.summary.json").write_bytes(dumps(later))
    (raw / "b.wp.json").write_bytes(dumps(wp_doc([])))
    games, report = ingest_directory(raw)
    assert [(g.game_id, g.home_team) for g in games] == [("g-1", "HOU")]
    assert report.quarantined_games == [("g-1", ("game_id: duplicate of a.summary.json",))]
    assert report.kept_games == 1
    assert report.quarantine_counts()["quarantined_games"] == 1
    write_dataset(games, tmp_path / "ds")  # the kept games are writable


def test_ingest_directory_quarantines_a_name_with_a_control_character(tmp_path):
    # The tables print team and crew names; a line break in one broke the
    # comment block of fig13_team_side_effects.csv and split values.
    raw = tmp_path / "raw"
    plays = [play("p1", 1, foul=True, team="T01\nX"), play("p2", 2, foul=True, team="BOS")]
    _write_raw_game(raw, summary_doc(game_id="g-team", home="T01\nX", plays=plays),
                    wp_doc([("p1", 0.5), ("p2", 0.6)]))
    _write_raw_game(raw, summary_doc(game_id="g-crew", officials=["Tony\x07Brothers"]))
    _write_raw_game(raw, summary_doc(game_id="g-ok"), wp_doc([("p1", 0.5)]))
    games, report = ingest_directory(raw)
    assert [g.game_id for g in games] == ["g-ok"]
    assert report.quarantined_games == [
        ("g-crew", ("crew[0]: 'Tony\\x07Brothers' holds a control character",)),
        ("g-team", ("home_team: 'T01\\nX' holds a control character",)),
    ]


def test_ingest_directory_quarantines_an_official_listed_twice(tmp_path):
    # Both spellings canonicalize to one name; kept, the game would count
    # twice for that official in the referee tallies and the crew panel.
    raw = tmp_path / "raw"
    officials = ["TONY BROTHERS", "Tony  Brothers", "Pat Fraher"]
    _write_raw_game(raw, summary_doc(game_id="g-twice", officials=officials))
    _write_raw_game(raw, summary_doc(game_id="g-ok"), wp_doc([("p1", 0.5)]))
    games, report = ingest_directory(raw)
    assert [g.game_id for g in games] == ["g-ok"]
    assert report.quarantined_games == [
        ("g-twice", ("crew[1]: 'Tony Brothers' repeats crew[0]",))]


def test_ingest_directory_ledgers_a_header_or_official_that_is_not_a_string(tmp_path):
    # Each used to become a name: null as 'None', an object as its repr.
    raw = tmp_path / "raw"
    _write_raw_game(raw, summary_doc(game_id="g-ok"), wp_doc([("p1", 0.5)]))
    _write_raw_game(raw, summary_doc(game_id="g-official",
                                     officials=[None, {"name": "Pat Fraher"}, 7, True]))
    _write_raw_game(raw, dict(summary_doc(game_id="g-header"), home_team=None))
    _write_raw_game(raw, dict(summary_doc(game_id="g-number"), season=2021))
    games, report = ingest_directory(raw)
    assert [(g.game_id, g.season) for g in games] == [("g-number", "2021"), ("g-ok", "2021-22")]
    assert report.document_errors == [
        ("g-header.summary.json", "summary.home_team: not a string: None"),
        ("g-official.summary.json", "summary.officials[0]: not a string: None"),
    ]


def test_ingest_directory_ledgers_a_foul_flag_that_is_not_a_boolean(tmp_path):
    # "false" used to make a made shot a foul, and its swing part of RIM.
    raw = tmp_path / "raw"
    plays = [play("p1", 1, text="Made shot"), dict(play("p2", 2, team="HOU"), foul=True, text=5)]
    _write_raw_game(raw, summary_doc(game_id="g-ok", plays=plays),
                    wp_doc([("p1", 0.5), ("p2", 0.6)]))
    plays = [dict(play("p1", 1, text="Made shot"), foul="false")]
    _write_raw_game(raw, summary_doc(game_id="g-string", plays=plays), wp_doc([("p1", 0.5)]))
    games, report = ingest_directory(raw)
    assert [(g.game_id, [e.description for e in g.events]) for g in games] == [("g-ok", ["5"])]
    assert report.document_errors == [
        ("g-string.summary.json", "summary.plays[0].foul: not a boolean: 'false'")
    ]


def test_ingest_directory_ledgers_a_lone_surrogate_document(tmp_path):
    raw = tmp_path / "raw"
    _write_raw_game(raw, summary_doc(game_id="g-ok"), wp_doc([("p1", 0.5)]))
    _write_raw_game(raw, summary_doc(game_id="g-bad", officials=["Ref \udc80"]))
    games, report = ingest_directory(raw)
    assert [g.game_id for g in games] == ["g-ok"]
    assert report.document_errors == [
        ("g-bad.summary.json", "summary: a \\u escape spells a lone surrogate")
    ]


def test_ingest_directory_pregame_overrides_start_prior(tmp_path):
    raw = tmp_path / "raw"
    foul_first = [play("p1", 1, foul=True, team="HOU")]
    pregame = wp_doc([("p1", 0.5)], pregame=0.61)
    _write_raw_game(raw, summary_doc(game_id="g-pregame", plays=foul_first), pregame)
    _write_raw_game(raw, summary_doc(game_id="g-prior", plays=foul_first), wp_doc([("p1", 0.5)]))
    games, _ = ingest_directory(raw, start_prior=0.47)
    assert {g.game_id: g.events[0].pre_wp for g in games} == {"g-pregame": 0.61, "g-prior": 0.47}


def test_ingest_directory_ledgers_a_path_it_cannot_read(tmp_path):
    # A file this process may not read takes the same path (OSError), but
    # root reads any file, so only directories are exercised here.
    raw = tmp_path / "raw"
    _write_raw_game(raw, summary_doc(game_id="g-ok"), wp_doc([("p1", 0.5)]))
    (raw / "a-dir.summary.json").mkdir()
    _write_raw_game(raw, summary_doc(game_id="g-wp-dir"))
    (raw / "g-wp-dir.wp.json").mkdir()
    games, report = ingest_directory(raw)
    assert [g.game_id for g in games] == ["g-ok"]
    assert report.documents_seen == 3
    assert report.document_errors == [
        ("a-dir.summary.json", "summary: cannot read: Is a directory"),
        ("g-wp-dir.summary.json", "wp: cannot read: Is a directory"),
    ]


@pytest.mark.parametrize("enabled", [True, False])
def test_decode_loops_restore_the_cyclic_collector(tmp_path, enabled):
    raw, root = tmp_path / "raw", tmp_path / "ds"
    _write_raw_game(raw, summary_doc(game_id="g-1"), wp_doc([("p1", 0.5)]))
    was = gc.isenabled()
    try:
        gc.enable() if enabled else gc.disable()
        games, _ = ingest_directory(raw)
        assert gc.isenabled() is enabled
        write_dataset(games, root)
        assert load_dataset(root)[0] == games
        assert gc.isenabled() is enabled
        part = root / read_manifest(root).partitions[0].path
        part.write_bytes(part.read_bytes() + b"\n{}\n")
        with pytest.raises(DatasetError, match="hash mismatch"):
            load_dataset(root)
        assert gc.isenabled() is enabled
    finally:
        gc.enable() if was else gc.disable()


def test_ingest_directory_missing_wp_feed_is_tolerated(tmp_path):
    raw = tmp_path / "raw"
    _write_raw_game(
        raw, summary_doc(game_id="g-nowp", plays=[play("p1", 1, foul=True)])
    )
    games, report = ingest_directory(raw)
    assert report.kept_games == 1
    assert games[0].events == ()
    assert set(report.quarantined_fouls) == {"g-nowp"}


def test_ingest_directory_pairs_a_doubled_suffix_with_its_own_wp_feed(tmp_path):
    # Only the trailing ".summary.json" turns into ".wp.json": replacing every
    # occurrence looked for "g.wp.json.wp.json" and quarantined the foul.
    raw = tmp_path / "raw"
    raw.mkdir()
    doc = summary_doc(game_id="g-1", plays=[play("p1", 1, foul=True, team="HOU")])
    (raw / "g.summary.json.summary.json").write_bytes(dumps(doc))
    (raw / "g.summary.json.wp.json").write_bytes(dumps(wp_doc([("p1", 0.6)])))
    (raw / "g.wp.json.wp.json").write_bytes(dumps(wp_doc([("p1", 0.3)])))
    games, report = ingest_directory(raw)
    assert [e.post_wp for g in games for e in g.events] == [0.6]
    assert report.quarantined_fouls == {}


def test_ingest_directory_treats_a_dangling_or_looping_wp_link_as_missing(tmp_path):
    # As Path.exists() does: such a feed is absent, so the fouls are quarantined.
    raw = tmp_path / "raw"
    for gid, target in (("g-dangling", "nowhere.json"), ("g-loop", "g-loop.wp.json")):
        _write_raw_game(raw, summary_doc(game_id=gid, plays=[play("p1", 1, foul=True)]))
        (raw / f"{gid}.wp.json").symlink_to(target)
    games, report = ingest_directory(raw)
    assert [g.events for g in games] == [(), ()]
    assert sorted(report.quarantined_fouls) == ["g-dangling", "g-loop"]
    assert report.document_errors == []


def test_ingest_directory_reads_documents_in_path_order(tmp_path):
    # Paths sort component by component, so "a/..." comes before "a-b/...",
    # although "a-b/" sorts first as a plain string ("-" is below "/").
    raw = tmp_path / "raw"
    _write_raw_game(raw / "a-b", summary_doc(game_id="g-1", home="LAL", away="MIA"))
    _write_raw_game(raw / "a", summary_doc(game_id="g-1"))
    games, report = ingest_directory(raw)
    assert [(g.game_id, g.home_team) for g in games] == [("g-1", "HOU")]
    first = os.path.join("a", "g-1.summary.json")
    assert report.quarantined_games == [("g-1", (f"game_id: duplicate of {first}",))]


def test_ingest_quarantines_a_season_that_would_escape_the_dataset(tmp_path):
    raw = tmp_path / "raw"
    _write_raw_game(raw, summary_doc(game_id="g-ok"), wp_doc([("p1", 0.5)]))
    _write_raw_game(
        raw, summary_doc(game_id="g-escape", season="../../escaped"), wp_doc([("p1", 0.5)])
    )
    games, report = ingest_directory(raw)
    assert [g.game_id for g in games] == ["g-ok"]
    assert [gid for gid, _ in report.quarantined_games] == ["g-escape"]
    root = tmp_path / "a" / "b" / "ds"
    write_dataset(games, root)
    assert not (tmp_path / "a" / "escaped").exists()


# ---------------------------------------------------------------------------
# Canonical dataset
# ---------------------------------------------------------------------------


def test_game_dict_roundtrip(rng):
    for game in random_games(rng, 20):
        assert game_from_dict(game_to_dict(game)) == game
    post = make_game(
        [make_event(0.5, 0.6)],
        game_id="p1",
        season_type="postseason",
        series_state=(2, 1),
    )
    assert game_from_dict(game_to_dict(post)) == post


def test_write_dataset_layout_and_manifest(tmp_path, rng):
    games = [
        make_game([], game_id="b", season="2021-22", season_type="regular"),
        make_game([], game_id="a", season="2021-22", season_type="regular"),
        make_game(
            [], game_id="c", season="2022-23", season_type="postseason"
        ),
        make_game([], game_id="d", season="2022-23", season_type="regular"),
    ]
    root = tmp_path / "ds"
    manifest = write_dataset(games, root, quarantine={"document_errors": 2})
    assert (root / "2021-22" / "regular" / "games.jsonl").exists()
    assert (root / "2022-23" / "postseason" / "games.jsonl").exists()
    assert len(manifest.partitions) == 3
    assert manifest.total_games == 4
    assert manifest.quarantine["document_errors"] == 2
    # Games sort by id inside a partition.
    lines = (root / "2021-22" / "regular" / "games.jsonl").read_text().splitlines()
    assert [json.loads(l)["game_id"] for l in lines] == ["a", "b"]
    # No staging residue.
    assert not (root / ".staging").exists()


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_write_dataset_refuses_a_non_finite_number(tmp_path, bad):
    root = tmp_path / "ds"
    write_dataset([make_game([make_event(0.5, 0.6)], game_id="ok")], root)
    before = {p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()}
    games = [
        make_game([make_event(0.5, 0.6)], game_id="ok"),
        make_game([make_event(0.5, bad)], game_id="g-bad"),
    ]
    with pytest.raises(DatasetError, match="game 'g-bad'"):
        write_dataset(games, root)
    assert (root / ".staging").is_dir()  # left behind for inspection
    after = {
        p.relative_to(root): p.read_bytes()
        for p in root.rglob("*")
        if p.is_file() and ".staging" not in p.parts
    }
    assert after == before
    assert [g.game_id for g in load_dataset(root)[0]] == ["ok"]


@pytest.mark.parametrize(
    "game",
    [
        make_game([make_event(0.5, 0.6, description="\ud800")], game_id="g-bad"),
        make_game(crew=("\udfff Chen",), game_id="g-bad"),
        make_game([make_event(0.5, 0.6, period=2**63)], game_id="g-bad"),
        make_game([make_event(0.5, 0.6, clock=10**20)], game_id="g-bad"),
        make_game(series_state=(0, -(2**63) - 1), game_id="g-bad"),
        make_game([make_event(0.5, 0.6, period=np.int64(2))], game_id="g-bad"),
    ],
    ids=[
        "surrogate-description", "surrogate-crew", "int-64-bits", "int-clock", "int-negative",
        "numpy-int",
    ],
)
def test_write_dataset_refuses_a_value_the_loader_would_not_read_back(tmp_path, game):
    root = tmp_path / "ds"
    with pytest.raises(DatasetError, match="game 'g-bad'"):
        write_dataset([make_game([make_event(0.5, 0.6)], game_id="ok"), game], root)
    assert not (root / "manifest.json").exists()


def test_write_dataset_rejects_duplicate_ids(tmp_path):
    games = [make_game([], game_id="x"), make_game([], game_id="x")]
    with pytest.raises(DatasetError, match="duplicate"):
        write_dataset(games, tmp_path / "ds")


def test_dataset_roundtrip_and_rewrite_identical(tmp_path, rng):
    games = random_games(rng, 60)
    root = tmp_path / "ds"
    write_dataset(games, root)
    loaded, manifest = load_dataset(root)
    assert sorted(g.game_id for g in loaded) == sorted(g.game_id for g in games)
    by_id = {g.game_id: g for g in games}
    for g in loaded:
        assert g == by_id[g.game_id]

    before = {
        p: (root / p).read_bytes()
        for p in [pi.path for pi in manifest.partitions] + ["manifest.json"]
    }
    write_dataset(games, root)  # second run over the same input
    for rel, blob in before.items():
        assert (root / rel).read_bytes() == blob


def test_load_dataset_detects_corruption(tmp_path, rng):
    games = random_games(rng, 5)
    root = tmp_path / "ds"
    write_dataset(games, root)
    part = read_manifest(root).partitions[0]
    target = root / part.path
    target.write_bytes(target.read_bytes().replace(b"regular", b"regulra", 1))
    with pytest.raises(DatasetError, match="hash mismatch"):
        load_dataset(root)


def test_load_dataset_refuses_a_partition_path_that_is_not_a_string(tmp_path, rng):
    root = tmp_path / "ds"
    write_dataset(random_games(rng, 3), root)
    manifest_path = root / "manifest.json"
    doc = json.loads(manifest_path.read_text(encoding="utf-8"))
    doc["partitions"][0]["path"] = 7
    manifest_path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(DatasetError, match="manifest unreadable"):
        load_dataset(root)


@pytest.mark.parametrize("what", ["manifest", "partition"])
def test_load_dataset_refuses_a_manifest_or_partition_that_is_a_directory(tmp_path, rng, what):
    # Each used to raise IsADirectoryError, so `rimkit validate` exited 1.
    root = tmp_path / "ds"
    write_dataset(random_games(rng, 3), root)
    manifest_path = root / "manifest.json"
    if what == "manifest":
        manifest_path.unlink()
        manifest_path.mkdir()
        message = r"^manifest unreadable: .*Is a directory: .*manifest\.json'$"
    else:
        doc = json.loads(manifest_path.read_text(encoding="utf-8"))
        doc["partitions"][0]["path"] = "2021-22"
        (root / "2021-22").mkdir(exist_ok=True)
        manifest_path.write_text(json.dumps(doc), encoding="utf-8")
        message = "^partition unreadable: 2021-22: Is a directory$"
    with pytest.raises(DatasetError, match=message):
        load_dataset(root)


@pytest.mark.parametrize(
    "edit",
    [
        lambda doc, n: doc["partitions"][0].update(games=n + 0.9),
        lambda doc, n: doc["partitions"][0].update(games=str(n)),
        lambda doc, n: doc["partitions"][0].update(games=True),
        lambda doc, n: doc.update(schema_version=1.7),
        lambda doc, n: doc.update(schema_version=True),
        lambda doc, n: doc.update(quarantine={"quarantined_games": 2.5}),
    ],
    ids=["games-float", "games-string", "games-bool", "schema-float", "schema-bool",
         "quarantine-float"],
)
def test_load_dataset_refuses_a_manifest_number_that_is_not_an_integer(tmp_path, rng, edit):
    # These used to be coerced by int(): 20.9 games read as 20, "20" as 20,
    # and true as 1, which then failed as a count mismatch.
    root = tmp_path / "ds"
    write_dataset(random_games(rng, 3), root)
    manifest_path = root / "manifest.json"
    doc = json.loads(manifest_path.read_text(encoding="utf-8"))
    edit(doc, doc["partitions"][0]["games"])
    manifest_path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(DatasetError, match="manifest unreadable: expected an integer"):
        load_dataset(root)


def test_validate_refuses_an_over_deep_dataset_line_without_crashing(tmp_path):
    # orjson overflows the C stack on a line nested this deep and takes the
    # process with it, so the command runs in a child process.
    root = tmp_path / "ds"
    write_dataset([make_game(game_id="g")], root)
    manifest_path = root / "manifest.json"
    doc = json.loads(manifest_path.read_text(encoding="utf-8"))
    part = doc["partitions"][0]
    path = root / part["path"]
    line = path.read_bytes().rstrip(b"\n")
    path.write_bytes(line[:-1] + b', "extra": ' + _nest(200_000, True) + b"}\n")
    part["sha256"] = hashlib.sha256(path.read_bytes()).hexdigest()
    manifest_path.write_text(json.dumps(doc), encoding="utf-8")
    src = str(Path(rimkit.__file__).resolve().parents[1])
    path_entries = [src, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path_entries)))
    p = subprocess.run(
        [sys.executable, "-m", "rimkit.cli", "validate", "--dataset", str(root)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert p.returncode == 2, p.stderr[-400:]
    assert f"error: {part['path']}:1: bad game line: maximum recursion depth" in p.stderr


def test_load_dataset_refuses_a_partition_the_manifest_lists_twice(tmp_path, rng):
    # It used to load every game twice: `validate` reported twice the games
    # and `refs` counted each referee's games twice. The second listing
    # reads the entry the first wrote, meets its ids and is decoded again,
    # so the error is the decode's.
    root = tmp_path / "ds"
    write_dataset(random_games(rng, 4), root)
    manifest_path = root / "manifest.json"
    doc = json.loads(manifest_path.read_text(encoding="utf-8"))
    doc["partitions"] = doc["partitions"][:1] * 2
    manifest_path.write_text(json.dumps(doc), encoding="utf-8")
    path = doc["partitions"][0]["path"]
    first = json.loads((root / path).read_bytes().splitlines()[0])["game_id"]
    with pytest.raises(DatasetError, match=rf"^{path}:1: duplicate game_id {first!r}$"):
        load_dataset(root)


def test_load_dataset_refuses_a_repeated_game_line(tmp_path, rng):
    root = tmp_path / "ds"
    write_dataset(random_games(rng, 4), root)
    manifest_path = root / "manifest.json"
    doc = json.loads(manifest_path.read_text(encoding="utf-8"))
    part = doc["partitions"][0]
    path = root / part["path"]
    lines = path.read_bytes().splitlines(keepends=True)
    path.write_bytes(b"".join(lines) + lines[0])  # hash and count made to match
    part["sha256"] = hashlib.sha256(path.read_bytes()).hexdigest()
    part["games"] += 1
    manifest_path.write_text(json.dumps(doc), encoding="utf-8")
    first = json.loads(lines[0])["game_id"]
    with pytest.raises(
        DatasetError, match=rf"^{part['path']}:{len(lines) + 1}: duplicate game_id {first!r}$"
    ):
        load_dataset(root)


def test_a_load_holds_one_partition_besides_its_games(tmp_path, monkeypatch):
    # Each partition is read once into an anonymous map, decoded through
    # views of it and unmapped before the next. tracemalloc sees only the
    # malloc heap, so its peak shows that no partition's bytes are copied
    # there (the traced peak is what the load returns plus the decode of
    # one line); the maps themselves are counted as they are made, and each
    # must be closed before the next is opened.
    import mmap
    import tracemalloc
    from types import SimpleNamespace

    opened = []

    def opening(*args):
        assert all(m.closed for m in opened), "a partition's map is still open"
        opened.append(m := mmap.mmap(*args))
        return m

    monkeypatch.setattr(ingest, "mmap", SimpleNamespace(mmap=opening))

    from rimkit.synth import SimConfig, generate

    games, _ = generate(SimConfig(seed=4, seasons=("2020-21", "2021-22"), games_per_season=200,
                                  postseason_games_per_season=20, n_teams=10, n_referees=16))
    manifest = write_dataset(games, tmp_path / "ds")
    largest = max((tmp_path / "ds" / p.path).stat().st_size for p in manifest.partitions)
    assert len(manifest.partitions) == 4
    del games
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        loaded = load_dataset(tmp_path / "ds")
        retained, peak = (m - before for m in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert len(loaded[0]) == manifest.total_games
    assert peak - retained < largest * 0.25, (retained, peak, largest)
    assert len(opened) == len(manifest.partitions) and all(m.closed for m in opened)


def test_a_load_keeps_at_most_100_bytes_an_event_in_column_form(tmp_path):
    # A FoulEvent tuple with its three floats kept about 200 bytes an event;
    # typed columns keep about 60, about 85 with the games' headers, crews
    # and containers. A load that fell back to tuples would fail this.
    import tracemalloc

    from rimkit.model import EventColumns
    from rimkit.synth import SimConfig, generate

    games, _ = generate(SimConfig(seed=4, seasons=("2020-21", "2021-22"), games_per_season=200,
                                  postseason_games_per_season=20, n_teams=10, n_referees=16))
    write_dataset(games, tmp_path / "ds")
    del games
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        loaded, _ = load_dataset(tmp_path / "ds")
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert all(type(g.events) is EventColumns for g in loaded)
    per_event = kept / sum(len(g.events) for g in loaded)
    assert per_event <= 100, per_event


def test_a_partition_truncated_after_its_manifest_fails_the_hash_check(tmp_path, rng):
    root = tmp_path / "ds"
    manifest = write_dataset(random_games(rng, 6), root)
    part = manifest.partitions[0]
    path = root / part.path
    path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
    with pytest.raises(DatasetError, match=rf"^partition hash mismatch: {part.path}$"):
        load_dataset(root)


def test_a_partition_that_shrinks_while_read_is_the_bytes_read(tmp_path, rng, monkeypatch):
    # The size taken before the read is larger than what the read finds, as
    # when the file is cut in between: the bytes read, not the rest of the
    # map, are hashed and decoded.
    root = tmp_path / "ds"
    write_dataset(random_games(rng, 6), root)
    want = load_dataset(root)
    fstat = os.fstat
    monkeypatch.setattr(ingest.os, "fstat", lambda fd: os.stat_result(
        (*fstat(fd)[:6], fstat(fd).st_size + 4096, *fstat(fd)[7:])))
    assert load_dataset(root) == want


def test_load_dataset_missing_manifest(tmp_path):
    with pytest.raises(DatasetError, match="manifest"):
        load_dataset(tmp_path / "nope")


def test_write_dataset_refuses_a_label_that_is_not_a_directory_name(tmp_path):
    game = make_game(season="../../escaped")
    with pytest.raises(DatasetError, match="cannot name a partition"):
        write_dataset([game], tmp_path / "a" / "b" / "ds")
    assert not (tmp_path / "a" / "escaped").exists()


@pytest.mark.parametrize(
    "field, value",
    [("season", 2021), ("game_id", 5), ("home_team", None)],
    ids=["season-int", "game-id-int", "home-team-none"],
)
def test_write_dataset_refuses_a_header_that_is_not_a_string(tmp_path, field, value):
    # A numeric season used to fail in the label check and a numeric id in
    # the sort by id, both with a bare TypeError, the second after the stage
    # directory was made.
    bad = dataclasses.replace(make_game(game_id="g-bad"), **{field: value})
    root = tmp_path / "ds"
    with pytest.raises(
        DatasetError, match=rf"^game {bad.game_id!r}: {field} {value!r} is not a string$"
    ):
        write_dataset([make_game(game_id="g-ok"), bad], root)
    assert not root.exists()


def test_load_dataset_refuses_a_partition_outside_the_root(tmp_path, rng):
    root = tmp_path / "ds"
    write_dataset(random_games(rng, 3), root)
    manifest_path = root / "manifest.json"
    doc = json.loads(manifest_path.read_text(encoding="utf-8"))
    part = doc["partitions"][0]
    outside = tmp_path / "outside.jsonl"
    outside.write_bytes((root / part["path"]).read_bytes())  # same bytes, same hash
    part["path"] = "../outside.jsonl"
    manifest_path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(DatasetError, match="leaves the dataset root"):
        load_dataset(root)


# ---------------------------------------------------------------------------
# The cache of decoded partitions
# ---------------------------------------------------------------------------


def _cache() -> Path:
    return Path(os.environ["XDG_CACHE_HOME"]) / "rimkit"


def _counting_decodes(monkeypatch) -> list:
    calls = []
    decode = ingest.game_from_dict

    def counted(*args):
        calls.append(1)
        return decode(*args)

    monkeypatch.setattr(ingest, "game_from_dict", counted)
    return calls


def _two_partitions(root: Path, rng) -> list:
    games = random_games(rng, 6)
    games += [dataclasses.replace(g, game_id=f"2020-21-reg-{i}", season="2020-21")
              for i, g in enumerate(random_games(rng, 4))]
    write_dataset(games, root)
    return load_dataset(root)[0]


def test_a_warm_load_reads_one_entry_per_partition_and_decodes_nothing(tmp_path, rng,
                                                                       monkeypatch):
    root = tmp_path / "ds"
    cold = _two_partitions(root, rng)
    manifest = read_manifest(root)
    assert sorted(p.name for p in _cache().iterdir()) == sorted(
        p.sha256 for p in manifest.partitions)
    decodes = _counting_decodes(monkeypatch)
    assert load_dataset(root)[0] == cold
    assert decodes == []


def _truncate(data: bytes) -> bytes:
    return data[: len(data) // 2]


def _flip_payload_bit(data: bytes) -> bytes:
    at = len(data) - 3  # in the text of the last strings
    return data[:at] + bytes([data[at] ^ 1]) + data[at + 1:]


def _other_fingerprint(data: bytes) -> bytes:
    at = len(ingest._MAGIC)
    return data[:at] + bytes(32) + data[at + 32:]


def _empty(data: bytes) -> bytes:
    return b""


@pytest.mark.parametrize("spoil", [_truncate, _flip_payload_bit, _other_fingerprint, _empty],
                         ids=["truncated", "bit-flipped", "other-fingerprint", "empty"])
def test_a_spoiled_entry_is_decoded_past_and_rewritten(tmp_path, rng, monkeypatch, spoil):
    root = tmp_path / "ds"
    cold = _two_partitions(root, rng)
    entries = {p: p.read_bytes() for p in _cache().iterdir()}
    spoiled = min(entries)
    spoiled.write_bytes(spoil(entries[spoiled]))
    decodes = _counting_decodes(monkeypatch)
    assert load_dataset(root)[0] == cold
    part = next(p for p in read_manifest(root).partitions if p.sha256 == spoiled.name)
    assert len(decodes) == part.games  # that partition alone is decoded again
    assert {p: p.read_bytes() for p in _cache().iterdir()} == entries


def _file_in_place_of_the_cache(tmp_path, monkeypatch):
    (tmp_path / "afile").write_text("kept\n", encoding="utf-8")
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "afile"))


def _no_home(tmp_path, monkeypatch):
    def no_home(cls):
        raise RuntimeError("Could not determine home directory.")

    monkeypatch.delenv("XDG_CACHE_HOME")
    monkeypatch.delenv("HOME")
    monkeypatch.setattr(Path, "home", classmethod(no_home))


def _relative_home(tmp_path, monkeypatch):
    monkeypatch.delenv("XDG_CACHE_HOME")
    monkeypatch.setenv("HOME", "home")  # a cache here would land in the working directory


@pytest.mark.parametrize("place", [_file_in_place_of_the_cache, _no_home, _relative_home],
                         ids=["cache-is-a-file", "no-home", "relative-home"])
def test_a_load_without_a_usable_cache_decodes(tmp_path, rng, monkeypatch, place):
    root = tmp_path / "ds"
    want = _two_partitions(root, rng)
    monkeypatch.chdir(tmp_path)
    place(tmp_path, monkeypatch)
    decodes = _counting_decodes(monkeypatch)
    assert load_dataset(root)[0] == want
    assert load_dataset(root)[0] == want
    assert len(decodes) == 2 * len(want)
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        ["ds"] + (["afile"] if place is _file_in_place_of_the_cache else []))


def test_a_tampered_partition_fails_its_hash_with_an_entry_for_the_manifest_sha(tmp_path, rng):
    root = tmp_path / "ds"
    _two_partitions(root, rng)
    part = read_manifest(root).partitions[0]
    assert (_cache() / part.sha256).exists()
    target = root / part.path
    target.write_bytes(target.read_bytes().replace(b"regular", b"regulra", 1))
    with pytest.raises(DatasetError, match=rf"^partition hash mismatch: {part.path}$"):
        load_dataset(root)


def _manifest_edited(root: Path, edit) -> None:
    manifest_path = root / "manifest.json"
    doc = json.loads(manifest_path.read_text(encoding="utf-8"))
    edit(doc)
    manifest_path.write_text(json.dumps(doc), encoding="utf-8")


def test_a_duplicate_id_across_partitions_is_the_decode_error_with_a_warm_cache(tmp_path, rng):
    root = tmp_path / "ds"
    games = _two_partitions(root, rng)
    first, second = read_manifest(root).partitions
    # The second partition's first game takes an id of the first partition.
    target = root / second.path
    lines = target.read_bytes().splitlines(keepends=True)
    taken = games[0].game_id  # of 2020-21, which the loader reads first
    doc = json.loads(lines[0])
    doc["game_id"] = taken
    lines[0] = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode() + b"\n"
    target.write_bytes(b"".join(lines))
    sha = hashlib.sha256(target.read_bytes()).hexdigest()
    _manifest_edited(root, lambda d: d["partitions"][1].update(sha256=sha))
    _manifest_edited(root, lambda d: d.update(partitions=d["partitions"][1:]))
    load_dataset(root)  # the edited partition alone loads, and its entry is written
    assert (_cache() / sha).exists()
    _manifest_edited(root, lambda d: d.update(partitions=[
        {"path": first.path, "games": first.games, "sha256": first.sha256}, *d["partitions"]]))
    with pytest.raises(DatasetError,
                       match=rf"^{second.path}:1: duplicate game_id {taken!r}$"):
        load_dataset(root)


def test_a_count_mismatch_is_the_decode_error_with_a_warm_cache(tmp_path, rng):
    root = tmp_path / "ds"
    _two_partitions(root, rng)
    part = read_manifest(root).partitions[0]
    _manifest_edited(root, lambda d: d["partitions"][0].update(games=part.games + 1))
    with pytest.raises(DatasetError, match=rf"^partition {part.path}: manifest says "
                                           rf"{part.games + 1} games, found {part.games}$"):
        load_dataset(root)


def test_a_warm_load_maps_each_entry_after_closing_its_partition(tmp_path, rng, monkeypatch):
    # An entry is read as a partition is, into an anonymous map of its own
    # (see test_a_load_holds_one_partition_besides_its_games), opened only
    # once the partition's map is closed, and each game's arrays are filled
    # from slices of it, so no entry's bytes pass through the malloc heap.
    import mmap
    import tracemalloc
    from types import SimpleNamespace

    from rimkit.synth import SimConfig, generate

    games, _ = generate(SimConfig(seed=4, seasons=("2020-21", "2021-22"), games_per_season=200,
                                  postseason_games_per_season=20, n_teams=10, n_referees=16))
    manifest = write_dataset(games, tmp_path / "ds")
    del games
    want, _ = load_dataset(tmp_path / "ds")
    largest = max(p.stat().st_size for p in _cache().iterdir())
    opened = []

    def opening(*args):
        assert all(m.closed for m in opened), "a map is still open"
        opened.append(m := mmap.mmap(*args))
        return m

    monkeypatch.setattr(ingest, "mmap", SimpleNamespace(mmap=opening))
    decodes = _counting_decodes(monkeypatch)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        loaded, _ = load_dataset(tmp_path / "ds")
        retained, peak = (m - before for m in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert loaded == want and decodes == []
    assert len(opened) == 2 * len(manifest.partitions) and all(m.closed for m in opened)
    assert peak - retained < largest * 0.25, (retained, peak, largest)


# ---------------------------------------------------------------------------
# Fuzz: raw input raises only the ingest errors
# ---------------------------------------------------------------------------

# Lone surrogates included: json.dumps escapes them, as a feed may.
_texts = st.text(st.characters(exclude_categories=()), max_size=8)
_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.sampled_from(
        [2**63 - 1, 2**63, 2**64 - 1, 2**64, -(2**63), -(2**63) - 1, 10**20, 10**400]
    ),
    st.floats(),
    _texts,
)
_values = st.recursive(
    _scalars,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_texts, inner, max_size=3),
    max_leaves=8,
)


def _either(valid):
    return st.one_of(valid, _values)


_plays = st.lists(
    _either(
        st.fixed_dictionaries(
            {
                "id": _either(st.just("p")),
                "sequence": _either(st.integers(0, 3)),
                "period": _either(st.integers(1, 5)),
                "clock_seconds": _either(st.floats(0, 720)),
            },
            optional={"foul": _values, "team": _values, "text": _values},
        )
    ),
    max_size=3,
)
_summaries = st.fixed_dictionaries(
    {k: _either(st.just(v)) for k, v in summary_doc().items() if k != "plays"}
    | {"plays": _either(_plays)},
    optional={
        "series": _either(
            st.fixed_dictionaries({"home_wins": _values, "away_wins": _values})
        )
    },
)
_wp_feeds = st.fixed_dictionaries(
    {
        "items": _either(
            st.lists(
                _either(
                    st.fixed_dictionaries({"play_id": _either(st.just("p")), "home_wp": _values})
                ),
                max_size=3,
            )
        )
    },
    optional={"pregame": _values},
)
_partitions = st.fixed_dictionaries(
    {"path": _values, "games": _values, "sha256": _values}
)
_manifests = st.fixed_dictionaries(
    {
        "schema_version": _either(st.just(1)),
        "partitions": _either(st.lists(_either(_partitions), max_size=2)),
    },
    optional={"quarantine": _either(st.dictionaries(_texts, _values, max_size=2))},
)


def _documents(structured):
    """JSON text of a structured or arbitrary value, or arbitrary bytes."""
    return st.one_of(
        st.one_of(structured, _values).map(lambda d: json.dumps(d).encode("utf-8")),
        st.binary(max_size=40),
    )


_FUZZ = settings(
    max_examples=150, deadline=None, database=None,
    suppress_health_check=[HealthCheck.too_slow],
)


# Only ParseError escapes, and the orjson path gives the json path's outcome.


@_FUZZ
@given(_documents(_summaries))
def test_fuzz_parse_game_summary_raises_only_parse_errors(data):
    assert _outcome(parse_game_summary, data) == _json_path_outcome(parse_game_summary, data)


@_FUZZ
@given(_documents(_wp_feeds))
def test_fuzz_parse_wp_feed_raises_only_parse_errors(data):
    assert _outcome(parse_wp_feed, data) == _json_path_outcome(parse_wp_feed, data)


def _same_json(fast, ref) -> bool:
    """Whether an orjson decode matches json's, type for type.

    The one difference allowed is the one the parsers guard against: an
    integer outside [-2**63, 2**64), which orjson reads as the nearest float.
    """
    if type(ref) is int and not -(2**63) <= ref < 2**64:
        return type(fast) is float and fast == float(ref)
    if type(fast) is not type(ref):
        return False
    if type(ref) is list:
        return len(fast) == len(ref) and all(map(_same_json, fast, ref))
    if type(ref) is dict:
        return list(fast) == list(ref) and all(_same_json(fast[k], ref[k]) for k in ref)
    return repr(fast) == repr(ref)  # repr keeps the sign of a zero


_near_limits = st.one_of(
    st.integers(),
    *(st.integers(edge - 2, edge + 1) for edge in (-(2**63), 2**63, 2**64)),
)
_json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), _near_limits, st.floats(), st.text(max_size=8), _texts),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_texts, inner, max_size=4),
    max_leaves=12,
)


@_FUZZ
@given(_json_values, st.booleans())
def test_fuzz_fast_decode_agrees_with_json(value, ascii_only):
    # In a list, since a bare null decodes to None. ensure_ascii spells every
    # character past U+FFFF as an escaped surrogate pair.
    data = json.dumps([value], ensure_ascii=ascii_only).encode("utf-8", "surrogatepass")
    fast = ingest._fast_decode(data)
    if fast is None:  # only where orjson itself refuses: NaN, lone surrogates, ...
        with pytest.raises(orjson.JSONDecodeError):
            orjson.loads(data)
    else:
        assert _same_json(fast, json.loads(data))


@_FUZZ
@given(_documents(_manifests))
@example(b'{"schema_version": 1, "partitions": [], "quarantine": null}')
@example(b'{"schema_version": Infinity, "partitions": []}')
@example(b"[" * 200_000)
def test_fuzz_read_manifest_raises_only_dataset_errors(data):
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / "manifest.json").write_bytes(data)
        try:
            read_manifest(Path(tmp))
        except DatasetError:
            pass


_play_ids = st.sampled_from(["p1", "p2", "p3"])
_raw_plays = st.builds(
    RawPlay,
    play_id=_play_ids,
    period=st.integers(1, 5),
    clock_seconds_remaining=st.floats(0, 720),
    description=st.sampled_from(["", "foul"]),
    is_foul=st.booleans(),
    charged_team=st.sampled_from([None, "HOU", "BOS"]),
)


@_FUZZ
@given(
    st.lists(_raw_plays, max_size=8),
    st.dictionaries(st.sampled_from(["p1", "p2", "p3", "p9"]), st.floats(0, 1), max_size=4),
    st.floats(0, 1),
)
def test_fuzz_align_foul_wp_accounts_for_every_foul(plays, wp_by_play, start_prior):
    events, quarantined = align_foul_wp(plays, wp_by_play, start_prior=start_prior)
    assert [e.event_id for e in events] == list(range(1, len(events) + 1))
    samples = set(wp_by_play.values())
    events_left, quarantined_left = iter(events), iter(quarantined)
    for i, p in enumerate(plays):
        if not p.is_foul:
            continue
        if any(later.play_id in wp_by_play for later in plays[i:]):
            e = next(events_left)
            assert (e.period, e.clock_seconds_remaining, e.charged_team, e.description) == (
                p.period, p.clock_seconds_remaining, p.charged_team, p.description
            )
            assert e.pre_wp in samples | {start_prior} and e.post_wp in samples
        else:
            assert next(quarantined_left) == QuarantinedFoul(p.play_id, "no-post-sample")
    assert next(events_left, None) is None and next(quarantined_left, None) is None


# Well-formed feeds whose play ids meet, so that most examples reach alignment.
_aligned_summaries = st.lists(
    st.tuples(_play_ids, st.booleans(), st.sampled_from([None, "HOU", "BOS", "LAL"])), max_size=5
).map(
    lambda ps: dumps(
        summary_doc(plays=[play(p, i + 1, foul=f, team=t) for i, (p, f, t) in enumerate(ps)])
    )
)
_aligned_wp_feeds = st.lists(
    st.tuples(_play_ids, st.floats(0, 1) | st.sampled_from([None, 1.5])), max_size=4
).map(lambda items: dumps(wp_doc(items)))


@_FUZZ
@given(
    st.tuples(_documents(_summaries), st.none() | _documents(_wp_feeds))
    | st.tuples(_aligned_summaries, _aligned_wp_feeds)
)
def test_fuzz_ingest_directory_ledgers_one_document_and_stays_in_its_tree(documents):
    summary, wp = documents
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "tree"
        raw = tree / "raw"
        raw.mkdir(parents=True)
        (raw / "g.summary.json").write_bytes(summary)
        if wp is not None:
            (raw / "g.wp.json").write_bytes(wp)
        games, report = ingest_directory(raw)
        assert report.documents_seen == 1
        assert len(report.document_errors) + len(report.quarantined_games) + len(games) == 1
        assert report.kept_games == len(games)
        root = tree / "ds"
        write_dataset(games, root, quarantine=report.quarantine_counts())
        assert load_dataset(root)[0] == games
        assert list(Path(tmp).iterdir()) == [tree]
