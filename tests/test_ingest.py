"""Raw-document parsing, foul/sample alignment, dataset persistence."""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from conftest import make_event, make_game, play, random_games, summary_doc, wp_doc
from rimkit.ingest import (
    DatasetError,
    ParseError,
    RawPlay,
    RawWpSample,
    align_foul_wp,
    build_game,
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
    header, crew, plays = parse_game_summary(dumps(doc))
    assert header.game_id == "0022100001"
    assert header.season == "2021-22"
    assert header.home_team == "HOU"
    assert crew == ("Tony Brothers", "Raisa Chen", "Pat Fraher")
    assert len(plays) == 2
    assert plays[1].is_foul and plays[1].charged_team == "HOU"
    assert plays[0].charged_team is None


def test_parse_summary_zero_plays_is_fine():
    header, crew, plays = parse_game_summary(dumps(summary_doc(plays=[])))
    assert plays == []
    assert header.game_id


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
    header, _, parsed = parse_game_summary(dumps(doc))
    assert header.series_state == (2, 1)
    assert [(p.sequence, p.period, p.clock_seconds_remaining) for p in parsed] == [
        (2, 3, 600.0),
        (3, 4, 12.0),
    ]
    for p in parsed:
        assert type(p.sequence) is int and type(p.period) is int
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
    _, _, plays = parse_game_summary(dumps(doc))
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
    header, _, _ = parse_game_summary(
        dumps(summary_doc(season_type="postseason", series=(2, 1)))
    )
    assert header.series_state == (2, 1)


def test_parse_summary_canonicalizes_officials():
    doc = summary_doc(officials=["TONY BROTHERS", "  raisa   chen "])
    _, crew, _ = parse_game_summary(dumps(doc))
    assert crew == ("Tony Brothers", "Raisa Chen")


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
        ],
    }
    samples, pregame, dropped = parse_wp_feed(dumps(doc))
    assert [s.play_id for s in samples] == ["p1", "p6"]
    assert pregame == 0.58
    assert dropped == 4


def test_parse_wp_feed_invalid_pregame_becomes_none():
    samples, pregame, dropped = parse_wp_feed(
        dumps({"pregame": 3.0, "items": [{"play_id": "p1", "home_wp": 0.5}]})
    )
    assert pregame is None
    assert len(samples) == 1 and dropped == 0


def test_parse_wp_feed_integer_beyond_float_range_is_dropped():
    huge = 10**400
    items = [{"play_id": "p1", "home_wp": huge}, {"play_id": "p2", "home_wp": 0.5}]
    samples, pregame, dropped = parse_wp_feed(dumps({"pregame": huge, "items": items}))
    assert pregame is None
    assert [s.play_id for s in samples] == ["p2"] and dropped == 1


# ---------------------------------------------------------------------------
# align_foul_wp
# ---------------------------------------------------------------------------


def _plays_fixture():
    return [
        RawPlay("p1", 1, 1, 700.0, "", False, None),
        RawPlay("p2", 2, 1, 650.0, "", True, "HOU"),
        RawPlay("p3", 3, 1, 600.0, "", False, None),
        RawPlay("p4", 4, 1, 550.0, "", True, "BOS"),
    ]


def test_align_uses_own_sample_and_prior_sampled_play():
    samples = [
        RawWpSample("p1", 0.62),
        RawWpSample("p2", 0.55),
        RawWpSample("p3", 0.57),
        RawWpSample("p4", 0.51),
    ]
    result = align_foul_wp(_plays_fixture(), samples)
    assert not result.used_start_prior
    assert len(result.events) == 2
    first, second = result.events
    assert (first.pre_wp, first.post_wp) == (0.62, 0.55)
    assert (second.pre_wp, second.post_wp) == (0.57, 0.51)
    assert [e.event_id for e in result.events] == [1, 2]


def test_align_first_foul_before_any_sample_uses_start_prior():
    plays = [RawPlay("p1", 1, 1, 700.0, "", True, "HOU")]
    samples = [RawWpSample("p1", 0.54)]
    result = align_foul_wp(plays, samples, start_prior=0.5)
    assert result.used_start_prior
    assert result.events[0].pre_wp == 0.5
    assert result.events[0].post_wp == 0.54


def test_align_foul_without_own_sample_takes_next():
    samples = [RawWpSample("p1", 0.62), RawWpSample("p3", 0.59)]
    result = align_foul_wp(_plays_fixture(), samples)
    # First foul p2 has no sample; nearest later sampled play is p3.
    assert result.events[0].pre_wp == 0.62
    assert result.events[0].post_wp == 0.59
    # Second foul p4 has nothing after it -> quarantined.
    assert len(result.events) == 1
    assert [q.play_id for q in result.quarantined] == ["p4"]
    assert result.quarantined[0].reason == "no-post-sample"


def test_align_last_play_foul_without_sample_quarantined():
    plays = [
        RawPlay("p1", 1, 1, 700.0, "", False, None),
        RawPlay("p2", 2, 1, 650.0, "", True, "HOU"),
    ]
    result = align_foul_wp(plays, [RawWpSample("p1", 0.6)])
    assert result.events == ()
    assert [q.play_id for q in result.quarantined] == ["p2"]


def test_align_no_samples_at_all_quarantines_every_foul():
    result = align_foul_wp(_plays_fixture(), [])
    assert result.events == ()
    assert [q.play_id for q in result.quarantined] == ["p2", "p4"]


def test_align_never_reorders():
    plays = [
        RawPlay("p1", 1, 1, 700.0, "", True, "HOU"),
        RawPlay("p2", 2, 1, 650.0, "", True, "BOS"),
        RawPlay("p3", 3, 1, 600.0, "", True, "HOU"),
    ]
    samples = [RawWpSample(p, w) for p, w in [("p1", 0.5), ("p2", 0.6), ("p3", 0.4)]]
    result = align_foul_wp(plays, samples)
    assert [e.charged_team for e in result.events] == ["HOU", "BOS", "HOU"]
    assert [e.event_id for e in result.events] == [1, 2, 3]


def test_build_game_pregame_overrides_start_prior():
    header, crew, plays = parse_game_summary(
        dumps(summary_doc(plays=[play("p1", 1, foul=True, team="HOU")]))
    )
    samples, pregame, _ = parse_wp_feed(
        dumps(wp_doc([("p1", 0.5)], pregame=0.61))
    )
    record, aligned = build_game(
        header, crew, plays, samples, start_prior=0.5, pregame=pregame
    )
    assert record.events[0].pre_wp == 0.61


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


def test_ingest_directory_ledgers_a_lone_surrogate_document(tmp_path):
    raw = tmp_path / "raw"
    _write_raw_game(raw, summary_doc(game_id="g-ok"), wp_doc([("p1", 0.5)]))
    _write_raw_game(raw, summary_doc(game_id="g-bad", officials=["Ref \udc80"]))
    games, report = ingest_directory(raw)
    assert [g.game_id for g in games] == ["g-ok"]
    assert report.document_errors == [
        ("g-bad.summary.json", "summary: a \\u escape spells a lone surrogate")
    ]


def test_ingest_directory_missing_wp_feed_is_tolerated(tmp_path):
    raw = tmp_path / "raw"
    _write_raw_game(
        raw, summary_doc(game_id="g-nowp", plays=[play("p1", 1, foul=True)])
    )
    games, report = ingest_directory(raw)
    assert report.kept_games == 1
    assert games[0].events == ()
    assert set(report.quarantined_fouls) == {"g-nowp"}


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
    ],
    ids=["surrogate-description", "surrogate-crew", "int-64-bits", "int-clock", "int-negative"],
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
    # Unverified load still parses whatever is there or errors on content.
    with pytest.raises(DatasetError):
        load_dataset(root, verify=True)


def test_load_dataset_refuses_a_partition_path_that_is_not_a_string(tmp_path, rng):
    root = tmp_path / "ds"
    write_dataset(random_games(rng, 3), root)
    manifest_path = root / "manifest.json"
    doc = json.loads(manifest_path.read_text(encoding="utf-8"))
    doc["partitions"][0]["path"] = 7
    manifest_path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(DatasetError, match="manifest unreadable"):
        load_dataset(root)


def test_load_dataset_missing_manifest(tmp_path):
    with pytest.raises(DatasetError, match="manifest"):
        load_dataset(tmp_path / "nope")


def test_write_dataset_refuses_a_label_that_is_not_a_directory_name(tmp_path):
    game = make_game(season="../../escaped")
    with pytest.raises(DatasetError, match="cannot name a partition"):
        write_dataset([game], tmp_path / "a" / "b" / "ds")
    assert not (tmp_path / "a" / "escaped").exists()


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
# Fuzz: raw input raises only the ingest errors
# ---------------------------------------------------------------------------

# Lone surrogates included: json.dumps escapes them, as a feed may.
_texts = st.text(st.characters(exclude_categories=()), max_size=8)
_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.sampled_from([2**63, -(2**63) - 1, 10**400]),
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
                _either(st.fixed_dictionaries({"play_id": _values, "home_wp": _values})),
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


@_FUZZ
@given(_documents(_summaries))
def test_fuzz_parse_game_summary_raises_only_parse_errors(data):
    try:
        parse_game_summary(data)
    except ParseError:
        pass


@_FUZZ
@given(_documents(_wp_feeds))
def test_fuzz_parse_wp_feed_raises_only_parse_errors(data):
    try:
        parse_wp_feed(data)
    except ParseError:
        pass


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
