"""Tests for figure-data emission: table IO, output validation, target
selection, and the end-to-end figure writer."""

import hashlib
import tempfile
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from rimkit.figures import (
    DISCLAIMER,
    FIGURE_FILES,
    AnalysisContext,
    Column,
    emit_figures,
    format_value,
    read_table,
    select_outlier_pairs,
    select_team_side_targets,
    validate_output_dir,
    write_table,
    write_tables,
)
from rimkit.config import RunConfig
from rimkit.inference import TeamSideTarget
from rimkit.synth import SimConfig, generate


def small_opts(**overrides) -> RunConfig:
    base = dict(
        min_games_regular=2,
        min_games_postseason=2,
        min_pair_games=2,
        table_k=5,
        pair_k=3,
        team_side_k=2,
    )
    base.update(overrides)
    return RunConfig(**base)


def corpus(post: int = 60):
    cfg = SimConfig(
        seed=3,
        n_teams=8,
        n_referees=12,
        games_per_season=200,
        postseason_games_per_season=post,
        seasons=("2021-22",),
        fouls_mean=15.0,
        overtime_rate=0.05,
    )
    games, _ = generate(cfg)
    return games


def test_format_value_kinds():
    assert format_value(None, "num") == ""
    assert format_value(None, "int") == ""
    assert format_value(3, "int") == "3"
    assert format_value(0.123456789, "num") == "0.123457"
    assert format_value(2.0, "num") == "2.000000"
    assert format_value(-0.5, "num") == "-0.500000"
    assert format_value("T01", "str") == "T01"


def test_write_and_read_table_roundtrip(tmp_path):
    cols = [
        Column("name", "str", "who"),
        Column("games", "int", "how many"),
        Column("value", "num", "how much"),
    ]
    rows = [("José", 3, 0.5), ("B", 0, None)]
    p = tmp_path / "t.csv"
    write_table(p, cols, rows, notes=["hand fixture"])
    data = p.read_bytes()
    assert b"\r" not in data
    text = data.decode("utf-8")
    lines = text.split("\n")
    assert lines[0] == "# name: who"
    assert "# note: hand fixture" in lines
    assert f"# {DISCLAIMER}" in lines
    header, parsed = read_table(p)
    assert header == ["name", "games", "value"]
    assert parsed == [["José", "3", "0.500000"], ["B", "0", ""]]


def test_read_table_rejects_empty_file(tmp_path):
    p = tmp_path / "empty.csv"
    p.write_text("# only a comment\n", encoding="utf-8")
    with pytest.raises(ValueError):
        read_table(p)


def test_read_table_keeps_a_data_row_that_starts_with_a_hash(tmp_path):
    # Only the block above the header holds comments; such a row used to be
    # dropped as one, so validate --outputs miscounted and never checked it.
    cols = [Column("referee", "str", "who"), Column("games", "int", "how many")]
    write_table(tmp_path / "t.csv", cols, [("#1 Ref", 4), ("Ann", 3)])
    assert read_table(tmp_path / "t.csv") == (["referee", "games"],
                                              [["#1 Ref", "4"], ["Ann", "3"]])
    (tmp_path / "ragged.csv").write_text("# note\nx,y\n#1\n", encoding="utf-8")
    report = validate_output_dir(tmp_path)
    assert report.files == {"ragged.csv": 1, "t.csv": 2}
    assert report.issues == ["ragged.csv: row 1 has 1 fields, header has 2"]


# Text that breaks a line-by-line reader: line breaks of each kind, a
# leading "#", quotes and commas; and any text a UTF-8 file can hold.
_AWKWARD = st.lists(st.sampled_from(["\n", "\r\n", "\r", "#", '"', ",", " ", "T", "é"]),
                    max_size=6).map("".join)
_VALUES = st.one_of(_AWKWARD, st.text(st.characters(blacklist_categories=("Cs",)), max_size=6))


@settings(max_examples=300, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(st.tuples(_VALUES, _VALUES), max_size=4))
@example([("a\n\nb", "x")])  # read back as "ab"
@example([("T01\rX", "#1"), ("\r\n", "")])  # a carriage return split the row
@example([("", ""), ("#", '"')])
def test_a_written_table_reads_back_as_its_formatted_values(rows):
    cols = [Column("team", "str", "who"), Column("note", "str", "what")]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.csv"
        write_table(path, cols, rows, notes=["hand fixture"])
        assert read_table(path) == (["team", "note"],
                                    [[format_value(v, c.kind) for v, c in zip(row, cols)]
                                     for row in rows])


@pytest.mark.parametrize(
    "description, notes",
    [("who", ["disparity: team reference T01\nX"]), ("who\r", []), ("who", ["a\r\nb"])],
    ids=["note-lf", "description-cr", "note-crlf"],
)
def test_write_table_refuses_a_comment_line_with_a_line_break(tmp_path, description, notes):
    # A note built from data (fig13's team reference) would otherwise break
    # the comment block, and a reader would take its second half as the header.
    path = tmp_path / "t.csv"
    with pytest.raises(ValueError, match=r"t\.csv: a comment line holds a line break"):
        write_table(path, [Column("team", "str", description)], [("T01",)], notes=notes)
    assert not path.exists()


def test_validate_output_dir_flags_problems(tmp_path):
    good = tmp_path / "good"
    good.mkdir()
    write_table(
        good / "a.csv",
        [Column("x", "str", "x"), Column("y", "num", "y")],
        [("r", 1.0)],
    )
    report = validate_output_dir(good)
    assert report.ok
    assert report.files == {"a.csv": 1}

    bad = tmp_path / "bad"
    bad.mkdir()
    (bad / "dup.csv").write_text("x,x\n1,2\n", encoding="utf-8")
    (bad / "ragged.csv").write_text("x,y\n1\n", encoding="utf-8")
    report = validate_output_dir(bad)
    assert not report.ok
    assert any("dup.csv" in i and "duplicate" in i for i in report.issues)
    assert any("ragged.csv" in i and "fields" in i for i in report.issues)

    empty = tmp_path / "nothing"
    empty.mkdir()
    assert not validate_output_dir(empty).ok


def test_select_team_side_targets_ranks_by_magnitude_with_stable_ties():
    teams = [
        SimpleNamespace(team="AAA", home_mean_disparity=1.0, away_mean_disparity=0.5),
        SimpleNamespace(team="BBB", home_mean_disparity=-3.0, away_mean_disparity=None),
        SimpleNamespace(team="CCC", home_mean_disparity=1.0, away_mean_disparity=-2.0),
        SimpleNamespace(team="DDD", home_mean_disparity=None, away_mean_disparity=2.0),
    ]
    targets = select_team_side_targets(teams, 2)
    assert [(t.team, t.side) for t in targets] == [
        ("BBB", "home"),
        ("AAA", "home"),  # |1.0| tie with CCC breaks on team name
        ("CCC", "away"),
        ("DDD", "away"),
    ]
    assert select_team_side_targets(teams, 0) == []


def test_select_outlier_pairs_dedupes_in_order():
    cell = lambda r, t: SimpleNamespace(referee=r, team=t)
    tables = SimpleNamespace(
        top_rim=[cell("R1", "T1"), cell("R2", "T2")],
        top_disparity=[cell("R2", "T2"), cell("R3", "T3")],
    )
    assert select_outlier_pairs(tables, 2) == [
        ("R1", "T1"),
        ("R2", "T2"),
        ("R3", "T3"),
    ]
    assert select_outlier_pairs(tables, 1) == [("R1", "T1"), ("R2", "T2")]


def test_emit_figures_writes_all_files_with_postseason(tmp_path):
    games = corpus()
    out = tmp_path / "figs"
    report = emit_figures(games, out, small_opts())
    assert report.skipped == {}
    assert tuple(report.written) == tuple(sorted(FIGURE_FILES))
    for name in FIGURE_FILES:
        assert (out / f"{name}.csv").exists()
    check = validate_output_dir(out)
    assert check.ok
    assert len(check.files) == len(FIGURE_FILES)

    # League home/away observations add up to two rows per game.
    header, rows = read_table(out / "fig8_home_away.csv")
    n_rows_idx = header.index("n_rows")
    season_idx = header.index("season_type")
    regular_total = sum(
        int(r[n_rows_idx]) for r in rows if r[season_idx] == "regular"
    )
    post_total = sum(
        int(r[n_rows_idx]) for r in rows if r[season_idx] == "postseason"
    )
    assert regular_total == 2 * 200
    assert post_total == 2 * 60

    # Fit tables carry only their target terms.
    header, rows = read_table(out / "fig13_team_side_effects.csv")
    term_idx = header.index("term")
    assert rows and all("[" in r[term_idx] for r in rows)
    header, rows = read_table(out / "fig14_ref_team_effects.csv")
    term_idx = header.index("term")
    assert rows and all(r[term_idx].startswith("pair_") for r in rows)
    header, rows = read_table(out / "fig12_series_effects.csv")
    term_idx = header.index("term")
    assert rows and all(r[term_idx].startswith("series_") for r in rows)


def test_emit_figures_skips_postseason_figures_without_postseason(tmp_path):
    games = corpus(post=0)
    out = tmp_path / "figs"
    report = emit_figures(games, out, small_opts())
    expected_skips = {
        "fig6_series_summary",
        "fig7_postseason_distribution",
        "fig12_series_effects",
    }
    assert set(report.skipped) == expected_skips
    for name, reason in report.skipped.items():
        assert reason == "no postseason games in the corpus"
        assert not (out / f"{name}.csv").exists()
    assert len(report.written) == len(FIGURE_FILES) - 3
    assert validate_output_dir(out).ok


def test_emit_figures_is_deterministic(tmp_path):
    games = corpus(post=30)
    digests = []
    for run in ("one", "two"):
        out = tmp_path / run
        emit_figures(games, out, small_opts())
        tree = {
            p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.glob("*.csv"))
        }
        digests.append(tree)
    assert digests[0] == digests[1]
    assert len(digests[0]) == len(FIGURE_FILES)


def test_fit_figures_carry_their_fit_notes(tmp_path):
    out = tmp_path / "figs"
    emit_figures(corpus(), out, small_opts())
    series = (out / "fig12_series_effects.csv").read_text(encoding="utf-8")
    assert "# note: game_rim: series reference 0--0\n" in series
    ref_team = (out / "fig14_ref_team_effects.csv").read_text(encoding="utf-8")
    assert "# note: disparity: pair minimum 2 games\n" in ref_team


def test_collinear_repeated_target_shows_dropped_columns_in_fig13(tmp_path):
    ctx = AnalysisContext(corpus(post=0), small_opts())
    ctx.targets = [TeamSideTarget("T03", "home"), TeamSideTarget("T03", "home")]
    report = write_tables(ctx, ["fig13_team_side_effects"], tmp_path)
    assert report.written == ["fig13_team_side_effects"]
    text = (tmp_path / "fig13_team_side_effects.csv").read_text(encoding="utf-8")
    lines = text.splitlines()
    assert "# note: target form: indicator" in lines
    assert "# note: disparity: dropped collinear columns: T03:home[indicator]" in lines
    # The fit notes follow the figure's own note.
    assert lines.index("# note: target form: indicator") < lines.index(
        "# note: disparity: dropped collinear columns: T03:home[indicator]"
    )
