"""The analysis commands on corpora that cannot fill every table.

A table the corpus cannot support is skipped, with one ``skipped: NAME
(REASON)`` line; a command that writes none of its tables is bad input
(exit 2) and names the reasons. Two simulated corpora: one with regular
season games only, and one whose postseason games carry no series state.
Printed lines are compared as sets, not in order.
"""

from __future__ import annotations

from contextlib import redirect_stderr, redirect_stdout
from io import StringIO

import pytest

from rimkit.cli import main
from rimkit.figures import FIGURE_FILES

SIMULATE = ["--seed", "5", "--teams", "8", "--referees", "12", "--games-per-season", "160",
            "--fouls-mean", "15"]
NO_POSTSEASON = "no postseason games in the corpus"
NO_SERIES = "no postseason rows with series state"


@pytest.fixture(scope="module")
def corpora(tmp_path_factory):
    root = tmp_path_factory.mktemp("skips")
    for name, extra in (("regular", ["--postseason-games", "0"]),
                        ("no-series", ["--postseason-games", "40", "--missing-series-rate", "1"])):
        with redirect_stdout(StringIO()), redirect_stderr(StringIO()):
            assert main(["simulate", "--out", str(root / name), *SIMULATE, *extra]) == 0
    return root


def run(capsys, corpora, tmp_path, corpus, *argv):
    """Exit code, stdout lines, stderr and the names of the files written."""
    out = tmp_path / "out"
    code = main([argv[0], "--dataset", str(corpora / corpus), "--out", str(out), *argv[1:]])
    captured = capsys.readouterr()
    written = {p.name for p in out.iterdir()} if out.is_dir() else set()
    return code, set(captured.out.splitlines()), captured.err, written


def csvs(*names):
    return {f"{name}.csv" for name in names} | {"run.json"}


@pytest.mark.parametrize("corpus", ["regular", "no-series"])
@pytest.mark.parametrize(
    "command, tables",
    [
        ("metrics", ["game_metrics"]),
        ("refs", ["referee_summary", "referee_top_bottom"]),
        ("outliers", ["outlier_cells", "outlier_top_rim", "outlier_top_disparity"]),
        ("robustness", ["robustness"]),
    ],
)
def test_regular_season_tables_are_written_without_a_postseason(
    capsys, corpora, tmp_path, corpus, command, tables
):
    code, lines, err, written = run(capsys, corpora, tmp_path, corpus, command)
    assert code == 0, err
    assert not any(line.startswith("skipped:") for line in lines), lines
    assert written == csvs(*tables)


@pytest.mark.parametrize("corpus, reason", [("regular", NO_POSTSEASON), ("no-series", NO_SERIES)])
def test_regress_skips_the_series_fit(capsys, corpora, tmp_path, corpus, reason):
    code, lines, err, written = run(capsys, corpora, tmp_path, corpus, "regress")
    assert code == 0, err
    assert lines == {
        f"skipped: regression_series ({reason})",
        "written: regression_team_side.csv, regression_ref_team.csv",
    }
    assert written == csvs("regression_team_side", "regression_ref_team")


@pytest.mark.parametrize(
    "corpus, skipped",
    [
        ("regular", {"fig6_series_summary": NO_POSTSEASON,
                     "fig7_postseason_distribution": NO_POSTSEASON,
                     "fig12_series_effects": NO_POSTSEASON}),
        ("no-series", {"fig7_postseason_distribution": "no referee meets the postseason minimum",
                       "fig12_series_effects": NO_SERIES}),
    ],
)
def test_emit_figures_names_each_postseason_figure_it_skips(
    capsys, corpora, tmp_path, corpus, skipped
):
    code, lines, err, written = run(capsys, corpora, tmp_path, corpus, "emit-figures")
    assert code == 0, err
    kept = [name for name in FIGURE_FILES if name not in skipped]
    assert lines == ({f"skipped: {name} ({reason})" for name, reason in skipped.items()}
                     | {f"written: {name}.csv" for name in kept})
    assert written == csvs(*kept)


def test_robustness_without_team_side_targets_is_bad_input(capsys, corpora, tmp_path):
    code, lines, err, written = run(capsys, corpora, tmp_path, "no-series", "robustness",
                                    "--season-type", "postseason")
    assert code == 2
    assert lines == set()
    assert err == "error: no team-side targets available\n"
    assert written == set()


def test_regress_with_no_usable_fit_is_bad_input(capsys, corpora, tmp_path):
    code, lines, err, written = run(capsys, corpora, tmp_path, "no-series", "regress",
                                    "--season-type", "postseason")
    assert code == 2
    assert err.startswith("error: ")
    for reason in ("no team-side targets available", NO_SERIES, "no qualified referee-team pairs"):
        assert reason in err or any(reason in line for line in lines), (reason, lines, err)
    assert written == set()
