"""Team rows and the crew panel held as typed columns.

``expand_rows``, ``panel_rows`` and the Monte Carlo rigs return
:class:`~rimkit.model.TeamGameColumns` and
:class:`~rimkit.outliers.PanelColumns` tables. A table reads as the list of
its rows, and every consumer reads its columns in row order, so a table and
the same rows passed as a plain list give the same bits.
"""

from __future__ import annotations

from array import array
from collections import Counter
from dataclasses import replace

import pytest

from rimkit.inference import (
    TeamSideTarget,
    ref_team_residual_effects,
    series_state_effects,
    team_side_effects,
)
from rimkit.metrics import compute_game_metrics, expand_rows
from rimkit.model import REGULAR, TeamGameColumns, TeamGameRow
from rimkit.outliers import PanelColumns, PanelRow, panel_rows
from rimkit.synth import SimConfig, generate


def _rows() -> list[TeamGameRow]:
    return [
        TeamGameRow("g1", "A", "B", True, "S1", REGULAR, 2, 0.25, 0.5, 40),
        TeamGameRow("g1", "B", "A", False, "S1", REGULAR, -2, -0.25, 0.5, 40),
        TeamGameRow("g2", "C", "A", True, "S1", REGULAR, 0, -0.0, 0.125, 3),
    ]


def test_a_table_reads_as_the_list_of_its_rows():
    rows = _rows()
    table = TeamGameColumns.of(rows)
    assert type(table.disparity) is array and table.disparity.typecode == "q"
    assert type(table.team_rim) is array and table.team_rim.typecode == "d"
    assert type(table.team) is tuple
    assert len(table) == 3 and list(table) == rows
    assert table[0] == rows[0] and table[-1] == rows[-1]
    assert type(table[1]) is TeamGameRow and table[1].is_home is False
    assert type(table[0].disparity) is int
    assert table[1:] == rows[1:] and type(table[1:]) is list
    assert table == rows and rows == table and table == TeamGameColumns.of(iter(rows))
    assert table != tuple(rows) and table != rows[::-1]
    assert repr(table) == repr(rows)
    assert table + rows[:1] == rows + rows[:1] and rows[:1] + table == rows[:1] + rows
    assert table + table == rows + rows and type(table + table) is list
    with pytest.raises(TypeError):
        table + tuple(rows)
    assert table.select([2, 0]) == [rows[2], rows[0]]
    assert type(table.select([2, 0])) is TeamGameColumns
    assert TeamGameColumns.of(table) is table
    assert rows[2] in table and table.index(rows[2]) == 2
    with pytest.raises(TypeError):
        hash(table)
    with pytest.raises(IndexError):
        table[3]
    empty = TeamGameColumns.of([])
    assert len(empty) == 0 and empty == [] and not empty


def test_a_table_refuses_columns_of_different_lengths():
    columns = {name: getattr(TeamGameColumns.of(_rows()), name)
               for name in TeamGameRow._fields}
    with pytest.raises(ValueError, match="differ in length"):
        TeamGameColumns(**dict(columns, team=("A",)))
    with pytest.raises(TypeError, match="no field named 'extra'"):
        TeamGameColumns(**columns, extra=())


def _corpora():
    """Two simulated corpora with postseason series states and a few crewless games."""
    out = []
    for seed in (5, 6):
        games = generate(SimConfig(
            seed=seed, seasons=("2020-21", "2021-22"), n_teams=8, n_referees=12,
            games_per_season=120, postseason_games_per_season=40))[0]
        out.append([replace(g, crew=()) if i % 17 == 0 else g for i, g in enumerate(games)])
    return out


@pytest.fixture(scope="module")
def corpora():
    return _corpora()


def test_tables_hold_the_rows_the_kernel_gives_game_by_game(corpora):
    for games in corpora:
        rows = expand_rows(games)
        panel, skipped = panel_rows(games)
        assert type(rows) is TeamGameColumns and type(panel) is PanelColumns
        assert len(rows) == 2 * len(games)
        assert skipped == sum(1 for g in games if not g.crew) > 0
        at = 0
        for i, g in enumerate(games):
            m = compute_game_metrics(g)
            assert rows[2 * i:2 * i + 2] == [m.home_row, m.away_row]
            expected = [PanelRow(g.game_id, g.season, ref, row.team, row.opponent,
                                 row.team_rim, float(row.disparity))
                        for ref in g.crew for row in (m.home_row, m.away_row)]
            assert panel[at:at + len(expected)] == expected
            at += len(expected)
        assert at == len(panel)


def _bits(fits) -> dict:
    return {outcome: (fit.terms, [v.hex() for v in fit.estimates.tolist()],
                      [v.hex() for v in fit.se.tolist()], fit.notes)
            for outcome, fit in fits.items()}


def test_each_fit_gives_the_same_bits_from_a_table_and_from_a_list(corpora):
    for games in corpora:
        rows = expand_rows(games)
        regular = rows.select([i for i, r in enumerate(rows) if r.season_type == REGULAR])
        targets = [TeamSideTarget("T01", "home"), TeamSideTarget("T02", "away")]
        for form in ("indicator", "paired"):
            assert _bits(team_side_effects(regular, targets, target_form=form)) == _bits(
                team_side_effects(list(regular), targets, target_form=form))
        assert _bits(team_side_effects(rows, targets, include_series=True)) == _bits(
            team_side_effects(list(rows), targets, include_series=True))
        assert _bits(series_state_effects(rows)) == _bits(series_state_effects(list(rows)))
        panel = panel_rows(games)[0]
        counts = Counter((r.referee, r.team) for r in panel)
        pairs = sorted(counts, key=lambda k: (-counts[k], k))[:2]
        assert _bits(ref_team_residual_effects(panel, pairs)) == _bits(
            ref_team_residual_effects(list(panel), pairs))
