"""Referee-team excess screen: baseline algebra and table mechanics."""

from __future__ import annotations

import numpy as np
import pytest

from conftest import make_event, make_game, random_games
from rimkit.outliers import (
    PanelRow,
    build_cells,
    excess,
    outlier_tables,
    panel_rows,
)


def test_excess_hand_value():
    assert excess(0.30, 0.10, 0.15, 0.05) == pytest.approx(0.10, abs=1e-15)
    assert excess(0.0, 0.0, 0.0, 0.0) == 0.0


def _panel_row(ref, team, rim, disp, gid="g"):
    return PanelRow(
        game_id=gid,
        season="2021-22",
        referee=ref,
        team=team,
        opponent="OPP",
        team_rim=rim,
        disparity=disp,
    )


def balanced_additive_panel(ref_effects, team_effects, copies=3):
    """Every (ref, team) pair appears `copies` times with y = a_i + b_j."""
    rows = []
    gid = 0
    for ref, a in ref_effects.items():
        for team, b in team_effects.items():
            for _ in range(copies):
                gid += 1
                rows.append(
                    _panel_row(ref, team, rim=a + b, disp=10 * (a + b), gid=f"g{gid}")
                )
    return rows


def test_additive_panel_has_zero_excess():
    refs = {f"R{i}": 0.01 * i for i in range(6)}
    teams = {f"T{j}": -0.02 * j + 0.003 for j in range(8)}
    cells = build_cells(balanced_additive_panel(refs, teams))
    assert len(cells) == 48
    for c in cells:
        assert abs(c.rim.excess) < 1e-14
        assert abs(c.disparity.excess) < 1e-13


def test_single_pair_bump_shows_up_only_there():
    refs = {f"R{i}": 0.05 * i for i in range(4)}
    teams = {f"T{j}": 0.02 * j for j in range(4)}
    rows = balanced_additive_panel(refs, teams, copies=4)
    bumped = []
    for r in rows:
        if r.referee == "R2" and r.team == "T1":
            bumped.append(
                PanelRow(
                    game_id=r.game_id,
                    season=r.season,
                    referee=r.referee,
                    team=r.team,
                    opponent=r.opponent,
                    team_rim=r.team_rim + 0.5,
                    disparity=r.disparity,
                )
            )
        else:
            bumped.append(r)
    cells = build_cells(bumped)
    by_pair = {(c.referee, c.team): c for c in cells}
    target = by_pair[("R2", "T1")]
    # The bump leaks into the row-weighted ref/team/global means; the net
    # excess is delta * (1 - 1/n_ref_cells - 1/n_team_cells + 1/n_cells).
    shrink = 1.0 - 1.0 / 4.0 - 1.0 / 4.0 + 1.0 / 16.0
    assert target.rim.excess == pytest.approx(0.5 * shrink, abs=1e-12)
    # Off-target cells in the same row/column absorb small negative shares.
    leak = max(
        abs(c.rim.excess)
        for c in cells
        if (c.referee, c.team) != ("R2", "T1")
    )
    assert leak < abs(target.rim.excess) / 2


def test_constant_shift_leaves_excess_invariant(rng):
    games = random_games(rng, 80)
    rows, _ = panel_rows(games)
    base = build_cells(rows)
    shifted_rows = [
        PanelRow(
            game_id=r.game_id,
            season=r.season,
            referee=r.referee,
            team=r.team,
            opponent=r.opponent,
            team_rim=r.team_rim + 5.0,
            disparity=r.disparity - 3.0,
        )
        for r in rows
    ]
    shifted = build_cells(shifted_rows)
    for c0, c1 in zip(base, shifted):
        assert (c0.referee, c0.team) == (c1.referee, c1.team)
        assert c1.rim.excess == pytest.approx(c0.rim.excess, abs=1e-10)
        assert c1.disparity.excess == pytest.approx(c0.disparity.excess, abs=1e-10)


def test_panel_rows_six_per_full_crew_game(rng):
    games = random_games(rng, 40)
    rows, skipped = panel_rows(games)
    assert skipped == 0
    assert len(rows) == 6 * len(games)
    by_game: dict[str, list[PanelRow]] = {}
    for r in rows:
        by_game.setdefault(r.game_id, []).append(r)
    for g in games:
        sub = by_game[g.game_id]
        assert len(sub) == 6
        assert {r.referee for r in sub} == set(g.crew)
        homes = [r for r in sub if r.team == g.home_team]
        aways = [r for r in sub if r.team != g.home_team]
        assert len(homes) == 3 and len(aways) == 3
        for h, a in zip(homes, aways):
            assert h.team_rim == -a.team_rim
            assert h.disparity == -a.disparity


def test_panel_rows_skips_and_counts_no_crew():
    games = [
        make_game([make_event(0.5, 0.6)], game_id="g1"),
        make_game([make_event(0.5, 0.6)], game_id="g2", crew=()),
    ]
    rows, skipped = panel_rows(games)
    assert skipped == 1
    assert {r.game_id for r in rows} == {"g1"}


def test_row_weighted_means_unbalanced_hand_case():
    # R1 sees T1 twice (values 1.0) and T2 once (value 4.0);
    # R2 sees T2 once (value 2.0). Row-weighted means differ from
    # cell-mean averages, which is the point.
    rows = [
        _panel_row("R1", "T1", 1.0, 0.0, gid="a"),
        _panel_row("R1", "T1", 1.0, 0.0, gid="b"),
        _panel_row("R1", "T2", 4.0, 0.0, gid="c"),
        _panel_row("R2", "T2", 2.0, 0.0, gid="d"),
    ]
    cells = {(c.referee, c.team): c for c in build_cells(rows)}
    c = cells[("R1", "T1")]
    assert c.rim.referee_mean == pytest.approx(2.0)  # (1+1+4)/3, not (1+4)/2
    assert c.rim.team_mean == pytest.approx(1.0)
    assert c.rim.global_mean == pytest.approx(2.0)
    assert c.rim.excess == pytest.approx(1.0 - (2.0 + 1.0 - 2.0), abs=1e-15)
    c2 = cells[("R2", "T2")]
    assert c2.rim.team_mean == pytest.approx(3.0)  # (4+2)/2 over rows


def test_outlier_tables_threshold_and_zscores():
    rows = []
    # Pair (R0, T0) has 6 rows; every other pair 2 rows.
    values = {"R0": 0.0, "R1": 0.1, "R2": -0.1}
    teams = {"T0": 0.0, "T1": 0.05}
    gid = 0
    for ref, a in values.items():
        for team, b in teams.items():
            copies = 6 if (ref, team) == ("R0", "T0") else 2
            for _ in range(copies):
                gid += 1
                rows.append(_panel_row(ref, team, a + b, a - b, gid=f"g{gid}"))
    cells = build_cells(rows)
    tables = outlier_tables(cells, min_pair_games=3, k=5)
    assert [(c.referee, c.team) for c in tables.qualified] == [("R0", "T0")]
    # Single qualified cell: z undefined and flagged, not zero.
    assert tables.qualified[0].rim.z is None
    assert "z-rim-undefined" in tables.flags
    assert tables.excess_correlation is None

    tables_all = outlier_tables(cells, min_pair_games=1, k=3)
    assert len(tables_all.qualified) == 6
    zs = [c.rim.z for c in tables_all.qualified]
    assert all(z is not None for z in zs)
    assert np.mean(zs) == pytest.approx(0.0, abs=1e-12)
    assert np.std(zs, ddof=1) == pytest.approx(1.0, abs=1e-12)
    for c in tables_all.qualified:
        assert c.z_combined == pytest.approx(c.rim.z + c.disparity.z, abs=1e-12)
    assert len(tables_all.top_rim) == 3
    mags = [abs(c.rim.excess) for c in tables_all.top_rim]
    assert mags == sorted(mags, reverse=True)


def test_outlier_tables_rejects_bad_minimum():
    with pytest.raises(ValueError):
        outlier_tables([], min_pair_games=0)
