"""Referee-team excess screening against an additive baseline.

For each (referee, team) pair the observed mean outcome is compared with
what an additive model predicts from the referee's overall mean, the
team's overall mean, and the global mean. The residual ("excess") is a
screening quantity: it flags pairings worth a closer look and says nothing
about intent.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, replace
from functools import partial
from itertools import chain
from typing import NamedTuple

from .aggregate import _total, pearson
from .metrics import compute_game_metrics
from .model import Columns, GameRecord


class PanelRow(NamedTuple):
    """One (crew member, team side, game) observation."""

    game_id: str
    season: str
    referee: str
    team: str
    opponent: str
    team_rim: float
    disparity: float


# A PanelRow from an iterable of its field values, without its Python-level __new__.
new_panel_row = partial(tuple.__new__, PanelRow)


class PanelColumns(Columns):
    """Crew panel rows as typed columns: ``team_rim`` and ``disparity`` in
    ``array('d')``, the strings in tuples. It reads as the list of the same
    ``PanelRow`` rows; the screen and the referee–team fit read its columns.
    """

    __slots__ = PanelRow._fields
    _new = new_panel_row
    _numbers = {"team_rim": "d", "disparity": "d"}


@dataclass(frozen=True, slots=True)
class MetricExcess:
    """One metric's additive-baseline decomposition for a pair."""

    observed: float
    referee_mean: float
    team_mean: float
    global_mean: float
    excess: float
    z: float | None = None


@dataclass(frozen=True, slots=True)
class RefTeamCell:
    referee: str
    team: str
    games: int
    rim: MetricExcess
    disparity: MetricExcess
    z_combined: float | None = None


def excess(
    observed: float, referee_mean: float, team_mean: float, global_mean: float
) -> float:
    """Departure of a pair mean from the additive referee+team baseline."""
    return observed - (referee_mean + team_mean - global_mean)


def panel_rows(games: Iterable[GameRecord]) -> tuple[PanelColumns, int]:
    """Expand games into (crew member × team side) rows, as one table.

    Returns the rows plus the count of games skipped for lacking a crew.
    With full three-person crews the row count is exactly 6× the game
    count: 3 crew members × 2 sides.
    """
    games = list(games)
    crewed = [g for g in games if g.crew]
    rows = PanelColumns.of(chain.from_iterable(map(_crew_rows, crewed)))
    return rows, len(games) - len(crewed)


def _crew_rows(game: GameRecord) -> Iterator[PanelRow]:
    """A crewed game's panel rows: each crew member with the home, then the away side."""
    m = compute_game_metrics(game)
    for ref in game.crew:
        for row in m[:2]:
            yield new_panel_row((game.game_id, game.season, ref, row.team, row.opponent,
                                 row.team_rim, float(row.disparity)))


def build_cells(rows: Iterable[PanelRow]) -> list[RefTeamCell]:
    """Group panel rows into referee-team cells with excess per metric.

    All means are row-weighted (each game-row counts once): the referee,
    team, and global means are taken over panel rows, NOT over cell means,
    so frequently-paired cells carry proportionate weight.
    """
    rows = PanelColumns.of(rows)
    if not rows:
        return []
    ref_acc: dict[str, list[float]] = {}
    team_acc: dict[str, list[float]] = {}
    pair_acc: dict[tuple[str, str], list[float]] = {}
    tot_rim = 0.0
    tot_disp = 0.0
    for ref, team, rim, disp in zip(rows.referee, rows.team, rows.team_rim, rows.disparity):
        ra = ref_acc.setdefault(ref, [0.0, 0.0, 0.0])
        ta = team_acc.setdefault(team, [0.0, 0.0, 0.0])
        pa = pair_acc.setdefault((ref, team), [0.0, 0.0, 0.0])
        for acc in (ra, ta, pa):
            acc[0] += rim
            acc[1] += disp
            acc[2] += 1.0
        tot_rim += rim
        tot_disp += disp
    n = float(len(rows))
    m_rim = tot_rim / n
    m_disp = tot_disp / n
    cells: list[RefTeamCell] = []
    for (ref, team) in sorted(pair_acc):
        p = pair_acc[(ref, team)]
        a = ref_acc[ref]
        t = team_acc[team]
        obs_rim = p[0] / p[2]
        obs_disp = p[1] / p[2]
        a_rim, a_disp = a[0] / a[2], a[1] / a[2]
        t_rim, t_disp = t[0] / t[2], t[1] / t[2]
        cells.append(
            RefTeamCell(
                referee=ref,
                team=team,
                games=int(p[2]),
                rim=MetricExcess(
                    observed=obs_rim,
                    referee_mean=a_rim,
                    team_mean=t_rim,
                    global_mean=m_rim,
                    excess=excess(obs_rim, a_rim, t_rim, m_rim),
                ),
                disparity=MetricExcess(
                    observed=obs_disp,
                    referee_mean=a_disp,
                    team_mean=t_disp,
                    global_mean=m_disp,
                    excess=excess(obs_disp, a_disp, t_disp, m_disp),
                ),
            )
        )
    return cells


def _zscores(values: Sequence[float]) -> list[float] | None:
    n = len(values)
    if n < 2:
        return None
    mean = _total(values) / n
    var = _total((v - mean) ** 2 for v in values) / (n - 1)
    if var == 0.0:
        return None
    sd = var**0.5
    return [(v - mean) / sd for v in values]


@dataclass(frozen=True)
class OutlierTables:
    """Qualified cells with z-scores, plus top-|excess| tables per metric."""

    qualified: list[RefTeamCell]
    top_rim: list[RefTeamCell]
    top_disparity: list[RefTeamCell]
    excess_correlation: float | None
    flags: tuple[str, ...]


def outlier_tables(
    cells: Sequence[RefTeamCell], min_pair_games: int = 5, k: int = 10
) -> OutlierTables:
    """Screening tables over cells meeting the pair-games minimum.

    z-scores use the qualified set's own mean and sample sd per metric
    (undefined on degenerate sets, flagged rather than faked); top tables
    rank by |excess| descending with the sign kept, ties broken by
    (referee, team) ascending.
    """
    if min_pair_games < 1:
        raise ValueError("min_pair_games must be >= 1")
    qualified = [c for c in cells if c.games >= min_pair_games]
    flags: list[str] = []
    z_rim = _zscores([c.rim.excess for c in qualified])
    z_disp = _zscores([c.disparity.excess for c in qualified])
    if qualified and z_rim is None:
        flags.append("z-rim-undefined")
    if qualified and z_disp is None:
        flags.append("z-disparity-undefined")
    scored: list[RefTeamCell] = []
    for i, c in enumerate(qualified):
        zr = z_rim[i] if z_rim is not None else None
        zd = z_disp[i] if z_disp is not None else None
        scored.append(
            replace(
                c,
                rim=replace(c.rim, z=zr),
                disparity=replace(c.disparity, z=zd),
                z_combined=(zr + zd) if zr is not None and zd is not None else None,
            )
        )

    def top(key) -> list[RefTeamCell]:
        ranked = sorted(
            scored, key=lambda c: (-abs(key(c)), c.referee, c.team)
        )
        return ranked[: min(k, len(ranked))]

    corr = pearson(
        [c.rim.excess for c in scored], [c.disparity.excess for c in scored]
    )
    return OutlierTables(
        qualified=scored,
        top_rim=top(lambda c: c.rim.excess),
        top_disparity=top(lambda c: c.disparity.excess),
        excess_correlation=corr,
        flags=tuple(flags),
    )
