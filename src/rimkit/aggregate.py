"""Descriptive aggregations: referee distributions, splits, check tables.

Referee-level means are game-weighted — every game a referee works is one
observation, and the whole game's totals are attributed to each crew
member (a screening convention: it measures exposure, not causation).
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from .metrics import PERIOD_BUCKETS, compute_game_metrics
from .model import GameRecord, SeriesStateKey, TeamGameRow


def pearson(xs: Sequence[float], ys: Sequence[float]) -> float | None:
    """Pearson correlation; None when undefined (<3 points or zero variance)."""
    n = len(xs)
    if n != len(ys):
        raise ValueError("series lengths differ")
    if n < 3:
        return None
    mx = sum(xs) / n
    my = sum(ys) / n
    sxx = sum((x - mx) ** 2 for x in xs)
    syy = sum((y - my) ** 2 for y in ys)
    if sxx == 0.0 or syy == 0.0:
        return None
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    return sxy / math.sqrt(sxx * syy)


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values)


def _sample_sd(values: Sequence[float]) -> float:
    if len(values) < 2:
        return 0.0
    m = _mean(values)
    return math.sqrt(sum((v - m) ** 2 for v in values) / (len(values) - 1))


@dataclass(frozen=True)
class RefSeasonSummary:
    """One referee's game-weighted means over a corpus slice."""

    referee: str
    games: int
    mean_rim: float
    mean_calls_per_game: float
    mean_swing_per_call: float | None
    mean_abs_disparity: float
    per_quarter_rim: dict[str, float]
    per_quarter_abs_disparity: dict[str, float]


@dataclass(frozen=True)
class DistributionBand:
    """Mean ± one sd band over qualified referees' mean RIM (sample sd)."""

    mean: float
    sd: float

    @property
    def lower(self) -> float:
        return self.mean - self.sd

    @property
    def upper(self) -> float:
        return self.mean + self.sd


def referee_distribution(
    games: Iterable[GameRecord], min_games: int
) -> tuple[list[RefSeasonSummary], DistributionBand | None]:
    """Qualified referees' summaries plus the distribution band.

    Callers pass the slice to summarize (one season type). Games with an
    empty crew contribute to no referee. Summaries are ordered by mean RIM
    descending (name ascending on ties); an empty qualified set returns
    ``([], None)`` rather than failing.
    """
    if min_games < 1:
        raise ValueError("min_games must be >= 1")
    per_ref: dict[str, list] = {}
    for g in games:
        if not g.crew:
            continue
        m = compute_game_metrics(g)
        for ref in g.crew:
            per_ref.setdefault(ref, []).append(m)

    summaries: list[RefSeasonSummary] = []
    for ref, ms in per_ref.items():
        if len(ms) < min_games:
            continue
        swings = [m.swing for m in ms if m.swing is not None]
        q_rim = {
            b: _mean([m.per_period[b].rim for m in ms]) for b in PERIOD_BUCKETS
        }
        q_disp = {
            b: _mean([abs(m.per_period[b].home_disparity) for m in ms])
            for b in PERIOD_BUCKETS
        }
        summaries.append(
            RefSeasonSummary(
                referee=ref,
                games=len(ms),
                mean_rim=_mean([m.rim for m in ms]),
                mean_calls_per_game=_mean([float(m.n_calls) for m in ms]),
                mean_swing_per_call=_mean(swings) if swings else None,
                mean_abs_disparity=_mean(
                    [float(abs(m.home_row.disparity)) for m in ms]
                ),
                per_quarter_rim=q_rim,
                per_quarter_abs_disparity=q_disp,
            )
        )
    summaries.sort(key=lambda s: (-s.mean_rim, s.referee))
    if not summaries:
        return [], None
    means = [s.mean_rim for s in summaries]
    band = DistributionBand(mean=_mean(means), sd=_sample_sd(means))
    return summaries, band


@dataclass(frozen=True)
class RankedEntry:
    section: str  # "bottom" | "mean" | "top"
    rank: int
    label: str
    value: float
    games: int | None


@dataclass(frozen=True)
class RankedTable:
    entries: list[RankedEntry]
    truncated: bool


def top_bottom_table(summaries: Sequence[RefSeasonSummary], k: int) -> RankedTable:
    """Bottom-k (ascending), the overall mean, then top-k (descending) by mean RIM.

    With fewer than 2k summaries every referee appears in both halves and
    the table is flagged truncated. Ties break by name ascending.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if not summaries:
        return RankedTable(entries=[], truncated=True)
    asc = sorted(summaries, key=lambda s: (s.mean_rim, s.referee))
    take = min(k, len(asc))
    entries: list[RankedEntry] = []
    for i, s in enumerate(asc[:take]):
        entries.append(RankedEntry("bottom", i + 1, s.referee, s.mean_rim, s.games))
    entries.append(
        RankedEntry("mean", 0, "all qualified", _mean([s.mean_rim for s in asc]), None)
    )
    desc = sorted(summaries, key=lambda s: (-s.mean_rim, s.referee))
    for i, s in enumerate(desc[:take]):
        entries.append(RankedEntry("top", i + 1, s.referee, s.mean_rim, s.games))
    return RankedTable(entries=entries, truncated=len(asc) < 2 * k)


@dataclass(frozen=True)
class SideSummary:
    season_type: str
    side: str  # "home" | "away"
    n_rows: int
    mean_disparity: float
    mean_team_rim: float


@dataclass(frozen=True)
class TeamHomeAway:
    team: str
    home_games: int
    away_games: int
    home_mean_disparity: float | None
    away_mean_disparity: float | None
    home_mean_team_rim: float | None
    away_mean_team_rim: float | None


@dataclass(frozen=True)
class HomeAwaySummary:
    league: list[SideSummary]
    teams: list[TeamHomeAway]


def home_away_summary(rows: Iterable[TeamGameRow]) -> HomeAwaySummary:
    """League-level and per-team home/away means of disparity and team RIM.

    League means are split by season type. Because the two rows of a game
    mirror each other, the league home and away means are exact negations;
    per-team splits are where real asymmetry shows up.
    """
    rows = list(rows)
    league: list[SideSummary] = []
    by_type = sorted({r.season_type for r in rows})
    for st in by_type:
        for side, flag in (("home", True), ("away", False)):
            sel = [r for r in rows if r.season_type == st and r.is_home == flag]
            if not sel:
                continue
            league.append(
                SideSummary(
                    season_type=st,
                    side=side,
                    n_rows=len(sel),
                    mean_disparity=_mean([float(r.disparity) for r in sel]),
                    mean_team_rim=_mean([r.team_rim for r in sel]),
                )
            )
    teams: list[TeamHomeAway] = []
    for team in sorted({r.team for r in rows}):
        home = [r for r in rows if r.team == team and r.is_home]
        away = [r for r in rows if r.team == team and not r.is_home]
        teams.append(
            TeamHomeAway(
                team=team,
                home_games=len(home),
                away_games=len(away),
                home_mean_disparity=(
                    _mean([float(r.disparity) for r in home]) if home else None
                ),
                away_mean_disparity=(
                    _mean([float(r.disparity) for r in away]) if away else None
                ),
                home_mean_team_rim=(
                    _mean([r.team_rim for r in home]) if home else None
                ),
                away_mean_team_rim=(
                    _mean([r.team_rim for r in away]) if away else None
                ),
            )
        )
    return HomeAwaySummary(league=league, teams=teams)


@dataclass(frozen=True)
class SeriesStateBucket:
    key: SeriesStateKey
    games: int
    team_rows: int
    mean_abs_disparity: float
    mean_game_rim: float


@dataclass(frozen=True)
class SeriesStateSummary:
    buckets: list[SeriesStateBucket]
    games_missing_state: int


def series_state_summary(rows: Iterable[TeamGameRow]) -> SeriesStateSummary:
    """Game counts and means by canonical pregame series state.

    Operates on postseason team rows; games without a series state are
    counted and excluded. Mirrored states pool because rows carry the
    already-canonical key.
    """
    games_seen: dict[str, TeamGameRow] = {}
    row_counts: dict[str, int] = {}
    for r in rows:
        if r.season_type != "postseason":
            continue
        row_counts[r.game_id] = row_counts.get(r.game_id, 0) + 1
        if r.game_id not in games_seen or r.is_home:
            games_seen[r.game_id] = r
    missing = sum(1 for r in games_seen.values() if r.series_key is None)
    by_key: dict[SeriesStateKey, list[TeamGameRow]] = {}
    for r in games_seen.values():
        if r.series_key is not None:
            by_key.setdefault(r.series_key, []).append(r)
    buckets = [
        SeriesStateBucket(
            key=key,
            games=len(rs),
            team_rows=sum(row_counts[r.game_id] for r in rs),
            mean_abs_disparity=_mean([float(abs(r.disparity)) for r in rs]),
            mean_game_rim=_mean([r.game_rim for r in rs]),
        )
        for key, rs in sorted(by_key.items(), key=lambda kv: kv[0])
    ]
    return SeriesStateSummary(
        buckets=buckets,
        games_missing_state=missing,
    )


@dataclass(frozen=True)
class ScatterSeries:
    """(referee, x, y) points plus their correlation (None if undefined)."""

    points: list[tuple[str, float, float]]
    correlation: float | None


def component_check_tables(summaries: Sequence[RefSeasonSummary]) -> ScatterSeries:
    """Cross-referee association of calls per game with swing per call.

    Referees whose every game had zero calls are skipped. Run it on
    filtered and unfiltered summary sets to see the threshold's effect.
    """
    cvs = [
        (s.referee, s.mean_calls_per_game, s.mean_swing_per_call)
        for s in summaries
        if s.mean_swing_per_call is not None
    ]
    return ScatterSeries(
        points=cvs,
        correlation=pearson([p[1] for p in cvs], [p[2] for p in cvs]),
    )
