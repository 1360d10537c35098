"""Per-game leverage metrics.

Everything here is a pure function of one game's foul events. Event
leverage is the absolute win-probability move bracketing a call; the game
total sums leverage over calls; the signed team variant sums raw moves
from one side's perspective, so the home and away values are exact
negations of each other.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

from .model import REGULATION_PERIODS, GameRecord, TeamGameRow, canonical_series_key

OT_BUCKET = "OT"
PERIOD_BUCKETS = ("Q1", "Q2", "Q3", "Q4", OT_BUCKET)
_OT_INDEX = PERIOD_BUCKETS.index(OT_BUCKET)


def period_bucket(period: int) -> str:
    """Quarters stay separate; every overtime period pools into "OT"."""
    return f"Q{period}" if 1 <= period <= REGULATION_PERIODS else OT_BUCKET


def event_leverage(pre_wp: float, post_wp: float) -> float:
    """Absolute win-probability movement attached to one call."""
    return abs(post_wp - pre_wp)


def swing_per_call(rim: float, n_calls: int) -> float | None:
    """Average leverage per call; ``None`` marks a game with no calls.

    The marker keeps zero-call games out of per-call averages instead of
    dragging them toward zero; aggregations skip ``None``.
    """
    if n_calls < 0:
        raise ValueError(f"n_calls must be >= 0, got {n_calls}")
    if n_calls == 0:
        return None
    return rim / n_calls


def signed_disparity(own_fouls: int, opp_fouls: int) -> int:
    """Foul imbalance from one team's perspective; positive favors it."""
    return opp_fouls - own_fouls


@dataclass(frozen=True, slots=True)
class PeriodMetrics:
    """One period bucket's slice: leverage total, calls, home-side imbalance."""

    rim: float
    calls: int
    home_disparity: int


@dataclass(frozen=True, slots=True, eq=False)
class GameMetrics:
    """Everything the aggregation layers need from one game."""

    game_id: str
    rim: float
    n_calls: int
    swing: float | None
    per_period: dict[str, PeriodMetrics]
    home_row: TeamGameRow
    away_row: TeamGameRow

    @property
    def rows(self) -> tuple[TeamGameRow, TeamGameRow]:
        return (self.home_row, self.away_row)


def compute_game_metrics(game: GameRecord) -> GameMetrics:
    """Compute all per-game quantities and both team rows in one pass.

    One loop over the events accumulates, in event order: rim (the sum of
    event leverage), the signed home-side total of raw moves, fouls per side
    and the five period buckets (Q1..Q4, OT). Every event lands in exactly
    one bucket, so bucket sums reconcile with the whole-game totals.
    Unattributed calls count toward rim and calls but not disparity. The
    away value of the signed total is the exact negation of the home value
    (IEEE negation is sign-symmetric, so the mirror identity holds to the
    bit).
    """
    home, away = game.home_team, game.away_team
    rim = 0.0
    q_home = 0.0
    home_fouls = 0
    away_fouls = 0
    bucket_rim = [0.0] * len(PERIOD_BUCKETS)
    bucket_calls = [0] * len(PERIOD_BUCKETS)
    bucket_disp = [0] * len(PERIOD_BUCKETS)
    # Positional unpacking follows FoulEvent's field order.
    for _, period, _, charged, pre_wp, post_wp, _ in game.events:
        move = post_wp - pre_wp
        leverage = abs(move)  # event_leverage(pre_wp, post_wp)
        b = period - 1 if 1 <= period <= REGULATION_PERIODS else _OT_INDEX  # period_bucket
        rim += leverage
        q_home += move
        bucket_rim[b] += leverage
        bucket_calls[b] += 1
        if charged == home:
            home_fouls += 1
            bucket_disp[b] -= 1
        elif charged == away:
            away_fouls += 1
            bucket_disp[b] += 1
    n = len(game.events)
    series_key = (
        canonical_series_key(*game.series_state)
        if game.series_state is not None
        else None
    )
    shared = dict(
        game_id=game.game_id,
        season=game.season,
        season_type=game.season_type,
        game_rim=rim,
        n_calls=n,
        series_key=series_key,
    )
    home_row = TeamGameRow(
        team=home,
        opponent=away,
        is_home=True,
        own_fouls=home_fouls,
        opp_fouls=away_fouls,
        disparity=signed_disparity(home_fouls, away_fouls),
        team_rim=q_home,
        **shared,
    )
    away_row = TeamGameRow(
        team=away,
        opponent=home,
        is_home=False,
        own_fouls=away_fouls,
        opp_fouls=home_fouls,
        disparity=signed_disparity(away_fouls, home_fouls),
        team_rim=-q_home,
        **shared,
    )
    return GameMetrics(
        game_id=game.game_id,
        rim=rim,
        n_calls=n,
        swing=swing_per_call(rim, n),
        per_period={
            bucket: PeriodMetrics(
                rim=bucket_rim[i], calls=bucket_calls[i], home_disparity=bucket_disp[i]
            )
            for i, bucket in enumerate(PERIOD_BUCKETS)
        },
        home_row=home_row,
        away_row=away_row,
    )


def expand_rows(games: Iterable[GameRecord]) -> list[TeamGameRow]:
    """Both team rows for every game, in game order (home row first)."""
    rows: list[TeamGameRow] = []
    for g in games:
        m = compute_game_metrics(g)
        rows.append(m.home_row)
        rows.append(m.away_row)
    return rows
