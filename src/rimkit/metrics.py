"""Per-game leverage metrics.

Everything here is a pure function of one game's foul events. Event
leverage is the absolute win-probability move bracketing a call; the game
total sums leverage over calls; the signed team variant sums raw moves
from one side's perspective, so the home and away values are exact
negations of each other.
"""

from __future__ import annotations

from collections.abc import Iterable
from operator import itemgetter
from typing import NamedTuple

from .model import (
    REGULATION_PERIODS,
    EventColumns,
    GameRecord,
    TeamGameRow,
    canonical_series_key,
)

OT_BUCKET = "OT"
PERIOD_BUCKETS = ("Q1", "Q2", "Q3", "Q4", OT_BUCKET)
_OT_INDEX = PERIOD_BUCKETS.index(OT_BUCKET)
# The period, charged team and both win probabilities of a FoulEvent.
_KERNEL_FIELDS = itemgetter(1, 3, 4, 5)


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


class GameMetrics(NamedTuple):
    """One game's two team rows plus its period slices.

    The rows carry the whole-game facts (``game_rim``, ``n_calls``, the
    signed ``disparity`` and ``team_rim``); ``period_rim`` and
    ``period_home_disparity`` follow ``PERIOD_BUCKETS``.
    """

    home_row: TeamGameRow
    away_row: TeamGameRow
    period_rim: tuple[float, ...]
    period_home_disparity: tuple[int, ...]


def compute_game_metrics(game: GameRecord) -> GameMetrics:
    """Compute both team rows and the period slices in one pass.

    One loop over the events accumulates, in event order: rim (the sum of
    event leverage), the signed home-side total of raw moves and the five
    period buckets (Q1..Q4, OT) of leverage and home-side foul imbalance.
    Every event lands in exactly one bucket, so bucket sums reconcile with
    the whole-game totals. Unattributed calls count toward rim and calls
    but not disparity. The away value of the signed total is the exact
    negation of the home value (IEEE negation is sign-symmetric, so the
    mirror identity holds to the bit). Events held as
    :class:`~rimkit.model.EventColumns` are read from their columns, with
    no ``FoulEvent`` built.
    """
    home, away = game.home_team, game.away_team
    rim = 0.0
    q_home = 0.0
    bucket_rim = [0.0] * len(PERIOD_BUCKETS)
    bucket_disp = [0] * len(PERIOD_BUCKETS)
    events = game.events
    if type(events) is EventColumns:
        fields = zip(events.period, events.charged_team, events.pre_wp, events.post_wp)
    else:
        fields = map(_KERNEL_FIELDS, events)
    for period, charged, pre_wp, post_wp in fields:
        move = post_wp - pre_wp
        leverage = abs(move)  # event_leverage(pre_wp, post_wp)
        b = period - 1 if 1 <= period <= REGULATION_PERIODS else _OT_INDEX  # period_bucket
        rim += leverage
        q_home += move
        bucket_rim[b] += leverage
        if charged == home:
            bucket_disp[b] -= 1
        elif charged == away:
            bucket_disp[b] += 1
    disparity = sum(bucket_disp)  # signed_disparity(home fouls, away fouls)
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
        n_calls=len(events),
        series_key=series_key,
    )
    home_row = TeamGameRow(
        team=home, opponent=away, is_home=True, disparity=disparity, team_rim=q_home, **shared
    )
    away_row = TeamGameRow(
        team=away, opponent=home, is_home=False, disparity=-disparity, team_rim=-q_home, **shared
    )
    return GameMetrics(home_row, away_row, tuple(bucket_rim), tuple(bucket_disp))


def expand_rows(games: Iterable[GameRecord]) -> list[TeamGameRow]:
    """Both team rows for every game, in game order (home row first)."""
    rows: list[TeamGameRow] = []
    for g in games:
        m = compute_game_metrics(g)
        rows.append(m.home_row)
        rows.append(m.away_row)
    return rows
