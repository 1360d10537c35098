"""Independent oracles for the synthetic-corpus tests.

``oracle_recompute``, ``oracle_excess``, ``oracle_referees``,
``oracle_home_away`` and ``oracle_series_states`` re-derive the headline
quantities with deliberately plain, self-contained arithmetic — no kernels
shared with the metrics, aggregate or outliers modules — so equivalence
tests compare two independent code paths. They import only the standard
library and the record types of ``rimkit.model``; ``test_synth.py`` checks
that.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

from rimkit.model import POSTSEASON, GameRecord


@dataclass(frozen=True, slots=True)
class OracleGame:
    game_id: str
    rim: float
    n_calls: int
    swing: float | None
    home_disparity: int
    home_team_rim: float
    period_rim: dict[str, float]


def oracle_recompute(games: Sequence[GameRecord]) -> dict[str, OracleGame]:
    """Re-derive per-game quantities with plain single-pass arithmetic."""
    out: dict[str, OracleGame] = {}
    for g in games:
        rim = 0.0
        q_home = 0.0
        home_fouls = 0
        away_fouls = 0
        period_rim = {"Q1": 0.0, "Q2": 0.0, "Q3": 0.0, "Q4": 0.0, "OT": 0.0}
        for e in g.events:
            d = e.post_wp - e.pre_wp
            rim += d if d >= 0 else -d
            q_home += d
            if e.charged_team == g.home_team:
                home_fouls += 1
            elif e.charged_team == g.away_team:
                away_fouls += 1
            label = "Q%d" % e.period if 1 <= e.period <= 4 else "OT"
            period_rim[label] += d if d >= 0 else -d
        n = len(g.events)
        out[g.game_id] = OracleGame(
            game_id=g.game_id,
            rim=rim,
            n_calls=n,
            swing=(rim / n) if n else None,
            home_disparity=away_fouls - home_fouls,
            home_team_rim=q_home,
            period_rim=period_rim,
        )
    return out


def oracle_excess(
    games: Sequence[GameRecord], metric: str = "team_rim"
) -> dict[tuple[str, str], float]:
    """Re-derive referee-team excess values from scratch.

    Independent grouping and averaging: referee / team / global means are
    taken over (referee, team-side, game) rows, and the excess is
    observed − (referee mean + team mean − global mean).
    """
    if metric not in ("team_rim", "disparity"):
        raise ValueError(f"unknown metric {metric!r}")
    rows: list[tuple[str, str, float]] = []
    for g in games:
        if not g.crew:
            continue
        q_home = 0.0
        hf = 0
        af = 0
        for e in g.events:
            q_home += e.post_wp - e.pre_wp
            if e.charged_team == g.home_team:
                hf += 1
            elif e.charged_team == g.away_team:
                af += 1
        if metric == "team_rim":
            home_val, away_val = q_home, -q_home
        else:
            home_val, away_val = float(af - hf), float(hf - af)
        for ref in g.crew:
            rows.append((ref, g.home_team, home_val))
            rows.append((ref, g.away_team, away_val))

    ref_sum: dict[str, list[float]] = {}
    team_sum: dict[str, list[float]] = {}
    pair_sum: dict[tuple[str, str], list[float]] = {}
    total = 0.0
    for ref, team, val in rows:
        ref_sum.setdefault(ref, [0.0, 0])
        team_sum.setdefault(team, [0.0, 0])
        pair_sum.setdefault((ref, team), [0.0, 0])
        ref_sum[ref][0] += val
        ref_sum[ref][1] += 1
        team_sum[team][0] += val
        team_sum[team][1] += 1
        pair_sum[(ref, team)][0] += val
        pair_sum[(ref, team)][1] += 1
        total += val
    if not rows:
        return {}
    m = total / len(rows)
    out: dict[tuple[str, str], float] = {}
    for (ref, team), (s, c) in pair_sum.items():
        a = ref_sum[ref][0] / ref_sum[ref][1]
        b = team_sum[team][0] / team_sum[team][1]
        out[(ref, team)] = s / c - (a + b - m)
    return out


def _oracle_mean(values: Sequence[float]) -> float:
    total = 0.0
    for v in values:
        total += v
    return total / len(values)


def oracle_referees(
    games: Sequence[GameRecord], min_games: int
) -> tuple[list[tuple], tuple[float, float] | None]:
    """Re-derive the qualified referees and their band from scratch.

    Each row is (referee, games, mean RIM, mean calls, mean swing per call
    or None when no game had a call, mean absolute disparity), over every
    game the referee worked; rows run by mean RIM descending, then name
    ascending. The band is (mean, sample SD) of the rows' mean RIM, or None
    when no referee has ``min_games`` games. Games without a crew count for
    no referee.
    """
    per_game = oracle_recompute(games)
    worked: dict[str, list[OracleGame]] = {}
    for g in games:
        for ref in g.crew:
            worked.setdefault(ref, []).append(per_game[g.game_id])
    rows = []
    for ref, gs in worked.items():
        if len(gs) < min_games:
            continue
        swings = [o.swing for o in gs if o.swing is not None]
        rows.append((
            ref,
            len(gs),
            _oracle_mean([o.rim for o in gs]),
            _oracle_mean([float(o.n_calls) for o in gs]),
            _oracle_mean(swings) if swings else None,
            _oracle_mean([float(abs(o.home_disparity)) for o in gs]),
        ))
    rows.sort(key=lambda r: (-r[2], r[0]))
    if not rows:
        return [], None
    means = [r[2] for r in rows]
    m = _oracle_mean(means)
    squares = 0.0
    for v in means:
        squares += (v - m) ** 2
    return rows, (m, math.sqrt(squares / (len(means) - 1)) if len(means) > 1 else 0.0)


def oracle_home_away(
    games: Sequence[GameRecord],
) -> tuple[dict[tuple[str, str], tuple], dict[str, dict[str, tuple]]]:
    """Re-derive the home/away league and per-team means from scratch.

    Returns ``(league, teams)``. ``league`` maps (season type, side) to
    (team rows, mean disparity, mean team RIM) for each side with rows;
    ``teams`` maps each team to {"home": ..., "away": ...} of (games, mean
    disparity, mean team RIM), the means None for a side without games.
    Each game gives a home and an away side, with the away values negated.
    """
    per_game = oracle_recompute(games)
    league: dict[tuple[str, str], list[tuple[float, float]]] = {}
    by_team: dict[str, dict[str, list[tuple[float, float]]]] = {}
    for g in games:
        o = per_game[g.game_id]
        for side, team, sign in (("home", g.home_team, 1.0), ("away", g.away_team, -1.0)):
            value = (sign * o.home_disparity, sign * o.home_team_rim)
            league.setdefault((g.season_type, side), []).append(value)
            by_team.setdefault(team, {"home": [], "away": []})[side].append(value)

    def means(values):
        if not values:
            return 0, None, None
        return (len(values), _oracle_mean([v[0] for v in values]),
                _oracle_mean([v[1] for v in values]))

    return (
        {key: means(values) for key, values in league.items()},
        {team: {side: means(v) for side, v in sides.items()} for team, sides in by_team.items()},
    )


def oracle_series_states(
    games: Sequence[GameRecord],
) -> tuple[dict[tuple[int, int], tuple], int]:
    """Re-derive the postseason series-state buckets from scratch.

    Returns ({(lo, hi): (games, team rows, mean absolute disparity, mean
    game RIM)}, postseason games without a state), where (lo, hi) is the
    pregame score with the smaller win count first.
    """
    per_game = oracle_recompute(games)
    buckets: dict[tuple[int, int], list[OracleGame]] = {}
    missing = 0
    for g in games:
        if g.season_type != POSTSEASON:
            continue
        if g.series_state is None:
            missing += 1
            continue
        a, b = g.series_state
        buckets.setdefault((a, b) if a <= b else (b, a), []).append(per_game[g.game_id])
    return {
        key: (len(obs), 2 * len(obs), _oracle_mean([float(abs(o.home_disparity)) for o in obs]),
              _oracle_mean([o.rim for o in obs]))
        for key, obs in buckets.items()
    }, missing
