"""Shared builders for compact test games."""

from __future__ import annotations

import numpy as np
import pytest

from rimkit.model import FoulEvent, GameRecord


def make_event(
    pre: float,
    post: float,
    charged: str | None = "HOU",
    event_id: int = 1,
    period: int = 1,
    clock: float = 600.0,
    description: str = "",
) -> FoulEvent:
    return FoulEvent(
        event_id=event_id,
        period=period,
        clock_seconds_remaining=clock,
        charged_team=charged,
        pre_wp=pre,
        post_wp=post,
        description=description,
    )


def make_game(
    events=(),
    game_id: str = "2021-22-reg-00001",
    home: str = "HOU",
    away: str = "BOS",
    crew: tuple[str, ...] = ("Ref A", "Ref B", "Ref C"),
    season: str = "2021-22",
    season_type: str = "regular",
    series_state: tuple[int, int] | None = None,
) -> GameRecord:
    return GameRecord(
        game_id=game_id,
        season=season,
        season_type=season_type,
        home_team=home,
        away_team=away,
        crew=crew,
        events=tuple(events),
        series_state=series_state,
    )


def random_games(rng: np.random.Generator, n_games: int, teams=None) -> list[GameRecord]:
    """Light randomized games for identity/property checks.

    Events use independent uniform probabilities, random periods (including
    overtime), ordered clocks, and random attribution including a slice of
    unattributed calls.
    """
    teams = teams or [f"T{i:02d}" for i in range(8)]
    refs = [f"Ref {c}" for c in "ABCDEFGHI"]
    games = []
    for i in range(n_games):
        hi, ai = rng.choice(len(teams), size=2, replace=False)
        home, away = teams[hi], teams[ai]
        crew = tuple(sorted(refs[j] for j in rng.choice(len(refs), size=3, replace=False)))
        n_events = int(rng.integers(0, 14))
        periods = np.sort(rng.integers(1, 6, size=n_events))
        events = []
        for j in range(n_events):
            period = int(periods[j])
            limit = 720.0 if period <= 4 else 300.0
            pick = rng.random()
            if pick < 0.45:
                charged = home
            elif pick < 0.9:
                charged = away
            else:
                charged = None
            events.append(
                FoulEvent(
                    event_id=j + 1,
                    period=period,
                    clock_seconds_remaining=float(rng.random() * limit),
                    charged_team=charged,
                    pre_wp=float(rng.random()),
                    post_wp=float(rng.random()),
                )
            )
        games.append(
            make_game(
                events,
                game_id=f"2021-22-reg-{i:05d}",
                home=home,
                away=away,
                crew=crew,
            )
        )
    return games


def summary_doc(
    game_id: str = "0022100001",
    season: str = "2021-22",
    season_type: str = "regular",
    home: str = "HOU",
    away: str = "BOS",
    officials=("Tony Brothers", "Raisa Chen", "Pat Fraher"),
    plays=(),
    series: tuple[int, int] | None = None,
) -> dict:
    doc = {
        "game_id": game_id,
        "season": season,
        "season_type": season_type,
        "home_team": home,
        "away_team": away,
        "officials": list(officials),
        "plays": [dict(p) for p in plays],
    }
    if series is not None:
        doc["series"] = {"home_wins": series[0], "away_wins": series[1]}
    return doc


def play(
    pid: str,
    seq: int,
    period: int = 1,
    clock: float = 600.0,
    foul: bool = False,
    team: str | None = None,
    text: str = "",
) -> dict:
    return {
        "id": pid,
        "sequence": seq,
        "period": period,
        "clock_seconds": clock,
        "foul": foul,
        "team": team,
        "text": text,
    }


def wp_doc(items, pregame: float | None = None) -> dict:
    doc = {"items": [{"play_id": pid, "home_wp": wp} for pid, wp in items]}
    if pregame is not None:
        doc["pregame"] = pregame
    return doc


def solve_normal_longdouble(X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Extended-precision least squares via the normal equations.

    Accumulates X'X and X'y in longdouble and solves the small system with
    Gaussian elimination and partial pivoting (LAPACK has no longdouble
    path). Serves as an independent oracle for the normal-equations fitter.
    """
    Xl = np.asarray(X, dtype=np.longdouble)
    yl = np.asarray(y, dtype=np.longdouble)
    A = Xl.T @ Xl
    b = Xl.T @ yl
    k = A.shape[0]
    A = A.copy()
    b = b.copy()
    for col in range(k):
        pivot = col + int(np.argmax(np.abs(A[col:, col])))
        if A[pivot, col] == 0:
            raise ZeroDivisionError("singular normal equations")
        if pivot != col:
            A[[col, pivot]] = A[[pivot, col]]
            b[[col, pivot]] = b[[pivot, col]]
        for r in range(col + 1, k):
            f = A[r, col] / A[col, col]
            A[r, col:] -= f * A[col, col:]
            b[r] -= f * b[col]
    beta = np.zeros(k, dtype=np.longdouble)
    for col in range(k - 1, -1, -1):
        beta[col] = (b[col] - A[col, col + 1 :] @ beta[col + 1 :]) / A[col, col]
    return beta


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20210822)
