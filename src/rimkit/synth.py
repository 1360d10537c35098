"""Synthetic corpora with known ground truth.

The generator is an estimator test rig, not a basketball model: it draws
foul counts and bounded win-probability moves so that configured effects
enter the observable outcomes at known sizes. Corpora are written in the
same canonical dataset format ingest produces, alongside a ledger of every
injected parameter. Determinism is strict: the same config yields a
byte-identical corpus, via counter-based per-game seeds. The ledger's
effects are in the ``--effects`` file format that :func:`read_effects_file`
reads, and the row-level rigs at the end feed the estimators' Monte Carlo.
"""

from __future__ import annotations

import json
import math
import sys
from array import array
from collections.abc import Mapping
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path
from typing import TYPE_CHECKING

from .model import (
    MAX_SERIES_WINS,
    POSTSEASON,
    REGULAR,
    SAFE_LABEL,
    FoulEvent,
    GameRecord,
    TeamGameColumns,
)

if TYPE_CHECKING:
    import numpy as np

    from .outliers import PanelColumns


# The shape of a foul's win-probability move, Beta(MOVE_ALPHA, MOVE_BETA)
# scaled by ``SimConfig.move_scale``, and the half-width of the uniform
# jitter around 0.5 that each game's starting probability draws from.
MOVE_ALPHA = 1.3
MOVE_BETA = 5.0
START_WP_JITTER = 0.06

# The canonical pregame series states (lo, hi) a postseason game can draw.
_SERIES_STATES = frozenset(
    (lo, hi) for hi in range(MAX_SERIES_WINS + 1) for lo in range(hi + 1)
)


class SimConfigError(ValueError):
    """Raised for infeasible simulation configs."""


@dataclass(frozen=True)
class SimConfig:
    """Knobs for one synthetic corpus; every field has a reproducible default.

    Each field can be set through ``rimkit simulate``: as a flag, as
    ``--sim-seasons`` for ``seasons``, or as a key of the ``--effects`` file.
    The move shape and the starting-probability jitter are the module
    constants ``MOVE_ALPHA``, ``MOVE_BETA`` and ``START_WP_JITTER``.

    Injected effects:

    * ``team_home_shift``: extra expected foul disparity (in fouls) a team
      receives in its home games.
    * ``pair_shift``: extra expected signed team RIM (win-probability
      units per game) a team receives when a given referee works its game,
      keyed ``(referee, team)``.
    * ``series_shift``: extra expected game RIM for postseason games at a
      canonical pregame series state, keyed ``(lo, hi)``.

    Every effect must be one the generator can apply: a team among
    ``team_name(0..n_teams-1)``, a referee among
    ``referee_name(0..n_referees-1)`` and a state with
    ``0 <= lo <= hi <= MAX_SERIES_WINS``.
    """

    seed: int = 0
    n_teams: int = 30
    n_referees: int = 70
    crew_size: int = 3
    games_per_season: int = 1230
    postseason_games_per_season: int = 0
    seasons: tuple[str, ...] = ("2021-22",)
    fouls_mean: float = 40.0
    fouls_dispersion: float = 0.0
    move_scale: float = 0.04
    benefit_prob: float = 0.65
    overtime_rate: float = 0.04
    unattributed_rate: float = 0.0
    missing_series_rate: float = 0.0
    team_home_shift: Mapping[str, float] = field(default_factory=dict)
    pair_shift: Mapping[tuple[str, str], float] = field(default_factory=dict)
    series_shift: Mapping[tuple[int, int], float] = field(default_factory=dict)

    def validate(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise SimConfigError(f"{f.name} must be finite, got {value}")
        for name in ("team_home_shift", "pair_shift", "series_shift"):
            for key, shift in getattr(self, name).items():
                if not math.isfinite(shift):
                    raise SimConfigError(f"{name} {key!r}: shift must be finite, got {shift}")
        if self.seed < 0:
            raise SimConfigError("seed must be non-negative")
        if self.n_teams < 2:
            raise SimConfigError("need at least two teams")
        if self.crew_size < 1 or self.crew_size > self.n_referees:
            raise SimConfigError(
                f"crew_size {self.crew_size} infeasible with "
                f"{self.n_referees} referees"
            )
        if not isinstance(self.seasons, (tuple, list)):
            raise SimConfigError(
                f"seasons must be a tuple or list of season labels, got {self.seasons!r:.40}")
        if not self.seasons:
            raise SimConfigError("need at least one season label")
        labels: set[str] = set()
        for label in self.seasons:  # each names a partition directory and prefixes game ids
            if not isinstance(label, str) or not SAFE_LABEL.fullmatch(label):
                raise SimConfigError(f"season label {label!r} cannot name a partition")
            if label in labels:
                raise SimConfigError(f"season label {label!r} is given twice")
            labels.add(label)
        for name in ("games_per_season", "postseason_games_per_season"):
            if getattr(self, name) < 0:
                raise SimConfigError(f"{name} must be >= 0")
        if self.fouls_mean < 0 or self.fouls_dispersion < 0:
            raise SimConfigError("foul distribution parameters must be >= 0")
        for name in ("benefit_prob", "overtime_rate", "unattributed_rate", "missing_series_rate"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise SimConfigError(f"{name} must be a probability")
        if self.move_scale < 0:
            raise SimConfigError("move_scale must be >= 0")
        for key in self.series_shift:
            if key not in _SERIES_STATES:
                raise SimConfigError(
                    f"series_shift {key!r}: not a canonical series state (lo, hi) "
                    f"with 0 <= lo <= hi <= {MAX_SERIES_WINS}"
                )
        named = [("team_home_shift", team, "team", team) for team in self.team_home_shift]
        for key in self.pair_shift:
            named += [("pair_shift", key, "referee", key[0]), ("pair_shift", key, "team", key[1])]
        rosters = {"team": (team_name, self.n_teams), "referee": (referee_name, self.n_referees)}
        for effect, key, role, name in named:
            make, size = rosters[role]
            if not _on_roster(name, make, size):
                raise SimConfigError(
                    f"{effect} {key!r}: no {role} {name!r} among the {size} simulated"
                )


def team_name(i: int) -> str:
    return f"T{i + 1:02d}"


def referee_name(i: int) -> str:
    return f"Ref{i + 1:02d}"


def _on_roster(name, make, size: int) -> bool:
    """Whether ``name`` is ``make(i)`` for some ``0 <= i < size``, found
    without building the roster."""
    prefix = make(0).rstrip("0123456789")
    if not isinstance(name, str) or len(name) > len(make(size)) or not name.startswith(prefix):
        return False
    digits = name[len(prefix):]
    if not (digits.isascii() and digits.isdigit()):
        return False
    i = int(digits) - 1
    return 0 <= i < size and make(i) == name


def _draw_fouls(rng: np.random.Generator, cfg: SimConfig) -> int:
    if cfg.fouls_mean == 0:
        return 0
    if cfg.fouls_dispersion > 0:
        # Gamma-Poisson mixture: overdispersed counts with the given mean.
        shape = 1.0 / cfg.fouls_dispersion
        lam = rng.gamma(shape, cfg.fouls_mean / shape)
        return int(rng.poisson(lam))
    return int(rng.poisson(cfg.fouls_mean))


def _period_cdf(overtime_rate: float) -> np.ndarray:
    """The cdf over the five period buckets (four quarters, then overtime).

    Built as ``Generator.choice(5, p=...)`` builds it, so drawing
    ``cdf.searchsorted(rng.random(n), side="right")`` consumes the same
    stream and gives the same buckets, without choice's per-call checks
    of ``p``.
    """
    import numpy as np

    cdf = np.array([(1.0 - overtime_rate) / 4.0] * 4 + [overtime_rate]).cumsum()
    cdf /= cdf[-1]
    return cdf


def _generate_game(
    cfg: SimConfig,
    period_cdf: np.ndarray,
    game_id: str,
    season: str,
    season_type: str,
    index: int,
) -> GameRecord:
    import numpy as np

    rng = np.random.default_rng([cfg.seed, index])

    home_i, away_i = rng.choice(cfg.n_teams, size=2, replace=False)
    home, away = team_name(int(home_i)), team_name(int(away_i))
    crew_idx = np.sort(rng.choice(cfg.n_referees, size=cfg.crew_size, replace=False))
    crew = tuple(referee_name(int(i)) for i in crew_idx)

    series_state: tuple[int, int] | None = None
    if season_type == POSTSEASON:
        hw, aw = rng.integers(0, 4, size=2)
        series_state = (int(hw), int(aw))
        if cfg.missing_series_rate > 0 and rng.random() < cfg.missing_series_rate:
            series_state = None

    n = _draw_fouls(rng, cfg)
    if n == 0:
        return GameRecord(
            game_id=game_id,
            season=season,
            season_type=season_type,
            home_team=home,
            away_team=away,
            crew=crew,
            events=(),
            series_state=series_state,
        )

    unattributed = (
        rng.random(n) < cfg.unattributed_rate
        if cfg.unattributed_rate > 0
        else np.zeros(n, dtype=bool)
    )
    n_attr = int(n - unattributed.sum())
    home_delta = float(cfg.team_home_shift.get(home, 0.0))
    p_home_charge = 0.5
    if n_attr > 0:
        # E[opponent fouls - own fouls] for the home side equals home_delta.
        p_home_charge = min(max(0.5 - home_delta / (2.0 * n_attr), 0.01), 0.99)
    charge_home = rng.random(n) < p_home_charge

    period_draw = period_cdf.searchsorted(rng.random(n), side="right")
    periods = np.where(period_draw < 4, period_draw + 1, 5)
    clocks = np.where(
        periods <= 4, rng.uniform(0.0, 720.0, size=n), rng.uniform(0.0, 300.0, size=n)
    )
    order = np.lexsort((-clocks, periods))

    magnitudes = rng.beta(MOVE_ALPHA, MOVE_BETA, size=n) * cfg.move_scale
    toward_benefit = rng.random(n) < cfg.benefit_prob
    coin = rng.random(n) < 0.5

    drift_home = 0.0
    if cfg.pair_shift:
        for ref in crew:
            drift_home += float(cfg.pair_shift.get((ref, home), 0.0))
            drift_home -= float(cfg.pair_shift.get((ref, away), 0.0))
    rim_shift = 0.0
    if cfg.series_shift and series_state is not None:
        lo, hi = sorted(series_state)
        rim_shift = float(cfg.series_shift.get((lo, hi), 0.0))

    w = 0.5 + float(rng.uniform(-START_WP_JITTER, START_WP_JITTER))
    w = min(max(w, 0.0), 1.0)
    # Plain lists, so every event field is a Python float, int or str, never
    # a numpy scalar; the arithmetic is binary64 either way, so no bit moves.
    unattributed, charge_home = unattributed.tolist(), charge_home.tolist()
    periods, clocks, magnitudes = periods.tolist(), clocks.tolist(), magnitudes.tolist()
    toward_benefit, coin = toward_benefit.tolist(), coin.tolist()
    mag_shift, wp_drift = rim_shift / n, drift_home / n
    desc_home, desc_away = f"Foul on {home}", f"Foul on {away}"
    events: list[FoulEvent] = []
    for k, j in enumerate(order.tolist(), start=1):
        if unattributed[j]:
            charged, desc = None, "Foul (unattributed)"
            benefit_sign = 1.0 if coin[j] else -1.0
        elif charge_home[j]:
            charged, desc = home, desc_home
            benefit_sign = -1.0  # a call on the home side favors the away side
        else:
            charged, desc = away, desc_away
            benefit_sign = 1.0
        sign = benefit_sign if toward_benefit[j] else -benefit_sign
        mag = max(magnitudes[j] + mag_shift, 0.0)
        post = min(max(w + sign * mag + wp_drift, 0.0), 1.0)
        events.append(FoulEvent(k, periods[j], clocks[j], charged, w, post, desc))
        w = post

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


def ground_truth_ledger(cfg: SimConfig) -> dict:
    """Every simulator setting, in a stable serializable shape.

    The scalar settings and ``seasons`` are keyed by field name and the
    injected effects are in the ``--effects`` file's format, so a corpus
    can be rebuilt from its own ledger.
    """
    settings = {f.name: getattr(cfg, f.name) for f in fields(cfg) if f.default is not MISSING}
    return {
        **settings,
        "seasons": list(cfg.seasons),
        "team_home_shift": {t: v for t, v in sorted(cfg.team_home_shift.items())},
        "pair_shift": [
            {"referee": r, "team": t, "shift": v}
            for (r, t), v in sorted(cfg.pair_shift.items())
        ],
        "series_shift": [
            {"state": f"{lo}--{hi}", "shift": v}
            for (lo, hi), v in sorted(cfg.series_shift.items())
        ],
    }


def _shift(value) -> float:
    """An effect's shift: like ``config._coerce``, a boolean or a string is not a number."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(value)
    return float(value)


def _effect_entries(data: dict, key: str, fields: str) -> list:
    entries = data.pop(key, [])
    if not isinstance(entries, list):
        raise SimConfigError(f"{key} must be a list of {{{fields}}} entries")
    return entries


def read_effects_file(path: str) -> dict:
    """The injected effects of a JSON file, as ``SimConfig`` keyword arguments."""
    from .config import read_json_file  # local import keeps module load light

    data = read_json_file(path, "effects file")
    if not isinstance(data, dict):
        raise SimConfigError("effects file must hold a JSON object")
    out: dict = {}
    team_home = data.pop("team_home_shift", {})
    if not isinstance(team_home, dict):
        raise SimConfigError("team_home_shift must map team -> shift")
    shifts = {}
    for team, shift in team_home.items():
        try:
            shifts[str(team)] = _shift(shift)
        except (TypeError, ValueError, OverflowError) as e:
            raise SimConfigError(f"bad team_home_shift entry: {team!r}: {shift!r}") from e
    out["team_home_shift"] = shifts
    pair = {}
    for entry in _effect_entries(data, "pair_shift", "referee, team, shift"):
        try:
            pair[(str(entry["referee"]), str(entry["team"]))] = _shift(entry["shift"])
        except (TypeError, KeyError, ValueError, OverflowError) as e:
            raise SimConfigError(f"bad pair_shift entry: {entry!r}") from e
    out["pair_shift"] = pair
    series = {}
    for entry in _effect_entries(data, "series_shift", "state, shift"):
        try:
            lo, hi = str(entry["state"]).split("--")
            series[(int(lo), int(hi))] = _shift(entry["shift"])
        except (TypeError, KeyError, ValueError, OverflowError) as e:
            raise SimConfigError(f"bad series_shift entry: {entry!r}") from e
    out["series_shift"] = series
    if data:
        raise SimConfigError(f"unknown effects keys: {sorted(data)}")
    return out


def generate(cfg: SimConfig) -> tuple[list[GameRecord], dict]:
    """Build the full corpus for ``cfg``; returns (games, ground-truth ledger).

    Game seeds are derived from (config seed, global game counter), so any
    prefix of the corpus is stable under config changes that only extend it.
    """
    cfg.validate()
    cdf = _period_cdf(cfg.overtime_rate)
    games: list[GameRecord] = []
    index = 0
    for season in cfg.seasons:
        for local in range(cfg.games_per_season):
            gid = f"{season}-reg-{local:05d}"
            games.append(_generate_game(cfg, cdf, gid, season, REGULAR, index))
            index += 1
        for local in range(cfg.postseason_games_per_season):
            gid = f"{season}-post-{local:05d}"
            games.append(_generate_game(cfg, cdf, gid, season, POSTSEASON, index))
            index += 1
    return games, ground_truth_ledger(cfg)


def write_corpus(cfg: SimConfig, root: Path):
    """Generate and persist a corpus: canonical dataset plus ledger.json."""
    from .ingest import write_dataset  # local import keeps module load light

    games, ledger = generate(cfg)
    manifest = write_dataset(games, root)
    ledger_path = Path(root) / "ledger.json"
    ledger_path.write_text(
        json.dumps(ledger, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return games, ledger, manifest


# ---------------------------------------------------------------------------
# Row-level rigs for estimator Monte Carlo studies
# ---------------------------------------------------------------------------


def simulate_team_side_rows(
    rng: np.random.Generator,
    *,
    n_games: int,
    n_teams: int = 30,
    home_disparity_shift: Mapping[str, float] | None = None,
) -> TeamGameColumns:
    """Team-game rows from a known disparity model, mirrors included.

    Regular-season games of season ``S1``. Foul counts are Poisson on each
    side, 20 a side on average, with the home side's rate tilted so the
    expected home disparity equals the configured shift exactly. The home
    team RIM is normal with SD 0.08. Game ids are interned, so the tables
    of many calls, such as Monte Carlo replicates, share one copy of each.
    """
    shifts = home_disparity_shift or {}
    names = [team_name(t) for t in range(n_teams)]
    season, half = "S1", 20.0
    game_id: list[str] = []
    team: list[str] = []
    opponent: list[str] = []
    disparity, n_calls = array("q"), array("q")
    team_rim, game_rim = array("d"), array("d")
    for i in range(n_games):
        hi, ai = rng.choice(n_teams, size=2, replace=False)
        home, away = names[hi], names[ai]
        delta = float(shifts.get(home, 0.0))
        f_home = int(rng.poisson(max(half - delta / 2.0, 0.1)))
        f_away = int(rng.poisson(max(half + delta / 2.0, 0.1)))
        q_home = float(rng.normal(0.0, 0.08))
        rim = abs(q_home) + float(rng.gamma(2.0, 0.05))
        gid = sys.intern(f"{season}-mc-{i:05d}")
        game_id += (gid, gid)
        team += (home, away)
        opponent += (away, home)
        disparity.extend((f_away - f_home, f_home - f_away))
        team_rim.extend((q_home, -q_home))
        game_rim.extend((rim, rim))
        n_calls.extend((f_home + f_away,) * 2)
    n_rows = 2 * n_games
    return TeamGameColumns(
        game_id=tuple(game_id), team=tuple(team), opponent=tuple(opponent),
        is_home=(True, False) * n_games, season=(season,) * n_rows,
        season_type=(REGULAR,) * n_rows, disparity=disparity, team_rim=team_rim,
        game_rim=game_rim, n_calls=n_calls, series_key=(None,) * n_rows,
    )


def simulate_ref_team_panel(
    rng: np.random.Generator,
    *,
    n_games: int,
    n_teams: int = 20,
    n_referees: int = 20,
    pair_shift: Mapping[tuple[str, str], float] | None = None,
) -> PanelColumns:
    """Referee-team-game rows of season ``S1`` with known pair effects.

    Each game has a crew of three. A shared per-game shock (SD 0.05,
    sign-flipped across sides) gives clusters real within-game correlation;
    row noise (SD 0.02) sits on top. Referees and teams have no effect of
    their own. Game ids are interned, as in :func:`simulate_team_side_rows`.
    """
    from .outliers import PanelColumns

    pairs = pair_shift or {}
    season = "S1"
    team_names = [team_name(t) for t in range(n_teams)]
    referee_names = [referee_name(r) for r in range(n_referees)]
    game_id: list[str] = []
    referee: list[str] = []
    team: list[str] = []
    opponent: list[str] = []
    team_rim, disparity = array("d"), array("d")
    for i in range(n_games):
        hi, ai = rng.choice(n_teams, size=2, replace=False)
        home, away = team_names[hi], team_names[ai]
        crew = [referee_names[r] for r in rng.choice(n_referees, size=3, replace=False)]
        g_shock = float(rng.normal(0.0, 0.05))
        gid = sys.intern(f"{season}-pnl-{i:05d}")
        home_disparity = float(rng.normal(0.0, 4.0))
        for ref in crew:
            for side, opp, side_sign, disp in (
                (home, away, 1.0, home_disparity),
                (away, home, -1.0, -home_disparity),
            ):
                team_rim.append(
                    float(pairs.get((ref, side), 0.0))
                    + side_sign * g_shock
                    + float(rng.normal(0.0, 0.02))
                )
                disparity.append(disp)
                game_id.append(gid)
                referee.append(ref)
                team.append(side)
                opponent.append(opp)
    return PanelColumns(
        game_id=tuple(game_id), season=(season,) * len(game_id), referee=tuple(referee),
        team=tuple(team), opponent=tuple(opponent), team_rim=team_rim, disparity=disparity,
    )
