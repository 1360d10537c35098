"""Output tables: one registry for every CLI command and figure file.

``TABLES`` maps each table name to its columns and a producer that reads an
:class:`AnalysisContext`; :func:`write_tables` writes any list of names.
Every file opens with '#'-prefixed comment lines (column descriptions,
notes and the screening disclaimer), followed by a single CSV header row
and data rows. Output is deterministic: fixed orderings, fixed 6-decimal
numeric formatting, UTF-8 with LF endings, no timestamps.
"""

from __future__ import annotations

import csv
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, dropwhile
from pathlib import Path

from .aggregate import (
    component_check_tables,
    home_away_summary,
    referee_distribution,
    series_state_summary,
    top_bottom_table,
)
from .config import RunConfig
from .inference import (
    DesignError,
    FitError,
    FitResult,
    TeamSideTarget,
    ref_team_residual_effects,
    series_state_effects,
    team_side_effects,
)
from .metrics import PERIOD_BUCKETS, compute_game_metrics, expand_rows, swing_per_call
from .model import POSTSEASON, REGULAR, GameRecord
from .outliers import build_cells, outlier_tables, panel_rows

DISCLAIMER = (
    "Screening statistics: leverage-weighted impact and association measures; "
    "not evidence of referee bias or intent."
)


@dataclass(frozen=True)
class Column:
    name: str
    kind: str  # "str" | "int" | "num"
    description: str


def format_value(value, kind: str) -> str:
    if value is None:
        return ""
    if kind == "int":
        return str(int(value))
    if kind == "num":
        return f"{float(value):.6f}"
    return str(value)


class _Echo:
    """A file whose ``write`` returns its argument, so a csv writer's
    ``writerow`` returns the record it formats."""

    def write(self, text: str) -> str:
        return text


# A csv writer quotes a value that holds a character of its line terminator:
# with "\r\n", every value holding a line feed or a carriage return. Each
# record's "\r\n" is then replaced by the files' LF.
_RECORDS = csv.writer(_Echo(), lineterminator="\r\n")


def write_table(
    path: Path,
    columns: Sequence[Column],
    rows: Iterable[Sequence],
    *,
    notes: Sequence[str] = (),
) -> None:
    """Write one table: its comment lines, then the header and data rows as
    CSV with LF line ends.

    A comment line (a column description or a note) that holds a line break
    raises ``ValueError`` naming the file, before it is written: a reader
    would take the line's second half as the header. A value holding a line
    break is quoted, so :func:`read_table` reads it back whole.
    """
    comments = [*(f"{c.name}: {c.description}" for c in columns),
                *(f"note: {note}" for note in notes), DISCLAIMER]
    for line in comments:
        if "\n" in line or "\r" in line:
            raise ValueError(f"{path}: a comment line holds a line break: {line!r}")
    records = chain([[c.name for c in columns]],
                    ([format_value(v, c.kind) for v, c in zip(row, columns)] for row in rows))
    text = "".join([*(f"# {line}\n" for line in comments),
                    *(_RECORDS.writerow(record)[:-2] + "\n" for record in records)])
    Path(path).write_bytes(text.encode("utf-8"))


def read_table(path: Path) -> tuple[list[str], list[list[str]]]:
    """Parse one emitted file back: (header, data rows).

    The comment and blank lines above the header are skipped; the rest of
    the file is one CSV stream, so a quoted value keeps its line breaks and
    a data row starting with '#' is a row. A blank line below the header is
    no row.
    """
    with open(path, encoding="utf-8", newline="") as fh:
        body = dropwhile(lambda ln: ln[:1] == "#" or not ln.strip("\r\n"), fh)
        parsed = [row for row in csv.reader(body) if row]
    if not parsed:
        raise ValueError(f"{path}: no header row")
    return parsed[0], parsed[1:]


@dataclass
class ValidationReport:
    files: dict[str, int]
    issues: list[str]

    @property
    def ok(self) -> bool:
        return not self.issues


def validate_output_dir(out_dir: Path) -> ValidationReport:
    """Re-parse every CSV in a directory, checking shape consistency."""
    out_dir = Path(out_dir)
    files: dict[str, int] = {}
    issues: list[str] = []
    paths = sorted(out_dir.glob("*.csv"))
    if not paths:
        issues.append(f"{out_dir}: no .csv outputs found")
    for path in paths:
        try:
            header, rows = read_table(path)
        except (ValueError, csv.Error) as e:
            issues.append(f"{path.name}: {e}")
            continue
        if len(set(header)) != len(header):
            issues.append(f"{path.name}: duplicate column names")
        width = len(header)
        for i, row in enumerate(rows):
            if len(row) != width:
                issues.append(
                    f"{path.name}: row {i + 1} has {len(row)} fields, "
                    f"header has {width}"
                )
                break
        files[path.name] = len(rows)
    return ValidationReport(files=files, issues=issues)


# ---------------------------------------------------------------------------
# Analysis context
# ---------------------------------------------------------------------------


class SkipTable(Exception):
    """The inputs cannot support a table; the message says why."""


def select_team_side_targets(teams, k: int) -> list[TeamSideTarget]:
    """Deterministic default targets: largest |home| and |away| mean disparity."""
    home_ranked = sorted(
        (t for t in teams if t.home_mean_disparity is not None),
        key=lambda t: (-abs(t.home_mean_disparity), t.team),
    )
    away_ranked = sorted(
        (t for t in teams if t.away_mean_disparity is not None),
        key=lambda t: (-abs(t.away_mean_disparity), t.team),
    )
    targets = [TeamSideTarget(t.team, "home") for t in home_ranked[:k]]
    targets += [TeamSideTarget(t.team, "away") for t in away_ranked[:k]]
    return targets


def select_outlier_pairs(tables, k: int):
    """Top-|excess| pairs per metric, deduplicated, order-stable."""
    seen = set()
    pairs = []
    for cell in list(tables.top_rim[:k]) + list(tables.top_disparity[:k]):
        key = (cell.referee, cell.team)
        if key not in seen:
            seen.add(key)
            pairs.append(key)
    return pairs


class _Slice:
    """One season type's games and the tables built from them alone."""

    def __init__(self, ctx: AnalysisContext, season_type: str):
        self.ctx = ctx
        self.season_type = season_type

    @cached_property
    def games(self) -> list[GameRecord]:
        return [g for g in self.ctx.games if g.season_type == self.season_type]

    @cached_property
    def rows(self):
        return [r for r in self.ctx.team_rows if r.season_type == self.season_type]

    @cached_property
    def min_games(self) -> int:
        cfg = self.ctx.cfg
        return cfg.min_games_postseason if self.season_type == POSTSEASON else cfg.min_games_regular

    @cached_property
    def referees(self):
        """Qualified referees' summaries and their band (None when none qualify)."""
        return referee_distribution(self.games, self.min_games)

    @cached_property
    def panel(self):
        """Crew panel rows and the count of games skipped for a missing crew."""
        return panel_rows(self.games)

    @cached_property
    def screen(self):
        cfg = self.ctx.cfg
        return outlier_tables(build_cells(self.panel[0]), cfg.min_pair_games, cfg.table_k)

    @cached_property
    def missing_crew_notes(self) -> list[str]:
        skipped = self.panel[1]
        return [f"games skipped for missing crew: {skipped}"] if skipped else []


class AnalysisContext:
    """Everything the output tables read, computed on first use and kept.

    Built from the loaded games and the run's settings. Each table's
    producer reads only what it needs, so a command computes only what its
    own tables read. Any cached attribute may be assigned before first use
    to replace its default (the CLI's explicit ``--target`` and ``--pair``).
    """

    def __init__(self, games: Sequence[GameRecord], cfg: RunConfig):
        self.games = games
        self.cfg = cfg

    @cached_property
    def team_rows(self):
        """Two mirrored team rows per game, from a single kernel pass."""
        return expand_rows(self.games)

    @cached_property
    def regular(self) -> _Slice:
        return _Slice(self, REGULAR)

    @cached_property
    def post(self) -> _Slice:
        return _Slice(self, POSTSEASON)

    @cached_property
    def focus(self) -> _Slice:
        """The slice ``refs`` and ``outliers`` describe: the configured season type, else regular."""
        return self.post if self.cfg.season_type == POSTSEASON else self.regular

    @cached_property
    def team_home_away(self):
        return home_away_summary(self.regular.rows)

    @cached_property
    def targets(self) -> list[TeamSideTarget]:
        return select_team_side_targets(self.team_home_away.teams, self.cfg.team_side_k)

    @cached_property
    def pairs(self) -> list[tuple[str, str]]:
        return select_outlier_pairs(self.regular.screen, self.cfg.pair_k)

    @cached_property
    def team_side_fits(self) -> dict[str, FitResult]:
        if not self.targets:
            raise SkipTable("no team-side targets available")
        return team_side_effects(
            self.regular.rows, self.targets, target_form=self.cfg.target_form
        )

    @cached_property
    def series_fits(self) -> dict[str, FitResult]:
        if not self.post.games:
            raise SkipTable("no postseason games in the corpus")
        return series_state_effects(self.post.rows)

    @cached_property
    def pair_fits(self) -> dict[str, FitResult]:
        if not self.pairs:
            raise SkipTable("no qualified referee-team pairs")
        return ref_team_residual_effects(
            self.regular.panel[0], self.pairs, min_pair_games=self.cfg.min_pair_games
        )


# ---------------------------------------------------------------------------
# Table producers: each returns (rows, notes) or raises SkipTable
# ---------------------------------------------------------------------------


def _pct(value: float | None) -> float | None:
    return value * 100.0 if value is not None else None


def _game_metrics(ctx):
    rows = []
    for g in sorted(ctx.games, key=lambda g: g.game_id):
        home, _, period_rim, _ = compute_game_metrics(g)
        rows.append(
            (
                g.game_id,
                g.season,
                g.season_type,
                g.home_team,
                g.away_team,
                home.n_calls,
                home.game_rim,
                swing_per_call(home.game_rim, home.n_calls),
                home.disparity,
                home.team_rim,
                *period_rim,
            )
        )
    return rows, []


def _referee_summary(ctx):
    s = ctx.focus
    summaries, band = s.referees
    rows = [
        (
            r.referee,
            r.games,
            r.mean_rim,
            r.mean_calls_per_game,
            r.mean_swing_per_call,
            r.mean_abs_disparity,
            band.mean if band else None,
            band.sd if band else None,
        )
        for r in summaries
    ]
    return rows, [f"season type: {s.season_type}; minimum games: {s.min_games}"]


def _top_bottom(s: _Slice):
    table = top_bottom_table(s.referees[0], s.ctx.cfg.table_k)
    rows = [(e.section, e.rank, e.label, e.games, e.value) for e in table.entries]
    return rows, table.truncated


def _referee_top_bottom(ctx):
    return _top_bottom(ctx.focus)[0], []


def _fig3(ctx):
    rows, truncated = _top_bottom(ctx.regular)
    return rows, (["fewer than 2k qualified referees; sections overlap"] if truncated else [])


def _band(s: _Slice):
    summaries, band = s.referees
    if band is None:
        raise SkipTable(
            "no qualified regular-season referees"
            if s.season_type == REGULAR
            else "no referee meets the postseason minimum"
        )
    rows = [
        (
            r.referee,
            r.games,
            r.mean_rim,
            r.mean_calls_per_game,
            _pct(r.mean_swing_per_call),
            r.mean_abs_disparity,
            band.mean,
            band.sd,
            band.lower,
            band.upper,
        )
        for r in summaries
    ]
    return rows, [f"minimum games: {s.min_games}"]


def _postseason(s: _Slice) -> _Slice:
    if not s.games:
        raise SkipTable("no postseason games in the corpus")
    return s


def _calls_vs_swing(summaries, notes):
    series = component_check_tables(summaries)
    rows = [(name, x, _pct(y), series.correlation) for name, x, y in series.points]
    return rows, notes


def _fig4(ctx):
    summaries = ctx.regular.referees[0]
    by_calls = sorted(summaries, key=lambda s: (-s.mean_calls_per_game, s.referee))
    by_swing = sorted(
        (s for s in summaries if s.mean_swing_per_call is not None),
        key=lambda s: (-s.mean_swing_per_call, s.referee),
    )
    swing_rank = {s.referee: i + 1 for i, s in enumerate(by_swing)}
    rows = [
        (
            s.referee,
            s.games,
            s.mean_calls_per_game,
            i + 1,
            _pct(s.mean_swing_per_call),
            swing_rank.get(s.referee),
        )
        for i, s in enumerate(by_calls)
    ]
    return rows, []


def _per_period(ctx, field: str):
    rows = [
        (s.referee, s.games, *(getattr(s, field)[b] for b in PERIOD_BUCKETS))
        for s in ctx.regular.referees[0]
    ]
    return rows, []


def _fig6(ctx):
    series = series_state_summary(_postseason(ctx.post).rows)
    rows = [
        (
            b.key.label,
            b.games,
            b.team_rows,
            b.mean_abs_disparity,
            b.mean_game_rim,
            series.games_missing_state,
        )
        for b in series.buckets
    ]
    return rows, []


def _fig8(ctx):
    league = home_away_summary(ctx.team_rows).league
    return [(s.season_type, s.side, s.n_rows, s.mean_disparity, s.mean_team_rim) for s in league], []


def _fig9(ctx):
    rows = [
        (
            t.team,
            t.home_games,
            t.away_games,
            t.home_mean_disparity,
            t.away_mean_disparity,
            t.home_mean_team_rim,
            t.away_mean_team_rim,
        )
        for t in ctx.team_home_away.teams
    ]
    return rows, []


def _cell_rows(cells):
    return [
        (
            c.referee,
            c.team,
            c.games,
            c.rim.excess,
            c.disparity.excess,
            c.rim.z,
            c.disparity.z,
            c.z_combined,
        )
        for c in cells
    ]


def _outlier_notes(s: _Slice) -> list[str]:
    head = f"season type: {s.season_type}; pair minimum: {s.ctx.cfg.min_pair_games} games"
    return [head, *s.missing_crew_notes, *s.screen.flags]


def _figure_cell_notes(ctx) -> list[str]:
    return [f"pair minimum: {ctx.cfg.min_pair_games} games", *ctx.regular.missing_crew_notes]


def _outlier_top(ctx, metric: str):
    s = ctx.focus
    rows = []
    for c in getattr(s.screen, f"top_{metric}"):
        m = getattr(c, metric)
        rows.append((c.referee, c.team, c.games, m.observed, m.excess, m.z))
    return rows, _outlier_notes(s)


def _figure_outliers(ctx, metric: str):
    rows = []
    for c in getattr(ctx.regular.screen, f"top_{metric}"):
        m = getattr(c, metric)
        rows.append(
            (c.referee, c.team, c.games, m.observed, m.referee_mean, m.team_mean, m.global_mean, m.excess)
        )
    return rows, _figure_cell_notes(ctx)


def _figA4(ctx):
    tables = ctx.regular.screen
    rows = [
        (c.referee, c.team, c.rim.excess, c.disparity.excess, tables.excess_correlation)
        for c in tables.qualified
    ]
    return rows, _figure_cell_notes(ctx)


def _fit_notes(fits: dict[str, FitResult]) -> list[str]:
    """Each fit's notes and the collinear columns it dropped, by outcome."""
    notes = []
    for outcome in sorted(fits):
        fit = fits[outcome]
        notes += [f"{outcome}: {note}" for note in fit.notes]
        if fit.dropped:
            notes.append(f"{outcome}: dropped collinear columns: " + ", ".join(fit.dropped))
    return notes


def _fit_table(ctx, family: str, notes: list[str], keep=None, *, strict: bool = False):
    """Coefficient rows of one fit family (only terms ``keep`` accepts), with
    the given notes followed by the fits' own.

    A fit the data cannot support skips the table, unless ``strict``: then
    the error reaches the caller, so that a team-side target the user named
    but no row matches fails ``regress`` instead of vanishing.
    """
    try:
        fits = getattr(ctx, family)
    except (DesignError, FitError) as e:
        if strict:
            raise
        raise SkipTable(str(e)) from e
    rows = [
        (
            outcome,
            c.term,
            c.estimate,
            c.se,
            c.t_stat,
            c.ci_lower,
            c.ci_upper,
            c.rho,
            fit.n_rows,
            fit.n_clusters,
            fit.dof,
        )
        for outcome, fit in sorted(fits.items())
        for c in fit.coef_rows()
        if keep is None or keep(c.term)
    ]
    return rows, [*notes, *_fit_notes(fits)]


def _robustness(ctx):
    fits = ctx.team_side_fits
    rows = [
        (outcome, c.term, c.estimate, c.se, c.t_stat, fit.dof, c.rho)
        for outcome, fit in sorted(fits.items())
        for c in fit.coef_rows()
        if "[" in c.term
    ]
    return rows, [f"target form: {ctx.cfg.target_form}"]


# ---------------------------------------------------------------------------
# The registry: every output table, its columns and its producer
# ---------------------------------------------------------------------------


_COEF_COLUMNS = [
    Column("outcome", "str", "fitted outcome"),
    Column("term", "str", "coefficient"),
    Column("estimate", "num", "point estimate"),
    Column("se", "num", "cluster-robust standard error"),
    Column("t_stat", "num", "estimate / se"),
    Column("ci_lower", "num", "95% interval lower bound"),
    Column("ci_upper", "num", "95% interval upper bound"),
    Column("rho", "num", "equal-strength confounder association that zeros t"),
    Column("n_rows", "int", "observations in the fit"),
    Column("n_clusters", "int", "games (clusters)"),
    Column("dof", "int", "degrees of freedom for intervals"),
]

_TOP_BOTTOM_COLUMNS = [
    Column("section", "str", "bottom / mean / top"),
    Column("rank", "int", "1 = most extreme within section"),
    Column("referee", "str", "crew member (or pooled label)"),
    Column("games", "int", "games worked (blank on the mean row)"),
    Column("mean_rim", "num", "mean per-game total call leverage"),
]

_BAND_COLUMNS = [
    Column("referee", "str", "crew member, canonical name"),
    Column("games", "int", "games worked in the slice"),
    Column("mean_rim", "num", "mean per-game total call leverage"),
    Column("mean_calls_per_game", "num", "mean calls per game"),
    Column(
        "mean_swing_per_call_pct",
        "num",
        "mean per-call leverage, percentage points (zero-call games skipped)",
    ),
    Column("mean_abs_disparity", "num", "mean absolute foul disparity"),
    Column("band_mean", "num", "mean of qualified referees' mean RIM"),
    Column("band_sd", "num", "sample sd of qualified referees' mean RIM"),
    Column("band_lower", "num", "band mean minus one sd"),
    Column("band_upper", "num", "band mean plus one sd"),
]

_SCATTER_COLUMNS = [
    Column("referee", "str", "crew member, canonical name"),
    Column("mean_calls_per_game", "num", "x value"),
    Column(
        "mean_swing_per_call_pct",
        "num",
        "y value (per-call leverage shown in percentage points)",
    ),
    Column("pearson_r", "num", "Pearson correlation over all rows (blank if undefined)"),
]

_OUTLIER_TOP_COLUMNS = [
    Column("referee", "str", "crew member, canonical name"),
    Column("team", "str", "team id"),
    Column("games", "int", "shared games"),
    Column("observed", "num", "pair mean"),
    Column("excess", "num", "observed minus additive baseline"),
    Column("z", "num", "z-score over qualified cells"),
]


def _excess_columns(what: str) -> list[Column]:
    return [
        Column("referee", "str", "crew member, canonical name"),
        Column("team", "str", "team id"),
        Column("games", "int", "shared games"),
        Column("observed", "num", f"pair mean {what}"),
        Column("referee_mean", "num", "referee mean over all rows"),
        Column("team_mean", "num", "team mean over all rows"),
        Column("global_mean", "num", "grand mean over all rows"),
        Column("excess", "num", "observed minus additive baseline"),
    ]


def _period_columns(prefix: str, description: str) -> list[Column]:
    return [
        Column("referee", "str", "crew member, canonical name"),
        Column("games", "int", "games worked"),
    ] + [
        Column(f"{prefix}_{b.lower()}", "num", description.format(b)) for b in PERIOD_BUCKETS
    ]


TABLES: dict[str, tuple[list[Column], Callable[[AnalysisContext], tuple[list, list[str]]]]] = {
    "game_metrics": (
        [
            Column("game_id", "str", "game identifier"),
            Column("season", "str", "season label"),
            Column("season_type", "str", "regular or postseason"),
            Column("home_team", "str", "home team id"),
            Column("away_team", "str", "away team id"),
            Column("n_calls", "int", "fouls with aligned win-probability samples"),
            Column("rim", "num", "total call leverage for the game"),
            Column("swing_per_call", "num", "rim / n_calls (blank when no calls)"),
            Column("home_disparity", "num", "away fouls minus home fouls"),
            Column("home_team_rim", "num", "signed call leverage toward the home team"),
            Column("rim_q1", "num", "Q1 call leverage"),
            Column("rim_q2", "num", "Q2 call leverage"),
            Column("rim_q3", "num", "Q3 call leverage"),
            Column("rim_q4", "num", "Q4 call leverage"),
            Column("rim_ot", "num", "overtime call leverage"),
        ],
        _game_metrics,
    ),
    "referee_summary": (
        [
            Column("referee", "str", "crew member, canonical name"),
            Column("games", "int", "games worked"),
            Column("mean_rim", "num", "mean per-game total call leverage"),
            Column("mean_calls_per_game", "num", "mean calls per game"),
            Column("mean_swing_per_call", "num", "mean per-call leverage"),
            Column("mean_abs_disparity", "num", "mean absolute foul disparity"),
            Column("band_mean", "num", "mean across qualified referees"),
            Column("band_sd", "num", "sample sd across qualified referees"),
        ],
        _referee_summary,
    ),
    "referee_top_bottom": (_TOP_BOTTOM_COLUMNS, _referee_top_bottom),
    "outlier_cells": (
        [
            Column("referee", "str", "crew member, canonical name"),
            Column("team", "str", "team id"),
            Column("games", "int", "shared games"),
            Column("excess_rim", "num", "leverage excess vs additive baseline"),
            Column("excess_disparity", "num", "disparity excess vs additive baseline"),
            Column("z_rim", "num", "z-score over qualified cells"),
            Column("z_disparity", "num", "z-score over qualified cells"),
            Column("z_combined", "num", "z_rim + z_disparity"),
        ],
        lambda ctx: (_cell_rows(ctx.focus.screen.qualified), _outlier_notes(ctx.focus)),
    ),
    "outlier_top_rim": (_OUTLIER_TOP_COLUMNS, lambda ctx: _outlier_top(ctx, "rim")),
    "outlier_top_disparity": (_OUTLIER_TOP_COLUMNS, lambda ctx: _outlier_top(ctx, "disparity")),
    "regression_team_side": (
        _COEF_COLUMNS,
        lambda ctx: _fit_table(
            ctx, "team_side_fits", [f"target form: {ctx.cfg.target_form}"], strict=True
        ),
    ),
    "regression_series": (
        _COEF_COLUMNS,
        lambda ctx: _fit_table(ctx, "series_fits", ["reference level 0--0"]),
    ),
    "regression_ref_team": (
        _COEF_COLUMNS,
        lambda ctx: _fit_table(
            ctx, "pair_fits", [f"pair minimum: {ctx.cfg.min_pair_games} games"]
        ),
    ),
    "robustness": (
        [
            Column("outcome", "str", "fitted outcome"),
            Column("term", "str", "target coefficient"),
            Column("estimate", "num", "point estimate"),
            Column("se", "num", "cluster-robust standard error"),
            Column("t_stat", "num", "estimate / se"),
            Column("dof", "int", "degrees of freedom"),
            Column(
                "rho",
                "num",
                "equal-strength confounder association with treatment and "
                "outcome needed to drive the estimate to zero",
            ),
        ],
        _robustness,
    ),
    "fig1_rim_distribution": (_BAND_COLUMNS, lambda ctx: _band(ctx.regular)),
    "fig2_component_calls_swing": (
        _SCATTER_COLUMNS,
        lambda ctx: _calls_vs_swing(
            ctx.regular.referees[0], [f"minimum games: {ctx.regular.min_games}"]
        ),
    ),
    "fig3_top_bottom": (_TOP_BOTTOM_COLUMNS, _fig3),
    "fig4_volume_swing": (
        [
            Column("referee", "str", "crew member, canonical name"),
            Column("games", "int", "games worked"),
            Column("mean_calls_per_game", "num", "volume component"),
            Column("calls_rank", "int", "rank by volume, 1 highest"),
            Column("mean_swing_per_call_pct", "num", "per-call leverage, percentage points"),
            Column("swing_rank", "int", "rank by per-call leverage, 1 highest"),
        ],
        _fig4,
    ),
    "fig5_quarter_rim": (
        _period_columns("rim", "mean {} call leverage per game"),
        lambda ctx: _per_period(ctx, "per_quarter_rim"),
    ),
    "fig6_series_summary": (
        [
            Column("series_state", "str", "canonical pregame series score (lo--hi)"),
            Column("games", "int", "games at the state"),
            Column("team_rows", "int", "team-game observations at the state"),
            Column("mean_abs_disparity", "num", "mean absolute foul disparity"),
            Column("mean_game_rim", "num", "mean total call leverage"),
            Column("games_missing_state", "int", "postseason games lacking a state"),
        ],
        _fig6,
    ),
    "fig7_postseason_distribution": (_BAND_COLUMNS, lambda ctx: _band(_postseason(ctx.post))),
    "fig8_home_away": (
        [
            Column("season_type", "str", "regular or postseason"),
            Column("side", "str", "home or away"),
            Column("n_rows", "int", "team-game observations"),
            Column("mean_disparity", "num", "mean signed foul disparity"),
            Column("mean_team_rim", "num", "mean signed team call leverage"),
        ],
        _fig8,
    ),
    "fig9_team_home_away": (
        [
            Column("team", "str", "team id"),
            Column("home_games", "int", "home games"),
            Column("away_games", "int", "away games"),
            Column("home_mean_disparity", "num", "mean signed disparity at home"),
            Column("away_mean_disparity", "num", "mean signed disparity away"),
            Column("home_mean_team_rim", "num", "mean signed team leverage at home"),
            Column("away_mean_team_rim", "num", "mean signed team leverage away"),
        ],
        _fig9,
    ),
    "fig10_ref_team_rim_outliers": (
        _excess_columns("signed team leverage"),
        lambda ctx: _figure_outliers(ctx, "rim"),
    ),
    "fig11_ref_team_disp_outliers": (
        _excess_columns("signed foul disparity"),
        lambda ctx: _figure_outliers(ctx, "disparity"),
    ),
    "fig12_series_effects": (
        _COEF_COLUMNS,
        lambda ctx: _fit_table(
            ctx,
            "series_fits",
            ["reference level 0--0; controls: home team, away team, season"],
            lambda t: t.startswith("series_"),
        ),
    ),
    "fig13_team_side_effects": (
        _COEF_COLUMNS,
        lambda ctx: _fit_table(
            ctx, "team_side_fits", [f"target form: {ctx.cfg.target_form}"], lambda t: "[" in t
        ),
    ),
    "fig14_ref_team_effects": (
        _COEF_COLUMNS,
        lambda ctx: _fit_table(
            ctx,
            "pair_fits",
            [f"pair minimum: {ctx.cfg.min_pair_games} games"],
            lambda t: t.startswith("pair_"),
        ),
    ),
    "figA1_component_no_min": (
        _SCATTER_COLUMNS,
        lambda ctx: _calls_vs_swing(
            referee_distribution(ctx.regular.games, 1)[0],
            ["no minimum-games threshold"],
        ),
    ),
    "figA2_quarter_disparity": (
        _period_columns("abs_disparity", "mean absolute {} foul disparity"),
        lambda ctx: _per_period(ctx, "per_quarter_abs_disparity"),
    ),
    "figA3_ref_team_z_map": (
        [
            Column("referee", "str", "crew member, canonical name"),
            Column("team", "str", "team id"),
            Column("games", "int", "shared games"),
            Column("excess_rim", "num", "leverage excess vs additive baseline"),
            Column("excess_disparity", "num", "disparity excess vs additive baseline"),
            Column("z_rim", "num", "z-score of leverage excess over qualified cells"),
            Column("z_disparity", "num", "z-score of disparity excess"),
            Column("z_combined", "num", "z_rim + z_disparity"),
        ],
        lambda ctx: (
            _cell_rows(ctx.regular.screen.qualified),
            _figure_cell_notes(ctx) + list(ctx.regular.screen.flags),
        ),
    ),
    "figA4_excess_scatter": (
        [
            Column("referee", "str", "crew member, canonical name"),
            Column("team", "str", "team id"),
            Column("excess_rim", "num", "leverage excess"),
            Column("excess_disparity", "num", "disparity excess"),
            Column("pearson_r", "num", "correlation across qualified cells (blank if undefined)"),
        ],
        _figA4,
    ),
}

FIGURE_FILES = tuple(name for name in TABLES if name.startswith("fig"))


# ---------------------------------------------------------------------------
# Writing
# ---------------------------------------------------------------------------


@dataclass
class TableReport:
    written: list[str]
    skipped: dict[str, str]


def write_tables(ctx: AnalysisContext, names: Iterable[str], out_dir: Path) -> TableReport:
    """Write each named table as ``<name>.csv`` in ``out_dir``, in order.

    A table whose producer raises :class:`SkipTable` is not written; its
    reason lands in the report instead.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    report = TableReport(written=[], skipped={})
    for name in names:
        columns, produce = TABLES[name]
        try:
            rows, notes = produce(ctx)
        except SkipTable as e:
            report.skipped[name] = str(e)
            continue
        write_table(out_dir / f"{name}.csv", columns, rows, notes=notes)
        report.written.append(name)
    return report


def emit_figures(games: Sequence[GameRecord], out_dir: Path, cfg: RunConfig) -> TableReport:
    """Write every figure file the corpus supports into ``out_dir``.

    Postseason figures are skipped (with a reason) when the corpus has no
    postseason games; everything else always emits, even with zero data
    rows, so downstream tooling sees a stable file set.
    """
    report = write_tables(AnalysisContext(games, cfg), FIGURE_FILES, out_dir)
    report.written.sort()
    return report
