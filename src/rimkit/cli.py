"""Command-line entry points.

Exit codes: 0 on success, 2 for missing or invalid input (bad paths, bad
config, malformed data, infeasible simulation settings), 1 for anything
unexpected. Analysis commands write CSV tables plus a ``run.json`` echo of
the resolved configuration and input-dataset hashes.
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback
from pathlib import Path

from .aggregate import home_away_summary, referee_distribution, top_bottom_table
from .config import (
    ConfigError,
    RunConfig,
    resolve_config,
    write_run_echo,
)
from .figures import (
    Column,
    FigureOptions,
    emit_figures,
    select_outlier_pairs,
    select_team_side_targets,
    validate_output_dir,
    write_table,
)
from .inference import (
    DesignError,
    FitError,
    TeamSideTarget,
    ref_team_residual_effects,
    series_state_effects,
    team_side_effects,
)
from .ingest import (
    DatasetError,
    IngestError,
    ingest_directory,
    load_dataset,
    write_dataset,
)
from .metrics import compute_game_metrics, expand_rows
from .model import POSTSEASON, REGULAR, is_no_crew_only, validate_game
from .outliers import build_cells, outlier_tables, panel_rows
from .synth import SimConfig, SimConfigError, write_corpus

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_INPUT = 2

_FIT_CSV_COLUMNS = [
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


# ---------------------------------------------------------------------------
# Shared plumbing
# ---------------------------------------------------------------------------


def _overrides(args: argparse.Namespace) -> dict:
    keys = (
        "dataset",
        "out_dir",
        "cache_dir",
        "seasons",
        "season_type",
        "min_games_regular",
        "min_games_postseason",
        "min_pair_games",
        "table_k",
        "pair_k",
        "team_side_k",
        "target_form",
        "small_sample",
        "dof_mode",
        "seed",
        "start_prior",
        "network",
        "rate_limit_per_minute",
        "summary_url",
        "wp_url",
    )
    out = {}
    for key in keys:
        value = getattr(args, key, None)
        if value is not None:
            if key == "seasons":
                value = tuple(value)
            out[key] = value
    return out


def _require_out(cfg: RunConfig) -> Path:
    if not cfg.out_dir:
        raise ConfigError("an output directory is required (--out or out_dir)")
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_games(cfg: RunConfig):
    if not cfg.dataset:
        raise ConfigError("a dataset root is required (--dataset or dataset)")
    root = Path(cfg.dataset)
    games, _manifest = load_dataset(root)
    if cfg.seasons:
        wanted = set(cfg.seasons)
        games = [g for g in games if g.season in wanted]
    if cfg.season_type:
        games = [g for g in games if g.season_type == cfg.season_type]
    if not games:
        raise DatasetError("no games left after season filters")
    return games, root


def _figure_options(cfg: RunConfig) -> FigureOptions:
    return FigureOptions(
        min_games_regular=cfg.min_games_regular,
        min_games_postseason=cfg.min_games_postseason,
        min_pair_games=cfg.min_pair_games,
        table_k=cfg.table_k,
        pair_k=cfg.pair_k,
        team_side_k=cfg.team_side_k,
        target_form=cfg.target_form,
        small_sample=cfg.small_sample,
        dof_mode=cfg.dof_mode,
    )


def _fit_rows(fits, keep=lambda term: True):
    rows = []
    for outcome in sorted(fits):
        fit = fits[outcome]
        for c in fit.coef_rows():
            if keep(c.term):
                rows.append(
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
                )
    return rows


def _fit_notes(fits) -> list[str]:
    """Each fit's notes and the collinear columns it dropped, by outcome."""
    notes = []
    for outcome in sorted(fits):
        fit = fits[outcome]
        notes += [f"{outcome}: {note}" for note in fit.notes]
        if fit.dropped:
            notes.append(f"{outcome}: dropped collinear columns: " + ", ".join(fit.dropped))
    return notes


def _parse_colon_pair(text: str, what: str) -> tuple[str, str]:
    head, sep, tail = text.rpartition(":")
    if not sep or not head or not tail:
        raise ConfigError(f"{what} must look like LEFT:RIGHT, got {text!r}")
    return head, tail


def _default_targets(games, cfg: RunConfig):
    rows = expand_rows([g for g in games if g.season_type == REGULAR])
    summary = home_away_summary(rows, REGULAR)
    return select_team_side_targets(summary.teams, cfg.team_side_k)


def _default_pairs(games, cfg: RunConfig):
    rows, _ = panel_rows([g for g in games if g.season_type == REGULAR])
    tables = outlier_tables(build_cells(rows), cfg.min_pair_games, cfg.table_k)
    return select_outlier_pairs(tables, cfg.pair_k)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_ingest(cfg: RunConfig, args: argparse.Namespace) -> int:
    raw_dir = Path(args.raw_dir)
    if not raw_dir.is_dir():
        raise DatasetError(f"raw directory not found: {raw_dir}")
    dataset_root = Path(args.out_dir or cfg.dataset or "")
    if not str(dataset_root):
        raise ConfigError("a dataset destination is required (--out or dataset)")
    aliases = None
    if args.aliases:
        aliases = json.loads(Path(args.aliases).read_text(encoding="utf-8"))
        if not isinstance(aliases, dict):
            raise ConfigError("aliases file must hold a JSON object")
    games, report = ingest_directory(
        raw_dir, start_prior=cfg.start_prior, aliases=aliases
    )
    manifest = write_dataset(games, dataset_root, quarantine=report.quarantine_counts())
    print(f"documents seen: {report.documents_seen}")
    for key, value in sorted(report.quarantine_counts().items()):
        print(f"{key}: {value}")
    print(f"games written: {manifest.total_games} -> {dataset_root}")
    write_run_echo(dataset_root, "ingest", cfg, dataset_root)
    return EXIT_OK


def cmd_validate(cfg: RunConfig, args: argparse.Namespace) -> int:
    problems = 0
    if not cfg.dataset and not args.outputs:
        raise ConfigError("nothing to validate: give --dataset and/or --outputs")
    if cfg.dataset:
        games, manifest = load_dataset(Path(cfg.dataset))
        bad = no_crew = 0
        for g in games:
            violations = validate_game(g)
            if is_no_crew_only(violations):
                no_crew += 1  # kept by ingest on purpose; a soft flag
            elif violations:
                bad += 1
                for v in violations:
                    print(f"{g.game_id}: {v}")
        print(
            f"dataset ok: {manifest.total_games} games, "
            f"{len(manifest.partitions)} partitions, {bad} with violations, "
            f"{no_crew} kept without a crew"
        )
        problems += bad
    if args.outputs:
        report = validate_output_dir(Path(args.outputs))
        for issue in report.issues:
            print(f"output issue: {issue}")
        print(f"outputs parsed: {len(report.files)} files")
        problems += len(report.issues)
    return EXIT_OK if problems == 0 else EXIT_INPUT


def cmd_metrics(cfg: RunConfig, args: argparse.Namespace) -> int:
    games, root = _load_games(cfg)
    out = _require_out(cfg)
    rows = []
    for g in sorted(games, key=lambda g: g.game_id):
        m = compute_game_metrics(g)
        per = m.per_period
        rows.append(
            (
                g.game_id,
                g.season,
                g.season_type,
                g.home_team,
                g.away_team,
                m.n_calls,
                m.rim,
                m.swing,
                m.home_row.disparity,
                m.home_row.team_rim,
                per["Q1"].rim,
                per["Q2"].rim,
                per["Q3"].rim,
                per["Q4"].rim,
                per["OT"].rim,
            )
        )
    write_table(
        out / "game_metrics.csv",
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
        rows,
    )
    print(f"game metrics written for {len(rows)} games -> {out / 'game_metrics.csv'}")
    write_run_echo(out, "metrics", cfg, root)
    return EXIT_OK


def cmd_refs(cfg: RunConfig, args: argparse.Namespace) -> int:
    games, root = _load_games(cfg)
    out = _require_out(cfg)
    season_type = cfg.season_type or REGULAR
    if args.min_games is not None:
        min_games = args.min_games
    elif season_type == POSTSEASON:
        min_games = cfg.min_games_postseason
    else:
        min_games = cfg.min_games_regular
    slice_games = [g for g in games if g.season_type == season_type]
    summaries, band = referee_distribution(slice_games, season_type, min_games)
    rows = []
    for s in summaries:
        rows.append(
            (
                s.referee,
                s.games,
                s.mean_rim,
                s.mean_calls_per_game,
                s.mean_swing_per_call,
                s.mean_abs_disparity,
                band.mean if band else None,
                band.sd if band else None,
            )
        )
    write_table(
        out / "referee_summary.csv",
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
        rows,
        notes=[f"season type: {season_type}; minimum games: {min_games}"],
    )
    table = top_bottom_table(summaries, cfg.table_k)
    write_table(
        out / "referee_top_bottom.csv",
        [
            Column("section", "str", "bottom / mean / top"),
            Column("rank", "int", "1 = most extreme within section"),
            Column("referee", "str", "crew member (or pooled label)"),
            Column("games", "int", "games worked (blank on the mean row)"),
            Column("mean_rim", "num", "mean per-game total call leverage"),
        ],
        [(e.section, e.rank, e.label, e.games, e.value) for e in table.entries],
    )
    print(f"{len(summaries)} qualified referees -> {out / 'referee_summary.csv'}")
    write_run_echo(out, "refs", cfg, root)
    return EXIT_OK


def cmd_outliers(cfg: RunConfig, args: argparse.Namespace) -> int:
    games, root = _load_games(cfg)
    out = _require_out(cfg)
    season_type = cfg.season_type or REGULAR
    rows, skipped = panel_rows([g for g in games if g.season_type == season_type])
    cells = build_cells(rows)
    tables = outlier_tables(cells, cfg.min_pair_games, cfg.table_k)
    notes = [f"season type: {season_type}; pair minimum: {cfg.min_pair_games} games"]
    if skipped:
        notes.append(f"games skipped for missing crew: {skipped}")
    notes.extend(tables.flags)
    cell_columns = [
        Column("referee", "str", "crew member, canonical name"),
        Column("team", "str", "team id"),
        Column("games", "int", "shared games"),
        Column("excess_rim", "num", "leverage excess vs additive baseline"),
        Column("excess_disparity", "num", "disparity excess vs additive baseline"),
        Column("z_rim", "num", "z-score over qualified cells"),
        Column("z_disparity", "num", "z-score over qualified cells"),
        Column("z_combined", "num", "z_rim + z_disparity"),
    ]
    write_table(
        out / "outlier_cells.csv",
        cell_columns,
        [
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
            for c in tables.qualified
        ],
        notes=notes,
    )
    top_columns = [
        Column("referee", "str", "crew member, canonical name"),
        Column("team", "str", "team id"),
        Column("games", "int", "shared games"),
        Column("observed", "num", "pair mean"),
        Column("excess", "num", "observed minus additive baseline"),
        Column("z", "num", "z-score over qualified cells"),
    ]
    write_table(
        out / "outlier_top_rim.csv",
        top_columns,
        [
            (c.referee, c.team, c.games, c.rim.observed, c.rim.excess, c.rim.z)
            for c in tables.top_rim
        ],
        notes=notes,
    )
    write_table(
        out / "outlier_top_disparity.csv",
        top_columns,
        [
            (
                c.referee,
                c.team,
                c.games,
                c.disparity.observed,
                c.disparity.excess,
                c.disparity.z,
            )
            for c in tables.top_disparity
        ],
        notes=notes,
    )
    print(
        f"{len(tables.qualified)} qualified referee-team cells "
        f"-> {out / 'outlier_cells.csv'}"
    )
    write_run_echo(out, "outliers", cfg, root)
    return EXIT_OK


def _run_team_side(games, cfg: RunConfig, targets):
    rows = expand_rows([g for g in games if g.season_type == REGULAR])
    return team_side_effects(
        rows,
        targets,
        target_form=cfg.target_form,
        small_sample=cfg.small_sample,
        dof_mode=cfg.dof_mode,
    )


def cmd_regress(cfg: RunConfig, args: argparse.Namespace) -> int:
    games, root = _load_games(cfg)
    out = _require_out(cfg)
    if args.target:
        targets = []
        for text in args.target:
            team, side = _parse_colon_pair(text, "--target")
            targets.append(TeamSideTarget(team, side))
    else:
        targets = _default_targets(games, cfg)
    if args.pair:
        pairs = [_parse_colon_pair(text, "--pair") for text in args.pair]
    else:
        pairs = _default_pairs(games, cfg)

    written = []
    if targets:
        fits = _run_team_side(games, cfg, targets)
        write_table(
            out / "regression_team_side.csv",
            _FIT_CSV_COLUMNS,
            _fit_rows(fits),
            notes=[f"target form: {cfg.target_form}", *_fit_notes(fits)],
        )
        written.append("regression_team_side.csv")

    post_rows = expand_rows([g for g in games if g.season_type == POSTSEASON])
    if post_rows:
        try:
            series_fits = series_state_effects(
                post_rows, small_sample=cfg.small_sample, dof_mode=cfg.dof_mode
            )
        except (DesignError, FitError) as e:
            print(f"series fit skipped: {e}")
        else:
            write_table(
                out / "regression_series.csv",
                _FIT_CSV_COLUMNS,
                _fit_rows(series_fits),
                notes=["reference level 0--0", *_fit_notes(series_fits)],
            )
            written.append("regression_series.csv")

    if pairs:
        panel, _ = panel_rows([g for g in games if g.season_type == REGULAR])
        try:
            pair_fits = ref_team_residual_effects(
                panel,
                pairs,
                min_pair_games=cfg.min_pair_games,
                small_sample=cfg.small_sample,
                dof_mode=cfg.dof_mode,
            )
        except (DesignError, FitError) as e:
            print(f"referee-team fit skipped: {e}")
        else:
            write_table(
                out / "regression_ref_team.csv",
                _FIT_CSV_COLUMNS,
                _fit_rows(pair_fits),
                notes=[f"pair minimum: {cfg.min_pair_games} games", *_fit_notes(pair_fits)],
            )
            written.append("regression_ref_team.csv")

    if not written:
        raise DesignError("no regression had usable targets or rows")
    print("written: " + ", ".join(written))
    write_run_echo(out, "regress", cfg, root)
    return EXIT_OK


def cmd_robustness(cfg: RunConfig, args: argparse.Namespace) -> int:
    games, root = _load_games(cfg)
    out = _require_out(cfg)
    if args.target:
        targets = [
            TeamSideTarget(*_parse_colon_pair(text, "--target"))
            for text in args.target
        ]
    else:
        targets = _default_targets(games, cfg)
    if not targets:
        raise DesignError("no team-side targets available")
    fits = _run_team_side(games, cfg, targets)
    write_table(
        out / "robustness.csv",
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
        [
            (outcome, c.term, c.estimate, c.se, c.t_stat, fits[outcome].dof, c.rho)
            for outcome in sorted(fits)
            for c in fits[outcome].coef_rows()
            if "[" in c.term
        ],
        notes=[f"target form: {cfg.target_form}"],
    )
    print(f"robustness diagnostics -> {out / 'robustness.csv'}")
    write_run_echo(out, "robustness", cfg, root)
    return EXIT_OK


def _parse_effects_file(path: str) -> dict:
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(data, dict):
        raise SimConfigError("effects file must hold a JSON object")
    out: dict = {}
    team_home = data.pop("team_home_shift", {})
    if not isinstance(team_home, dict):
        raise SimConfigError("team_home_shift must map team -> shift")
    out["team_home_shift"] = {str(k): float(v) for k, v in team_home.items()}
    pair = {}
    for entry in data.pop("pair_shift", []):
        try:
            pair[(str(entry["referee"]), str(entry["team"]))] = float(entry["shift"])
        except (TypeError, KeyError) as e:
            raise SimConfigError(f"bad pair_shift entry: {entry!r}") from e
    out["pair_shift"] = pair
    series = {}
    for entry in data.pop("series_shift", []):
        try:
            lo, hi = str(entry["state"]).split("--")
            series[(int(lo), int(hi))] = float(entry["shift"])
        except (TypeError, KeyError, ValueError) as e:
            raise SimConfigError(f"bad series_shift entry: {entry!r}") from e
    out["series_shift"] = series
    if data:
        raise SimConfigError(f"unknown effects keys: {sorted(data)}")
    return out


def cmd_simulate(cfg: RunConfig, args: argparse.Namespace) -> int:
    root = Path(args.out_dir or cfg.out_dir or cfg.dataset or "")
    if not str(root):
        raise ConfigError("a destination is required (--out)")
    overrides = {"seed": cfg.seed}
    for name in (
        "n_teams",
        "n_referees",
        "crew_size",
        "games_per_season",
        "postseason_games_per_season",
        "fouls_mean",
        "fouls_dispersion",
        "move_scale",
        "benefit_prob",
        "overtime_rate",
        "unattributed_rate",
        "missing_series_rate",
    ):
        value = getattr(args, name, None)
        if value is not None:
            overrides[name] = value
    if args.sim_seasons:
        overrides["seasons"] = tuple(args.sim_seasons)
    if args.effects:
        overrides.update(_parse_effects_file(args.effects))
    sim = SimConfig(**overrides)
    _games, _ledger, manifest = write_corpus(sim, root)
    print(
        f"simulated {manifest.total_games} games across "
        f"{len(manifest.partitions)} partitions -> {root}"
    )
    write_run_echo(root, "simulate", cfg, root)
    return EXIT_OK


def cmd_emit_figures(cfg: RunConfig, args: argparse.Namespace) -> int:
    games, root = _load_games(cfg)
    out = _require_out(cfg)
    report = emit_figures(games, out, _figure_options(cfg))
    for name in report.written:
        print(f"written: {name}.csv")
    for name, reason in sorted(report.skipped.items()):
        print(f"skipped: {name} ({reason})")
    write_run_echo(out, "emit-figures", cfg, root)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rimkit",
        description=(
            "Leverage-weighted officiating statistics: ingest play-by-play "
            "with win-probability feeds, compute per-game and per-referee "
            "metrics, screen referee-team cells, and fit clustered "
            "fixed-effects regressions with robustness diagnostics."
        ),
    )
    parser.add_argument(
        "--config",
        help="flat JSON settings file (default: $RIMKIT_CONFIG if set)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--dataset", help="canonical dataset root")
    common.add_argument("--out", dest="out_dir", help="output directory")
    common.add_argument(
        "--seasons", nargs="*", help="restrict to these season labels"
    )
    common.add_argument(
        "--season-type",
        dest="season_type",
        choices=("regular", "postseason"),
        help="restrict to one season type",
    )

    stats = argparse.ArgumentParser(add_help=False)
    stats.add_argument("--min-pair-games", dest="min_pair_games", type=int)
    stats.add_argument("--table-k", dest="table_k", type=int)
    stats.add_argument("--pair-k", dest="pair_k", type=int)
    stats.add_argument("--team-side-k", dest="team_side_k", type=int)
    stats.add_argument(
        "--target-form", dest="target_form", choices=("indicator", "paired")
    )
    stats.add_argument("--small-sample", dest="small_sample", choices=("cr0", "cr1"))
    stats.add_argument("--dof-mode", dest="dof_mode", choices=("residual", "cluster"))
    stats.add_argument("--min-games-regular", dest="min_games_regular", type=int)
    stats.add_argument(
        "--min-games-postseason", dest="min_games_postseason", type=int
    )

    p = sub.add_parser(
        "ingest",
        parents=[common],
        help="parse raw feed documents into the canonical dataset",
    )
    p.add_argument("--raw-dir", required=True, help="directory of raw feed documents")
    p.add_argument("--aliases", help="JSON object of referee name aliases")
    p.add_argument("--start-prior", dest="start_prior", type=float)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser(
        "validate",
        parents=[common],
        help="verify dataset integrity and/or re-parse emitted outputs",
    )
    p.add_argument("--outputs", help="directory of emitted CSV outputs to re-parse")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser(
        "metrics", parents=[common], help="write per-game leverage metrics"
    )
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser(
        "refs",
        parents=[common, stats],
        help="write per-referee distribution and ranking tables",
    )
    p.add_argument(
        "--min-games",
        dest="min_games",
        type=int,
        help="qualification threshold (default: per season type)",
    )
    p.set_defaults(func=cmd_refs)

    p = sub.add_parser(
        "outliers",
        parents=[common, stats],
        help="write referee-team excess screens",
    )
    p.set_defaults(func=cmd_outliers)

    p = sub.add_parser(
        "regress",
        parents=[common, stats],
        help="fit clustered fixed-effects regressions",
    )
    p.add_argument(
        "--target",
        action="append",
        help="team-side target TEAM:home or TEAM:away (repeatable)",
    )
    p.add_argument(
        "--pair",
        action="append",
        help="referee-team target REFEREE:TEAM (repeatable)",
    )
    p.set_defaults(func=cmd_regress)

    p = sub.add_parser(
        "robustness",
        parents=[common, stats],
        help="write omitted-variable robustness diagnostics for targets",
    )
    p.add_argument("--target", action="append", help="TEAM:home or TEAM:away")
    p.set_defaults(func=cmd_robustness)

    p = sub.add_parser(
        "simulate",
        parents=[common],
        help="write a synthetic corpus with a ground-truth ledger",
    )
    p.add_argument("--seed", type=int, dest="seed")
    p.add_argument("--teams", dest="n_teams", type=int)
    p.add_argument("--referees", dest="n_referees", type=int)
    p.add_argument("--crew-size", dest="crew_size", type=int)
    p.add_argument("--games-per-season", dest="games_per_season", type=int)
    p.add_argument(
        "--postseason-games", dest="postseason_games_per_season", type=int
    )
    p.add_argument(
        "--sim-seasons",
        dest="sim_seasons",
        nargs="*",
        help="season labels to simulate",
    )
    p.add_argument("--fouls-mean", dest="fouls_mean", type=float)
    p.add_argument("--fouls-dispersion", dest="fouls_dispersion", type=float)
    p.add_argument("--move-scale", dest="move_scale", type=float)
    p.add_argument("--benefit-prob", dest="benefit_prob", type=float)
    p.add_argument("--overtime-rate", dest="overtime_rate", type=float)
    p.add_argument("--unattributed-rate", dest="unattributed_rate", type=float)
    p.add_argument("--missing-series-rate", dest="missing_series_rate", type=float)
    p.add_argument(
        "--effects",
        help="JSON file of injected effects (team_home_shift, pair_shift, series_shift)",
    )
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser(
        "emit-figures",
        parents=[common, stats],
        help="write every figure data file the corpus supports",
    )
    p.set_defaults(func=cmd_emit_figures)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = resolve_config(args.config, _overrides(args))
        return args.func(cfg, args)
    except (
        ConfigError,
        IngestError,
        SimConfigError,
        DesignError,
        FileNotFoundError,
        NotADirectoryError,
        json.JSONDecodeError,
    ) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except Exception:  # pragma: no cover - last-resort boundary
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
