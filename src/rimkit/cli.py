"""Command-line entry points.

Exit codes: 0 on success, 2 for missing or invalid input (bad paths, bad
config, malformed data, infeasible simulation settings), 1 for anything
unexpected. Analysis commands write CSV tables plus a ``run.json`` echo of
the resolved configuration and input-dataset hashes.
"""

from __future__ import annotations

import argparse
import sys
import traceback
from dataclasses import fields
from pathlib import Path

from .config import (
    ConfigError,
    RunConfig,
    read_json_file,
    resolve_config,
    write_run_echo,
)
from .figures import (
    AnalysisContext,
    TableReport,
    emit_figures,
    validate_output_dir,
    write_tables,
)
from .inference import DesignError, TeamSideTarget
from .ingest import (
    DatasetError,
    IngestError,
    ingest_directory,
    load_dataset,
    write_dataset,
)
from .model import is_no_crew_only, validate_game
from .synth import SimConfig, SimConfigError, write_corpus

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_INPUT = 2


# ---------------------------------------------------------------------------
# Shared plumbing
# ---------------------------------------------------------------------------


def _overrides(args: argparse.Namespace) -> dict:
    """Every RunConfig setting given on the command line.

    ``refs --min-games N`` sets both qualification thresholds, over
    ``--min-games-regular`` and ``--min-games-postseason``, so ``run.json``
    echoes the thresholds the tables used.
    """
    out = {f.name: getattr(args, f.name, None) for f in fields(RunConfig)}
    if getattr(args, "min_games", None) is not None:
        out["min_games_regular"] = out["min_games_postseason"] = args.min_games
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
    games, _manifest = load_dataset(Path(cfg.dataset))
    for g in games:
        for name in g.crew:
            # The analyses key referees by name; anything else would be
            # ranked as a referee or fail to hash.
            if not isinstance(name, str):
                raise DatasetError(
                    f"game {g.game_id!r}: crew member {name!r:.40} is not a name; "
                    "`rimkit validate` lists every such violation"
                )
    if cfg.seasons:
        wanted = set(cfg.seasons)
        games = [g for g in games if g.season in wanted]
    if cfg.season_type:
        games = [g for g in games if g.season_type == cfg.season_type]
    if not games:
        raise DatasetError("no games left after season filters")
    return games


def _parse_colon_pair(text: str, what: str) -> tuple[str, str]:
    head, sep, tail = text.rpartition(":")
    if not sep or not head or not tail:
        raise ConfigError(f"{what} must look like LEFT:RIGHT, got {text!r}")
    return head, tail


def _write(
    cfg: RunConfig, args: argparse.Namespace, names: list[str]
) -> tuple[AnalysisContext, Path, TableReport]:
    """Load the dataset and write the named tables, honouring the command's
    own flags (``--target``, ``--pair``)."""
    games = _load_games(cfg)
    out = _require_out(cfg)
    ctx = AnalysisContext(games, cfg)
    if getattr(args, "target", None):
        ctx.targets = [
            TeamSideTarget(*_parse_colon_pair(text, "--target")) for text in args.target
        ]
    if getattr(args, "pair", None):
        ctx.pairs = [_parse_colon_pair(text, "--pair") for text in args.pair]
    return ctx, out, write_tables(ctx, names, out)


def _print_skipped(report: TableReport) -> None:
    for name, reason in sorted(report.skipped.items()):
        print(f"skipped: {name} ({reason})")


def _echo(out: Path, command: str, cfg: RunConfig) -> int:
    write_run_echo(out, command, cfg, Path(cfg.dataset))
    return EXIT_OK


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_ingest(cfg: RunConfig, args: argparse.Namespace) -> int:
    raw_dir = Path(args.raw_dir)
    if not raw_dir.is_dir():
        raise DatasetError(f"raw directory not found: {raw_dir}")
    dest = args.out_dir or cfg.dataset
    if not dest:
        raise ConfigError("a dataset destination is required (--out or dataset)")
    dataset_root = Path(dest)
    aliases = None
    if args.aliases:
        aliases = read_json_file(args.aliases, "aliases file")
        if not isinstance(aliases, dict) or not all(
            isinstance(k, str) and isinstance(v, str) and v.strip() for k, v in aliases.items()
        ):
            raise ConfigError("aliases file must map names to non-empty name strings")
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
            f"{'dataset has violations' if bad else 'dataset ok'}: "
            f"{manifest.total_games} games, "
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
    ctx, out, _ = _write(cfg, args, ["game_metrics"])
    print(f"game metrics written for {len(ctx.games)} games -> {out / 'game_metrics.csv'}")
    return _echo(out, "metrics", cfg)


def cmd_refs(cfg: RunConfig, args: argparse.Namespace) -> int:
    ctx, out, _ = _write(cfg, args, ["referee_summary", "referee_top_bottom"])
    summaries, _band = ctx.focus.referees
    print(f"{len(summaries)} qualified referees -> {out / 'referee_summary.csv'}")
    return _echo(out, "refs", cfg)


def cmd_outliers(cfg: RunConfig, args: argparse.Namespace) -> int:
    ctx, out, _ = _write(
        cfg, args, ["outlier_cells", "outlier_top_rim", "outlier_top_disparity"]
    )
    print(
        f"{len(ctx.focus.screen.qualified)} qualified referee-team cells "
        f"-> {out / 'outlier_cells.csv'}"
    )
    return _echo(out, "outliers", cfg)


def cmd_regress(cfg: RunConfig, args: argparse.Namespace) -> int:
    _, out, report = _write(
        cfg, args, ["regression_team_side", "regression_series", "regression_ref_team"]
    )
    _print_skipped(report)
    if not report.written:
        raise DesignError("no regression had usable targets or rows")
    print("written: " + ", ".join(f"{name}.csv" for name in report.written))
    return _echo(out, "regress", cfg)


def cmd_robustness(cfg: RunConfig, args: argparse.Namespace) -> int:
    _, out, report = _write(cfg, args, ["robustness"])
    if report.skipped:
        raise DesignError(report.skipped["robustness"])
    print(f"robustness diagnostics -> {out / 'robustness.csv'}")
    return _echo(out, "robustness", cfg)


def _effect_entries(data: dict, key: str, fields: str) -> list:
    entries = data.pop(key, [])
    if not isinstance(entries, list):
        raise SimConfigError(f"{key} must be a list of {{{fields}}} entries")
    return entries


def _parse_effects_file(path: str) -> dict:
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
            shifts[str(team)] = float(shift)
        except (TypeError, ValueError, OverflowError) as e:
            raise SimConfigError(f"bad team_home_shift entry: {team!r}: {shift!r}") from e
    out["team_home_shift"] = shifts
    pair = {}
    for entry in _effect_entries(data, "pair_shift", "referee, team, shift"):
        try:
            pair[(str(entry["referee"]), str(entry["team"]))] = float(entry["shift"])
        except (TypeError, KeyError, ValueError, OverflowError) as e:
            raise SimConfigError(f"bad pair_shift entry: {entry!r}") from e
    out["pair_shift"] = pair
    series = {}
    for entry in _effect_entries(data, "series_shift", "state, shift"):
        try:
            lo, hi = str(entry["state"]).split("--")
            series[(int(lo), int(hi))] = float(entry["shift"])
        except (TypeError, KeyError, ValueError, OverflowError) as e:
            raise SimConfigError(f"bad series_shift entry: {entry!r}") from e
    out["series_shift"] = series
    if data:
        raise SimConfigError(f"unknown effects keys: {sorted(data)}")
    return out


def cmd_simulate(cfg: RunConfig, args: argparse.Namespace) -> int:
    dest = args.out_dir or cfg.out_dir or cfg.dataset
    if not dest:
        raise ConfigError("a destination is required (--out)")
    root = Path(dest)
    # ``seed`` comes from the resolved config; on the command line ``seasons``
    # is the analysis filter, and ``--sim-seasons`` names the simulated ones.
    overrides = {"seed": cfg.seed}
    for f in fields(SimConfig):
        value = getattr(args, f.name, None)
        if value is not None and f.name not in ("seed", "seasons"):
            overrides[f.name] = value
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
    games = _load_games(cfg)
    out = _require_out(cfg)
    report = emit_figures(games, out, cfg)
    for name in report.written:
        print(f"written: {name}.csv")
    _print_skipped(report)
    return _echo(out, "emit-figures", cfg)


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
    ) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except Exception:  # pragma: no cover - last-resort boundary
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
