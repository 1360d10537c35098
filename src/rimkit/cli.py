"""Command-line entry points.

Exit codes: 0 on success, 2 for missing or invalid input (bad paths, bad
config, malformed data, infeasible simulation settings), 1 for anything
unexpected. Analysis commands write CSV tables plus a ``run.json`` echo of
the resolved configuration and input-dataset hashes.

A command imports the modules it runs and no others: the table registry
(``figures``) and the fits (``inference``) are imported inside
:func:`run_analysis`, so ``ingest``, ``validate`` and ``simulate`` start
without the analysis layers. ``synth`` is imported with this module,
since the parser builds ``simulate``'s flags from ``SimConfig``; it
imports only ``model``.
"""

from __future__ import annotations

import argparse
import sys
import traceback
from collections.abc import Callable
from dataclasses import fields
from pathlib import Path
from typing import TYPE_CHECKING

from .config import (
    ConfigError,
    RunConfig,
    read_json_file,
    resolve_config,
    write_run_echo,
)
from .ingest import (
    DatasetError,
    IngestError,
    ingest_directory,
    load_dataset,
    write_dataset,
)
from .model import (
    control_named,
    repeated_crew,
    unusable_values,
    validate_game,
)
from .synth import SimConfig, SimConfigError, read_effects_file, write_corpus

if TYPE_CHECKING:
    from .figures import AnalysisContext, TableReport

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


def _load_games(cfg: RunConfig):
    """The dataset's games, refused at the first value in load order that the
    analyses cannot use: one that :func:`unusable_values` yields (it reads
    the events only of a game the load kept as a tuple), a crew member that
    is not a string, which they would rank as a name, a team or crew name
    with a control character, which the tables would print
    (:func:`control_named`), or a crew member listed twice, who would be
    counted twice (:func:`repeated_crew`).
    """
    if not cfg.dataset:
        raise ConfigError("a dataset root is required (--dataset or dataset)")
    games, _manifest = load_dataset(Path(cfg.dataset))
    for g in games:
        problems = [f"{path} {value!r:.40} is not {what}"
                    for path, value, what in unusable_values(g)]
        problems += [f"crew member {name!r:.40} is not a name"
                     for name in g.crew if not isinstance(name, str)]
        problems += [f"{path} {name!r:.40} holds a control character"
                     for path, name in control_named(g)]
        problems += [f"{path} {name!r:.40} repeats {first}"
                     for path, name, first in repeated_crew(g)]
        if problems:
            raise DatasetError(f"game {g.game_id!r}: {problems[0]}; "
                               "`rimkit validate` lists every such violation")
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


def _destination(cfg: RunConfig, args: argparse.Namespace) -> Path:
    """Where ``ingest`` and ``simulate`` write a dataset: ``--out``, else the
    ``dataset`` setting, which the analysis commands then read."""
    dest = args.out_dir or cfg.dataset
    if not dest:
        raise ConfigError("a dataset destination is required (--out or dataset)")
    return Path(dest)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_ingest(cfg: RunConfig, args: argparse.Namespace) -> int:
    raw_dir = Path(args.raw_dir)
    if not raw_dir.is_dir():
        raise DatasetError(f"raw directory not found: {raw_dir}")
    dataset_root = _destination(cfg, args)
    aliases = None
    if args.aliases:
        aliases = read_json_file(args.aliases, "aliases file")
        if not isinstance(aliases, dict) or not all(
            isinstance(k, str) and isinstance(v, str) and v.strip() for k, v in aliases.items()
        ):
            raise ConfigError("aliases file must map names to non-empty name strings")
    games, report = ingest_directory(raw_dir, start_prior=cfg.start_prior, aliases=aliases)
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
            if violations:
                bad += 1
                for v in violations:
                    print(f"{g.game_id}: {v}")
            elif not g.crew:
                no_crew += 1  # kept by ingest on purpose
        print(
            f"{'dataset has violations' if bad else 'dataset ok'}: "
            f"{manifest.total_games} games, "
            f"{len(manifest.partitions)} partitions, {bad} with violations, "
            f"{no_crew} kept without a crew"
        )
        problems += bad
    if args.outputs:
        from .figures import validate_output_dir

        report = validate_output_dir(Path(args.outputs))
        for issue in report.issues:
            print(f"output issue: {issue}")
        print(f"outputs parsed: {len(report.files)} files")
        problems += len(report.issues)
    return EXIT_OK if problems == 0 else EXIT_INPUT


def cmd_simulate(cfg: RunConfig, args: argparse.Namespace) -> int:
    root = _destination(cfg, args)
    overrides = {n: getattr(args, n) for n in _SIM_SETTINGS if getattr(args, n) is not None}
    overrides["seed"] = cfg.seed  # the resolved seed, so a config file can set it
    if args.sim_seasons is not None:  # given with no labels is refused, not the default
        overrides["seasons"] = tuple(args.sim_seasons)
    if args.effects:
        overrides.update(read_effects_file(args.effects))
    sim = SimConfig(**overrides)
    _games, _ledger, manifest = write_corpus(sim, root)
    print(
        f"simulated {manifest.total_games} games across "
        f"{len(manifest.partitions)} partitions -> {root}"
    )
    write_run_echo(root, "simulate", cfg, root)
    return EXIT_OK


# Each analysis command: the tables it writes (None: every figure file the
# corpus supports, written by ``figures.emit_figures``, whose skip count
# perfbench reads) and its summary line, from the analysis context, the
# output directory and the write report.
_ANALYSES: dict[str, tuple[tuple[str, ...] | None,
                          Callable[[AnalysisContext, Path, TableReport], str]]] = {
    "metrics": (("game_metrics",), lambda ctx, out, _: (
        f"game metrics written for {len(ctx.games)} games -> {out / 'game_metrics.csv'}")),
    "refs": (("referee_summary", "referee_top_bottom"), lambda ctx, out, _: (
        f"{len(ctx.focus.referees[0])} qualified referees -> {out / 'referee_summary.csv'}")),
    "outliers": (("outlier_cells", "outlier_top_rim", "outlier_top_disparity"),
                 lambda ctx, out, _: (f"{len(ctx.focus.screen.qualified)} qualified "
                                      f"referee-team cells -> {out / 'outlier_cells.csv'}")),
    "regress": (("regression_team_side", "regression_series", "regression_ref_team"),
                lambda ctx, out, report: "written: " + ", ".join(
                    f"{name}.csv" for name in report.written)),
    "robustness": (("robustness",), lambda ctx, out, _: (
        f"robustness diagnostics -> {out / 'robustness.csv'}")),
    "emit-figures": (None, lambda ctx, out, report: "\n".join(
        f"written: {name}.csv" for name in report.written)),
}


def run_analysis(cfg: RunConfig, args: argparse.Namespace) -> int:
    """Run the analysis command ``args.command`` as ``_ANALYSES`` declares
    it: load the games, write its tables into ``--out`` (honouring its own
    ``--target`` and ``--pair``), print its summary line and then one line
    per skipped table, and echo ``run.json``.

    A command that wrote none of its tables is bad input; the error gives
    the reasons its tables were skipped.
    """
    from .figures import AnalysisContext, emit_figures, write_tables
    from .inference import DesignError, TeamSideTarget

    tables, summary = _ANALYSES[args.command]
    games = _load_games(cfg)
    if not cfg.out_dir:
        raise ConfigError("an output directory is required (--out or out_dir)")
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    ctx = AnalysisContext(games, cfg)
    if getattr(args, "target", None):
        ctx.targets = [
            TeamSideTarget(*_parse_colon_pair(text, "--target")) for text in args.target
        ]
    if getattr(args, "pair", None):
        ctx.pairs = [_parse_colon_pair(text, "--pair") for text in args.pair]
    report = emit_figures(games, out, cfg) if tables is None else write_tables(ctx, tables, out)
    if not report.written:
        raise DesignError("; ".join(report.skipped.values()))
    print(summary(ctx, out, report))
    for name, reason in sorted(report.skipped.items()):
        print(f"skipped: {name} ({reason})")
    write_run_echo(out, args.command, cfg, Path(cfg.dataset))
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

# A command's setting flags are built from the fields they set: the dest is
# the field name, the type that of its default (a tuple takes any number of
# strings, a None default one string) and the choices its metadata's. A flag
# is spelled ``--`` plus the name with dashes, except these.
_FLAG_NAMES = {
    "out_dir": "--out",
    "n_teams": "--teams",
    "n_referees": "--referees",
    "postseason_games_per_season": "--postseason-games",
}
_HELP = {
    "dataset": "canonical dataset root",
    "out_dir": "output directory",
    "seasons": "restrict to these season labels",
    "season_type": "restrict to one season type",
}

_FILTERS = ("dataset", "out_dir", "seasons", "season_type")
_STATS = ("min_pair_games", "table_k", "pair_k", "team_side_k", "target_form",
          "min_games_regular", "min_games_postseason")
# SimConfig's scalar settings: ``seasons`` comes from ``--sim-seasons``, the
# injected effects from the ``--effects`` file.
_SIM_SETTINGS = tuple(f.name for f in fields(SimConfig) if isinstance(f.default, (int, float)))
_RUN_SETTINGS = frozenset(f.name for f in fields(RunConfig))


def _add_settings(p: argparse.ArgumentParser, declared: type, names: tuple[str, ...]) -> None:
    by_name = {f.name: f for f in fields(declared)}
    for name in names:
        default = by_name[name].default
        p.add_argument(
            _FLAG_NAMES.get(name, "--" + name.replace("_", "-")),
            dest=name,
            type=type(default) if isinstance(default, (int, float)) else str,
            nargs="*" if isinstance(default, tuple) else None,
            choices=by_name[name].metadata.get("choices"),
            help=_HELP.get(name),
        )


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

    def command(name, func, summary, settings=_FILTERS + _STATS, sim_settings=()):
        # No abbreviations: ``validate --out`` must not pass for ``--outputs``.
        p = sub.add_parser(name, help=summary, allow_abbrev=False)
        _add_settings(p, RunConfig, settings)
        _add_settings(p, SimConfig, sim_settings)
        # The RunConfig settings the command applies, ``simulate``'s seed included.
        p.set_defaults(func=func, applies=_RUN_SETTINGS.intersection(settings + sim_settings))
        return p

    p = command("ingest", cmd_ingest, "parse raw feed documents into the canonical dataset",
                ("dataset", "out_dir", "start_prior"))
    p.add_argument("--raw-dir", required=True, help="directory of raw feed documents")
    p.add_argument("--aliases", help="JSON object of referee name aliases")
    p = command("validate", cmd_validate,
                "verify dataset integrity and/or re-parse emitted outputs", ("dataset",))
    p.add_argument("--outputs", help="directory of emitted CSV outputs to re-parse")
    command("metrics", run_analysis, "write per-game leverage metrics", _FILTERS)
    p = command("refs", run_analysis, "write per-referee distribution and ranking tables")
    p.add_argument("--min-games", dest="min_games", type=int,
                   help="qualification threshold (default: per season type)")
    command("outliers", run_analysis, "write referee-team excess screens")
    p = command("regress", run_analysis, "fit clustered fixed-effects regressions")
    p.add_argument("--target", action="append",
                   help="team-side target TEAM:home or TEAM:away (repeatable)")
    p.add_argument("--pair", action="append",
                   help="referee-team target REFEREE:TEAM (repeatable)")
    p = command("robustness", run_analysis,
                "write omitted-variable robustness diagnostics for targets")
    p.add_argument("--target", action="append", help="TEAM:home or TEAM:away")
    p = command("simulate", cmd_simulate, "write a synthetic corpus with a ground-truth ledger",
                ("dataset", "out_dir"), _SIM_SETTINGS)
    p.add_argument("--sim-seasons", dest="sim_seasons", nargs="*",
                   help="season labels to simulate")
    p.add_argument("--effects",
                   help="JSON file of injected effects (team_home_shift, pair_shift, series_shift)")
    command("emit-figures", run_analysis, "write every figure data file the corpus supports")
    return parser


def _input_errors() -> tuple[type[Exception], ...]:
    """The exceptions that mean bad input (exit 2), a path the command
    cannot read or write (any ``OSError``) included. Called only when a
    command fails, so a command that never loads ``inference`` does not
    load it to name ``DesignError``."""
    from .inference import DesignError

    return (ConfigError, IngestError, SimConfigError, DesignError, OSError)


def main(argv: list[str] | None = None) -> int:
    """Run one command and return its exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = resolve_config(args.config, _overrides(args), args.applies)
        return args.func(cfg, args)
    except _input_errors() as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except Exception:  # pragma: no cover - last-resort boundary
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
