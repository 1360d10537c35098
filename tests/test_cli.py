"""Command-line interface tests: exit codes, config resolution, the run
echo, and the full simulate-to-figures pipeline in a temp directory."""

import hashlib
import json

import pytest

from rimkit.cli import main
from rimkit.figures import FIGURE_FILES, read_table
from rimkit.ingest import load_dataset

from conftest import play, summary_doc, wp_doc


def run(capsys, *argv: str) -> tuple[int, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out + captured.err


def simulate_small(capsys, root, *extra: str) -> None:
    code, out = run(
        capsys,
        "simulate",
        "--out",
        str(root),
        "--seed",
        "5",
        "--teams",
        "8",
        "--referees",
        "12",
        "--games-per-season",
        "160",
        "--postseason-games",
        "40",
        "--fouls-mean",
        "15",
        *extra,
    )
    assert code == 0, out
    assert "simulated 200 games" in out


def test_full_pipeline_end_to_end(tmp_path, capsys):
    ds = tmp_path / "ds"
    simulate_small(capsys, ds)
    assert (ds / "run.json").exists()
    assert (ds / "ledger.json").exists()

    mt = tmp_path / "metrics"
    code, out = run(capsys, "metrics", "--dataset", str(ds), "--out", str(mt))
    assert code == 0, out
    header, rows = read_table(mt / "game_metrics.csv")
    assert len(rows) == 200
    assert header[0] == "game_id"
    assert len(header) == 15

    rf = tmp_path / "refs"
    code, out = run(
        capsys,
        "refs",
        "--dataset",
        str(ds),
        "--out",
        str(rf),
        "--min-games",
        "1",
    )
    assert code == 0, out
    _, ref_rows = read_table(rf / "referee_summary.csv")
    assert len(ref_rows) == 12
    assert (rf / "referee_top_bottom.csv").exists()

    ol = tmp_path / "outliers"
    code, out = run(
        capsys,
        "outliers",
        "--dataset",
        str(ds),
        "--out",
        str(ol),
        "--min-pair-games",
        "2",
    )
    assert code == 0, out
    for name in ("outlier_cells", "outlier_top_rim", "outlier_top_disparity"):
        assert (ol / f"{name}.csv").exists()

    rg = tmp_path / "regress"
    code, out = run(
        capsys,
        "regress",
        "--dataset",
        str(ds),
        "--out",
        str(rg),
        "--min-pair-games",
        "2",
    )
    assert code == 0, out
    assert "regression_team_side.csv" in out
    assert (rg / "regression_team_side.csv").exists()
    assert (rg / "regression_series.csv").exists()
    assert (rg / "regression_ref_team.csv").exists()

    rb = tmp_path / "robust"
    code, out = run(
        capsys,
        "robustness",
        "--dataset",
        str(ds),
        "--out",
        str(rb),
        "--target",
        "T03:home",
    )
    assert code == 0, out
    header, rows = read_table(rb / "robustness.csv")
    term_idx = header.index("term")
    assert rows and all(r[term_idx] == "T03:home[indicator]" for r in rows)

    figs = tmp_path / "figs"
    code, out = run(
        capsys,
        "emit-figures",
        "--dataset",
        str(ds),
        "--out",
        str(figs),
        "--min-games-regular",
        "2",
        "--min-games-postseason",
        "2",
        "--min-pair-games",
        "2",
        "--team-side-k",
        "2",
    )
    assert code == 0, out
    for name in FIGURE_FILES:
        assert (figs / f"{name}.csv").exists()

    code, out = run(
        capsys,
        "validate",
        "--dataset",
        str(ds),
        "--outputs",
        str(figs),
    )
    assert code == 0, out
    assert "dataset ok: 200 games" in out
    assert f"outputs parsed: {len(FIGURE_FILES)} files" in out


def test_run_echo_shape(tmp_path, capsys):
    ds = tmp_path / "ds"
    simulate_small(capsys, ds)
    mt = tmp_path / "m"
    code, _ = run(capsys, "metrics", "--dataset", str(ds), "--out", str(mt))
    assert code == 0
    doc = json.loads((mt / "run.json").read_text(encoding="utf-8"))
    assert set(doc) == {"command", "config", "inputs"}
    assert doc["command"] == "metrics"
    assert doc["config"]["dataset"] == str(ds)
    assert doc["config"]["table_k"] == 10
    assert doc["inputs"]["total_games"] == 200
    assert doc["inputs"]["partitions"]
    assert doc["inputs"]["root"] == str(ds)


def test_config_file_env_fallback_and_flag_precedence(tmp_path, capsys, monkeypatch):
    ds = tmp_path / "ds"
    simulate_small(capsys, ds)
    cfg_out = tmp_path / "from-config"
    cfg_path = tmp_path / "settings.json"
    cfg_path.write_text(
        json.dumps({"dataset": str(ds), "out_dir": str(cfg_out)}),
        encoding="utf-8",
    )

    monkeypatch.setenv("RIMKIT_CONFIG", str(cfg_path))
    code, _ = run(capsys, "metrics")
    assert code == 0
    assert (cfg_out / "game_metrics.csv").exists()

    flag_out = tmp_path / "from-flag"
    code, _ = run(capsys, "metrics", "--out", str(flag_out))
    assert code == 0
    assert (flag_out / "game_metrics.csv").exists()
    doc = json.loads((flag_out / "run.json").read_text(encoding="utf-8"))
    assert doc["config"]["out_dir"] == str(flag_out)

    # An explicit --config wins over the environment variable.
    monkeypatch.setenv("RIMKUT_CONFIG", "ignored")
    monkeypatch.setenv("RIMKIT_CONFIG", str(tmp_path / "missing.json"))
    explicit_out = tmp_path / "explicit"
    code, _ = run(
        capsys, "--config", str(cfg_path), "metrics", "--out", str(explicit_out)
    )
    assert code == 0
    assert (explicit_out / "game_metrics.csv").exists()


def test_bad_inputs_exit_two(tmp_path, capsys):
    ds = tmp_path / "ds"
    simulate_small(capsys, ds)

    code, out = run(
        capsys, "metrics", "--dataset", str(tmp_path / "nope"), "--out", str(tmp_path / "o1")
    )
    assert code == 2 and "error:" in out

    code, out = run(capsys, "metrics", "--dataset", str(ds))
    assert code == 2 and "output directory" in out

    code, out = run(
        capsys,
        "metrics",
        "--dataset",
        str(ds),
        "--out",
        str(tmp_path / "o2"),
        "--seasons",
        "1999-00",
    )
    assert code == 2 and "no games left" in out

    bad_cfg = tmp_path / "bad.json"
    bad_cfg.write_text('{"dataset": 3}', encoding="utf-8")
    code, out = run(capsys, "--config", str(bad_cfg), "metrics")
    assert code == 2

    unknown_cfg = tmp_path / "unknown.json"
    unknown_cfg.write_text('{"no_such_key": 1}', encoding="utf-8")
    code, out = run(capsys, "--config", str(unknown_cfg), "metrics")
    assert code == 2 and "no_such_key" in out

    broken_cfg = tmp_path / "broken.json"
    broken_cfg.write_text("{not json", encoding="utf-8")
    code, out = run(capsys, "--config", str(broken_cfg), "metrics")
    assert code == 2

    code, out = run(
        capsys,
        "simulate",
        "--out",
        str(tmp_path / "sim2"),
        "--crew-size",
        "9",
        "--referees",
        "3",
    )
    assert code == 2 and "infeasible" in out

    code, out = run(capsys, "simulate", "--out", str(tmp_path / "sim-neg"),
                    "--games-per-season", "-5", "--postseason-games", "-3")
    assert code == 2 and "games_per_season must be >= 0" in out, out
    assert not (tmp_path / "sim-neg").exists()

    for value in ("nan", "inf"):
        code, out = run(
            capsys, "simulate", "--out", str(tmp_path / "sim-nf"), "--fouls-mean", value
        )
        assert code == 2 and "error: fouls_mean must be finite" in out, out

    for flag, value in (("--overtime-rate", "5"), ("--unattributed-rate", "-1"),
                        ("--missing-series-rate", "3")):
        sim = tmp_path / "sim-rate"
        code, out = run(capsys, "simulate", "--out", str(sim), flag, value)
        name = flag[2:].replace("-", "_")
        assert code == 2 and f"error: {name} must be a probability" in out, out
        assert not sim.exists()

    bad_effects = [
        ('{"pair_shift": [{"referee": "Ref01", "team": "T01", "shift": "abc"}]}',
         "bad pair_shift entry"),
        ('{"team_home_shift": {"T01": "x"}}', "bad team_home_shift entry: 'T01': 'x'"),
        ('{"pair_shift": [{"referee": "Ref01", "team": "T01", "shift": 1e400}]}',
         "pair_shift ('Ref01', 'T01'): shift must be finite"),
        ('{"team_home_shift": {"T01": 1e400}}', "team_home_shift 'T01': shift must be finite"),
        ('{"pair_shift": 5}', "pair_shift must be a list of {referee, team, shift} entries"),
        ('{"series_shift": null}', "series_shift must be a list of {state, shift} entries"),
        ('{"series_shift": 3}', "series_shift must be a list of {state, shift} entries"),
    ]
    for i, (text, message) in enumerate(bad_effects):
        effects = tmp_path / f"effects{i}.json"
        effects.write_text(text, encoding="utf-8")
        sim = tmp_path / f"sim-effects{i}"
        code, out = run(capsys, "simulate", "--out", str(sim), "--effects", str(effects))
        assert code == 2 and f"error: {message}" in out, out
        assert not (sim / "ledger.json").exists()

    not_utf8 = tmp_path / "not-utf8.json"
    not_utf8.write_bytes(b"\xff\xfe")
    too_deep = tmp_path / "too-deep.json"
    too_deep.write_text("[" * 100_000, encoding="utf-8")
    for bad in (not_utf8, too_deep):
        for argv in (
            ["--config", str(bad), "metrics"],
            ["simulate", "--out", str(tmp_path / "sim-u"), "--effects", str(bad)],
            ["ingest", "--raw-dir", str(tmp_path), "--out", str(tmp_path / "ds-u"),
             "--aliases", str(bad)],
        ):
            code, out = run(capsys, *argv)
            assert code == 2 and f"error: {bad}: invalid" in out, out
            assert "Traceback" not in out

    code, out = run(
        capsys,
        "regress",
        "--dataset",
        str(ds),
        "--out",
        str(tmp_path / "o3"),
        "--target",
        "missing-colon",
    )
    assert code == 2 and "LEFT:RIGHT" in out

    code, out = run(capsys, "validate")
    assert code == 2 and "nothing to validate" in out


@pytest.mark.parametrize(
    "argv",
    [["simulate", "--games-per-season", "4", "--teams", "4", "--referees", "4"],
     ["ingest", "--raw-dir", "raw"]],
    ids=["simulate", "ingest"],
)
def test_a_command_without_a_destination_writes_nothing(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.delenv("RIMKIT_CONFIG", raising=False)
    (tmp_path / "raw").mkdir()
    monkeypatch.chdir(tmp_path)
    code, out = run(capsys, *argv)
    assert code == 2 and "destination is required" in out, out
    assert [p.name for p in tmp_path.iterdir()] == ["raw"]
    assert not any((tmp_path / "raw").iterdir())


def test_an_out_path_that_is_a_file_is_an_input_error(tmp_path, capsys):
    # Each used to exit 1 with a FileExistsError traceback.
    afile = tmp_path / "afile"
    afile.write_text("kept\n", encoding="utf-8")
    code, out = run(capsys, "simulate", "--out", str(afile), "--games-per-season", "4",
                    "--teams", "4", "--referees", "4")
    assert code == 2 and "error:" in out and "Traceback" not in out, out
    ds = tmp_path / "ds"
    simulate_small(capsys, ds)
    code, out = run(capsys, "metrics", "--dataset", str(ds), "--out", str(afile))
    assert code == 2 and "error:" in out and "Traceback" not in out, out
    assert afile.read_text(encoding="utf-8") == "kept\n"


def test_refs_rejects_a_min_games_below_one(tmp_path, capsys):
    ds = tmp_path / "ds"
    simulate_small(capsys, ds)
    out = tmp_path / "refs"
    code, text = run(capsys, "refs", "--dataset", str(ds), "--out", str(out), "--min-games", "0")
    assert code == 2
    assert "error: min_games_regular must be at least 1" in text
    assert "Traceback" not in text
    assert not out.exists()


def test_refs_min_games_sets_both_thresholds_and_echoes_them(tmp_path, capsys):
    # The echo used to keep the default thresholds while the tables used N.
    ds = tmp_path / "ds"
    simulate_small(capsys, ds)
    out = tmp_path / "refs"
    code, text = run(capsys, "refs", "--dataset", str(ds), "--out", str(out),
                     "--min-games-regular", "40", "--min-games", "5")
    assert code == 0, text
    config = json.loads((out / "run.json").read_text(encoding="utf-8"))["config"]
    assert (config["min_games_regular"], config["min_games_postseason"]) == (5, 5)
    notes = (out / "referee_summary.csv").read_text(encoding="utf-8")
    assert "minimum games: 5" in notes


@pytest.mark.parametrize(
    "setting, message",
    [
        ("table_k", "table_k must be an integer"),
        ("min_games_regular", "min_games_regular must be an integer"),
        ("start_prior", "start_prior must be a number"),
        ("target_form", "target_form must be a string"),
        ("seasons", "seasons must be a list of strings"),
    ],
    ids=["table_k", "min_games_regular", "start_prior", "target_form", "seasons"],
)
def test_a_null_setting_in_a_config_file_is_an_input_error(tmp_path, capsys, setting, message):
    # A null used to reach the settings' checks as None: exit 1 with a
    # TypeError, or, for seasons, an echo of null.
    cfg = tmp_path / "settings.json"
    cfg.write_text(json.dumps({setting: None}), encoding="utf-8")
    out = tmp_path / "refs"
    code, text = run(capsys, "--config", str(cfg), "refs", "--dataset", str(tmp_path / "ds"),
                     "--out", str(out))
    assert code == 2, text
    assert f"error: {message}" in text
    assert not out.exists()


def test_a_null_seed_is_refused_and_null_paths_are_unset(tmp_path, capsys):
    cfg = tmp_path / "settings.json"
    cfg.write_text('{"seed": null}', encoding="utf-8")
    sim = tmp_path / "sim"
    small = ["--out", str(sim), "--games-per-season", "4", "--teams", "4", "--referees", "4"]
    code, text = run(capsys, "--config", str(cfg), "simulate", *small)
    assert code == 2 and "error: seed must be an integer" in text, text
    assert not sim.exists()

    cfg.write_text('{"dataset": null, "out_dir": null, "season_type": null}', encoding="utf-8")
    code, text = run(capsys, "--config", str(cfg), "simulate", *small)
    assert code == 0, text
    config = json.loads((sim / "run.json").read_text(encoding="utf-8"))["config"]
    assert (config["dataset"], config["season_type"], config["seed"]) == (None, None, 0)


def test_every_setting_can_be_given_on_the_command_line(tmp_path):
    # A setting with no way in is a knob nobody can turn: make it a constant.
    import argparse
    from dataclasses import fields

    from rimkit.cli import build_parser
    from rimkit.config import RunConfig
    from rimkit.inference import TARGET_FORMS
    from rimkit.model import SEASON_TYPES
    from rimkit.synth import SimConfig, read_effects_file

    parser = build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    dests = {name: {a.dest for a in sub._actions} for name, sub in subparsers.choices.items()}
    effects = tmp_path / "effects.json"
    effects.write_text('{"team_home_shift": {}, "pair_shift": [], "series_shift": []}',
                       encoding="utf-8")
    # On the command line --seasons filters the analysis; --sim-seasons simulates.
    simulate = {"seasons" if d == "sim_seasons" else d for d in dests["simulate"]}
    simulate |= set(read_effects_file(str(effects)))
    assert [f.name for f in fields(SimConfig) if f.name not in simulate] == []
    every_dest = set().union(*dests.values())
    assert [f.name for f in fields(RunConfig) if f.name not in every_dest] == []

    # Each setting flag parses to its field's type and offers its choice set.
    choice_sets = {"season_type": SEASON_TYPES, "target_form": TARGET_FORMS}
    run_fields = {f.name: f for f in fields(RunConfig)}
    sim_fields = {f.name: f for f in fields(SimConfig)}
    checked = set()
    for name, sub in subparsers.choices.items():
        declared = run_fields | sim_fields if name == "simulate" else run_fields
        for action in sub._actions:
            if action.dest not in declared:
                continue
            default = declared[action.dest].default
            want_type = type(default) if isinstance(default, (int, float)) else str
            assert action.type is want_type, (name, action.dest)
            assert action.nargs == ("*" if isinstance(default, tuple) else None), action.dest
            assert action.choices == choice_sets.get(action.dest), (name, action.dest)
            checked.add(action.dest)
    assert set(choice_sets) <= checked and {"start_prior", "fouls_mean", "seasons"} <= checked


_NON_ANALYSIS = {
    "ingest": ["ingest", "--raw-dir", "raw", "--out", "new"],
    "validate": ["validate", "--dataset", "ds"],
    "simulate": ["simulate", "--out", "new", "--games-per-season", "4", "--teams", "4",
                 "--referees", "4"],
}
_IGNORED = [(command, flag) for command in _NON_ANALYSIS
            for flag in (["--seasons", "1999-00"], ["--season-type", "regular"])]


@pytest.mark.parametrize("command, flag", _IGNORED + [("validate", ["--out", "v1"])],
                         ids=lambda v: v if isinstance(v, str) else v[0][2:])
def test_a_command_refuses_a_setting_it_would_ignore(
    tmp_path, capsys, monkeypatch, command, flag
):
    # These commands used to accept the analysis filters and echo them
    # unused: `simulate --seasons 2019-20` simulated 2021-22.
    monkeypatch.delenv("RIMKIT_CONFIG", raising=False)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "raw").mkdir()
    simulate_small(capsys, tmp_path / "ds")
    before = sorted(str(p) for p in tmp_path.rglob("*"))
    with pytest.raises(SystemExit) as exit_info:
        main(_NON_ANALYSIS[command] + flag)
    assert exit_info.value.code == 2
    assert "unrecognized arguments: " + flag[0] in capsys.readouterr().err
    assert sorted(str(p) for p in tmp_path.rglob("*")) == before


def test_simulate_writes_to_the_dataset_its_readers_load(tmp_path, capsys, monkeypatch):
    # With one shared config simulate used to prefer out_dir over dataset,
    # so the analysis commands found no manifest at the dataset path.
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "settings.json"
    cfg.write_text('{"dataset": "ds", "out_dir": "out"}', encoding="utf-8")
    small = ["--games-per-season", "20", "--teams", "4", "--referees", "4"]
    code, text = run(capsys, "--config", str(cfg), "simulate", *small)
    assert code == 0, text
    assert (tmp_path / "ds" / "manifest.json").exists() and not (tmp_path / "out").exists()
    code, text = run(capsys, "--config", str(cfg), "metrics")
    assert code == 0, text
    assert (tmp_path / "out" / "game_metrics.csv").exists()


def test_validate_flags_corruption_and_bad_outputs(tmp_path, capsys):
    ds = tmp_path / "ds"
    simulate_small(capsys, ds)
    part = next(ds.glob("**/*.jsonl"))
    part.write_bytes(part.read_bytes() + b"\n")
    code, out = run(capsys, "validate", "--dataset", str(ds))
    assert code == 2
    assert "hash mismatch" in out

    outputs = tmp_path / "outputs"
    outputs.mkdir()
    (outputs / "ragged.csv").write_text("a,b\n1\n", encoding="utf-8")
    code, out = run(capsys, "validate", "--outputs", str(outputs))
    assert code == 2
    assert "output issue" in out


def test_validate_accepts_kept_no_crew_games(tmp_path, capsys):
    # Ingest keeps games with an empty crew on purpose (a soft flag), so
    # validate counts them and still passes the dataset.
    from dataclasses import replace

    from rimkit.ingest import write_dataset
    from rimkit.synth import SimConfig, generate

    games, _ = generate(SimConfig(seed=3, n_teams=6, n_referees=9, games_per_season=20,
                                  postseason_games_per_season=0, seasons=("2021-22",)))
    games = [replace(g, crew=()) if i in (2, 5) else g for i, g in enumerate(games)]
    write_dataset(games, tmp_path / "ds")
    code, out = run(capsys, "validate", "--dataset", str(tmp_path / "ds"))
    assert code == 0, out
    assert out.splitlines()[0].startswith("dataset ok: 20 games")
    assert "0 with violations, 2 kept without a crew" in out
    assert "crew:" not in out


def test_validate_reports_a_dataset_with_violations_as_such(tmp_path, capsys):
    from dataclasses import replace

    from rimkit.ingest import write_dataset
    from rimkit.synth import SimConfig, generate

    games, _ = generate(SimConfig(seed=3, n_teams=6, n_referees=9, games_per_season=20,
                                  postseason_games_per_season=0, seasons=("2021-22",)))
    games = [replace(g, away_team=g.home_team) if i == 4 else g for i, g in enumerate(games)]
    write_dataset(games, tmp_path / "ds")
    code, out = run(capsys, "validate", "--dataset", str(tmp_path / "ds"))
    assert code == 2, out
    assert "dataset ok" not in out
    assert "dataset has violations: 20 games, 1 partitions, 1 with violations" in out


def test_validate_flags_a_crew_member_that_is_not_a_name(tmp_path, capsys):
    from dataclasses import replace

    from rimkit.ingest import write_dataset
    from rimkit.synth import SimConfig, generate

    games, _ = generate(SimConfig(seed=3, n_teams=6, n_referees=9, games_per_season=20,
                                  postseason_games_per_season=0, seasons=("2021-22",)))
    games = [replace(g, crew=(g.crew[0], 5)) if i == 7 else g for i, g in enumerate(games)]
    write_dataset(games, tmp_path / "ds")
    code, out = run(capsys, "validate", "--dataset", str(tmp_path / "ds"))
    assert code == 2, out
    assert f"{games[7].game_id}: crew[1]: 5 is not a non-empty name" in out
    assert "dataset has violations: 20 games, 1 partitions, 1 with violations" in out


@pytest.mark.parametrize("command", ["refs", "emit-figures"])
@pytest.mark.parametrize("member", [5, ["Ref X"]], ids=["number", "list"])
def test_analyses_refuse_a_crew_member_that_is_not_a_name(tmp_path, capsys, command, member):
    # A number would be ranked as a referee and a list cannot key one, so
    # the analyses stop at load and point at `validate`.
    from dataclasses import replace

    from rimkit.ingest import write_dataset
    from rimkit.synth import SimConfig, generate

    games, _ = generate(SimConfig(seed=3, n_teams=6, n_referees=9, games_per_season=20,
                                  postseason_games_per_season=0, seasons=("2021-22",)))
    games = [replace(g, crew=(g.crew[0], member)) if i == 7 else g for i, g in enumerate(games)]
    write_dataset(games, tmp_path / "ds")
    out_dir = tmp_path / "out"
    code, out = run(capsys, command, "--dataset", str(tmp_path / "ds"), "--out", str(out_dir))
    assert code == 2, out
    assert f"error: game '{games[7].game_id}': crew member {member!r} is not a name" in out
    assert "`rimkit validate`" in out
    assert not out_dir.exists()


def test_validate_reports_non_string_and_non_numeric_fields(tmp_path, capsys):
    # A hand-edited dataset whose manifest hashes still match: validate must
    # report the wrongly typed fields, not fail on them.
    def edit(first):
        first["season"] = 2021
        first["events"][0]["period"] = "1"
        first["events"][1]["pre_wp"] = "0.5"

    ds = tmp_path / "ds"
    first = _small_dataset_with_first_game_edited(ds, edit)

    code, out = run(capsys, "validate", "--dataset", str(ds))
    assert code == 2, out
    assert "Traceback" not in out
    gid = first["game_id"]
    assert f"{gid}: season: 2021 is not a string" in out
    assert f"{gid}: events[0].period: '1' is not a number" in out
    assert f"{gid}: events[1].pre_wp: '0.5' is not a number" in out
    assert "dataset has violations: 20 games, 1 partitions, 1 with violations" in out


def _small_dataset_with_first_game_edited(ds, edit) -> dict:
    """A 20-game dataset whose first line ``edit`` changed in place, its
    manifest hash updated to match; returns the edited game's dict."""
    return _small_dataset_with_games_edited(ds, {0: edit})[0]


def _small_dataset_with_games_edited(ds, edits) -> list[dict]:
    """A 20-game dataset whose line ``i`` ``edits[i]`` changed in place (a
    string replaces the line), its manifest hash updated to match; returns
    every game's dict, in line order."""
    from rimkit.ingest import write_dataset
    from rimkit.synth import SimConfig, generate

    games, _ = generate(SimConfig(seed=3, n_teams=6, n_referees=9, games_per_season=20,
                                  postseason_games_per_season=0, seasons=("2021-22",)))
    write_dataset(games, ds)
    manifest = json.loads((ds / "manifest.json").read_text(encoding="utf-8"))
    part = manifest["partitions"][0]
    path = ds / part["path"]
    lines = path.read_text(encoding="utf-8").splitlines()
    stored = [json.loads(line) for line in lines]
    for i, edit in edits.items():
        if isinstance(edit, str):
            lines[i] = edit
        else:
            edit(stored[i])
            lines[i] = json.dumps(stored[i])
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    part["sha256"] = hashlib.sha256(path.read_bytes()).hexdigest()
    (ds / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    return stored


ANALYSES = ["metrics", "refs", "outliers", "regress", "robustness", "emit-figures"]


@pytest.mark.parametrize("command", ANALYSES)
@pytest.mark.parametrize(
    "edit, problem, reported",
    [
        (lambda g: g.update(game_id=12345), "game_id 12345 is not a string",
         "game_id: 12345 is not a string"),
        (lambda g: g.update(home_team=7), "home_team 7 is not a string",
         "home_team: 7 is not a string"),
        (lambda g: g["events"][1].update(pre_wp="0.5"), "events[1].pre_wp '0.5' is not a number",
         "events[1].pre_wp: '0.5' is not a number"),
        # A float period used to pass validate and end in a TypeError (exit 1)
        # where the kernel indexes its period buckets.
        (lambda g: g["events"][0].update(period=1.0), "events[0].period 1.0 is not an integer",
         "events[0].period: 1.0 is not an integer"),
        (lambda g: g["events"][2].update(period=True), "events[2].period True is not a number",
         "events[2].period: True is not a number"),
    ],
    ids=["game-id", "home-team", "pre-wp", "float-period", "bool-period"],
)
def test_analyses_refuse_a_value_of_the_wrong_type(tmp_path, capsys, command, edit, problem,
                                                    reported):
    # These used to end in a TypeError (exit 1) inside a sort or the kernel;
    # like a crew member that is not a name, they stop the load and point at
    # `validate`, which reports them.
    ds = tmp_path / "ds"
    game = _small_dataset_with_first_game_edited(ds, edit)
    out_dir = tmp_path / "out"
    code, out = run(capsys, command, "--dataset", str(ds), "--out", str(out_dir))
    assert code == 2, out
    assert f"error: game {game['game_id']!r}: {problem}; `rimkit validate`" in out
    assert "Traceback" not in out
    assert not out_dir.exists()
    code, out = run(capsys, "validate", "--dataset", str(ds))
    assert code == 2 and f"{game['game_id']}: {reported}" in out, out


def _rename_home_team(g, name="T01\nX"):
    old = g["home_team"]
    g["home_team"] = name
    for e in g["events"]:
        if e["team"] == old:
            e["team"] = name


@pytest.mark.parametrize("command", ANALYSES)
@pytest.mark.parametrize(
    "edit, problem, reported",
    [
        (_rename_home_team, r"home_team 'T01\nX' holds a control character",
         r"home_team: 'T01\nX' holds a control character"),
        (lambda g: g["crew"].__setitem__(1, "Ann\x00Lee"),
         r"crew[1] 'Ann\x00Lee' holds a control character",
         r"crew[1]: 'Ann\x00Lee' holds a control character"),
    ],
    ids=["home-team", "crew"],
)
def test_analyses_refuse_a_name_with_a_control_character(tmp_path, capsys, command, edit,
                                                         problem, reported):
    # The tables print team and crew names: "T01\nX" broke the comment block
    # of fig13_team_side_effects.csv, and read back merged or split values.
    ds = tmp_path / "ds"
    game = _small_dataset_with_first_game_edited(ds, edit)
    out_dir = tmp_path / "out"
    code, out = run(capsys, command, "--dataset", str(ds), "--out", str(out_dir))
    assert code == 2, out
    assert f"error: game {game['game_id']!r}: {problem}; `rimkit validate`" in out
    assert "Traceback" not in out
    assert not out_dir.exists()
    code, out = run(capsys, "validate", "--dataset", str(ds))
    assert code == 2 and f"{game['game_id']}: {reported}" in out, out


def test_refs_refuses_a_crew_member_listed_twice(tmp_path, capsys):
    # The game used to count twice for that official in referee_distribution,
    # and as two duplicate rows in the crew panel.
    ds = tmp_path / "ds"
    game = _small_dataset_with_first_game_edited(
        ds, lambda g: g["crew"].__setitem__(2, g["crew"][0]))
    name = game["crew"][0]
    out_dir = tmp_path / "out"
    code, out = run(capsys, "refs", "--dataset", str(ds), "--out", str(out_dir))
    assert code == 2, out
    assert (f"error: game {game['game_id']!r}: crew[2] {name!r} repeats crew[0]; "
            "`rimkit validate`") in out
    assert not out_dir.exists()
    code, out = run(capsys, "validate", "--dataset", str(ds))
    assert code == 2 and f"{game['game_id']}: crew[2]: {name!r} repeats crew[0]" in out, out


def _float_period(g):
    g["events"][0]["period"] = 1.0


def _numeric_home_team(g):
    g["home_team"] = 7


@pytest.mark.parametrize(
    "edits, first, problem",
    [
        ({2: _float_period, 5: _numeric_home_team}, 2, "events[0].period 1.0 is not an integer"),
        ({2: _numeric_home_team, 5: _float_period}, 2, "home_team 7 is not a string"),
        ({2: _float_period, 3: _float_period}, 2, "events[0].period 1.0 is not an integer"),
    ],
    ids=["event-first", "header-first", "two-events"],
)
def test_analyses_name_the_first_mistyped_game_in_load_order(tmp_path, capsys, edits, first,
                                                             problem):
    # The loader flags the games whose event numbers it did not see well
    # typed; the headers and crews of every game are still checked, in order.
    ds = tmp_path / "ds"
    stored = _small_dataset_with_games_edited(ds, edits)
    code, out = run(capsys, "metrics", "--dataset", str(ds), "--out", str(tmp_path / "out"))
    assert code == 2, out
    assert f"error: game {stored[first]['game_id']!r}: {problem}; `rimkit validate`" in out


def test_a_load_error_comes_before_a_mistyped_game(tmp_path, capsys):
    ds = tmp_path / "ds"
    _small_dataset_with_games_edited(ds, {1: _float_period, 6: '{"game_id": "x"'})
    code, out = run(capsys, "metrics", "--dataset", str(ds), "--out", str(tmp_path / "out"))
    assert code == 2, out
    assert "2021-22/regular/games.jsonl:7: bad game line" in out
    assert "is not an integer" not in out


def test_regress_writes_fit_notes_and_dropped_columns(tmp_path, capsys):
    ds = tmp_path / "ds"
    simulate_small(capsys, ds)
    rg = tmp_path / "regress"
    code, out = run(
        capsys, "regress", "--dataset", str(ds), "--out", str(rg), "--min-pair-games", "2",
        "--target", "T03:home", "--target", "T03:home",  # the repeat is collinear
        "--pair", "Ref01:T01", "--pair", "Nobody:T01",
    )
    assert code == 0, out
    team_side = (rg / "regression_team_side.csv").read_text(encoding="utf-8")
    assert "# note: disparity: team reference T01\n" in team_side
    assert "# note: team_rim: dropped collinear columns: T03:home[indicator]\n" in team_side
    series = (rg / "regression_series.csv").read_text(encoding="utf-8")
    assert "# note: game_rim: series reference 0--0\n" in series
    ref_team = (rg / "regression_ref_team.csv").read_text(encoding="utf-8")
    assert "# note: disparity: excluded targets below minimum: Nobody|T01\n" in ref_team
    header, rows = read_table(rg / "regression_team_side.csv")
    terms = [r[header.index("term")] for r in rows]
    assert terms.count("T03:home[indicator]") == 2  # one kept copy per outcome


def test_ingest_cli_builds_dataset(tmp_path, capsys):
    raw = tmp_path / "raw"
    raw.mkdir()
    for i, gid in enumerate(["0022100001", "0022100002"]):
        plays = (
            play("p1", 1, foul=True, team="HOU"),
            play("p2", 2),
            play("p3", 3, foul=True, team="BOS"),
            play("p4", 4),
        )
        doc = summary_doc(game_id=gid, plays=plays)
        (raw / f"{gid}.summary.json").write_text(json.dumps(doc), encoding="utf-8")
        wp = wp_doc([("p1", 0.55), ("p2", 0.52), ("p3", 0.57), ("p4", 0.5)])
        (raw / f"{gid}.wp.json").write_text(json.dumps(wp), encoding="utf-8")
    (raw / "0022100003.summary.json").write_bytes(b'{"truncated": ')

    aliases = tmp_path / "aliases.json"
    aliases.write_text(
        json.dumps({"Tony Brothers": "Anthony Brothers"}), encoding="utf-8"
    )

    ds = tmp_path / "ds"
    code, out = run(
        capsys,
        "ingest",
        "--raw-dir",
        str(raw),
        "--out",
        str(ds),
        "--aliases",
        str(aliases),
    )
    assert code == 0, out
    assert "documents seen: 3" in out
    assert "document_errors: 1" in out
    assert "games written: 2" in out

    games, manifest = load_dataset(ds)
    assert manifest.total_games == 2
    assert all("Anthony Brothers" in g.crew for g in games)
    assert manifest.quarantine["document_errors"] == 1

    code, out = run(
        capsys, "ingest", "--raw-dir", str(tmp_path / "missing"), "--out", str(ds)
    )
    assert code == 2


def test_ingest_cli_refuses_aliases_that_are_not_name_strings(tmp_path, capsys):
    raw = tmp_path / "raw"
    raw.mkdir()
    doc = summary_doc(plays=(play("p1", 1, foul=True, team="HOU"), play("p2", 2)))
    (raw / "g.summary.json").write_text(json.dumps(doc), encoding="utf-8")
    (raw / "g.wp.json").write_text(
        json.dumps(wp_doc([("p1", 0.55), ("p2", 0.52)])), encoding="utf-8"
    )
    aliases = tmp_path / "aliases.json"
    ds = tmp_path / "ds"
    for bad in ({"Tony Brothers": 5}, {"Tony Brothers": ""}, ["Tony Brothers"]):
        aliases.write_text(json.dumps(bad), encoding="utf-8")
        code, out = run(
            capsys, "ingest", "--raw-dir", str(raw), "--out", str(ds), "--aliases", str(aliases)
        )
        assert code == 2, out
        assert "error: aliases file must map names to non-empty name strings" in out
        assert not ds.exists()


def test_ingest_cli_quarantines_a_duplicate_game_id(tmp_path, capsys):
    raw = tmp_path / "raw"
    raw.mkdir()
    plays = (play("p1", 1, foul=True, team="HOU"), play("p2", 2))
    for name in ("a", "b", "c"):
        gid = "0022100009" if name != "c" else "0022100010"
        doc = summary_doc(game_id=gid, plays=plays)
        (raw / f"{name}.summary.json").write_text(json.dumps(doc), encoding="utf-8")
        wp = wp_doc([("p1", 0.55), ("p2", 0.52)])
        (raw / f"{name}.wp.json").write_text(json.dumps(wp), encoding="utf-8")

    ds = tmp_path / "ds"
    code, out = run(capsys, "ingest", "--raw-dir", str(raw), "--out", str(ds))
    assert code == 0, out
    assert "quarantined_games: 1" in out
    assert "games written: 2" in out
    games, manifest = load_dataset(ds)
    assert sorted(g.game_id for g in games) == ["0022100009", "0022100010"]
    assert manifest.quarantine["quarantined_games"] == 1


def test_simulate_effects_file_lands_in_ledger(tmp_path, capsys):
    effects = tmp_path / "effects.json"
    effects.write_text(
        json.dumps(
            {
                "team_home_shift": {"T01": 2.0},
                "pair_shift": [
                    {"referee": "Ref01", "team": "T02", "shift": 0.05}
                ],
                "series_shift": [{"state": "1--2", "shift": 0.1}],
            }
        ),
        encoding="utf-8",
    )
    ds = tmp_path / "ds"
    code, out = run(
        capsys,
        "simulate",
        "--out",
        str(ds),
        "--seed",
        "9",
        "--teams",
        "6",
        "--referees",
        "8",
        "--games-per-season",
        "10",
        "--effects",
        str(effects),
    )
    assert code == 0, out
    ledger = json.loads((ds / "ledger.json").read_text(encoding="utf-8"))
    assert ledger["seed"] == 9
    assert ledger["team_home_shift"] == {"T01": 2.0}
    assert ledger["pair_shift"] == [
        {"referee": "Ref01", "team": "T02", "shift": 0.05}
    ]
    assert ledger["series_shift"] == [{"state": "1--2", "shift": 0.1}]

    bad = tmp_path / "bad-effects.json"
    bad.write_text(json.dumps({"unknown_block": []}), encoding="utf-8")
    code, out = run(
        capsys, "simulate", "--out", str(tmp_path / "ds2"), "--effects", str(bad)
    )
    assert code == 2 and "unknown effects keys" in out


@pytest.mark.parametrize(
    "effects, message",
    [
        ({"series_shift": [{"state": "2--1", "shift": 0.5}]},
         "series_shift (2, 1): not a canonical series state"),
        ({"series_shift": [{"state": "0--4", "shift": 0.5}]},
         "series_shift (0, 4): not a canonical series state"),
        ({"team_home_shift": {"T99": 3.0}}, "team_home_shift 'T99': no team 'T99' among the 8"),
        ({"pair_shift": [{"referee": "Ref01", "team": "T09", "shift": 0.1}]},
         "pair_shift ('Ref01', 'T09'): no team 'T09' among the 8"),
        ({"pair_shift": [{"referee": "Nobody", "team": "T01", "shift": 0.1}]},
         "pair_shift ('Nobody', 'T01'): no referee 'Nobody' among the 12"),
        ({"pair_shift": [{"referee": "Ref13", "team": "T01", "shift": 0.1}]},
         "pair_shift ('Ref13', 'T01'): no referee 'Ref13' among the 12"),
        # Like a config setting, a boolean or a string is not a number.
        ({"team_home_shift": {"T01": True}}, "bad team_home_shift entry: 'T01': True"),
        ({"team_home_shift": {"T01": "0.5"}}, "bad team_home_shift entry: 'T01': '0.5'"),
        ({"pair_shift": [{"referee": "Ref01", "team": "T02", "shift": "0.5"}]},
         "bad pair_shift entry: {'referee': 'Ref01', 'team': 'T02', 'shift': '0.5'}"),
        ({"series_shift": [{"state": "1--2", "shift": False}]},
         "bad series_shift entry: {'state': '1--2', 'shift': False}"),
    ],
    ids=["unsorted-state", "state-past-3", "home-team", "pair-team", "pair-name", "pair-ref13",
         "home-shift-bool", "home-shift-string", "pair-shift-string", "series-shift-bool"],
)
def test_simulate_refuses_effects_it_cannot_apply(tmp_path, capsys, effects, message):
    # These used to land in ledger.json while every partition came out
    # byte-identical to the corpus built without them.
    path = tmp_path / "effects.json"
    path.write_text(json.dumps(effects), encoding="utf-8")
    ds = tmp_path / "ds"
    code, out = run(capsys, "simulate", "--out", str(ds), "--teams", "8", "--referees", "12",
                    "--games-per-season", "20", "--postseason-games", "10",
                    "--effects", str(path))
    assert code == 2 and f"error: {message}" in out, out
    assert not ds.exists()


def test_season_filters_select_slices(tmp_path, capsys):
    ds = tmp_path / "ds"
    code, out = run(
        capsys,
        "simulate",
        "--out",
        str(ds),
        "--seed",
        "2",
        "--teams",
        "6",
        "--referees",
        "9",
        "--games-per-season",
        "30",
        "--postseason-games",
        "10",
        "--sim-seasons",
        "2021-22",
        "2022-23",
        "--fouls-mean",
        "10",
    )
    assert code == 0, out

    mt = tmp_path / "m"
    code, _ = run(
        capsys,
        "metrics",
        "--dataset",
        str(ds),
        "--out",
        str(mt),
        "--seasons",
        "2022-23",
        "--season-type",
        "postseason",
    )
    assert code == 0
    header, rows = read_table(mt / "game_metrics.csv")
    season_idx = header.index("season")
    type_idx = header.index("season_type")
    assert len(rows) == 10
    assert all(r[season_idx] == "2022-23" for r in rows)
    assert all(r[type_idx] == "postseason" for r in rows)


def _data_rows(path) -> list[list[str]]:
    return read_table(path)[1]


def test_shared_tables_agree_across_commands(tmp_path, capsys):
    ds = tmp_path / "ds"
    simulate_small(capsys, ds)
    opts = ("--min-games-regular", "2", "--min-pair-games", "2", "--team-side-k", "2")
    for command in ("refs", "outliers", "regress", "emit-figures"):
        code, out = run(capsys, command, "--dataset", str(ds), "--out", str(tmp_path / command), *opts)
        assert code == 0, out
    figs = tmp_path / "emit-figures"
    assert _data_rows(tmp_path / "refs" / "referee_top_bottom.csv") == _data_rows(
        figs / "fig3_top_bottom.csv"
    )
    assert _data_rows(tmp_path / "outliers" / "outlier_cells.csv") == _data_rows(
        figs / "figA3_ref_team_z_map.csv"
    )
    for table, figure, keep in (
        ("regression_team_side", "fig13_team_side_effects", lambda t: "[" in t),
        ("regression_series", "fig12_series_effects", lambda t: t.startswith("series_")),
        ("regression_ref_team", "fig14_ref_team_effects", lambda t: t.startswith("pair_")),
    ):
        rows = _data_rows(tmp_path / "regress" / f"{table}.csv")
        assert rows, table
        assert [r for r in rows if keep(r[1])] == _data_rows(figs / f"{figure}.csv"), table


def test_regress_builds_the_crew_panel_and_team_rows_once(tmp_path, capsys, monkeypatch):
    import rimkit.figures as figures

    ds = tmp_path / "ds"
    simulate_small(capsys, ds)
    calls = {"panel_rows": 0, "expand_rows": 0}
    for name in calls:
        original = getattr(figures, name)

        def counted(*args, _original=original, _name=name, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(figures, name, counted)
    code, out = run(
        capsys, "regress", "--dataset", str(ds), "--out", str(tmp_path / "rg"), "--min-pair-games", "2"
    )
    assert code == 0, out
    assert "regression_ref_team.csv" in out
    assert calls == {"panel_rows": 1, "expand_rows": 1}


def test_a_config_file_sets_only_the_settings_a_command_applies(tmp_path, capsys):
    # ``simulate`` used to echo a file's analysis filters in run.json while
    # writing every season it simulates.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seasons": ["2021-22"], "season_type": "postseason",
                               "seed": 4}), encoding="utf-8")
    s1 = tmp_path / "s1"
    code, out = run(capsys, "--config", str(cfg), "simulate", "--out", str(s1),
                    "--teams", "4", "--referees", "4", "--games-per-season", "10",
                    "--postseason-games", "2")
    assert code == 0, out
    echoed = json.loads((s1 / "run.json").read_text(encoding="utf-8"))["config"]
    assert (echoed["seasons"], echoed["season_type"], echoed["seed"]) == ([], None, 4)
    assert json.loads((s1 / "ledger.json").read_text(encoding="utf-8"))["seed"] == 4

    # The same file still filters the analysis commands, which take no seed.
    out_dir = tmp_path / "m"
    code, out = run(capsys, "--config", str(cfg), "metrics", "--dataset", str(s1),
                    "--out", str(out_dir))
    assert code == 0, out
    echoed = json.loads((out_dir / "run.json").read_text(encoding="utf-8"))["config"]
    assert (echoed["seasons"], echoed["season_type"], echoed["seed"]) == (
        ["2021-22"], "postseason", 0)
    _, rows = read_table(out_dir / "game_metrics.csv")
    assert len(rows) == 2

    # Every key is still checked, whichever command reads the file.
    for doc, message in (({"nope": 1}, "unknown setting: nope"),
                         ({"table_k": "x"}, "table_k must be an integer")):
        cfg.write_text(json.dumps(doc), encoding="utf-8")
        code, out = run(capsys, "--config", str(cfg), "simulate", "--out",
                        str(tmp_path / "s2"), "--games-per-season", "2")
        assert code == 2 and message in out, out


@pytest.mark.parametrize(
    "labels, message",
    [
        (["2021-22", "2021-22"], "season label '2021-22' is given twice"),
        (["2021-22", "a b"], "season label 'a b' cannot name a partition"),
        (["../x"], "season label '../x' cannot name a partition"),
    ],
    ids=["repeated", "space", "path"],
)
def test_simulate_refuses_a_bad_season_label_before_drawing(tmp_path, capsys, monkeypatch,
                                                            labels, message):
    # These used to fail only at write time, after every game was drawn.
    import rimkit.synth

    def draw(*args):
        raise AssertionError("a game was drawn")

    monkeypatch.setattr(rimkit.synth, "_generate_game", draw)
    code, out = run(capsys, "simulate", "--out", str(tmp_path / "ds"), "--sim-seasons", *labels)
    assert code == 2 and f"error: {message}" in out, out
    assert not (tmp_path / "ds").exists()


def test_simulate_refuses_sim_seasons_without_labels(tmp_path, capsys):
    # An empty --sim-seasons used to read as absent and simulate the default season.
    code, out = run(capsys, "simulate", "--out", str(tmp_path / "ds"), "--games-per-season", "3",
                    "--sim-seasons")
    assert code == 2 and "error: need at least one season label" in out, out
    assert not (tmp_path / "ds").exists()


def test_a_simulated_corpus_rebuilds_from_its_ledger(tmp_path, capsys):
    from rimkit.synth import SimConfig, read_effects_file, write_corpus

    effects = tmp_path / "effects.json"
    effects.write_text(json.dumps({
        "team_home_shift": {"T01": 2.0},
        "pair_shift": [{"referee": "Ref01", "team": "T02", "shift": 0.05}],
        "series_shift": [{"state": "1--2", "shift": 0.1}],
    }), encoding="utf-8")
    ds = tmp_path / "ds"
    code, out = run(capsys, "simulate", "--out", str(ds), "--seed", "9", "--teams", "6",
                    "--referees", "8", "--crew-size", "2", "--games-per-season", "10",
                    "--postseason-games", "4", "--fouls-mean", "12", "--overtime-rate", "0.5",
                    "--unattributed-rate", "0.1", "--sim-seasons", "2019-20", "2020-21",
                    "--effects", str(effects))
    assert code == 0, out

    ledger = json.loads((ds / "ledger.json").read_text(encoding="utf-8"))
    again = tmp_path / "again.json"
    again.write_text(json.dumps({k: ledger.pop(k)
                                 for k in ("team_home_shift", "pair_shift", "series_shift")}),
                     encoding="utf-8")
    ledger["seasons"] = tuple(ledger["seasons"])
    rebuilt = tmp_path / "rebuilt"
    write_corpus(SimConfig(**ledger, **read_effects_file(str(again))), rebuilt)
    written = sorted(p.relative_to(ds) for p in ds.rglob("*") if p.name != "run.json")
    assert written == sorted(p.relative_to(rebuilt) for p in rebuilt.rglob("*"))
    for name in written:
        if (ds / name).is_file():
            assert (ds / name).read_bytes() == (rebuilt / name).read_bytes(), name


@pytest.mark.parametrize("command", ["metrics", "validate"])
def test_a_partition_path_with_a_nul_byte_is_an_input_error(tmp_path, capsys, command):
    # It used to reach path.resolve(): exit 1 with "ValueError: embedded null byte".
    ds = tmp_path / "ds"
    simulate_small(capsys, ds)
    doc = json.loads((ds / "manifest.json").read_text(encoding="utf-8"))
    doc["partitions"][0]["path"] = "a\x00b/games.jsonl"
    (ds / "manifest.json").write_text(json.dumps(doc), encoding="utf-8")
    argv = ["--dataset", str(ds)] + (["--out", str(tmp_path / "out")] if command != "validate"
                                     else [])
    code, out = run(capsys, command, *argv)
    assert code == 2 and "Traceback" not in out, out
    assert r"error: partition path holds a NUL byte: 'a\x00b/games.jsonl'" in out


@pytest.mark.parametrize("setting", ["out_dir", "dataset"])
def test_a_path_setting_with_a_nul_byte_is_an_input_error(tmp_path, capsys, setting):
    # An out_dir used to fail at out.mkdir(), after the whole load: exit 1
    # with "ValueError: embedded null byte".
    ds = tmp_path / "ds"
    simulate_small(capsys, ds)
    cfg = tmp_path / "settings.json"
    paths = {"dataset": str(ds), "out_dir": str(tmp_path / "out")}
    paths[setting] += "\x00x"
    cfg.write_text(json.dumps(paths), encoding="utf-8")
    code, out = run(capsys, "--config", str(cfg), "metrics")
    assert code == 2 and "Traceback" not in out, out
    assert f"error: {setting} holds a NUL byte" in out
    assert not (tmp_path / "out").exists()
