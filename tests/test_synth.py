"""Tests for the synthetic-corpus generator and its independent oracles."""

import gc
import json
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from rimkit.aggregate import home_away_summary, referee_distribution, series_state_summary
from rimkit.ingest import load_dataset
from rimkit.metrics import expand_rows
from rimkit.model import POSTSEASON, REGULAR, validate_game
from rimkit.synth import (
    SimConfig,
    _period_cdf,
    SimConfigError,
    generate,
    ground_truth_ledger,
    referee_name,
    simulate_ref_team_panel,
    simulate_team_side_rows,
    team_name,
    write_corpus,
)

from conftest import make_event, make_game
from oracles import (
    oracle_excess,
    oracle_home_away,
    oracle_recompute,
    oracle_referees,
    oracle_series_states,
)


def small_config(**overrides) -> SimConfig:
    base = dict(
        seed=7,
        n_teams=8,
        n_referees=12,
        games_per_season=40,
        postseason_games_per_season=10,
        seasons=("2021-22",),
        fouls_mean=12.0,
        overtime_rate=0.1,
        unattributed_rate=0.05,
        missing_series_rate=0.2,
    )
    base.update(overrides)
    return SimConfig(**base)


def test_naming_helpers():
    assert team_name(0) == "T01"
    assert team_name(29) == "T30"
    assert referee_name(12) == "Ref13"


def test_generate_is_deterministic():
    cfg = small_config()
    games_a, ledger_a = generate(cfg)
    games_b, ledger_b = generate(cfg)
    assert games_a == games_b
    assert ledger_a == ledger_b


def test_generate_seed_changes_corpus():
    games_a, _ = generate(small_config(seed=1))
    games_b, _ = generate(small_config(seed=2))
    assert games_a != games_b


def test_prefix_stable_under_extension():
    base = small_config(postseason_games_per_season=0)
    longer = small_config(postseason_games_per_season=6)
    two_seasons = small_config(
        postseason_games_per_season=6, seasons=("2021-22", "2022-23")
    )
    games_base, _ = generate(base)
    games_longer, _ = generate(longer)
    games_two, _ = generate(two_seasons)
    # Adding postseason games appends; the regular prefix is untouched.
    assert games_longer[: len(games_base)] == games_base
    # Adding a second season extends the corpus without reshuffling the first.
    assert games_two[: len(games_longer)] == games_longer


def test_corpus_shape_and_validity():
    cfg = small_config()
    games, _ = generate(cfg)
    assert len(games) == 50
    regular = [g for g in games if g.season_type == REGULAR]
    post = [g for g in games if g.season_type == POSTSEASON]
    assert len(regular) == 40 and len(post) == 10
    assert [g.game_id for g in regular] == [
        f"2021-22-reg-{i:05d}" for i in range(40)
    ]
    assert [g.game_id for g in post] == [f"2021-22-post-{i:05d}" for i in range(10)]
    for g in games:
        assert validate_game(g) == []
        assert len(g.crew) == 3 and len(set(g.crew)) == 3
        assert g.home_team != g.away_team
        if g.season_type == REGULAR:
            assert g.series_state is None


def test_wp_paths_chain_and_stay_bounded():
    games, _ = generate(small_config())
    saw_overtime = False
    for g in games:
        prev_post = None
        for k, e in enumerate(g.events):
            assert e.event_id == k + 1
            assert 0.0 <= e.pre_wp <= 1.0
            assert 0.0 <= e.post_wp <= 1.0
            if prev_post is not None:
                assert e.pre_wp == prev_post
            prev_post = e.post_wp
            assert 1 <= e.period <= 5
            limit = 720.0 if e.period <= 4 else 300.0
            assert 0.0 <= e.clock_seconds_remaining <= limit
            if e.period == 5:
                saw_overtime = True
    assert saw_overtime


def test_unattributed_and_missing_series_rates():
    cfg = small_config(
        games_per_season=150,
        postseason_games_per_season=80,
        unattributed_rate=0.3,
        missing_series_rate=0.25,
    )
    games, _ = generate(cfg)
    events = [e for g in games for e in g.events]
    frac_unattributed = sum(e.charged_team is None for e in events) / len(events)
    assert 0.25 < frac_unattributed < 0.35
    for e in events:
        if e.charged_team is None:
            assert e.description == "Foul (unattributed)"
    post = [g for g in games if g.season_type == POSTSEASON]
    frac_missing = sum(g.series_state is None for g in post) / len(post)
    assert 0.1 < frac_missing < 0.4
    for g in post:
        if g.series_state is not None:
            lo, hi = sorted(g.series_state)
            assert 0 <= lo <= hi <= 3


def test_overdispersed_fouls_keep_the_mean():
    cfg = small_config(
        games_per_season=300,
        postseason_games_per_season=0,
        fouls_mean=40.0,
        fouls_dispersion=0.5,
        unattributed_rate=0.0,
    )
    games, _ = generate(cfg)
    counts = [len(g.events) for g in games]
    assert 35.0 < np.mean(counts) < 45.0
    assert np.var(counts) > 2 * np.mean(counts)  # visibly overdispersed


def test_ledger_records_every_injected_parameter():
    cfg = small_config(
        team_home_shift={"T03": 1.5, "T01": -0.5},
        pair_shift={("Ref02", "T04"): 0.02},
        series_shift={(3, 3): 0.1, (0, 2): -0.05},
    )
    ledger = ground_truth_ledger(cfg)
    assert ledger == {
        "seed": 7,
        "n_teams": 8,
        "n_referees": 12,
        "crew_size": 3,
        "games_per_season": 40,
        "postseason_games_per_season": 10,
        "seasons": ["2021-22"],
        "fouls_mean": 12.0,
        "fouls_dispersion": 0.0,
        "move_scale": 0.04,
        "benefit_prob": 0.65,
        "overtime_rate": 0.1,
        "unattributed_rate": 0.05,
        "missing_series_rate": 0.2,
        "team_home_shift": {"T01": -0.5, "T03": 1.5},
        "pair_shift": [{"referee": "Ref02", "team": "T04", "shift": 0.02}],
        "series_shift": [
            {"state": "0--2", "shift": -0.05},
            {"state": "3--3", "shift": 0.1},
        ],
    }


@pytest.mark.parametrize("overtime_rate", [0.0, 0.04, 0.1, 1.0])
def test_period_draw_is_generator_choice_without_its_checks(overtime_rate):
    # The simulator draws period buckets from a cdf built once per corpus;
    # it must stay the draw ``rng.choice(5, size=n, p=...)`` makes.
    cdf = _period_cdf(overtime_rate)
    p = [(1.0 - overtime_rate) / 4.0] * 4 + [overtime_rate]
    for seed in range(400):
        n = 1 + seed % 70
        fast, choice = np.random.default_rng([seed, 3]), np.random.default_rng([seed, 3])
        got = cdf.searchsorted(fast.random(n), side="right")
        want = choice.choice(5, size=n, p=p)
        assert got.dtype == want.dtype and np.array_equal(got, want), seed
        assert fast.random() == choice.random()  # both consumed the same stream


def test_write_corpus_roundtrip(tmp_path):
    cfg = small_config(games_per_season=12, postseason_games_per_season=3)
    root = tmp_path / "corpus"
    games, ledger, manifest = write_corpus(cfg, root)
    assert manifest.total_games == 15
    on_disk = json.loads((root / "ledger.json").read_text(encoding="utf-8"))
    assert on_disk == json.loads(json.dumps(ledger))  # tuple/list agnostic
    reloaded, disk_manifest = load_dataset(root)
    assert sorted(reloaded, key=lambda g: g.game_id) == sorted(
        games, key=lambda g: g.game_id
    )
    assert disk_manifest.total_games == 15


@pytest.mark.parametrize(
    "overrides",
    [
        {"seed": -1},
        {"n_teams": 1},
        {"crew_size": 13},
        {"crew_size": 0},
        {"seasons": ()},
        {"fouls_mean": -1.0},
        {"fouls_dispersion": -0.5},
        {"benefit_prob": 1.5},
        {"move_scale": -0.01},
        {"games_per_season": -5},
        {"postseason_games_per_season": -3},
        {"seasons": ("S1", "S1")},
        {"seasons": ("a b",)},
        {"seasons": (2021,)},
    ],
)
def test_infeasible_configs_are_rejected(overrides):
    with pytest.raises(SimConfigError):
        small_config(**overrides).validate()


@pytest.mark.parametrize("seasons", ["S1", "2021-22", None, {"S1": 1}])
def test_seasons_must_be_a_tuple_or_list_of_labels(seasons):
    # A string used to be read as its characters: "S1" passed as seasons "S"
    # and "1", and "2021-22" was refused for a repeated label '2'.
    with pytest.raises(SimConfigError, match="^seasons must be a tuple or list of season labels"):
        small_config(seasons=seasons).validate()
    small_config(seasons=["S1", "S2"]).validate()


def test_injected_home_disparity_shows_up_in_foul_counts():
    shift = 6.0
    cfg = small_config(
        n_teams=4,
        games_per_season=2000,
        postseason_games_per_season=0,
        fouls_mean=40.0,
        unattributed_rate=0.0,
        overtime_rate=0.0,
        team_home_shift={"T02": shift},
    )
    games, _ = generate(cfg)
    disparities = []
    baseline = []
    for g in games:
        hf = sum(e.charged_team == g.home_team for e in g.events)
        af = sum(e.charged_team == g.away_team for e in g.events)
        (disparities if g.home_team == "T02" else baseline).append(af - hf)
    assert len(disparities) > 300
    assert abs(np.mean(disparities) - shift) < 1.0
    assert abs(np.mean(baseline)) < 1.0


def test_the_oracles_import_only_the_standard_library_and_the_record_model():
    # The oracles check the kernels, so they must share none of their code.
    import ast
    from pathlib import Path

    tree = ast.parse((Path(__file__).parent / "oracles.py").read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, "a relative import"
            imported.add(node.module)
    outside = {name for name in imported if name.split(".")[0] not in sys.stdlib_module_names}
    assert outside == {"rimkit.model"}, outside


def test_oracle_recompute_matches_hand_arithmetic():
    events = (
        make_event(0.50, 0.57, charged="BOS", event_id=1),
        make_event(0.57, 0.53, charged="HOU", event_id=2, clock=400.0),
        make_event(0.53, 0.53, charged="HOU", event_id=3, period=2),
    )
    game = make_game(events)
    oracle = oracle_recompute([game])[game.game_id]
    assert oracle.rim == pytest.approx(0.11, abs=1e-15)
    assert oracle.n_calls == 3
    assert oracle.swing == pytest.approx(0.11 / 3, abs=1e-15)
    assert oracle.home_disparity == -1  # HOU charged twice, BOS once
    assert oracle.home_team_rim == pytest.approx(0.03, abs=1e-15)
    assert oracle.period_rim["Q1"] == pytest.approx(0.11, abs=1e-15)
    assert oracle.period_rim["Q2"] == 0.0
    assert oracle.period_rim["OT"] == 0.0


def test_oracle_recompute_empty_game():
    game = make_game(())
    oracle = oracle_recompute([game])[game.game_id]
    assert oracle.rim == 0.0
    assert oracle.n_calls == 0
    assert oracle.swing is None


def test_oracle_excess_matches_hand_values():
    g1 = make_game(
        (make_event(0.50, 0.60, charged="HOU"),),
        game_id="g1",
        home="HOU",
        away="BOS",
        crew=("Ref A",),
    )
    g2 = make_game(
        (make_event(0.50, 0.54, charged="BOS"),),
        game_id="g2",
        home="BOS",
        away="HOU",
        crew=("Ref B",),
    )
    # Signed team RIM rows: (Ref A, HOU, +0.10), (Ref A, BOS, -0.10),
    # (Ref B, BOS, +0.04), (Ref B, HOU, -0.04).  Referee means are zero,
    # HOU mean is 0.03, BOS mean is -0.03, and the global mean is zero.
    excess = oracle_excess([g1, g2], metric="team_rim")
    assert excess[("Ref A", "HOU")] == pytest.approx(0.07, abs=1e-15)
    assert excess[("Ref A", "BOS")] == pytest.approx(-0.07, abs=1e-15)
    assert excess[("Ref B", "BOS")] == pytest.approx(0.07, abs=1e-15)
    assert excess[("Ref B", "HOU")] == pytest.approx(-0.07, abs=1e-15)
    # Foul-disparity rows: g1 home HOU charged once (-1 home value), g2
    # home BOS charged once (-1 home value); all reference means are zero.
    disp = oracle_excess([g1, g2], metric="disparity")
    assert disp[("Ref A", "HOU")] == pytest.approx(-1.0)
    assert disp[("Ref A", "BOS")] == pytest.approx(1.0)
    assert disp[("Ref B", "BOS")] == pytest.approx(-1.0)
    assert disp[("Ref B", "HOU")] == pytest.approx(1.0)


def test_oracle_excess_skips_no_crew_games_and_rejects_bad_metric():
    g = make_game((make_event(0.5, 0.6, charged="HOU"),), crew=())
    assert oracle_excess([g]) == {}
    with pytest.raises(ValueError):
        oracle_excess([g], metric="fouls")


def _same(got, want) -> bool:
    """Exact where the oracle adds in the code's order: before Python 3.12,
    ``sum()`` of floats adds left to right like the oracles' loops; later
    versions compensate, so there the values agree to 1e-12."""
    if got is None or want is None or sys.version_info < (3, 12):
        return got == want
    return abs(got - want) <= 1e-12


def _aggregation_corpus():
    """About 1,000 games: postseason games with and without a series state,
    unattributed calls, games without a crew and games without a call."""
    games, _ = generate(small_config(seed=23, n_referees=14, games_per_season=400,
                                     postseason_games_per_season=100,
                                     seasons=("2020-21", "2021-22"), unattributed_rate=0.1))
    games = [replace(g, crew=()) if i % 13 == 0 else g for i, g in enumerate(games)]
    return [replace(g, events=()) if i % 29 == 0 else g for i, g in enumerate(games)]


def _referee_rows(summaries, band):
    rows = [(s.referee, s.games, s.mean_rim, s.mean_calls_per_game, s.mean_swing_per_call,
             s.mean_abs_disparity) for s in summaries]
    return rows, band and (band.mean, band.sd)


def _assert_same_rows(got, want):
    assert len(got) == len(want)
    for g_row, w_row in zip(got, want):
        assert len(g_row) == len(w_row) and all(map(_same, g_row, w_row)), (g_row, w_row)


def test_referee_distribution_matches_its_oracle():
    games = _aggregation_corpus()
    assert any(not g.crew for g in games) and any(not g.events for g in games)
    counts = sorted(row[1] for row in oracle_referees(games, 1)[0])
    # Every referee, then only those at or above the median game count.
    for min_games in (1, counts[len(counts) // 2]):
        rows, band = _referee_rows(*referee_distribution(games, min_games))
        want_rows, want_band = oracle_referees(games, min_games)
        assert 0 < len(want_rows) <= len(counts)
        _assert_same_rows(rows, want_rows)
        _assert_same_rows([band], [want_band])
    # With no calls anywhere every mean RIM ties at zero: names break the tie.
    silent = [replace(g, events=()) for g in games[:150]]
    rows, band = _referee_rows(*referee_distribution(silent, 1))
    want_rows, want_band = oracle_referees(silent, 1)
    assert [r[0] for r in want_rows] == sorted(r[0] for r in want_rows)
    _assert_same_rows(rows, want_rows)
    assert band == want_band == (0.0, 0.0)


def test_home_away_summary_matches_its_oracle():
    games = _aggregation_corpus()
    summary = home_away_summary(expand_rows(games))
    league, teams = oracle_home_away(games)
    assert [(s.season_type, s.side) for s in summary.league] == sorted(
        league, key=lambda k: (k[0], k[1] != "home")
    )
    _assert_same_rows(
        [(s.n_rows, s.mean_disparity, s.mean_team_rim) for s in summary.league],
        [league[(s.season_type, s.side)] for s in summary.league],
    )
    assert [t.team for t in summary.teams] == sorted(teams)
    _assert_same_rows(
        [row for t in summary.teams for row in (
            (t.home_games, t.home_mean_disparity, t.home_mean_team_rim),
            (t.away_games, t.away_mean_disparity, t.away_mean_team_rim),
        )],
        [teams[t.team][side] for t in summary.teams for side in ("home", "away")],
    )


def test_series_state_summary_matches_its_oracle():
    games = _aggregation_corpus()
    summary = series_state_summary(expand_rows(games))
    buckets, missing = oracle_series_states(games)
    assert missing > 0 and len(buckets) > 5
    assert summary.games_missing_state == missing
    assert [(b.key.lo, b.key.hi) for b in summary.buckets] == sorted(buckets)
    _assert_same_rows(
        [(b.games, b.team_rows, b.mean_abs_disparity, b.mean_game_rim) for b in summary.buckets],
        [buckets[(b.key.lo, b.key.hi)] for b in summary.buckets],
    )


def test_team_side_rows_mirror_and_recover_shift():
    rng = np.random.default_rng(5150)
    shift = 6.0
    rows = simulate_team_side_rows(
        rng,
        n_games=4000,
        n_teams=4,
        home_disparity_shift={"T01": shift},
    )
    assert len(rows) == 8000
    by_game = {}
    for r in rows:
        by_game.setdefault(r.game_id, []).append(r)
    target_disp = []
    other_disp = []
    for gid, (h, a) in by_game.items():
        assert h.is_home and not a.is_home
        assert (h.team, h.opponent) == (a.opponent, a.team)
        assert h.disparity == -a.disparity
        assert h.team_rim + a.team_rim == 0.0
        assert h.n_calls == a.n_calls >= abs(h.disparity)
        assert (h.n_calls - h.disparity) % 2 == 0  # n_calls = own + opp, disparity = opp - own
        assert h.game_rim >= abs(h.team_rim)
        assert gid == f"S1-mc-{int(gid.split('-')[-1]):05d}"
        (target_disp if h.team == "T01" else other_disp).append(h.disparity)
    assert len(target_disp) > 500
    assert abs(np.mean(target_disp) - shift) < 0.8
    assert abs(np.mean(other_disp)) < 0.8


def test_ref_team_panel_structure_and_pair_effect():
    rng = np.random.default_rng(9191)
    effect = 0.08
    rows = simulate_ref_team_panel(
        rng,
        n_games=3000,
        pair_shift={("Ref01", "T01"): effect},
    )
    assert len(rows) == 18000
    by_game = {}
    for r in rows:
        by_game.setdefault(r.game_id, []).append(r)
    for game_rows in by_game.values():
        assert len(game_rows) == 6
        assert len({r.referee for r in game_rows}) == 3
        teams = {r.team for r in game_rows}
        assert len(teams) == 2
        # The generator writes each crew member's home row before the away row.
        home = [r for r in game_rows if r.team == game_rows[0].team]
        away = [r for r in game_rows if r.team != game_rows[0].team]
        assert len(home) == len(away) == 3
        for h, a in zip(home, away):
            assert h.referee == a.referee
            assert h.disparity == -a.disparity
    hit = [r.team_rim for r in rows if r.referee == "Ref01" and r.team == "T01"]
    rest = [
        r.team_rim for r in rows if not (r.referee == "Ref01" and r.team == "T01")
    ]
    assert len(hit) > 20
    assert abs(np.mean(hit) - effect) < 0.03
    assert abs(np.mean(rest)) < 0.005


def _held_bytes(make) -> int:
    make()  # numpy's first-call caches are not the table's
    gc.collect()
    tracemalloc.start()
    try:
        table = make()
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(table)
    return held


# Bytes a row under tracemalloc, table, game ids and name strings included.
# Each row as a slotted dataclass with its own floats and names held 252
# (team side) and 191 (panel); as columns they hold 120 and 67.
TEAM_ROW_BYTES = 160
PANEL_ROW_BYTES = 100


def test_the_rig_tables_hold_few_bytes_a_row():
    team = _held_bytes(lambda: simulate_team_side_rows(
        np.random.default_rng(1), n_games=1230, n_teams=30,
        home_disparity_shift={"T05": 1.5}))
    panel = _held_bytes(lambda: simulate_ref_team_panel(
        np.random.default_rng(2), n_games=3690, n_teams=30, n_referees=70,
        pair_shift={("Ref01", "T01"): 0.05}))
    assert team / 2460 < TEAM_ROW_BYTES, f"{team / 2460:.0f} bytes a team row"
    assert panel / 22140 < PANEL_ROW_BYTES, f"{panel / 22140:.0f} bytes a panel row"


def test_rig_replicates_share_their_game_ids():
    # Each call used to format its own id strings: 1.44 MB of the 20
    # replicates mc_fits holds, where one copy of 1,230 ids would do.
    for rig in (simulate_team_side_rows, simulate_ref_team_panel):
        first, second = (rig(np.random.default_rng(seed), n_games=5) for seed in (1, 2))
        assert first.game_id[0] == second.game_id[0]
        assert first.game_id[0] is second.game_id[0], rig.__name__
