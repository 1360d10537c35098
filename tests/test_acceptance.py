"""Release acceptance gate: nine numbered end-to-end criteria.

Each criterion is one test with its tolerances pinned inline; a test
prints a single ``C<n> ...: PASS`` line with the measured numbers once
every assertion holds, so ``pytest -v`` reads as one pass/fail line per
criterion.  Nothing here reuses the implementation under test as its own
oracle: comparisons run against independent recomputations, extended
precision, algebraic identities, or constructions whose truth is known.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import sys
import time
from decimal import Decimal, getcontext

import numpy as np

from conftest import make_game, play, solve_normal_longdouble, summary_doc, wp_doc
from oracles import oracle_recompute
from rimkit.cli import main
from rimkit.figures import FIGURE_FILES, validate_output_dir
from rimkit.inference import (
    TeamSideTarget,
    cluster_covariance,
    fit_ols,
    robustness_rho,
    team_side_effects,
)
from rimkit.ingest import ingest_directory, load_dataset, write_dataset
from rimkit.metrics import PERIOD_BUCKETS, compute_game_metrics, expand_rows, swing_per_call
from rimkit.model import FoulEvent
from rimkit.outliers import PanelRow, build_cells, outlier_tables, panel_rows
from rimkit.synth import (
    SimConfig,
    generate,
    simulate_team_side_rows,
)


def _ok(line: str) -> None:
    print(line)


# ---------------------------------------------------------------------------
# C1: per-game kernel vs independent recompute
# ---------------------------------------------------------------------------


def test_c1_game_kernel_matches_independent_recompute():
    cfg = SimConfig(
        seed=101,
        n_teams=30,
        n_referees=60,
        games_per_season=1000,
        fouls_mean=40.0,
        overtime_rate=0.05,
        unattributed_rate=0.06,
    )
    games, _ = generate(cfg)
    assert len(games) == 1000

    start = time.perf_counter()
    oracle = oracle_recompute(games)
    worst = 0.0
    for g in games:
        m = compute_game_metrics(g)
        h = m.home_row
        o = oracle[g.game_id]
        assert h.n_calls == o.n_calls
        assert h.disparity == o.home_disparity
        worst = max(worst, abs(h.game_rim - o.rim))
        worst = max(worst, abs(h.team_rim - o.home_team_rim))
        worst = max(worst, abs(m.away_row.team_rim + o.home_team_rim))
        swing = swing_per_call(h.game_rim, h.n_calls)
        if o.swing is None:
            assert swing is None
        else:
            worst = max(worst, abs(swing - o.swing))
        assert len(m.period_rim) == len(o.period_rim)
        for bucket, val in zip(PERIOD_BUCKETS, m.period_rim):
            worst = max(worst, abs(val - o.period_rim[bucket]))
    elapsed = time.perf_counter() - start

    assert worst < 1e-12
    assert elapsed < 10.0
    _ok(f"C1 kernel vs recompute: PASS (1000 games, max |diff| {worst:.3g}, {elapsed:.2f}s)")


# ---------------------------------------------------------------------------
# C2: exact identities on randomized games
# ---------------------------------------------------------------------------


def _grid_games(rng: np.random.Generator, n_games: int):
    """Randomized games whose probabilities sit on a dyadic grid.

    Every sample is a multiple of 1/1024, so complements (1 - w) and
    per-event differences are themselves exact doubles: the flip checks
    below can demand bitwise equality instead of a tolerance.
    """
    teams = [f"T{i:02d}" for i in range(10)]
    games = []
    for i in range(n_games):
        hi, ai = rng.choice(len(teams), size=2, replace=False)
        home, away = teams[int(hi)], teams[int(ai)]
        n_events = int(rng.integers(0, 16))
        periods = np.sort(rng.integers(1, 6, size=n_events))
        events = []
        for j in range(n_events):
            period = int(periods[j])
            limit = 720 if period <= 4 else 300
            pick = rng.random()
            charged = home if pick < 0.45 else away if pick < 0.9 else None
            events.append(
                FoulEvent(
                    event_id=j + 1,
                    period=period,
                    clock_seconds_remaining=float(rng.integers(0, limit + 1)),
                    charged_team=charged,
                    pre_wp=int(rng.integers(0, 1025)) / 1024.0,
                    post_wp=int(rng.integers(0, 1025)) / 1024.0,
                )
            )
        games.append(
            make_game(events, game_id=f"2021-22-reg-{i:05d}", home=home, away=away)
        )
    return games


def test_c2_signed_identities_on_randomized_games():
    rng = np.random.default_rng(202)
    games = _grid_games(rng, 10_000)
    worst_perm = 0.0
    for g in games:
        m = compute_game_metrics(g)
        h = m.home_row

        # The two team rows are exact mirrors and the signed total can
        # never exceed the unsigned one.
        assert h.team_rim + m.away_row.team_rim == 0.0
        assert abs(h.team_rim) <= h.game_rim
        assert h.disparity + m.away_row.disparity == 0
        assert abs(h.disparity) <= h.n_calls

        # Viewing every probability from the other side leaves the
        # unsigned total bitwise unchanged and negates the signed one.
        flipped = make_game(
            [
                FoulEvent(
                    event_id=e.event_id,
                    period=e.period,
                    clock_seconds_remaining=e.clock_seconds_remaining,
                    charged_team=e.charged_team,
                    pre_wp=1.0 - e.pre_wp,
                    post_wp=1.0 - e.post_wp,
                )
                for e in g.events
            ],
            game_id=g.game_id,
            home=g.home_team,
            away=g.away_team,
        )
        fm = compute_game_metrics(flipped)
        assert fm.home_row.game_rim == h.game_rim
        assert fm.home_row.team_rim == m.away_row.team_rim

        # Reordering events changes no count and moves no sum by more
        # than accumulated rounding.
        order = rng.permutation(len(g.events))
        shuffled = make_game(
            [g.events[int(j)] for j in order],
            game_id=g.game_id,
            home=g.home_team,
            away=g.away_team,
        )
        ph = compute_game_metrics(shuffled).home_row
        assert ph.n_calls == h.n_calls
        assert ph.disparity == h.disparity
        worst_perm = max(worst_perm, abs(ph.game_rim - h.game_rim))
        worst_perm = max(worst_perm, abs(ph.team_rim - h.team_rim))
        swing = swing_per_call(h.game_rim, h.n_calls)
        p_swing = swing_per_call(ph.game_rim, ph.n_calls)
        if swing is None:
            assert p_swing is None
        else:
            worst_perm = max(worst_perm, abs(p_swing - swing))
    assert worst_perm < 1e-12
    _ok(
        "C2 signed identities: PASS (10000 games, mirrors/bounds/flips exact, "
        f"permutation drift {worst_perm:.3g})"
    )


# ---------------------------------------------------------------------------
# C3: panel row counts are exact multiples of the game count
# ---------------------------------------------------------------------------


def test_c3_panel_row_counts_exact():
    cfg = SimConfig(
        seed=303,
        n_teams=30,
        n_referees=60,
        games_per_season=2000,
        postseason_games_per_season=438,
        seasons=("2021-22", "2022-23"),
        fouls_mean=3.0,
    )
    games, _ = generate(cfg)
    n = len(games)
    assert n == 4876

    team_rows = expand_rows(games)
    ref_rows, skipped = panel_rows(games)
    assert len(team_rows) == 2 * n == 9752
    assert skipped == 0
    assert len(ref_rows) == 6 * n == 29256
    _ok(
        f"C3 row counts: PASS (team rows {len(team_rows)} = 2x{n}, "
        f"crew rows {len(ref_rows)} = 6x{n}, 0 skipped)"
    )


# ---------------------------------------------------------------------------
# C4: additive null is flat; an injected pair ranks first
# ---------------------------------------------------------------------------

_REFS20 = [f"Ref{i + 1:02d}" for i in range(20)]
_TEAMS20 = [f"T{i + 1:02d}" for i in range(20)]
_TARGET_PAIR = ("Ref07", "T13")


def test_c4a_exactly_additive_panel_has_no_excess():
    rows = []
    gid = 0
    for i, ref in enumerate(_REFS20):
        for j, team in enumerate(_TEAMS20):
            value = (i - 10) / 64.0 + (j - 10) / 128.0
            for _ in range(3):
                rows.append(
                    PanelRow(
                        game_id=f"g{gid:06d}",
                        season="S1",
                        referee=ref,
                        team=team,
                        opponent="TXX",
                        team_rim=value,
                        disparity=float(i - j),
                    )
                )
                gid += 1
    cells = build_cells(rows)
    assert len(cells) == 400
    worst = max(
        max(abs(c.rim.excess), abs(c.disparity.excess)) for c in cells
    )
    assert worst < 1e-10
    _ok(f"C4a additive null: PASS (400 cells, max |excess| {worst:.3g})")


def _pair_detection_panel(
    rng: np.random.Generator,
    n_games: int = 2667,
    n_target: int = 40,
    game_sd: float = 0.05,
    row_sd: float = 0.02,
    delta: float = 0.05,
) -> list[PanelRow]:
    """Additive referee/team panel with one pair shifted by ``delta``.

    The target pair co-occurs in exactly ``n_target`` games (alternating
    home and away); the background schedule avoids it entirely so the
    shared-game count is fixed, not sampled.
    """
    target_ref, target_team = _TARGET_PAIR
    ref_eff = dict(zip(_REFS20, rng.normal(0.0, 0.02, size=len(_REFS20))))
    team_eff = dict(zip(_TEAMS20, rng.normal(0.0, 0.02, size=len(_TEAMS20))))
    rows: list[PanelRow] = []

    def add_game(gid: str, home: str, away: str, crew) -> None:
        shock = float(rng.normal(0.0, game_sd))
        disp = float(rng.normal(0.0, 4.0))
        for ref in crew:
            for team, opp, sign, d in (
                (home, away, 1.0, disp),
                (away, home, -1.0, -disp),
            ):
                y = (
                    ref_eff[ref]
                    + team_eff[team]
                    + sign * shock
                    + float(rng.normal(0.0, row_sd))
                )
                if ref == target_ref and team == target_team:
                    y += delta
                rows.append(
                    PanelRow(
                        game_id=gid,
                        season="S1",
                        referee=ref,
                        team=team,
                        opponent=opp,
                        team_rim=y,
                        disparity=d,
                    )
                )

    k = 0
    for i in range(n_target):
        opp = _TEAMS20[int(rng.integers(0, 20))]
        while opp == target_team:
            opp = _TEAMS20[int(rng.integers(0, 20))]
        others = list(
            rng.choice([r for r in _REFS20 if r != target_ref], size=2, replace=False)
        )
        home, away = (target_team, opp) if i % 2 == 0 else (opp, target_team)
        add_game(f"g{k:05d}", home, away, sorted([target_ref] + others))
        k += 1
    for _ in range(n_games - n_target):
        while True:
            hi, ai = rng.choice(20, size=2, replace=False)
            crew = sorted(_REFS20[j] for j in rng.choice(20, size=3, replace=False))
            home, away = _TEAMS20[int(hi)], _TEAMS20[int(ai)]
            if not (target_ref in crew and target_team in (home, away)):
                break
        add_game(f"g{k:05d}", home, away, crew)
        k += 1
    return rows


def test_c4b_injected_pair_ranks_first():
    reps = 200
    hits = 0
    for rep in range(reps):
        rng = np.random.default_rng([2024, rep])
        tables = outlier_tables(
            build_cells(_pair_detection_panel(rng)), min_pair_games=20, k=10
        )
        top = tables.top_rim[0]
        if (top.referee, top.team) == _TARGET_PAIR:
            hits += 1
    assert hits >= int(0.95 * reps)
    _ok(
        f"C4b pair detection: PASS ({hits}/{reps} reps rank the shifted pair "
        "first, threshold 190)"
    )


# ---------------------------------------------------------------------------
# C5: least squares and clustered covariance vs independent oracles
# ---------------------------------------------------------------------------


def _brute_force_sandwich(X, e, clusters):
    n, k = X.shape
    bread = np.linalg.inv(X.T @ X)
    meat = np.zeros((k, k))
    for g in sorted(set(clusters)):
        s = np.zeros(k)
        for i in range(n):
            if clusters[i] == g:
                s = s + X[i] * e[i]
        meat = meat + np.outer(s, s)
    G = len(set(clusters))
    V = bread @ meat @ bread * (G / (G - 1.0)) * ((n - 1.0) / (n - k))
    return (V + V.T) / 2.0


def test_c5_estimation_matches_extended_precision_and_brute_force():
    rng = np.random.default_rng(505)

    worst_beta = 0.0
    for _ in range(100):
        n = int(rng.integers(45, 501))
        k = int(rng.integers(2, 41))
        X = np.column_stack([np.ones(n), rng.normal(0.0, 1.0, size=(n, k - 1))])
        y = X @ rng.normal(0.0, 2.0, size=k) + rng.normal(0.0, 0.5, size=n)
        beta, _, _, _ = fit_ols(X, y)
        ref = np.asarray(solve_normal_longdouble(X, y), dtype=float)
        worst_beta = max(worst_beta, float(np.max(np.abs(beta - ref))))
    assert worst_beta < 1e-8

    worst_v = 0.0
    for _ in range(20):
        n = int(rng.integers(30, 121))
        k = int(rng.integers(2, 6))
        X = np.column_stack([np.ones(n), rng.normal(size=(n, k - 1))])
        y = X @ rng.normal(size=k) + rng.normal(size=n)
        beta, resid, _, _ = fit_ols(X, y)
        clusters = [f"g{int(v):03d}" for v in rng.integers(0, max(3, n // 6), size=n)]
        V = cluster_covariance(X, resid, clusters)
        R = _brute_force_sandwich(X, resid, clusters)
        worst_v = max(worst_v, float(np.max(np.abs(V - R))))
    assert worst_v < 1e-12

    # With every row its own cluster the result must equal the plain
    # heteroskedasticity sandwich times the small-sample factor, bitwise.
    n, k = 37, 3
    X = np.column_stack([np.ones(n), rng.normal(size=(n, k - 1))])
    y = X @ np.array([0.5, -1.0, 2.0]) + rng.normal(size=n)
    beta, resid, _, _ = fit_ols(X, y)
    V = cluster_covariance(X, resid, np.arange(n))
    scores = X * resid[:, None]
    bread = np.linalg.inv(X.T @ X)
    hc0 = bread @ (scores.T @ scores) @ bread
    ref = hc0 * (n / (n - 1.0)) * ((n - 1.0) / (n - k))
    ref = (ref + ref.T) / 2.0
    assert np.array_equal(V, ref)

    _ok(
        f"C5 estimation oracles: PASS (100 systems max |dbeta| {worst_beta:.3g}, "
        f"sandwich max |dV| {worst_v:.3g}, singleton clusters bitwise equal)"
    )


# ---------------------------------------------------------------------------
# C6: robustness value solves its defining quadratic
# ---------------------------------------------------------------------------


def test_c6_robustness_value_solves_its_quadratic():
    t_grid = (0.0, 1e-3, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0)
    nu_grid = (1.0, 2.0, 5.0, 10.0, 30.0, 100.0, 1000.0, 10000.0)
    worst = 0.0
    for nu in nu_grid:
        assert robustness_rho(0.0, nu) == 0.0
        for t in t_grid:
            rho = robustness_rho(t, nu)
            assert 0.0 <= rho < 1.0
            worst = max(worst, abs(nu * rho * rho + t * t * rho - t * t))
    assert worst < 1e-12

    # Closed form at (t, dof) = (2, 100): the positive root of
    # 100 r^2 + 4 r - 4 = 0 is (sqrt(101) - 1) / 50, checked against a
    # 60-digit evaluation.
    getcontext().prec = 60
    ref = (Decimal(101).sqrt() - 1) / Decimal(50)
    got = robustness_rho(2.0, 100.0)
    err = abs(Decimal(repr(got)) - ref)
    assert err < Decimal("1e-10")
    _ok(
        f"C6 robustness quadratic: PASS (grid residual {worst:.3g}, "
        f"closed-form error {float(err):.3g})"
    )


# ---------------------------------------------------------------------------
# C7: injected home-side disparity shift is recovered with calibrated CIs
# ---------------------------------------------------------------------------


def test_c7_injected_disparity_shift_recovery():
    delta = 1.5
    reps = 500
    start = time.perf_counter()
    covered = 0
    total = 0.0
    for rep in range(reps):
        rng = np.random.default_rng([31415, rep])
        rows = simulate_team_side_rows(
            rng, n_games=1230, n_teams=30, home_disparity_shift={"T05": delta}
        )
        fits = team_side_effects(
            rows,
            [TeamSideTarget("T05", "home")],
            outcomes=("disparity",),
            target_form="paired",
        )
        c = fits["disparity"].coef("T05:home[paired]")
        total += c.estimate
        if c.ci_lower <= delta <= c.ci_upper:
            covered += 1
    elapsed = time.perf_counter() - start
    mean_est = total / reps

    assert 0.90 * reps <= covered <= 0.98 * reps
    assert abs(mean_est - delta) < 0.1
    assert elapsed < 600.0
    _ok(
        f"C7 shift recovery: PASS (coverage {covered}/{reps} = "
        f"{100.0 * covered / reps:.1f}%, mean estimate {mean_est:.4f} vs 1.5, "
        f"{elapsed:.1f}s)"
    )


# ---------------------------------------------------------------------------
# C8: the pipeline is byte-deterministic end to end
# ---------------------------------------------------------------------------


def test_c8_pipeline_reruns_are_byte_identical(tmp_path):
    dataset = tmp_path / "dataset"
    figures = tmp_path / "figures"

    def run_once() -> dict[str, str]:
        assert (
            main(
                [
                    "simulate",
                    "--out",
                    str(dataset),
                    "--seed",
                    "17",
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
                ]
            )
            == 0
        )
        assert (
            main(
                [
                    "emit-figures",
                    "--dataset",
                    str(dataset),
                    "--out",
                    str(figures),
                    "--min-games-regular",
                    "2",
                    "--min-games-postseason",
                    "2",
                    "--min-pair-games",
                    "2",
                ]
            )
            == 0
        )
        return {
            str(p.relative_to(tmp_path)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(tmp_path.rglob("*"))
            if p.is_file()
        }

    first = run_once()
    shutil.rmtree(dataset)
    shutil.rmtree(figures)
    second = run_once()
    assert first == second

    report = validate_output_dir(figures)
    assert report.ok, report.issues
    assert set(report.files) == {f"{name}.csv" for name in FIGURE_FILES}
    assert len(report.files) == 18
    _ok(
        f"C8 determinism: PASS ({len(first)} files byte-identical across "
        "reruns, all 18 outputs re-parse cleanly)"
    )


# ---------------------------------------------------------------------------
# C9: a corpus full of feed gaps yields an exact quarantine ledger
# ---------------------------------------------------------------------------


def test_c9_gap_corpus_quarantine_ledger_exact(tmp_path):
    raw = tmp_path / "raw"
    raw.mkdir()

    def put(name: str, doc: dict, wp: dict | None = None) -> None:
        (raw / f"{name}.summary.json").write_text(
            json.dumps(doc), encoding="utf-8"
        )
        if wp is not None:
            (raw / f"{name}.wp.json").write_text(json.dumps(wp), encoding="utf-8")

    # Fully clean game: both fouls have their own samples.
    put(
        "a-clean",
        summary_doc(
            game_id="2021-22-reg-90001",
            plays=[
                play("p1", 1, foul=False),
                play("p2", 2, foul=True, team="HOU"),
                play("p3", 3, foul=True, team="BOS"),
            ],
        ),
        wp_doc([("p1", 0.55), ("p2", 0.58), ("p3", 0.46)]),
    )
    # Truncated document: unreadable, counted as a document error.
    (raw / "b-truncated.summary.json").write_bytes(b'{"game_id": "2021-22-reg-9')
    # A team playing itself: the whole game is quarantined.
    put(
        "c-selfgame",
        summary_doc(
            game_id="2021-22-reg-90003",
            home="HOU",
            away="HOU",
            plays=[play("p1", 1, foul=True, team="HOU")],
        ),
        wp_doc([("p1", 0.51)]),
    )
    # No listed officials: kept for team-level work, flagged.
    put(
        "d-nocrew",
        summary_doc(
            game_id="2021-22-reg-90004",
            officials=(),
            plays=[play("p1", 1, foul=True, team="BOS")],
        ),
        wp_doc([("p1", 0.48)]),
    )
    # Final play is a foul with no sample at or after it: that one foul
    # is quarantined, the earlier one survives.
    put(
        "e-lastfoul",
        summary_doc(
            game_id="2021-22-reg-90005",
            plays=[
                play("p1", 1, foul=False),
                play("p2", 2, foul=True, team="HOU"),
                play("p3", 3, foul=True, team="BOS"),
            ],
        ),
        wp_doc([("p1", 0.52), ("p2", 0.57)]),
    )
    # Summary without any probability feed: every foul is quarantined but
    # the game itself stays.
    put(
        "f-nowp",
        summary_doc(
            game_id="2021-22-reg-90006",
            plays=[
                play("p1", 1, foul=True, team="HOU"),
                play("p2", 2, foul=True, team="BOS"),
            ],
        ),
    )
    # Feed with an out-of-range and a non-numeric sample: both dropped,
    # alignment falls through to the next good sample.
    put(
        "g-badsamples",
        summary_doc(
            game_id="2021-22-reg-90007",
            plays=[
                play("p1", 1, foul=False),
                play("p2", 2, foul=True, team="HOU"),
                play("p3", 3, foul=False),
                play("p4", 4, foul=True, team="BOS"),
            ],
        ),
        wp_doc([("p1", 0.5), ("p2", 1.7), ("p3", "oops"), ("p4", 0.6)]),
    )
    # A summary nested too deeply to decode: unreadable.
    (raw / "h-nested.summary.json").write_bytes(b"[" * 100_000 + b"]" * 100_000)
    # A clean summary whose feed holds an integer past the digit limit: the
    # whole document is unreadable, not just its feed.
    put(
        "i-longint",
        summary_doc(game_id="2021-22-reg-90009", plays=[play("p1", 1, foul=True, team="HOU")]),
    )
    (raw / "i-longint.wp.json").write_bytes(b'{"items": [], "pregame": ' + b"7" * 5000 + b"}")

    games, report = ingest_directory(raw)
    assert report.document_errors == [
        ("b-truncated.summary.json", "summary: Unterminated string starting at (byte 12)"),
        ("h-nested.summary.json", "summary: nested too deeply"),
        (
            "i-longint.summary.json",
            f"wp: integer over {sys.get_int_max_str_digits()} digits",
        ),
    ]
    counts = report.quarantine_counts()
    assert counts == {
        "document_errors": 3,
        "quarantined_games": 1,
        "no_crew_games": 1,
        "quarantined_fouls": 3,
        "dropped_samples": 2,
    }
    assert sorted(g.game_id for g in games) == [
        "2021-22-reg-90001",
        "2021-22-reg-90004",
        "2021-22-reg-90005",
        "2021-22-reg-90006",
        "2021-22-reg-90007",
    ]

    root = tmp_path / "dataset"
    manifest = write_dataset(games, root, quarantine=counts)
    assert dict(manifest.quarantine) == counts
    reloaded, manifest2 = load_dataset(root)
    assert sorted(g.game_id for g in reloaded) == sorted(g.game_id for g in games)
    assert dict(manifest2.quarantine) == counts
    _ok(
        "C9 gap corpus: PASS (ledger exact: 3 document errors, 1 quarantined "
        "game, 1 crewless game, 3 quarantined fouls, 2 dropped samples; "
        "5 games kept and reloadable)"
    )
