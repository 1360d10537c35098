"""Tests for the regression layer: rank filter, OLS, clustered covariance,
robustness values, design construction, the sparse solver against a dense
oracle, and the three effect studies."""

import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from rimkit import inference
from rimkit.inference import (
    Design,
    DesignError,
    FitError,
    TeamSideTarget,
    _as_rows,
    _column,
    _design,
    _rank_filter,
    build_design,
    cluster_covariance,
    fit_clustered,
    fit_ols,
    ref_team_residual_effects,
    robustness_rho,
    series_state_effects,
    team_side_effects,
)
from rimkit.metrics import expand_rows
from rimkit.model import REGULAR, SeriesStateKey, TeamGameRow
from rimkit.outliers import PanelRow
from rimkit.special import student_t_quantile
from rimkit.synth import (
    SimConfig,
    generate,
    simulate_ref_team_panel,
    simulate_team_side_rows,
)

from conftest import solve_normal_longdouble


def team_row(
    game_id,
    team,
    opponent,
    is_home,
    *,
    disparity=0,
    team_rim=0.0,
    season="2021-22",
    season_type=REGULAR,
    game_rim=0.1,
    series_key=None,
):
    return TeamGameRow(
        game_id=game_id,
        team=team,
        opponent=opponent,
        is_home=is_home,
        season=season,
        season_type=season_type,
        disparity=disparity,
        team_rim=team_rim,
        game_rim=game_rim,
        n_calls=40 - disparity,
        series_key=series_key,
    )


def mirrored_game(game_id, home, away, **kwargs):
    h = team_row(game_id, home, away, True, **kwargs)
    a = team_row(
        game_id,
        away,
        home,
        False,
        disparity=-h.disparity,
        team_rim=-h.team_rim,
        season=h.season,
        season_type=h.season_type,
        game_rim=h.game_rim,
        series_key=h.series_key,
    )
    return [h, a]


def team_design(rows, targets=(), *, outcome="disparity", target_form="indicator",
                include_series=False):
    """The team-row design and the one outcome's values over its rows."""
    design, ys = build_design(rows, targets, outcomes=(outcome,), target_form=target_form,
                              include_series=include_series)
    return design, ys[outcome]


def team_fit(rows, targets=(), *, outcome="disparity", **kwargs):
    design, y = team_design(rows, targets, outcome=outcome, **kwargs)
    return fit_clustered(design, outcome, y)


# ---------------------------------------------------------------------------
# Rank filter
# ---------------------------------------------------------------------------


def test_rank_filter_drops_dependent_columns_earliest_wins(rng):
    n = 40
    x = rng.normal(size=n)
    z = rng.normal(size=n)
    X = np.column_stack(
        [
            np.ones(n),
            x,
            np.ones(n),  # duplicate of the intercept
            np.zeros(n),  # identically zero
            3.0 * x - 2.0,  # linear combination of intercept and x
            z,
        ]
    )
    names = ["intercept", "x", "ones_again", "zero", "combo", "z"]
    kept = _rank_filter(X.T @ X, n)
    assert [names[j] for j in kept] == ["intercept", "x", "z"]
    assert [names[j] for j in range(6) if j not in kept] == ["ones_again", "zero", "combo"]


def test_rank_filter_keeps_independent_columns(rng):
    X = rng.normal(size=(30, 6))
    assert _rank_filter(X.T @ X, 30) == list(range(6))


# ---------------------------------------------------------------------------
# OLS
# ---------------------------------------------------------------------------


def test_fit_ols_exact_line():
    X = np.array([[1.0, 0.0], [1.0, 1.0], [1.0, 2.0]])
    y = np.array([1.0, 3.0, 5.0])
    beta, resid, rank, dof = fit_ols(X, y)
    assert beta == pytest.approx([1.0, 2.0], abs=1e-12)
    assert resid == pytest.approx([0.0, 0.0, 0.0], abs=1e-12)
    assert rank == 2 and dof == 1


def test_fit_ols_matches_longdouble_normal_equations(rng):
    worst = 0.0
    for _ in range(25):
        n = int(rng.integers(20, 200))
        k = int(rng.integers(2, 12))
        X = np.column_stack([np.ones(n), rng.normal(size=(n, k - 1))])
        beta_true = rng.normal(size=k)
        y = X @ beta_true + rng.normal(size=n)
        beta, _, _, _ = fit_ols(X, y)
        ref = solve_normal_longdouble(X, y)
        worst = max(worst, float(np.abs(beta - ref.astype(float)).max()))
    assert worst < 1e-10


def test_fit_ols_rejects_bad_inputs(rng):
    X = rng.normal(size=(10, 3))
    y = rng.normal(size=10)
    with pytest.raises(FitError):
        fit_ols(X, y[:-1])  # length mismatch
    with pytest.raises(FitError):
        fit_ols(X[:2], y[:2])  # n < k
    with pytest.raises(FitError):
        fit_ols(np.empty((10, 0)), y)  # no columns
    bad = X.copy()
    bad[0, 0] = np.nan
    with pytest.raises(FitError):
        fit_ols(bad, y)
    dup = np.column_stack([X, X[:, 0]])
    with pytest.raises(FitError):
        fit_ols(dup, y)  # rank deficient


# ---------------------------------------------------------------------------
# Clustered covariance
# ---------------------------------------------------------------------------


def brute_force_sandwich(X, e, clusters):
    bread = np.linalg.inv(X.T @ X)
    labels = sorted(set(clusters))
    k = X.shape[1]
    meat = np.zeros((k, k))
    for g in labels:
        idx = [i for i, c in enumerate(clusters) if c == g]
        s = X[idx].T @ e[idx]
        meat += np.outer(s, s)
    G, n = len(labels), X.shape[0]
    V = bread @ meat @ bread * (G / (G - 1.0)) * ((n - 1.0) / (n - k))
    return (V + V.T) / 2.0


def test_cluster_covariance_matches_bruteforce(rng):
    n, k = 60, 4
    X = np.column_stack([np.ones(n), rng.normal(size=(n, k - 1))])
    e = rng.normal(size=n)
    clusters = list(rng.choice([f"g{i}" for i in range(8)], size=n))
    V = cluster_covariance(X, e, clusters)
    ref = brute_force_sandwich(X, e, np.array(clusters))
    assert np.abs(V - ref).max() < 1e-12
    assert np.array_equal(V, V.T)


def test_cluster_covariance_hand_value():
    # One-column design of ones: bread = 1/4; cluster score sums are 3 and
    # 2, so the meat is 13 and the plain sandwich is 13/16. The CR1 factor
    # with G=2, n=4, k=1 is (2/1)*(3/3) = 2.
    X = np.ones((4, 1))
    e = np.array([1.0, 2.0, -1.0, 3.0])
    V1 = cluster_covariance(X, e, ["a", "a", "b", "b"])
    assert V1[0, 0] == 13.0 / 8.0


_NAN = float("nan")


@pytest.mark.parametrize("labels, codes", [
    # numpy strips trailing NULs from its strings, so np.unique once merged
    # these six labels into three clusters.
    (["a", "a\x00", "b", "b\x00", "c", "c\x00"], [0, 1, 2, 3, 4, 5]),
    ([b"a", b"a\x00", b"b", b"b\x00", b"c", b"c\x00"], [0, 1, 2, 3, 4, 5]),
    # Float labels stay with np.unique, which keeps every NaN in one cluster
    # (each NaN is a distinct object to a set).
    (np.array([0.5, _NAN, _NAN, 1.5, 1.5, 0.5]), [0, 2, 2, 1, 1, 0]),
], ids=["str", "bytes", "float-nan"])
def test_cluster_labels_differing_by_a_trailing_nul_are_two_clusters(rng, labels, codes):
    X = np.column_stack([np.ones(6), rng.normal(size=6)])
    e = rng.normal(size=6)
    want = cluster_covariance(X, e, np.array(codes))
    assert np.array_equal(cluster_covariance(X, e, labels), want)


def test_singleton_clusters_equal_hc0_times_cr1_exactly(rng):
    n, k = 37, 3
    X = rng.normal(size=(n, k))
    e = rng.normal(size=n)
    V = cluster_covariance(X, e, np.arange(n))
    scores = X * e[:, None]
    bread = np.linalg.inv(X.T @ X)
    hc0 = bread @ (scores.T @ scores) @ bread
    ref = hc0 * (n / (n - 1.0)) * ((n - 1.0) / (n - k))
    ref = (ref + ref.T) / 2.0
    assert np.array_equal(V, ref)


def test_cluster_covariance_rejects_degenerate_inputs(rng, monkeypatch):
    X = rng.normal(size=(10, 3))
    e = rng.normal(size=10)
    with pytest.raises(FitError):
        cluster_covariance(X, e, ["g"] * 10)  # one cluster
    with pytest.raises(FitError):
        cluster_covariance(X[:3], e[:3], ["a", "b", "c"])  # n <= k
    with pytest.raises(FitError):
        cluster_covariance(X, e[:-1], list(range(10)))
    # Blocks of one cluster each: a label list of the wrong length must not
    # leave rows out of the meat.
    monkeypatch.setattr(inference, "_SCORE_BLOCK_BYTES", 8 * X.shape[1])
    for labels in (9, 11):
        with pytest.raises(FitError, match="one cluster label per row"):
            cluster_covariance(X, e, list(range(labels)))


# ---------------------------------------------------------------------------
# Robustness value
# ---------------------------------------------------------------------------


def test_robustness_rho_solves_its_quadratic():
    worst = 0.0
    for t in (0.01, 0.5, 1.0, 2.0, 5.0, 10.0):
        for dof in (1.0, 10.0, 100.0, 1e4):
            rho = robustness_rho(t, dof)
            assert 0.0 <= rho < 1.0
            worst = max(worst, abs(dof * rho * rho + t * t * rho - t * t))
    assert worst < 1e-12


def test_robustness_rho_known_points():
    assert robustness_rho(0.0, 50.0) == 0.0
    # rho(2, 100) is the positive root of 100 r^2 + 4 r - 4 = 0,
    # i.e. (sqrt(101) - 1) / 50.
    expected = (math.sqrt(101.0) - 1.0) / 50.0
    assert robustness_rho(2.0, 100.0) == pytest.approx(expected, rel=1e-15)
    assert robustness_rho(-2.0, 100.0) == robustness_rho(2.0, 100.0)
    assert robustness_rho(5.0, 100.0) > robustness_rho(1.0, 100.0)


def test_robustness_rho_rejects_bad_inputs():
    with pytest.raises(ValueError):
        robustness_rho(1.0, 0.5)
    with pytest.raises(ValueError):
        robustness_rho(math.inf, 10.0)
    with pytest.raises(ValueError):
        robustness_rho(math.nan, 10.0)


# ---------------------------------------------------------------------------
# Design construction
# ---------------------------------------------------------------------------


def four_team_rows():
    rows = []
    rows += mirrored_game("g1", "A", "B", disparity=2, team_rim=0.05)
    rows += mirrored_game("g2", "C", "A", disparity=-1, team_rim=-0.02)
    rows += mirrored_game("g3", "B", "D", disparity=3, team_rim=0.04)
    rows += mirrored_game("g4", "D", "C", disparity=1, team_rim=0.01)
    rows += mirrored_game("g5", "A", "D", disparity=0, team_rim=0.03)
    rows += mirrored_game("g6", "B", "C", disparity=-2, team_rim=-0.06)
    return rows


def test_build_design_column_order_and_values():
    rows = four_team_rows()
    design, y = team_design(rows, [TeamSideTarget("A", "home")])
    # Single season contributes no columns; references are first levels.
    assert design.columns == (
        "intercept",
        "home",
        "team_B",
        "team_C",
        "team_D",
        "opp_B",
        "opp_C",
        "opp_D",
        "A:home[indicator]",
    )
    assert "team reference A" in design.notes
    assert "opponent reference A" in design.notes
    assert "season reference 2021-22" in design.notes
    assert design.matrix.shape == (12, 9)
    assert list(design.groups) == [0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5]  # g1..g6, by game
    # The target column marks exactly A's home rows (games g1 and g5).
    target = design.matrix[:, -1]
    expected = [1.0 if (r.team == "A" and r.is_home) else 0.0 for r in rows]
    assert np.array_equal(target, expected)
    assert y == pytest.approx([float(r.disparity) for r in rows])


def test_build_design_team_rim_outcome():
    rows = four_team_rows()
    design, ys = build_design(rows, (), outcomes=("team_rim", "disparity"),
                              target_form="indicator", include_series=False)
    assert list(ys) == ["team_rim", "disparity"]
    assert ys["team_rim"] == pytest.approx([r.team_rim for r in rows])
    assert ys["disparity"] == pytest.approx([float(r.disparity) for r in rows])
    assert design.rows.shape[0] == len(rows)


def test_build_design_paired_target_marks_both_rows():
    rows = four_team_rows()
    design, _ = team_design(rows, [TeamSideTarget("A", "home")], target_form="paired")
    assert design.columns[-1] == "A:home[paired]"
    target = design.matrix[:, -1]
    expected = []
    for r in rows:
        if r.team == "A" and r.is_home:
            expected.append(1.0)
        elif r.opponent == "A" and not r.is_home:
            expected.append(-1.0)
        else:
            expected.append(0.0)
    assert np.array_equal(target, expected)
    assert sum(v == -1.0 for v in target) == 2  # opponents in g1 and g5


def test_build_design_rejects_impossible_requests():
    rows = four_team_rows()
    with pytest.raises(DesignError):
        team_design(rows, outcome="wins")
    with pytest.raises(DesignError):
        team_design(rows, target_form="difference")
    with pytest.raises(DesignError):
        team_design(rows, [TeamSideTarget("Z", "home")])
    with pytest.raises(DesignError):
        team_design([])
    with pytest.raises(DesignError):
        team_side_effects(rows, [], outcomes=("disparity", "wins"))
    with pytest.raises(DesignError):
        TeamSideTarget("A", "neutral")


def test_build_design_series_effects_exclude_unknown_states():
    rows = four_team_rows()
    with_state = []
    for i, r in enumerate(rows):
        if r.game_id in ("g1", "g3"):
            with_state.append(
                team_row(
                    r.game_id,
                    r.team,
                    r.opponent,
                    r.is_home,
                    disparity=r.disparity,
                    team_rim=r.team_rim,
                    season_type="postseason",
                    series_key=SeriesStateKey(1, 2),
                )
            )
        else:
            with_state.append(r)
    design, y = team_design(with_state, include_series=True)
    assert design.matrix.shape[0] == 4  # only g1 and g3 rows survive
    assert list(design.groups) == [0, 0, 1, 1]
    assert list(y) == [float(r.disparity) for r in with_state if r.game_id in ("g1", "g3")]
    assert "excluded 8 rows without series state" in design.notes
    assert "series reference 1--2" in design.notes  # 0--0 absent, falls back
    with pytest.raises(DesignError):
        team_design(rows, include_series=True)


def test_build_design_notes_constant_outcome():
    # The design holds no outcome, so the degenerate note waits for the fit.
    rows = [
        team_row("g1", "A", "B", True, disparity=4),
        team_row("g2", "B", "A", True, disparity=4),
    ]
    design, y = team_design(rows)
    assert list(y) == [4.0, 4.0]
    assert "outcome is constant; fit is degenerate" not in design.notes


def test_only_the_constant_outcome_fit_notes_degeneracy():
    rows = [r._replace(disparity=4) for r in four_team_rows()]
    design, ys = build_design(rows, (), outcomes=("disparity", "team_rim"),
                              target_form="indicator", include_series=False)
    constant = fit_clustered(design, "disparity", ys["disparity"])
    varying = fit_clustered(design, "team_rim", ys["team_rim"])
    assert constant.notes == design.notes + ("outcome is constant; fit is degenerate",)
    assert varying.notes == design.notes
    assert (constant.outcome, varying.outcome) == ("disparity", "team_rim")


def test_build_design_estimates_invariant_to_row_order(rng):
    rows = simulate_team_side_rows(rng, n_games=80, n_teams=6)
    targets = [TeamSideTarget("T03", "home")]
    shuffled = list(rows)
    rng.shuffle(shuffled)
    fit_a = team_fit(rows, targets)
    fit_b = team_fit(shuffled, targets)
    assert fit_a.terms == fit_b.terms
    assert fit_a.estimates == pytest.approx(fit_b.estimates, abs=1e-10)
    assert fit_a.se == pytest.approx(fit_b.se, abs=1e-10)


# ---------------------------------------------------------------------------
# fit_clustered
# ---------------------------------------------------------------------------


def test_fit_clustered_residual_dof_and_interval_math(rng):
    rows = simulate_team_side_rows(rng, n_games=200, n_teams=8)
    design, y = team_design(rows, [TeamSideTarget("T02", "home")])
    res = fit_clustered(design, "disparity", y)
    n, k = design.matrix.shape
    assert res.n_rows == n == 400
    assert res.n_clusters == 200
    assert res.dof == n - k
    tcrit = student_t_quantile(0.975, float(res.dof))
    assert res.ci_lower == pytest.approx(res.estimates - tcrit * res.se)
    assert res.ci_upper == pytest.approx(res.estimates + tcrit * res.se)
    for i, term in enumerate(res.terms):
        if res.se[i] > 0:
            assert res.t_stats[i] == pytest.approx(res.estimates[i] / res.se[i])
            assert res.rho[i] == pytest.approx(
                robustness_rho(float(res.t_stats[i]), float(res.dof))
            )
    summary = res.coef("T02:home[indicator]")
    assert summary.term == "T02:home[indicator]"
    assert summary.estimate == pytest.approx(float(res.estimates[-1]))
    assert [c.term for c in res.coef_rows()] == list(res.terms)
    with pytest.raises(KeyError):
        res.coef("nonexistent")


def test_fit_clustered_handles_zero_se():
    # A perfectly fit constant outcome: residuals are zero, so every
    # covariance entry is zero. Nonzero estimates get infinite t and an
    # undefined robustness value; the interval collapses to the point.
    design = Design(
        rows=_as_rows(np.ones((4, 1))),
        groups=np.array([0, 0, 1, 1]),
        columns=("intercept",),
        dropped=(),
        notes=(),
    )
    fit = fit_clustered(design, "disparity", np.full(4, 3.0))
    assert fit.estimates[0] == pytest.approx(3.0)
    assert fit.se[0] == 0.0
    assert math.isinf(fit.t_stats[0])
    assert math.isnan(fit.rho[0])
    assert fit.ci_lower[0] == fit.ci_upper[0] == pytest.approx(3.0)

    zfit = fit_clustered(design, "disparity", np.zeros(4))
    assert zfit.t_stats[0] == 0.0
    assert zfit.rho[0] == 0.0


# ---------------------------------------------------------------------------
# Sparse solver against a dense oracle
# ---------------------------------------------------------------------------


def _dummies(values, prefix, reference=None):
    levels = sorted(set(values))
    ref = reference if reference in levels else levels[0]
    keep = [lv for lv in levels if lv != ref]
    X = np.array([[1.0 if v == lv else 0.0 for lv in keep] for v in values])
    return X.reshape(len(values), len(keep)), [f"{prefix}{lv}" for lv in keep]


def dense_team_design(rows, targets=(), *, target_form="indicator", include_series=False,
                      **_):
    """The team-row design as dense dummy columns, before rank filtering."""
    if include_series:
        rows = [r for r in rows if r.series_key is not None]
    cols = [np.ones((len(rows), 1)), np.array([[float(r.is_home)] for r in rows])]
    names = ["intercept", "home"]
    for prefix, value, reference in (
        ("team_", lambda r: r.team, None),
        ("opp_", lambda r: r.opponent, None),
        ("season_", lambda r: r.season, None),
        ("series_", lambda r: r.series_key.label, SeriesStateKey(0, 0).label),
    ):
        if prefix == "series_" and not include_series:
            continue
        X, nm = _dummies([value(r) for r in rows], prefix, reference)
        cols.append(X)
        names += nm
    for tgt in targets:
        home = tgt.side == "home"
        col = []
        for r in rows:
            if r.team == tgt.team and r.is_home == home:
                col.append(1.0)
            elif target_form == "paired" and r.opponent == tgt.team and r.is_home != home:
                col.append(-1.0)
            else:
                col.append(0.0)
        cols.append(np.array(col)[:, None])
        names.append(f"{tgt.name}[{target_form}]")
    return np.hstack(cols), names


def dense_panel_design(rows, pairs):
    cols, names = [np.ones((len(rows), 1))], ["intercept"]
    for attr, prefix in (("referee", "ref_"), ("team", "team_"), ("opponent", "opp_"),
                         ("season", "season_")):
        X, nm = _dummies([getattr(r, attr) for r in rows], prefix)
        cols.append(X)
        names += nm
    for ref, team in pairs:
        cols.append(np.array([[float(r.referee == ref and r.team == team)] for r in rows]))
        names.append(f"pair_{ref}|{team}")
    return np.hstack(cols), names


def oracle_fit(X, names, y, clusters):
    """Gram-Schmidt earliest-wins filter, Householder QR, brute-force sandwich."""
    n = X.shape[0]
    tol = max(X.shape) * np.finfo(float).eps
    Q = np.empty((n, 0))
    kept = []
    for j in range(X.shape[1]):
        col = X[:, j]
        resid = col - Q @ (Q.T @ col)
        resid -= Q @ (Q.T @ resid)
        if np.linalg.norm(resid) <= tol * np.linalg.norm(col):
            continue
        Q = np.column_stack([Q, resid / np.linalg.norm(resid)])
        kept.append(j)
    Xk = X[:, kept]
    q, r = np.linalg.qr(Xk)
    beta = np.linalg.solve(r, q.T @ y)
    V = brute_force_sandwich(Xk, y - Xk @ beta, np.asarray(clusters))
    return [names[j] for j in kept], beta, V


def fe_rows(rng, n_games=240):
    """Mirrored postseason rows over two seasons and five series states.

    Team Z only ever plays at home, so any Z:home target is the Z team
    dummy (indicator) or the Z team minus the Z opponent dummy (paired).
    """
    teams = ["A", "B", "C", "D", "E", "Z"]
    keys = [SeriesStateKey(lo, hi) for lo, hi in ((0, 0), (0, 1), (1, 1), (1, 2), (2, 3))]
    rows = []
    for g in range(n_games):
        home, away = (str(t) for t in rng.choice(teams, size=2, replace=False))
        if away == "Z":
            home, away = away, home
        rows += mirrored_game(
            f"g{g:03d}",
            home,
            away,
            disparity=int(rng.integers(-6, 7)),
            team_rim=float(rng.normal(0.0, 0.05)),
            season=("2020-21", "2021-22")[g % 2],
            season_type="postseason",
            series_key=keys[int(rng.integers(len(keys)))],
        )
    return rows


@pytest.mark.parametrize("form", ["indicator", "paired"])
def test_sparse_team_fit_matches_dense_qr_oracle(rng, form):
    rows = fe_rows(rng)
    targets = (TeamSideTarget("Z", "home"), TeamSideTarget("B", "away"))
    for outcome in ("disparity", "team_rim"):
        X, names = dense_team_design(rows, targets, target_form=form, include_series=True)
        y = np.array([float(getattr(r, outcome)) for r in rows])
        kept, beta, V = oracle_fit(X, names, y, [r.game_id for r in rows])
        fit = team_fit(rows, targets, outcome=outcome, target_form=form, include_series=True)
        assert list(fit.terms) == kept
        assert fit.dropped == (f"Z:home[{form}]",)
        assert np.abs(fit.estimates - beta).max() < 1e-8
        assert np.abs(fit.covariance - V).max() < 1e-12


def test_sparse_ref_team_fit_matches_dense_qr_oracle(rng):
    rows = simulate_ref_team_panel(rng, n_games=300, n_teams=6, n_referees=8)
    # RefX appears only on T01 rows, so its pair column is its referee dummy.
    rows += [
        PanelRow(f"x{g}", "S1", "RefX", "T01", "T02",
                 float(rng.normal(0.0, 0.05)), float(rng.integers(-4, 5)))
        for g in range(12)
    ]
    pairs = [("Ref01", "T01"), ("RefX", "T01")]
    fits = ref_team_residual_effects(rows, pairs)
    X, names = dense_panel_design(rows, pairs)
    for outcome, fit in fits.items():
        y = np.array([getattr(r, outcome) for r in rows])
        kept, beta, V = oracle_fit(X, names, y, [r.game_id for r in rows])
        assert list(fit.terms) == kept
        assert fit.dropped == ("pair_RefX|T01",)
        assert np.abs(fit.estimates - beta).max() < 1e-8
        assert np.abs(fit.covariance - V).max() < 1e-12


def test_one_factorization_serves_every_outcome(rng):
    rows = fe_rows(rng)
    targets = (TeamSideTarget("B", "away"),)
    shared = team_side_effects(rows, targets, target_form="paired", include_series=True)
    for outcome, fit in shared.items():
        alone = team_fit(rows, targets, outcome=outcome, target_form="paired",
                         include_series=True)
        assert fit.terms == alone.terms and fit.notes == alone.notes
        assert np.array_equal(fit.estimates, alone.estimates)
        assert np.array_equal(fit.covariance, alone.covariance)

    # Every outcome fitted on one design solves with the same inverted Gram.
    design, ys = build_design(rows, targets, outcomes=("disparity", "team_rim"),
                              target_form="indicator", include_series=False)
    fit_clustered(design, "disparity", ys["disparity"])
    bread = design.rows.bread
    fit_clustered(design, "team_rim", ys["team_rim"])
    assert design.rows.bread is bread


def _state_rows():
    rows = []
    for r in four_team_rows():
        key = SeriesStateKey(1, 2) if r.game_id in ("g1", "g4") else SeriesStateKey(0, 0)
        rows.append(team_row(r.game_id, r.team, r.opponent, r.is_home, disparity=r.disparity,
                             team_rim=r.team_rim, season_type="postseason", series_key=key))
    return rows


@pytest.mark.parametrize(
    "spec, series",
    [
        (dict(targets=[TeamSideTarget("A", "home")]), False),
        (dict(outcome="team_rim"), False),
        (dict(targets=[TeamSideTarget("A", "home")], target_form="paired"), False),
        (dict(include_series=True), True),
        (dict(targets=[TeamSideTarget("A", "home"), TeamSideTarget("A", "home")]), False),
    ],
)
def test_design_matrix_matches_dense_build(spec, series):
    rows = _state_rows() if series else four_team_rows()
    X, names = dense_team_design(rows, **spec)
    design, y = team_design(rows, **spec)
    fit_clustered(design, spec.get("outcome", "disparity"), y)
    assert "matrix" not in design.__dict__  # fitting never builds the dense view
    kept = [names.index(c) for c in design.columns]
    assert [names[j] for j in range(len(names)) if j not in kept] == list(design.dropped)
    assert np.array_equal(design.matrix, X[:, kept])
    assert np.array_equal(design.rows.gram, X[:, kept].T @ X[:, kept])


def dense_series_design(rows):
    """The series-state design as dense dummy columns, one row per postseason game."""
    games = {r.game_id: r for r in rows
             if r.season_type == "postseason" and r.series_key is not None and r.is_home}
    rows = [games[g] for g in sorted(games)]
    cols, names = [np.ones((len(rows), 1))], ["intercept"]
    for prefix, value in (("home_team_", lambda r: r.team), ("away_team_", lambda r: r.opponent),
                          ("season_", lambda r: r.season),
                          ("series_", lambda r: r.series_key.label)):
        X, nm = _dummies([value(r) for r in rows], prefix)
        cols.append(X)
        names += nm
    y = np.array([r.game_rim for r in rows])
    return np.hstack(cols), names, y, [r.game_id for r in rows]


def _fitted_design(monkeypatch, study, *args):
    """The one design an effect study builds, captured as the study fits it."""
    designs = []
    build = inference._design
    monkeypatch.setattr(inference, "_design", lambda *a: designs.append(build(*a)) or designs[-1])
    study(*args)
    (design,) = designs
    return design


@pytest.mark.parametrize("study", ["ref_team", "series"])
def test_study_gram_matches_dense_build(rng, monkeypatch, study):
    if study == "ref_team":
        rows = simulate_ref_team_panel(rng, n_games=300, n_teams=6, n_referees=8)
        pairs = [("Ref01", "T01"), ("Ref02", "T02"), ("Ref01", "T01")]  # a repeated --pair
        design = _fitted_design(monkeypatch, ref_team_residual_effects, rows, pairs)
        X, names = dense_panel_design(rows, pairs)
        y, clusters = np.array([r.team_rim for r in rows]), [r.game_id for r in rows]
        assert design.dropped == ("pair_Ref01|T01",)  # the repeat goes, the earliest stays
        # A row matches at most one pair, so three pairs take one coded slot
        # beside intercept, referee, team, opponent and season, not three.
        assert design.rows.index.shape[1] == 6
    else:
        rows = fe_rows(rng)
        design = _fitted_design(monkeypatch, series_state_effects, rows)
        X, names, y, clusters = dense_series_design(rows)
    assert list(design.columns) == oracle_fit(X, names, y, clusters)[0]
    kept = [names.index(c) for c in design.columns]  # a repeated name resolves to its first
    assert [names[j] for j in range(len(names)) if j not in kept] == list(design.dropped)
    assert np.array_equal(design.rows.gram, X[:, kept].T @ X[:, kept])


@pytest.mark.parametrize("bad", [0.5, 2.0])
def test_design_refuses_values_outside_minus_one_zero_one(bad):
    # Every Gram entry is an exact integer count only while values are 0 or +-1.
    n = 6
    blocks = [_column(np.ones(n), "intercept"), _column(np.array([1.0, 0, -1, 1, 0, bad]), "x")]
    with pytest.raises(DesignError, match="'x': design values must be -1, 0 or 1"):
        _design(blocks, [f"g{i}" for i in range(n)], ())


@pytest.fixture(scope="module")
def baseline_panel():
    """The Baseline ref-team shape: ~22,000 panel rows over 3,690 games, its
    ten most frequent pairs and the first of them again, a repeated --pair."""
    rows = simulate_ref_team_panel(np.random.default_rng(0), n_games=3690, n_teams=30,
                                   n_referees=70, pair_shift={})
    counts = Counter((r.referee, r.team) for r in rows)
    pairs = sorted(counts, key=lambda p: (-counts[p], p))[:10]
    return rows, pairs + pairs[:1]


def test_ref_team_fit_peak_memory_stays_small(baseline_panel):
    # 6 slots per row: intercept, referee, team, opponent, season and one
    # coded pair slot. tracemalloc sees numpy's buffers, so the peak is the
    # fit's own: 6.5 MiB with one pair slot and cluster scores in bounded
    # blocks, 12.0 MiB with a slot per pair and every score at once, 22.7
    # MiB before int8 slot values and slot-wise sums.
    rows, pairs = baseline_panel
    tracemalloc.start()
    try:
        fits = ref_team_residual_effects(rows, pairs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert fits["team_rim"].dropped == ("pair_{}|{}".format(*pairs[0]),)
    assert peak < 8 * 2**20, f"peak {peak / 2**20:.1f} MiB"


def _former_column_sums(rows, w, groups=None, n_groups=1):
    """X'w, or the per-cluster scores, as one ``bincount`` over every slot at
    once: how the sums were formed before they went one slot at a time."""
    k = rows.shape[1]
    cells = rows.index if groups is None else groups[:, None] * k + rows.index
    return np.bincount(np.asarray(cells).ravel(), (rows.value * w[:, None]).ravel(),
                       minlength=n_groups * k).reshape(n_groups, k)


def _former_covariance(rows, e, groups):
    n, k = rows.shape
    G = int(groups.max()) + 1
    S = _former_column_sums(rows, e, groups, G)
    V = rows.bread @ (S.T @ S) @ rows.bread * (G / (G - 1.0)) * ((n - 1.0) / (n - k))
    return (V + V.T) / 2.0


def _hex(a) -> list[str]:
    return [float(v).hex() for v in np.ravel(a)]


@pytest.mark.parametrize("shape", ["ref_team", "paired", "dense"])
def test_slot_wise_sums_keep_the_bits_of_one_bincount(rng, monkeypatch, shape):
    # Pads (a slot a row leaves empty), dropped columns (zeroed in place),
    # signed-zero outcomes and a dense X with zeros and real values: every
    # sum, residual and covariance is float.hex-identical to the former form.
    if shape == "ref_team":
        panel = simulate_ref_team_panel(rng, n_games=200, n_teams=6, n_referees=8)
        pairs = [("Ref01", "T01"), ("Ref02", "T03"), ("Ref01", "T01")]
        design = _fitted_design(monkeypatch, ref_team_residual_effects, panel, pairs)
        rows, groups = design.rows, design.groups
        assert design.dropped == ("pair_Ref01|T01",)
        assert rows.value.dtype == np.int8 and (rows.value == 0).any()
    elif shape == "paired":
        targets = [TeamSideTarget("Z", "home"), TeamSideTarget("B", "away")]
        design, _ = build_design(fe_rows(rng), targets,
                                 outcomes=("disparity",), target_form="paired",
                                 include_series=True)
        rows, groups = design.rows, design.groups
        assert design.dropped == ("Z:home[paired]",) and (rows.value == -1).any()
    else:
        X = rng.normal(size=(300, 7))
        X[rng.random(X.shape) < 0.4] = 0.0
        X[:, 0] = 1.0
        rows, groups = _as_rows(X), rng.integers(0, 40, 300)
    n, k = rows.shape
    y = rng.normal(size=n)
    y[::7], y[3::11] = -0.0, 0.0
    assert _hex(inference._column_sums(rows, y)) == _hex(_former_column_sums(rows, y))
    G = int(groups.max()) + 1
    assert _hex(inference._column_sums(rows, y, groups, G)) == _hex(
        _former_column_sums(rows, y, groups, G))
    beta, resid, _, _ = fit_ols(rows, y)
    former = rows.bread @ _former_column_sums(rows, y)[0]
    assert _hex(beta) == _hex(former)
    assert _hex(resid) == _hex(y - (rows.value * former[rows.index]).sum(axis=1))
    assert _hex(cluster_covariance(rows, resid, groups)) == _hex(
        _former_covariance(rows, resid, groups))


def test_one_block_meat_is_the_full_product_to_the_bit():
    # The C7 team-side shape: every cluster's scores fit in one block, and the
    # rows gathered in cluster order give the bits of S'S over the rows as given.
    rows = simulate_team_side_rows(np.random.default_rng(7), n_games=1230, n_teams=30,
                                   home_disparity_shift={"T05": 1.5})
    design, y = team_design(rows, [TeamSideTarget("T05", "home")], target_form="paired")
    n, k = design.rows.shape
    assert design.groups.max() + 1 <= inference._SCORE_BLOCK_BYTES // (8 * k)
    fit = fit_clustered(design, "disparity", y)
    resid = fit_ols(design.rows, y)[1]
    assert _hex(fit.covariance) == _hex(_former_covariance(design.rows, resid, design.groups))


def test_multi_block_meat_agrees_with_the_full_product(baseline_panel, monkeypatch):
    # The Baseline ref-team scores span several blocks; their sum adds in
    # another order than one product, so only the last bits may move.
    rows, pairs = baseline_panel
    design = _fitted_design(monkeypatch, ref_team_residual_effects, rows, pairs)
    n, k = design.rows.shape
    assert design.groups.max() + 1 > 3 * (inference._SCORE_BLOCK_BYTES // (8 * k))
    y = np.array([r.team_rim for r in rows])
    fit = fit_clustered(design, "team_rim", y)
    resid = fit_ols(design.rows, y)[1]
    full = _former_covariance(design.rows, resid, design.groups)
    assert np.abs(fit.covariance - full).max() <= 1e-12 * np.abs(full).max()
    assert np.array_equal(fit.covariance, fit.covariance.T)
    # A fit passes its cluster codes; the public function codes the labels.
    labelled = cluster_covariance(design.rows, resid, [r.game_id for r in rows])
    assert _hex(fit.covariance) == _hex(labelled)


@pytest.mark.parametrize("per_block", [1, 7])
def test_score_blocks_cover_every_cluster_once(rng, monkeypatch, per_block):
    # Unsorted cluster codes and a last block shorter than the rest.
    X = np.column_stack([np.ones(300), rng.normal(size=(300, 4))])
    e, clusters = rng.normal(size=300), rng.integers(0, 40, 300)
    monkeypatch.setattr(inference, "_SCORE_BLOCK_BYTES", 8 * X.shape[1] * per_block)
    V = cluster_covariance(X, e, clusters)
    assert np.abs(V - brute_force_sandwich(X, e, clusters)).max() < 1e-12
    assert np.array_equal(V, V.T)


# ---------------------------------------------------------------------------
# Effect studies on rigged data
# ---------------------------------------------------------------------------


def test_team_side_effects_paired_recovers_injected_shift():
    rng = np.random.default_rng(41)
    shift = 6.0
    rows = simulate_team_side_rows(
        rng, n_games=3000, n_teams=10, home_disparity_shift={"T05": shift}
    )
    fits = team_side_effects(
        rows, [TeamSideTarget("T05", "home")], target_form="paired"
    )
    assert set(fits) == {"disparity", "team_rim"}
    disp = fits["disparity"].coef("T05:home[paired]")
    assert abs(disp.estimate - shift) < 4.0 * disp.se
    assert abs(disp.estimate - shift) < 1.2
    assert disp.ci_lower < shift < disp.ci_upper
    assert 0.0 < disp.rho < 1.0
    # No effect was injected into the win-probability outcome.
    rim = fits["team_rim"].coef("T05:home[paired]")
    assert abs(rim.estimate) < max(4.0 * rim.se, 0.02)
    assert fits["disparity"].n_clusters == 3000
    assert fits["disparity"].n_rows == 6000


def test_team_side_effects_indicator_attenuates_toward_zero():
    # The one-sided indicator leaks part of the effect into the opponent
    # fixed effects (the mirror rows carry the negated outcome), so its
    # estimate sits below the injected size by roughly (T-2)/(T-1).
    rng = np.random.default_rng(42)
    shift = 6.0
    rows = simulate_team_side_rows(
        rng, n_games=6000, n_teams=10, home_disparity_shift={"T05": shift}
    )
    fits = team_side_effects(
        rows, [TeamSideTarget("T05", "home")], outcomes=("disparity",)
    )
    est = fits["disparity"].coef("T05:home[indicator]").estimate
    assert 4.4 < est < 6.2
    assert est < shift  # attenuation direction


def test_series_state_effects_recover_injected_rim_shift():
    shift = 0.3
    cfg = SimConfig(
        seed=11,
        n_teams=8,
        n_referees=12,
        games_per_season=0,
        postseason_games_per_season=800,
        seasons=("2021-22",),
        fouls_mean=30.0,
        series_shift={(3, 3): shift},
    )
    games, _ = generate(cfg)
    rows = expand_rows(games)
    fits = series_state_effects(rows)
    assert set(fits) == {"abs_disparity", "game_rim"}
    rim = fits["game_rim"].coef("series_3--3")
    assert abs(rim.estimate - shift) < 4.0 * rim.se
    assert abs(rim.estimate - shift) < 0.08
    disp = fits["abs_disparity"].coef("series_3--3")
    assert abs(disp.estimate) < 4.0 * disp.se
    # One observation per game, all ten canonical states represented.
    assert fits["game_rim"].n_rows == fits["game_rim"].n_clusters
    series_terms = [t for t in fits["game_rim"].terms if t.startswith("series_")]
    assert len(series_terms) == 9  # ten states minus the 0--0 reference


def test_series_state_effects_require_postseason_rows():
    rows = four_team_rows()
    with pytest.raises(DesignError):
        series_state_effects(rows)


def test_ref_team_residual_effects_recover_pair_shift():
    rng = np.random.default_rng(43)
    effect = 0.08
    rows = simulate_ref_team_panel(
        rng, n_games=3000, pair_shift={("Ref01", "T01"): effect}
    )
    fits = ref_team_residual_effects(
        rows,
        [("Ref01", "T01"), ("Ref02", "T02")],
        min_pair_games=5,
    )
    assert set(fits) == {"team_rim", "disparity"}
    hit = fits["team_rim"].coef("pair_Ref01|T01")
    assert abs(hit.estimate - effect) < 4.0 * hit.se
    assert abs(hit.estimate - effect) < 0.04
    null = fits["team_rim"].coef("pair_Ref02|T02")
    assert abs(null.estimate) < max(4.0 * null.se, 0.02)
    assert fits["team_rim"].n_rows == 18000
    assert fits["team_rim"].n_clusters == 3000
    assert "pair minimum 5 games" in fits["team_rim"].notes


def test_ref_team_residual_effects_exclude_thin_pairs():
    rng = np.random.default_rng(44)
    rows = simulate_ref_team_panel(rng, n_games=200)
    fits = ref_team_residual_effects(
        rows,
        [("Ref01", "T01"), ("Ref02", "T02")],
        min_pair_games=10_000,
    )
    fit = fits["team_rim"]
    assert all(not t.startswith("pair_") for t in fit.terms)
    note = next(n for n in fit.notes if n.startswith("excluded targets"))
    assert "Ref01|T01" in note and "Ref02|T02" in note
    with pytest.raises(DesignError):
        ref_team_residual_effects([], [("Ref01", "T01")])
