"""Fixed-effects regressions with game-clustered errors.

A design is an intercept, one-hot factors (one reference level dropped per
family) and +-1 target columns, stored as a few (column, value) slots per
row, the values as ``int8``; each slot holds one block's contiguous columns,
and a row holds at most one of them.
Factor levels, clusters and target matches are integer codes over sorted
levels. Design values are restricted to {-1, 0, 1} (anything else is a
``DesignError``), so every X'X entry is an integer count, exact in float64
in any summation order; X'X is built one slot pair at a time, one
``bincount`` per pair added into a K x K accumulator. X'y and the cluster
scores are summed one slot at a time, over its column range and its
nonzero entries, which keeps every bin's terms and their row order, and so
their bits. A sequential Cholesky on X'X drops dependent columns, earliest
column wins: column j goes when its Schur pivot, the squared norm of its
residual against the kept columns, is at most ``max(n, K) * eps`` times its
squared norm. A design holds no outcome: the kept Gram is inverted once per
design and solves every outcome fitted on it, each named at the fit.
Covariance is the CR1 cluster sandwich, its meat summed over blocks of
whole clusters of bounded size, intervals use Student-t critical
values at n − rank degrees of freedom, and each coefficient carries an
omitted-variable robustness value: the equal-strength confounder
association that would zero out its t-statistic.

numpy is imported by the functions that use it, on their first call, so
importing this module (as every analysis command does) does not load it.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

from .model import POSTSEASON, TARGET_FORMS, TeamGameColumns, TeamGameRow
from .outliers import PanelColumns, PanelRow
from .special import student_t_quantile

if TYPE_CHECKING:
    import numpy as np

    # A block of design columns: per-row code within the block (-1: no entry),
    # per-row value at that code, and the block's column names.
    _Block = tuple[np.ndarray, np.ndarray, list[str]]

TEAM_OUTCOMES = ("disparity", "team_rim")

HOME = "home"
AWAY = "away"

_EPS = sys.float_info.epsilon
_DEGENERATE = "outcome is constant; fit is degenerate"


class DesignError(ValueError):
    """A regression design cannot be built as requested."""


class FitError(RuntimeError):
    """A least-squares fit or covariance computation failed."""


# ---------------------------------------------------------------------------
# Numeric core
# ---------------------------------------------------------------------------


def _rank_filter(gram: np.ndarray, n_rows: int) -> list[int]:
    """Columns of X kept from X'X, earliest of any dependent group first.

    Left-looking Cholesky in column order: a column whose Schur pivot is at
    most ``max(n, K) * eps * G_jj`` lies in the span of the kept columns
    (zero columns included) and is skipped. Fixed-effect designs make
    dependencies exact, so the tolerance can sit near machine precision.
    """
    import numpy as np

    k = gram.shape[0]
    tol = max(n_rows, k) * _EPS
    L = np.zeros((k, k))
    kept: list[int] = []
    for j in range(k):
        r = len(kept)
        schur = gram[j:, j] - L[j:, :r] @ L[j, :r]
        if schur[0] <= tol * gram[j, j]:
            continue
        L[j:, r] = schur / math.sqrt(schur[0])
        kept.append(j)
    return kept


@dataclass(frozen=True, eq=False)
class SparseRows:
    """Row i holds ``value[i, s]`` in column ``index[i, s]``; unused slots hold 0.

    Slot s holds only columns ``bounds[s]`` to ``bounds[s + 1] - 1``, so every
    column lives in exactly one slot. ``gram`` is X'X; its inverse is
    computed once for every outcome fitted on the rows.
    """

    index: np.ndarray
    value: np.ndarray
    gram: np.ndarray
    bounds: tuple[int, ...]

    @property
    def shape(self) -> tuple[int, int]:
        return self.index.shape[0], self.gram.shape[0]

    @cached_property
    def bread(self) -> np.ndarray:
        import numpy as np

        try:
            return np.linalg.inv(self.gram)
        except np.linalg.LinAlgError as exc:
            raise FitError("X'X is singular; apply the rank filter first") from exc


def _as_rows(X) -> SparseRows:
    """A design's rows as given, or a dense array as one slot per column."""
    import numpy as np

    if isinstance(X, SparseRows):
        return X
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise FitError("X must be (n, k)")
    if not np.isfinite(X).all():
        raise FitError("design contains non-finite values")
    n, k = X.shape
    return SparseRows(np.broadcast_to(np.arange(k), (n, k)), X, X.T @ X, tuple(range(k + 1)))


def _column_sums(rows: SparseRows, w: np.ndarray, groups: np.ndarray | None = None,
                 n_groups: int = 1) -> np.ndarray:
    """(n_groups, k): the sum of ``value * w`` over each group's rows, per column.

    One slot at a time, over its column range and its rows with a nonzero
    value: each column lives in one slot, so every bin receives the nonzero
    terms one ``bincount`` over all slots would, in the same row order; the
    zeros left out add only +-0 to a bin, and every bin starts at +0.0, so
    the sums keep their bits. The same holds for any subset of the rows kept
    in their order, so a group's sums over a block of whole groups are its
    sums over all the rows. Its buffers are ``n_groups`` times a slot's
    column count.
    """
    import numpy as np

    out = np.zeros((n_groups, rows.shape[1]))
    for s, (lo, hi) in enumerate(zip(rows.bounds, rows.bounds[1:])):
        if lo == hi:
            continue
        value = rows.value[:, s]
        hit = np.flatnonzero(value)
        cells = rows.index[hit, s] - lo
        if groups is not None:
            cells += groups[hit] * (hi - lo)
        sums = np.bincount(cells, value[hit] * w[hit], minlength=n_groups * (hi - lo))
        out[:, lo:hi] = sums.reshape(n_groups, hi - lo)
    return out


def fit_ols(X, y: np.ndarray) -> tuple[np.ndarray, np.ndarray, int, int]:
    """Least squares from the normal equations: (beta, residuals, rank, dof).

    ``X`` is a dense (n, k) array or a design's :class:`SparseRows`, which
    the design builder makes full rank. A dense ``X`` must be full rank by
    the rank filter's criterion; rank deficiency is refused rather than
    silently resolved.
    """
    import numpy as np

    rows = _as_rows(X)
    y = np.asarray(y, dtype=float)
    n, k = rows.shape
    if y.ndim != 1 or y.shape[0] != n:
        raise FitError("X must be (n, k) and y length n")
    if not np.isfinite(y).all():
        raise FitError("outcome contains non-finite values")
    if k == 0:
        raise FitError("empty design")
    if n < k:
        raise FitError(f"{n} rows cannot identify {k} columns")
    if not isinstance(X, SparseRows) and len(_rank_filter(rows.gram, n)) < k:
        raise FitError("design is rank deficient; apply the rank filter first")
    beta = rows.bread @ _column_sums(rows, y)[0]
    # The fitted values summed over each row's (n, slots) terms, as numpy
    # sums a row: pairwise, so the shape of the terms is part of their bits.
    terms = beta[rows.index]
    np.multiply(rows.value, terms, out=terms)
    return beta, y - terms.sum(axis=1), k, n - k


def cluster_covariance(X, residuals: np.ndarray, clusters: Sequence) -> np.ndarray:
    """CR1 cluster-robust sandwich covariance of OLS coefficients.

    bread = (X'X)^-1, meat = sum over clusters g of (X_g'e_g)(X_g'e_g)',
    times [G/(G-1)]*[(n-1)/(n-k)]. With every row its own cluster the result
    is exactly the HC0 estimator times that factor. ``X`` is dense or
    :class:`SparseRows`, as for :func:`fit_ols`. ``clusters`` holds one label
    per row; string, bytes and object labels are told apart as Python
    compares them, so "a" and "a\\x00" are two clusters. The meat is formed
    as in :func:`_sandwich`, from the clusters' codes over sorted labels.
    """
    import numpy as np

    rows = _as_rows(X)
    e = np.asarray(residuals, dtype=float)
    if e.shape[0] != rows.shape[0]:
        raise FitError("residual length does not match design rows")
    codes = np.asarray(clusters)
    if codes.dtype.kind in "USO":  # numpy would drop a string's trailing NULs (see _coded)
        position, groups = _coded(clusters)
        G = len(position)
    else:  # numbers code exactly in numpy, every NaN in one cluster
        levels, groups = np.unique(codes, return_inverse=True)
        G = levels.size
    if len(groups) != rows.shape[0]:
        raise FitError("need one cluster label per row")
    return _sandwich(rows, e, groups, G)


# The cluster scores are formed for blocks of whole clusters, each block's
# (clusters, k) float64 score matrix at most this many bytes.
_SCORE_BLOCK_BYTES = 2**20


def _sandwich(rows: SparseRows, e: np.ndarray, groups: np.ndarray, G: int) -> np.ndarray:
    """The CR1 covariance of :func:`cluster_covariance`, for clusters coded 0..G-1.

    The rows are taken in stable cluster order and the meat is the sum of
    ``S_b.T @ S_b`` over blocks of whole clusters, S_b a block's score matrix.
    Each cluster's rows keep their order, so its scores keep their bits: one
    block is exactly ``S.T @ S`` over all G clusters, and the sum of several
    may differ from that product in its last bits.
    """
    import numpy as np

    n, k = rows.shape
    if n <= k:
        raise FitError("no residual degrees of freedom for the covariance")
    if G < 2:
        raise FitError("clustered covariance needs at least two clusters")
    per_block = max(1, _SCORE_BLOCK_BYTES // (8 * k))
    order = np.argsort(groups, kind="stable")
    firsts = range(0, G, per_block)
    cuts = np.searchsorted(groups, [*firsts, G], sorter=order)
    meat = None
    for first, lo, hi in zip(firsts, cuts, cuts[1:]):
        take = order[lo:hi]  # the block's rows, in row order within each cluster
        block = SparseRows(rows.index[take], rows.value[take], rows.gram, rows.bounds)
        S = _column_sums(block, e[take], groups[take] - first, min(per_block, G - first))
        meat = S.T @ S if meat is None else meat + S.T @ S
    V = rows.bread @ meat @ rows.bread * (G / (G - 1.0)) * ((n - 1.0) / (n - k))
    return (V + V.T) / 2.0


def robustness_rho(t_stat: float, dof: float) -> float:
    """Equal-strength confounder association that would zero the t-statistic.

    The non-negative root of ``dof*rho^2 + t^2*rho - t^2 = 0`` in the
    cancellation-free form ``2 t^2 / (sqrt(t^4 + 4 dof t^2) + t^2)``.
    Always in [0, 1): zero exactly when t is, approaching one as |t| grows.
    """
    if dof < 1:
        raise ValueError("dof must be >= 1")
    if not math.isfinite(t_stat):
        raise ValueError("t statistic must be finite")
    t2 = t_stat * t_stat
    if t2 == 0.0:
        return 0.0
    return 2.0 * t2 / (math.sqrt(t2 * t2 + 4.0 * dof * t2) + t2)


# ---------------------------------------------------------------------------
# Design construction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TeamSideTarget:
    """A (team, side) combination whose effect is estimated directly."""

    team: str
    side: str  # "home" | "away"

    def __post_init__(self):
        if self.side not in (HOME, AWAY):
            raise DesignError(f"side must be {HOME!r} or {AWAY!r}, got {self.side!r}")

    @property
    def name(self) -> str:
        return f"{self.team}:{self.side}"


@dataclass(frozen=True, eq=False)
class Design:
    """A rank-filtered design: sparse rows, cluster codes, column names, notes.

    ``groups`` codes each row's cluster 0..G-1. The design holds no outcome;
    :func:`fit_clustered` takes one, so every outcome fitted on a design
    shares its rows and factorization.
    """

    rows: SparseRows
    groups: np.ndarray
    columns: tuple[str, ...]
    dropped: tuple[str, ...]
    notes: tuple[str, ...]

    @cached_property
    def matrix(self) -> np.ndarray:
        """Dense (n, k) view, built on first access; fitting never needs it."""
        import numpy as np

        X = np.zeros(self.rows.shape)
        i, s = np.nonzero(self.rows.value)  # a row's nonzero slots hold distinct columns
        X[i, self.rows.index[i, s]] = self.rows.value[i, s]
        return X


def _column(values: np.ndarray, name: str) -> _Block:
    import numpy as np

    values = np.asarray(values, dtype=float)
    return np.where(values != 0.0, 0, -1), values, [name]


def _coded(values: Sequence) -> tuple[dict, np.ndarray]:
    """Each distinct value's position in sorted order, and every value's position.

    Python orders ``str`` by code point, as numpy orders unicode arrays, so
    the codes are ``np.unique(values, return_inverse=True)``'s, except for a
    string ending in NUL: numpy drops trailing NULs, so "g1\\x00" would be
    "g1" there; here it is a value of its own, as it is to Python.
    """
    import numpy as np

    position = {level: i for i, level in enumerate(sorted(set(values)))}
    return position, np.fromiter(map(position.__getitem__, values), np.intp, len(values))


def _rows_equal(coded: tuple[dict, np.ndarray], value) -> np.ndarray:
    """Which rows of a coded family hold ``value``."""
    position, codes = coded
    return codes == position.get(value, -1)


def _factor(coded: tuple[dict, np.ndarray], prefix: str) -> _Block:
    """One-hot block for a coded categorical family minus its first level, the reference.

    Canonical series labels sort 0--0 first, so it is the series reference
    whenever it occurs.
    """
    import numpy as np

    position, codes = coded
    names = [f"{prefix}{level}" for level in position]
    return codes - 1, np.ones(codes.size, dtype=np.int8), names[1:]


def _blocks(n: int, *families: tuple[tuple[dict, np.ndarray], str]) -> list[_Block]:
    """Intercept plus one factor block per (coded values, prefix)."""
    import numpy as np

    return [_column(np.ones(n), "intercept")] + [_factor(c, p) for c, p in families]


def _reference(coded: tuple[dict, np.ndarray]):
    """A coded family's reference level, its first."""
    return next(iter(coded[0]))


def _design(blocks: list[_Block], clusters: Sequence[str], notes: Sequence[str]) -> Design:
    """Assemble blocks into row slots, form X'X, drop dependent columns.

    ``blocks`` is emptied as its blocks are copied into the rows, so they are
    freed before the Gram is formed. A row holds its slot values as ``int8``.
    """
    import numpy as np

    n, slots = len(clusters), len(blocks)
    index = np.zeros((n, slots), dtype=np.intp)
    value = np.zeros((n, slots), dtype=np.int8)
    names: list[str] = []
    bounds = [0]
    for s in range(slots):
        codes, vals, block_names = blocks.pop(0)
        hit = codes >= 0
        v = vals[hit]
        if not ((v == 0) | (np.abs(v) == 1)).all():
            raise DesignError(f"block {block_names[0]!r}: design values must be -1, 0 or 1")
        index[hit, s] = codes[hit] + len(names)
        value[hit, s] = v
        names.extend(block_names)
        bounds.append(len(names))
    # Slots hold ascending columns, so slot pairs s <= t fill the upper triangle.
    # Every product is 0 or +-1, so each entry is an integer count and the
    # per-pair sums are exact in any order; one pair at a time keeps the
    # temporaries at n rather than n times the number of pairs.
    K = len(names)
    upper = np.zeros(K * K)
    for s in range(slots):
        for t in range(s, slots):
            upper += np.bincount(index[:, s] * K + index[:, t], value[:, s] * value[:, t],
                                 minlength=K * K)
    upper = upper.reshape(K, K)
    gram = upper + upper.T - np.diag(np.diag(upper))
    kept = _rank_filter(gram, n)
    col = np.full(K, -1, dtype=np.intp)
    col[kept] = np.arange(len(kept))
    for s in range(slots):  # in place, one slot at a time; a dropped column's entry becomes a 0
        remapped = col[index[:, s]]
        value[remapped < 0, s] = 0
        index[:, s] = np.maximum(remapped, 0, out=remapped)
    rows = SparseRows(index, value, gram[np.ix_(kept, kept)],
                      tuple(np.searchsorted(kept, bounds).tolist()))
    columns = tuple(names[j] for j in kept)
    dropped = tuple(name for name, c in zip(names, col) if c < 0)
    return Design(rows, _coded(clusters)[1], columns, dropped, tuple(notes))


def build_design(
    rows: Iterable[TeamGameRow],
    targets: Sequence[TeamSideTarget],
    *,
    outcomes: Sequence[str],
    target_form: str,
    include_series: bool,
) -> tuple[Design, dict[str, np.ndarray]]:
    """Team-row design with the full controls, rank-filtered, deterministic.

    Column order: intercept, home indicator, team, opponent and season
    effects, series-state effects when ``include_series`` (canonical label
    order, 0--0 reference), then targets in the order given. Each factor's
    first level is its reference. With series effects, rows without a
    series state are excluded and counted. Returns the design and each
    named outcome's values over the rows it kept.
    """
    import numpy as np

    for outcome in outcomes:
        if outcome not in TEAM_OUTCOMES:
            raise DesignError(f"unknown outcome {outcome!r}")
    if target_form not in TARGET_FORMS:
        raise DesignError(f"unknown target_form {target_form!r}")
    rows = TeamGameColumns.of(rows)
    fitted = (rows.select([i for i, key in enumerate(rows.series_key) if key is not None])
              if include_series else rows)
    excluded = len(rows) - len(fitted)
    notes = [f"excluded {excluded} rows without series state"] if excluded else []
    if not fitted:
        raise DesignError("no rows to fit")

    team, opponent = _coded(fitted.team), _coded(fitted.opponent)
    is_home = np.array(fitted.is_home, dtype=bool)
    families = {"team": (team, "team_"), "opponent": (opponent, "opp_"),
                "season": (_coded(fitted.season), "season_")}
    if include_series:
        families["series"] = (_coded([key.label for key in fitted.series_key]), "series_")
    blocks = _blocks(len(fitted), *families.values())
    blocks.insert(1, _column(is_home, "home"))
    notes += [f"{family} reference {_reference(c)}" for family, (c, _) in families.items()]
    for tgt in targets:
        own = _rows_equal(team, tgt.team) & (is_home == (tgt.side == HOME))
        if not own.any():
            raise DesignError(f"target {tgt.name} matches no rows")
        column = own.astype(float)
        if target_form == "paired":
            column[_rows_equal(opponent, tgt.team) & (is_home != (tgt.side == HOME))] = -1.0
        blocks.append(_column(column, f"{tgt.name}[{target_form}]"))
    ys = {o: np.array(getattr(fitted, o), dtype=float) for o in outcomes}
    return _design(blocks, fitted.game_id, notes), ys


# ---------------------------------------------------------------------------
# Fit results
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoefSummary:
    term: str
    estimate: float
    se: float
    t_stat: float
    ci_lower: float
    ci_upper: float
    rho: float


@dataclass(frozen=True, eq=False)
class FitResult:
    """One fitted regression: coefficients, clustered uncertainty, robustness."""

    outcome: str
    terms: tuple[str, ...]
    estimates: np.ndarray
    se: np.ndarray
    t_stats: np.ndarray
    ci_lower: np.ndarray
    ci_upper: np.ndarray
    rho: np.ndarray
    covariance: np.ndarray
    n_rows: int
    n_clusters: int
    dof: int
    dropped: tuple[str, ...]
    notes: tuple[str, ...]

    def coef(self, term: str) -> CoefSummary:
        try:
            i = self.terms.index(term)
        except ValueError as exc:
            raise KeyError(f"no term {term!r} in fit") from exc
        return CoefSummary(
            term=term,
            estimate=float(self.estimates[i]),
            se=float(self.se[i]),
            t_stat=float(self.t_stats[i]),
            ci_lower=float(self.ci_lower[i]),
            ci_upper=float(self.ci_upper[i]),
            rho=float(self.rho[i]),
        )

    def coef_rows(self) -> list[CoefSummary]:
        return [self.coef(t) for t in self.terms]


def fit_clustered(design: Design, outcome: str, y: np.ndarray) -> FitResult:
    """Fit the named outcome ``y`` on a design, with clustered inference.

    The t reference has n − rank degrees of freedom. Intervals are 95%.
    Robustness values are computed per coefficient at the same degrees of
    freedom. A constant ``y`` adds a degenerate-fit note to the design's.
    """
    import numpy as np

    y = np.asarray(y, dtype=float)
    beta, resid, _, dof = fit_ols(design.rows, y)
    n_clusters = int(design.groups.max()) + 1
    V = _sandwich(design.rows, resid, design.groups, n_clusters)
    se = np.sqrt(np.maximum(np.diag(V), 0.0))
    t_stats, rho = np.zeros_like(beta), np.zeros_like(beta)
    for i in range(beta.size):
        if se[i] > 0.0:
            t_stats[i] = beta[i] / se[i]
            rho[i] = robustness_rho(float(t_stats[i]), float(dof))
        else:
            t_stats[i] = 0.0 if beta[i] == 0.0 else math.inf
            rho[i] = 0.0 if beta[i] == 0.0 else math.nan
    tcrit = student_t_quantile(0.975, float(dof))
    return FitResult(
        outcome=outcome,
        terms=design.columns,
        estimates=beta,
        se=se,
        t_stats=t_stats,
        ci_lower=beta - tcrit * se,
        ci_upper=beta + tcrit * se,
        rho=rho,
        covariance=V,
        n_rows=design.rows.shape[0],
        n_clusters=n_clusters,
        dof=dof,
        dropped=design.dropped,
        notes=design.notes + ((_DEGENERATE,) if np.all(y == y[0]) else ()),
    )


def _fit_outcomes(design: Design, outcomes: Mapping[str, np.ndarray]) -> dict[str, FitResult]:
    """One fit per outcome, all on the design's rows and factorization."""
    return {name: fit_clustered(design, name, y) for name, y in outcomes.items()}


# ---------------------------------------------------------------------------
# The three effect studies
# ---------------------------------------------------------------------------


def team_side_effects(
    rows: Iterable[TeamGameRow],
    targets: Sequence[TeamSideTarget],
    *,
    outcomes: Sequence[str] = TEAM_OUTCOMES,
    target_form: str = "indicator",
    include_series: bool = False,
) -> dict[str, FitResult]:
    """Estimate (team, side) effects on each outcome with full controls.

    Both rows of every game stay in the sample; clustering by game absorbs
    their mirror dependence. A target matching no rows is an error — a
    silent zero-column would fit but estimate nothing. One design serves
    every outcome.
    """
    if not outcomes:
        return {}
    design, ys = build_design(rows, targets, outcomes=outcomes, target_form=target_form,
                              include_series=include_series)
    return _fit_outcomes(design, ys)


def series_state_effects(rows: Iterable[TeamGameRow]) -> dict[str, FitResult]:
    """Game-level pregame series-state effects relative to 0--0.

    One observation per postseason game with a known state; outcomes are
    the game's absolute foul disparity and its total RIM; controls are
    home-team, away-team, and season effects. Each game is its own
    cluster, so the sandwich reduces to the heteroskedasticity-robust
    form.
    """
    import numpy as np

    rows = TeamGameColumns.of(rows)
    per_game = {gid: i for i, (gid, st, key, home) in enumerate(
                    zip(rows.game_id, rows.season_type, rows.series_key, rows.is_home))
                if st == POSTSEASON and key is not None and home}
    if not per_game:
        raise DesignError("no postseason rows with series state")
    games = rows.select([per_game[g] for g in sorted(per_game)])
    n = len(games)

    series = _coded([key.label for key in games.series_key])
    blocks = _blocks(
        n,
        (_coded(games.team), "home_team_"),
        (_coded(games.opponent), "away_team_"),
        (_coded(games.season), "season_"),
        (series, "series_"),
    )
    ys = {
        "abs_disparity": np.abs(np.array(games.disparity, dtype=float)),
        "game_rim": np.array(games.game_rim),
    }
    notes = (f"series reference {_reference(series)}", f"games {n}")
    return _fit_outcomes(_design(blocks, games.game_id, notes), ys)


def ref_team_residual_effects(
    rows: Iterable[PanelRow],
    target_pairs: Sequence[tuple[str, str]],
    *,
    min_pair_games: int = 5,
) -> dict[str, FitResult]:
    """Directly estimated (referee, team) effects with additive controls.

    The panel has one row per crew member and team side, so each pair
    indicator marks that referee with that team; controls are referee,
    team, opponent, and season effects, clustered by game. Both outcomes,
    team RIM and disparity, are fitted. Pairs under the games minimum are
    excluded and reported in the fit notes. A row matches at most one pair,
    so the kept pairs share one coded slot, their columns in the order
    given; a repeated pair's later copies are empty columns the rank filter
    drops, so the earliest copy is the one kept.
    """
    import numpy as np

    rows = PanelColumns.of(rows)
    if not rows:
        raise DesignError("no panel rows to fit")
    ys = {"team_rim": np.array(rows.team_rim), "disparity": np.array(rows.disparity)}
    referee, team = _coded(rows.referee), _coded(rows.team)
    blocks = _blocks(
        len(rows),
        (referee, "ref_"),
        (team, "team_"),
        (_coded(rows.opponent), "opp_"),
        (_coded(rows.season), "season_"),
    )
    # A row's code is its pair's position among the kept pairs (-1: none);
    # a repeated pair's earliest copy takes the rows.
    pair_codes = np.full(len(rows), -1, dtype=np.intp)
    pair_names, excluded = [], []
    for ref, tm in target_pairs:
        pair = _rows_equal(referee, ref) & _rows_equal(team, tm)
        if np.count_nonzero(pair) >= min_pair_games:
            pair_codes[pair & (pair_codes < 0)] = len(pair_names)
            pair_names.append(f"pair_{ref}|{tm}")
        else:
            excluded.append(f"{ref}|{tm}")
    if pair_names:
        blocks.append((pair_codes, np.ones(len(rows), dtype=np.int8), pair_names))
    notes = [f"pair minimum {min_pair_games} games"]
    if excluded:
        notes.append("excluded targets below minimum: " + ", ".join(sorted(excluded)))
    return _fit_outcomes(_design(blocks, rows.game_id, notes), ys)
