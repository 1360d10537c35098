"""Leverage-weighted officiating statistics.

Pipeline: ingest play-by-play summaries with win-probability feeds into a
canonical partitioned dataset, compute per-call leverage and per-game
aggregates, screen referee-team cells for excess versus an additive
baseline, and fit fixed-effects regressions with game-clustered standard
errors plus omitted-variable robustness diagnostics. A seeded simulator
generates synthetic corpora with known injected effects for end-to-end
checks.
"""

from __future__ import annotations

from .aggregate import (
    DistributionBand,
    RefSeasonSummary,
    home_away_summary,
    pearson,
    referee_distribution,
    series_state_summary,
    top_bottom_table,
)
from .inference import (
    DesignError,
    FitError,
    FitResult,
    TeamSideTarget,
    build_design,
    cluster_covariance,
    fit_clustered,
    fit_ols,
    ref_team_residual_effects,
    robustness_rho,
    series_state_effects,
    team_side_effects,
)
from .ingest import (
    DatasetError,
    IngestError,
    ParseError,
    align_foul_wp,
    ingest_directory,
    load_dataset,
    parse_game_summary,
    parse_wp_feed,
    write_dataset,
)
from .metrics import (
    compute_game_metrics,
    event_leverage,
    expand_rows,
    signed_disparity,
    swing_per_call,
)
from .model import (
    FoulEvent,
    GameRecord,
    SeriesStateKey,
    TeamGameRow,
    canonical_series_key,
    canonicalize_name,
    validate_game,
)
from .outliers import (
    PanelRow,
    build_cells,
    excess,
    outlier_tables,
    panel_rows,
)
from .special import regularized_incomplete_beta, student_t_cdf, student_t_quantile
from .synth import SimConfig, SimConfigError, generate, write_corpus

__version__ = "0.1.0"

__all__ = [
    "DistributionBand",
    "RefSeasonSummary",
    "home_away_summary",
    "pearson",
    "referee_distribution",
    "series_state_summary",
    "top_bottom_table",
    "DesignError",
    "FitError",
    "FitResult",
    "TeamSideTarget",
    "build_design",
    "cluster_covariance",
    "fit_clustered",
    "fit_ols",
    "ref_team_residual_effects",
    "robustness_rho",
    "series_state_effects",
    "team_side_effects",
    "DatasetError",
    "IngestError",
    "ParseError",
    "align_foul_wp",
    "ingest_directory",
    "load_dataset",
    "parse_game_summary",
    "parse_wp_feed",
    "write_dataset",
    "compute_game_metrics",
    "event_leverage",
    "expand_rows",
    "signed_disparity",
    "swing_per_call",
    "FoulEvent",
    "GameRecord",
    "SeriesStateKey",
    "TeamGameRow",
    "canonical_series_key",
    "canonicalize_name",
    "validate_game",
    "PanelRow",
    "build_cells",
    "excess",
    "outlier_tables",
    "panel_rows",
    "regularized_incomplete_beta",
    "student_t_cdf",
    "student_t_quantile",
    "SimConfig",
    "SimConfigError",
    "generate",
    "write_corpus",
    "__version__",
]
