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

import importlib

__version__ = "0.1.0"

# Each exported name and the submodule that defines it. A name is imported
# from its submodule when it is first read (PEP 562), so ``import rimkit``
# and ``import rimkit.cli`` load no submodule they do not use.
_EXPORTS = {
    "aggregate": (
        "DistributionBand",
        "RefSeasonSummary",
        "home_away_summary",
        "pearson",
        "referee_distribution",
        "series_state_summary",
        "top_bottom_table",
    ),
    "inference": (
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
    ),
    "ingest": (
        "DatasetError",
        "IngestError",
        "ParseError",
        "align_foul_wp",
        "ingest_directory",
        "load_dataset",
        "parse_game_summary",
        "parse_wp_feed",
        "write_dataset",
    ),
    "metrics": (
        "compute_game_metrics",
        "event_leverage",
        "expand_rows",
        "signed_disparity",
        "swing_per_call",
    ),
    "model": (
        "EventColumns",
        "FoulEvent",
        "GameRecord",
        "SeriesStateKey",
        "TeamGameRow",
        "canonical_series_key",
        "canonicalize_name",
        "validate_game",
    ),
    "outliers": (
        "PanelRow",
        "build_cells",
        "excess",
        "outlier_tables",
        "panel_rows",
    ),
    "special": ("regularized_incomplete_beta", "student_t_cdf", "student_t_quantile"),
    "synth": ("SimConfig", "SimConfigError", "generate", "write_corpus"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_MODULE_OF, "__version__"]


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later reads skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
