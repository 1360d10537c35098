"""Leverage-weighted officiating statistics.

Pipeline: ingest play-by-play summaries with win-probability feeds into a
canonical partitioned dataset, compute per-call leverage and per-game
aggregates, screen referee-team cells for excess versus an additive
baseline, and fit fixed-effects regressions with game-clustered standard
errors plus omitted-variable robustness diagnostics. A seeded simulator
generates synthetic corpora with known injected effects for end-to-end
checks.

Each public name is imported from the submodule that defines it, such as
``from rimkit.ingest import load_dataset``.
"""

__version__ = "0.1.0"
