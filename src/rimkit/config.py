"""Run configuration: defaults, a flat JSON config file, CLI overrides.

Precedence, lowest to highest: built-in defaults, the config file (from
``--config`` or the ``RIMKIT_CONFIG`` environment variable), then explicit
command-line flags. Every analysis command echoes its resolved settings to
``run.json`` in the output directory, alongside content hashes of the input
dataset, so a run can be reproduced from its outputs alone. The echo holds
no timestamps: identical inputs give identical bytes.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, fields
from pathlib import Path

from .ingest import DEFAULT_START_PRIOR, MANIFEST_NAME, read_manifest

ENV_CONFIG = "RIMKIT_CONFIG"
RUN_ECHO_NAME = "run.json"

_SEASON_TYPES = ("regular", "postseason")
_TARGET_FORMS = ("indicator", "paired")


class ConfigError(ValueError):
    """Bad config file or bad setting value."""


@dataclass(frozen=True)
class RunConfig:
    dataset: str | None = None
    out_dir: str | None = None
    seasons: tuple[str, ...] = ()  # empty = all seasons
    season_type: str | None = None  # None = all season types
    min_games_regular: int = 50
    min_games_postseason: int = 15
    min_pair_games: int = 5
    table_k: int = 10
    pair_k: int = 5
    team_side_k: int = 3
    target_form: str = "indicator"
    seed: int = 0
    start_prior: float = DEFAULT_START_PRIOR

    def validate(self) -> None:
        if self.season_type is not None and self.season_type not in _SEASON_TYPES:
            raise ConfigError(f"season_type must be one of {_SEASON_TYPES}")
        if self.target_form not in _TARGET_FORMS:
            raise ConfigError(f"target_form must be one of {_TARGET_FORMS}")
        for name in (
            "min_games_regular",
            "min_games_postseason",
            "min_pair_games",
            "table_k",
            "pair_k",
            "team_side_k",
        ):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be at least 1")
        if not 0.0 <= self.start_prior <= 1.0:
            raise ConfigError("start_prior must lie in [0, 1]")


_FIELDS = {f.name: f for f in fields(RunConfig)}

_STR_FIELDS = {
    "dataset",
    "out_dir",
    "season_type",
    "target_form",
}
_INT_FIELDS = {
    "min_games_regular",
    "min_games_postseason",
    "min_pair_games",
    "table_k",
    "pair_k",
    "team_side_k",
    "seed",
}


def _coerce(name: str, value):
    if value is None:
        return None
    if name == "seasons":
        if not isinstance(value, (list, tuple)) or not all(
            isinstance(v, str) for v in value
        ):
            raise ConfigError("seasons must be a list of strings")
        return tuple(value)
    if name == "start_prior":
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError("start_prior must be a number")
        return float(value)
    if name in _INT_FIELDS:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{name} must be an integer")
        return value
    if name in _STR_FIELDS:
        if not isinstance(value, str):
            raise ConfigError(f"{name} must be a string")
        return value
    raise ConfigError(f"unknown setting: {name}")


def load_config_file(path: Path) -> dict:
    """Read a flat JSON object of settings; unknown keys are errors."""
    path = Path(path)
    try:
        raw = path.read_text(encoding="utf-8")
    except OSError as e:
        raise ConfigError(f"cannot read config file {path}: {e}") from e
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path}: invalid JSON: {e}") from e
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    out = {}
    for key, value in data.items():
        if key not in _FIELDS:
            raise ConfigError(f"{path}: unknown setting: {key}")
        out[key] = _coerce(key, value)
    return out


def resolve_config(
    config_path: str | None = None, cli_overrides: dict | None = None
) -> RunConfig:
    """Merge defaults, config file, and CLI flags into a validated RunConfig.

    ``config_path`` falls back to the RIMKIT_CONFIG environment variable.
    CLI overrides with value None mean "flag not given" and are skipped.
    """
    path = config_path or os.environ.get(ENV_CONFIG) or None
    merged: dict = dict(load_config_file(path)) if path else {}
    for key, value in (cli_overrides or {}).items():
        if value is None:
            continue
        if key not in _FIELDS:
            raise ConfigError(f"unknown setting: {key}")
        merged[key] = _coerce(key, value)
    cfg = RunConfig(**merged)
    cfg.validate()
    return cfg


def config_dict(cfg: RunConfig) -> dict:
    out = {}
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if isinstance(value, tuple):
            value = list(value)
        out[f.name] = value
    return out


def dataset_fingerprint(root: Path) -> dict:
    """Content hashes identifying the dataset a run consumed."""
    root = Path(root)
    manifest = read_manifest(root)
    digest = hashlib.sha256((root / MANIFEST_NAME).read_bytes()).hexdigest()
    return {
        "root": str(root),
        "manifest_sha256": digest,
        "total_games": manifest.total_games,
        "partitions": {p.path: p.sha256 for p in manifest.partitions},
    }


def write_run_echo(
    out_dir: Path,
    command: str,
    cfg: RunConfig,
    dataset_root: Path | None = None,
) -> Path:
    doc = {
        "command": command,
        "config": config_dict(cfg),
        "inputs": dataset_fingerprint(dataset_root) if dataset_root else {},
    }
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / RUN_ECHO_NAME
    path.write_text(
        json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return path
