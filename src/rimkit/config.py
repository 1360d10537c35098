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
from collections.abc import Collection
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

from .ingest import DEFAULT_START_PRIOR, MANIFEST_NAME, read_manifest
from .model import SEASON_TYPES, TARGET_FORMS

ENV_CONFIG = "RIMKIT_CONFIG"
RUN_ECHO_NAME = "run.json"


class ConfigError(ValueError):
    """Bad config file or bad setting value."""


@dataclass(frozen=True)
class RunConfig:
    """Every run setting; a ``choices`` entry in a field's metadata names
    the values it may take, for ``validate`` and the CLI flag alike."""

    dataset: str | None = None
    out_dir: str | None = None
    seasons: tuple[str, ...] = ()  # empty = all seasons
    season_type: str | None = field(  # None = all season types
        default=None, metadata={"choices": SEASON_TYPES}
    )
    min_games_regular: int = 50
    min_games_postseason: int = 15
    min_pair_games: int = 5
    table_k: int = 10
    pair_k: int = 5
    team_side_k: int = 3
    target_form: str = field(default="indicator", metadata={"choices": TARGET_FORMS})
    seed: int = 0
    start_prior: float = DEFAULT_START_PRIOR

    def validate(self) -> None:
        for f in fields(self):
            value, choices = getattr(self, f.name), f.metadata.get("choices")
            unset = value is None and f.default is None
            if choices and value not in choices and not unset:
                raise ConfigError(f"{f.name} must be one of {choices}")
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
        for name in ("dataset", "out_dir"):  # paths, which no file name can match
            if "\0" in (getattr(self, name) or ""):
                raise ConfigError(f"{name} holds a NUL byte")


_FIELDS = {f.name: f for f in fields(RunConfig)}


def _coerce(name: str, value):
    """Check one setting against the type of its ``RunConfig`` default.

    A default of None means "a string, or null"; every other setting
    refuses null.
    """
    if name not in _FIELDS:
        raise ConfigError(f"unknown setting: {name}")
    default = _FIELDS[name].default
    if value is None and default is None:
        return None
    if isinstance(default, tuple):
        if not isinstance(value, (list, tuple)) or not all(
            isinstance(v, str) for v in value
        ):
            raise ConfigError(f"{name} must be a list of strings")
        return tuple(value)
    if isinstance(default, float):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{name} must be a number")
        return float(value)
    if isinstance(default, int):
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{name} must be an integer")
        return value
    if not isinstance(value, str):
        raise ConfigError(f"{name} must be a string")
    return value


def read_json_file(path: Path, what: str):
    """Decode one JSON input file (a config, effects or aliases file).

    A file that cannot be read, is not UTF-8, is not JSON or nests deeper
    than json's recursion limit is a ``ConfigError`` naming it, so the CLI
    reports it as an input error.
    """
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as e:
        raise ConfigError(f"cannot read {what} {path}: {e}") from e
    except (ValueError, RecursionError) as e:  # ValueError: bad UTF-8 or bad JSON
        raise ConfigError(f"{path}: invalid {what}: {e}") from e


def load_config_file(path: Path) -> dict:
    """Read a flat JSON object of settings; unknown keys are errors."""
    data = read_json_file(path, "config file")
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    out = {}
    for key, value in data.items():
        if key not in _FIELDS:
            raise ConfigError(f"{path}: unknown setting: {key}")
        out[key] = _coerce(key, value)
    return out


def resolve_config(
    config_path: str | None, cli_overrides: dict, applies: Collection[str]
) -> RunConfig:
    """Merge defaults, config file, and CLI flags into a validated RunConfig.

    ``config_path`` falls back to the RIMKIT_CONFIG environment variable.
    The whole file is checked, but only the settings the command
    ``applies`` are taken from it; the rest keep their defaults, so one
    file serves every command and ``run.json`` echoes only what the run
    used. CLI overrides with value None mean "flag not given" and are
    skipped.
    """
    path = config_path or os.environ.get(ENV_CONFIG) or None
    from_file = load_config_file(path) if path else {}
    merged = {k: v for k, v in from_file.items() if k in applies}
    for key, value in cli_overrides.items():
        if value is not None:
            merged[key] = _coerce(key, value)
    cfg = RunConfig(**merged)
    cfg.validate()
    return cfg


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
        "config": asdict(cfg),
        "inputs": dataset_fingerprint(dataset_root) if dataset_root else {},
    }
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / RUN_ECHO_NAME
    path.write_text(
        json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return path
