"""Raw feed parsing, foul/win-probability alignment, and the dataset on disk.

Raw documents are parsed defensively: a malformed document fails
atomically with a byte offset and no partial game, while recoverable data
problems (missing crew, unalignable fouls) become quarantine entries
instead of exceptions.

The canonical dataset is JSONL, one game per line, partitioned by
``<root>/<season>/<season_type>/games.jsonl`` with a manifest recording a
schema version, per-partition counts, and content hashes. Writes are
deterministic (games ordered by id, stable serialization) and staged
through a temp directory so an interrupted run never leaves a corrupt
dataset behind.
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
import sys
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from pathlib import Path

import orjson

from .model import (
    SAFE_LABEL,
    FoulEvent,
    GameRecord,
    canonicalize_name,
    is_no_crew_only,
    validate_game,
)

SCHEMA_VERSION = 1
MANIFEST_NAME = "manifest.json"
DEFAULT_START_PRIOR = 0.5

REASON_NO_POST_SAMPLE = "no-post-sample"

# The dataset decoder reads integers of 64 bits or fewer exactly.
_INT64_LIMIT = 2**63


class IngestError(Exception):
    """Base class for ingest failures."""


class ParseError(IngestError):
    """Malformed raw document; carries a byte offset when one is known."""

    def __init__(self, message: str, offset: int | None = None):
        super().__init__(message if offset is None else f"{message} (byte {offset})")
        self.offset = offset


class DatasetError(IngestError):
    """Dataset on disk is missing, inconsistent, or fails its manifest."""


# ---------------------------------------------------------------------------
# Raw feed parsing
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class RawPlay:
    play_id: str
    sequence: int
    period: int
    clock_seconds_remaining: float
    description: str
    is_foul: bool
    charged_team: str | None


@dataclass(frozen=True, slots=True)
class RawWpSample:
    play_id: str
    home_wp: float


@dataclass(frozen=True, slots=True)
class GameHeader:
    game_id: str
    season: str
    season_type: str
    home_team: str
    away_team: str
    series_state: tuple[int, int] | None = None


def _load_json(data: bytes, what: str) -> dict:
    try:
        doc = json.loads(data.decode("utf-8"))
    except UnicodeDecodeError as e:
        raise ParseError(f"{what}: not valid UTF-8", offset=e.start) from e
    except json.JSONDecodeError as e:
        raise ParseError(f"{what}: {e.msg}", offset=e.pos) from e
    except RecursionError as e:
        raise ParseError(f"{what}: nested too deeply") from e
    except ValueError as e:  # the only other: the digit limit on integer literals
        raise ParseError(f"{what}: integer over {sys.get_int_max_str_digits()} digits") from e
    if not isinstance(doc, dict):
        raise ParseError(f"{what}: top-level value must be an object", offset=0)
    return doc


def _lone_surrogate(doc) -> bool:
    """Whether a string in ``doc`` holds a lone surrogate, which the dataset decoder refuses."""
    try:
        json.dumps(doc, ensure_ascii=False).encode("utf-8")
    except UnicodeEncodeError:
        return True
    return False


def _require(doc: Mapping, key: str, what: str):
    if key not in doc:
        raise ParseError(f"{what}: missing required field {key!r}")
    return doc[key]


def _number(doc: Mapping, key: str, what: str, kind: type[int] | type[float]):
    """A required field read exactly as ``kind``, or a ParseError naming the field.

    A conversion that would change the value is refused, not coerced: a
    boolean, a fractional value read as ``int``, a non-finite value, and an
    integer beyond 64 bits (which the dataset decoder reads back as a float).
    Integral numeric strings such as "2" are accepted.
    """
    value = _require(doc, key, what)
    try:
        number = kind(value)
    except (TypeError, ValueError, OverflowError):
        number = None
    if number is None or isinstance(value, bool):
        problem = ""
    elif kind is float and not math.isfinite(number):
        problem = " (not finite)"
    elif kind is int and not -_INT64_LIMIT <= number < _INT64_LIMIT:
        problem = " (beyond 64 bits)"
    elif number != value and not isinstance(value, str):
        problem = f" (would change to {number!r})"
    else:
        return number
    raise ParseError(f"{what}.{key}: not a number: {value!r:.40}{problem}")


def parse_game_summary(
    data: bytes, aliases: Mapping[str, str] | None = None
) -> tuple[GameHeader, tuple[str, ...], list[RawPlay]]:
    """Parse one game summary document into (header, crew, plays).

    The crew may come back empty (callers flag such games); any structural
    problem — bad JSON, missing or non-numeric fields, non-increasing play
    sequence — raises :class:`ParseError` and yields no partial game.
    """
    doc = _load_json(data, "summary")
    # Only a \u escape can spell a lone surrogate.
    if b"\\u" in data and _lone_surrogate(doc):
        raise ParseError("summary: a \\u escape spells a lone surrogate")
    series = doc.get("series")
    series_state: tuple[int, int] | None = None
    if series is not None:
        if not isinstance(series, Mapping):
            raise ParseError("summary: 'series' must be an object")
        series_state = (
            _number(series, "home_wins", "summary.series", int),
            _number(series, "away_wins", "summary.series", int),
        )
    header = GameHeader(
        game_id=str(_require(doc, "game_id", "summary")),
        season=str(_require(doc, "season", "summary")),
        season_type=str(_require(doc, "season_type", "summary")),
        home_team=str(_require(doc, "home_team", "summary")),
        away_team=str(_require(doc, "away_team", "summary")),
        series_state=series_state,
    )
    officials = doc.get("officials") or []
    if not isinstance(officials, list):
        raise ParseError("summary: 'officials' must be a list")
    crew = tuple(canonicalize_name(str(o), aliases) for o in officials if str(o).strip())

    raw_plays = doc.get("plays", [])
    if not isinstance(raw_plays, list):
        raise ParseError("summary: 'plays' must be a list")
    plays: list[RawPlay] = []
    last_seq: int | None = None
    for i, p in enumerate(raw_plays):
        if not isinstance(p, Mapping):
            raise ParseError(f"summary: plays[{i}] must be an object")
        what = f"summary.plays[{i}]"
        seq = _number(p, "sequence", what, int)
        if last_seq is not None and seq <= last_seq:
            raise ParseError(f"{what}: sequence {seq} not increasing")
        last_seq = seq
        team = p.get("team")
        plays.append(
            RawPlay(
                play_id=str(_require(p, "id", what)),
                sequence=seq,
                period=_number(p, "period", what, int),
                clock_seconds_remaining=_number(p, "clock_seconds", what, float),
                description=str(p.get("text", "")),
                is_foul=bool(p.get("foul", False)),
                charged_team=str(team) if team is not None else None,
            )
        )
    return header, crew, plays


def parse_wp_feed(data: bytes) -> tuple[list[RawWpSample], float | None, int]:
    """Parse a win-probability feed into (samples, pregame prior, dropped).

    Samples with a missing/absent probability or one outside [0, 1] are
    dropped and counted rather than propagated; the alignment step treats
    a foul whose samples were dropped the same as one never sampled.
    """
    doc = _load_json(data, "wp")
    items = doc.get("items", [])
    if not isinstance(items, list):
        raise ParseError("wp: 'items' must be a list")
    pregame_raw = doc.get("pregame")
    pregame: float | None = None
    if pregame_raw is not None:
        try:
            pregame = float(pregame_raw)
        except (TypeError, ValueError, OverflowError):
            pregame = None
        if pregame is not None and not 0.0 <= pregame <= 1.0:
            pregame = None
    samples: list[RawWpSample] = []
    dropped = 0
    for i, item in enumerate(items):
        if not isinstance(item, Mapping):
            raise ParseError(f"wp: items[{i}] must be an object")
        play_id = str(_require(item, "play_id", f"wp.items[{i}]"))
        try:
            wp = float(item["home_wp"])
        except (KeyError, TypeError, ValueError, OverflowError):
            dropped += 1
            continue
        if not 0.0 <= wp <= 1.0 or wp != wp:  # NaN guard
            dropped += 1
            continue
        samples.append(RawWpSample(play_id=play_id, home_wp=wp))
    return samples, pregame, dropped


# ---------------------------------------------------------------------------
# Alignment
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class QuarantinedFoul:
    play_id: str
    reason: str


@dataclass(frozen=True)
class AlignResult:
    events: tuple[FoulEvent, ...]
    quarantined: tuple[QuarantinedFoul, ...]
    used_start_prior: bool


def align_foul_wp(
    plays: Sequence[RawPlay],
    samples: Sequence[RawWpSample],
    *,
    start_prior: float = DEFAULT_START_PRIOR,
) -> AlignResult:
    """Attach pre/post win-probability samples to each foul play.

    The pre value is the last sampled play strictly before the foul (the
    start prior when none exists); the post value is the foul's own sample,
    falling back to the nearest later sampled play. A foul with no usable
    post sample is quarantined with a reason code — alignment never guesses
    forward and never reorders plays.
    """
    wp_by_play: dict[str, float] = {s.play_id: s.home_wp for s in samples}

    # Nearest later sampled value for each position, one reverse sweep.
    n = len(plays)
    next_value: list[float | None] = [None] * n
    later: float | None = None
    for i in range(n - 1, -1, -1):
        next_value[i] = later
        wp = wp_by_play.get(plays[i].play_id)
        if wp is not None:
            later = wp

    events: list[FoulEvent] = []
    quarantined: list[QuarantinedFoul] = []
    used_prior = False
    last_before: float | None = None
    for i, play in enumerate(plays):
        own = wp_by_play.get(play.play_id)
        if play.is_foul:
            if last_before is not None:
                pre = last_before
            else:
                pre = start_prior
                used_prior = True
            post = own if own is not None else next_value[i]
            if post is None:
                quarantined.append(
                    QuarantinedFoul(play_id=play.play_id, reason=REASON_NO_POST_SAMPLE)
                )
            else:
                events.append(
                    FoulEvent(
                        event_id=len(events) + 1,
                        period=play.period,
                        clock_seconds_remaining=play.clock_seconds_remaining,
                        charged_team=play.charged_team,
                        pre_wp=pre,
                        post_wp=post,
                        description=play.description,
                    )
                )
        if own is not None:
            last_before = own
    return AlignResult(
        events=tuple(events),
        quarantined=tuple(quarantined),
        used_start_prior=used_prior,
    )


# ---------------------------------------------------------------------------
# Directory ingest
# ---------------------------------------------------------------------------


@dataclass
class IngestReport:
    """Quarantine ledger for one ingest run."""

    documents_seen: int = 0
    document_errors: list[tuple[str, str]] = field(default_factory=list)
    quarantined_games: list[tuple[str, tuple[str, ...]]] = field(default_factory=list)
    no_crew_games: list[str] = field(default_factory=list)
    quarantined_fouls: dict[str, tuple[QuarantinedFoul, ...]] = field(
        default_factory=dict
    )
    dropped_samples: int = 0
    start_prior_games: list[str] = field(default_factory=list)
    kept_games: int = 0

    def quarantine_counts(self) -> dict[str, int]:
        return {
            "document_errors": len(self.document_errors),
            "quarantined_games": len(self.quarantined_games),
            "no_crew_games": len(self.no_crew_games),
            "quarantined_fouls": sum(
                len(v) for v in self.quarantined_fouls.values()
            ),
            "dropped_samples": self.dropped_samples,
        }


def build_game(
    header: GameHeader,
    crew: tuple[str, ...],
    plays: Sequence[RawPlay],
    samples: Sequence[RawWpSample],
    *,
    start_prior: float = DEFAULT_START_PRIOR,
    pregame: float | None = None,
) -> tuple[GameRecord, AlignResult]:
    """Assemble one GameRecord from parsed raw parts.

    A feed-supplied pregame probability overrides the configured start
    prior for fouls that precede every sample.
    """
    prior = pregame if pregame is not None else start_prior
    aligned = align_foul_wp(plays, samples, start_prior=prior)
    record = GameRecord(
        game_id=header.game_id,
        season=header.season,
        season_type=header.season_type,
        home_team=header.home_team,
        away_team=header.away_team,
        crew=crew,
        events=aligned.events,
        series_state=header.series_state,
    )
    return record, aligned


def ingest_directory(
    raw_dir: Path,
    *,
    start_prior: float = DEFAULT_START_PRIOR,
    aliases: Mapping[str, str] | None = None,
) -> tuple[list[GameRecord], IngestReport]:
    """Ingest every ``*.summary.json`` under ``raw_dir`` (wp feeds optional).

    Nothing here raises for data problems: malformed documents, invalid
    games, unalignable fouls, and missing crews all land in the report.
    Documents are read in sorted path order; a later document that repeats
    an earlier one's ``game_id`` is quarantined as its duplicate.
    """
    raw_dir = Path(raw_dir)
    report = IngestReport()
    games: list[GameRecord] = []
    first_document: dict[str, str] = {}  # game_id -> the document that claimed it
    for summary_path in sorted(raw_dir.rglob("*.summary.json")):
        report.documents_seen += 1
        rel = str(summary_path.relative_to(raw_dir))
        try:
            header, crew, plays = parse_game_summary(
                summary_path.read_bytes(), aliases
            )
            wp_path = summary_path.with_name(
                summary_path.name.replace(".summary.json", ".wp.json")
            )
            if wp_path.exists():
                samples, pregame, dropped = parse_wp_feed(wp_path.read_bytes())
                report.dropped_samples += dropped
            else:
                samples, pregame = [], None
        except ParseError as e:
            report.document_errors.append((rel, str(e)))
            continue
        first = first_document.setdefault(header.game_id, rel)
        if first != rel:
            report.quarantined_games.append(
                (header.game_id, (f"game_id: duplicate of {first}",))
            )
            continue
        record, aligned = build_game(
            header, crew, plays, samples, start_prior=start_prior, pregame=pregame
        )
        if aligned.quarantined:
            report.quarantined_fouls[record.game_id] = aligned.quarantined
        if aligned.used_start_prior:
            report.start_prior_games.append(record.game_id)
        violations = validate_game(record)
        if violations and not is_no_crew_only(violations):
            report.quarantined_games.append((record.game_id, tuple(violations)))
            continue
        if not record.crew:
            report.no_crew_games.append(record.game_id)
        games.append(record)
        report.kept_games += 1
    return games, report


# ---------------------------------------------------------------------------
# Canonical dataset
# ---------------------------------------------------------------------------


def game_to_dict(g: GameRecord) -> dict:
    return {
        "game_id": g.game_id,
        "season": g.season,
        "season_type": g.season_type,
        "home_team": g.home_team,
        "away_team": g.away_team,
        "crew": list(g.crew),
        "series_state": list(g.series_state) if g.series_state else None,
        "events": [
            {
                "event_id": e.event_id,
                "period": e.period,
                "clock": e.clock_seconds_remaining,
                "team": e.charged_team,
                "pre_wp": e.pre_wp,
                "post_wp": e.post_wp,
                "description": e.description,
            }
            for e in g.events
        ],
    }


def game_from_dict(d: Mapping) -> GameRecord:
    """Rebuild a game from its stored dict (the inverse of :func:`game_to_dict`).

    Events are built positionally in ``FoulEvent`` field order. Team and
    description strings repeat across a corpus, so they are interned and
    every event shares one copy.
    """
    state = d.get("series_state")
    intern = sys.intern
    return GameRecord(
        game_id=d["game_id"],
        season=d["season"],
        season_type=d["season_type"],
        home_team=d["home_team"],
        away_team=d["away_team"],
        crew=tuple(d["crew"]),
        series_state=(int(state[0]), int(state[1])) if state else None,
        events=tuple(
            FoulEvent(
                e["event_id"],
                e["period"],
                e["clock"],
                None if (team := e["team"]) is None else intern(team),
                e["pre_wp"],
                e["post_wp"],
                intern(e.get("description", "")),
            )
            for e in d["events"]
        ),
    )


def _string(value) -> str:
    if not isinstance(value, str):
        raise TypeError(f"expected a string, got {value!r:.40}")
    return value


@dataclass(frozen=True)
class PartitionInfo:
    path: str
    games: int
    sha256: str


@dataclass(frozen=True)
class DatasetManifest:
    schema_version: int
    partitions: tuple[PartitionInfo, ...]
    quarantine: Mapping[str, int]

    @property
    def total_games(self) -> int:
        return sum(p.games for p in self.partitions)

    def to_dict(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "partitions": [
                {"path": p.path, "games": p.games, "sha256": p.sha256}
                for p in self.partitions
            ],
            "quarantine": dict(self.quarantine),
            "total_games": self.total_games,
        }

    @classmethod
    def from_dict(cls, d: Mapping) -> DatasetManifest:
        return cls(
            schema_version=int(d["schema_version"]),
            partitions=tuple(
                PartitionInfo(_string(p["path"]), int(p["games"]), _string(p["sha256"]))
                for p in d["partitions"]
            ),
            quarantine={k: int(v) for k, v in d.get("quarantine", {}).items()},
        )


def _serialize_game_line(g: GameRecord) -> bytes:
    # A line the dataset decoder would refuse or read back changed is refused
    # here: a NaN or an infinity (not standard JSON), a lone surrogate, and an
    # integer beyond 64 bits (read back as a float).
    d = game_to_dict(g)
    try:
        text = json.dumps(d, sort_keys=True, separators=(",", ":"), allow_nan=False)
    except ValueError as e:
        raise DatasetError(f"game {g.game_id!r}: {e}") from e
    # json escapes every surrogate, paired or lone, as \udXXX.
    if "\\ud" in text and _lone_surrogate(d):
        raise DatasetError(f"game {g.game_id!r}: a string holds a lone surrogate")
    ints = [v for e in (*g.events, g.series_state or ()) for v in e if type(v) is int]
    if ints and not (-_INT64_LIMIT <= min(ints) and max(ints) < _INT64_LIMIT):
        raise DatasetError(f"game {g.game_id!r}: an integer beyond 64 bits")
    return (text + "\n").encode("utf-8")


def write_dataset(
    games: Iterable[GameRecord],
    root: Path,
    *,
    quarantine: Mapping[str, int] | None = None,
) -> DatasetManifest:
    """Write the canonical partitioned dataset under ``root``.

    Deterministic: games sort by id within each (season, season_type)
    partition and serialization is stable, so re-running on the same input
    is byte-identical. Files are staged in a temp directory and moved into
    place, manifest last — an interrupted write leaves the stage behind,
    never a half-updated dataset.
    """
    root = Path(root)
    by_partition: dict[tuple[str, str], list[GameRecord]] = {}
    ids_seen: dict[str, str] = {}
    for g in games:
        if g.game_id in ids_seen:
            raise DatasetError(f"duplicate game_id {g.game_id!r}")
        ids_seen[g.game_id] = g.game_id
        for label in (g.season, g.season_type):
            if not SAFE_LABEL.fullmatch(label):
                raise DatasetError(f"game {g.game_id!r}: {label!r} cannot name a partition")
        by_partition.setdefault((g.season, g.season_type), []).append(g)

    root.mkdir(parents=True, exist_ok=True)
    stage = root / ".staging"
    if stage.exists():
        shutil.rmtree(stage)
    stage.mkdir()

    partitions: list[PartitionInfo] = []
    completed = False
    try:
        for (season, season_type) in sorted(by_partition):
            part_games = sorted(by_partition[(season, season_type)], key=lambda g: g.game_id)
            rel = f"{season}/{season_type}/games.jsonl"
            staged = stage / rel
            staged.parent.mkdir(parents=True, exist_ok=True)
            digest = hashlib.sha256()
            with staged.open("wb") as fh:
                for g in part_games:
                    line = _serialize_game_line(g)
                    fh.write(line)
                    digest.update(line)
            partitions.append(
                PartitionInfo(path=rel, games=len(part_games), sha256=digest.hexdigest())
            )
        manifest = DatasetManifest(
            schema_version=SCHEMA_VERSION,
            partitions=tuple(partitions),
            quarantine=dict(quarantine or {}),
        )
        staged_manifest = stage / MANIFEST_NAME
        staged_manifest.write_text(
            json.dumps(manifest.to_dict(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        # Stage is complete; move data files into place, manifest last.
        for p in partitions:
            target = root / p.path
            target.parent.mkdir(parents=True, exist_ok=True)
            (stage / p.path).replace(target)
        staged_manifest.replace(root / MANIFEST_NAME)
        completed = True
    finally:
        if completed:
            shutil.rmtree(stage, ignore_errors=True)
        # On failure the stage directory is left behind for inspection; the
        # previously live dataset (if any) is untouched.
    return manifest


def read_manifest(root: Path) -> DatasetManifest:
    path = Path(root) / MANIFEST_NAME
    if not path.exists():
        raise DatasetError(f"no manifest at {path}")
    try:
        return DatasetManifest.from_dict(json.loads(path.read_text(encoding="utf-8")))
    except (KeyError, TypeError, ValueError, AttributeError, OverflowError, RecursionError) as e:
        raise DatasetError(f"manifest unreadable: {e}") from e


def load_dataset(root: Path, *, verify: bool = True) -> tuple[list[GameRecord], DatasetManifest]:
    """Read every partition listed by the manifest, optionally verifying hashes."""
    root = Path(root)
    manifest = read_manifest(root)
    if manifest.schema_version != SCHEMA_VERSION:
        raise DatasetError(
            f"schema version {manifest.schema_version} unsupported "
            f"(expected {SCHEMA_VERSION})"
        )
    games: list[GameRecord] = []
    inside = root.resolve()
    for part in manifest.partitions:
        path = root / part.path
        if not path.resolve().is_relative_to(inside):
            raise DatasetError(f"partition path leaves the dataset root: {part.path}")
        if not path.exists():
            raise DatasetError(f"partition missing: {part.path}")
        data = path.read_bytes()
        if verify:
            actual = hashlib.sha256(data).hexdigest()
            if actual != part.sha256:
                raise DatasetError(f"partition hash mismatch: {part.path}")
        count = 0
        for line_no, line in enumerate(data.splitlines(), start=1):
            if not line.strip():
                continue
            try:
                games.append(game_from_dict(orjson.loads(line)))
            except (ValueError, KeyError, IndexError, TypeError, AttributeError) as e:
                # ValueError covers orjson.JSONDecodeError; the rest are a
                # well-formed line of the wrong shape.
                raise DatasetError(
                    f"{part.path}:{line_no}: bad game line: {e}"
                ) from e
            count += 1
        if count != part.games:
            raise DatasetError(
                f"partition {part.path}: manifest says {part.games} games, "
                f"found {count}"
            )
    return games, manifest
