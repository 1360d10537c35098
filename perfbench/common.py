"""Paths, child-process plumbing, provenance and statistics shared by the workloads."""

from __future__ import annotations

import ctypes
import hashlib
import os
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
# Work directories, merged traces and full result records; ignored by git.
STATE = ROOT / ".perfbench"

# One BLAS thread everywhere: on two shared cores the default two-thread
# OpenBLAS pool was no faster on the fits and swung far more between runs,
# and a fixed thread count keeps floating-point results reproducible.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = "1"

# A Baseline command takes under 10 s; a hung one is killed and counted as failed.
CHILD_TIMEOUT_S = 60

# What the installed ``rimkit`` console script runs.
RIMKIT = [
    sys.executable,
    "-c",
    "import sys; from rimkit.cli import main; sys.exit(main())",
]
LAUNCHER = [sys.executable, str(BENCH / "launch.py")]


def pin_threads(env: dict) -> None:
    for var in THREAD_VARS:
        env[var] = BLAS_THREADS


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("RIMKIT_CONFIG", None)  # a stray config file would change every command
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    pin_threads(env)
    return env


# How many corpus seeds have recorded reference values (perfbench/reference).
CORPUS_SEEDS = 16


@dataclass(frozen=True)
class Corpus:
    """Simulator settings; the defaults are the ROADMAP Baseline corpus."""

    seasons: tuple[str, ...] = ("2019-20", "2020-21", "2021-22")
    postseason_games: int = 80
    games_per_season: int = 1230
    teams: int = 30
    referees: int = 70
    fouls_mean: float = 40.0
    corpus_seeds: int = CORPUS_SEEDS

    def simulate_args(self, corpus_seed: int, out: Path) -> list[str]:
        return [
            "simulate", "--out", str(out), "--seed", str(corpus_seed),
            "--sim-seasons", *self.seasons,
            "--postseason-games", str(self.postseason_games),
            "--games-per-season", str(self.games_per_season),
            "--teams", str(self.teams), "--referees", str(self.referees),
            "--fouls-mean", str(self.fouls_mean),
        ]

    def sim_config(self, seed: int):
        from rimkit.synth import SimConfig

        return SimConfig(
            seed=seed,
            seasons=self.seasons,
            postseason_games_per_season=self.postseason_games,
            games_per_season=self.games_per_season,
            n_teams=self.teams,
            n_referees=self.referees,
            fouls_mean=self.fouls_mean,
        )


@dataclass
class ProcResult:
    argv: list[str]
    returncode: int
    wall_s: float
    maxrss_kb: int
    log: Path

    def tail(self, lines: int = 5) -> str:
        text = self.log.read_text(encoding="utf-8", errors="replace")
        return "\n".join(text.splitlines()[-lines:])


class _Timeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise _Timeout


def run_process(argv: list[str], log: Path) -> ProcResult:
    """Run one child to completion; wall time and its own peak RSS via wait4."""
    env = child_env()
    with open(log, "wb") as out:
        previous = signal.signal(signal.SIGALRM, _on_alarm)
        try:
            start = time.perf_counter()
            proc = subprocess.Popen(
                argv, env=env, stdin=subprocess.DEVNULL, stdout=out, stderr=subprocess.STDOUT
            )
            signal.alarm(CHILD_TIMEOUT_S)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except _Timeout:
                proc.kill()
                _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ProcResult(argv, proc.returncode, wall, usage.ru_maxrss, log)


def closed_loop(budget_s: float, min_rounds: int, one_round) -> list[float]:
    """Run rounds back to back while the next one is predicted to fit the budget.

    ``one_round`` returns the measured seconds of that round; checks it runs
    after its clock stops do not count against the budget.
    """
    times: list[float] = []
    while True:
        times.append(one_round(len(times)))
        if len(times) >= min_rounds and sum(times) + statistics.median(times) > budget_s:
            return times


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    end_to_end: dict[str, float] = field(default_factory=dict)
    # Per-layer values measured by the workload itself rather than by spans.
    layer_values: dict[str, float] = field(default_factory=dict)
    timed_spans: list[dict] = field(default_factory=list)
    setup_spans: list[dict] = field(default_factory=list)
    traced_rounds: int = 0
    info: dict = field(default_factory=dict)

    def op(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)


def sha256_file(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def source_digest() -> str:
    """sha256 over the package sources, naming the code when git cannot."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "rimkit").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            env=env,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def blas_threads() -> int | None:
    """Ask the loaded OpenBLAS for its thread count (None when not found)."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = sorted(
        {
            line.split()[-1]
            for line in maps.splitlines()
            if "openblas" in line.lower() and line.split()[-1].startswith("/")
        }
    )
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def provenance(workload: str, seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload,
        "seed": seed,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "blas_threads_env": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
    }
