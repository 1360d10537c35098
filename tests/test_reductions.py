"""The float reductions behind every mean, sd, z-score and correlation give the
same bits under every interpreter.

From Python 3.12 on ``sum()`` compensates float rounding, so a table built
from it would differ in the last bit between interpreters, and referees
tied to the last bit could swap ranks. ``aggregate`` and ``outliers`` add
left to right from +0.0 instead, the order of Python 3.11's ``sum()``.
They need neither numpy nor orjson, so each installed 3.12 and 3.13
interpreter runs them in a subprocess here and must give the bits of a
plain sequential loop, and ``build_cells`` and ``home_away_summary`` on
tables must give the bits they give in this process.
"""

from __future__ import annotations

import glob
import json
import math
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import rimkit
from rimkit import aggregate, outliers

SRC = str(Path(rimkit.__file__).resolve().parents[1])

# Builds a crew panel and team rows as tables from float.hex inputs and runs
# ``build_cells`` and ``home_away_summary`` on them, every float out as
# float.hex; run in process and in each interpreter under test.
_TABLE_BITS = """
from rimkit import aggregate, outliers
from rimkit.model import TeamGameColumns, TeamGameRow
from rimkit.outliers import PanelColumns, PanelRow

def table_bits(panel, team):
    h = float.fromhex
    panel = PanelColumns.of(PanelRow(*r[:5], h(r[5]), h(r[6])) for r in panel)
    team = TeamGameColumns.of(TeamGameRow(*r[:6], r[6], h(r[7]), h(r[8]), r[9]) for r in team)
    x = lambda v: None if v is None else float(v).hex()
    cells = [[c.referee, c.team, c.games] + [x(getattr(m, f)) for m in (c.rim, c.disparity)
             for f in ("observed", "referee_mean", "team_mean", "global_mean", "excess")]
             for c in outliers.build_cells(panel)]
    summary = aggregate.home_away_summary(team)
    league = [[s.season_type, s.side, s.n_rows, x(s.mean_disparity), x(s.mean_team_rim)]
              for s in summary.league]
    teams = [[t.team, t.home_games, t.away_games, x(t.home_mean_disparity),
              x(t.away_mean_disparity), x(t.home_mean_team_rim), x(t.away_mean_team_rim)]
             for t in summary.teams]
    return [cells, league, teams]
"""

# Runs in the interpreter under test: the inputs arrive as float.hex lists on
# stdin, the results leave as float.hex (or null) on stdout.
_SCRIPT = """
import json, sys
sys.path.insert(0, sys.argv[1])
from rimkit import aggregate, outliers
""" + _TABLE_BITS + """
def out(v):
    if v is None:
        return None
    if isinstance(v, list):
        return [out(x) for x in v]
    return float(v).hex()

payload = json.load(sys.stdin)
results = []
for xs, ys in payload["reductions"]:
    xs = [float.fromhex(h) for h in xs]
    ys = [float.fromhex(h) for h in ys]
    results.append([out(aggregate._mean(xs)), out(aggregate._sample_sd(xs)),
                    out(aggregate.pearson(xs, ys)), out(outliers._zscores(xs))])
print(json.dumps({"reductions": results, "tables": table_bits(*payload["tables"])}))
"""


def _inputs() -> list[tuple[list[float], list[float]]]:
    fixed = [
        [-0.0, -0.0, -0.0],
        [0.1] * 10,
        [1e16, 1.0, -1e16, 1.0],
        [0.5, -0.5, 1e-300, 3.0],
        [1.0 / 3.0, 2.0 / 3.0, 1e-17, -1e-17, 5.0],
    ]
    cases = [(xs, list(reversed(xs))) for xs in fixed]
    r = random.Random(20)
    for _ in range(300):
        n = r.randint(3, 80)
        scale = 10.0 ** r.randint(-3, 3)
        xs = [r.gauss(0.0, scale) for _ in range(n)]
        ys = [x * r.uniform(-1.0, 1.0) + r.gauss(0.0, 1.0) for x in xs]
        cases.append((xs, ys))
    return cases


def _sequential(values) -> float:
    total = 0.0
    for v in values:
        total += v
    return total


def _table_inputs() -> tuple[list, list]:
    """A crew panel and team rows whose sums a compensated sum would round
    differently: wide-ranging outcomes over few referees and teams."""
    r = random.Random(21)
    panel, team = [], []
    for g in range(400):
        home, away = r.sample(["T1", "T2", "T3", "T4", "T5"], 2)
        scale = 10.0 ** r.randint(-3, 3)
        rim, disp = r.gauss(0.0, scale), float(r.randint(-9, 9))
        for ref in r.sample(["R1", "R2", "R3", "R4", "R5", "R6"], 3):
            for side, opp, sign in ((home, away, 1.0), (away, home, -1.0)):
                panel.append([f"g{g}", "S1", ref, side, opp, (sign * rim + r.gauss(0.0, 1e-3)).hex(),
                              (sign * disp).hex()])
        season_type = r.choice(["regular", "postseason"])
        for side, opp, home_side, sign in ((home, away, True, 1), (away, home, False, -1)):
            team.append([f"g{g}", side, opp, home_side, "S1", season_type, sign * int(disp),
                         (sign * rim).hex(), abs(rim).hex(), r.randint(0, 60)])
    return panel, team


def _oracle(xs: list[float], ys: list[float]) -> list:
    """Every reduction written as a plain left-to-right loop from +0.0."""
    n = len(xs)
    mx, my = _sequential(xs) / n, _sequential(ys) / n
    ssx = _sequential((x - mx) ** 2 for x in xs)
    ssy = _sequential((y - my) ** 2 for y in ys)
    sxy = _sequential((x - mx) * (y - my) for x, y in zip(xs, ys))
    sd = math.sqrt(ssx / (n - 1))
    r = None if ssx == 0.0 or ssy == 0.0 else sxy / math.sqrt(ssx * ssy)
    z = None if ssx == 0.0 else [(x - mx) / (ssx / (n - 1)) ** 0.5 for x in xs]
    return [mx, sd, r, z]


def _hexes(v):
    if v is None:
        return None
    if isinstance(v, list):
        return [_hexes(x) for x in v]
    return float(v).hex()


def _in_process(xs, ys) -> list:
    return [aggregate._mean(xs), aggregate._sample_sd(xs), aggregate.pearson(xs, ys),
            outliers._zscores(xs)]


def _interpreters(minor: int) -> list[str]:
    """Every distinct ``python3.<minor>`` that runs: on PATH, or installed by pyenv."""
    name = f"python3.{minor}"
    candidates = [shutil.which(name)]
    if pyenv := shutil.which("pyenv"):
        root = subprocess.run([pyenv, "root"], capture_output=True, text=True).stdout.strip()
        if root:
            candidates += sorted(glob.glob(os.path.join(root, "versions", f"3.{minor}.*",
                                                        "bin", name)))
    found, seen = [], set()
    for exe in filter(None, candidates):
        try:
            p = subprocess.run([exe, "-I", "-c", "import sys, os; print(sys.version_info[:2], "
                                "os.path.realpath(sys.executable))"],
                               capture_output=True, text=True, timeout=60)
        except OSError:
            continue
        version, _, real = p.stdout.strip().partition(") ")
        if p.returncode == 0 and version + ")" == f"(3, {minor})" and real not in seen:
            seen.add(real)
            found.append(exe)
    return found


def test_reductions_are_a_sequential_loop_in_process():
    for xs, ys in _inputs():
        assert _hexes(_in_process(xs, ys)) == _hexes(_oracle(xs, ys))
    # sum() gave +0.0 for a list of negative zeros; so does its replacement.
    assert math.copysign(1.0, aggregate._mean([-0.0, -0.0])) == 1.0


def test_a_compensated_mean_is_caught(monkeypatch):
    # The inputs are ones a compensated sum (3.12's sum(), or math.fsum)
    # rounds differently, so the comparisons above would fail on it.
    monkeypatch.setattr(aggregate, "_mean", lambda values: math.fsum(values) / len(values))
    mismatches = sum(_hexes(_in_process(xs, ys)) != _hexes(_oracle(xs, ys))
                     for xs, ys in _inputs())
    assert mismatches > 50


@pytest.mark.parametrize("minor", [12, 13], ids=["python3.12", "python3.13"])
def test_reductions_give_the_same_bits_under_another_interpreter(minor):
    interpreters = _interpreters(minor)
    if not interpreters:
        pytest.skip(f"no python3.{minor} interpreter is installed")
    cases = _inputs()
    tables = _table_inputs()
    payload = json.dumps({
        "reductions": [[[x.hex() for x in xs], [y.hex() for y in ys]] for xs, ys in cases],
        "tables": tables,
    })
    expected = [_hexes(_oracle(xs, ys)) for xs, ys in cases]
    namespace: dict = {}
    exec(_TABLE_BITS, namespace)
    expected_tables = namespace["table_bits"](*tables)
    for exe in interpreters:
        p = subprocess.run([exe, "-I", "-c", _SCRIPT, SRC], input=payload,
                           capture_output=True, text=True, timeout=120)
        assert p.returncode == 0, (exe, p.stderr[-800:])
        got = json.loads(p.stdout)
        bad = [i for i, (g, e) in enumerate(zip(got["reductions"], expected)) if g != e]
        assert not bad and len(got["reductions"]) == len(expected), (exe, len(bad), bad[:5])
        assert got["tables"] == expected_tables, exe


def test_a_compensated_mean_changes_the_table_bits(monkeypatch):
    # The table inputs are ones a compensated mean rounds differently, so the
    # comparison above would see an interpreter whose sum() compensates.
    tables = _table_inputs()
    namespace: dict = {}
    exec(_TABLE_BITS, namespace)
    sequential = namespace["table_bits"](*tables)
    monkeypatch.setattr(aggregate, "_mean", lambda values: math.fsum(values) / len(values))
    assert namespace["table_bits"](*tables)[1:] != sequential[1:]
