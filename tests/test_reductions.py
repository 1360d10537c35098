"""The float reductions behind every mean, sd, z-score and correlation give the
same bits under every interpreter.

From Python 3.12 on ``sum()`` compensates float rounding, so a table built
from it would differ in the last bit between interpreters, and referees
tied to the last bit could swap ranks. ``aggregate`` and ``outliers`` add
left to right from +0.0 instead, the order of Python 3.11's ``sum()``.
They need neither numpy nor orjson, so each installed 3.12 and 3.13
interpreter runs them in a subprocess here and must give the bits of a
plain sequential loop.
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

# Runs in the interpreter under test: the inputs arrive as float.hex lists on
# stdin, the results leave as float.hex (or null) on stdout.
_SCRIPT = """
import json, sys
sys.path.insert(0, sys.argv[1])
from rimkit import aggregate, outliers

def out(v):
    if v is None:
        return None
    if isinstance(v, list):
        return [out(x) for x in v]
    return float(v).hex()

results = []
for xs, ys in json.load(sys.stdin):
    xs = [float.fromhex(h) for h in xs]
    ys = [float.fromhex(h) for h in ys]
    results.append([out(aggregate._mean(xs)), out(aggregate._sample_sd(xs)),
                    out(aggregate.pearson(xs, ys)), out(outliers._zscores(xs))])
print(json.dumps(results))
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
    payload = json.dumps([[[x.hex() for x in xs], [y.hex() for y in ys]] for xs, ys in cases])
    expected = [_hexes(_oracle(xs, ys)) for xs, ys in cases]
    for exe in interpreters:
        p = subprocess.run([exe, "-I", "-c", _SCRIPT, SRC], input=payload,
                           capture_output=True, text=True, timeout=120)
        assert p.returncode == 0, (exe, p.stderr[-800:])
        got = json.loads(p.stdout)
        bad = [i for i, (g, e) in enumerate(zip(got, expected)) if g != e]
        assert not bad and len(got) == len(expected), (exe, len(bad), bad[:5])
