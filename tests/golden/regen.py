"""Rewrite ``quick_tour.json``: what each README quick-tour command prints and
returns, and the sha256 of every file the tour writes.

The tour is read from README.md and run in a temporary directory. The file
records each command's stdout lines and exit code, in tour order. The
digests cover each dataset partition, the manifest and ``ledger.json`` of
``rimkit simulate``, every CSV the analysis commands write, ``#`` lines
included, and every ``run.json`` echo. The tour names its paths relative to
the directory it runs in, so neither the printed lines nor the echoes need
normalizing.

Run from the repository root after a change that is meant to alter an
output, and name each changed file and the reason in CHANGES.md::

    PYTHONPATH=src python3 tests/golden/regen.py

Floating-point sums may differ in the last bit on another interpreter
(``sum()`` over floats is compensated from Python 3.12), so the file
records the interpreter that wrote it.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import re
import shlex
import tempfile
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

from rimkit.cli import main

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "quick_tour.json"
README = HERE.parent.parent / "README.md"


def tour_commands() -> list[list[str]]:
    """The quick tour's ``rimkit`` commands, as argument lists without the program name."""
    text = README.read_text(encoding="utf-8").split("\n## Quick tour\n", 1)[1]
    block = re.search(r"```sh\n(.*?)```", text, re.S).group(1).replace("\\\n", " ")
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("rimkit ")]


def run_tour(workdir: Path) -> dict:
    """Run the tour inside ``workdir``: each command's stdout lines and exit
    code, and each written file's sha256 by relative path."""
    stdout, exit_codes = [], []
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for argv in tour_commands():
            with redirect_stdout(StringIO()) as printed:
                exit_codes.append(main(argv))
            stdout.append(printed.getvalue().splitlines())
    finally:
        os.chdir(cwd)
    files = [p for p in workdir.rglob("*") if p.is_file()]
    digests = {
        p.relative_to(workdir).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(files)
    }
    return {"stdout": stdout, "exit_codes": exit_codes, "sha256": digests}


def golden_document(tour: dict) -> dict:
    return {
        "python": platform.python_version(),
        "commands": [shlex.join(["rimkit", *argv]) for argv in tour_commands()],
        **tour,
    }


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        doc = golden_document(run_tour(Path(tmp)))
    GOLDEN.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN.name}: {len(doc['sha256'])} digests under Python {doc['python']}")
