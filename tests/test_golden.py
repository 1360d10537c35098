"""The README quick tour prints, returns and writes what the golden file records.

``tests/golden/quick_tour.json`` holds each tour command's stdout lines and
exit code, and the sha256 of every dataset file, CSV and ``run.json`` echo
the tour writes; ``tests/golden/regen.py`` rewrites it. A change that is
meant to alter an output regenerates the file and names each changed file
or printed line in CHANGES.md.
"""

from __future__ import annotations

import json

from golden.regen import GOLDEN, golden_document, run_tour


def test_quick_tour_outputs_match_the_golden_digests(tmp_path):
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = golden_document(run_tour(tmp_path))
    assert got["commands"] == want["commands"], "the README quick tour changed; rerun regen.py"
    for command, code, lines, want_code, want_lines in zip(
        want["commands"], got["exit_codes"], got["stdout"], want["exit_codes"], want["stdout"]
    ):
        assert code == want_code, f"{command}: exit {code}, recorded {want_code}"
        assert lines == want_lines, f"{command}: stdout differs from the recorded lines"
    changed = sorted(
        name
        for name in want["sha256"].keys() | got["sha256"].keys()
        if want["sha256"].get(name) != got["sha256"].get(name)
    )
    assert not changed, f"differ from digests recorded under Python {want['python']}: {changed}"
