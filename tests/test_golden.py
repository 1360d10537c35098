"""The README quick tour writes the same bytes as the committed digests.

``tests/golden/quick_tour.json`` holds the sha256 of every dataset file,
CSV and ``run.json`` echo the tour writes; ``tests/golden/regen.py``
rewrites it. A change that is meant to alter an output regenerates the file
and names each changed file in CHANGES.md.
"""

from __future__ import annotations

import json

from golden.regen import GOLDEN, golden_document, tour_digests


def test_quick_tour_outputs_match_the_golden_digests(tmp_path):
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = golden_document(tour_digests(tmp_path))
    assert got["commands"] == want["commands"], "the README quick tour changed; rerun regen.py"
    changed = sorted(
        name
        for name in want["sha256"].keys() | got["sha256"].keys()
        if want["sha256"].get(name) != got["sha256"].get(name)
    )
    assert not changed, f"differ from digests recorded under Python {want['python']}: {changed}"
