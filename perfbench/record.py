"""Record the reference values the correctness checks compare against.

    python3 perfbench/record.py

Run at the seed commit (or after a change that is meant to alter outputs):
writes reference/cli_digests.json (CSV data-row digests of the quick tour
for each recorded corpus seed) and reference/mc_fits.json (kept columns,
target estimates and standard errors of every Monte Carlo replicate).
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    sys.path[0:1] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.common import STATE, pin_threads

    pin_threads(os.environ)
    from perfbench import cli_pipeline, mc_fits

    mc = mc_fits.record()
    mc_fits.REFERENCE.write_text(json.dumps(mc, indent=1, sort_keys=True) + "\n")
    work = STATE / f"record-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        digests = cli_pipeline.record(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    cli_pipeline.REFERENCE.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
