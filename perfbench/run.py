"""Benchmark entry point, run from the root of a checkout:

    python3 perfbench/run.py --workload {cli_pipeline,mc_fits,raw_ingest} \\
        --seed N --seconds S --trace {0,1}

Prints a provenance line, then as its last line one JSON object with the
keys correct, attempted, failed and metrics. Exits 1 when a correctness
check failed and 2 when the rimkit sources are missing.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    if not (ROOT / "src" / "rimkit" / "__init__.py").is_file():
        print(f"perfbench: no rimkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[0:1] = [str(ROOT / "src"), str(ROOT)]  # not this directory
    from perfbench.common import pin_threads

    pin_threads(os.environ)  # before numpy loads BLAS, here and in every child
    from perfbench.harness import main as harness_main

    return harness_main()


if __name__ == "__main__":
    sys.exit(main())
