"""Run one rimkit CLI command in a fresh process with its layers traced.

Usage: python3 perfbench/launch.py SPANS.jsonl INVOCATION -- <rimkit arguments>

Times ``import rimkit.cli`` as the span ``cli.import``, wraps the public
functions of every layer where each rimkit module binds them, calls
``rimkit.cli.main`` and appends the spans to SPANS.jsonl. Exits with the
command's own exit code. Expects ``src`` on PYTHONPATH, as the harness sets it.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

sys.path[0] = str(Path(__file__).resolve().parent.parent)  # the checkout, not perfbench/

from perfbench.tracer import Tracer, install  # noqa: E402


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    spans_path, invocation, args = argv[0], argv[1], argv[3:]
    tracer = Tracer(invocation)
    start = time.perf_counter_ns()
    import rimkit.cli

    tracer.record("cli.import", start, time.perf_counter_ns())
    install(tracer)
    try:
        return rimkit.cli.main(args)
    finally:
        tracer.dump(Path(spans_path))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
