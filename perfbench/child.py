"""One timed ``fairpc.cli.run_cli`` call in a fresh process.

Usage: python3 perfbench/child.py <0|1> <fairpc CLI arguments...>

The first argument selects the traced probes. Every import happens before
the clock starts. The last line of standard output is a JSON record: the
CLI exit code, the wall time of ``run_cli``, the process's peak resident
set size, and the spans and counts the probes collected.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from fairpc import cli  # noqa: E402

import probes  # noqa: E402


def main(argv: list[str]) -> int:
    tracer = probes.Tracer()
    with probes.installed(tracer, traced=argv[0] == "1"):
        t0 = time.perf_counter()
        code = cli.run_cli(argv[1:])
        wall = time.perf_counter() - t0
    record = {
        "exit": code,
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        **tracer.export(),
    }
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
