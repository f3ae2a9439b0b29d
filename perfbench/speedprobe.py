"""Host speed probe: times a fixed pure-Python pass every 20 ms until stdin closes.

The benchmark starts this as a child process for the length of a run:

    python3 -B perfbench/speedprobe.py

Each pass is a short dict/str/int loop (0.65-1.3 ms, 3-6 % of one
core).  When its stdin is closed, it prints one JSON list of
``[start, end]`` ``time.perf_counter`` pairs, a clock the parent shares, and
exits.  The parent multiplies each op's wall time by the probe's mean
speed during the op, which takes out the shared host's drift in speed.
"""

from __future__ import annotations

import json
import select
import sys
import time

#: iterations of one pass
PASS_ITERATIONS = 2000
#: pause between passes, seconds
INTERVAL_S = 0.02


def one_pass() -> None:
    counts: dict[str, int] = {}
    size = 0
    for i in range(PASS_ITERATIONS):
        key = "k%d" % (i % 97)
        counts[key] = counts.get(key, 0) + i
        size += len(key)


def main() -> int:
    perf = time.perf_counter
    passes = []
    while not select.select([sys.stdin], [], [], INTERVAL_S)[0]:
        start = perf()
        one_pass()
        passes.append((start, perf()))
    json.dump(passes, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
