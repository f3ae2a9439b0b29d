#!/usr/bin/env python3
"""Record the reference outputs every benchmark op is checked against.

Usage, from the root of a checkout:

    python3 perfbench/record.py            # writes perfbench/refs.json

For every input of the main and held-out pools it runs the op once and
stores what the equivalence contract keeps byte-identical: exit code,
``VERDICT`` lines, the printed ``pPeople``/``pTrip``/``pEnergy``/``fitness``
lines, and the sha256 of the tap, the genome file, the ``.history`` file or
the timeline stdout, and the line count of the tap a ``test`` op writes or
a ``timeline`` op reads.  Free-text report lines are left out.

The recording is cross-checked against the acceptance expectations: every
go-dark op fails ``switch-light-on`` at ``switchLightON`` with exit 1, and
the default world (seed 2) passes all seven machines with exit 0.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import json  # noqa: E402
import os  # noqa: E402

from run import OUT, REFS, git_rev, import_program, src_sha256  # noqa: E402
from workloads import (  # noqa: E402
    EVOLVE_GENERATIONS,
    GO_DARK_FAULT,
    POOLS,
    TIMELINE_PATTERNS,
    Workload,
    run_cli,
)

DEFAULT_WORLD_SEED = 2
PLAN_MACHINES = 7


def main() -> int:
    _, cli, _ = import_program()
    out_dir = os.path.join(OUT, "record")
    os.makedirs(out_dir, exist_ok=True)
    refs: dict[str, dict] = {}
    problems: list[str] = []

    def record(op):
        _, rc, out, err = run_cli(cli, op.argv)
        outputs = op.outputs(rc, out, err)
        if err:
            problems.append(f"{op.key}: stderr {err.strip()!r}")
        refs[op.key] = outputs
        print(f"{op.key} exit={rc}", flush=True)
        return outputs

    for pool in POOLS:
        workload = Workload("evolve", 0, pool, cli, out_dir)
        tap = os.path.join(out_dir, "record.tap")
        for seed in workload.go_dark_seeds():
            outputs = record(workload.test_op(seed, GO_DARK_FAULT, tap))
            if outputs["exit"] != 1 or "VERDICT switch-light-on FAIL switchLightON" not in outputs["verdicts"]:
                problems.append(f"go-dark seed {seed}: {outputs['exit']} {outputs['verdicts']}")
            for pattern in TIMELINE_PATTERNS:
                record(workload.timeline_op(seed, tap, pattern))
        count, first = workload.pool["fault_free"]
        for seed in range(first, first + count):
            outputs = record(workload.test_op(seed, None, tap))
            passed = sum(v.endswith(" PASS") for v in outputs["verdicts"])
            if seed == DEFAULT_WORLD_SEED and (outputs["exit"] != 0 or passed != PLAN_MACHINES):
                problems.append(f"default world: exit {outputs['exit']}, {passed} PASS")
        workload.write_ga_config()
        count, first = workload.pool["evolve"]
        for seed in range(first, first + count):
            record(workload.evolve_op(seed))

    with open(REFS, "w", encoding="utf-8") as fh:
        json.dump({
            "recorded_at": {"git_rev": git_rev(), "src_sha256": src_sha256(),
                            "evolve_generations": EVOLVE_GENERATIONS},
            "refs": refs,
        }, fh, indent=1, sort_keys=True)
        fh.write("\n")
    for text in problems:
        print(f"problem: {text}")
    print(f"{len(refs)} references written to {REFS}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
