#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

Usage, from the root of a checkout:

    python3 perfbench/spread.py --seeds 1-10 [--workloads evolve,timeline-replay]
                                [--trace 0] [--json perfbench/trajectory/BENCH_1.json]

For every workload and end-to-end metric it prints the median of the runs
and the distance between their first and third quartiles (as
``statistics.quantiles(values, n=4)`` gives them) as a share of the median,
next to the metric's bound from BENCHMARK.json.  Runs are sequential.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def summarize(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0,
            "values": values}


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    p.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--seconds", type=int, default=bench["run_seconds"])
    p.add_argument("--json", help="also write the runs and summaries to this file")
    args = p.parse_args()
    metrics = bench["per_layer" if args.trace else "end_to_end"]

    report = {"seconds": args.seconds, "seeds": args.seeds, "trace": args.trace, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            start = time.monotonic()
            proc = subprocess.run(
                [sys.executable, *bench["command"][1:], "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=600,
            )
            elapsed = time.monotonic() - start
            result = json.loads(proc.stdout.splitlines()[-1])
            with open(os.path.join(HERE, "out", f"result-{workload}-trace{args.trace}.json"),
                      encoding="utf-8") as fh:
                detail = json.load(fh)
            runs.append({"seed": seed, "exit": proc.returncode, "elapsed_s": elapsed,
                         "record": detail["record"], "import_s": detail["import_s"],
                         "setups_s": detail["setups_s"], "setup_scales": detail["setup_scales"],
                         "op_walls_s": detail["op_walls_s"], "op_scales": detail["op_scales"],
                         **result})
            print(f"{workload} seed={seed} exit={proc.returncode} {elapsed:.1f}s "
                  f"correct={result['correct']} attempted={result['attempted']}", flush=True)
        summary = {}
        for m in metrics:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            summary[m["name"]] = summarize(values)
            s = summary[m["name"]]
            bound = m.get("bound")
            flag = "" if bound is None else f" bound={bound} {'ok' if s['spread'] < bound / 3 else 'WIDE'}"
            print(f"  {m['name']:40s} median={s['median']:.6g} {m['unit']} "
                  f"spread={s['spread']:.3f}{flag}", flush=True)
        report["workloads"][workload] = {"runs": runs, "summary": summary}
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
