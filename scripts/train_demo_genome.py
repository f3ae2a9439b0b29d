#!/usr/bin/env python3
"""Evolve and validate the packaged demo genome.

Runs the observer GA on the default world until a winner holds up end to
end, then writes src/masharness/data/demo_genome.txt and pins the default
world seed to one whose pedestrian routes cross node10.  A candidate is
accepted only if:

  * the evaluation ``masharness test`` runs meets both solution targets
    (pEnergy < DEFAULT_ENERGY_TARGET, pPeople == 1.0),
  * the shipped test plan passes fault-free on the default world,
  * with go-dark:node10 injected, on five route-critical seeds the
    switch-light-on machine fails exactly at switchLightON (missing
    detectLight) and the global machine fails exactly at
    achieveEnergyTarget (missing achievePeopleTarget) while every other
    machine still passes.

Usage: python3 scripts/train_demo_genome.py [max_ga_seeds]
"""

import sys
import tempfile
import time
from dataclasses import replace
from pathlib import Path

from masharness.broker import Broker
from masharness.cli import data_path, main as cli_main
from masharness.evolution import evaluate_solution, load_ga_config, run_observer
from masharness.neural import NetworkTopology, save_genome
from masharness.testkit import judge, load_test_plan
from masharness.world import FaultSpec, load_world_config, seeds_with_light_on_route

WORLD_CFG_TEMPLATE = """\
# default neighborhood: 5x5 grid, 5 pedestrians, one episode = 200 ticks
gridWidth=5
gridHeight=5
wirelessRange=1
numPeople=5
maxTicks=200
ambientLight=0.05
lightBrightness=0.8
darkThreshold=0.15
rngSeed={seed}
"""


def by_name(verdicts):
    return {v.name: v for v in verdicts}


def run_plan(cases, world, genes, topology, faults=()):
    """The plan's verdicts and the fitness report of one ``masharness test`` episode."""
    with Broker() as broker:
        finish = judge(cases, broker)
        report = evaluate_solution(world, genes, topology, broker, faults=faults)
    return finish(), report


def validate(genes, topology, world, cases, seeds):
    verdicts, report = run_plan(cases, world, genes, topology)
    if not (report.energyTargetMet and report.peopleTargetMet):
        return f"targets unmet: energy={report.metrics.pEnergy:.4f} people={report.metrics.pPeople:.4f}"
    failed = [v.name for v in verdicts if not v.passed]
    if failed:
        return f"fault-free plan failed: {failed}"

    fault = FaultSpec("go-dark", ("node10",))
    for seed in seeds:
        faulted_world = replace(world, rngSeed=seed)
        verdicts, report = run_plan(cases, faulted_world, genes, topology, faults=(fault,))
        v = by_name(verdicts)
        switch = v["switch-light-on"]
        if switch.passed or switch.failedState != "switchLightON":
            return f"seed {seed}: switch-light-on ended at {switch.failedState!r}"
        if switch.missingPatterns != ("lightContainer.node10.detectLight.#",):
            return f"seed {seed}: unexpected missing {switch.missingPatterns}"
        glob = v["evaluate-solution"]
        if glob.passed or glob.failedState != "achieveEnergyTarget":
            return f"seed {seed}: evaluate-solution ended at {glob.failedState!r}"
        if glob.missingPatterns != ("OBSERVER.*.achievePeopleTarget.#",):
            return f"seed {seed}: unexpected missing {glob.missingPatterns}"
        others = [name for name, verdict in v.items()
                  if name not in ("switch-light-on", "evaluate-solution")
                  and not verdict.passed]
        if others:
            return f"seed {seed}: collateral failures {others}"
    return None


def check_with_cli():
    """Exit code of ``masharness test`` on the shipped assets; its outputs go to a temporary directory."""
    with tempfile.TemporaryDirectory() as tmp:
        return cli_main(["test", "--manifest", str(Path(tmp, "manifest.txt")),
                         "--tap", str(Path(tmp, "tap.log"))])


def main():
    max_seeds = int(sys.argv[1]) if len(sys.argv) > 1 else 5
    base = load_world_config(data_path("world.cfg"))
    ga = load_ga_config(data_path("ga.cfg"))
    cases = load_test_plan(data_path("default_plan.txt"))
    topology = NetworkTopology(hiddenCount=ga.hiddenCount)

    seeds = seeds_with_light_on_route(base, "node10", 5)
    world = replace(base, rngSeed=seeds[0])
    print(f"route-critical seeds for node10: {seeds} (world seed -> {seeds[0]})")

    for ga_seed in range(1, max_seeds + 1):
        started = time.time()
        result = run_observer(world, replace(ga, rngSeed=ga_seed))
        report = result.finalReport
        print(
            f"ga seed {ga_seed}: fitness={report.fitness:.6f} "
            f"pPeople={report.metrics.pPeople:.4f} pEnergy={report.metrics.pEnergy:.4f} "
            f"({time.time() - started:.1f}s)"
        )
        problem = validate(result.best.genes, topology, world, cases, seeds)
        if problem:
            print(f"  rejected: {problem}")
            continue

        genome_path = Path(data_path("demo_genome.txt"))
        save_genome(genome_path, result.best.genes, topology)
        cfg_path = Path(data_path("world.cfg"))
        cfg_path.write_text(WORLD_CFG_TEMPLATE.format(seed=seeds[0]), encoding="utf-8")
        print(f"  accepted: wrote {genome_path} and pinned world seed {seeds[0]}")

        code = check_with_cli()
        print(f"  masharness test exit code: {code}")
        return 0 if code == 0 else 1

    print("no GA seed produced a genome that survives validation", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
