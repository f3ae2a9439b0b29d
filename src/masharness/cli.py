"""Command-line harness: simulate, evolve, test, timeline.

Exit codes are uniform across commands: 0 when everything passed, 1 when
any test machine failed, 2 on usage, config, or input-file errors.  Every
run writes one plain-text manifest describing what ran and what it emitted;
the manifest is the only output containing wall-clock time, so repeated
runs with the same flags produce byte-identical taps and reports.  Each
command returns its exit code and manifest entries, and ``main`` alone
writes the manifest: a run that exits 2 after the manifest check writes
its ``error:`` line there.  ``test``
steps its machines inline as broker subscribers on the publishing thread,
so it starts no threads.

Importing this module loads ``logmodel`` and ``broker``, and no numpy.
``timeline`` runs on those alone.  ``simulate``, ``test`` and ``evolve``
import ``world`` and ``neural`` (and so numpy) when they run, ``test`` and
``evolve`` also ``evolution``, and ``test`` first ``testkit``.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import sys
import time
from dataclasses import replace
from importlib import resources
from itertools import islice
from operator import le

from .broker import Broker, _match
from .logmodel import (MasharnessError, _file_name, open_output, parse_binding_pattern,
                       read_tap)

USAGE_ERROR = 2
TEST_FAILURE = 1

_USER_ERRORS = (MasharnessError, OSError, argparse.ArgumentError)


@functools.lru_cache(maxsize=8)  # four assets are shipped
def data_path(name: str) -> str:
    """Path of a packaged default asset (config, plan, demo genome), looked up once per name."""
    return str(resources.files("masharness").joinpath("data", name))


def _episode_inputs(args):
    """``simulate``'s and ``test``'s (config, topology, genes, faults, manifest entries).

    An empty --config or --genome names the packaged default, as no flag does."""
    from . import load_genome, load_world_config, parse_fault_spec

    config_path = args.config or data_path("world.cfg")
    genome_path = args.genome or data_path("demo_genome.txt")
    config = load_world_config(config_path)
    if args.seed is not None:
        config = replace(config, rngSeed=args.seed)
    topology, genes = load_genome(genome_path)
    faults = tuple(parse_fault_spec(text) for text in args.fault or ())
    entries = {"config": config_path, "genome": genome_path, "seed": config.rngSeed,
               "faults": ",".join(args.fault or ()) or "-"}
    return config, topology, genes, faults, entries


def _stats_entries(broker: Broker, **ticks) -> dict:
    """A closed broker's run counters as ``stats.<name>`` manifest entries: the tick
    counts, each queue's and subscriber's deliveries, then events published and
    delivered in all."""
    counts = broker.stats()
    return {**{f"stats.{name}": value for name, value in ticks.items()},
            **{f"stats.delivered.{name}": q.delivered for name, q in counts.queues.items()},
            "stats.events_published": counts.published,
            "stats.events_delivered": sum(q.delivered for q in counts.queues.values())}


def _metrics(metrics) -> dict:
    """An episode's metrics as ``pPeople``, ``pTrip`` and ``pEnergy`` entries."""
    return {name: f"{getattr(metrics, name):.6f}" for name in ("pPeople", "pTrip", "pEnergy")}


def _one_line(value) -> str:
    """``str(value)``, or its ``repr`` if it would break the line, so an entry stays one line."""
    text = str(value)
    return text if text.splitlines() in ([text], []) else repr(text)


def write_manifest(path: str, command: str, entries: dict) -> None:
    with open_output(path) as fh:
        fh.write(f"command: {command}\n")
        for key, value in entries.items():
            fh.write(f"{key}: {_one_line(value)}\n")
        fh.write(f"wallclock: {time.strftime('%Y-%m-%dT%H:%M:%S%z')}\n")


def cmd_simulate(args) -> tuple[int, dict]:
    from . import decode, run_episode

    config, topology, genes, faults, inputs = _episode_inputs(args)
    tap = args.tap or "tap.log"
    # one plain episode with full world logging; no observer protocol here
    ticks = {}
    with Broker(tap=tap) as broker:
        metrics = _metrics(run_episode(config, decode(genes, topology), broker, faults=faults,
                                       stats=ticks))
    for name, value in metrics.items():
        print(f"{name}={value}")
    return 0, {
        **inputs,
        "tap": tap,
        **metrics,
        **_stats_entries(broker, **ticks),
    }


def cmd_evolve(args) -> tuple[int, dict]:
    from . import NetworkTopology, load_ga_config, load_world_config, run_observer, save_genome

    config_path = args.config or data_path("world.cfg")
    config = load_world_config(config_path)
    ga_path = args.ga_config or data_path("ga.cfg")
    ga_config = load_ga_config(ga_path)
    if args.seed is not None:
        ga_config = replace(ga_config, rngSeed=args.seed)
    out_path = args.genome or "evolved_genome.txt"
    history_path = out_path + ".history"
    # opened before the GA runs, so an unwritable history path fails before any GA work
    with Broker(tap=args.tap or None) as broker, open_output(history_path) as history:
        result = run_observer(config, ga_config, broker)
        history.writelines(generation.line() + "\n" for generation in result.history)
    save_genome(out_path, result.best.genes, NetworkTopology(hiddenCount=ga_config.hiddenCount))
    report = result.finalReport
    print(f"fitness={report.fitness:.6f}")
    for name, value in _metrics(report.metrics).items():
        print(f"{name}={value}")
    print(f"energyTargetMet={report.energyTargetMet}")
    print(f"peopleTargetMet={report.peopleTargetMet}")
    return 0, {
        "config": config_path,
        "gaConfig": ga_path,
        "seed": ga_config.rngSeed,
        "genomeOut": out_path,
        "history": history_path,
        "fitness": f"{report.fitness:.6f}",
        "energyTargetMet": report.energyTargetMet,
        "peopleTargetMet": report.peopleTargetMet,
        **_stats_entries(broker),
    }


def cmd_test(args) -> tuple[int, dict]:
    # testkit before numpy loads, so that compiling it does not raise the peak RSS
    from .testkit import format_report, judge, load_test_plan
    from . import evaluate_solution

    plan_path = args.plan or data_path("default_plan.txt")
    cases = load_test_plan(plan_path)
    if not cases:
        # a plan without cases would run the episode and print no verdict
        raise MasharnessError(f"plan {plan_path} has no test cases")
    config, topology, genes, faults, inputs = _episode_inputs(args)
    ticks = {}
    with Broker(tap=args.tap or None) as broker:
        finish = judge(cases, broker)
        report = evaluate_solution(config, genes, topology, broker, faults=faults, stats=ticks)
    verdicts = finish()
    for verdict in verdicts:
        print(format_report(verdict))
    print(
        f"episode fitness={report.fitness:.6f} "
        f"energyTargetMet={report.energyTargetMet} peopleTargetMet={report.peopleTargetMet}"
    )
    for verdict in verdicts:
        if verdict.passed:
            print(f"VERDICT {verdict.name} PASS")
        else:
            print(f"VERDICT {verdict.name} FAIL {verdict.failedState}")
    return 0 if all(v.passed for v in verdicts) else TEST_FAILURE, {
        "plan": plan_path,
        **inputs,
        "tap": args.tap or "-",
        "verdicts": " ".join(f"{v.name}={'PASS' if v.passed else 'FAIL'}" for v in verdicts),
        **_stats_entries(broker, **ticks),
    }


def cmd_timeline(args) -> tuple[int, dict]:
    """Print the tap lines whose key matches the pattern, stably sorted by timestamp."""
    pattern = parse_binding_pattern(args.pattern).segments
    stamps, lines = [], []
    for key, timestamp, message in read_tap(args.tap, lambda key: _match(pattern, key.segments)):
        stamps.append(timestamp)
        lines.append(f"{timestamp}\t{key.text}\t{message}\n")
    # a broker's tap is in timestamp order; a stable sort after the filter
    # gives the order a sort before it would
    if not all(map(le, stamps, islice(stamps, 1, None))):
        lines = [lines[i] for i in sorted(range(len(lines)), key=stamps.__getitem__)]
    sys.stdout.writelines(lines)
    # returning frees the lines before ``main`` writes the manifest
    return 0, {"tap": args.tap, "pattern": args.pattern, "events": len(lines)}


class _Parser(argparse.ArgumentParser):
    """A parser whose usage errors raise ArgumentError, for ``main`` to print as one line."""

    def error(self, message):
        raise argparse.ArgumentError(None, message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="masharness",
        description="Run, evolve, and test the streetlight multi-agent system.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *, ga=False, plan=False):
        p.add_argument("--config", help="world config file (key=value)")
        p.add_argument("--genome", help="genome file")
        if not ga:  # the observer's episodes run fault-free
            p.add_argument("--fault", action="append", metavar="KIND:ID[,ID...]",
                           help="inject a fault (repeatable)")
        p.add_argument("--seed", type=int, help="override the config RNG seed")
        p.add_argument("--manifest", default="manifest.txt", help="run manifest path")
        if ga:
            p.add_argument("--ga-config", help="GA config file (key=value)")
        if plan:
            p.add_argument("--plan", help="test plan file")
        p.add_argument("--tap", help="mirror all published events to this file")

    p_sim = sub.add_parser("simulate", help="run one logged episode")
    common(p_sim)
    p_sim.set_defaults(func=cmd_simulate)

    p_evo = sub.add_parser("evolve", help="run the observer's genetic algorithm")
    common(p_evo, ga=True)
    p_evo.set_defaults(func=cmd_evolve)

    p_test = sub.add_parser("test", help="execute a test plan against one episode")
    common(p_test, plan=True)
    p_test.set_defaults(func=cmd_test)

    p_tl = sub.add_parser("timeline", help="filter and print a tap file")
    p_tl.add_argument("pattern", help="binding pattern to filter by")
    p_tl.add_argument("--tap", required=True, help="tap file to read")
    p_tl.add_argument("--manifest", default="manifest.txt", help="run manifest path")
    p_tl.set_defaults(func=cmd_timeline)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` uses, built on its first call: building one costs more than a parse."""
    return build_parser()


def main(argv=None) -> int:
    manifest = None
    try:
        args = _parser().parse_args(argv)
        # an unwritable manifest fails the run before it prints or writes anything
        open(_file_name(args.manifest, MasharnessError, "manifest"), "a",
             encoding="utf-8").close()
        manifest = args.manifest
        code, entries = args.func(args)
        write_manifest(manifest, args.command, entries)
        return code
    except SystemExit:  # --help printed its text; a usage error raises ArgumentError
        return 0
    except _USER_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        if manifest is not None:
            # the failed run's manifest replaces the last run's; if it cannot be
            # written, the stderr line stands alone
            with contextlib.suppress(OSError):
                write_manifest(manifest, args.command, {"error": exc})
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
