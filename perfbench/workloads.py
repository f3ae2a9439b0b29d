"""The four benchmark workloads: their inputs, ops and output checks.

An op is one in-process call of ``masharness.cli.main(argv)`` with stdout
and stderr captured.  Each workload draws its op inputs from a fixed pool
whose reference outputs are recorded in ``refs.json``; the benchmark seed
only chooses the order in which a run walks the pool, so every op of every
seed is checked byte for byte against the reference.  The held-out pools
are used only with ``--held-out``.

Why these workloads (see README.md for the layer map):

* ``test-go-dark``: the log path at volume, ~51k events per op through
  eight queues, seven machine threads and a 5.7 MB tap.
* ``test-fault-free``: the same code with short ops, so per-op fixed costs
  (plan parse, queue declarations, thread start/join, ``init_world``) weigh.
* ``evolve``: silent world + neural + evolution; the broker has no queues.
* ``timeline-replay``: the read side, ``load_tap``/``parse_event_line`` and
  ``broker.matches``, with no publishing, threads or world.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import random
import re
import time

WORKLOADS = ("test-go-dark", "test-fault-free", "evolve", "timeline-replay")

#: untimed set-up repetitions per run; ``setup_s`` reports their median.
#: A fault-free set-up is short, so it is repeated more often.
SETUPS = {"test-go-dark": 3, "test-fault-free": 15, "evolve": 3, "timeline-replay": 3}

GO_DARK_LIGHT = "node10"
GO_DARK_FAULT = f"go-dark:{GO_DARK_LIGHT}"
TIMELINE_PATTERNS = ("lightContainer.node10.#", "*.*.switchLightON.#", "OBSERVER.#", "#")
#: go-dark taps a timeline run replays, one written by each set-up
TIMELINE_TAPS = 3
#: smallest generation count for which the GA operators run
EVOLVE_GENERATIONS = 2

#: pool sizes and first seeds; ``held-out`` is never used by the default run
POOLS = {
    "main": {"go_dark": (6, 1), "fault_free": (48, 1), "evolve": (4, 1)},
    "held-out": {"go_dark": (6, 1001), "fault_free": (24, 1001), "evolve": (4, 1001)},
}

_METRIC_LINE = re.compile(r"^(episode )?(fitness|pPeople|pTrip|pEnergy)=")


def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def count_lines(path: str) -> int:
    with open(path, "rb") as fh:
        return sum(block.count(b"\n") for block in iter(lambda: fh.read(1 << 20), b""))


def run_cli(cli, argv: list[str]) -> tuple[float, int, str, str]:
    """One op: ``cli.main(argv)`` with captured output; returns (wall, rc, out, err)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        rc = cli.main(argv)
        wall = time.perf_counter() - start
    return wall, rc, out.getvalue(), err.getvalue()


class PublishCounter:
    """Counts ``Broker.publish`` calls while installed (the events of an evolve op)."""

    def __init__(self, broker_cls):
        self.broker_cls = broker_cls
        self.original = broker_cls.__dict__["publish"]
        self.count = 0

    def install(self) -> None:
        original = self.original

        def publish(broker, event):
            self.count += 1
            return original(broker, event)

        self.broker_cls.publish = publish

    def uninstall(self) -> None:
        self.broker_cls.publish = self.original


class Op:
    """One planned op: its argv, reference key and how to read its outputs."""

    def __init__(self, key: str, argv: list[str], genomes: int, read):
        self.key = key
        self.argv = argv
        self.genomes = genomes
        self._read = read

    def outputs(self, rc: int, out: str, err: str) -> dict:
        result = {"exit": rc, "stderr": err}
        result.update(self._read(out))
        return result


class Workload:
    """Input generation for one workload and one seed.

    ``setup(r)`` does the r-th repetition of input generation and returns its
    untimed ops; ``op(i)`` gives the i-th timed op.  The set-ups warm up on
    the first inputs of the pool, whatever the seed, so that ``setup_s``
    compares like with like.  Timed ops walk the pool in the seed's order;
    ``round`` ops cover every input kind equally often, and a timed phase
    runs whole rounds.
    """

    def __init__(self, name: str, seed: int, pool: str, cli, out_dir: str):
        self.name = name
        self.pool = POOLS[pool]
        self.rng = random.Random(seed)
        self.cli = cli
        self.dir = out_dir
        self.manifest = os.path.join(out_dir, "manifest.txt")
        self.inputs: list = []
        self.order: list = []
        self.taps: list[tuple[int, str]] = []
        self.patterns = TIMELINE_PATTERNS
        if name == "test-go-dark":
            self.round = self.pool["go_dark"][0]
        elif name == "test-fault-free":
            self.round = self.pool["fault_free"][0]
        elif name == "evolve":
            self.round = self.pool["evolve"][0]
        else:
            # the replayed taps hold about the same number of events, but the
            # patterns differ in cost (``#`` prints every event)
            self.round = len(TIMELINE_PATTERNS)

    # -- input generation ----------------------------------------------------

    def go_dark_seeds(self) -> list[int]:
        from masharness.world import load_world_config, seeds_with_light_on_route

        count, first = self.pool["go_dark"]
        config = load_world_config(self.cli.data_path("world.cfg"))
        return seeds_with_light_on_route(config, GO_DARK_LIGHT, count, start_seed=first)

    def setup(self, rep: int) -> list[Op]:
        """Repeat the workload's input generation; returns the untimed ops to run.

        The last op returned is the repetition's warm-up; a timeline set-up
        first writes one of the go-dark taps it replays.
        """
        if self.name in ("test-go-dark", "timeline-replay"):
            self.inputs = self.go_dark_seeds()
        elif self.name == "test-fault-free":
            count, first = self.pool["fault_free"]
            self.inputs = list(range(first, first + count))
        else:
            count, first = self.pool["evolve"]
            self.inputs = list(range(first, first + count))
            self.write_ga_config()
        if self.name == "timeline-replay":
            if rep == 0:
                self.patterns = tuple(self.rng.sample(TIMELINE_PATTERNS, len(TIMELINE_PATTERNS)))
        elif rep == 0 and self.name == "test-fault-free":
            # walk the seeds 1, 2, 3, ... from a seeded start
            start = self.rng.randrange(len(self.inputs))
            self.order = self.inputs[start:] + self.inputs[:start]
        elif rep == 0:
            self.order = self.rng.sample(self.inputs, len(self.inputs))
        warm = self.inputs[rep % len(self.inputs)]
        if self.name == "test-go-dark":
            return [self.test_op(warm, GO_DARK_FAULT, os.path.join(self.dir, "op.tap"))]
        if self.name == "test-fault-free":
            return [self.test_op(warm, None, os.path.join(self.dir, "op.tap"))]
        if self.name == "evolve":
            return [self.evolve_op(warm)]
        slot = rep % TIMELINE_TAPS
        self.taps = self.taps[:slot] + [(warm, os.path.join(self.dir, f"replay-{slot}.tap"))]
        return [self.test_op(warm, GO_DARK_FAULT, self.taps[slot][1]),
                self.timeline_op(*self.taps[slot], TIMELINE_PATTERNS[rep % len(TIMELINE_PATTERNS)])]

    def write_ga_config(self) -> None:
        with open(self.cli.data_path("ga.cfg"), encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        lines = [
            f"generations={EVOLVE_GENERATIONS}" if ln.startswith("generations=") else ln
            for ln in lines
        ]
        self.ga_config = os.path.join(self.dir, "ga.cfg")
        with open(self.ga_config, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        values = dict(ln.split("=", 1) for ln in lines if "=" in ln and not ln.startswith("#"))
        pop, elite = int(values["populationSize"]), int(values["elitism"])
        # every genome of generation 1, the offspring of each later one, one final re-run
        self.genomes_per_op = pop + (EVOLVE_GENERATIONS - 1) * (pop - elite) + 1

    # -- ops ---------------------------------------------------------------------

    def op(self, i: int) -> Op:
        if self.name == "test-go-dark":
            seed = self.order[i % len(self.order)]
            return self.test_op(seed, GO_DARK_FAULT, os.path.join(self.dir, "op.tap"))
        if self.name == "test-fault-free":
            seed = self.order[i % len(self.order)]
            return self.test_op(seed, None, os.path.join(self.dir, "op.tap"))
        if self.name == "evolve":
            return self.evolve_op(self.order[i % len(self.order)])
        # taps cycle over 3, patterns over 4: every 12 ops cover each pair once
        return self.timeline_op(*self.taps[i % len(self.taps)],
                                self.patterns[i % len(self.patterns)])

    def test_op(self, seed: int, fault: str | None, tap: str) -> Op:
        argv = ["test"]
        kind = "test-fault-free"
        if fault:
            argv += ["--fault", fault]
            kind = "test-go-dark"
        argv += ["--seed", str(seed), "--tap", tap, "--manifest", self.manifest]

        def read(out: str) -> dict:
            lines = out.splitlines()
            return {
                "verdicts": [ln for ln in lines if ln.startswith("VERDICT ")],
                "metrics": [ln for ln in lines if _METRIC_LINE.match(ln)],
                "tap_sha256": sha256_file(tap),
                "events": count_lines(tap),
            }

        return Op(f"{kind}:seed={seed}", argv, 1, read)

    def evolve_op(self, ga_seed: int) -> Op:
        genome = os.path.join(self.dir, "genome.txt")
        argv = ["evolve", "--ga-config", self.ga_config, "--seed", str(ga_seed),
                "--genome", genome, "--manifest", self.manifest]

        def read(out: str) -> dict:
            return {
                "metrics": [ln for ln in out.splitlines() if _METRIC_LINE.match(ln)],
                "genome_sha256": sha256_file(genome),
                "history_sha256": sha256_file(genome + ".history"),
            }

        key = f"evolve:gaseed={ga_seed},generations={EVOLVE_GENERATIONS}"
        return Op(key, argv, self.genomes_per_op, read)

    def timeline_op(self, tap_seed: int, tap: str, pattern: str) -> Op:
        argv = ["timeline", pattern, "--tap", tap, "--manifest", self.manifest]

        def read(out: str) -> dict:
            return {
                "stdout_sha256": hashlib.sha256(out.encode("utf-8")).hexdigest(),
                "lines": out.count("\n"),
                # every line of the tap is parsed, whatever the pattern
                "events": count_lines(tap),
            }

        # one replayed tap is one genome's logged episode
        return Op(f"timeline-replay:tapseed={tap_seed},pattern={pattern}", argv, 1, read)
