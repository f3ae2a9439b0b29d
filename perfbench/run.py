#!/usr/bin/env python3
"""masharness benchmark: one workload, one seed, one run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload test-go-dark --seed 1 --seconds 25 --trace 0

Closed loop, one client: an op is one in-process ``masharness.cli.main``
call, and the next op starts when the previous one returns.  The run
imports the program from ``src/``, repeats its set-up (input generation
plus one untimed warm-up op, after a cold import of the program in a fresh
interpreter) ``SETUPS`` times, then runs whole rounds of ops for about
``--seconds`` seconds.  Every op's outputs are compared with ``refs.json``.

Times are scaled to a fixed host speed.  The shared host's speed drifts,
by up to a factor of two within seconds and for minutes at a time, for the
program and for any other code alike.  A child process (``speedprobe.py``)
times a short fixed pure-Python pass every 20 ms for the whole run, on the
same CPU as the program; each op's (and each set-up's) wall time is
multiplied by the probe's mean speed during it: the pass's nominal time
(``PASS_NOMINAL_S``) over its measured time.  The wall-clock figures are
printed next to the scaled ones.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs half the
time untraced and half with the span tracer installed, both halves on the
same inputs in the same order, and prints the per-layer metrics plus
``trace.overhead`` (traced / untraced op_s.p50).
The last stdout line is the JSON result; the lines before it repeat every
metric by name and unit, with ``op_s.p90`` (when a run holds >= 100 ops),
``error_rate`` and the run record.  Scratch files go to ``perfbench/out/``.
"""

from __future__ import annotations

import sys

# the benchmark writes nothing outside perfbench/out, bytecode caches included
sys.dont_write_bytecode = True

import argparse  # noqa: E402
import bisect  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

from workloads import SETUPS, WORKLOADS, PublishCounter, Workload, run_cli  # noqa: E402

perf = time.perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
REFS = os.path.join(HERE, "refs.json")

#: an op percentile needs at least ten samples beyond it
P90_MIN_OPS = 100

#: nominal time of one ``speedprobe`` pass, the host speed every time is scaled to
#: (a round figure between the pass's times on the baseline host when fast and slow)
PASS_NOMINAL_S = 0.0008
#: probe passes this close to an op also count for it, so short ops get several
PROBE_MARGIN_S = 0.05


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True, help="orders the workload's input pool")
    p.add_argument("--seconds", type=float, required=True, help="timed length of the run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: per-layer metrics from a traced run")
    p.add_argument("--held-out", action="store_true",
                   help="draw inputs from the held-out pool instead of the main one")
    return p.parse_args(argv)


def import_program():
    """Import masharness from this checkout's src/; returns (package, cli, seconds)."""
    if not os.path.isfile(os.path.join(SRC, "masharness", "cli.py")):
        raise SystemExit(f"error: no masharness sources under {SRC}")
    sys.path.insert(0, SRC)
    start = perf()
    import masharness
    import masharness.cli as cli

    seconds = perf() - start
    if not os.path.abspath(masharness.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: imported masharness from {masharness.__file__}, not {SRC}")
    return masharness, cli, seconds


def cold_import_s() -> float:
    """Seconds to import masharness.cli in a fresh interpreter, as each CLI run pays."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); start = time.perf_counter(); "
            "import masharness.cli; print(time.perf_counter() - start)")
    proc = subprocess.run([sys.executable, "-B", "-c", code, SRC], capture_output=True,
                          text=True, timeout=120, check=True)
    return float(proc.stdout)


class SpeedProbe:
    """The ``speedprobe.py`` child, and the host speed it saw over the run."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, "-B", os.path.join(HERE, "speedprobe.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        self.starts: list[float] = []
        self.times: list[float] = []

    def stop(self) -> None:
        """End the child and collect its passes; kills it if it does not answer."""
        try:
            out, _ = self.proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            raise
        passes = json.loads(out)
        self.starts = [start for start, _ in passes]
        self.times = [end - start for start, end in passes]

    def scale(self, start: float, seconds: float) -> float:
        """Factor that turns wall time measured from ``start`` into nominal-speed time.

        It is the probe's mean speed (nominal / measured pass time) over the
        window.  Passes come at even intervals, so an op that runs half its
        time on a host at half speed gets a factor of 0.75, as its own time
        would show.
        """
        lo = bisect.bisect_left(self.starts, start - PROBE_MARGIN_S)
        hi = bisect.bisect_right(self.starts, start + seconds + PROBE_MARGIN_S)
        return statistics.fmean(PASS_NOMINAL_S / t for t in self.times[lo:hi] or self.times)


def git_rev() -> str | None:
    """HEAD commit read from .git without running git; None outside a clone."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def src_sha256() -> str:
    """Digest of the program's sources and data, which identifies the code run."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "masharness")
    for dirpath, dirnames, filenames in os.walk(pkg):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, SRC).encode())
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


class Checker:
    """Runs ops and compares their outputs with the recorded references."""

    def __init__(self, cli, refs: dict, publishes: PublishCounter | None):
        self.cli = cli
        self.refs = refs
        self.publishes = publishes
        self.attempted = 0
        self.failed = 0
        self.mismatches: list[str] = []

    def run(self, op) -> tuple[float, float, int]:
        """Run one op; returns (start, wall seconds, events it published or parsed)."""
        # each op starts from a collected heap, as a fresh CLI process would
        gc.collect()
        published = self.publishes.count if self.publishes else 0
        start = perf()
        wall, rc, out, err = run_cli(self.cli, op.argv)
        outputs = op.outputs(rc, out, err)
        # test and timeline ops count their tap's lines; evolve counts its publishes
        events = outputs.get("events", self.publishes.count - published if self.publishes else 0)
        ref = self.refs.get(op.key)
        self.attempted += 1
        if ref is None:
            self.failed += 1
            self.mismatches.append(f"{op.key}: no reference")
        elif outputs != ref:
            self.failed += 1
            fields = sorted(k for k in ref if outputs.get(k) != ref[k])
            self.mismatches.append(f"{op.key}: differs in {', '.join(fields)}")
        return start, wall, events


class Sample:
    """One timed op or set-up: its wall time and, once the probe stopped, its scale."""

    __slots__ = ("start", "wall", "events", "genomes", "scale")

    def __init__(self, start: float, wall: float, events: int = 0, genomes: int = 0):
        self.start = start
        self.wall = wall
        self.events = events
        self.genomes = genomes
        self.scale = 1.0


def timed_phase(workload, checker, seconds: float, on_op=None) -> list[Sample]:
    """Run whole rounds of ops from op 0 back to back; returns the samples.

    A round covers each kind of the workload's inputs equally often, so every
    run holds them in the same proportion.  The phase runs at least one round
    and stops at the round boundary nearest to ``seconds``.
    """
    samples = []
    begin = perf()
    i = 0
    while True:
        op = workload.op(i)
        if on_op is not None:
            on_op(i)
        samples.append(Sample(*checker.run(op), op.genomes))
        i += 1
        if i % workload.round == 0:
            elapsed = perf() - begin
            if elapsed + elapsed / (i // workload.round) / 2 >= seconds:
                return samples


def times(samples: list[Sample], scaled: bool = True) -> list[float]:
    return [s.wall * s.scale if scaled else s.wall for s in samples]


def p50(samples: list[Sample], scaled: bool = True) -> float:
    return statistics.median(times(samples, scaled))


def end_to_end(samples, setups, scaled: bool = True) -> dict[str, tuple[float, str]]:
    wall = sum(times(samples, scaled))
    return {
        "setup_s": (p50(setups, scaled), "s"),
        "op_s.p50": (p50(samples, scaled), "s"),
        "events_per_s": (sum(s.events for s in samples) / wall, "events/s"),
        "genomes_per_s": (sum(s.genomes for s in samples) / wall, "genomes/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    # the probe must time the CPU the program runs on, so the run and every
    # process it starts stay on one CPU
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    record = {"loadavg_before": list(os.getloadavg())}
    package, cli, import_s = import_program()
    with open(REFS, encoding="utf-8") as fh:
        refs = json.load(fh)["refs"]
    out_dir = os.path.join(OUT, args.workload)
    os.makedirs(out_dir, exist_ok=True)

    workload = Workload(args.workload, args.seed, "held-out" if args.held_out else "main",
                        cli, out_dir)
    publishes = None
    if args.workload == "evolve":
        publishes = PublishCounter(package.broker.Broker)
        publishes.install()
    checker = Checker(cli, refs, publishes)
    probe = SpeedProbe()
    tracer = None
    try:
        setups = []
        for rep in range(SETUPS[args.workload]):
            start = perf()
            imported = cold_import_s()
            in_process = perf()
            for op in workload.setup(rep):
                checker.run(op)
            setups.append(Sample(start, imported + perf() - in_process))
        if not args.trace:
            untraced = timed_phase(workload, checker, args.seconds)
            traced = []
        else:
            from tracer import Tracer, layer_metrics

            untraced = timed_phase(workload, checker, args.seconds / 2)
            tracer = Tracer(package)
            tracer.install()
            try:
                traced = timed_phase(workload, checker, args.seconds / 2,
                                     on_op=lambda n: setattr(tracer, "op", n))
            finally:
                tracer.uninstall()
    finally:
        probe.stop()
    samples = untraced + traced
    for sample in setups + samples:
        sample.scale = probe.scale(sample.start, sample.wall)

    extra = {}
    if not args.trace:
        metrics = end_to_end(samples, setups)
        if len(samples) >= P90_MIN_OPS:
            p90 = statistics.quantiles(times(samples), n=10)[8]
            extra["op_s.p90"] = (p90, f"s (n={len(samples)})")
        for name, (value, unit) in end_to_end(samples, setups, scaled=False).items():
            if unit != "MB":
                extra[f"{name}.wall"] = (value, f"{unit} (wall clock)")
    else:
        metrics = layer_metrics(tracer, len(traced))
        metrics["trace.overhead"] = (p50(traced) / p50(untraced), "ratio")
        tracer.save(os.path.join(OUT, f"spans-{args.workload}.npz"))
        extra["op_s.p50.untraced"] = (p50(untraced), f"s (n={len(untraced)})")
        extra["op_s.p50.traced"] = (p50(traced), f"s (n={len(traced)})")
    extra["host.scale"] = (statistics.median(s.scale for s in samples),
                           "ratio (nominal / measured probe pass)")
    extra["error_rate"] = (checker.failed / checker.attempted, f"ratio (of {checker.attempted} ops)")
    import numpy

    record.update({
        "git_rev": git_rev(),
        "src_sha256": src_sha256(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "loadavg_after": list(os.getloadavg()),
    })
    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    with open(os.path.join(OUT, f"result-{args.workload}-trace{args.trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "held_out": args.held_out,
                   "seconds": args.seconds, "record": record,
                   "import_s": import_s, "setups_s": times(setups, False),
                   "setup_scales": [s.scale for s in setups], "op_walls_s": times(samples, False),
                   "op_scales": [s.scale for s in samples], "op_starts": [s.start for s in samples],
                   "setup_starts": [s.start for s in setups],
                   "probe": [probe.starts, probe.times],
                   "mismatches": checker.mismatches, **result}, fh, indent=1)

    for text in checker.mismatches:
        print(f"mismatch {text}")
    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"{args.workload} {name} {value:.6g} {unit}")
    print("run " + json.dumps(record, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
