"""The benchmark's span tracer still finds every name it wraps.

``perfbench/tracer.py`` replaces functions and methods of the package by
name.  Renaming one of them breaks the traced benchmark run; this test
breaks first, and checks that a traced run writes the same tap bytes.
"""

import hashlib
import importlib.util
from pathlib import Path

import masharness
from masharness import world
from masharness.cli import main
from test_cli import GOLDEN_TAPS

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_run_writes_the_golden_tap(tmp_path, capsys):
    flags, digest, _ = GOLDEN_TAPS[0]
    assert flags == ["--seed", "2"]
    sense, publish = world.sense, world.WorldState.publish
    tracer = load_tracer().Tracer(masharness)
    tap = tmp_path / "tap.log"
    tracer.install()
    try:
        assert world.sense is not sense
        code = main(["test", *flags, "--tap", str(tap), "--manifest", str(tmp_path / "m.txt")])
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert code == 0
    assert (world.sense, world.WorldState.publish) == (sense, publish)
    assert hashlib.sha256(tap.read_bytes()).hexdigest() == digest
    names = set(tracer.names)
    assert {"world.sense", "world.actuate", "world.publish", "broker.publish"} <= names


def test_traced_evolve_counts_world_ticks(tmp_path, capsys):
    ga = tmp_path / "ga.cfg"
    ga.write_text("populationSize=6\ngenerations=2\nelitism=1\n")
    genomes = []
    module = load_tracer()
    tracer = module.Tracer(masharness)
    for traced in (False, True):
        genome = tmp_path / f"genome-{traced}.txt"
        argv = ["evolve", "--ga-config", str(ga), "--seed", "3", "--genome", str(genome),
                "--manifest", str(tmp_path / "m.txt")]
        if traced:
            tracer.op = 0
            tracer.install()
        try:
            assert main(argv) == 0
        finally:
            tracer.uninstall()
        genomes.append(genome.read_bytes())
    capsys.readouterr()
    assert genomes[0] == genomes[1]
    ticks, _ = module.layer_metrics(tracer, 1)["world.ticks"]
    # each generation's batch and the winner's re-run step the world tick by tick
    assert ticks >= 3
    assert "world.step_world" in tracer.names
