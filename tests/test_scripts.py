"""The dev scripts under scripts/ import and run against the library as it is."""

import importlib.util
import tempfile
from dataclasses import replace
from pathlib import Path

from masharness.cli import data_path
from masharness.neural import load_genome
from masharness.testkit import load_test_plan
from masharness.world import load_world_config, seeds_with_light_on_route

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name: str):
    """Import ``scripts/<name>.py`` as a module; its ``__main__`` guard keeps it from running."""
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_shipped_demo_genome_passes_the_training_script_s_validation():
    train = load_script("train_demo_genome")
    base = load_world_config(data_path("world.cfg"))
    seeds = seeds_with_light_on_route(base, "node10", 5)
    topology, genes = load_genome(data_path("demo_genome.txt"))
    cases = load_test_plan(data_path("default_plan.txt"))
    # the script pins the shipped world's seed to the first route-critical one
    assert base.rngSeed == seeds[0]
    assert train.validate(genes, topology, replace(base, rngSeed=seeds[0]), cases, seeds) is None


def test_the_training_script_s_closing_check_passes_and_leaves_no_files(
        tmp_path, monkeypatch, capsys):
    train = load_script("train_demo_genome")
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    outputs, cli_main = [], train.cli_main

    def recording(argv):
        outputs.extend(Path(argv[i + 1]) for i, arg in enumerate(argv) if arg.startswith("--"))
        return cli_main(argv)

    monkeypatch.setattr(train, "cli_main", recording)
    assert train.check_with_cli() == 0
    capsys.readouterr()
    # the manifest and tap were written under the temporary directory, which is gone
    assert len(outputs) == 2 and all(path.parent.parent == tmp_path for path in outputs)
    assert list(tmp_path.iterdir()) == []
