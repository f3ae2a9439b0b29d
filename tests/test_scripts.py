"""The dev scripts under scripts/ import and run against the library as it is."""

import importlib.util
import sys
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


BRANCHY = '''\
def f(x):
    if x:
        x += 1
    for i in x:
        pass
    while (x and
           x > 1):
        x -= 1
    try:
        y = 1
    except (ValueError,
            TypeError):
        y = 2
    if x: y = 3
    if y:
        y += 1
'''


def test_the_branch_report_names_each_one_sided_branch():
    one_sided = load_script("branch_arcs").one_sided
    # if at 2 only true, for at 4 never entered, the except at 11 never taken,
    # and the one-line if at 14 is not seen
    arcs = {(-1, 2), (2, 3), (3, 4), (4, 6), (6, 8), (8, 6), (7, 9), (9, 10), (10, 14),
            (14, 15), (15, 16), (15, -1), (16, -1)}
    assert one_sided(BRANCHY, arcs) == [
        (2, "if never false"), (4, "for never entered"), (11, "except never taken")]
    # a header's arcs count from every line of it, and leaving the function is a way past
    both = arcs | {(2, 4), (4, 5), (5, 4), (11, 13)}
    assert one_sided(BRANCHY, both) == []
    # leaving another scope is not a way past the if at 15
    assert one_sided(BRANCHY, both - {(15, -1)} | {(15, -7)}) == [(15, "if never false")]
    assert one_sided(BRANCHY, both - {(6, 8), (8, 6)}) == [(6, "while never true")]


def test_the_branch_report_judges_a_file_on_the_source_it_traced(tmp_path):
    branch_arcs = load_script("branch_arcs")
    branch_arcs._PREFIX = f"{tmp_path}/"
    path = tmp_path / "branchy.py"
    path.write_text(BRANCHY, encoding="utf-8")
    namespace = {}
    exec(compile(BRANCHY, str(path), "exec"), namespace)
    previous = sys.gettrace()
    sys.settrace(branch_arcs._trace)
    try:
        namespace["f"]([])
    finally:
        sys.settrace(previous)
    # two lines put above the code while the run goes on move none of its findings
    path.write_text("# one\n# two\n" + BRANCHY, encoding="utf-8")
    assert branch_arcs.report(tmp_path) == [
        "branchy.py:2: if never true", "branchy.py:4: for never entered",
        "branchy.py:6: while never true", "branchy.py:11: except never taken",
        "branchy.py:15: if never false"]
