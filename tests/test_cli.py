import contextlib
import hashlib
import importlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import threading
import time
import warnings
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import masharness
from masharness import broker as broker_module, cli, evolution, logmodel, world as world_module
from masharness.broker import Broker
from masharness.cli import USAGE_ERROR, data_path, main
from masharness.evolution import (
    MAX_GENERATIONS,
    MAX_HIDDEN,
    MAX_POPULATION,
    evaluate_solution,
    load_ga_config,
)
from masharness.logmodel import BoundedMemo, RoutingKey, load_tap, read_tap
from masharness.neural import NetworkTopology, decode, load_genome, save_genome
from masharness.testkit import MAX_WAIT_TICKS, judge, load_test_plan
from masharness.world import (
    MAX_TICKS,
    TICK_BYTES,
    EpisodeMetrics,
    load_world_config,
    seeds_with_light_on_route,
)
from oracles import oracle_matches

ALWAYS_ON_GENES = [0.0] * 24 + [5.0, 0.0]


def small_world(tmp_path, **overrides):
    values = dict(
        gridWidth=3, gridHeight=3, wirelessRange=1, numPeople=2, maxTicks=15,
        ambientLight=0.05, lightBrightness=0.8, darkThreshold=0.15,
        rngSeed=4,
    )
    values.update(overrides)
    path = tmp_path / "world.cfg"
    path.write_text("".join(f"{k}={v}\n" for k, v in values.items()))
    return str(path)


def always_on_genome(tmp_path):
    path = tmp_path / "genome.txt"
    save_genome(path, ALWAYS_ON_GENES, NetworkTopology())
    return str(path)


def out_paths(tmp_path):
    return str(tmp_path / "manifest.txt"), str(tmp_path / "tap.log")


def main_warning_free(argv):
    """``main(argv)`` with every warning raised as an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return main(argv)


class TestSimulate:
    def test_packaged_defaults(self, tmp_path, capsys):
        manifest, tap = out_paths(tmp_path)
        code = main(["simulate", "--manifest", manifest, "--tap", tap])
        out = capsys.readouterr().out
        assert code == 0
        assert "pPeople=1.000000" in out
        assert "pTrip=" in out and "pEnergy=" in out
        assert load_tap(tap)
        text = (tmp_path / "manifest.txt").read_text()
        assert text.startswith("command: simulate\n")
        assert "wallclock: " in text

    def test_explicit_world_and_genome(self, tmp_path, capsys):
        manifest, tap = out_paths(tmp_path)
        config = small_world(tmp_path, numPeople=0, maxTicks=6)
        code = main([
            "simulate", "--config", config, "--genome", always_on_genome(tmp_path),
            "--manifest", manifest, "--tap", tap,
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "pEnergy=1.000000" in out  # lamps never turn off
        assert "pPeople=1.000000" in out

    def test_fault_silences_target_lamp(self, tmp_path, capsys):
        manifest, tap = out_paths(tmp_path)
        code = main([
            "simulate", "--fault", "go-dark:node10",
            "--manifest", manifest, "--tap", tap,
        ])
        capsys.readouterr()
        assert code == 0
        events = load_tap(tap)
        on = {e.agentName for e in events if e.action == "switchLightON"}
        detected = {e.agentName for e in events if e.action == "detectLight"}
        assert "node10" in on
        assert "node10" not in detected
        assert detected  # healthy lamps still confirm their own light

    def test_seed_override_lands_in_manifest(self, tmp_path, capsys):
        manifest, tap = out_paths(tmp_path)
        code = main(["simulate", "--seed", "42", "--manifest", manifest, "--tap", tap])
        capsys.readouterr()
        assert code == 0
        assert "seed: 42\n" in (tmp_path / "manifest.txt").read_text()

    @pytest.mark.parametrize("command", ["simulate", "test"])
    def test_empty_asset_names_mean_the_packaged_defaults(self, tmp_path, capsys, command):
        runs = []
        for flags in ([], ["--config", "", "--genome", ""]):
            manifest, tap = str(tmp_path / f"m{len(flags)}.txt"), str(tmp_path / f"t{len(flags)}")
            assert main([command, *flags, "--manifest", manifest, "--tap", tap]) == 0
            lines = Path(manifest).read_text(encoding="utf-8").splitlines()
            runs.append((capsys.readouterr().out, Path(tap).read_bytes(),
                         [ln for ln in lines if not ln.startswith(("tap:", "wallclock:"))]))
        assert runs[0] == runs[1]
        assert f"config: {data_path('world.cfg')}" in runs[0][2]
        assert f"genome: {data_path('demo_genome.txt')}" in runs[0][2]

    def test_repeated_runs_write_identical_taps(self, tmp_path, capsys):
        manifest, _ = out_paths(tmp_path)
        tap_a = str(tmp_path / "a.log")
        tap_b = str(tmp_path / "b.log")
        assert main(["simulate", "--manifest", manifest, "--tap", tap_a]) == 0
        assert main(["simulate", "--manifest", manifest, "--tap", tap_b]) == 0
        capsys.readouterr()
        assert (tmp_path / "a.log").read_bytes() == (tmp_path / "b.log").read_bytes()

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--genome", "/nonexistent/genome.txt"],
            ["simulate", "--config", "/nonexistent/world.cfg"],
            ["simulate", "--fault", "flicker:node1"],
            ["simulate", "--fault", "go-dark:node999"],
        ],
    )
    def test_user_errors_exit_two(self, tmp_path, capsys, argv):
        manifest, tap = out_paths(tmp_path)
        code = main(argv + ["--manifest", manifest, "--tap", tap])
        captured = capsys.readouterr()
        assert code == USAGE_ERROR
        assert captured.err.startswith("error: ")

    @pytest.mark.parametrize("flag", ["--config", "--genome"])
    def test_non_utf8_input_exits_two_naming_the_file(self, tmp_path, capsys, flag):
        bad = tmp_path / "input.txt"
        bad.write_bytes(b"\xff\xfe3 4 2\n")
        manifest, tap = out_paths(tmp_path)
        code = main(["simulate", flag, str(bad), "--manifest", manifest, "--tap", tap])
        err = capsys.readouterr().err
        assert code == USAGE_ERROR
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(bad) in err

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_genome_exits_two(self, tmp_path, capsys, bad):
        genome = tmp_path / "genome.txt"
        genome.write_text("3 4 2\n" + f"{bad}\n" * 26)
        manifest, tap = out_paths(tmp_path)
        code = main(["simulate", "--genome", str(genome), "--manifest", manifest, "--tap", tap])
        captured = capsys.readouterr()
        assert code == USAGE_ERROR
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert captured.out == ""

    @pytest.mark.parametrize("header,genes", [("4 4 2", 30), ("3 4 3", 31)])
    def test_genome_with_a_foreign_shape_exits_two(self, tmp_path, capsys, header, genes):
        genome = tmp_path / "genome.txt"
        genome.write_text(f"{header}\n" + "0.1\n" * genes)
        manifest, tap = out_paths(tmp_path)
        code = main(["simulate", "--genome", str(genome), "--manifest", manifest, "--tap", tap])
        captured = capsys.readouterr()
        assert code == USAGE_ERROR
        assert captured.err == (f"error: genome {genome} declares topology {header.replace(' ', '-')}"
                                ", but a light controller has 3 inputs and 2 outputs\n")
        assert captured.out == ""

    @pytest.mark.parametrize("text,message", [
        ("3 1 2 extra\n" + "0.1\n" * 8, "bad topology header '3 1 2 extra'"),
        ("3 1 2\n" + "0.1\n" * 9, "header promises 8 genes, file has 9"),
        ("3.0 1 2\n" + "0.1\n" * 8, "invalid literal for int() with base 10: '3.0'"),
        ("3 1 2\n0x10\n" + "0.1\n" * 7, "could not convert string to float: '0x10'"),
        ("3 0 2\n" + "0.1\n" * 2, "all layer sizes must be positive"),
        # a size below 1 is named before a foreign shape
        ("0 4 5\n" + "0.1\n" * 2, "all layer sizes must be positive"),
        # the hidden layer has GAConfig's bound, before a gene is read
        ("3 101 2\n" + "0.1\n" * 608, "hiddenCount must be at most 100, got 101"),
    ], ids=["header-fields", "gene-count", "int-header", "hex-gene", "zero-layer",
            "zero-foreign-layer", "hidden-bound"])
    def test_genome_parse_error_names_the_file(self, tmp_path, capsys, text, message):
        genome = tmp_path / "genome.txt"
        genome.write_text(text)
        manifest, tap = out_paths(tmp_path)
        code = main(["simulate", "--genome", str(genome), "--manifest", manifest, "--tap", tap])
        captured = capsys.readouterr()
        assert code == USAGE_ERROR
        assert captured.err == f"error: genome {genome}: {message}\n"
        assert captured.out == ""

    def test_huge_finite_genes_overflow_without_a_warning(self, tmp_path, capsys):
        genome = tmp_path / "genome.txt"
        genome.write_text("3 1 2\n" + "1e308\n" * 8)
        manifest, tap = out_paths(tmp_path)
        code = main_warning_free(["simulate", "--genome", str(genome),
                                  "--manifest", manifest, "--tap", tap])
        assert code == 0
        assert capsys.readouterr().err == ""

    def test_oversized_grid_exits_two_quickly(self, tmp_path, capsys):
        config = small_world(tmp_path, gridWidth=100000, gridHeight=100000)
        manifest, tap = out_paths(tmp_path)
        start = time.perf_counter()
        code = main(["simulate", "--config", config, "--manifest", manifest, "--tap", tap])
        elapsed = time.perf_counter() - start
        err = capsys.readouterr().err
        assert code == USAGE_ERROR
        assert err.startswith("error: ") and "lights" in err
        assert elapsed < 1.0

    def test_wireless_range_spanning_a_large_grid_exits_two(self, tmp_path, capsys):
        config = small_world(tmp_path, gridWidth=40, gridHeight=40, wirelessRange=80)
        manifest, tap = out_paths(tmp_path)
        code = main(["simulate", "--config", config, "--manifest", manifest, "--tap", tap])
        captured = capsys.readouterr()
        assert code == USAGE_ERROR
        assert captured.err == (f"error: config {config}: wirelessRange 80 on grid 40x40 can "
                                "make more than 250000 wireless links\n")
        assert captured.out == ""

    def test_routes_too_long_in_all_exit_two(self, tmp_path, capsys):
        config = small_world(tmp_path, gridWidth=1, gridHeight=2000, numPeople=2000)
        manifest, tap = out_paths(tmp_path)
        code = main(["simulate", "--config", config, "--manifest", manifest, "--tap", tap])
        captured = capsys.readouterr()
        assert code == USAGE_ERROR
        assert captured.err == (f"error: config {config}: numPeople 2000 on grid 1x2000 can "
                                "walk more than 2000000 route nodes\n")
        assert captured.out == ""

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_config_float_exits_two(self, tmp_path, capsys, value):
        manifest, tap = out_paths(tmp_path)
        config = small_world(tmp_path, lightBrightness=value)
        code = main(["simulate", "--config", config, "--manifest", manifest, "--tap", tap])
        err = capsys.readouterr().err
        assert code == USAGE_ERROR
        assert err == (f"error: config {config}: lightBrightness must be a finite number, "
                       f"got {value}\n")

    @pytest.mark.parametrize("command", ["simulate", "test"])
    def test_energy_per_tick_key_is_unknown(self, tmp_path, capsys, command):
        # pEnergy counts on-ticks, so the key had no effect and is gone
        manifest, tap = out_paths(tmp_path)
        config = small_world(tmp_path, energyPerTickOn=1.0)
        code = main([command, "--config", config, "--manifest", manifest, "--tap", tap])
        captured = capsys.readouterr()
        assert code == USAGE_ERROR
        assert captured.err == f"error: config {config} line 10: unknown key 'energyPerTickOn'\n"
        assert captured.out == ""

    def test_bad_config_content_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("gridWidth=not-a-number\n")
        manifest, tap = out_paths(tmp_path)
        code = main(["simulate", "--config", str(bad), "--manifest", manifest, "--tap", tap])
        assert code == USAGE_ERROR
        assert "line 1" in capsys.readouterr().err

    @pytest.mark.parametrize("key,value,error", [
        ("maxTicks", 0, "maxTicks must be positive"),
        ("maxTicks", 10 ** 12, f"maxTicks must be at most {MAX_TICKS}, got 1000000000000"),
        ("numPeople", 10_001, "numPeople must be in [0,10000], got 10001"),
    ])
    def test_range_error_names_the_config_file(self, tmp_path, capsys, key, value, error):
        config = small_world(tmp_path, **{key: value})
        manifest, tap = out_paths(tmp_path)
        code = main(["simulate", "--config", config, "--manifest", manifest, "--tap", tap])
        captured = capsys.readouterr()
        assert code == USAGE_ERROR
        assert (captured.out, captured.err) == ("", f"error: config {config}: {error}\n")


class TestEvolve:
    def ga_file(self, tmp_path, **overrides):
        values = dict(
            populationSize=4, generations=3, elitism=1, tournamentSize=2,
            crossoverRate=0.8, mutationRate=0.05, mutationSigma=0.3,
            weightLimit=5.0, hiddenCount=4, energyTarget=0.70, rngSeed=7,
        )
        values.update(overrides)
        path = tmp_path / "ga.cfg"
        path.write_text("".join(f"{k}={v}\n" for k, v in values.items()))
        return str(path)

    def test_writes_genome_and_history(self, tmp_path, capsys):
        manifest = str(tmp_path / "manifest.txt")
        out_genome = str(tmp_path / "winner.txt")
        code = main([
            "evolve", "--config", small_world(tmp_path), "--ga-config", self.ga_file(tmp_path),
            "--genome", out_genome, "--manifest", manifest,
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "fitness=" in out and "energyTargetMet=" in out
        topology, genes = load_genome(out_genome)
        assert len(genes) == topology.genomeLength
        history = (tmp_path / "winner.txt.history").read_text().splitlines()
        assert len(history) == 3
        best_column = [float(line.split()[1]) for line in history]
        assert best_column == sorted(best_column)
        assert "command: evolve\n" in (tmp_path / "manifest.txt").read_text()

    def test_a_history_path_that_is_a_directory_fails_before_the_ga(
            self, tmp_path, capsys, monkeypatch):
        (tmp_path / "winner.txt.history").mkdir()
        monkeypatch.setattr(evolution, "run_observer", lambda *args: pytest.fail("the GA ran"))
        code = main([
            "evolve", "--config", small_world(tmp_path), "--ga-config", self.ga_file(tmp_path),
            "--genome", str(tmp_path / "winner.txt"), "--manifest", str(tmp_path / "m.txt"),
        ])
        captured = capsys.readouterr()
        assert code == USAGE_ERROR
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "winner.txt.history" in captured.err
        assert not (tmp_path / "winner.txt").exists()

    def test_huge_mutations_overflow_without_a_warning(self, tmp_path, capsys):
        ga = self.ga_file(tmp_path, generations=2, mutationRate=1, mutationSigma=1e308,
                          weightLimit=1e308)
        code = main_warning_free([
            "evolve", "--config", small_world(tmp_path), "--ga-config", ga,
            "--genome", str(tmp_path / "winner.txt"), "--manifest", str(tmp_path / "m.txt"),
        ])
        assert code == 0
        assert capsys.readouterr().err == ""

    def test_seed_override_changes_the_search(self, tmp_path, capsys):
        manifest = str(tmp_path / "manifest.txt")
        config = small_world(tmp_path)
        ga = self.ga_file(tmp_path, generations=1)
        genomes = []
        for seed in ("1", "2"):
            out_genome = str(tmp_path / f"winner{seed}.txt")
            code = main([
                "evolve", "--config", config, "--ga-config", ga,
                "--genome", out_genome, "--seed", seed, "--manifest", manifest,
            ])
            assert code == 0
            genomes.append(load_genome(out_genome)[1])
        capsys.readouterr()
        assert genomes[0] != genomes[1]

    def test_a_fault_is_a_usage_error(self, tmp_path, capsys):
        # the observer's episodes run fault-free, so evolve takes no --fault
        manifest = tmp_path / "m.txt"
        code = main(["evolve", "--fault", "nonsense", "--config", small_world(tmp_path),
                     "--ga-config", self.ga_file(tmp_path), "--genome", str(tmp_path / "g.txt"),
                     "--manifest", str(manifest)])
        assert code == USAGE_ERROR
        assert_one_error_line(capsys)
        assert not manifest.exists()

    def test_bad_ga_config_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "ga.cfg"
        bad.write_text("populationSize=0\n")
        code = main(["evolve", "--ga-config", str(bad),
                     "--manifest", str(tmp_path / "m.txt")])
        assert code == USAGE_ERROR
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("key,value,error", [
        ("populationSize", 0, "populationSize must be in [1,1000], got 0"),
        ("hiddenCount", 101, "hiddenCount must be in [1,100], got 101"),
    ])
    def test_range_error_names_the_ga_config_file(self, tmp_path, capsys, key, value, error):
        ga = self.ga_file(tmp_path, **{key: value})
        code = main(["evolve", "--config", small_world(tmp_path), "--ga-config", ga,
                     "--genome", str(tmp_path / "g.txt"), "--manifest", str(tmp_path / "m.txt")])
        captured = capsys.readouterr()
        assert code == USAGE_ERROR
        assert (captured.out, captured.err) == ("", f"error: config {ga}: {error}\n")

    def test_a_huge_generation_count_exits_two_before_it_runs(self, tmp_path, capsys,
                                                               monkeypatch):
        generations = "9" * 30
        ga = self.ga_file(tmp_path, generations=generations)
        monkeypatch.setattr(evolution, "run_episodes", None)  # would fail if reached
        code = main(["evolve", "--config", small_world(tmp_path), "--ga-config", ga,
                     "--genome", str(tmp_path / "g.txt"), "--manifest", str(tmp_path / "m.txt")])
        captured = capsys.readouterr()
        assert code == USAGE_ERROR
        assert captured.err == (f"error: config {ga}: generations must be in "
                                f"[0,{MAX_GENERATIONS}], got {generations}\n")

    def test_a_huge_tournament_exits_two_before_it_runs(self, tmp_path, capsys, monkeypatch):
        # each parent's tournament would draw 10**10 contenders
        ga = self.ga_file(tmp_path, tournamentSize=10 ** 10)
        monkeypatch.setattr(evolution, "run_episodes", None)  # would fail if reached
        code = main(["evolve", "--config", small_world(tmp_path), "--ga-config", ga,
                     "--genome", str(tmp_path / "g.txt"), "--manifest", str(tmp_path / "m.txt")])
        captured = capsys.readouterr()
        assert code == USAGE_ERROR
        assert captured.err == (f"error: config {ga}: "
                                "tournamentSize must be in [1,1000], got 10000000000\n")

    @pytest.mark.parametrize("name,value", [
        ("mutationSigma", "nan"), ("mutationSigma", "inf"),
        ("weightLimit", "nan"), ("weightLimit", "inf"),
    ])
    def test_non_finite_ga_float_exits_two(self, tmp_path, capsys, name, value):
        ga = self.ga_file(tmp_path, **{name: value})
        code = main(["evolve", "--config", small_world(tmp_path), "--ga-config", ga,
                     "--genome", str(tmp_path / "g.txt"), "--manifest", str(tmp_path / "m.txt")])
        captured = capsys.readouterr()
        assert code == USAGE_ERROR
        assert captured.out == ""
        assert captured.err == f"error: config {ga}: {name} must be a finite number, got {value}\n"

    def test_a_population_past_the_tick_budget_runs_in_chunks_under_it(self, tmp_path,
                                                                        monkeypatch):
        # 1000 genomes on 10,000 lights would gather 1.3 GB a tick as one batch
        config = small_world(tmp_path, gridWidth=100, gridHeight=100)
        ga = self.ga_file(tmp_path, populationSize=1000, hiddenCount=1, generations=1)
        chunks = []

        def run(world, controllers):  # records each batch instead of stepping it
            rows = len(world.live)
            chunks.append(rows * world_module._row_bytes(world.config, controllers))
            return [EpisodeMetrics(pPeople=1.0, pTrip=0.0, pEnergy=0.0)] * rows

        monkeypatch.setattr(world_module, "_run", run)
        code = main(["evolve", "--config", config, "--ga-config", ga,
                     "--genome", str(tmp_path / "g.txt"), "--manifest", str(tmp_path / "m.txt")])
        assert code == 0
        assert len(chunks) > 10  # the population's chunks, then the winner's episode
        assert max(chunks) <= TICK_BYTES

    def test_the_largest_population_on_the_shipped_grid_is_one_chunk(self):
        world = load_world_config(data_path("world.cfg"))
        ga = load_ga_config(data_path("ga.cfg"))
        topology = NetworkTopology(hiddenCount=MAX_HIDDEN)
        row = world_module._row_bytes(world, [decode([0.0] * topology.genomeLength, topology)])
        assert MAX_POPULATION * row <= TICK_BYTES
        assert ga.populationSize <= MAX_POPULATION and ga.hiddenCount <= MAX_HIDDEN

    def test_non_utf8_ga_config_exits_two_naming_the_file(self, tmp_path, capsys):
        bad = tmp_path / "ga.cfg"
        bad.write_bytes(b"\xff\xfepopulationSize=4\n")
        code = main(["evolve", "--ga-config", str(bad),
                     "--manifest", str(tmp_path / "m.txt")])
        err = capsys.readouterr().err
        assert code == USAGE_ERROR
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(bad) in err


class TestTest:
    def test_default_plan_passes_with_packaged_genome(self, tmp_path, capsys):
        manifest, tap = out_paths(tmp_path)
        code = main(["test", "--manifest", manifest, "--tap", tap])
        out = capsys.readouterr().out
        assert code == 0
        verdicts = [line for line in out.splitlines() if line.startswith("VERDICT ")]
        assert len(verdicts) == 7
        assert all(line.split()[2] == "PASS" for line in verdicts)
        assert "episode fitness=" in out
        assert "peopleTargetMet=True" in out
        manifest_text = (tmp_path / "manifest.txt").read_text()
        assert "verdicts: " in manifest_text and "FAIL" not in manifest_text

    def test_go_dark_fault_fails_the_expected_machines(self, tmp_path, capsys):
        config = load_world_config(data_path("world.cfg"))
        seed = seeds_with_light_on_route(config, "node10", 1)[0]
        manifest, tap = out_paths(tmp_path)
        code = main([
            "test", "--fault", "go-dark:node10", "--seed", str(seed),
            "--manifest", manifest, "--tap", tap,
        ])
        out = capsys.readouterr().out
        assert code == 1
        lines = {line.split()[1]: line for line in out.splitlines()
                 if line.startswith("VERDICT ")}
        assert lines["switch-light-on"] == "VERDICT switch-light-on FAIL switchLightON"
        assert lines["evaluate-solution"] == (
            "VERDICT evaluate-solution FAIL achieveEnergyTarget"
        )
        assert lines["collect-data"].endswith("PASS")
        assert "peopleTargetMet=False" in out

    def test_custom_plan_failure_names_the_stalled_state(self, tmp_path, capsys):
        plan = tmp_path / "plan.txt"
        plan.write_text(
            "test never-happens level=local sublevel=scenario\n"
            "expect lightContainer.node1.switchLightON.# within 500ticks\n"
            "expect lightContainer.node1.selfDestruct.# within 3ticks\n"
        )
        manifest, tap = out_paths(tmp_path)
        code = main([
            "test", "--plan", str(plan), "--config", small_world(tmp_path, numPeople=0),
            "--genome", always_on_genome(tmp_path), "--manifest", manifest, "--tap", tap,
        ])
        out = capsys.readouterr().out
        assert code == 1
        assert "VERDICT never-happens FAIL switchLightON" in out
        assert "missing: lightContainer.node1.selfDestruct.#" in out

    def test_real_time_deadline_flag_is_gone(self, tmp_path, capsys):
        manifest, tap = out_paths(tmp_path)
        assert main(["test", "--wallclock", "--manifest", manifest, "--tap", tap]) == USAGE_ERROR
        assert_one_error_line(capsys)
        assert not Path(tap).exists()

    def test_machines_judge_inline_without_threads(self, tmp_path, capsys, monkeypatch):
        def no_threads(thread):
            raise AssertionError(f"thread {thread.name!r} started")

        monkeypatch.setattr(threading.Thread, "start", no_threads)
        manifest, tap = out_paths(tmp_path)
        code = main(["test", "--manifest", manifest, "--tap", tap])
        out = capsys.readouterr().out
        assert code == 0
        assert sum(1 for line in out.splitlines() if line.startswith("VERDICT ")) == 7

    def test_error_log_annotates_every_verdict(self, tmp_path, capsys, monkeypatch):
        def evaluate_after_an_error(config, genes, topology, broker, **kwargs):
            broker.publisher("OBSERVER", "observer01").log(
                "evaluateSolution", "error", sourceUnit="Observer",
                sourceOperation="evaluate", sourceLine=1, resource="simulationResults",
                message="disk full",
            )
            return evaluate_solution(config, genes, topology, broker, **kwargs)

        monkeypatch.setattr(evolution, "evaluate_solution", evaluate_after_an_error)
        manifest, tap = out_paths(tmp_path)
        code = main(["test", "--manifest", manifest, "--tap", tap])
        out = capsys.readouterr().out
        note = ("  note: error log: OBSERVER.observer01.evaluateSolution.error."
                "Observer.evaluate.1.simulationResults disk full")
        reports = out.split("test ")[1:]
        assert code == 0
        assert len(reports) == 7
        assert all(note in report.splitlines() for report in reports)

    def test_non_utf8_plan_exits_two_naming_the_file(self, tmp_path, capsys):
        plan = tmp_path / "plan.txt"
        plan.write_bytes(b"\xff\xfetest broken level=local sublevel=scenario\n")
        code = main(["test", "--plan", str(plan),
                     "--manifest", str(tmp_path / "m.txt")])
        err = capsys.readouterr().err
        assert code == USAGE_ERROR
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(plan) in err

    def test_repeated_test_name_exits_two_naming_the_line(self, tmp_path, capsys):
        plan = tmp_path / "plan.txt"
        plan.write_text("test a level=local sublevel=scenario\nexpect x.#\n"
                        "test a level=local sublevel=scenario\nexpect y.#\n")
        code = main(["test", "--plan", str(plan), "--manifest", str(tmp_path / "m.txt")])
        captured = capsys.readouterr()
        assert code == USAGE_ERROR
        assert captured.err == f"error: plan {plan} line 3: duplicate test name 'a'\n"

    def test_a_test_named_like_the_error_monitor_runs(self, tmp_path, capsys):
        plan = tmp_path / "plan.txt"
        plan.write_text("test error-monitor level=global sublevel=mas\n"
                        "expect OBSERVER.*.calculateFitness.#\n")
        code = main(["test", "--plan", str(plan), "--manifest", str(tmp_path / "m.txt")])
        assert code == 0
        assert "VERDICT error-monitor PASS" in capsys.readouterr().out

    @pytest.mark.parametrize("text", ["", "# only a comment\n\n"], ids=["empty", "comments"])
    def test_plan_without_cases_exits_two_before_the_run(self, tmp_path, capsys, text):
        plan = tmp_path / "plan.txt"
        plan.write_text(text)
        manifest, tap = out_paths(tmp_path)
        code = main(["test", "--plan", str(plan), "--manifest", manifest, "--tap", tap])
        captured = capsys.readouterr()
        assert code == USAGE_ERROR
        assert captured.out == ""
        assert captured.err == f"error: plan {plan} has no test cases\n"
        assert not Path(tap).exists()

    @pytest.mark.parametrize("duration", [
        "\u00b2ticks",
        "9" * 5000 + "ticks",
        "9" * 400 + "ticks",
    ], ids=["superscript", "past-int-digit-limit", "four-hundred-digits"])
    def test_bad_plan_duration_exits_two_at_its_line(self, tmp_path, capsys, duration):
        plan = tmp_path / "plan.txt"
        plan.write_text(f"test t level=local sublevel=scenario\nexpect a.# within {duration}\n")
        manifest, tap = out_paths(tmp_path)
        code = main(["test", "--plan", str(plan), "--manifest", manifest, "--tap", tap])
        captured = capsys.readouterr()
        assert code == USAGE_ERROR
        assert captured.out == ""
        assert captured.err.startswith(f"error: plan {plan} line 2: ")
        assert captured.err.count("\n") == 1
        assert not Path(tap).exists()

    def test_plan_parse_error_exits_two(self, tmp_path, capsys):
        plan = tmp_path / "plan.txt"
        plan.write_text("test broken level=local sublevel=scenario\nexpect\n")
        code = main(["test", "--plan", str(plan),
                     "--manifest", str(tmp_path / "m.txt")])
        assert code == USAGE_ERROR
        assert "line 2" in capsys.readouterr().err


def manifest_stats(path):
    """A manifest's ``stats.`` entries by name, checked to be its last lines before ``wallclock:``."""
    lines = Path(path).read_text().splitlines()
    assert lines[-1].startswith("wallclock: ")
    entries = [line.split(": ") for line in lines[:-1]]
    names = [name for name, _ in entries]
    stats = [i for i, name in enumerate(names) if name.startswith("stats.")]
    assert stats == list(range(len(names) - len(stats), len(names)))
    return {name[len("stats."):]: int(value) for name, value in entries[stats[0]:]}


def manifest_ticks(path):
    """A manifest's (ticks stepped, ticks replayed)."""
    stats = manifest_stats(path)
    return stats["ticks_stepped"], stats["ticks_replayed"]


class TestManifestTicks:
    def test_a_go_dark_run_replays_most_of_its_ticks(self, tmp_path, capsys):
        manifest, tap = out_paths(tmp_path)
        code = main(["test", "--fault", "go-dark:node10", "--seed", "2",
                     "--manifest", manifest, "--tap", tap])
        assert code == 1
        stepped, replayed = manifest_ticks(manifest)
        assert replayed >= 180
        assert stepped + replayed == 200

    @pytest.mark.parametrize("command", ["test", "simulate"])
    def test_a_fault_free_run_replays_no_tick(self, tmp_path, capsys, command):
        manifest, tap = out_paths(tmp_path)
        assert main([command, "--seed", "1", "--manifest", manifest, "--tap", tap]) == 0
        stepped, replayed = manifest_ticks(manifest)
        assert replayed == 0 < stepped

    @pytest.mark.parametrize("command", ["test", "simulate"])
    def test_two_identical_runs_manifests_differ_only_in_wallclock(self, tmp_path, capsys,
                                                                    command):
        manifest, tap = out_paths(tmp_path)
        texts = []
        for _ in range(2):
            main([command, "--fault", "go-dark:node10", "--seed", "3",
                  "--manifest", manifest, "--tap", tap])
            texts.append(Path(manifest).read_text().splitlines())
        assert texts[0][:-1] == texts[1][:-1]
        assert texts[0][-1].startswith("wallclock: ") and texts[1][-1].startswith("wallclock: ")
        assert manifest_ticks(manifest)[1] > 0


class TestManifestEventCounts:
    """``stats.events_published`` and ``stats.events_delivered`` end every
    test, simulate and evolve manifest, read from the closed broker."""

    def test_a_default_test_run_counts_every_tap_line(self, tmp_path, capsys):
        manifest, tap = out_paths(tmp_path)
        assert main(["test", "--manifest", manifest, "--tap", tap]) == 0
        stats = manifest_stats(manifest)
        assert list(stats)[-2:] == ["events_published", "events_delivered"]
        lines = Path(tap).read_bytes().count(b"\n")
        assert stats["events_published"] == lines == 1961
        # each machine and the error monitor get only the events they judge
        assert 0 < stats["events_delivered"] < lines

    def test_a_simulate_run_delivers_nothing(self, tmp_path, capsys):
        manifest, tap = out_paths(tmp_path)
        assert main(["simulate", "--seed", "1", "--manifest", manifest, "--tap", tap]) == 0
        stats = manifest_stats(manifest)
        assert stats["events_published"] == Path(tap).read_bytes().count(b"\n") > 0
        assert stats["events_delivered"] == 0

    def test_two_identical_evolve_runs_manifests_differ_only_in_wallclock(self, tmp_path,
                                                                         capsys):
        manifest, tap = out_paths(tmp_path)
        argv = ["evolve", "--config", small_world(tmp_path),
                "--ga-config", TestEvolve().ga_file(tmp_path, generations=1),
                "--genome", str(tmp_path / "g.txt"), "--manifest", manifest, "--tap", tap]
        texts = []
        for _ in range(2):
            assert main(argv) == 0
            texts.append(Path(manifest).read_text().splitlines())
        assert texts[0][:-1] == texts[1][:-1]
        stats = manifest_stats(manifest)
        assert list(stats) == ["events_published", "events_delivered"]
        assert stats["events_published"] == Path(tap).read_bytes().count(b"\n") > 0


class TestTimeline:
    def make_tap(self, tmp_path, capsys):
        manifest, tap = out_paths(tmp_path)
        config = small_world(tmp_path, numPeople=0, maxTicks=4)
        assert main([
            "simulate", "--config", config, "--genome", always_on_genome(tmp_path),
            "--manifest", manifest, "--tap", tap,
        ]) == 0
        capsys.readouterr()
        return manifest, tap

    def test_hash_pattern_prints_everything_in_time_order(self, tmp_path, capsys):
        manifest, tap = self.make_tap(tmp_path, capsys)
        code = main(["timeline", "#", "--tap", tap, "--manifest", manifest])
        out = capsys.readouterr().out
        lines = [line for line in out.splitlines() if line]
        assert code == 0
        assert len(lines) == len(load_tap(tap))
        stamps = [int(line.split("\t")[0]) for line in lines]
        assert stamps == sorted(stamps)
        assert all(len(line.split("\t")) == 3 for line in lines)

    def test_pattern_filters_by_agent(self, tmp_path, capsys):
        manifest, tap = self.make_tap(tmp_path, capsys)
        code = main(["timeline", "lightContainer.node1.#", "--tap", tap,
                     "--manifest", manifest])
        out = capsys.readouterr().out
        lines = [line for line in out.splitlines() if line]
        assert code == 0
        assert lines
        assert all(line.split("\t")[1].startswith("lightContainer.node1.") for line in lines)

    def test_quiet_patterns_match_nothing(self, tmp_path, capsys):
        manifest, tap = self.make_tap(tmp_path, capsys)
        for pattern in ("OBSERVER.#", "*.*.*.error.#"):
            code = main(["timeline", pattern, "--tap", tap, "--manifest", manifest])
            assert code == 0
            assert capsys.readouterr().out == ""
        assert "events: 0" in (tmp_path / "manifest.txt").read_text()

    def test_missing_tap_exits_two(self, tmp_path, capsys):
        code = main(["timeline", "#", "--tap", str(tmp_path / "nope.log"),
                     "--manifest", str(tmp_path / "m.txt")])
        assert code == USAGE_ERROR
        assert capsys.readouterr().err.startswith("error: ")

    def test_malformed_pattern_exits_two(self, tmp_path, capsys):
        manifest, tap = self.make_tap(tmp_path, capsys)
        code = main(["timeline", "a..b", "--tap", tap, "--manifest", manifest])
        assert code == USAGE_ERROR
        assert capsys.readouterr().err.startswith("error: ")

    def test_malformed_pattern_on_an_empty_tap_exits_two(self, tmp_path, capsys):
        tap = tmp_path / "empty.log"
        tap.write_text("")
        code = main(["timeline", "a..b", "--tap", str(tap),
                     "--manifest", str(tmp_path / "m.txt")])
        assert code == USAGE_ERROR
        assert capsys.readouterr().err.startswith("error: ")

    def test_malformed_tap_line_exits_two_naming_the_file_and_line(self, tmp_path, capsys):
        manifest, tap = self.make_tap(tmp_path, capsys)
        good = len(Path(tap).read_text().splitlines())
        with open(tap, "a") as fh:
            fh.write("\nlightContainer.node1.x.info.U.op.1.r\tnotanint\tmsg\n")
        code = main(["timeline", "#", "--tap", tap, "--manifest", manifest])
        captured = capsys.readouterr()
        assert code == USAGE_ERROR
        assert captured.out == ""
        assert captured.err == f"error: tap {tap} line {good + 2}: bad timestamp 'notanint'\n"

    @pytest.mark.parametrize("line,error", [
        ("a.b.c.info.U.op.-1.r\t5\tm", "bad sourceLine segment '-1'"),
        ("a.b.c.info.U.op.+3.r\t5\tm", "bad sourceLine segment '+3'"),
        ("a.b.c.info.U.op.1.r\t+5\tm", "bad timestamp '+5'"),
        ("a.b.c.info.U.op.1.r\t 7 \tm", "bad timestamp ' 7 '"),
        ("a.b.c.info.U.op.1.r\t1_000\tm", "bad timestamp '1_000'"),
    ])
    def test_signed_spaced_or_grouped_numbers_exit_two(self, tmp_path, capsys, line, error):
        manifest, tap = self.make_tap(tmp_path, capsys)
        good = len(Path(tap).read_text().splitlines())
        with open(tap, "a") as fh:
            fh.write(line + "\n")
        code = main(["timeline", "#", "--tap", tap, "--manifest", manifest])
        captured = capsys.readouterr()
        assert code == USAGE_ERROR
        assert captured.out == ""
        assert captured.err == f"error: tap {tap} line {good + 1}: {error}\n"

    def test_non_utf8_tap_exits_two_naming_the_file(self, tmp_path, capsys):
        manifest, tap = self.make_tap(tmp_path, capsys)
        with open(tap, "ab") as fh:
            fh.write(b"\xff\xfe\n")
        code = main(["timeline", "#", "--tap", tap, "--manifest", manifest])
        captured = capsys.readouterr()
        assert code == USAGE_ERROR
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert tap in captured.err


class TestTimelineErrors:
    def test_a_timestamp_past_the_int_digit_limit_exits_two(self, tmp_path, capsys):
        manifest, tap = out_paths(tmp_path)
        Path(tap).write_text("a.b.c.info.U.op.1.r\t4\tm\n"
                             "a.b.c.info.U.op.1.r\t" + "7" * 5000 + "\tm\n")
        code = main(["timeline", "#", "--tap", tap, "--manifest", manifest])
        captured = capsys.readouterr()
        assert code == USAGE_ERROR
        assert captured.out == ""
        assert captured.err == f"error: tap {tap} line 2: bad timestamp of 5000 digits\n"

    def test_a_timestamp_of_2_to_the_63_exits_two(self, tmp_path, capsys):
        manifest, tap = out_paths(tmp_path)
        Path(tap).write_text(f"a.b.c.info.U.op.1.r\t{2 ** 63 - 1}\tm\n"
                             f"a.b.c.info.U.op.1.r\t{2 ** 63}\tm\n")
        code = main(["timeline", "#", "--tap", tap, "--manifest", manifest])
        captured = capsys.readouterr()
        assert code == USAGE_ERROR
        assert captured.out == ""
        assert captured.err == (f"error: tap {tap} line 2: bad timestamp of 19 digits, "
                                "not below 2**63\n")


class TestUnwritableManifest:
    """A manifest that cannot be written fails the run before it prints or writes."""

    @staticmethod
    def argv(tmp_path, command, tap, genome):
        return {
            "simulate": ["simulate", "--config", small_world(tmp_path), "--tap", str(tap)],
            "evolve": ["evolve", "--config", small_world(tmp_path), "--ga-config",
                       TestEvolve().ga_file(tmp_path), "--genome", str(genome),
                       "--tap", str(tap)],
            "test": ["test", "--config", small_world(tmp_path), "--tap", str(tap)],
            "timeline": ["timeline", "#", "--tap", str(tap)],
        }[command]

    @pytest.mark.parametrize("command", ["simulate", "evolve", "test", "timeline"])
    def test_exits_two_before_any_output(self, tmp_path, capsys, command):
        manifest = tmp_path / "manifest-dir"
        manifest.mkdir()
        tap, genome = tmp_path / "tap.log", tmp_path / "winner.txt"
        argv = self.argv(tmp_path, command, tap, genome)
        if command == "timeline":
            tap.write_text("a.b.c.info.U.op.1.r\t4\tm\n")
        code = main([*argv, "--manifest", str(manifest)])
        captured = capsys.readouterr()
        assert code == USAGE_ERROR
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert str(manifest) in captured.err
        assert tap.exists() == (command == "timeline")
        assert not genome.exists() and not Path(f"{genome}.history").exists()
        assert list(manifest.iterdir()) == []

    @pytest.mark.parametrize("command", ["simulate", "evolve", "test"])
    def test_leaves_old_outputs_as_they_were(self, tmp_path, capsys, command):
        # outputs are written over in place, so none may be opened before the check
        manifest = tmp_path / "manifest-dir"
        manifest.mkdir()
        tap, genome = tmp_path / "tap.log", tmp_path / "winner.txt"
        outputs = [tap, genome, Path(f"{genome}.history")]
        for path in outputs:
            path.write_text(f"old {path.name}\n" * 100)
        code = main([*self.argv(tmp_path, command, tap, genome), "--manifest", str(manifest)])
        capsys.readouterr()
        assert code == USAGE_ERROR
        assert [path.read_text() for path in outputs] == [f"old {path.name}\n" * 100
                                                          for path in outputs]


#: sha256 of the taps these runs wrote before words, keys and routes were
#: memoised (perfbench/refs.json records the same digests), and of their
#: stdout before machines were stepped inline (exit 0 and exit 1)
GOLDEN_TAPS = [
    (["--seed", "2"],
     "5c0587c1f8c1a4b9a76ca9df906a30c64a1d808d24aebcb7a203c282a2aeed0e",
     "115cbdc59d80f414f85909013a5cd599a3e72e2e8ea2867e4b99a14fa304b42b"),
    (["--fault", "go-dark:node10", "--seed", "2"],
     "c4b79ea33fd57428aeb1adb56910a30141bafe27aabef1e890e4c25600f7322d",
     "9a5e27ecf20f9a167e1d911d5e9bc2316130bab433638582a8596d428523ee6e"),
]


class TestGoldenTaps:
    @pytest.mark.parametrize("flags,digest,stdout_digest", GOLDEN_TAPS,
                             ids=["fault-free", "go-dark"])
    def test_tap_bytes_are_unchanged(self, tmp_path, capsys, flags, digest, stdout_digest):
        manifest, tap = out_paths(tmp_path)
        main(["test", *flags, "--tap", tap, "--manifest", manifest])
        out = capsys.readouterr().out
        with open(tap, "rb") as fh:
            assert hashlib.sha256(fh.read()).hexdigest() == digest
        assert hashlib.sha256(out.encode()).hexdigest() == stdout_digest


#: the benchmark's recorded op outputs, read only
REFS = Path(__file__).resolve().parents[1] / "perfbench" / "refs.json"
#: the stdout lines a recorded op keeps as its metrics
METRIC_LINE = re.compile(r"^(episode )?(fitness|pPeople|pTrip|pEnergy)=")


def recorded_go_dark_ops():
    refs = json.loads(REFS.read_text())["refs"]
    return sorted((key, ref) for key, ref in refs.items() if key.startswith("test-go-dark:"))


class TestRecordedGoDarkOps:
    """Every go-dark op of the benchmark's main and held-out pools gives its recorded outputs."""

    @pytest.mark.parametrize("key,ref", recorded_go_dark_ops(),
                             ids=[key for key, _ in recorded_go_dark_ops()])
    def test_outputs_equal_the_recording(self, tmp_path, key, ref):
        manifest, tap = out_paths(tmp_path)
        seed = key.removeprefix("test-go-dark:seed=")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["test", "--fault", "go-dark:node10", "--seed", seed,
                         "--tap", tap, "--manifest", manifest])
        lines = out.getvalue().splitlines()
        data = Path(tap).read_bytes()
        assert {
            "verdicts": [line for line in lines if line.startswith("VERDICT ")],
            "metrics": [line for line in lines if METRIC_LINE.match(line)],
            "exit": code,
            "stderr": err.getvalue(),
            "tap_sha256": hashlib.sha256(data).hexdigest(),
            "events": data.count(b"\n"),
        } == ref

    def test_both_pools_are_recorded(self):
        assert len(recorded_go_dark_ops()) == 12


def run_default_plan(tap):
    """Run the shipped plan on seed 2 as ``masharness test`` does; returns the tap's key texts."""
    cases = load_test_plan(data_path("default_plan.txt"))
    config = replace(load_world_config(data_path("world.cfg")), rngSeed=2)
    topology, genes = load_genome(data_path("demo_genome.txt"))
    with Broker(tap=str(tap)) as broker:
        judge(cases, broker)
        evaluate_solution(config, genes, topology, broker)
    return [key.text for key, _, _ in read_tap(tap)]


class TestKeyedPublishing:
    """A run checks and builds each distinct key once, not once per event."""

    def run(self, tap):
        return run_default_plan(tap)

    def test_keys_are_built_once_and_words_checked_per_key(self, tmp_path, monkeypatch):
        built = Counter()
        post_init = RoutingKey.__post_init__

        def counting_post_init(key):
            built[key.segments] += 1
            post_init(key)

        checks = []
        check_word = logmodel._check_word
        monkeypatch.setattr(RoutingKey, "__post_init__", counting_post_init)
        monkeypatch.setattr(logmodel, "_check_word",
                            lambda name, value: checks.append(value) or check_word(name, value))
        for memo in (logmodel._keys, logmodel._event_keys, logmodel._valid_words,
                     world_module._grid_logs):
            memo.clear()
        evolution._observer_keys.cache_clear()
        keys = self.run(tmp_path / "cold.log")
        distinct = set(keys)
        assert (len(keys), len(distinct)) == (1961, 239)
        assert built and max(built.values()) == 1
        assert {".".join(segments) for segments in built} >= distinct

        built.clear()
        checks.clear()
        assert self.run(tmp_path / "warm.log") == keys
        assert not built
        assert len(checks) <= len(distinct)


class TestRetiredMachines:
    """A machine with its verdict leaves the broker's routes, so the events
    that only finished machines bind are written to the tap but not built."""

    def test_a_run_builds_only_the_events_running_machines_judge(self, tmp_path, monkeypatch):
        built = []
        monkeypatch.setattr(broker_module, "keyed_event",
                            lambda *args: built.append(args) or logmodel.keyed_event(*args))
        keys = run_default_plan(tmp_path / "tap.log")
        assert len(keys) == 1961
        assert len(built) <= 70
        digest = hashlib.sha256((tmp_path / "tap.log").read_bytes()).hexdigest()
        assert digest == GOLDEN_TAPS[0][1]


class TestSharedRoutes:
    """Brokers with equal binding lists share one route table, so only the
    first of them scans the bindings for a key."""

    @pytest.fixture
    def scans(self, monkeypatch):
        # a fresh shared memo, so the counts do not depend on what earlier tests left in it
        monkeypatch.setattr(broker_module, "_route_tables", BoundedMemo(64))
        scanned = []
        scan = broker_module._scan
        monkeypatch.setattr(broker_module, "_scan",
                            lambda queues, key: scanned.append(key) or scan(queues, key))
        return scanned

    def test_a_second_run_scans_no_key(self, tmp_path, scans):
        keys = run_default_plan(tmp_path / "first.log")
        scans.clear()
        assert run_default_plan(tmp_path / "second.log") == keys
        assert scans == []
        digest = hashlib.sha256((tmp_path / "second.log").read_bytes()).hexdigest()
        assert digest == GOLDEN_TAPS[0][1]

    def test_a_grid_with_more_keys_than_a_memo_scans_each_key_once(self, tmp_path, scans):
        # 24x24 lights log 9 keys each, 5,184 in all, more than MEMO_SIZE
        config = small_world(tmp_path, gridWidth=24, gridHeight=24, numPeople=20, maxTicks=30)
        manifest, tap = out_paths(tmp_path)
        assert main(["test", "--config", config, "--tap", tap, "--manifest", manifest]) in (0, 1)
        keys = {key.text for key, _, _ in read_tap(tap)}
        assert len(keys) > logmodel.MEMO_SIZE
        counts = Counter(".".join(key) for key in scans)
        assert counts.keys() == keys
        assert set(counts.values()) == {1}

    @staticmethod
    def broker_with(*bindings):
        """A broker with one subscriber per binding: a pattern or a list of them."""
        broker = Broker()
        for i, patterns in enumerate(bindings):
            patterns = [patterns] if isinstance(patterns, str) else patterns
            broker.subscribe(f"s{i}", patterns, lambda event: None)
        return broker

    @staticmethod
    def publish(broker, action):
        event = logmodel.make_log_event("sharedRoutes", "node1", action, sourceUnit="U",
                                        sourceOperation="op", sourceLine=1, resource="r",
                                        clock=broker.clock)
        return broker.publish(event)

    def test_brokers_with_other_bindings_get_their_own_table(self, scans):
        first = self.broker_with("sharedRoutes.#", "*.*.ping.#")
        assert self.publish(first, "ping") == 2
        assert len(scans) == 1
        assert self.publish(self.broker_with("sharedRoutes.#", "*.*.ping.#"), "ping") == 2
        assert len(scans) == 1
        assert self.publish(self.broker_with("sharedRoutes.#"), "ping") == 1
        assert self.publish(self.broker_with("*.*.ping.#", "sharedRoutes.#"), "ping") == 2
        assert len(scans) == 3
        # the same number of lists and first patterns, but another second pattern
        assert self.publish(self.broker_with(["sharedRoutes.x.#", "*.*.ping.#"]), "ping") == 1
        assert self.publish(self.broker_with(["sharedRoutes.x.#", "*.*.pong.#"]), "ping") == 0
        assert len(scans) == 5

    def test_a_broker_that_binds_after_publishing_gets_its_own_table(self, scans):
        broker = self.broker_with("sharedRoutes.node1.#")
        assert self.publish(broker, "pong") == 1
        broker.subscribe("late", ["*.*.pong.#"], lambda event: None)
        assert self.publish(broker, "pong") == 2
        assert len(scans) == 2
        # each binding list it had is now shared with a new broker
        assert self.publish(self.broker_with("sharedRoutes.node1.#"), "pong") == 1
        assert self.publish(self.broker_with("sharedRoutes.node1.#", "*.*.pong.#"), "pong") == 2
        assert len(scans) == 2


#: sha256 of ``timeline`` stdout over the tap of ``test --fault go-dark:node10
#: --seed 2``, from before tap lines were parsed through a key memo
#: (perfbench/refs.json records the same digests for ``tapseed=2``)
GOLDEN_TIMELINES = {
    "lightContainer.node10.#": "a776cb293629fe62f1bb8c9d536b48cd1031c11a524d4734ba297261f2c5b172",
    "*.*.switchLightON.#": "616822785a55edc0801fc79a2d029f12ce93d3e9fb5c75a73a449ee3c08356cc",
    "OBSERVER.#": "b21ff1abf8194750adf7786f9491314c3e3359808e303036684a4b0040652620",
    "#": "4e79f7af5863f236230709bba67b6f304dbc4e9ebaa539afe4e56d6053c58bab",
}


@pytest.fixture(scope="module")
def go_dark_tap(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("go-dark")
    tap = str(tmp / "tap.log")
    main(["test", "--fault", "go-dark:node10", "--seed", "2", "--tap", tap,
          "--manifest", str(tmp / "m.txt")])
    return tap


class TestGoldenTimeline:
    @pytest.mark.parametrize("pattern", list(GOLDEN_TIMELINES))
    def test_stdout_is_unchanged(self, go_dark_tap, tmp_path, capsys, pattern):
        capsys.readouterr()
        code = main(["timeline", pattern, "--tap", go_dark_tap,
                     "--manifest", str(tmp_path / "m.txt")])
        out = capsys.readouterr().out
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_TIMELINES[pattern]


#: what only simulate, test and evolve need, in the order they start to import
#: it: world.py is compiled before numpy is imported, as an eager import had it
NUMPY_HALF = ["masharness.world", "numpy", "masharness.neural", "masharness.evolution"]
#: what a CLI process loads only for the commands that run it: test machines and the numpy half
LAZY_MODULES = ["masharness.testkit", *NUMPY_HALF]

#: every name masharness/__init__.py exports, by the module that defines it
EXPORTS = {
    "logmodel": "BindingPattern EventClock InvalidPattern InvalidTag KeyTooLong LogEvent "
                "MasharnessError RoutingKey make_log_event parse_binding_pattern routing_key",
    "broker": "AgentPublisher Broker BrokerStats DuplicateQueue QueueClosed QueueHandle matches",
    "testkit": "BindingMismatch ParseError TestCase TestMachine TestVerdict TransitionSpec "
               "compile judge load_test_plan merge_timeline run",
    "world": "ControllerBatch EpisodeMetrics FaultSpec InvalidConfig UnknownFault UnknownTarget "
             "WorldConfig init_world load_world_config move_people parse_fault_spec "
             "run_episode run_episodes sense actuate step_world",
    "neural": "GenomeShapeMismatch NetworkTopology NeuralController decode load_genome "
              "save_genome",
    "evolution": "FitnessReport GAConfig Genome MetricsOutOfRange ObserverResult "
                 "evaluate_solution evolve_generation fitness load_ga_config run_observer",
}


def fresh_python(code: str, *args: str, cwd=None) -> subprocess.CompletedProcess:
    """``code`` run in a new interpreter on the package this process imported."""
    source = os.path.dirname(os.path.dirname(masharness.__file__))
    return subprocess.run([sys.executable, "-c", code, *args], capture_output=True, cwd=cwd,
                          env={**os.environ, "PYTHONPATH": source})


#: runs ``main(argv)`` in a fresh process, then prints the lazy modules in
#: the order the import system first looked them up (a finder ahead of the
#: others that records the name and finds nothing)
LOADED_BY_MAIN = (
    f"import sys; half = {LAZY_MODULES!r}; started = []; "
    "sys.meta_path.insert(0, type('Seen', (), {'find_spec': staticmethod("
    "lambda name, *args: started.append(name) if name in half else None)})); "
    "from masharness.cli import main; code = main(sys.argv[1:]); "
    "print(started, file=sys.stderr); sys.exit(code)"
)


class TestColdStart:
    """A CLI process loads numpy and testkit only for the commands that run them."""

    @pytest.mark.parametrize("module", ["masharness", "masharness.cli"])
    def test_an_import_loads_no_numpy(self, module):
        proc = fresh_python(f"import sys, {module}; "
                            f"print([m for m in sys.modules if m in {LAZY_MODULES!r}])")
        assert proc.returncode == 0 and proc.stdout == b"[]\n"

    @pytest.mark.parametrize("pattern", ["lightContainer.node10.#", "#"])
    def test_timeline_prints_the_same_bytes_with_numpy_blocked(
            self, go_dark_tap, tmp_path, pattern):
        argv = ["timeline", pattern, "--tap", go_dark_tap, "--manifest", str(tmp_path / "m.txt")]
        blocked = fresh_python("import sys; sys.modules['numpy'] = None; " + LOADED_BY_MAIN,
                               *argv)
        unblocked = fresh_python(LOADED_BY_MAIN, *argv)
        assert blocked.returncode == unblocked.returncode == 0
        assert blocked.stderr == unblocked.stderr == b"[]\n"
        assert blocked.stdout == unblocked.stdout
        assert hashlib.sha256(blocked.stdout).hexdigest() == GOLDEN_TIMELINES[pattern]

    @pytest.mark.parametrize("argv,loaded", [
        (["simulate", "--genome", "missing.txt"], NUMPY_HALF[:3]),
        # a directory: refused once the episode is set up; testkit compiles before numpy loads
        (["test", "--tap", "."], LAZY_MODULES),
        (["evolve", "--ga-config", "missing.cfg"], NUMPY_HALF),
    ], ids=["simulate", "test", "evolve"])
    def test_a_command_imports_world_first(self, tmp_path, argv, loaded):
        proc = fresh_python(LOADED_BY_MAIN, *argv, "--manifest", "m.txt", cwd=tmp_path)
        assert proc.returncode == USAGE_ERROR
        error, modules = proc.stderr.decode().splitlines()
        assert error.startswith("error: ")
        assert modules == repr(loaded)

    @pytest.mark.parametrize("argv,error", [
        (["test", "--config", "world.cfg"], "error: config world.cfg: grid dimensions"),
        (["simulate", "--genome", "genome.txt"], "error: genome genome.txt: header promises"),
    ], ids=["world-config", "genome"])
    def test_a_numpy_half_error_exits_two_in_a_fresh_process(self, tmp_path, argv, error):
        (tmp_path / "world.cfg").write_text("gridWidth=0\n")
        (tmp_path / "genome.txt").write_text("3 4 2\n1.0\n")
        proc = fresh_python("import sys; from masharness.cli import main; "
                            "sys.exit(main(sys.argv[1:]))", *argv, "--manifest", "m.txt",
                            cwd=tmp_path)
        assert proc.returncode == USAGE_ERROR
        assert proc.stdout == b""
        assert proc.stderr.decode().startswith(error) and proc.stderr.count(b"\n") == 1

    def test_every_export_is_its_module_s_object(self):
        for module, names in EXPORTS.items():
            defining = importlib.import_module(f"masharness.{module}")
            assert getattr(masharness, module) is defining
            for name in names.split():
                namespace = {}
                exec(f"from masharness import {name}", namespace)
                assert getattr(masharness, name) is namespace[name] is getattr(defining, name)

    def test_dir_lists_every_export_before_it_is_loaded(self):
        proc = fresh_python(f"import sys, masharness; names = set(dir(masharness)); "
                            f"print(sorted(m for m in sys.modules if m in {LAZY_MODULES!r})); "
                            f"print(sorted({{*masharness.__all__, '__version__'}} - names))")
        assert proc.returncode == 0 and proc.stdout == b"[]\n[]\n"
        expected = {name for names in EXPORTS.values() for name in names.split()} | set(EXPORTS)
        assert set(masharness.__all__) == expected

    def test_a_star_import_gives_every_export_and_submodule(self):
        namespace = {}
        exec("from masharness import *", namespace)
        del namespace["__builtins__"]
        expected = {name for names in EXPORTS.values() for name in names.split()} | set(EXPORTS)
        assert set(namespace) == expected

    def test_an_unknown_name_is_an_attribute_error(self):
        with pytest.raises(AttributeError, match="has no attribute 'nothing'"):
            masharness.nothing
        with pytest.raises(ImportError):
            exec("from masharness import nothing", {})


def without_wallclock(data: bytes) -> bytes:
    """A manifest's bytes without its wallclock line, the one line two runs may differ in."""
    return b"".join(ln for ln in data.splitlines(keepends=True)
                    if not ln.startswith(b"wallclock: "))


#: calls every reader and writer of a file name with fd 1 (True and 1) and with a
#: descriptor open on the file named by argv[1], then prints to stdout
DESCRIPTOR_PATHS = """
import os, sys
import masharness as m
from masharness.logmodel import load_tap, open_output, read_tap
fd = os.open(sys.argv[1], os.O_RDWR)
calls = {
    "load_world_config": m.load_world_config, "load_ga_config": m.load_ga_config,
    "load_genome": m.load_genome, "load_test_plan": m.load_test_plan, "load_tap": load_tap,
    "read_tap": lambda path: next(read_tap(path)), "open_output": open_output,
    "tap": lambda path: m.Broker(tap=path).close(),
    "save_genome": lambda path: m.save_genome(path, [0.0] * 26),
}
for name, call in calls.items():
    for path in (True, 1, fd):
        try:
            call(path)
        except m.MasharnessError as exc:
            print(name, type(exc).__name__, exc, file=sys.stderr)
        else:
            print(name, path, "was not refused", file=sys.stderr)
print("stdout is open")
"""


class TestDescriptorPaths:
    """A path ``open`` would take as a file descriptor is refused before anything is opened."""

    def test_no_descriptor_is_read_closed_or_cut(self, tmp_path):
        kept = tmp_path / "kept.txt"
        kept.write_bytes(b"3 4 2\nold bytes\n")
        proc = fresh_python(DESCRIPTOR_PATHS, str(kept))
        assert proc.returncode == 0 and proc.stdout == b"stdout is open\n"
        refusals = proc.stderr.decode().splitlines()
        assert len(refusals) == 9 * 3
        assert all(re.fullmatch(r"\w+ \w+ \w+ path must be a str, bytes or os\.PathLike "
                                r"without NUL, got (True|\d+)", line) for line in refusals), refusals
        assert kept.read_bytes() == b"3 4 2\nold bytes\n"


class TestInPlaceOutputs:
    """Outputs are written over old files and cut to the written length when closed."""

    @pytest.mark.parametrize("command", ["simulate", "test", "evolve"])
    def test_a_run_over_longer_files_writes_what_a_fresh_run_writes(
            self, go_dark_tap, tmp_path, capsys, command):
        tap, manifest, genome = (tmp_path / name for name in ("tap.log", "m.txt", "winner.txt"))
        argv = [command, "--tap", str(tap), "--manifest", str(manifest)]
        outputs = [tap, manifest]
        if command == "evolve":
            argv += ["--config", small_world(tmp_path), "--ga-config",
                     TestEvolve().ga_file(tmp_path), "--genome", str(genome)]
            outputs += [genome, Path(f"{genome}.history")]
        runs = []
        for old in (None, go_dark_tap):
            for path in outputs if old else ():
                shutil.copyfile(old, path)
            assert main(argv) == 0
            runs.append((capsys.readouterr().out,
                         [without_wallclock(path.read_bytes()) for path in outputs]))
        assert runs[1] == runs[0]
        assert all(len(data) < os.path.getsize(go_dark_tap) for data in runs[0][1])

    @pytest.mark.parametrize("argv", [
        ["simulate"],
        ["test", "--fault", "go-dark:node10", "--seed", "2"],
        ["timeline", "*.node10.#"],
    ], ids=["simulate", "test-failing", "timeline"])
    def test_dev_null_outputs_exit_as_regular_files_do(self, go_dark_tap, tmp_path, capsys,
                                                         argv):
        runs = []
        for tap, manifest in ((tmp_path / "tap.log", tmp_path / "m.txt"),
                              ("/dev/null", "/dev/null")):
            if argv[0] == "timeline":
                tap = go_dark_tap
            code = main([*argv, "--tap", str(tap), "--manifest", str(manifest)])
            captured = capsys.readouterr()
            runs.append((code, captured.out, captured.err))
        assert runs[1] == runs[0]
        assert runs[0][0] == (1 if argv[0] == "test" else 0)


TAP_KEYS = [
    "lightContainer.node1.switchLightON.info.Light.actuate.7.lamp",
    "lightContainer.node2.readLightSensor.info.Light.sense.007.lightSensor",
    "lightContainer.node1.readLightSensor.warning.Light.sense.12.lightSensor",
    "OBSERVER.observer.finishSimulation.info.Observer.run.3.world",
    "AdaptiveAgent.agent1.connect.error.Agent.start.40.manager",
]
PATTERN_WORDS = ["*", "#", "lightContainer", "node1", "readLightSensor", "info",
                 "7", "12", "error", "OBSERVER", "lamp"]


def normalised(key):
    segments = key.split(".")
    segments[6] = str(int(segments[6]))
    return ".".join(segments)


class TestTimelineOracle:
    @settings(max_examples=60, deadline=None)
    @example([(TAP_KEYS[1], 3), (TAP_KEYS[0], 1), (TAP_KEYS[2], 3), (TAP_KEYS[1], 1)], "#")
    @example([(TAP_KEYS[1], 2), (TAP_KEYS[0], 2), (TAP_KEYS[4], 0)], "*.*.*.*.#.7.*")
    @given(
        st.lists(st.tuples(st.sampled_from(TAP_KEYS), st.integers(0, 6)), max_size=30),
        st.lists(st.sampled_from(PATTERN_WORDS), min_size=1, max_size=9).map(".".join),
    )
    def test_agrees_with_the_regex_oracle_and_a_stable_sort(self, records, pattern):
        lines = [(ts, key, f"m{i}\tx") for i, (key, ts) in enumerate(records)]
        expected = "".join(
            f"{ts}\t{normalised(key)}\t{message}\n"
            for ts, key, message in sorted(lines, key=lambda line: line[0])
            if oracle_matches(pattern, normalised(key))
        )
        with tempfile.TemporaryDirectory() as tmp:
            tap = Path(tmp) / "tap.log"
            tap.write_text("".join(f"{key}\t{ts}\t{message}\n" for ts, key, message in lines))
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = main(["timeline", pattern, "--tap", str(tap),
                             "--manifest", str(Path(tmp) / "m.txt")])
        assert code == 0
        assert out.getvalue() == expected



TAP_FRAGMENTS = st.sampled_from(
    TAP_KEYS + ["a.b.c.fatal.U.op.1.r", "a.b c.c.info.U.op.1.r", "a.*.c.info.U.op.1.r",
                "a.b.c", "", " ", "\t", "0", "007", "9" * 20, "-1", "x", "\r", "\n", "\r\n",
                "\t\t", "é", "٣", "　"])
RANDOM_TAPS = st.one_of(
    st.binary(max_size=64),
    st.lists(TAP_FRAGMENTS, max_size=24).map(lambda parts: "".join(parts).encode("utf-8")),
    st.lists(st.tuples(st.sampled_from(TAP_KEYS), st.sampled_from(["1", "22", "+3", "", "x"]),
                       st.text(alphabet="ab\t.", max_size=4)), max_size=6).map(
        lambda lines: "".join(f"{k}\t{t}\t{m}\n" for k, t, m in lines).encode("utf-8")),
)
RANDOM_PATTERNS = st.one_of(
    st.lists(st.sampled_from(PATTERN_WORDS), min_size=1, max_size=9).map(".".join),
    # one starting with '-' is read as an option, and fails as a usage error
    st.text(alphabet="ab.*#- \t\né", max_size=12),
)


def main_captured(argv):
    """``main(argv)`` with stdout and stderr captured: (code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def assert_contract(code, out, err, codes):
    """The exit code is one of ``codes`` and no traceback shows; a usage error
    prints one ``error:`` line and nothing on stdout, any other exit nothing on stderr."""
    assert code in codes
    assert "Traceback" not in err
    if code == USAGE_ERROR:
        assert err.startswith("error: ") and err.count("\n") == 1
        assert err.endswith("\n") and out == ""
    else:
        assert err == ""


class TestTimelineContract:
    @settings(max_examples=100, deadline=None)
    @example(b"\xff\n", "#")
    @example(b"a.b.c.info.U.op.1.r\t1\tm\n", "a..b")
    @example(b"a.b.c.info.U.op.1.r\t1\tm\n", "-x.#")
    @example(b"a.b.c.info.U.op.1.r\t1\tm\n", "--")
    @given(RANDOM_TAPS, RANDOM_PATTERNS)
    def test_exit_code_and_stderr(self, data, pattern):
        with tempfile.TemporaryDirectory() as tmp:
            tap = Path(tmp) / "tap.log"
            tap.write_bytes(data)
            result = main_captured(["timeline", pattern, "--tap", str(tap),
                                    "--manifest", str(Path(tmp) / "m.txt")])
        assert_contract(*result, (0, USAGE_ERROR))


#: per WorldConfig key, drawn values that it accepts on its own, within a grid of
#: 6x6 and 30 ticks, and values that it does not
CONFIG_VALUES = {
    "gridWidth": st.integers(1, 6), "gridHeight": st.integers(1, 6),
    "wirelessRange": st.integers(0, 3), "numPeople": st.integers(0, 8),
    "maxTicks": st.integers(1, 30), "rngSeed": st.integers(-5, 10**6),
    "ambientLight": st.floats(0.0, 0.3), "lightBrightness": st.floats(0.3, 1.0),
    "darkThreshold": st.floats(0.0, 0.3),
}
BAD_VALUES = st.sampled_from(["nan", "inf", "-inf", "-1", "-0.0", "1e400", "0", "7", "", "x"])
GOOD_LINES = st.sampled_from(sorted(CONFIG_VALUES)).flatmap(
    lambda key: CONFIG_VALUES[key].map(lambda value: f"{key}={value}"))
BAD_LINES = st.one_of(
    st.sampled_from(sorted(CONFIG_VALUES)).flatmap(
        lambda key: BAD_VALUES.map(lambda value: f"{key}={value}")),
    st.sampled_from(["gridWidth", "=", "colour=red", "gridWidth=2.5", "ambientLight=0,5"]),
    st.text(alphabet="a=#1. \té", max_size=10),
)
#: key=value lines, the accepted ones (and comments) first and at most one other at the end
CONFIG_LINES = st.builds(
    lambda good, bad: good + bad,
    st.lists(st.one_of(GOOD_LINES, st.sampled_from(["", "# comment"])), max_size=6),
    st.lists(BAD_LINES, max_size=1))
FAULT_TEXTS = st.one_of(
    st.tuples(st.sampled_from(world_module.FAULT_KINDS),
              st.lists(st.integers(1, 36).map(lambda n: f"node{n}"), min_size=1, max_size=3)
              ).map(lambda f: f"{f[0]}:{','.join(f[1])}"),
    st.sampled_from(["melt:node1", "go-dark", "go-dark:", ":node1", "go-dark:,", "go-dark:node0",
                     "go-dark:node01", "sensor-stuck:lights"]),
    st.text(alphabet="go-dark:node1,é ", max_size=16),
)


class TestRunContract:
    """``test`` and ``simulate`` on any fault text and world config: exit 0, 1 or
    2, with 1 only from ``test``, and stderr empty or one ``error:`` line."""

    @settings(max_examples=150, deadline=None)
    @example("go-dark:node10", ["gridWidth=6", "gridHeight=6", "maxTicks=30"], "test")
    @example("skip-handshake:node1", ["ambientLight=nan"], "simulate")
    @example("mute-wireless:node2,node2", ["numPeople=0", "maxTicks=1"], "test")
    @given(FAULT_TEXTS, CONFIG_LINES, st.sampled_from(["test", "simulate"]))
    def test_exit_code_and_stderr(self, fault, lines, command):
        with tempfile.TemporaryDirectory() as tmp:
            config = Path(tmp) / "world.cfg"
            config.write_text("".join(f"{line}\n" for line in lines), encoding="utf-8")
            result = main_captured([command, "--fault", fault, "--config", str(config),
                                    "--tap", str(Path(tmp) / "tap.log"),
                                    "--manifest", str(Path(tmp) / "m.txt")])
        assert_contract(*result, (0, 1, USAGE_ERROR) if command == "test" else (0, USAGE_ERROR))


#: per GAConfig key, drawn values that it accepts on its own; runs stay at most
#: 4 genomes for 2 generations, as every drawn config starts from that
GA_VALUES = {
    "populationSize": st.integers(1, 4), "generations": st.integers(0, 2),
    "elitism": st.integers(1, 3), "tournamentSize": st.integers(1, 4),
    "crossoverRate": st.floats(0.0, 1.0), "mutationRate": st.floats(0.0, 1.0),
    "mutationSigma": st.one_of(st.floats(0.0, 10.0), st.just(1e308)),
    "weightLimit": st.one_of(st.floats(0.01, 10.0), st.just(1e308)),
    "hiddenCount": st.integers(1, 8), "energyTarget": st.floats(0.01, 1.0),
    "rngSeed": st.integers(-5, 10**6),
}
GA_BAD_VALUES = st.sampled_from(["nan", "inf", "-inf", "-1", "-0.0", "1e400", "1e308", "0",
                                 "2.5", "", "x"])
#: GA config lines: the size bound, accepted lines, and at most one other at the end
GA_LINES = st.builds(
    lambda good, bad: ["populationSize=4", "generations=2", *good, *bad],
    st.lists(st.sampled_from(sorted(GA_VALUES)).flatmap(
        lambda key: GA_VALUES[key].map(lambda value: f"{key}={value}")), max_size=6),
    st.lists(st.one_of(
        st.sampled_from(sorted(GA_VALUES)).flatmap(
            lambda key: GA_BAD_VALUES.map(lambda value: f"{key}={value}")),
        st.sampled_from(["populationSize", "=", "colour=red", "elitism=1.0",
                         *(f"{key}={'9' * 30}" for key in ("populationSize", "generations",
                                                           "elitism", "tournamentSize",
                                                           "hiddenCount"))])),
        max_size=1))
GOOD_GENES = st.one_of(st.floats(-10.0, 10.0), st.sampled_from([1e308, -1e308, 5e-324]))
BAD_GENES = st.sampled_from(["1e400", "nan", "-inf", "0x10", "1,5", "x", "1 2", "9" * 400])
BAD_HEADERS = st.sampled_from(["3 4", "3 4 2 1", "4 4 2", "3 4 3", "3 0 2", "3 -1 2", "3.0 4 2",
                               "x", "3 99999999999999999999 2", "\u0663 4 2"])
#: genome file text for a 3-H-2 network: its header or another, then one gene
#: fewer than it needs to one more, and at most one gene that is not a float
GENOME_TEXTS = st.integers(1, 4).flatmap(lambda hidden: st.builds(
    lambda header, genes, bad: "".join(f"{line}\n" for line in [header, *map(repr, genes), *bad]),
    st.one_of(st.just(f"3 {hidden} 2"), BAD_HEADERS),
    st.lists(GOOD_GENES, min_size=6 * hidden + 1, max_size=6 * hidden + 3),
    st.lists(BAD_GENES, max_size=1)))


class TestEvolveContract:
    """``evolve`` on any GA config over a small world: exit 0 or 2, and stderr
    empty or one ``error:`` line."""

    @settings(max_examples=40, deadline=None)
    @example(["populationSize=4", "generations=2", "mutationRate=1", "mutationSigma=1e308",
              "weightLimit=1e308"])
    @example(["populationSize=4", "generations=2", "populationSize=1", "elitism=1"])
    @given(GA_LINES)
    def test_exit_code_and_stderr(self, lines):
        with tempfile.TemporaryDirectory() as tmp:
            ga = Path(tmp) / "ga.cfg"
            ga.write_text("".join(f"{line}\n" for line in lines), encoding="utf-8")
            result = main_captured(["evolve", "--ga-config", str(ga),
                                    "--config", small_world(Path(tmp)),
                                    "--genome", str(Path(tmp) / "winner.txt"),
                                    "--manifest", str(Path(tmp) / "m.txt")])
        assert_contract(*result, (0, USAGE_ERROR))


class TestGenomeContract:
    """``test`` and ``simulate`` on any genome file: exit 0, 1 or 2, with 1 only
    from ``test``, and stderr empty or one ``error:`` line."""

    @settings(max_examples=60, deadline=None)
    @example("3 1 2\n" + "1e308\n" * 8, "simulate")
    @example("3 1 2\n" + "-1e308\n" * 8, "test")
    @given(GENOME_TEXTS, st.sampled_from(["test", "simulate"]))
    def test_exit_code_and_stderr(self, text, command):
        with tempfile.TemporaryDirectory() as tmp:
            genome = Path(tmp) / "genome.txt"
            genome.write_text(text, encoding="utf-8")
            result = main_captured([command, "--genome", str(genome),
                                    "--config", small_world(Path(tmp)),
                                    "--tap", str(Path(tmp) / "tap.log"),
                                    "--manifest", str(Path(tmp) / "m.txt")])
        assert_contract(*result, (0, 1, USAGE_ERROR) if command == "test" else (0, USAGE_ERROR))


#: binding patterns the plan parser accepts: ones the episode logs, one it never logs, wildcards
PLAN_PATTERNS = st.sampled_from([
    "OBSERVER.*.calculateFitness.#", "lightContainer.node1.switchLightON.#",
    "AdaptiveAgent.*.useControllerToGetOutput.#", "lightContainer.lights.finishSimulation.#",
    "MANAGER.nobody.neverLogged.#", "*.*.*.error.#", "#", "*"])
#: accepted ``within`` durations, leading zeros and the bound included (None: no ``within``)
PLAN_DURATIONS = st.sampled_from([None, "1ticks", "9ticks", "40ticks", "007ticks",
                                  f"{MAX_WAIT_TICKS}ticks", f"{'0' * 40}1ticks"])


def plan_expect(alternatives, within):
    return f"expect {'|'.join(alternatives)}" + (f" within {within}" if within else "")


#: test names drawn from few, so plans repeat them
PLAN_NAMES = st.sampled_from(["a", "b", "switch-light-on", "é"])
PLAN_CASES = st.lists(st.tuples(
    st.builds(lambda name, level, sublevel: f"test {name} level={level} sublevel={sublevel}",
              PLAN_NAMES, st.sampled_from(["local", "global"]),
              st.sampled_from(["framework", "scenario", "learning", "mas"])),
    st.lists(st.builds(plan_expect, st.lists(PLAN_PATTERNS, min_size=1, max_size=3),
                       PLAN_DURATIONS), min_size=1, max_size=3)), max_size=3)
PLAN_NOISE = st.lists(st.sampled_from(["", "   ", "# comment", "\t# indented comment"]),
                      max_size=2)
#: lines the plan parser refuses: empty or malformed alternatives, durations of
#: 0 ticks, over the bound or misspelt, headers that miss, repeat or misname an option
BAD_PLAN_LINES = st.one_of(
    st.builds(plan_expect, st.lists(st.sampled_from(["", "a..b", "-x.#", "x.#.#", "é"]),
                                    min_size=1, max_size=2).map(lambda bad: ["#", *bad]),
              PLAN_DURATIONS),
    st.builds(plan_expect, st.just(["#"]), st.sampled_from([
        "0ticks", "0000ticks", f"{MAX_WAIT_TICKS + 1}ticks", f"{'9' * 40}ticks", "5tick",
        "ticks", "-1ticks", "\u00b2ticks", "1e3ticks", "5 ticks"])),
    st.sampled_from(["test a level=local", "test a sublevel=mas", "test a level=local level=global",
                     "test a level=local sublevel=mas sublevel=mas", "test a level= sublevel=mas",
                     "test a level=local colour=red", "test", "expect", "expect # within",
                     "verify #"]))
@st.composite
def plan_texts(draw):
    """Plan text: cases between noise, with at most one refused line at a drawn place."""
    cases = draw(PLAN_CASES)
    lines = [*draw(PLAN_NOISE), *(line for header, expects in cases for line in (header, *expects)),
             *draw(PLAN_NOISE)]
    for bad in draw(st.lists(BAD_PLAN_LINES, max_size=1)):
        lines.insert(draw(st.integers(0, len(lines))), bad)
    return "".join(f"{line}\n" for line in lines)


class TestPlanContract:
    """``test --plan`` on any plan text: exit 0, 1 or 2, and stderr empty or one
    ``error:`` line."""

    @settings(max_examples=200, deadline=None)
    @example("")
    @example("test a level=local sublevel=scenario\nexpect #|*| within 0ticks\n")
    @example("test a level=local sublevel=mas\nexpect # within 007ticks\n"
             "test a level=global sublevel=mas\nexpect # within 1ticks\n")
    @example("# only a comment\n")
    @example("test a level=local level=global\nexpect #\n")
    @given(plan_texts())
    def test_exit_code_and_stderr(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            plan = Path(tmp) / "plan.txt"
            plan.write_text(text, encoding="utf-8")
            result = main_captured(["test", "--plan", str(plan),
                                    "--config", small_world(Path(tmp)),
                                    "--tap", str(Path(tmp) / "tap.log"),
                                    "--manifest", str(Path(tmp) / "m.txt")])
        assert_contract(*result, (0, 1, USAGE_ERROR))


def assert_one_error_line(capsys):
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")


class TestParser:
    def test_no_arguments_is_a_usage_error(self, capsys):
        assert main([]) == USAGE_ERROR
        assert_one_error_line(capsys)

    def test_unknown_command_is_a_usage_error(self, capsys):
        assert main(["frobnicate"]) == USAGE_ERROR
        assert_one_error_line(capsys)

    @pytest.mark.parametrize("argv", [["simulate", "--seed", "x"],
                                      ["timeline", "-x.#", "--tap", "t.log"]],
                             ids=["bad-int", "dash-pattern"])
    def test_a_bad_argument_is_a_usage_error(self, tmp_path, capsys, argv):
        manifest = tmp_path / "m.txt"
        assert main([*argv, "--manifest", str(manifest)]) == USAGE_ERROR
        assert_one_error_line(capsys)
        assert not manifest.exists()

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "simulate" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [[], ["test"], ["evolve"], ["timeline"]])
    def test_help_text_is_that_of_a_fresh_parser(self, capsys, argv):
        assert main([*argv, "--help"]) == 0
        printed = capsys.readouterr().out
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args([*argv, "--help"])
        assert printed == capsys.readouterr().out
        assert "usage: masharness" in printed

    def test_two_calls_in_a_row_print_the_same(self, tmp_path, capsys, monkeypatch):
        manifest, tap = out_paths(tmp_path)
        argv = ["simulate", "--config", small_world(tmp_path), "--manifest", manifest,
                "--tap", tap]
        outputs = []
        for args in (argv, argv, ["frobnicate"], ["frobnicate"]):
            outputs.append((main(args), capsys.readouterr()))
        assert outputs[0] == outputs[1] and outputs[0][0] == 0
        assert outputs[2] == outputs[3] and outputs[2][0] == USAGE_ERROR
        # the parser is built once: a further run builds no help formatter
        sizes = []
        monkeypatch.setattr(shutil, "get_terminal_size", lambda *a: sizes.append(a) or (80, 24))
        assert main(argv) == 0
        assert sizes == []

    def test_module_entry_point(self):
        # the child imports the package this process imported, as pytest.ini's path finds it
        source = os.path.dirname(os.path.dirname(masharness.__file__))
        proc = subprocess.run(
            [sys.executable, "-m", "masharness.cli", "--help"],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": source},
        )
        assert proc.returncode == 0
        assert "timeline" in proc.stdout
