import hashlib
import inspect
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from masharness import evolution, world as world_module
from masharness.broker import Broker, QueueClosed
from masharness.cli import data_path, main
from masharness.evolution import (
    DEFAULT_ENERGY_TARGET,
    FitnessReport,
    MAX_GENERATIONS,
    MAX_HIDDEN,
    MAX_POPULATION,
    GAConfig,
    GenerationStats,
    Genome,
    MetricsOutOfRange,
    evaluate_solution,
    evolve_generation,
    fitness,
    initial_population,
    load_ga_config,
    pick_elites,
    run_observer,
    tournament_select,
)
from masharness.logmodel import load_tap, parse_binding_pattern
from masharness.neural import NetworkTopology
from masharness.testkit import MachineStatus, TestCase, TransitionSpec, compile, run
from masharness.world import EpisodeMetrics, InvalidConfig, WorldConfig


def metrics(people=1.0, trip=0.0, energy=0.0):
    return EpisodeMetrics(pPeople=people, pTrip=trip, pEnergy=energy)


def scored(values):
    return [Genome(genes=(float(i),), fitness=v) for i, v in enumerate(values)]


def drain_actions(queue):
    actions = []
    while True:
        try:
            ev = queue.consume(0.0)
        except QueueClosed:
            return actions
        if ev is None:
            return actions
        actions.append(ev.action)


ALWAYS_ON_GENES = [0.0] * 24 + [5.0, 0.0]  # output bias drives the lamp on


class TestFitness:
    def test_perfect_run_scores_one(self):
        report = fitness(metrics(1.0, 0.0, 0.0))
        assert report.fitness == 1.0
        assert report.energyTargetMet is True
        assert report.peopleTargetMet is True

    def test_worst_run_scores_minus_one(self):
        report = fitness(metrics(0.0, 1.0, 1.0))
        assert report.fitness == -1.0
        assert report.energyTargetMet is False
        assert report.peopleTargetMet is False

    def test_weighted_example(self):
        report = fitness(metrics(1.0, 0.5, 0.69))
        assert report.fitness == pytest.approx(0.424, abs=1e-12)
        assert report.energyTargetMet is True  # 0.69 < 0.70
        assert report.peopleTargetMet is True

    def test_energy_target_boundary_is_strict(self):
        assert fitness(metrics(energy=0.70)).energyTargetMet is False
        assert fitness(metrics(energy=0.6999999)).energyTargetMet is True
        assert fitness(metrics(energy=0.70), energy_target=0.75).energyTargetMet is True

    def test_people_target_requires_everyone(self):
        assert fitness(metrics(people=0.999999)).peopleTargetMet is False
        assert fitness(metrics(people=1.0)).peopleTargetMet is True

    @pytest.mark.parametrize(
        "bad",
        [
            metrics(people=1.5),
            metrics(people=-0.1),
            metrics(trip=1.01),
            metrics(energy=2.0),
            metrics(energy=-1e-9),
        ],
    )
    def test_rejects_out_of_range_metrics(self, bad):
        with pytest.raises(MetricsOutOfRange):
            fitness(bad)

    @given(
        people=st.floats(0.0, 1.0),
        trip=st.floats(0.0, 1.0),
        energy=st.floats(0.0, 1.0),
    )
    @settings(max_examples=300)
    def test_score_matches_weighted_sum_to_one_ulp(self, people, trip, energy):
        report = fitness(metrics(people, trip, energy))
        expected = 1.0 * people - 0.6 * trip - 0.4 * energy
        assert abs(report.fitness - expected) <= math.ulp(max(abs(expected), 1.0))

    @pytest.mark.parametrize(
        "m,achieved",
        [
            (metrics(1.0, 0.0, 0.5), ["achieveEnergyTarget", "achievePeopleTarget"]),
            (metrics(0.5, 0.0, 0.5), ["achieveEnergyTarget"]),
            (metrics(1.0, 0.0, 0.9), ["achievePeopleTarget"]),
            (metrics(0.5, 0.0, 0.9), []),
        ],
    )
    def test_log_protocol_reports_only_met_targets(self, m, achieved, monkeypatch):
        monkeypatch.setattr(evolution, "run_episode", lambda *args, **kwargs: m)
        with Broker() as broker:
            queue = broker.declare_queue("obs", ["OBSERVER.#"])
            report = evaluate_solution(WorldConfig(), ALWAYS_ON_GENES, NetworkTopology(), broker)
            broker.close()
            actions = drain_actions(queue)
        assert report == fitness(m)
        assert actions == (
            ["chooseAdaptationMethod", "selectNeuralConfiguration", "useIndividualGenesToANN",
             "startExecutionWithControllerConfiguration", "readSimulationResults",
             "calculateEnergy", "calculatePeople", "calculateTripDuration"]
            + achieved
            + ["calculateFitness"]
        )


class TestGAConfig:
    def test_defaults(self):
        c = GAConfig()
        assert (c.populationSize, c.generations, c.elitism, c.tournamentSize) == (40, 30, 2, 3)
        assert (c.crossoverRate, c.mutationRate) == (0.8, 0.05)
        assert c.energyTarget == DEFAULT_ENERGY_TARGET

    @pytest.mark.parametrize(
        "kw",
        [
            dict(populationSize=0),
            dict(generations=-1),
            dict(elitism=0),
            dict(elitism=40),
            dict(populationSize=1, elitism=2),
            dict(tournamentSize=0),
            dict(crossoverRate=1.5),
            dict(mutationRate=-0.1),
            dict(mutationSigma=-1.0),
            dict(weightLimit=0.0),
            dict(hiddenCount=0),
            dict(energyTarget=0.0),
            dict(energyTarget=1.5),
            dict(tournamentSize=MAX_POPULATION + 1),
            dict(generations=MAX_GENERATIONS + 1),
        ],
    )
    def test_rejects_bad_values(self, kw):
        with pytest.raises(InvalidConfig):
            GAConfig(**kw)

    @pytest.mark.parametrize("name", ["crossoverRate", "mutationRate", "mutationSigma",
                                      "weightLimit", "energyTarget"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_floats_are_rejected_by_name(self, name, value):
        with pytest.raises(InvalidConfig, match=f"^{name} must be a finite number"):
            GAConfig(**{name: value})

    @pytest.mark.parametrize("kw,message", [
        # None would seed the GA from the OS
        (dict(rngSeed=None), "rngSeed must be int, not NoneType"),
        (dict(populationSize=2.5), "populationSize must be int, not float"),
        (dict(generations=-10 ** 5000), "generations must have at most 4300 digits"),
    ])
    def test_a_field_takes_its_declared_type(self, kw, message):
        with pytest.raises(InvalidConfig, match=f"^{message}$"):
            GAConfig(**kw)

    @pytest.mark.parametrize("kw,name", [
        (dict(mutationRate=1.0, mutationSigma=10 ** 400), "mutationSigma"),
        (dict(weightLimit=10 ** 400, mutationSigma=1e308), "weightLimit"),
        (dict(weightLimit=-10 ** 400), "weightLimit"),
        (dict(mutationSigma=2 ** 1024 - 2 ** 970), "mutationSigma"),
    ])
    def test_an_int_past_the_float_range_is_refused(self, kw, name):
        # run_observer would raise OverflowError converting it to a float
        with pytest.raises(InvalidConfig, match=f"^{name} must be a finite number, got an int of"):
            GAConfig(**kw)

    def test_the_largest_int_a_float_holds_is_accepted(self):
        largest = 2 ** 1024 - 2 ** 970 - 1
        assert float(GAConfig(mutationSigma=largest).mutationSigma) == 1.7976931348623157e308

    def test_population_and_hidden_layer_are_bounded(self):
        assert GAConfig(populationSize=MAX_POPULATION, hiddenCount=MAX_HIDDEN).hiddenCount == 100
        with pytest.raises(InvalidConfig, match=r"^populationSize must be in \[1,1000\]"):
            GAConfig(populationSize=MAX_POPULATION + 1)
        with pytest.raises(InvalidConfig, match=r"^hiddenCount must be in \[1,100\]"):
            GAConfig(hiddenCount=MAX_HIDDEN + 1)
        with pytest.raises(InvalidConfig, match="^populationSize"):
            GAConfig(populationSize=10**12, hiddenCount=10**12)

    def test_single_member_population_is_allowed(self):
        c = GAConfig(populationSize=1, elitism=1)
        assert c.populationSize == 1

    def test_load_round_trip(self, tmp_path):
        path = tmp_path / "ga.cfg"
        path.write_text(
            "# learning knobs\n"
            "populationSize = 8\n"
            "generations = 3\n"
            "mutationSigma = 0.5\n"
        )
        c = load_ga_config(path)
        assert (c.populationSize, c.generations) == (8, 3)
        assert c.mutationSigma == 0.5
        assert c.elitism == 2  # defaults survive partial files

    def test_load_rejects_non_utf8_naming_the_file(self, tmp_path):
        path = tmp_path / "ga.cfg"
        path.write_bytes(b"\xff\xfepopulationSize=4\n")
        with pytest.raises(InvalidConfig, match="not UTF-8") as info:
            load_ga_config(path)
        assert str(path) in str(info.value)

    def test_load_errors_carry_line_numbers(self, tmp_path):
        path = tmp_path / "ga.cfg"
        path.write_text("populationSize = 8\nvibe = high\n")
        with pytest.raises(InvalidConfig, match="line 2"):
            load_ga_config(path)


class TestOperators:
    def test_initial_population_is_seeded_and_bounded(self):
        config = GAConfig(populationSize=6)
        topology = NetworkTopology()
        first = initial_population(config, topology, random.Random(4))
        again = initial_population(config, topology, random.Random(4))
        assert [g.genes for g in first] == [g.genes for g in again]
        assert len(first) == 6
        for genome in first:
            assert len(genome.genes) == topology.genomeLength
            assert all(-1.0 <= gene <= 1.0 for gene in genome.genes)
            assert genome.fitness is None

    def test_pick_elites_orders_by_fitness_then_index(self):
        population = scored([0.1, 0.9, 0.9, 0.5])
        assert pick_elites(population, 2) == [1, 2]
        assert pick_elites(population, 4) == [1, 2, 3, 0]

    def test_pick_elites_is_shift_invariant(self):
        base = [0.3, -0.2, 0.8, 0.8, 0.1]
        shifted = [v + 17.5 for v in base]
        assert pick_elites(scored(base), 3) == pick_elites(scored(shifted), 3)

    def test_tournament_is_seeded_and_favors_fitness(self):
        population = scored([0.1, 0.2, 0.9, 0.3])
        pick = tournament_select(population, 3, random.Random(11))
        again = tournament_select(population, 3, random.Random(11))
        assert pick is again
        assert pick in population
        # a tournament over many draws almost surely sees the best genome
        big = tournament_select(population, 200, random.Random(0))
        assert big.fitness == 0.9

    def evolve(self, population, config, seed=1):
        return evolve_generation(population, config, random.Random(seed))

    def test_elites_survive_unchanged(self):
        population = [
            Genome(genes=(0.0, 1.0), fitness=0.4, metrics=metrics()),
            Genome(genes=(2.0, 3.0), fitness=0.9, metrics=metrics()),
            Genome(genes=(4.0, 5.0), fitness=0.1, metrics=metrics()),
        ]
        config = GAConfig(populationSize=3, elitism=2, mutationRate=0.0)
        nxt = self.evolve(population, config)
        assert nxt[0].genes == (2.0, 3.0) and nxt[0].fitness == 0.9
        assert nxt[1].genes == (0.0, 1.0) and nxt[1].fitness == 0.4
        assert nxt[0] is not population[1]  # clones, not aliases
        assert nxt[0].metrics == metrics()

    def test_offspring_arrive_unscored(self):
        population = scored([0.5, 0.2, 0.8, 0.1])
        config = GAConfig(populationSize=4, elitism=1)
        nxt = self.evolve(population, config)
        assert nxt[0].fitness is not None
        assert all(g.fitness is None for g in nxt[1:])

    def test_an_unscored_parent_is_an_error(self):
        population = [Genome(genes=(0.1, 0.2), fitness=0.5), Genome(genes=(0.3, 0.4)),
                      Genome(genes=(0.5, 0.6))]
        config = GAConfig(populationSize=3, elitism=1)
        with pytest.raises(ValueError, match=r"^genome 1 of the population has no fitness$"):
            self.evolve(population, config)

    def test_no_variation_copies_tournament_winners(self):
        population = scored([0.5, 0.2, 0.8, 0.1])
        parent_genes = {g.genes for g in population}
        config = GAConfig(populationSize=4, elitism=1, crossoverRate=0.0, mutationRate=0.0)
        nxt = self.evolve(population, config)
        assert all(g.genes in parent_genes for g in nxt)

    def test_crossover_of_identical_parents_is_identity(self):
        population = [Genome(genes=(1.0, 2.0, 3.0), fitness=0.5) for _ in range(4)]
        config = GAConfig(populationSize=4, elitism=1, crossoverRate=1.0, mutationRate=0.0)
        nxt = self.evolve(population, config)
        assert all(g.genes == (1.0, 2.0, 3.0) for g in nxt)

    def test_zero_sigma_mutation_changes_nothing(self):
        population = scored([0.5, 0.2, 0.8, 0.1])
        parent_genes = {g.genes for g in population}
        config = GAConfig(
            populationSize=4, elitism=1, crossoverRate=0.0,
            mutationRate=1.0, mutationSigma=0.0,
        )
        nxt = self.evolve(population, config)
        assert all(g.genes in parent_genes for g in nxt)

    def test_mutation_clamps_to_weight_limit(self):
        population = [Genome(genes=(0.0,) * 8, fitness=0.5) for _ in range(4)]
        config = GAConfig(
            populationSize=4, elitism=1, crossoverRate=0.0,
            mutationRate=1.0, mutationSigma=1000.0, weightLimit=5.0,
        )
        nxt = self.evolve(population, config)
        flat = [gene for g in nxt[1:] for gene in g.genes]
        assert all(-5.0 <= gene <= 5.0 for gene in flat)
        assert any(abs(gene) == 5.0 for gene in flat)  # sigma 1000 slams the rails

    def test_generation_stats_line_format(self):
        stats = GenerationStats(
            generation=3, best=0.5, mean=0.25, bestEnergy=0.1, bestPeople=1.0
        )
        assert stats.line() == "3 0.500000 0.250000 0.100000 1.000000"


def tiny_world(**kw):
    base = dict(
        gridWidth=3, gridHeight=3, wirelessRange=1, numPeople=2, maxTicks=15,
        ambientLight=0.05, lightBrightness=0.8, darkThreshold=0.15,
        rngSeed=3,
    )
    base.update(kw)
    return WorldConfig(**base)


def forbid_single_episodes(monkeypatch):
    """Make run_episode raise, through the world module and the name evolution imported."""
    def no_episode(*args, **kwargs):
        raise AssertionError("the observer ran a single episode")

    monkeypatch.setattr(evolution, "run_episode", no_episode)
    monkeypatch.setattr(world_module, "run_episode", no_episode)


def tiny_ga(**kw):
    base = dict(populationSize=4, generations=2, elitism=1, tournamentSize=2, rngSeed=5)
    base.update(kw)
    return GAConfig(**base)


class TestEvaluateSolution:
    def test_returns_report_and_metrics(self):
        report = evaluate_solution(
            tiny_world(numPeople=0, maxTicks=5),
            ALWAYS_ON_GENES,
            NetworkTopology(),
        )
        assert isinstance(report, FitnessReport)
        m = report.metrics
        assert m.pEnergy == 1.0
        assert report.fitness == pytest.approx(1.0 - 0.4)

    def test_publishes_full_protocol_in_order(self):
        with Broker() as broker:
            queue = broker.declare_queue("obs", ["OBSERVER.#"])
            evaluate_solution(
                tiny_world(numPeople=0, maxTicks=3),
                ALWAYS_ON_GENES,
                NetworkTopology(),
                broker,
            )
            broker.close()
            actions = drain_actions(queue)
        assert actions == [
            "chooseAdaptationMethod",
            "selectNeuralConfiguration",
            "useIndividualGenesToANN",
            "startExecutionWithControllerConfiguration",
            "readSimulationResults",
            "calculateEnergy",
            "calculatePeople",
            "calculateTripDuration",
            "achievePeopleTarget",  # empty world vacuously delivers everyone
            "calculateFitness",
        ]

    def test_global_machine_passes_on_successful_run(self):
        patterns = [
            "OBSERVER.*.startExecutionWithControllerConfiguration.#",
            "OBSERVER.*.readSimulationResults.#",
            "OBSERVER.*.calculateEnergy.#",
            "OBSERVER.*.achieveEnergyTarget.#",
            "OBSERVER.*.achievePeopleTarget.#",
            "OBSERVER.*.calculateFitness.#",
        ]
        case = TestCase(
            functionName="evaluate-solution",
            level="global",
            subLevel="mas",
            validationSequence=tuple(
                TransitionSpec(alternatives=(parse_binding_pattern(p),))
                for p in patterns
            ),
        )
        world = tiny_world(gridWidth=5, gridHeight=5, numPeople=3, maxTicks=60, rngSeed=1)
        with Broker() as broker:
            queue = broker.declare_queue("machine", patterns)
            report = evaluate_solution(
                world, ALWAYS_ON_GENES, NetworkTopology(), broker
            )
            broker.close()
            verdict = run(compile(case), queue)
        assert report.peopleTargetMet and report.energyTargetMet
        assert verdict.outcome == "pass"


class TestRunObserver:
    def count_evaluations(self, world, ga):
        with Broker() as broker:
            queue = broker.declare_queue(
                "starts", ["OBSERVER.*.startExecutionWithControllerConfiguration.#"]
            )
            result = run_observer(world, ga, broker=broker)
            broker.close()
            return result, len(drain_actions(queue))

    def test_episode_count_reflects_elite_caching(self):
        # gen 1 scores the full population, gen 2 only the offspring,
        # plus the winner's final evaluation, logged from its score
        result, starts = self.count_evaluations(
            tiny_world(), tiny_ga(populationSize=3, generations=2, elitism=1)
        )
        assert starts == 3 + 2 + 1
        assert len(result.history) == 2

    def test_single_generation_scores_population_once(self):
        result, starts = self.count_evaluations(
            tiny_world(), tiny_ga(populationSize=2, generations=1)
        )
        assert starts == 2 + 1

    def test_zero_generations_returns_best_of_initial(self):
        result, starts = self.count_evaluations(
            tiny_world(), tiny_ga(populationSize=3, generations=0)
        )
        assert starts == 3 + 1
        assert result.history == ()
        assert result.best.fitness is not None

    def test_single_member_population(self):
        result = run_observer(tiny_world(), tiny_ga(populationSize=1, elitism=1))
        assert len(result.history) == 2
        assert result.best.fitness is not None

    def test_history_file_matches_returned_stats(self, tmp_path, capsys):
        # evolve writes the .history file from the history run_observer returns
        world, ga = tiny_world(), tiny_ga(generations=3)
        files = {}
        for name, config in (("world.cfg", world), ("ga.cfg", ga)):
            files[name] = tmp_path / name
            files[name].write_text("".join(f"{f}={getattr(config, f)}\n"
                                           for f in config.__dataclass_fields__))
        genome = tmp_path / "genome.txt"
        assert main(["evolve", "--config", str(files["world.cfg"]),
                     "--ga-config", str(files["ga.cfg"]), "--genome", str(genome),
                     "--manifest", str(tmp_path / "manifest.txt")]) == 0
        capsys.readouterr()
        lines = (tmp_path / "genome.txt.history").read_text().splitlines()
        assert lines == [stats.line() for stats in run_observer(world, ga).history]
        assert len(lines) == 3

    def test_best_fitness_never_degrades_across_generations(self):
        result = run_observer(tiny_world(), tiny_ga(populationSize=6, generations=4))
        best = [stats.best for stats in result.history]
        assert best == sorted(best)

    def test_deterministic_for_fixed_seeds(self):
        a = run_observer(tiny_world(), tiny_ga())
        b = run_observer(tiny_world(), tiny_ga())
        assert a.best.genes == b.best.genes
        assert a.history == b.history
        assert a.finalReport == b.finalReport

    def test_final_report_confirms_cached_best_score(self, monkeypatch):
        # the final report is the winner's cached score, taken with no
        # further episode, so its fitness equals the cached one bit for bit
        forbid_single_episodes(monkeypatch)
        ga = tiny_ga(energyTarget=0.9)
        result = run_observer(tiny_world(), ga)
        assert result.finalReport.fitness == result.best.fitness
        assert result.finalReport == fitness(result.best.metrics, ga.energyTarget)
        assert result.finalReport.metrics is result.best.metrics

    def test_hidden_count_sets_genome_length(self):
        result = run_observer(tiny_world(), tiny_ga(generations=0, hiddenCount=2))
        assert len(result.best.genes) == NetworkTopology(hiddenCount=2).genomeLength

    def test_learning_machine_passes_on_observer_logs(self):
        patterns = [
            "OBSERVER.*.chooseAdaptationMethod.#",
            "OBSERVER.*.selectNeuralConfiguration.#",
            "OBSERVER.*.useIndividualGenesToANN.#",
            "OBSERVER.*.startExecutionWithControllerConfiguration.#",
        ]
        case = TestCase(
            functionName="change-neural-network",
            level="local",
            subLevel="learning",
            validationSequence=tuple(
                TransitionSpec(alternatives=(parse_binding_pattern(p),))
                for p in patterns
            ),
        )
        with Broker() as broker:
            queue = broker.declare_queue("machine", patterns)
            run_observer(tiny_world(), tiny_ga(populationSize=2, generations=1), broker=broker)
            broker.close()
            verdict = run(compile(case), queue)
        assert verdict.outcome == "pass"
        assert verdict.failedState is None

    def test_each_generation_is_scored_in_one_batch(self, monkeypatch):
        batches = []

        def recording(config, controllers, **kw):
            batches.append(len(controllers))
            return real(config, controllers, **kw)

        real = evolution.run_episodes
        monkeypatch.setattr(evolution, "run_episodes", recording)
        result, starts = self.count_evaluations(
            tiny_world(), tiny_ga(populationSize=5, generations=3, elitism=2)
        )
        # three generations (5, then 5 - 2 offspring twice); the winner's
        # final evaluation is logged from its score, with no episode
        assert batches == [5, 3, 3]
        assert starts == 5 + 3 + 3 + 1
        assert len(result.history) == 3


#: sha256 of the outputs of ``evolve --seed 1`` with the shipped GA config at
#: two generations, recorded with the one-genome-at-a-time observer
GOLDEN_EVOLVE = {
    "genome": "278ee554e2bc3823d493311fe6524e089a5078cced19952963d395f5a5b2c147",
    "history": "744534179317d4b22c603213113d26897d924cb12bb33f23b380a8a63beff59d",
    "tap": "49e7651afcd53ff7a72153b402a66cd9d9596047e7de65d9f15df769462acdef",
}


def test_evolve_outputs_are_unchanged(tmp_path, capsys, monkeypatch):
    # every genome is scored in a run_episodes batch, and the winner is not re-run
    forbid_single_episodes(monkeypatch)
    with open(data_path("ga.cfg"), encoding="utf-8") as fh:
        lines = [ln for ln in fh if not ln.startswith("generations")]
    ga = tmp_path / "ga.cfg"
    ga.write_text("".join(lines) + "generations=2\n")
    genome, tap = tmp_path / "genome.txt", tmp_path / "tap.log"
    code = main(["evolve", "--ga-config", str(ga), "--seed", "1", "--genome", str(genome),
                 "--tap", str(tap), "--manifest", str(tmp_path / "manifest.txt")])
    capsys.readouterr()
    assert code == 0
    digests = {
        name: hashlib.sha256(path.read_bytes()).hexdigest()
        for name, path in (("genome", genome), ("history", tmp_path / "genome.txt.history"),
                           ("tap", tap))
    }
    assert digests == GOLDEN_EVOLVE


def test_scoring_and_breeding_take_no_logging_arguments():
    # the observer logs around them; they only compute
    assert list(inspect.signature(fitness).parameters) == ["metrics", "energy_target"]
    assert list(inspect.signature(evolve_generation).parameters) == [
        "population", "config", "rng"]
    assert list(inspect.signature(evaluate_solution).parameters) == [
        "world_config", "genes", "topology", "broker", "faults", "stats"]
    # the observer returns its history and writes no file; evolve writes it
    assert list(inspect.signature(run_observer).parameters) == [
        "world_config", "ga_config", "broker"]


def test_evolve_publishes_each_tap_line_once(tmp_path, capsys, monkeypatch):
    # the observer's events go through Broker.publish one by one, never as a batch
    calls = []
    publish = Broker.publish

    def counted(self, event):
        calls.append(event.action)
        return publish(self, event)

    def no_batches(self, batch):
        raise AssertionError("evolve published a batch")

    # the events each observer log call publishes
    sizes = []
    publish_logs = evolution._publish

    def sized(broker, logs):
        sizes.append(len(logs))
        return publish_logs(broker, logs)

    monkeypatch.setattr(Broker, "publish", counted)
    monkeypatch.setattr(Broker, "_publish_batch", no_batches)
    monkeypatch.setattr(evolution, "_publish", sized)
    world, ga, tap = tmp_path / "world.cfg", tmp_path / "ga.cfg", tmp_path / "tap.log"
    manifest = tmp_path / "manifest.txt"
    world.write_text("gridWidth=3\ngridHeight=3\nnumPeople=2\nmaxTicks=15\n")
    ga.write_text("populationSize=3\ngenerations=2\nelitism=1\n")
    code = main(["evolve", "--config", str(world), "--ga-config", str(ga),
                 "--genome", str(tmp_path / "genome.txt"), "--tap", str(tap),
                 "--manifest", str(manifest)])
    capsys.readouterr()
    assert code == 0
    events = load_tap(tap)
    assert calls == [event.action for event in events]
    # three genomes, two offspring, the winner's confirmation, and one generation step
    assert calls.count("calculateFitness") == 3 + 2 + 1
    assert calls.count("startGeneticAlgorithm") == 1
    # the manifest counts the events Broker.publish was called with
    assert f"stats.events_published: {len(calls)}" in manifest.read_text().splitlines()
    # timestamps strictly increase, and each log call's events take consecutive ones
    stamps = [event.timestamp for event in events]
    assert all(a < b for a, b in zip(stamps, stamps[1:]))
    assert sum(sizes) == len(stamps) and all(sizes)
    start = 0
    for size in sizes:
        group = stamps[start:start + size]
        assert group == list(range(group[0], group[0] + size))
        start += size


#: sha256 of the genome, .history and stdout of the shipped 30-generation
#: ``evolve --seed <n>``, recorded with every silent episode stepped to maxTicks
GOLDEN_EVOLVE_SHIPPED = {
    1: {
        "genome": "278ee554e2bc3823d493311fe6524e089a5078cced19952963d395f5a5b2c147",
        "history": "5336c375c8016c83ce3a7105a4c1dcddd0f68fdecc9d69159893fa25ba80b0be",
        "stdout": "a24c5563b9d3141a34a4b464e56ebcd7c947869cd3576bcb655a35f62de7e0b2",
    },
    3: {
        "genome": "5189f35703d0c058deadbfa5ec8ef3e4b8873812b32000c2919448bd8b879c15",
        "history": "28958087b88950d3d34c3db8654b6b7bbaf1bdaa4fff1fea99630160d60d789a",
        "stdout": "a24c5563b9d3141a34a4b464e56ebcd7c947869cd3576bcb655a35f62de7e0b2",
    },
}


@pytest.mark.parametrize("seed", sorted(GOLDEN_EVOLVE_SHIPPED))
def test_shipped_evolve_outputs_are_unchanged(tmp_path, capsys, seed):
    genome = tmp_path / "genome.txt"
    code = main(["evolve", "--seed", str(seed), "--genome", str(genome),
                 "--manifest", str(tmp_path / "manifest.txt")])
    stdout = capsys.readouterr().out
    assert code == 0
    digests = {
        "genome": hashlib.sha256(genome.read_bytes()).hexdigest(),
        "history": hashlib.sha256((tmp_path / "genome.txt.history").read_bytes()).hexdigest(),
        "stdout": hashlib.sha256(stdout.encode()).hexdigest(),
    }
    assert digests == GOLDEN_EVOLVE_SHIPPED[seed]
