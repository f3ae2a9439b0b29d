"""Observer-side learning: a genetic algorithm over controller genomes.

The observer scores each genome once, with one silent episode on a fixed
world seed (deterministic fitness), and evolves the population by elitism,
tournament selection, single-point crossover, and clamped Gaussian
mutation; the winner's final evaluation is logged from its score, not
re-run.  Fitness rewards finished pedestrians and penalizes trip time and
energy:

    fitness = 1.0 * pPeople - 0.6 * pTrip - 0.4 * pEnergy

``fitness`` and ``evolve_generation`` only compute; the observer logs.  Its
13 log sites are declared once in ``_OBSERVER_SITES`` and their keys are
interned once per process.  Each evaluation's protocol is built as a list of
(action, message) pairs, the prologue before the episode and the results
after it, and ``_publish`` sends each pair as one ``Broker.publish``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cache

from .broker import Broker
from .logmodel import RoutingKey, intern_sites, keyed_event
from .neural import INPUTS, MAX_HIDDEN, OUTPUTS, NetworkTopology, decode
from .world import (
    ControllerBatch,
    EpisodeMetrics,
    InvalidConfig,
    WorldConfig,
    check_finite_fields,
    load_config,
    run_episode,
    run_episodes,
)

FITNESS_WEIGHT_PEOPLE = 1.0
FITNESS_WEIGHT_TRIP = 0.6
FITNESS_WEIGHT_ENERGY = 0.4

DEFAULT_ENERGY_TARGET = 0.70

#: largest GAConfig population, scored as a batch of one row per genome
MAX_POPULATION = 1_000
#: most generations a GAConfig may evolve; evolve prints nothing until the last
MAX_GENERATIONS = 10_000

#: every logged action of the observer, agent OBSERVER.observer01:
#: action -> (sourceUnit, sourceOperation, sourceLine, resource)
_OBSERVER_SITES = {
    "chooseAdaptationMethod": ("Observer", "adapt", 96, "adaptationMethod"),
    "selectNeuralConfiguration": ("Observer", "adapt", 99, "neuralController"),
    "useIndividualGenesToANN": ("Observer", "adapt", 103, "neuralController"),
    "startExecutionWithControllerConfiguration": ("Observer", "evaluate", 110, "simulation"),
    "readSimulationResults": ("Observer", "evaluate", 115, "simulationResults"),
    "calculateEnergy": ("Observer", "evaluate", 120, "simulationResults"),
    "calculatePeople": ("Observer", "evaluate", 123, "simulationResults"),
    "calculateTripDuration": ("Observer", "evaluate", 126, "simulationResults"),
    "achieveEnergyTarget": ("Observer", "evaluate", 130, "simulationResults"),
    "achievePeopleTarget": ("Observer", "evaluate", 133, "simulationResults"),
    "calculateFitness": ("Observer", "evaluate", 137, "simulationResults"),
    "startGeneticAlgorithm": ("Observer", "evolve", 150, "population"),
    "selectBestIndividuals": ("Observer", "evolve", 154, "population"),
}


class MetricsOutOfRange(ValueError):
    """An episode metric fell outside [0, 1]."""


@dataclass(frozen=True, slots=True)
class GAConfig:
    populationSize: int = 40
    generations: int = 30
    elitism: int = 2
    tournamentSize: int = 3
    crossoverRate: float = 0.8
    mutationRate: float = 0.05
    mutationSigma: float = 0.3
    weightLimit: float = 5.0
    hiddenCount: int = 4
    energyTarget: float = DEFAULT_ENERGY_TARGET
    rngSeed: int = 1

    def __post_init__(self):
        check_finite_fields(self)
        if not 1 <= self.populationSize <= MAX_POPULATION:
            raise InvalidConfig(
                f"populationSize must be in [1,{MAX_POPULATION}], got {self.populationSize}")
        if not 0 <= self.generations <= MAX_GENERATIONS:
            raise InvalidConfig(
                f"generations must be in [0,{MAX_GENERATIONS}], got {self.generations}")
        if self.populationSize == 1:
            # degenerate single-elite population is allowed
            if self.elitism != 1:
                raise InvalidConfig("populationSize 1 requires elitism 1")
        elif not 0 < self.elitism < self.populationSize:
            raise InvalidConfig("elitism must satisfy 0 < elitism < populationSize")
        if not 1 <= self.tournamentSize <= MAX_POPULATION:
            raise InvalidConfig(
                f"tournamentSize must be in [1,{MAX_POPULATION}], got {self.tournamentSize}")
        for name in ("crossoverRate", "mutationRate"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise InvalidConfig(f"{name} must be in [0,1], got {v}")
        if self.mutationSigma < 0:
            raise InvalidConfig("mutationSigma must be >= 0")
        if self.weightLimit <= 0:
            raise InvalidConfig("weightLimit must be positive")
        if not 1 <= self.hiddenCount <= MAX_HIDDEN:
            raise InvalidConfig(f"hiddenCount must be in [1,{MAX_HIDDEN}], got {self.hiddenCount}")
        if not 0.0 < self.energyTarget <= 1.0:
            raise InvalidConfig("energyTarget must be in (0,1]")


def load_ga_config(path) -> GAConfig:
    """Read a GA config file; keys are the GAConfig fields."""
    return load_config(GAConfig, path)


@dataclass(slots=True)
class Genome:
    genes: tuple[float, ...]
    fitness: float | None = None
    metrics: EpisodeMetrics | None = None


@dataclass(frozen=True, slots=True)
class FitnessReport:
    metrics: EpisodeMetrics
    fitness: float
    energyTargetMet: bool
    peopleTargetMet: bool


def fitness(metrics: EpisodeMetrics, energy_target: float = DEFAULT_ENERGY_TARGET) -> FitnessReport:
    """Score one episode and check both solution targets."""
    for name, value in (
        ("pPeople", metrics.pPeople),
        ("pTrip", metrics.pTrip),
        ("pEnergy", metrics.pEnergy),
    ):
        if not 0.0 <= value <= 1.0:
            raise MetricsOutOfRange(f"{name} must be in [0,1], got {value}")
    score = (
        FITNESS_WEIGHT_PEOPLE * metrics.pPeople
        - FITNESS_WEIGHT_TRIP * metrics.pTrip
        - FITNESS_WEIGHT_ENERGY * metrics.pEnergy
    )
    return FitnessReport(
        metrics=metrics,
        fitness=score,
        energyTargetMet=metrics.pEnergy < energy_target,
        peopleTargetMet=metrics.pPeople == 1.0,
    )


def initial_population(config: GAConfig, topology: NetworkTopology, rng: random.Random) -> list[Genome]:
    """Seeded random genomes, genes uniform in [-1, 1]."""
    length = topology.genomeLength
    return [
        Genome(genes=tuple(rng.uniform(-1.0, 1.0) for _ in range(length)))
        for _ in range(config.populationSize)
    ]


def pick_elites(population: list[Genome], count: int) -> list[int]:
    """Indices of the best ``count`` genomes; ties go to the lower index."""
    order = sorted(range(len(population)), key=lambda i: (-population[i].fitness, i))
    return order[:count]


def tournament_select(population: list[Genome], size: int, rng: random.Random) -> Genome:
    contenders = [rng.randrange(len(population)) for _ in range(size)]
    best = min(contenders, key=lambda i: (-population[i].fitness, i))
    return population[best]


def _crossover(a: tuple[float, ...], b: tuple[float, ...], rng: random.Random) -> tuple[float, ...]:
    if len(a) < 2:
        return a
    cut = rng.randrange(1, len(a))
    return a[:cut] + b[cut:]


def _mutate(genes: tuple[float, ...], config: GAConfig, rng: random.Random) -> tuple[float, ...]:
    limit = config.weightLimit
    out = []
    for gene in genes:
        if rng.random() < config.mutationRate:
            gene = gene + rng.gauss(0.0, config.mutationSigma)
            gene = max(-limit, min(limit, gene))
        out.append(gene)
    return tuple(out)


def evolve_generation(
    population: list[Genome],
    config: GAConfig,
    rng: random.Random,
) -> list[Genome]:
    """Produce the next population: elites survive, offspring fill the rest.

    Every genome must be scored; the first without a fitness raises ValueError.
    """
    for i, genome in enumerate(population):
        if genome.fitness is None:
            raise ValueError(f"genome {i} of the population has no fitness")
    elite_idx = pick_elites(population, config.elitism)
    next_pop = [
        Genome(genes=population[i].genes, fitness=population[i].fitness,
               metrics=population[i].metrics)
        for i in elite_idx
    ]
    while len(next_pop) < config.populationSize:
        parent_a = tournament_select(population, config.tournamentSize, rng)
        parent_b = tournament_select(population, config.tournamentSize, rng)
        if rng.random() < config.crossoverRate:
            child = _crossover(parent_a.genes, parent_b.genes, rng)
        else:
            child = parent_a.genes
        next_pop.append(Genome(genes=_mutate(child, config, rng)))
    return next_pop


@dataclass(frozen=True, slots=True)
class GenerationStats:
    generation: int
    best: float
    mean: float
    bestEnergy: float
    bestPeople: float

    def line(self) -> str:
        return (
            f"{self.generation} {self.best:.6f} {self.mean:.6f} "
            f"{self.bestEnergy:.6f} {self.bestPeople:.6f}"
        )


@dataclass(frozen=True, slots=True)
class ObserverResult:
    best: Genome
    history: tuple[GenerationStats, ...]
    finalReport: FitnessReport


def _prologue(topology: NetworkTopology, world_config: WorldConfig) -> list[tuple[str, str]]:
    """The (action, message) logs that open an evaluation, before its episode."""
    return [
        ("chooseAdaptationMethod", "neuroevolution"),
        ("selectNeuralConfiguration",
         f"topology={INPUTS}-{topology.hiddenCount}-{OUTPUTS}"),
        ("useIndividualGenesToANN", f"genes={topology.genomeLength}"),
        ("startExecutionWithControllerConfiguration", f"seed={world_config.rngSeed}"),
    ]


def _results(report: FitnessReport, energy_target: float) -> list[tuple[str, str]]:
    """The (action, message) logs that close an evaluation, after its episode."""
    m = report.metrics
    logs = [
        ("readSimulationResults",
         f"pPeople={m.pPeople:.6f} pTrip={m.pTrip:.6f} pEnergy={m.pEnergy:.6f}"),
        ("calculateEnergy", f"energy={m.pEnergy:.6f}"),
        ("calculatePeople", f"people={m.pPeople:.6f}"),
        ("calculateTripDuration", f"trip={m.pTrip:.6f}"),
    ]
    if report.energyTargetMet:
        logs.append(("achieveEnergyTarget", f"energy {m.pEnergy:.6f} < {energy_target:.2f}"))
    if report.peopleTargetMet:
        logs.append(("achievePeopleTarget", "everyone finished"))
    logs.append(("calculateFitness", f"fitness={report.fitness:.6f}"))
    return logs


@cache
def _observer_keys() -> dict[str, RoutingKey]:
    """The observer's interned event keys, by action; built once per process."""
    return intern_sites("OBSERVER", "observer01", _OBSERVER_SITES)


def _publish(broker: Broker | None, logs: list[tuple[str, str]]) -> None:
    """Publish each (action, message) as an observer event, one Broker.publish each.

    The events take consecutive timestamps, reserved from the clock at once.
    """
    if broker is None:
        return
    keys, timestamp = _observer_keys(), broker.clock.reserve(len(logs))
    for action, message in logs:
        broker.publish(keyed_event(keys[action], timestamp, message))
        timestamp += 1


def evaluate_solution(
    world_config: WorldConfig,
    genes,
    topology: NetworkTopology,
    broker: Broker | None = None,
    *,
    faults=(),
    stats: dict | None = None,
) -> FitnessReport:
    """Run one logged episode under the full observer evaluation protocol.

    This is the global-evaluation sequence a test plan judges: prologue
    logs, the episode publishing to the same broker, then
    readSimulationResults and the fitness protocol against
    DEFAULT_ENERGY_TARGET.  Returns the episode's FitnessReport, which
    holds its metrics.  ``stats`` gets the episode's tick counts
    (run_episode).
    """
    controller = decode(genes, topology)
    _publish(broker, _prologue(topology, world_config))
    report = fitness(run_episode(world_config, controller, broker, faults=faults, stats=stats))
    _publish(broker, _results(report, DEFAULT_ENERGY_TARGET))
    return report


def run_observer(
    world_config: WorldConfig,
    ga_config: GAConfig,
    broker: Broker | None = None,
) -> ObserverResult:
    """Evolve controllers for the world and report the winner.

    Every genome is scored once, with one silent episode on the world seed
    from ``world_config`` (fixed for the whole run, so fitness values stay
    comparable and elite scores never go stale); a population's unscored
    genomes run together in one run_episodes call, in chunks if its tick
    would pass TICK_BYTES.  After the last generation the observer logs the
    best genome's evaluation protocol once more, from the score it already
    has.  Returns the best genome, per-generation stats, and the final report.
    """
    topology = NetworkTopology(hiddenCount=ga_config.hiddenCount)
    rng = random.Random(ga_config.rngSeed)
    prologue = _prologue(topology, world_config)

    def score(genomes: list[Genome]) -> None:
        # one batched silent episode for every unscored genome; the observer
        # then logs each evaluation in population order, as if run one by one
        unscored = [g for g in genomes if g.fitness is None]
        if not unscored:  # a population of one elite, scored in an earlier generation
            return
        batch = ControllerBatch.from_genes([g.genes for g in unscored], topology)
        for genome, metrics in zip(unscored, run_episodes(world_config, batch)):
            report = fitness(metrics, ga_config.energyTarget)
            _publish(broker, prologue + _results(report, ga_config.energyTarget))
            genome.fitness = report.fitness
            genome.metrics = metrics

    population = initial_population(ga_config, topology, rng)
    history: list[GenerationStats] = []
    score(population)
    for generation in range(1, ga_config.generations + 1):
        best_idx = pick_elites(population, 1)[0]
        history.append(GenerationStats(
            generation=generation,
            best=population[best_idx].fitness,
            mean=sum(g.fitness for g in population) / len(population),
            bestEnergy=population[best_idx].metrics.pEnergy,
            bestPeople=population[best_idx].metrics.pPeople,
        ))
        if generation < ga_config.generations:
            _publish(broker, [("startGeneticAlgorithm", f"population={len(population)}"),
                              ("selectBestIndividuals", f"elites={ga_config.elitism}")])
            population = evolve_generation(population, ga_config, rng)
            score(population)

    best = population[pick_elites(population, 1)[0]]
    final_report = fitness(best.metrics, ga_config.energyTarget)
    _publish(broker, prologue + _results(final_report, ga_config.energyTarget))
    return ObserverResult(best=best, history=tuple(history), finalReport=final_report)
