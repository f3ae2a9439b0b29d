"""Observer-side learning: a genetic algorithm over controller genomes.

The observer evaluates each genome with one silent episode on a fixed world
seed (deterministic fitness), logs its protocol through the broker, and
evolves the population by elitism, tournament selection, single-point
crossover, and clamped Gaussian mutation.  Fitness rewards finished
pedestrians and penalizes trip time and energy:

    fitness = 1.0 * pPeople - 0.6 * pTrip - 0.4 * pEnergy
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .broker import AgentPublisher, Broker
from .neural import GenomeShapeMismatch, NetworkTopology, decode
from .world import (
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
#: most hidden neurons a GAConfig's controllers may have
MAX_HIDDEN = 100
#: most hidden activations (populationSize x lights x hiddenCount) the batch
#: of a generation may compute each tick: 2**24 float64 values, 128 MB
MAX_BATCH_ACTIVATIONS = 2 ** 24


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
        if self.generations < 0:
            raise InvalidConfig("generations must be >= 0")
        if self.populationSize == 1:
            # degenerate single-elite population is allowed
            if self.elitism != 1:
                raise InvalidConfig("populationSize 1 requires elitism 1")
        elif not 0 < self.elitism < self.populationSize:
            raise InvalidConfig("elitism must satisfy 0 < elitism < populationSize")
        if self.tournamentSize < 1:
            raise InvalidConfig("tournamentSize must be positive")
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


def fitness(
    metrics: EpisodeMetrics,
    energy_target: float = DEFAULT_ENERGY_TARGET,
    publisher: AgentPublisher | None = None,
) -> FitnessReport:
    """Score one episode and check both solution targets.

    When a publisher is given, emits the evaluation log protocol: the three
    calculate logs, the achieve logs for whichever targets were met, then
    calculateFitness.
    """
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
    energy_met = metrics.pEnergy < energy_target
    people_met = metrics.pPeople == 1.0
    if publisher is not None:
        publisher.log(
            "calculateEnergy",
            sourceUnit="Observer", sourceOperation="evaluate", sourceLine=120,
            resource="simulationResults", message=f"energy={metrics.pEnergy:.6f}",
        )
        publisher.log(
            "calculatePeople",
            sourceUnit="Observer", sourceOperation="evaluate", sourceLine=123,
            resource="simulationResults", message=f"people={metrics.pPeople:.6f}",
        )
        publisher.log(
            "calculateTripDuration",
            sourceUnit="Observer", sourceOperation="evaluate", sourceLine=126,
            resource="simulationResults", message=f"trip={metrics.pTrip:.6f}",
        )
        if energy_met:
            publisher.log(
                "achieveEnergyTarget",
                sourceUnit="Observer", sourceOperation="evaluate", sourceLine=130,
                resource="simulationResults",
                message=f"energy {metrics.pEnergy:.6f} < {energy_target:.2f}",
            )
        if people_met:
            publisher.log(
                "achievePeopleTarget",
                sourceUnit="Observer", sourceOperation="evaluate", sourceLine=133,
                resource="simulationResults", message="everyone finished",
            )
        publisher.log(
            "calculateFitness",
            sourceUnit="Observer", sourceOperation="evaluate", sourceLine=137,
            resource="simulationResults", message=f"fitness={score:.6f}",
        )
    return FitnessReport(
        metrics=metrics,
        fitness=score,
        energyTargetMet=energy_met,
        peopleTargetMet=people_met,
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
    evaluator,
    config: GAConfig,
    rng: random.Random,
    publisher: AgentPublisher | None = None,
) -> list[Genome]:
    """Produce the next population: elites survive, offspring fill the rest."""
    for genome in population:
        if genome.fitness is None:
            evaluator(genome)
    if publisher is not None:
        publisher.log(
            "startGeneticAlgorithm",
            sourceUnit="Observer", sourceOperation="evolve", sourceLine=150,
            resource="population", message=f"population={len(population)}",
        )
    elite_idx = pick_elites(population, config.elitism)
    if publisher is not None:
        publisher.log(
            "selectBestIndividuals",
            sourceUnit="Observer", sourceOperation="evolve", sourceLine=154,
            resource="population", message=f"elites={len(elite_idx)}",
        )
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


def _observer(broker: Broker | None) -> AgentPublisher | None:
    if broker is None:
        return None
    return broker.publisher("OBSERVER", "observer01")


def _publish_evaluation_prologue(publisher: AgentPublisher | None, topology: NetworkTopology,
                                 world_config: WorldConfig) -> None:
    if publisher is None:
        return
    publisher.log(
        "chooseAdaptationMethod",
        sourceUnit="Observer", sourceOperation="adapt", sourceLine=96,
        resource="adaptationMethod", message="neuroevolution",
    )
    publisher.log(
        "selectNeuralConfiguration",
        sourceUnit="Observer", sourceOperation="adapt", sourceLine=99,
        resource="neuralController",
        message=f"topology={topology.inputCount}-{topology.hiddenCount}-{topology.outputCount}",
    )
    publisher.log(
        "useIndividualGenesToANN",
        sourceUnit="Observer", sourceOperation="adapt", sourceLine=103,
        resource="neuralController", message=f"genes={topology.genomeLength}",
    )
    publisher.log(
        "startExecutionWithControllerConfiguration",
        sourceUnit="Observer", sourceOperation="evaluate", sourceLine=110,
        resource="simulation", message=f"seed={world_config.rngSeed}",
    )


def _publish_results(publisher: AgentPublisher | None, metrics: EpisodeMetrics,
                     energy_target: float) -> FitnessReport:
    """Log readSimulationResults, then score the episode under the fitness protocol."""
    if publisher is not None:
        publisher.log(
            "readSimulationResults",
            sourceUnit="Observer", sourceOperation="evaluate", sourceLine=115,
            resource="simulationResults",
            message=(
                f"pPeople={metrics.pPeople:.6f} pTrip={metrics.pTrip:.6f} "
                f"pEnergy={metrics.pEnergy:.6f}"
            ),
        )
    return fitness(metrics, energy_target, publisher)


def evaluate_solution(
    world_config: WorldConfig,
    genes,
    topology: NetworkTopology,
    broker: Broker | None = None,
    *,
    faults=(),
    energy_target: float = DEFAULT_ENERGY_TARGET,
    world_logs: bool = True,
    episode_tag: str | None = None,
) -> tuple[FitnessReport, EpisodeMetrics]:
    """Run one episode under the full observer evaluation protocol.

    This is the global-evaluation sequence: prologue logs, the episode, then
    readSimulationResults and the fitness protocol.  ``world_logs`` controls
    whether the simulation itself publishes (test mode) or stays silent
    (learning mode).
    """
    publisher = _observer(broker)
    controller = decode(genes, topology)
    _publish_evaluation_prologue(publisher, topology, world_config)
    metrics = run_episode(
        world_config,
        controller,
        broker if world_logs else None,
        faults=faults,
        episode_tag=episode_tag,
    )
    return _publish_results(publisher, metrics, energy_target), metrics


def run_observer(
    world_config: WorldConfig,
    ga_config: GAConfig,
    topology: NetworkTopology | None = None,
    broker: Broker | None = None,
    history_path: str | None = None,
) -> ObserverResult:
    """Evolve controllers for the world and re-evaluate the winner.

    Every genome is scored with one silent episode on the world seed from
    ``world_config`` (fixed for the whole run, so fitness values stay
    comparable and elite scores never go stale); a generation's unscored
    genomes run together in one run_episodes call.  After the last generation
    the best genome is re-run once with the full evaluation protocol.
    A world and GA config whose batch would exceed MAX_BATCH_ACTIVATIONS
    raise InvalidConfig before anything runs.  Returns the best genome,
    per-generation stats, and the final report.
    """
    if topology is None:
        topology = NetworkTopology(hiddenCount=ga_config.hiddenCount)
    if topology.genomeLength < 1:
        raise GenomeShapeMismatch("degenerate topology")
    lights = world_config.gridWidth * world_config.gridHeight
    activations = ga_config.populationSize * lights * topology.hiddenCount
    if activations > MAX_BATCH_ACTIVATIONS:
        raise InvalidConfig(
            f"populationSize {ga_config.populationSize} x {lights} lights x hiddenCount "
            f"{topology.hiddenCount} makes {activations} hidden activations a tick, "
            f"more than {MAX_BATCH_ACTIVATIONS}")
    publisher = _observer(broker)
    rng = random.Random(ga_config.rngSeed)

    def score(genomes: list[Genome]) -> None:
        # one batched silent episode for every unscored genome; the observer
        # then logs each evaluation in population order, as if run one by one
        unscored = [g for g in genomes if g.fitness is None]
        controllers = [decode(g.genes, topology) for g in unscored]
        for genome, metrics in zip(unscored, run_episodes(world_config, controllers)):
            _publish_evaluation_prologue(publisher, topology, world_config)
            report = _publish_results(publisher, metrics, ga_config.energyTarget)
            genome.fitness = report.fitness
            genome.metrics = metrics

    population = initial_population(ga_config, topology, rng)
    history: list[GenerationStats] = []
    history_file = open(history_path, "w", encoding="utf-8") if history_path else None
    try:
        if ga_config.generations == 0:
            score(population)
        for generation in range(1, ga_config.generations + 1):
            score(population)
            best_idx = pick_elites(population, 1)[0]
            stats = GenerationStats(
                generation=generation,
                best=population[best_idx].fitness,
                mean=sum(g.fitness for g in population) / len(population),
                bestEnergy=population[best_idx].metrics.pEnergy,
                bestPeople=population[best_idx].metrics.pPeople,
            )
            history.append(stats)
            if history_file is not None:
                history_file.write(stats.line() + "\n")
            if generation < ga_config.generations:
                population = evolve_generation(
                    population, lambda genome: score([genome]), ga_config, rng, publisher
                )
    finally:
        if history_file is not None:
            history_file.close()

    best = population[pick_elites(population, 1)[0]]
    final_report, _ = evaluate_solution(
        world_config,
        best.genes,
        topology,
        broker,
        energy_target=ga_config.energyTarget,
        world_logs=False,
    )
    return ObserverResult(best=best, history=tuple(history), finalReport=final_report)
