"""Discrete-time streetlight neighborhood with logging agents.

Lights sit on a rectangular grid with 4-neighbor adjacency, one per node,
each wrapping an ambient-light sensor, a motion sensor, a wireless
transceiver, and a binary lamp.  Pedestrians walk seeded shortest-path
routes between border nodes and advance only when their current and next
nodes are lit above the dark threshold.  Every agent action is published as
a LogEvent when a broker is attached; without one the same simulation runs
silently, which is what the learning loop uses.

Each tick raises the event-clock floor by one tick's worth of microseconds,
so ``timestamp // TICK_US`` recovers the tick an event was published on and
test machines can measure timeouts in virtual time.

Two engines run the same simulation.  With a broker attached, the world
steps light by light (``init_world`` + ``step_world``), which gives every
published event its exact place.  Silent episodes run on ``run_episodes``,
which steps a whole batch of controllers at once on (controllers, lights)
arrays and returns the same metrics bit for bit.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field, replace

import numpy as np

from .broker import Broker, PublishReceipt
from .logmodel import TICK_US, EventKey, event_key, keyed_event
from .neural import NeuralController, decode

FAULT_GO_DARK = "go-dark"
FAULT_SENSOR_STUCK = "sensor-stuck"
FAULT_MUTE_WIRELESS = "mute-wireless"
FAULT_SKIP_HANDSHAKE = "skip-handshake"
FAULT_KINDS = (
    FAULT_GO_DARK,
    FAULT_SENSOR_STUCK,
    FAULT_MUTE_WIRELESS,
    FAULT_SKIP_HANDSHAKE,
)

#: largest grid a WorldConfig accepts, in lights
MAX_LIGHTS = 10_000

#: stands for each light's own id in _LOG_SITES
_LIGHT = None

#: every logged action of the world, by (agentType, agent):
#: action -> (sourceUnit, sourceOperation, sourceLine, resource)
_LOG_SITES = {
    ("MANAGER", "manager01"): {
        "receiveMsgFromSmartThing": ("Manager", "handleSmartThing", 31, "smartThing"),
        "createAdaptiveAgent": ("Manager", "createAgent", 38, "adaptiveAgent"),
        "sendMsgToSmartThing": ("Manager", "handleSmartThing", 46, "smartThing"),
    },
    ("AdaptiveAgent", "lightsAgent"): {
        "connect": ("AdaptiveAgent", "connect", 52, "system"),
        "receiveInputDataFromSmartThing": ("AdaptiveAgent", "collectData", 61, "msgAdaptiveAgent"),
        "useControllerToGetOutput": ("AdaptiveAgent", "makeDecision", 67, "neuralController"),
        "sendOutputToSmartThing": ("AdaptiveAgent", "takeAction", 73, "msgSmartThing"),
    },
    ("lightContainer", _LIGHT): {
        "receiveWirelessData": ("Light", "sense", 40, "wirelessReceiver"),
        "readLightSensor": ("Light", "sense", 42, "lightSensor"),
        "readMotionSensor": ("Light", "sense", 44, "motionSensor"),
        "sendMsg": ("Light", "sense", 47, "msgAdaptiveAgent"),
        "receiveNeuralNetworkCommand": ("Light", "act", 55, "neuralCommand"),
        "switchLightON": ("Light", "act", 58, "lightActuator"),
        "switchLightOFF": ("Light", "act", 58, "lightActuator"),
        "sendWirelessData": ("Light", "act", 61, "wirelessTransmitter"),
        "detectLight": ("Light", "act", 64, "lightSensor"),
    },
    ("lightContainer", "lights"): {
        "finishSimulation": ("Simulation", "finish", 9, "simulation"),
    },
}


class WorldError(Exception):
    """Base class for simulation errors."""


class InvalidConfig(WorldError):
    """A world configuration value is out of range or unparseable."""


class UnknownFault(WorldError):
    """Fault kind is not one of FAULT_KINDS."""


class UnknownTarget(WorldError):
    """Fault spec names a light that does not exist."""


@dataclass(frozen=True, slots=True)
class WorldConfig:
    gridWidth: int = 5
    gridHeight: int = 5
    wirelessRange: int = 1
    numPeople: int = 5
    maxTicks: int = 200
    ambientLight: float = 0.05
    lightBrightness: float = 0.8
    darkThreshold: float = 0.15
    energyPerTickOn: float = 1.0
    rngSeed: int = 1

    def __post_init__(self):
        check_finite_fields(self, _FLOAT_FIELDS)
        if self.gridWidth < 1 or self.gridHeight < 1:
            raise InvalidConfig("grid dimensions must be positive")
        if self.gridWidth * self.gridHeight > MAX_LIGHTS:
            raise InvalidConfig(
                f"grid {self.gridWidth}x{self.gridHeight} has more than {MAX_LIGHTS} lights"
            )
        if self.wirelessRange < 0:
            raise InvalidConfig("wirelessRange must be >= 0")
        if self.numPeople < 0:
            raise InvalidConfig("numPeople must be >= 0")
        if self.maxTicks < 1:
            raise InvalidConfig("maxTicks must be positive")
        for name in ("ambientLight", "lightBrightness", "darkThreshold"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise InvalidConfig(f"{name} must be in [0,1], got {v}")
        if self.darkThreshold >= self.lightBrightness:
            raise InvalidConfig("darkThreshold must be below lightBrightness")
        if self.energyPerTickOn <= 0:
            raise InvalidConfig("energyPerTickOn must be positive")


_INT_FIELDS = ("gridWidth", "gridHeight", "wirelessRange", "numPeople", "maxTicks", "rngSeed")
_FLOAT_FIELDS = ("ambientLight", "lightBrightness", "darkThreshold", "energyPerTickOn")


def check_finite_fields(config, names) -> None:
    """Raise InvalidConfig naming the first of ``names`` that is NaN or infinite."""
    for name in names:
        value = getattr(config, name)
        if not math.isfinite(value):
            raise InvalidConfig(f"{name} must be a finite number, got {value}")


def load_world_config(path) -> WorldConfig:
    """Read a flat key=value config file; keys are the WorldConfig fields."""
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        try:
            lines = fh.readlines()
        except UnicodeDecodeError as exc:
            raise InvalidConfig(f"config {path} is not UTF-8 text: {exc.reason}") from None
        for lineno, raw in enumerate(lines, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise InvalidConfig(f"line {lineno}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            value = value.strip()
            try:
                if key in _INT_FIELDS:
                    values[key] = int(value)
                elif key in _FLOAT_FIELDS:
                    values[key] = float(value)
                else:
                    raise InvalidConfig(f"line {lineno}: unknown key {key!r}")
            except ValueError:
                raise InvalidConfig(f"line {lineno}: bad value for {key}: {value!r}") from None
    return WorldConfig(**values)


@dataclass(frozen=True, slots=True)
class SensorFrame:
    lightLevel: float
    motionDetected: bool
    wirelessIn: float


@dataclass(frozen=True, slots=True)
class FaultSpec:
    kind: str
    targets: tuple[str, ...]


def parse_fault_spec(text: str) -> FaultSpec:
    """Parse ``<kind>:<lightId>[,<lightId>...]`` fault syntax."""
    kind, sep, rest = text.partition(":")
    if not sep or not rest:
        raise UnknownFault(f"expected <kind>:<lightId>[,...], got {text!r}")
    if kind not in FAULT_KINDS:
        raise UnknownFault(f"unknown fault kind {kind!r}, expected one of {FAULT_KINDS}")
    targets = tuple(t for t in rest.split(",") if t)
    if not targets:
        raise UnknownFault(f"fault {kind!r} names no targets")
    return FaultSpec(kind=kind, targets=targets)


@dataclass(slots=True)
class Streetlight:
    id: str
    position: tuple[int, int]
    lightOn: bool = False
    outbox: float = 0.0
    faultFlags: set[str] = field(default_factory=set)
    stuckLightLevel: float | None = None
    lastFrame: SensorFrame | None = None


@dataclass(slots=True)
class Pedestrian:
    id: str
    route: tuple[tuple[int, int], ...]
    positionIndex: int = 0
    finished: bool = False
    ticksMoving: int = 0

    @property
    def position(self) -> tuple[int, int]:
        return self.route[self.positionIndex]


@dataclass(frozen=True, slots=True)
class EpisodeMetrics:
    pPeople: float
    pTrip: float
    pEnergy: float


def _node_id(config: WorldConfig, position: tuple[int, int]) -> str:
    x, y = position
    return f"node{y * config.gridWidth + x + 1}"


def _neighbour_indices(config: WorldConfig) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
    """Per light, in row-major order: its adjacent lights and its wireless peers.

    Lights are numbered row-major (``y * gridWidth + x``).  Adjacent lights
    come in the order sense() adds their spill: (x-1,y), (x+1,y), (x,y-1),
    (x,y+1), off-grid ones left out.  Wireless peers are every other light
    within Manhattan distance wirelessRange, row-major, found by walking the
    offsets |dx| + |dy| <= r clipped to the grid, so building both lists costs
    O(lights * r^2) rather than a scan of all pairs.
    """
    w, h, r = config.gridWidth, config.gridHeight, config.wirelessRange
    adjacent, wireless = [], []
    for y in range(h):
        for x in range(w):
            adjacent.append(tuple(
                ny * w + nx
                for nx, ny in ((x - 1, y), (x + 1, y), (x, y - 1), (x, y + 1))
                if 0 <= nx < w and 0 <= ny < h
            ))
            peers = []
            for ny in range(max(0, y - r), min(h, y + r + 1)):
                reach = r - abs(ny - y)
                peers.extend(
                    ny * w + nx
                    for nx in range(max(0, x - reach), min(w, x + reach + 1))
                    if (nx, ny) != (x, y)
                )
            wireless.append(tuple(peers))
    return adjacent, wireless


def _episode_metrics(config: WorldConfig, lights: int, finished: int, ticks_moving: int,
                     on_ticks: int) -> EpisodeMetrics:
    """Normalise an episode's integer counts; both engines report through here."""
    if config.numPeople == 0:
        p_people, p_trip = 1.0, 0.0
    else:
        p_people = finished / config.numPeople
        p_trip = ticks_moving / (config.numPeople * config.maxTicks)
    p_energy = on_ticks / (lights * config.maxTicks)
    return EpisodeMetrics(pPeople=p_people, pTrip=min(p_trip, 1.0), pEnergy=min(p_energy, 1.0))


def _border_positions(config: WorldConfig) -> list[tuple[int, int]]:
    w, h = config.gridWidth, config.gridHeight
    return [
        (x, y)
        for y in range(h)
        for x in range(w)
        if x == 0 or x == w - 1 or y == 0 or y == h - 1
    ]


def _staircase(start, end, rng: random.Random) -> tuple[tuple[int, int], ...]:
    """Random monotone lattice path, one of the shortest routes start->end."""
    (x, y), (ex, ey) = start, end
    dx = 1 if ex > x else -1
    dy = 1 if ey > y else -1
    moves = ["h"] * abs(ex - x) + ["v"] * abs(ey - y)
    rng.shuffle(moves)
    route = [(x, y)]
    for move in moves:
        if move == "h":
            x += dx
        else:
            y += dy
        route.append((x, y))
    return tuple(route)


def build_routes(config: WorldConfig, rng: random.Random) -> list[tuple[tuple[int, int], ...]]:
    """Seeded border-to-border shortest-path routes, one per pedestrian."""
    if config.numPeople == 0:
        return []
    border = _border_positions(config)
    if len(border) < 2:
        raise InvalidConfig("grid too small to route pedestrians between distinct border nodes")
    routes = []
    for _ in range(config.numPeople):
        start, end = rng.sample(border, 2)
        routes.append(_staircase(start, end, rng))
    return routes


def seeds_with_light_on_route(config: WorldConfig, light_id: str, count: int,
                              start_seed: int = 1) -> list[int]:
    """First ``count`` seeds whose routes pass through the given light.

    Used to pick worlds where a fault on that light is route-critical.
    """
    found = []
    seed = start_seed
    while len(found) < count:
        rng = random.Random(seed)
        routes = build_routes(replace(config, rngSeed=seed), rng)
        ids = {_node_id(config, pos) for route in routes for pos in route}
        if light_id in ids:
            found.append(seed)
        seed += 1
        if seed - start_seed > 100_000:
            raise WorldError(f"no seed routes through {light_id!r}")
    return found


class WorldState:
    """Mutable simulation state plus the logging plumbing."""

    def __init__(self, config: WorldConfig, broker: Broker | None, episode_tag: str | None):
        self.config = config
        self.broker = broker
        self.episode_tag = episode_tag
        self.tick = 0
        self.onTicks = 0  # integer count of light-on tick slots, for exact energy
        self.lights: list[Streetlight] = []
        self.lights_by_id: dict[str, Streetlight] = {}
        self.light_at: dict[tuple[int, int], Streetlight] = {}
        self.people: list[Pedestrian] = []
        # previous-tick communication snapshots (wireless causality)
        self.prev_outbox: dict[str, float] = {}
        self.prev_emitting: set[tuple[int, int]] = set()
        self._neighbors: dict[tuple[int, int], tuple[tuple[int, int], ...]] = {}
        self._wireless: dict[str, tuple[str, ...]] = {}
        #: interned event keys by agent (a light's id or a _LOG_SITES name), then action
        self.log_keys: dict[str, dict[str, EventKey]] = {}

    # -- naming ------------------------------------------------------------

    def agent_name(self, base: str) -> str:
        if self.episode_tag:
            return f"{base}@{self.episode_tag}"
        return base

    # -- logging -----------------------------------------------------------

    def intern_log_keys(self) -> None:
        """Check and intern the key of every log site, episode tag applied.

        Keys are interned in first-publish order, so a bad episode tag
        raises the error its first event raised.
        """
        for (agentType, agent), actions in _LOG_SITES.items():
            for name in [light.id for light in self.lights] if agent is _LIGHT else [agent]:
                self.log_keys[name] = {
                    action: event_key(agentType, self.agent_name(name), action,
                                      sourceUnit=unit, sourceOperation=operation,
                                      sourceLine=line, resource=resource)
                    for action, (unit, operation, line, resource) in actions.items()
                }

    def publish(self, agent: str, action: str, message: str) -> PublishReceipt | None:
        """Publish one _LOG_SITES action of ``agent`` (a light's id or a site name)."""
        broker = self.broker
        if broker is None:
            return None
        key = self.log_keys[agent][action]
        return broker.publish(keyed_event(key, broker.clock.next_timestamp(), message))

    # -- geometry ----------------------------------------------------------

    def neighbors(self, position) -> tuple[tuple[int, int], ...]:
        return self._neighbors[position]

    def wireless_neighbors(self, light: Streetlight) -> tuple[str, ...]:
        return self._wireless[light.id]

    # -- state queries -----------------------------------------------------

    @property
    def all_finished(self) -> bool:
        return all(p.finished for p in self.people)

    @property
    def energy(self) -> float:
        return self.onTicks * self.config.energyPerTickOn

    def emitting(self, light: Streetlight) -> bool:
        """Whether the lamp is actually radiating right now."""
        return light.lightOn and FAULT_GO_DARK not in light.faultFlags

    def perceived_light(self, position) -> float:
        """Light level governing pedestrian movement at a node.

        Movement uses the node's own lamp only; sensor readings additionally
        see adjacent lamps (see sense()).
        """
        level = self.config.ambientLight
        lamp = self.light_at.get(position)
        if lamp is not None and self.emitting(lamp):
            level += self.config.lightBrightness
        return min(level, 1.0)

    def metrics(self) -> EpisodeMetrics:
        return _episode_metrics(
            self.config,
            len(self.lights),
            sum(1 for p in self.people if p.finished),
            sum(p.ticksMoving for p in self.people),
            self.onTicks,
        )


def init_world(
    config: WorldConfig,
    broker: Broker | None = None,
    *,
    faults=(),
    episode_tag: str | None = None,
) -> WorldState:
    """Build the grid, route the pedestrians, and run the Manager handshake.

    Faults given here are installed before the handshake so skip-handshake
    can suppress the createAdaptiveAgent log; the other kinds behave exactly
    as if injected right after initialization.
    """
    world = WorldState(config, broker, episode_tag)
    w, h = config.gridWidth, config.gridHeight
    for y in range(h):
        for x in range(w):
            light = Streetlight(id=_node_id(config, (x, y)), position=(x, y))
            world.lights.append(light)
            world.lights_by_id[light.id] = light
            world.light_at[(x, y)] = light
            world.prev_outbox[light.id] = 0.0
    lights = world.lights
    for light, adjacent, peers in zip(lights, *_neighbour_indices(config)):
        world._neighbors[light.position] = tuple(lights[i].position for i in adjacent)
        world._wireless[light.id] = tuple(lights[i].id for i in peers)

    rng = random.Random(config.rngSeed)
    for i, route in enumerate(build_routes(config, rng), start=1):
        world.people.append(Pedestrian(id=f"person{i}", route=route))

    for spec in faults:
        inject_fault(world, spec)

    if world.broker is not None:
        world.intern_log_keys()
        world.broker.clock.advance_to(0)
        for light in world.lights:
            _handshake(world, light)
    return world


def _handshake(world: WorldState, light: Streetlight) -> None:
    """Manager bootstraps one light's controlling agent (five logs)."""
    world.publish("manager01", "receiveMsgFromSmartThing", f"thing={light.id}")
    if FAULT_SKIP_HANDSHAKE not in light.faultFlags:
        world.publish("manager01", "createAdaptiveAgent", f"controller for {light.id}")
    world.publish("lightsAgent", "connect", f"{light.id} joined")
    world.publish("manager01", "sendMsgToSmartThing", f"ack to {light.id}")
    world.publish("lightsAgent", "receiveInputDataFromSmartThing",
                  f"initial data from {light.id}")


def _fault_targets(spec: FaultSpec, lights: dict) -> list:
    """The values ``lights`` maps the spec's targets to, after checking the spec."""
    if spec.kind not in FAULT_KINDS:
        raise UnknownFault(f"unknown fault kind {spec.kind!r}")
    targets = []
    for target in spec.targets:
        light = lights.get(target)
        if light is None:
            raise UnknownTarget(f"no light named {target!r}")
        targets.append(light)
    return targets


def inject_fault(world: WorldState, spec: FaultSpec) -> None:
    """Install one fault kind on one or more lights."""
    for light in _fault_targets(spec, world.lights_by_id):
        light.faultFlags.add(spec.kind)


def sense(light: Streetlight, world: WorldState) -> SensorFrame:
    """Read one light's sensors and forward the frame to its agent.

    wirelessIn is the strongest neighbor outbox from the previous tick, and
    lightLevel sees the ambient level plus every radiating lamp at the node
    or adjacent to it, so the reading is independent of actuation order
    within the current tick.
    """
    cfg = world.config
    level = cfg.ambientLight
    for pos in (light.position,) + world.neighbors(light.position):
        if pos in world.prev_emitting:
            level += cfg.lightBrightness
    level = min(level, 1.0)
    if FAULT_SENSOR_STUCK in light.faultFlags:
        if light.stuckLightLevel is None:
            light.stuckLightLevel = level
        level = light.stuckLightLevel

    motion = any(
        not p.finished
        and (p.position == light.position or p.position in world.neighbors(light.position))
        for p in world.people
    )

    wireless = 0.0
    for other_id in world.wireless_neighbors(light):
        wireless = max(wireless, world.prev_outbox[other_id])

    frame = SensorFrame(lightLevel=level, motionDetected=motion, wirelessIn=wireless)
    light.lastFrame = frame

    if world.broker is not None:
        world.publish(light.id, "receiveWirelessData", f"in={frame.wirelessIn:.6f}")
        world.publish(light.id, "readLightSensor", f"level={frame.lightLevel:.6f}")
        world.publish(light.id, "readMotionSensor",
                      f"motion={1 if frame.motionDetected else 0}")
        world.publish(light.id, "sendMsg", f"frame from {light.id}")
    return frame


def actuate(light: Streetlight, decision, world: WorldState) -> None:
    """Apply one controller output pair (led, wireless) to the hardware."""
    led = float(decision[0])
    wireless = float(decision[1])
    light.lightOn = led > 0
    light.outbox = 0.0 if FAULT_MUTE_WIRELESS in light.faultFlags else max(wireless, 0.0)
    if world.broker is None:
        return
    world.publish(light.id, "receiveNeuralNetworkCommand",
                  f"led={led:.6f} wireless={wireless:.6f}")
    if light.lightOn:
        world.publish(light.id, "switchLightON", "on")
    else:
        world.publish(light.id, "switchLightOFF", "off")
    world.publish(light.id, "sendWirelessData", f"out={light.outbox:.6f}")
    if world.emitting(light):
        # own sensor confirms a brightness at or above the lamp's own output
        world.publish(light.id, "detectLight",
                      f"brightness={world.config.lightBrightness:.6f}")


def move_people(world: WorldState) -> None:
    """Advance every pedestrian that has light to walk by.

    A pedestrian moves one node per tick iff the perceived light at both the
    current and the next node clears darkThreshold; every unfinished
    pedestrian pays one tick of trip time whether it moved or not.
    """
    threshold = world.config.darkThreshold
    for person in world.people:
        if person.finished:
            continue
        person.ticksMoving += 1
        here = person.position
        nxt = person.route[person.positionIndex + 1]
        if world.perceived_light(here) > threshold and world.perceived_light(nxt) > threshold:
            person.positionIndex += 1
            if person.positionIndex == len(person.route) - 1:
                person.finished = True


def _controller_outputs(controller, inputs: np.ndarray) -> np.ndarray:
    """Query one controller for all lights: (lights, 3) inputs -> (lights, 2) outputs.

    forward_batch is used when available, then a per-row forward, then a
    plain call per row.
    """
    if hasattr(controller, "forward_batch"):
        outputs = np.asarray(controller.forward_batch(inputs), dtype=float)
    elif hasattr(controller, "forward"):
        outputs = np.array([controller.forward(row) for row in inputs], dtype=float)
    else:
        outputs = np.array([controller(row) for row in inputs], dtype=float)
    if outputs.shape != (len(inputs), 2):
        raise WorldError(f"controller must yield (lights, 2) outputs, got {outputs.shape}")
    return outputs


def step_world(world: WorldState, controller) -> None:
    """Run one tick: every light senses and acts, then pedestrians move.

    Sensor frames are computed against start-of-tick snapshots, so the
    per-light ordering inside the tick cannot leak actuations into sensor
    readings.  The controller is queried once for all lights (forward_batch
    when available) to keep the arithmetic identical between silent and
    logged runs.
    """
    world.tick += 1
    if world.broker is not None:
        world.broker.clock.advance_to(world.tick * TICK_US)

    frames = [sense(light, world) for light in world.lights]

    inputs = np.array(
        [[f.lightLevel, 1.0 if f.motionDetected else 0.0, f.wirelessIn] for f in frames],
        dtype=float,
    )
    outputs = _controller_outputs(controller, inputs)

    for light, frame, out in zip(world.lights, frames, outputs):
        if world.broker is not None:
            world.publish("lightsAgent", "receiveInputDataFromSmartThing",
                          f"from {light.id} level={frame.lightLevel:.6f} "
                          f"motion={1 if frame.motionDetected else 0} "
                          f"wireless={frame.wirelessIn:.6f}")
            world.publish("lightsAgent", "useControllerToGetOutput", f"deciding for {light.id}")
            world.publish("lightsAgent", "sendOutputToSmartThing",
                          f"to {light.id} led={out[0]:.6f} wireless={out[1]:.6f}")
        actuate(light, out, world)

    move_people(world)
    world.onTicks += sum(1 for l in world.lights if l.lightOn)
    # end-of-tick snapshots feed the next tick's sensor frames
    world.prev_emitting = {l.position for l in world.lights if world.emitting(l)}
    world.prev_outbox = {l.id: l.outbox for l in world.lights}


def run_episode(
    config: WorldConfig,
    genome,
    broker: Broker | None = None,
    *,
    faults=(),
    episode_tag: str | None = None,
) -> EpisodeMetrics:
    """Run one full episode and report the normalized metrics.

    ``genome`` may be a flat gene sequence (decoded with the default
    topology) or any controller object.  The episode ends early when every
    pedestrian has finished; a world with no pedestrians always runs the
    full maxTicks.  Without a broker the episode runs on run_episodes.
    """
    if hasattr(genome, "forward") or hasattr(genome, "forward_batch") or callable(genome):
        controller = genome
    else:
        controller = decode(genome)
    if broker is None:
        return run_episodes(config, [controller], faults=faults)[0]
    world = init_world(config, broker, faults=faults, episode_tag=episode_tag)
    for _ in range(config.maxTicks):
        step_world(world, controller)
        if config.numPeople > 0 and world.all_finished:
            break
    if world.all_finished:
        world.publish("lights", "finishSimulation", f"tick={world.tick}")
    return world.metrics()


def _stacked_networks(controllers: list) -> tuple[np.ndarray, ...] | None:
    """Weights of same-shaped 3-H-2 NeuralControllers, stacked along a first axis.

    Returns (W1T, B1, W2T, B2) shaped (P, 3, H), (P, 1, H), (P, H, 2) and
    (P, 1, 2), or None when any controller is something else, which then
    goes through _controller_outputs one by one.
    """
    topology = getattr(controllers[0], "topology", None)
    if (topology is None or topology.inputCount != 3 or topology.outputCount != 2
            or any(type(c) is not NeuralController or c.topology != topology
                   for c in controllers)):
        return None
    return (
        np.stack([c.w1.T for c in controllers]),
        np.stack([c.b1 for c in controllers])[:, None, :],
        np.stack([c.w2.T for c in controllers]),
        np.stack([c.b2 for c in controllers])[:, None, :],
    )


def run_episodes(config: WorldConfig, controllers, *, faults=()) -> list[EpisodeMetrics]:
    """Run one silent episode per controller, all at once, and report each one's metrics.

    Every episode runs on the same world (routes from ``config.rngSeed``) with
    the same faults, and gets exactly the EpisodeMetrics an ``init_world`` +
    ``step_world`` loop without a broker gives its controller.  The state of
    all P episodes lives in (P, lights + 1) arrays whose last column is a
    sentinel light that never radiates and never transmits; index lists are
    padded with it.  An episode whose pedestrians have all arrived stops like
    run_episode's: its row is dropped and no longer changes.

    Same-shaped NeuralControllers are evaluated with one stacked matmul per
    layer, which gives the same bits as their forward_batch; any other
    controller is queried on its own, in list order, as step_world does.
    """
    controllers = list(controllers)
    lights = config.gridWidth * config.gridHeight
    sentinel = lights
    routes = build_routes(config, random.Random(config.rngSeed))
    index = {_node_id(config, (i % config.gridWidth, i // config.gridWidth)): i
             for i in range(lights)}
    faulty = {kind: np.zeros(lights, dtype=bool) for kind in FAULT_KINDS}
    for spec in faults:
        for i in _fault_targets(spec, index):
            faulty[spec.kind][i] = True
    dark, stuck, mute = faulty[FAULT_GO_DARK], faulty[FAULT_SENSOR_STUCK], faulty[FAULT_MUTE_WIRELESS]
    if not controllers:
        return []

    adjacent, wireless = _neighbour_indices(config)
    # own lamp first, then the adjacent ones, as sense() looks at them
    near = np.full((lights, 5), sentinel, dtype=np.intp)
    # at least one sentinel column, so every maximum starts from 0.0 as sense() does
    peers = np.full((lights, max(map(len, wireless)) + 1), sentinel, dtype=np.intp)
    for i in range(lights):
        near[i, : 1 + len(adjacent[i])] = (i, *adjacent[i])
        peers[i, : len(wireless[i])] = wireless[i]
    # sense() adds lightBrightness once per radiating lamp it sees, so its
    # reading depends only on how many it sees; this table holds those sums,
    # added in the same order
    spill = [config.ambientLight]
    for _ in range(5):
        spill.append(spill[-1] + config.lightBrightness)
    level_of = np.minimum(np.array(spill), 1.0)
    threshold = config.darkThreshold
    lit_walkable = min(config.ambientLight + config.lightBrightness, 1.0) > threshold
    dark_walkable = min(config.ambientLight, 1.0) > threshold

    people = len(routes)
    path = np.full((people, max((len(r) for r in routes), default=0) + 1), sentinel, dtype=np.intp)
    for n, route in enumerate(routes):
        path[n, : len(route)] = [y * config.gridWidth + x for x, y in route]
    last_step = np.array([len(r) - 1 for r in routes], dtype=np.intp)
    person = np.arange(people)

    p = len(controllers)
    live = np.arange(p)  # the controller index of each row still running
    radiating = np.zeros((p, lights + 1), dtype=bool)  # last tick's, column sentinel never lit
    outbox = np.zeros((p, lights + 1))  # last tick's, column sentinel always 0.0
    step = np.zeros((p, people), dtype=np.intp)
    arrived = np.zeros((p, people), dtype=bool)
    ticks_moving = np.zeros(p, dtype=np.int64)
    on_ticks = np.zeros(p, dtype=np.int64)
    stuck_level = None
    networks = _stacked_networks(controllers)
    results: list[EpisodeMetrics | None] = [None] * p

    def finish(rows) -> None:
        for r in rows:
            results[live[r]] = _episode_metrics(
                config, lights, int(arrived[r].sum()), int(ticks_moving[r]), int(on_ticks[r])
            )

    for _ in range(config.maxTicks):
        rows = np.arange(len(live))[:, None]
        level = level_of[radiating[:, near].sum(axis=2)]
        if stuck_level is None:
            stuck_level = level[:, stuck]  # sensor-stuck keeps its first reading
        level[:, stuck] = stuck_level
        at = path[person, step]
        occupied = np.zeros_like(radiating)
        occupied[rows, np.where(arrived, sentinel, at)] = True
        occupied[:, sentinel] = False
        motion = occupied[:, near].any(axis=2)
        # fmax skips NaN, as sense()'s running max() does
        wireless_in = np.fmax.reduce(outbox[:, peers], axis=2)
        inputs = np.stack((level, motion, wireless_in), axis=-1)

        if networks is not None:
            w1t, b1, w2t, b2 = networks
            outputs = np.tanh(np.matmul(np.tanh(np.matmul(inputs, w1t) + b1), w2t) + b2)
        else:
            outputs = np.stack([_controller_outputs(controllers[c], x)
                                for c, x in zip(live, inputs)])
        light_on = outputs[:, :, 0] > 0
        radiating[:, :lights] = light_on & ~dark
        outbox[:, :lights] = np.where(mute, 0.0, np.maximum(outputs[:, :, 1], 0.0))

        walkable = np.where(radiating, lit_walkable, dark_walkable)
        walking = ~arrived
        moves = walking & walkable[rows, at] & walkable[rows, path[person, step + 1]]
        ticks_moving += walking.sum(axis=1)
        step += moves
        arrived |= step == last_step
        on_ticks += light_on.sum(axis=1)

        if people:
            done = arrived.all(axis=1)
            if done.any():
                finish(np.flatnonzero(done))
                keep = ~done
                live, radiating, outbox, step, arrived = (
                    live[keep], radiating[keep], outbox[keep], step[keep], arrived[keep])
                ticks_moving, on_ticks, stuck_level = ticks_moving[keep], on_ticks[keep], stuck_level[keep]
                if networks is not None:
                    networks = tuple(a[keep] for a in networks)
                if not len(live):
                    break
    finish(range(len(live)))
    return results
