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

One engine runs every episode.  ``init_world`` lays out the grid and the
state of a batch of episodes as (episodes, lights) numpy arrays, and each
``step_world`` tick runs ``sense``, the controllers, ``actuate`` and
``move_people`` on the whole batch; each controller's ``forward_batch``
answers for all lights of its episode at once.  ``run_episodes`` steps a
batch of silent episodes that way, in chunks of rows under TICK_BYTES;
``run_episode`` steps a batch of one, and with a broker attached the
handshake, ``sense``, ``actuate`` and finishSimulation each publish one
broker batch of that episode's events, light by light.  A logged tick
renders its messages from tables: a grid's interned keys and the
``(key, message)`` pairs that hold no reading (``_GridLog``, once per
grid), the ``brightness=`` and the few ``level=`` texts (once per world).
Only the readings and outputs that vary are formatted each tick.

A silent tick computes only what its inputs need: a fault kind no light
has costs nothing, what it reads of the pedestrians (_walkers) is derived
again, and arrivals checked, only after a move or a change of rows, and
routes are built once per config.  Readings gather light by light, every
row of a light together.  The recurrence check below compares each row's
state words as they stand; a row leaving the batch drops them as one array.

A batch of NeuralControllers, which hold no state, stops stepping an
episode once it repeats.  A row's state is ``radiating``, ``outbox`` (bit
for bit) and ``step``, views of one run of 8-byte words per row
(``state``), and every tick maps it to the next by the same function.  So
if the state after tick t equals the one after tick t - lag, the episode
repeats with period lag up to maxTicks.  ``step`` never goes back, so no
pedestrian moves in the cycle and arrivals are final; with R ticks left,
each counter gains R // lag periods plus the first R % lag ticks of one,
exact integers, so the metrics are those of stepping on.  Only the state
saved every RECURRENCE_WINDOW ticks, from tick 0, is kept to compare with.
A silent row then leaves the batch.  A logged world keeps the sense and
actuate batches of its ticks since the saved state, from its first save
on, and replays the period: each tick left raises the clock floor and
publishes that tick's recorded batches again.  No sense or actuate message
holds the tick number, so the events are those of stepping on, and a line
differs from its recorded one only in the tick digits of its timestamp.
So each batch is replayed by a plan made on its first replay
(Broker._publish_again): the tap text is written in one join around the
tick digits, and only the events a live target binds are built.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, fields, replace

import numpy as np

from .broker import Broker
from .logmodel import (TICK_US, BoundedMemo, MasharnessError, RoutingKey, _shown, intern_sites,
                       read_lines)
from .neural import NeuralController, stack_layers, stacked_outputs

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
#: most wireless links (light, peer) a WorldConfig may make, by the bound
#: lights * min(lights - 1, 2r(r + 1)); each tick gathers one float per link
#: and episode, so this caps that gather at 2 MB per episode
MAX_WIRELESS_LINKS = 250_000

#: most pedestrians a WorldConfig accepts; each one's route is built at set-up
MAX_PEOPLE = 10_000
#: most route nodes a WorldConfig's pedestrians may walk in all, by the bound
#: numPeople * (gridWidth + gridHeight - 1) on a route's length; set-up builds
#: and stores each node, and 100x100 with MAX_PEOPLE takes 1,990,000
MAX_ROUTE_NODES = 2_000_000
#: longest episode a WorldConfig accepts, in ticks; a logged episode writes
#: every tick's events to the tap
MAX_TICKS = 100_000
#: bound on a config int's size: str() refuses an int of more than 4,300
#: digits, so an error message could not show it, and no config file holds one
_CONFIG_INT_LIMIT = 10 ** 4300
#: bound on a float field: float() refuses an int this far from zero, every
#: finite float is nearer, and NaN compares false with it
_FLOAT_INT_LIMIT = 2 ** 1024 - 2 ** 970
#: ticks between the saved states a batch of stateless controllers compares
#: each tick's state with, so periods up to this long are caught
RECURRENCE_WINDOW = 8
#: bytes, about, that one tick's arrays of a silent batch may take; run_episodes
#: steps a population whose rows would take more in chunks of rows under it
TICK_BYTES = 2 ** 26
#: grid layouts (ids, near, peers) by (gridWidth, gridHeight, wirelessRange),
#: about 1.5 MB for a 100x100 grid, shared by every world of the grid
_layouts = BoundedMemo(4)
#: _route_arrays by (gridWidth, gridHeight, numPeople, rngSeed), up to 16 MB each
_routes = BoundedMemo(4)
#: _GridLog tables by (gridWidth, gridHeight); a 100x100 grid's holds
#: 90,008 keys and its messages in about 62 MB, so few are kept
_grid_logs = BoundedMemo(2)
#: the WorldState arrays with one row per live episode
_ROW_ARRAYS = ("live", "state", "arrived", "counts", "saved", "counted")

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


class WorldError(MasharnessError):
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
    rngSeed: int = 1

    def __post_init__(self):
        check_finite_fields(self)
        w, h = self.gridWidth, self.gridHeight
        if w < 1 or h < 1:
            raise InvalidConfig("grid dimensions must be positive")
        lights = w * h
        if lights > MAX_LIGHTS:
            raise InvalidConfig(f"grid {w}x{h} has more than {MAX_LIGHTS} lights")
        if self.wirelessRange < 0:
            raise InvalidConfig("wirelessRange must be >= 0")
        # a range beyond the longest distance on the grid acts as that distance
        reach = min(self.wirelessRange, w + h - 2)
        if lights * min(lights - 1, 2 * reach * (reach + 1)) > MAX_WIRELESS_LINKS:
            raise InvalidConfig(
                f"wirelessRange {self.wirelessRange} on grid {w}x{h} can make more than "
                f"{MAX_WIRELESS_LINKS} wireless links"
            )
        if not 0 <= self.numPeople <= MAX_PEOPLE:
            raise InvalidConfig(f"numPeople must be in [0,{MAX_PEOPLE}], got {self.numPeople}")
        if self.numPeople * (w + h - 1) > MAX_ROUTE_NODES:
            raise InvalidConfig(
                f"numPeople {self.numPeople} on grid {w}x{h} can walk more than "
                f"{MAX_ROUTE_NODES} route nodes"
            )
        if self.maxTicks < 1:
            raise InvalidConfig("maxTicks must be positive")
        if self.maxTicks > MAX_TICKS:
            raise InvalidConfig(f"maxTicks must be at most {MAX_TICKS}, got {self.maxTicks}")
        for name in ("ambientLight", "lightBrightness", "darkThreshold"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise InvalidConfig(f"{name} must be in [0,1], got {v}")
        if self.darkThreshold >= self.lightBrightness:
            raise InvalidConfig("darkThreshold must be below lightBrightness")


def check_finite_fields(config) -> None:
    """Raise InvalidConfig naming the first field of ``config`` not of its default's type.

    An int field takes an int of at most 4,300 digits; a float field takes
    a finite float or an int that float() can convert.  A bool is neither."""
    for f in fields(config):
        value, kind = getattr(config, f.name), type(f.default)
        if type(value) is not kind and (kind is int or type(value) is not int):
            raise InvalidConfig(f"{f.name} must be {kind.__name__}, not {type(value).__name__}")
        if type(value) is int and not -_CONFIG_INT_LIMIT < value < _CONFIG_INT_LIMIT:
            raise InvalidConfig(f"{f.name} must have at most 4300 digits")
        if kind is float and not -_FLOAT_INT_LIMIT < value < _FLOAT_INT_LIMIT:
            raise InvalidConfig(f"{f.name} must be a finite number, got {_shown(value)}")


def load_config(cls, path):
    """Read a flat ``key=value`` file into ``cls``, a config dataclass.

    Keys are the field names of ``cls``, and a value is read as the type of
    its field's default.  Blank lines and ``#`` comments are skipped, a key
    given twice keeps its last value, and a key not given keeps its default.
    Every error names the file, and the line where there is one.
    """
    kinds = {f.name: type(f.default) for f in fields(cls)}
    values = {}
    for lineno, raw in enumerate(read_lines(path, InvalidConfig, "config"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = (part.strip() for part in line.partition("="))
        where = f"config {path} line {lineno}"
        if not sep:
            raise InvalidConfig(f"{where}: expected key=value, got {line!r}")
        if key not in kinds:
            raise InvalidConfig(f"{where}: unknown key {key!r}")
        try:
            values[key] = kinds[key](value)
        except ValueError:
            raise InvalidConfig(f"{where}: bad value for {key}: {value!r}") from None
    try:
        return cls(**values)
    except InvalidConfig as exc:
        raise InvalidConfig(f"config {path}: {exc}") from None


def load_world_config(path) -> WorldConfig:
    """Read a world config file; keys are the WorldConfig fields."""
    return load_config(WorldConfig, path)


@dataclass(frozen=True, slots=True)
class FaultSpec:
    kind: str
    targets: tuple[str, ...]


def parse_fault_spec(text: str) -> FaultSpec:
    """Parse ``<kind>:<lightId>[,<lightId>...]`` fault syntax."""
    if type(text) is not str:
        raise UnknownFault(f"fault spec must be a string, got {type(text).__name__}")
    kind, sep, rest = text.partition(":")
    if not sep or not rest:
        raise UnknownFault(f"expected <kind>:<lightId>[,...], got {text!r}")
    if kind not in FAULT_KINDS:
        raise UnknownFault(f"unknown fault kind {kind!r}, expected one of {FAULT_KINDS}")
    targets = tuple(t for t in rest.split(",") if t)
    if not targets:
        raise UnknownFault(f"fault {kind!r} names no targets")
    return FaultSpec(kind=kind, targets=targets)


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
    come in the order (x-1,y), (x+1,y), (x,y-1), (x,y+1), off-grid ones left
    out.  Wireless peers are every other light within Manhattan distance
    wirelessRange, row-major, found by walking the offsets |dx| + |dy| <= r
    clipped to the grid, so building both lists costs O(lights * min(r^2,
    lights)) rather than a scan of all pairs.
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


def _layout(config: WorldConfig) -> tuple[tuple[str, ...], np.ndarray, np.ndarray]:
    """A grid's light ids and its read-only ``near`` and ``peers`` tables (WorldState)."""
    grid = (config.gridWidth, config.gridHeight, config.wirelessRange)
    layout = _layouts.get(grid)
    if layout is not None:
        return layout
    w = config.gridWidth
    lights = sentinel = w * config.gridHeight
    ids = tuple(_node_id(config, (i % w, i // w)) for i in range(lights))
    adjacent, wireless = _neighbour_indices(config)
    # own lamp first, then the adjacent ones; column-major, as a tick reads it transposed
    near = np.full((lights, 5), sentinel, np.intp, "F")
    # at least one sentinel column, so every maximum starts from 0.0
    peers = np.full((lights, max(map(len, wireless)) + 1), sentinel, np.intp, "F")
    for i in range(lights):
        near[i, : 1 + len(adjacent[i])] = (i, *adjacent[i])
        peers[i, : len(wireless[i])] = wireless[i]
    near.flags.writeable = peers.flags.writeable = False
    return _layouts.remember(grid, (ids, near, peers))


class _GridLog:
    """A grid's interned event keys, and the ``(key, message)`` pairs it logs that hold no reading.

    ``keys`` maps an agent (a light's id or a _LOG_SITES name), then an
    action, to its key.  Per light, in light order: ``sense`` holds
    (receiveWirelessData key, readLightSensor key, the motion=0 and motion=1
    pairs, the frame pair); ``act`` holds (light id, the deciding pair,
    receiveNeuralNetworkCommand key, the off and on pairs, sendWirelessData
    key, detectLight key).  ``handshake`` is the Manager's handshake batch,
    five pairs per light.
    """

    def __init__(self, config: WorldConfig):
        ids = _layout(config)[0]
        self.keys = keys = {
            name: intern_sites(agentType, name, actions)
            for (agentType, agent), actions in _LOG_SITES.items()
            for name in (ids if agent is _LIGHT else [agent])}
        manager, agent = keys["manager01"], keys["lightsAgent"]
        self.sense, self.act, self.handshake = [], [], []
        for light in ids:
            k = keys[light]
            motion = k["readMotionSensor"]
            self.sense.append((k["receiveWirelessData"], k["readLightSensor"],
                               ((motion, "motion=0"), (motion, "motion=1")),
                               (k["sendMsg"], f"frame from {light}")))
            self.act.append((light, (agent["useControllerToGetOutput"], f"deciding for {light}"),
                             k["receiveNeuralNetworkCommand"],
                             ((k["switchLightOFF"], "off"), (k["switchLightON"], "on")),
                             k["sendWirelessData"], k["detectLight"]))
            self.handshake += (
                (manager["receiveMsgFromSmartThing"], f"thing={light}"),
                (manager["createAdaptiveAgent"], f"controller for {light}"),
                (agent["connect"], f"{light} joined"),
                (manager["sendMsgToSmartThing"], f"ack to {light}"),
                (agent["receiveInputDataFromSmartThing"], f"initial data from {light}"))


def _grid_log(config: WorldConfig) -> _GridLog:
    """A grid's _GridLog, built once per grid."""
    grid = (config.gridWidth, config.gridHeight)
    return _grid_logs.get(grid) or _grid_logs.remember(grid, _GridLog(config))


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


def build_routes(config: WorldConfig) -> list[tuple[tuple[int, int], ...]]:
    """Border-to-border shortest-path routes, one per pedestrian, seeded by ``config.rngSeed``."""
    if config.numPeople == 0:
        return []
    w, h = config.gridWidth, config.gridHeight
    border = [(x, y) for y in range(h) for x in range(w) if x in (0, w - 1) or y in (0, h - 1)]
    if len(border) < 2:
        raise InvalidConfig("grid too small to route pedestrians between distinct border nodes")
    routes, rng = [], random.Random(config.rngSeed)
    for _ in range(config.numPeople):
        start, end = rng.sample(border, 2)
        routes.append(_staircase(start, end, rng))
    return routes


def seeds_with_light_on_route(config: WorldConfig, light_id: str, count: int,
                              start_seed: int = 1) -> list[int]:
    """First ``count`` seeds whose routes pass through the given light.

    Used to pick worlds where a fault on that light is route-critical.
    """
    w, h = config.gridWidth, config.gridHeight
    # checked before the search, which would build routes for 100,000 seeds and then fail
    if light_id not in tuple(_node_id(config, (i % w, i // w)) for i in range(w * h)):
        raise UnknownTarget(f"no light named {light_id!r}")
    if not isinstance(count, int) or isinstance(count, bool):
        raise WorldError(f"count must be an int, got {count!r}")
    if config.numPeople == 0:
        raise WorldError("a world without people has no routes")
    found = []
    seed = start_seed
    while len(found) < count:
        routes = build_routes(replace(config, rngSeed=seed))
        ids = {_node_id(config, pos) for route in routes for pos in route}
        if light_id in ids:
            found.append(seed)
        seed += 1
        if seed - start_seed > 100_000:
            raise WorldError(f"no seed routes through {light_id!r}")
    return found


def _route_arrays(config: WorldConfig) -> tuple[np.ndarray, ...]:
    """A route config's read-only path, last_step, path_flat, path_next and base (WorldState)."""
    key = (config.gridWidth, config.gridHeight, config.numPeople, config.rngSeed)
    if (arrays := _routes.get(key)) is not None:
        return arrays
    routes, w = build_routes(config), config.gridWidth
    path = np.full((len(routes), max(map(len, routes), default=1) + 1), w * config.gridHeight,
                   dtype=np.intp)
    for n, route in enumerate(routes):
        path[n, : len(route)] = [y * w + x for x, y in route]
    last_step = np.array([len(r) - 1 for r in routes], dtype=np.intp)
    base = np.arange(len(routes)) * path.shape[1]
    path.flags.writeable = last_step.flags.writeable = base.flags.writeable = False
    return _routes.remember(key, (path, last_step, path.reshape(-1), path.reshape(-1)[1:], base))


def _walkers(world: WorldState) -> tuple[np.ndarray, ...]:
    """What a tick reads of the pedestrians, cached in ``world.walkers`` until marked stale.

    Returns (at, ahead, motion, walking, count): per row and pedestrian, its
    node (the sentinel once arrived), next node and whether it walks; per
    row, each light's motion reading and how many walk.
    """
    if world.walkers is not None:
        return world.walkers
    lights, walking, index = world.lights, ~world.arrived, world.base + world.step
    at = np.where(walking, world.path_flat.take(index), lights)
    # each walking pedestrian marks its node; a finished one the sentinel, cleared after
    occupied = np.zeros((lights + 1, len(at)), dtype=bool)
    occupied[at, world.rows] = True
    occupied[lights] = False
    motion = occupied.take(world.near.T, axis=0).any(axis=0).T
    world.walkers = (at, world.path_next.take(index), motion, walking, walking.sum(axis=1))
    return world.walkers


class WorldState:
    """One world's layout, plus the state of a batch of its episodes.

    Lights are numbered row-major (``y * gridWidth + x``).  Every per-light
    episode array has one more column, a sentinel light that never radiates
    and never transmits, and the index tables are padded with it.  The ids
    and index tables (``near``, ``peers``) are built once per grid and
    shared, read-only, by its worlds, as is a logged world's ``log``.
    Row r of the episode arrays is episode ``live[r]``; an episode whose
    pedestrians have all arrived leaves the batch, which keeps its metrics
    and drops its row.  A row's ``outbox``, ``step`` and ``radiating`` are
    views of its words in ``state``, and ``on_ticks`` and ``ticks_moving``
    of its ``counts``.  ``walkers`` caches _walkers; ``move_people`` and
    ``_leave`` mark it stale (None).  Routes are built before faults are
    checked, so a world that can route no pedestrians raises that first.
    """

    def __init__(self, config: WorldConfig, broker: Broker | None = None, *, faults=(),
                 episodes: int = 1):
        self.config = config
        self.broker = broker
        self.tick = 0
        self.lights = lights = config.gridWidth * config.gridHeight
        self.ids, self.near, self.peers = _layout(config)
        self.path, self.last_step, self.path_flat, self.path_next, self.base = _route_arrays(config)
        self.faulty = _fault_masks(self.ids, faults)
        #: the fault kinds some light has; a tick spends nothing on the others
        self.fault_kinds = {kind for kind, lights_with in self.faulty.items() if lights_with.any()}

        # a light sensor reads the ambient level plus lightBrightness once per
        # radiating lamp it sees, added one by one; this table holds those sums
        spill = [config.ambientLight]
        for _ in range(5):
            spill.append(spill[-1] + config.lightBrightness)
        self.level_of = np.minimum(np.array(spill), 1.0)
        if broker is not None:
            #: a logged world's _GridLog, shared by the worlds of its grid
            self.log = _grid_log(config)
            # each light level's text; not zero's, as -0.0 == 0.0 but prints its sign
            self.level_texts = {v: f"level={v:.6f}" for v in self.level_of.tolist() if v}
            self.brightness = f"brightness={config.lightBrightness:.6f}"
        # walking light is a node's own lamp over the ambient level; a radiating
        # lamp always gives it, as darkThreshold < lightBrightness
        self.dark_walkable = config.ambientLight > config.darkThreshold

        self.people = people = len(self.path)
        self.live = np.arange(episodes)  # the episode of each row still running
        # each row's state as a run of 8-byte words, laid out by _views
        self.state = np.zeros((episodes, lights + 1 + people + (lights + 8) // 8), np.uint64)
        self.arrived = np.zeros((episodes, people), dtype=bool)
        self.counts = np.zeros((episodes, 2), dtype=np.int64)  # on_ticks, ticks_moving
        self.results: list[EpisodeMetrics | None] = [None] * episodes
        self.inputs = np.empty((episodes, lights, 3))  # each tick's controller inputs
        # each row's state as of saved_tick, and its counts on each tick since
        self.saved, self.saved_tick = self.state.copy(), 0
        self.counted = np.zeros((episodes, 2, RECURRENCE_WINDOW + 1), dtype=np.int64)
        #: a logged world's batches since saved_tick, sense then actuate per
        #: tick, once it has saved a state; None while nothing is recorded
        self.period: list[list[tuple[RoutingKey, str]]] | None = None
        self.ticks_replayed = 0
        self._views()

    def _views(self) -> None:
        """Name the fields of each row's ``state`` and ``counts``, and index the live rows.

        A row's words hold ``outbox`` (bit for bit), then ``step``, then
        ``radiating`` a byte per light.
        """
        state, tail = self.state, self.lights + 1 + self.people
        self.outbox = state[:, : self.lights + 1].view(np.float64)
        self.step = state[:, self.lights + 1: tail].view(np.int64)
        self.radiating = state.view(np.uint8)[:, 8 * tail: 8 * tail + self.lights + 1].view(bool)
        self.on_ticks, self.ticks_moving = self.counts.T
        self.rows = np.arange(len(state))[:, None]
        self.walkers = None

    # -- logging -----------------------------------------------------------

    def publish(self, batch: list[tuple[RoutingKey, str]]) -> None:
        """Publish ``(log.keys key, message)`` pairs as one batch of the attached broker."""
        self.broker._publish_batch(batch)
        if self.period is not None:
            self.period.append(batch)

    # -- episodes ------------------------------------------------------------

    def _row_metrics(self, row: int) -> EpisodeMetrics:
        """The episode of one row, its counts normalised."""
        c = self.config
        if c.numPeople == 0:
            p_people, p_trip = 1.0, 0.0
        else:
            p_people = int(self.arrived[row].sum()) / c.numPeople
            p_trip = int(self.ticks_moving[row]) / (c.numPeople * c.maxTicks)
        p_energy = int(self.on_ticks[row]) / (self.lights * c.maxTicks)
        return EpisodeMetrics(pPeople=p_people, pTrip=p_trip, pEnergy=p_energy)

    def metrics(self) -> list[EpisodeMetrics]:
        """Every episode's metrics: as it left the batch, or as it stands if still live."""
        results = list(self.results)
        for row, episode in enumerate(self.live):
            results[episode] = self._row_metrics(row)
        return results

    def _leave(self, done: np.ndarray) -> None:
        """Drop the rows marked ``done`` from the batch, keeping their episodes' metrics."""
        for row in np.flatnonzero(done):
            self.results[self.live[row]] = self._row_metrics(row)
        keep = (~done).nonzero()[0]
        for name in _ROW_ARRAYS:
            setattr(self, name, getattr(self, name).take(keep, axis=0))
        self._views()

    def retire_periodic(self) -> None:
        """End the rows back in their saved state at maxTicks, adding the counts of their ticks left.

        A silent row leaves the batch; a logged world publishes its period's
        batches again for each tick left.  It records them from its first
        saved state on, so an episode that ends sooner keeps none.
        """
        lag = self.tick - self.saved_tick
        self.counted[:, :, lag] = self.counts
        same = (self.state == self.saved).all(axis=1)
        if same.any() and (self.broker is None or self.period is not None):
            left = self.config.maxTicks - self.tick
            counted = self.counted[same]
            self.counts[same] += (left // lag) * (counted[:, :, lag] - counted[:, :, 0]) + (
                counted[:, :, left % lag] - counted[:, :, 0])
            if self.broker is not None:
                self._replay(lag)
                return
            self._leave(same)
        if lag == RECURRENCE_WINDOW:
            self.saved, self.saved_tick = self.state.copy(), self.tick
            self.counted[:, :, 0] = self.counted[:, :, lag]
            if self.broker is not None:
                self.period = []

    def _replay(self, lag: int) -> None:
        """Publish the recorded ``lag`` ticks again, period after period, up to maxTicks."""
        clock, again, period = self.broker.clock, self.broker._publish_again, self.period
        plans = [[] for _ in period]  # each batch's Broker._publish_again plan
        for n, tick in enumerate(range(self.tick + 1, self.config.maxTicks + 1)):
            clock.advance_to(tick * TICK_US)
            for i in (2 * (n % lag), 2 * (n % lag) + 1):
                again(period[i], plans[i])
        self.ticks_replayed = self.config.maxTicks - self.tick
        self.tick = self.config.maxTicks


def _fault_masks(ids: tuple[str, ...], faults) -> dict[str, np.ndarray]:
    """Per fault kind, which lights have it, after checking each spec in turn."""
    index = {light: i for i, light in enumerate(ids)}
    faulty = {kind: np.zeros(len(ids), dtype=bool) for kind in FAULT_KINDS}
    for spec in faults:
        if spec.kind not in FAULT_KINDS:
            raise UnknownFault(f"unknown fault kind {spec.kind!r}")
        for target in spec.targets:
            if target not in index:
                raise UnknownTarget(f"no light named {target!r}")
            faulty[spec.kind][index[target]] = True
    return faulty


def init_world(
    config: WorldConfig,
    broker: Broker | None = None,
    *,
    faults=(),
    episodes: int = 1,
) -> WorldState:
    """Build the grid and ``episodes`` episodes of it, then run the Manager handshake.

    Faults are installed before the handshake so skip-handshake can suppress
    the createAdaptiveAgent log.  With a broker attached, the world runs one
    episode and publishes with its grid's event keys, checked when that
    grid's table was first built.
    """
    if broker is not None and episodes != 1:
        raise WorldError(f"a logged world runs one episode, not {episodes}")
    world = WorldState(config, broker, faults=faults, episodes=episodes)
    if broker is not None:
        # the Manager bootstraps each light's controlling agent
        skips = world.faulty[FAULT_SKIP_HANDSHAKE]
        batch = world.log.handshake
        if skips.any():
            # a skipped light's handshake has no createAdaptiveAgent, its second pair of five
            skip = skips.tolist()
            batch = [pair for n, pair in enumerate(batch) if n % 5 != 1 or not skip[n // 5]]
        world.publish(batch)
    return world


def sense(world: WorldState) -> np.ndarray:
    """Read every live episode's sensors: (rows, lights, 3) controller inputs.

    A light's inputs are (lightLevel, motionDetected, wirelessIn).
    lightLevel is the ambient level plus every lamp at the light or adjacent
    to it that radiated last tick; a sensor-stuck light keeps its first
    reading, taken while every lamp was dark.  motionDetected is 1.0 while
    an unfinished pedestrian stands at the light or adjacent to it.
    wirelessIn is the strongest outbox of its wireless peers from last tick,
    at least 0.0.  With a broker, the lights publish their four readings in order.
    """
    inputs = world.inputs[: len(world.live)]
    # each reading gathers light by light (.T, every row of a light together),
    # so a take copies whole runs of rows and a reduction adds whole runs
    inputs[:, :, 0] = world.level_of[world.radiating.T.take(world.near.T, axis=0).sum(axis=0)].T
    if FAULT_SENSOR_STUCK in world.fault_kinds:
        inputs[:, world.faulty[FAULT_SENSOR_STUCK], 0] = world.level_of[0]
    inputs[:, :, 1] = _walkers(world)[2]
    # fmax skips a NaN outbox, as a running max() from 0.0 does
    inputs[:, :, 2] = np.fmax.reduce(world.outbox.T.take(world.peers.T, axis=0), axis=0).T
    if world.broker is not None:
        levels = world.level_texts
        batch = []
        for (received_key, level_key, motion, frame), (light_level, moving, received) in zip(
                world.log.sense, inputs[0].tolist()):
            batch += ((received_key, f"in={received:.6f}"),
                      (level_key, levels.get(light_level) or f"level={light_level:.6f}"),
                      motion[moving > 0.0], frame)
        world.publish(batch)
    return inputs


def actuate(world: WorldState, inputs: np.ndarray, outputs: np.ndarray) -> None:
    """Apply every live episode's (rows, lights, 2) controller outputs (led, wireless).

    A lamp is on while its led output is positive, and radiates unless it
    went dark; its outbox is the wireless output clamped at 0.0, or 0.0 on
    a muted light.  With a broker, light by light, the agent logs the
    readings ``inputs`` it decided on and its decision, then the light logs
    what it did.
    """
    lights, kinds = world.lights, world.fault_kinds
    if FAULT_GO_DARK in kinds:
        light_on = outputs[:, :, 0] > 0
        np.logical_and(light_on, ~world.faulty[FAULT_GO_DARK], out=world.radiating[:, :lights])
    else:
        light_on = np.greater(outputs[:, :, 0], 0, out=world.radiating[:, :lights])
    muted = world.faulty[FAULT_MUTE_WIRELESS]
    np.maximum(outputs[:, :, 1], 0.0, out=world.outbox[:, :lights])
    if FAULT_MUTE_WIRELESS in kinds:
        np.copyto(world.outbox[:, :lights], 0.0, where=muted)
    world.on_ticks += light_on.sum(axis=1)
    if world.broker is None:
        return
    agent, levels = world.log.keys["lightsAgent"], world.level_texts
    collect, act = agent["receiveInputDataFromSmartThing"], agent["sendOutputToSmartThing"]
    batch = []
    for (light, decide, command_key, switch, send, detect), (level, motion, wireless), \
            (led, out), mute, radiating in zip(world.log.act, inputs[0].tolist(),
                                               outputs[0].tolist(), muted.tolist(),
                                               world.radiating[0].tolist()):
        level_text = levels.get(level) or f"level={level:.6f}"
        out_text = f"{out:.6f}"
        command = f"led={led:.6f} wireless={out_text}"
        batch += (
            (collect, f"from {light} {level_text} motion={motion:.0f} wireless={wireless:.6f}"),
            decide,
            (act, f"to {light} {command}"),
            (command_key, command),
            switch[led > 0],
            # as max(out, 0.0) logs it: -0.0 and NaN keep their text, a negative out is 0
            (send, "out=0.000000" if mute or out < 0.0 else "out=" + out_text),
        )
        if radiating:
            # own sensor confirms a brightness at or above the lamp's own output
            batch.append((detect, world.brightness))
    world.publish(batch)


def move_people(world: WorldState) -> bool:
    """Advance every pedestrian that has light to walk by; return whether one did.

    A pedestrian moves one node per tick iff ambient light alone clears
    darkThreshold, or else the lamp at both the current and the next node
    radiates; every unfinished pedestrian pays one tick of trip time
    whether it moved or not.  Arrivals can only change when someone moved,
    so only then are they checked, and the world's walkers marked stale.
    """
    at, ahead, _, moves, count = _walkers(world)
    if not world.dark_walkable:
        # a finished pedestrian stands at the sentinel, which never radiates
        moves = world.radiating[world.rows, at] & world.radiating[world.rows, ahead]
    world.ticks_moving += count
    if not moves.any():
        return False
    world.step += moves
    world.arrived |= world.step == world.last_step
    world.walkers = None
    return True


def _controller_outputs(controller, inputs: np.ndarray) -> np.ndarray:
    """Ask one controller's forward_batch for all lights: (lights, 3) inputs -> (lights, 2) outputs."""
    outputs = np.asarray(controller.forward_batch(inputs), dtype=float)
    if outputs.shape != (len(inputs), 2):
        raise WorldError(f"controller must yield (lights, 2) outputs, got {outputs.shape}")
    return outputs


class ControllerBatch:
    """One controller per episode of a world, asked for every live episode at once.

    NeuralControllers of one topology, or a gene matrix (from_genes), run stacked_outputs,
    which their forward_batch runs on a stack of one, so a row has its controller's bits;
    any other controller is queried on its own, in episode order, with inputs it may keep.
    """

    def __init__(self, controllers):
        self.controllers = controllers = list(controllers)
        #: stack_layers of every controller's genes, if each is a NeuralController of one topology
        self.networks = None
        if controllers and all(type(c) is NeuralController
                               and c.topology == controllers[0].topology for c in controllers):
            self.networks = stack_layers([c.genes for c in controllers], controllers[0].topology)
        self._live = self._live_networks = None

    @classmethod
    def from_genes(cls, genes, topology) -> ControllerBatch:
        """The batch of the NeuralControllers decoding each row of ``genes``, none of them built."""
        batch = cls(())
        batch.networks = stack_layers(genes, topology)
        return batch

    def __len__(self) -> int:
        return len(self.controllers) if self.networks is None else len(self.networks[0])

    def __getitem__(self, rows: slice) -> ControllerBatch:
        chunk = ControllerBatch(())  # the episodes ``rows``, sharing the stacked layers
        chunk.controllers = self.controllers[rows]
        chunk.networks = self.networks and tuple(a[rows] for a in self.networks)
        return chunk

    def outputs(self, inputs: np.ndarray, live: np.ndarray) -> np.ndarray:
        """(rows, lights, 2) outputs for (rows, lights, 3) inputs; row r is episode live[r]."""
        if self.networks is None:
            return np.stack([_controller_outputs(self.controllers[episode], x.copy())
                             for episode, x in zip(live, inputs)])
        if live is not self._live:
            self._live, self._live_networks = live, tuple(a[live] for a in self.networks)
        return stacked_outputs(self._live_networks, inputs)


def step_world(world: WorldState, controllers: ControllerBatch) -> None:
    """Run one tick of every live episode: sense, decide, actuate, then pedestrians move.

    Sensors read the end of the last tick, so nothing a lamp does this tick
    reaches a sensor before the next one.  If someone moved, episodes whose
    pedestrians have all arrived then leave the batch.
    """
    world.tick += 1
    if world.broker is not None:
        world.broker.clock.advance_to(world.tick * TICK_US)
    inputs = sense(world)
    actuate(world, inputs, controllers.outputs(inputs, world.live))
    if move_people(world) and (done := world.arrived.all(axis=1)).any():
        world._leave(done)


def _run(world: WorldState, controllers: ControllerBatch) -> list[EpisodeMetrics]:
    """Step until every episode has ended, at maxTicks or once its pedestrians all arrived.

    A batch of NeuralControllers also ends an episode once its state recurs,
    with the exact counts of the ticks left: a silent row leaves the batch,
    and a logged world replays the recorded batches of its period up to
    maxTicks (module docstring).  Other controllers, which may hold state,
    step on.
    """
    periodic = controllers.networks is not None
    # huge finite weights overflow to inf (and inf - inf to nan): IEEE results, not errors
    with np.errstate(over="ignore", invalid="ignore"):
        while len(world.live) and world.tick < world.config.maxTicks:
            step_world(world, controllers)
            if periodic:
                world.retire_periodic()
    world.period = None
    return world.metrics()


def run_episode(
    config: WorldConfig,
    controller,
    broker: Broker | None = None,
    *,
    faults=(),
    stats: dict | None = None,
) -> EpisodeMetrics:
    """Run one full episode and report the normalized metrics.

    ``controller`` is a NeuralController or any object whose ``forward_batch``
    maps (lights, 3) inputs to (lights, 2) outputs.  The episode ends early
    when every pedestrian has finished; a world with no pedestrians always
    runs the full maxTicks.  With a broker attached the episode publishes its
    events, ending with finishSimulation if every pedestrian arrived; a
    NeuralController's episode publishes the ticks after its state recurs
    by replaying its period's batches.  ``stats``, if given, gets the
    ``ticks_stepped`` and ``ticks_replayed`` counts.
    """
    world = init_world(config, broker, faults=faults)
    metrics = _run(world, ControllerBatch([controller]))[0]
    # every pedestrian arrived (and the episode left the batch), or there are none
    if broker is not None and world.arrived.all():
        world.publish([(world.log.keys["lights"]["finishSimulation"], f"tick={world.tick}")])
    if stats is not None:
        stats["ticks_stepped"] = world.tick - world.ticks_replayed
        stats["ticks_replayed"] = world.ticks_replayed
    return metrics


def _row_bytes(config: WorldConfig, controllers) -> int:
    """About the bytes one episode's row takes in a tick's arrays, for a ControllerBatch or a list.

    That is a float per light for each input, output and stacked hidden
    neuron, and for each adjacent lamp and wireless peer it gathers; and per
    pedestrian, 8 bytes for its step, its saved step and each of the six
    index arrays a tick keeps or makes for it (in _walkers and move_people),
    plus a byte for its arrived flag and each of the six flags a tick makes.
    """
    _, near, peers = _layout(config)
    networks = (controllers if isinstance(controllers, ControllerBatch)
                else ControllerBatch(controllers)).networks
    hidden = 0 if networks is None else networks[0].shape[2]
    return (8 * len(near) * (3 + 2 + hidden + near.shape[1] + peers.shape[1])
            + config.numPeople * (8 * (2 + 6) + 1 + 6))


def run_episodes(config: WorldConfig, controllers, *, faults=()) -> list[EpisodeMetrics]:
    """Run one silent episode per controller, all at once, and report each one's metrics.

    Every episode runs on the same world (routes from ``config.rngSeed``)
    with the same faults, and gets exactly the EpisodeMetrics that
    ``run_episode`` gives its controller, also when a batch of NeuralControllers
    ends a repeating episode early.  ``controllers`` is a list or a
    ControllerBatch.  Episodes are independent, so a population whose tick
    would take more than TICK_BYTES is stepped in chunks of rows that take
    less, with the same results and one stacking of the layers.
    """
    if not isinstance(controllers, ControllerBatch):
        controllers = ControllerBatch(controllers)
    rows = max(1, TICK_BYTES // _row_bytes(config, controllers))
    metrics = []
    for start in range(0, len(controllers), rows):
        batch = controllers[start:start + rows]
        metrics += _run(init_world(config, faults=faults, episodes=len(batch)), batch)
    return metrics
