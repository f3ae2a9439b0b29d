import functools
import inspect
import itertools
import random
import re
import tempfile
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from masharness import world as world_module
from masharness.broker import Broker, QueueClosed
from masharness.cli import data_path
from masharness.evolution import GAConfig, load_ga_config
from masharness.logmodel import MAX_KEY_BYTES, TICK_US, BoundedMemo, intern_sites, load_tap
from masharness.neural import NetworkTopology, decode
from masharness.world import (
    FAULT_GO_DARK,
    FAULT_KINDS,
    FAULT_MUTE_WIRELESS,
    FAULT_SENSOR_STUCK,
    FAULT_SKIP_HANDSHAKE,
    MAX_LIGHTS,
    MAX_PEOPLE,
    MAX_ROUTE_NODES,
    MAX_TICKS,
    MAX_WIRELESS_LINKS,
    RECURRENCE_WINDOW,
    ControllerBatch,
    EpisodeMetrics,
    FaultSpec,
    InvalidConfig,
    UnknownFault,
    UnknownTarget,
    WorldConfig,
    WorldError,
    actuate,
    build_routes,
    init_world,
    load_config,
    load_world_config,
    move_people,
    parse_fault_spec,
    run_episode,
    run_episodes,
    seeds_with_light_on_route,
    sense,
    step_world,
)

from oracles import oracle_init_world, oracle_run_episode


def cfg(**kw):
    base = dict(
        gridWidth=2,
        gridHeight=2,
        wirelessRange=1,
        numPeople=0,
        maxTicks=5,
        ambientLight=0.05,
        lightBrightness=0.8,
        darkThreshold=0.15,
        rngSeed=1,
    )
    base.update(kw)
    return WorldConfig(**base)


class ConstantController:
    """Same (led, wireless) pair for every light on every tick."""

    def __init__(self, led, wireless):
        self.pair = (float(led), float(wireless))

    def forward_batch(self, inputs):
        return np.tile(self.pair, (len(inputs), 1))


class ScriptedController:
    """Plays back one preset (lights, 2) output matrix per tick, recording each tick's inputs."""

    def __init__(self, frames):
        self.frames = [np.asarray(f, dtype=float) for f in frames]
        self.seen = []

    def forward_batch(self, inputs):
        out = self.frames[min(len(self.seen), len(self.frames) - 1)]
        self.seen.append(np.array(inputs))
        return out


class RandomController:
    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)

    def forward_batch(self, inputs):
        return self.rng.uniform(-1.0, 1.0, size=(len(inputs), 2))


def batch(controller):
    return ControllerBatch([controller])


def drain(queue):
    events = []
    while True:
        try:
            ev = queue.consume(0.0)
        except QueueClosed:
            return events
        if ev is None:
            return events
        events.append(ev)


def seed_with_routes(routes, **kw):
    """The first world seed whose pedestrians walk exactly ``routes``."""
    return next(seed for seed in itertools.count(1)
                if build_routes(cfg(rngSeed=seed, **kw)) == routes)


def count_ticks(monkeypatch):
    """The ticks that ``step_world`` runs from now on, one entry per call."""
    ticks, step = [], world_module.step_world

    def counting(world, controllers):
        ticks.append(world.tick + 1)
        step(world, controllers)

    monkeypatch.setattr(world_module, "step_world", counting)
    return ticks


def tap_records(path):
    """(key, message) of every tap line, timestamps left out."""
    return [(key, message) for key, _, message in
            (line.split("\t", 2) for line in path.read_text().splitlines())]


class TestWorldConfig:
    def test_defaults(self):
        c = WorldConfig()
        assert (c.gridWidth, c.gridHeight) == (5, 5)
        assert c.maxTicks == 200
        assert c.darkThreshold < c.lightBrightness

    @pytest.mark.parametrize(
        "kw",
        [
            dict(gridWidth=0),
            dict(gridHeight=0),
            dict(wirelessRange=-1),
            dict(numPeople=-1),
            dict(maxTicks=0),
            dict(ambientLight=1.5),
            dict(lightBrightness=-0.1),
            dict(darkThreshold=0.8, lightBrightness=0.8),
            dict(darkThreshold=0.9, lightBrightness=0.8),
            dict(darkThreshold=-0.1),
            dict(maxTicks=MAX_TICKS + 1),
        ],
    )
    def test_rejects_bad_values(self, kw):
        with pytest.raises(InvalidConfig):
            cfg(**kw)

    @pytest.mark.parametrize(
        "name", ["ambientLight", "lightBrightness", "darkThreshold"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_floats_are_rejected_by_name(self, name, value):
        with pytest.raises(InvalidConfig, match=f"^{name} must be a finite number"):
            cfg(**{name: value})

    @pytest.mark.parametrize("kw,message", [
        # None would seed routes from the OS and cache them under the key None
        (dict(rngSeed=None), "rngSeed must be int, not NoneType"),
        (dict(gridWidth=5.0), "gridWidth must be int, not float"),
        (dict(gridWidth=True), "gridWidth must be int, not bool"),
        (dict(ambientLight="x"), "ambientLight must be float, not str"),
        # str() refuses an int this long, so a range message could not show it
        (dict(gridWidth=10 ** 5000), "gridWidth must have at most 4300 digits"),
        # no float holds this int, so the field would raise OverflowError where it is used
        (dict(ambientLight=10 ** 400), "ambientLight must be a finite number, got an int of 1329 bits"),
    ])
    def test_a_field_takes_its_declared_type(self, kw, message):
        with pytest.raises(InvalidConfig, match=f"^{message}$"):
            cfg(**kw)
        # a float field takes an int, as a config file's value would read
        assert cfg(ambientLight=0).ambientLight == 0

    def test_grid_size_is_bounded(self):
        assert cfg(gridWidth=100, gridHeight=MAX_LIGHTS // 100).gridWidth == 100
        with pytest.raises(InvalidConfig, match="lights"):
            cfg(gridWidth=100, gridHeight=MAX_LIGHTS // 100 + 1)
        with pytest.raises(InvalidConfig, match="lights"):
            cfg(gridWidth=100_000, gridHeight=100_000)

    def test_wireless_links_are_bounded(self):
        with pytest.raises(InvalidConfig, match=f"more than {MAX_WIRELESS_LINKS} wireless links"):
            cfg(gridWidth=40, gridHeight=40, wirelessRange=80)
        # 10,000 lights with 4 peers each, and the largest range a 50x50 grid may have
        assert cfg(gridWidth=100, gridHeight=100, wirelessRange=1).wirelessRange == 1
        assert 2500 * 2 * 6 * 7 <= MAX_WIRELESS_LINKS < 2500 * 2 * 7 * 8
        assert cfg(gridWidth=50, gridHeight=50, wirelessRange=6).wirelessRange == 6
        with pytest.raises(InvalidConfig, match="wireless links"):
            cfg(gridWidth=50, gridHeight=50, wirelessRange=7)
        # a small grid may take any range: no light has more than lights - 1 peers
        assert cfg(gridWidth=6, gridHeight=6, wirelessRange=10**9).wirelessRange == 10**9

    def test_route_nodes_are_bounded(self):
        # routes are built at set-up, so people times the longest route is bounded
        error = (rf"^numPeople 10000 on grid 1x10000 can walk more than {MAX_ROUTE_NODES} "
                 r"route nodes$")
        with pytest.raises(InvalidConfig, match=error):
            cfg(gridWidth=1, gridHeight=10_000, numPeople=MAX_PEOPLE)
        with pytest.raises(InvalidConfig, match="route nodes"):
            cfg(gridWidth=1, gridHeight=2000, numPeople=2000)
        # the largest square grid may hold the most people: routes of at most 199 nodes
        assert cfg(gridWidth=100, gridHeight=100, numPeople=MAX_PEOPLE).numPeople == MAX_PEOPLE
        assert MAX_PEOPLE * 199 <= MAX_ROUTE_NODES
        assert cfg(gridWidth=1, gridHeight=1000, numPeople=1000).numPeople == 1000

    def test_people_are_bounded(self):
        assert cfg(numPeople=MAX_PEOPLE).numPeople == 10_000
        for people in (MAX_PEOPLE + 1, 10**12):
            error = rf"^numPeople must be in \[0,10000\], got {people}$"
            with pytest.raises(InvalidConfig, match=error):
                cfg(numPeople=people)

    def test_range_beyond_the_grid_acts_as_the_longest_distance(self):
        far, longest = cfg(gridWidth=4, gridHeight=3, wirelessRange=10**9), cfg(
            gridWidth=4, gridHeight=3, wirelessRange=5)
        assert np.array_equal(init_world(far).peers, init_world(longest).peers)
        relay = decode([0.0, 5.0, 5.0, -1.0, 5.0, 5.0, -1.0, -1.0], NetworkTopology(hiddenCount=1))
        assert run_episodes(far, [relay]) == run_episodes(longest, [relay])

    def test_a_10000_light_grid_with_range_1_runs(self):
        c = cfg(gridWidth=100, gridHeight=100, wirelessRange=1, numPeople=5, maxTicks=3)
        metrics = run_episode(c, ConstantController(1.0, 0.5))
        assert metrics.pEnergy == 1.0 and metrics.pTrip > 0.0

    def test_load_rejects_non_utf8_naming_the_file(self, tmp_path):
        path = tmp_path / "world.cfg"
        path.write_bytes(b"\xff\xfegridWidth = 3\n")
        with pytest.raises(InvalidConfig, match="not UTF-8") as info:
            load_world_config(path)
        assert str(path) in str(info.value)

    def test_load_round_trip(self, tmp_path):
        path = tmp_path / "world.cfg"
        path.write_text(
            "# neighborhood\n"
            "gridWidth = 3\n"
            "gridHeight=4\n"
            "\n"
            "numPeople = 2\n"
            "ambientLight = 0.10\n"
        )
        c = load_world_config(path)
        assert (c.gridWidth, c.gridHeight, c.numPeople) == (3, 4, 2)
        assert c.ambientLight == 0.10
        assert c.maxTicks == 200  # unlisted keys keep defaults

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("gridWidth = 3\nnope = 1\n", "line 2"),
            ("gridWidth = abc\n", "line 1"),
            ("gridWidth\n", "line 1"),
            ("ambientLight = high\n", "line 1"),
        ],
    )
    def test_load_errors_carry_line_numbers(self, tmp_path, text, fragment):
        path = tmp_path / "world.cfg"
        path.write_text(text)
        with pytest.raises(InvalidConfig, match=fragment):
            load_world_config(path)


CONFIG_KINDS = {
    "world": (WorldConfig, load_world_config, "gridWidth", "ambientLight"),
    "ga": (GAConfig, load_ga_config, "populationSize", "mutationSigma"),
}


class TestConfigLoader:
    """One key=value loader reads both config kinds, driven by their fields."""

    @pytest.mark.parametrize("kind", list(CONFIG_KINDS))
    @pytest.mark.parametrize("text,line,error", [
        ("# ok\n\n{int} 3\n", 3, "expected key=value, got '{int} 3'"),
        ("{int}=3\nvibe = high\n", 2, "unknown key 'vibe'"),
        ("{int} = 3.0\n", 1, "bad value for {int}: '3.0'"),
        ("{float} = high\n", 1, "bad value for {float}: 'high'"),
        (b"\xff\xfe{int}=3\n", None, "is not UTF-8 text: invalid start byte"),
    ], ids=["no-equals", "unknown-key", "bad-int", "bad-float", "not-utf8"])
    def test_each_error_names_the_file_and_line(self, tmp_path, kind, text, line, error):
        cls, load, int_key, float_key = CONFIG_KINDS[kind]
        path = tmp_path / f"{kind}.cfg"
        if isinstance(text, bytes):
            path.write_bytes(text.replace(b"{int}", int_key.encode()))
        else:
            path.write_text(text.format(int=int_key, float=float_key))
        with pytest.raises(InvalidConfig) as info:
            load(path)
        where = f"config {path}" + (f" line {line}: " if line else " ")
        assert str(info.value) == where + error.format(int=int_key, float=float_key)
        with pytest.raises(InvalidConfig, match=re.escape(str(info.value))):
            load_config(cls, path)

    @pytest.mark.parametrize("kind", list(CONFIG_KINDS))
    def test_values_are_read_as_their_field_type(self, tmp_path, kind):
        cls, load, int_key, float_key = CONFIG_KINDS[kind]
        path = tmp_path / f"{kind}.cfg"
        path.write_text(f"  {float_key} = 1  \n# {int_key} = nope\n{int_key}=7\n{int_key} = 8\n")
        config = load(path)
        assert config == cls(**{float_key: 1.0, int_key: 8})  # the last value given wins
        assert type(getattr(config, float_key)) is float and type(getattr(config, int_key)) is int

    def test_shipped_configs_load_to_equal_objects(self):
        assert load_world_config(data_path("world.cfg")) == WorldConfig(
            gridWidth=5, gridHeight=5, wirelessRange=1, numPeople=5, maxTicks=200,
            ambientLight=0.05, lightBrightness=0.8, darkThreshold=0.15, rngSeed=2)
        assert load_ga_config(data_path("ga.cfg")) == GAConfig(
            populationSize=40, generations=30, elitism=2, tournamentSize=3, crossoverRate=0.8,
            mutationRate=0.05, mutationSigma=0.3, weightLimit=5.0, hiddenCount=4,
            energyTarget=0.70, rngSeed=1)


class TestFaultSpec:
    def test_parse_single_and_multiple_targets(self):
        assert parse_fault_spec("go-dark:node10") == FaultSpec("go-dark", ("node10",))
        spec = parse_fault_spec("mute-wireless:node1,node2,node3")
        assert spec.kind == FAULT_MUTE_WIRELESS
        assert spec.targets == ("node1", "node2", "node3")

    @pytest.mark.parametrize("text", ["go-dark", "go-dark:", "go-dark:,", "flicker:node1", ":node1", 5])
    def test_parse_rejects_malformed(self, text):
        with pytest.raises(UnknownFault):
            parse_fault_spec(text)

    def test_inject_unknown_target(self):
        with pytest.raises(UnknownTarget, match="no light named 'node99'"):
            init_world(cfg(), faults=[FaultSpec("go-dark", ("node99",))])

    def test_inject_unknown_kind(self):
        with pytest.raises(UnknownFault, match="unknown fault kind 'flicker'"):
            init_world(cfg(), faults=[FaultSpec("flicker", ("node1",))])

    def test_inject_sets_flags_on_all_targets(self):
        world = init_world(cfg(), faults=[FaultSpec(FAULT_GO_DARK, ("node1", "node4"))])
        assert world.faulty[FAULT_GO_DARK].tolist() == [True, False, False, True]
        assert not any(world.faulty[kind].any() for kind in FAULT_KINDS if kind != FAULT_GO_DARK)


class TestGridAndRoutes:
    def test_node_ids_are_row_major(self):
        world = init_world(cfg(gridWidth=3, gridHeight=3))
        assert world.ids == tuple(f"node{i}" for i in range(1, 10))
        # (x, y) is light y * gridWidth + x
        assert [world.ids[y * 3 + x] for x, y in ((0, 0), (2, 0), (0, 1), (2, 2))] == [
            "node1", "node3", "node4", "node9"]

    def test_node10_sits_at_4_1_on_default_grid(self):
        world = init_world(cfg(gridWidth=5, gridHeight=5))
        assert world.ids[1 * 5 + 4] == "node10"

    def test_neighbor_counts(self):
        world = init_world(cfg(gridWidth=3, gridHeight=3))
        adjacent = (world.near < world.lights).sum(axis=1) - 1  # less the light itself
        assert (adjacent[0], adjacent[1], adjacent[4]) == (2, 3, 4)

    def test_wireless_range_uses_manhattan_distance(self):
        world = init_world(cfg(gridWidth=3, gridHeight=3, wirelessRange=2))
        center = [world.ids[j] for j in world.peers[4] if j < world.lights]
        assert set(center) == {f"node{i}" for i in (1, 2, 3, 4, 6, 7, 8, 9)}
        zero = init_world(cfg(wirelessRange=0))
        assert (zero.peers == zero.lights).all()

    @pytest.mark.parametrize("width,height", [(1, 1), (1, 6), (4, 3), (6, 6)])
    @pytest.mark.parametrize("reach", [0, 1, 2, 5, 12])
    def test_neighbour_lists_match_an_all_pairs_scan(self, width, height, reach):
        world = init_world(cfg(gridWidth=width, gridHeight=height, wirelessRange=reach))
        position = [(i % width, i // width) for i in range(world.lights)]
        for i, (x, y) in enumerate(position):
            assert [j for j in world.peers[i] if j < world.lights] == [
                j for j, (ox, oy) in enumerate(position)
                if j != i and abs(ox - x) + abs(oy - y) <= reach
            ]
            assert [position[j] for j in world.near[i] if j < world.lights] == [(x, y)] + [
                (nx, ny) for nx, ny in ((x - 1, y), (x + 1, y), (x, y - 1), (x, y + 1))
                if 0 <= nx < width and 0 <= ny < height
            ]

    def test_routes_are_seeded_border_to_border_shortest_paths(self):
        c = cfg(gridWidth=5, gridHeight=4, numPeople=6, rngSeed=9)
        routes = build_routes(c)
        again = build_routes(c)
        assert routes == again
        border = {
            (x, y)
            for y in range(4)
            for x in range(5)
            if x in (0, 4) or y in (0, 3)
        }
        for route in routes:
            start, end = route[0], route[-1]
            assert start in border and end in border and start != end
            manhattan = abs(end[0] - start[0]) + abs(end[1] - start[1])
            assert len(route) == manhattan + 1
            for (x1, y1), (x2, y2) in zip(route, route[1:]):
                assert abs(x1 - x2) + abs(y1 - y2) == 1
        world = init_world(c)
        assert [world.path[n, : len(r)].tolist() for n, r in enumerate(routes)] == [
            [y * 5 + x for x, y in route] for route in routes]

    def test_routes_are_seeded_by_their_config_alone(self):
        assert list(inspect.signature(build_routes).parameters) == ["config"]

    def test_people_need_two_border_nodes(self):
        with pytest.raises(InvalidConfig):
            init_world(cfg(gridWidth=1, gridHeight=1, numPeople=1))
        world = init_world(cfg(gridWidth=1, gridHeight=1, numPeople=0))
        assert world.people == 0

    def test_seeds_with_light_on_route(self):
        c = cfg(gridWidth=5, gridHeight=5, numPeople=5)
        seeds = seeds_with_light_on_route(c, "node10", 4)
        assert len(seeds) == 4
        assert seeds == sorted(set(seeds))
        for seed in seeds:
            routes = build_routes(cfg(gridWidth=5, gridHeight=5, numPeople=5, rngSeed=seed))
            assert (4, 1) in {pos for route in routes for pos in route}

    @pytest.mark.parametrize("config,light,count,error", [
        (WorldConfig(), "node99", 1, UnknownTarget),
        (WorldConfig(), "node0", 1, UnknownTarget),
        (WorldConfig(), ["node10"], 1, UnknownTarget),
        (WorldConfig(), "node10", 2.5, WorldError),
        (WorldConfig(), "node10", "3", WorldError),
        (WorldConfig(), "node10", True, WorldError),
        (cfg(gridWidth=5, gridHeight=5), "node10", 1, WorldError),
    ], ids=["off-grid", "node0", "list", "float-count", "str-count", "bool-count", "no-people"])
    def test_seeds_with_light_on_route_checks_before_it_searches(self, config, light, count,
                                                                  error):
        with mock.patch.object(world_module, "build_routes", side_effect=AssertionError):
            with pytest.raises(error):
                seeds_with_light_on_route(config, light, count)


class TestHandshake:
    def test_five_logs_per_light(self, tmp_path):
        tap = tmp_path / "tap.log"
        with Broker(tap=str(tap)) as broker:
            init_world(cfg(gridWidth=3, gridHeight=3, numPeople=2), broker)
        events = load_tap(tap)
        assert len(events) == 45
        assert all(e.tick == 0 for e in events)
        first = [(e.agentType, e.action) for e in events[:5]]
        assert first == [
            ("MANAGER", "receiveMsgFromSmartThing"),
            ("MANAGER", "createAdaptiveAgent"),
            ("AdaptiveAgent", "connect"),
            ("MANAGER", "sendMsgToSmartThing"),
            ("AdaptiveAgent", "receiveInputDataFromSmartThing"),
        ]
        assert [(e.agentType, e.action) for e in events[40:]] == first

    def test_skip_handshake_drops_only_create_agent(self, tmp_path):
        tap = tmp_path / "tap.log"
        with Broker(tap=str(tap)) as broker:
            init_world(
                cfg(gridWidth=2, gridHeight=2),
                broker,
                faults=[FaultSpec(FAULT_SKIP_HANDSHAKE, ("node1",))],
            )
        events = load_tap(tap)
        assert len(events) == 4 * 5 - 1
        created = [e for e in events if e.action == "createAdaptiveAgent"]
        assert len(created) == 3
        assert [e.action for e in events[:4]] == [
            "receiveMsgFromSmartThing",
            "connect",
            "sendMsgToSmartThing",
            "receiveInputDataFromSmartThing",
        ]

    def test_silent_without_broker(self):
        world = init_world(cfg())
        assert world.broker is None
        assert world.lights == 4

    def test_a_logged_world_runs_one_episode(self):
        with Broker() as broker, pytest.raises(WorldError, match="one episode"):
            init_world(cfg(), broker, episodes=2)


class TestSense:
    def test_dark_idle_world(self):
        inputs = sense(init_world(cfg()))
        assert inputs.shape == (1, 4, 3)
        assert inputs[0, 0].tolist() == [cfg().ambientLight, 0.0, 0.0]

    def test_motion_covers_own_and_adjacent_nodes(self):
        # one pedestrian standing on node2 at (1, 0) of a 3x3 grid
        kw = dict(gridWidth=3, gridHeight=3, numPeople=1)
        seed = next(s for s in itertools.count(1)
                    if build_routes(cfg(rngSeed=s, **kw))[0][0] == (1, 0))
        world = init_world(cfg(rngSeed=seed, **kw))
        motion = sense(world)[0, :, 1]
        assert motion[1] == 1.0  # own node
        assert motion[[0, 2, 4]].tolist() == [1.0, 1.0, 1.0]  # adjacent
        assert motion[[3, 5, 6, 7, 8]].tolist() == [0.0] * 5  # diagonal or farther
        world.arrived[0, 0] = True
        world.walkers = None  # written outside move_people, so marked stale by hand
        assert not sense(world)[0, :, 1].any()

    def test_light_level_sums_own_and_adjacent_spill(self):
        c = cfg(gridWidth=3, gridHeight=1, ambientLight=0.5, lightBrightness=0.3)
        world = init_world(c)
        world.radiating[0, 1] = True
        level = sense(world)[0, :, 0]
        assert level[0] == pytest.approx(0.8)
        assert level[1] == pytest.approx(0.8)
        world.radiating[0, [0, 1]] = True
        level = sense(world)[0, :, 0]
        # 0.5 + 0.3 + 0.3 clamps to 1.0
        assert level[0] == 1.0
        assert level[2] == pytest.approx(0.8)

    def test_sensor_stuck_freezes_first_reading(self):
        world = init_world(
            cfg(gridWidth=2, gridHeight=1),
            faults=[FaultSpec(FAULT_SENSOR_STUCK, ("node1",))],
        )
        ambient = world.config.ambientLight
        assert sense(world)[0, 0, 0] == ambient
        world.radiating[0, [0, 1]] = True
        level = sense(world)[0, :, 0]
        assert level[0] == ambient
        assert level[1] > ambient

    def test_wireless_takes_strongest_neighbor_not_self(self):
        world = init_world(cfg(gridWidth=3, gridHeight=1, wirelessRange=1))
        world.outbox[0, :3] = [0.3, 0.9, 0.7]
        wireless = sense(world)[0, :, 2]
        assert wireless[1] == 0.7
        assert wireless[0] == 0.9
        wide = init_world(cfg(gridWidth=3, gridHeight=1, wirelessRange=2))
        wide.outbox[0, :3] = [0.3, 0.9, 0.7]
        assert sense(wide)[0, 0, 2] == 0.9

    def test_publishes_four_logs_in_order(self, tmp_path):
        tap = tmp_path / "tap.log"
        with Broker(tap=str(tap)) as broker:
            world = init_world(cfg(), broker)
            sense(world)
        events = load_tap(tap)[20:]
        assert [e.agentName for e in events] == [f"node{i}" for i in range(1, 5) for _ in range(4)]
        node3 = events[8:12]
        assert [(e.agentName, e.action) for e in node3] == [
            ("node3", "receiveWirelessData"),
            ("node3", "readLightSensor"),
            ("node3", "readMotionSensor"),
            ("node3", "sendMsg"),
        ]
        assert node3[2].message == "motion=0"
        assert all(e.agentType == "lightContainer" for e in events)


class TestActuate:
    def run_actuate(self, tmp_path, decision, faults=()):
        tap = tmp_path / "tap.log"
        with Broker(tap=str(tap)) as broker:
            world = init_world(cfg(), broker, faults=faults)
            outputs = np.zeros((1, 4, 2))
            outputs[0, 0] = decision
            actuate(world, np.zeros((1, 4, 3)), outputs)
        actions = [e.action for e in load_tap(tap) if e.tick == 0 and e.agentName == "node1"]
        return world, actions

    def test_positive_led_switches_on_and_detects(self, tmp_path):
        world, actions = self.run_actuate(tmp_path, (0.7, 0.2))
        assert world.radiating[0, 0]
        assert world.on_ticks[0] == 1
        assert world.outbox[0, 0] == pytest.approx(0.2)
        assert actions == [
            "receiveNeuralNetworkCommand",
            "switchLightON",
            "sendWirelessData",
            "detectLight",
        ]

    def test_non_positive_led_switches_off(self, tmp_path):
        world, actions = self.run_actuate(tmp_path, (-0.3, -0.5))
        assert not world.radiating[0, 0]
        assert world.outbox[0, 0] == 0.0  # negative broadcast clamps to silence
        assert actions == [
            "receiveNeuralNetworkCommand",
            "switchLightOFF",
            "sendWirelessData",
        ]

    def test_zero_led_means_off(self, tmp_path):
        world, actions = self.run_actuate(tmp_path, (0.0, 0.0))
        assert not world.radiating[0, 0]
        assert world.on_ticks[0] == 0

    def test_go_dark_switches_on_without_detecting(self, tmp_path):
        world, actions = self.run_actuate(
            tmp_path, (0.9, 0.0), faults=[FaultSpec(FAULT_GO_DARK, ("node1",))]
        )
        assert world.on_ticks[0] == 1  # on, and burning energy
        assert not world.radiating[0, 0]
        assert "switchLightON" in actions
        assert "detectLight" not in actions

    def test_mute_wireless_forces_silent_outbox(self, tmp_path):
        world, actions = self.run_actuate(
            tmp_path, (0.9, 0.8), faults=[FaultSpec(FAULT_MUTE_WIRELESS, ("node1",))]
        )
        assert world.outbox[0, 0] == 0.0
        assert "sendWirelessData" in actions


class TestMovement:
    def walkway(self, **kw):
        kw = dict(gridWidth=2, gridHeight=1, numPeople=1, **kw)
        world = init_world(cfg(rngSeed=seed_with_routes([((0, 0), (1, 0))], **kw), **kw))
        return world

    def test_advances_when_both_ends_lit(self):
        world = self.walkway()
        world.radiating[0, :2] = True
        move_people(world)
        assert world.step[0, 0] == 1
        assert world.arrived[0, 0]
        assert world.ticks_moving[0] == 1

    def test_blocked_when_current_node_dark(self):
        world = self.walkway()
        world.radiating[0, 1] = True
        move_people(world)
        assert world.step[0, 0] == 0
        assert world.ticks_moving[0] == 1  # waiting still costs trip time

    def test_blocked_when_next_node_dark(self):
        world = self.walkway()
        world.radiating[0, 0] = True
        move_people(world)
        assert world.step[0, 0] == 0

    def test_go_dark_lamp_gives_no_walking_light(self):
        kw = dict(gridWidth=2, gridHeight=1, numPeople=1)
        seed = seed_with_routes([((0, 0), (1, 0))], **kw)
        world = init_world(cfg(rngSeed=seed, **kw),
                           faults=[FaultSpec(FAULT_GO_DARK, ("node2",))])
        actuate(world, np.zeros((1, 2, 3)), np.ones((1, 2, 2)))
        move_people(world)
        assert world.step[0, 0] == 0

    def test_finished_people_stop_accruing_trip_time(self):
        world = self.walkway()
        world.step[0, 0] = 1
        world.arrived[0, 0] = True
        move_people(world)
        assert world.ticks_moving[0] == 0

    def test_bright_ambient_alone_is_enough(self):
        world = self.walkway(ambientLight=0.5)
        move_people(world)
        assert world.arrived[0, 0]

    @settings(max_examples=100, deadline=None)
    @given(st.floats(0.0, 1.0), st.floats(0.0, 1.0, exclude_min=True).flatmap(
        lambda brightness: st.tuples(st.just(brightness),
                                     st.floats(0.0, brightness, exclude_max=True))))
    @example(0.15, (0.8, 0.15))
    @example(0.0, (5e-324, 0.0))
    @example(1.0, (1.0, 0.999))
    def test_radiating_lamps_light_every_valid_world(self, ambient, levels):
        # darkThreshold < lightBrightness, so a lamp's own light always clears it
        brightness, threshold = levels
        kw = dict(ambientLight=ambient, lightBrightness=brightness, darkThreshold=threshold)
        lit, dark = self.walkway(**kw), self.walkway(**kw)
        lit.radiating[0, :2] = True
        move_people(lit)
        move_people(dark)
        assert lit.step[0, 0] == 1
        assert dark.step[0, 0] == (ambient > threshold)


class TestStepWorld:
    def test_tick_log_layout(self, tmp_path):
        tap = tmp_path / "tap.log"
        with Broker(tap=str(tap)) as broker:
            world = init_world(cfg(), broker)
            step_world(world, batch(ConstantController(1.0, 1.0)))
        events = [e for e in load_tap(tap) if e.tick == 1]
        ids = [f"node{i}" for i in range(1, 5)]
        expected = []
        for lid in ids:
            expected += [
                (lid, "receiveWirelessData"),
                (lid, "readLightSensor"),
                (lid, "readMotionSensor"),
                (lid, "sendMsg"),
            ]
        for lid in ids:
            expected += [
                ("lightsAgent", "receiveInputDataFromSmartThing"),
                ("lightsAgent", "useControllerToGetOutput"),
                ("lightsAgent", "sendOutputToSmartThing"),
                (lid, "receiveNeuralNetworkCommand"),
                (lid, "switchLightON"),
                (lid, "sendWirelessData"),
                (lid, "detectLight"),
            ]
        assert [(e.agentName, e.action) for e in events] == expected

    def test_timestamps_strictly_increase_and_recover_ticks(self, tmp_path):
        tap = tmp_path / "tap.log"
        with Broker(tap=str(tap)) as broker:
            world = init_world(cfg(), broker)
            for _ in range(3):
                step_world(world, batch(ConstantController(1.0, 0.0)))
        events = load_tap(tap)
        stamps = [e.timestamp for e in events]
        assert stamps == sorted(stamps) and len(set(stamps)) == len(stamps)
        assert sorted(set(e.tick for e in events)) == [0, 1, 2, 3]

    def test_controller_shape_is_checked(self):
        world = init_world(cfg())

        class Wide:
            def forward_batch(self, inputs):
                return np.zeros((len(inputs), 3))

        with pytest.raises(WorldError, match="controller"):
            step_world(world, batch(Wide()))

    def test_energy_counts_on_ticks_exactly(self):
        world = init_world(cfg())
        on = batch(ConstantController(1.0, 0.0))
        off = batch(ConstantController(-1.0, 0.0))
        step_world(world, on)
        step_world(world, on)
        step_world(world, off)
        assert world.on_ticks[0] == 8
        assert world.metrics()[0].pEnergy == 8 / (4 * 5)

    def test_wireless_arrives_one_tick_late(self):
        quiet = [[0.0, 0.0]] * 3
        world = init_world(cfg(gridWidth=3, gridHeight=1))
        script = ScriptedController(
            [[[0.0, 0.0], [0.0, 0.8], [0.0, 0.0]], quiet, quiet]
        )
        for _ in range(3):
            step_world(world, batch(script))
        first, second, third = (inputs[:, 2] for inputs in script.seen)
        assert first[0] == 0.0  # nothing sent yet
        assert second[0] == pytest.approx(0.8)
        assert second[2] == pytest.approx(0.8)
        assert second[1] == 0.0  # own broadcast excluded
        assert third[0] == 0.0  # decayed with the outbox

    def test_spill_is_visible_one_tick_late(self):
        quiet = [[0.0, 0.0]] * 3
        world = init_world(cfg(gridWidth=3, gridHeight=1))
        script = ScriptedController(
            [[[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]], quiet]
        )
        step_world(world, batch(script))
        step_world(world, batch(script))
        ambient = world.config.ambientLight
        assert script.seen[0][0, 0] == ambient
        lit = ambient + world.config.lightBrightness
        assert script.seen[1][:, 0] == pytest.approx([lit] * 3)

    def test_walking_light_is_own_lamp_only(self):
        # the middle lamp lights its sensor neighborhood but nobody else walks by it
        kw = dict(gridWidth=3, gridHeight=1, numPeople=1)
        world = init_world(cfg(rngSeed=seed_with_routes([((0, 0), (1, 0), (2, 0))], **kw), **kw))
        middle_only = ScriptedController([[[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]]])
        for _ in range(3):
            step_world(world, batch(middle_only))
        assert world.step[0, 0] == 0
        assert middle_only.seen[-1][0, 0] > world.config.darkThreshold

    def test_mute_wireless_starves_neighbors(self):
        broadcast = ScriptedController([[[-1.0, 1.0]] * 3])
        world = init_world(
            cfg(gridWidth=3, gridHeight=1),
            faults=[FaultSpec(FAULT_MUTE_WIRELESS, ("node2",))],
        )
        step_world(world, batch(broadcast))
        assert world.outbox[0, :3].tolist() == [1.0, 0.0, 1.0]
        step_world(world, batch(broadcast))
        assert broadcast.seen[1][0, 2] == 0.0
        assert broadcast.seen[1][1, 2] == 1.0

    def test_batched_episodes_leave_the_batch_as_their_people_arrive(self):
        c = cfg(gridWidth=3, gridHeight=3, numPeople=2, maxTicks=30, rngSeed=5)
        world = init_world(c, episodes=2)
        controllers = ControllerBatch([ConstantController(1.0, 0.0),
                                       ConstantController(-1.0, 0.0)])
        while 0 in world.live:
            step_world(world, controllers)
        assert world.live.tolist() == [1]  # the dark episode strands its pedestrians
        assert world.results[0].pPeople == 1.0 and world.results[1] is None
        while world.tick < c.maxTicks:
            step_world(world, controllers)
        assert world.metrics() == [oracle_run_episode(c, ConstantController(1.0, 0.0)),
                                   oracle_run_episode(c, ConstantController(-1.0, 0.0))]


class TestRunEpisode:
    def test_empty_world_full_burn(self, tmp_path):
        tap = tmp_path / "tap.log"
        with Broker(tap=str(tap)) as broker:
            metrics = run_episode(cfg(maxTicks=7), ConstantController(1.0, 0.0), broker)
        assert metrics == EpisodeMetrics(pPeople=1.0, pTrip=0.0, pEnergy=1.0)
        finish = [e for e in load_tap(tap) if e.action == "finishSimulation"]
        assert len(finish) == 1
        assert finish[0].tick == 7  # no people means no early stop

    def test_dark_world_strands_everyone(self, tmp_path):
        tap = tmp_path / "tap.log"
        c = cfg(gridWidth=4, gridHeight=4, numPeople=3, maxTicks=20)
        with Broker(tap=str(tap)) as broker:
            metrics = run_episode(c, ConstantController(-1.0, 0.0), broker)
        assert metrics == EpisodeMetrics(pPeople=0.0, pTrip=1.0, pEnergy=0.0)
        assert not any(e.action == "finishSimulation" for e in load_tap(tap))

    def test_always_on_finishes_early(self):
        c = cfg(gridWidth=5, gridHeight=5, numPeople=4, maxTicks=50)
        metrics = run_episode(c, ConstantController(1.0, 0.0))
        assert metrics.pPeople == 1.0
        assert metrics.pTrip < 1.0
        assert metrics.pEnergy < 1.0  # early stop cuts the burn short

    def test_zero_genome_keeps_lights_off(self):
        metrics = run_episode(cfg(maxTicks=3), decode([0.0] * 26))
        assert metrics.pEnergy == 0.0

    def test_deterministic_for_fixed_seed(self):
        c = cfg(gridWidth=4, gridHeight=3, numPeople=3, maxTicks=30, rngSeed=77)
        rng = np.random.default_rng(5)
        genes = rng.uniform(-1.0, 1.0, size=26).tolist()
        assert run_episode(c, decode(genes)) == run_episode(c, decode(genes))

    def test_go_dark_on_route_blocks_arrival(self):
        c = cfg(gridWidth=5, gridHeight=5, numPeople=3, maxTicks=60)
        seed = seeds_with_light_on_route(c, "node10", 1)[0]
        c = cfg(gridWidth=5, gridHeight=5, numPeople=3, maxTicks=60, rngSeed=seed)
        on = ConstantController(1.0, 0.0)
        assert run_episode(c, on).pPeople == 1.0
        faulted = run_episode(c, on, faults=[FaultSpec(FAULT_GO_DARK, ("node10",))])
        assert faulted.pPeople < 1.0

    def test_switch_on_logs_match_energy_exactly(self):
        c = cfg(gridWidth=2, gridHeight=2, maxTicks=9)

        class Flicker:
            def __init__(self):
                self.rng = np.random.default_rng(3)

            def forward_batch(self, inputs):
                return self.rng.uniform(-1.0, 1.0, size=(len(inputs), 2))

        with Broker() as broker:
            queue = broker.declare_queue("onCount", ["*.*.switchLightON.#"])
            metrics = run_episode(c, Flicker(), broker)
            broker.close()
            switched = len(drain(queue))
        assert switched == round(metrics.pEnergy * 4 * c.maxTicks)

    def test_fault_specs_flow_through(self, tmp_path):
        tap = tmp_path / "tap.log"
        spec = parse_fault_spec("go-dark:node1")
        with Broker(tap=str(tap)) as broker:
            run_episode(cfg(maxTicks=2), ConstantController(1.0, 0.0), broker,
                        faults=[spec])
        events = load_tap(tap)
        on = {e.agentName for e in events if e.action == "switchLightON"}
        seen = {e.agentName for e in events if e.action == "detectLight"}
        assert "node1" in on
        assert "node1" not in seen
        assert "node2" in seen


class TestInternedKeys:
    def test_worlds_of_one_grid_and_tag_share_one_key_table(self):
        with Broker() as first, Broker() as second, Broker() as wider:
            keys = init_world(cfg(), first).log.keys
            assert init_world(cfg(rngSeed=9, wirelessRange=2), second).log.keys is keys
            other = init_world(cfg(gridWidth=3), wider).log.keys
        assert other is not keys
        assert keys["node1"]["readLightSensor"].segments[1] == "node1"
        assert set(other) - set(keys) == {"node5", "node6"}

    def test_every_key_an_accepted_grid_logs_is_valid(self):
        # the longest light id is that of the last light of the largest grid
        with pytest.raises(InvalidConfig):
            cfg(gridWidth=MAX_LIGHTS + 1, gridHeight=1)
        widest = cfg(gridWidth=MAX_LIGHTS, gridHeight=1)
        longest = world_module._node_id(widest, (MAX_LIGHTS - 1, 0))
        assert longest == "node10000"
        for (agentType, agent), actions in world_module._LOG_SITES.items():
            # event_key, which intern_sites calls, raises on any invalid key
            name = longest if agent is world_module._LIGHT else agent
            keys = intern_sites(agentType, name, actions)
            assert list(keys) == list(actions)
            for key in keys.values():
                assert len(key.text.encode("utf-8")) <= MAX_KEY_BYTES

    def test_skip_handshake_drops_the_same_event(self, tmp_path):
        records = []
        for faults in ((), (FaultSpec(FAULT_SKIP_HANDSHAKE, ("node3",)),)):
            tap = tmp_path / f"tap{len(faults)}.log"
            with Broker(tap=str(tap)) as broker:
                run_episode(cfg(maxTicks=2), ConstantController(1.0, 0.0), broker, faults=faults)
            records.append(tap_records(tap))
        full, skipped = records
        dropped = full.index((
            "MANAGER.manager01.createAdaptiveAgent.info.Manager.createAgent.38.adaptiveAgent",
            "controller for node3",
        ))
        assert skipped == full[:dropped] + full[dropped + 1:]

    @pytest.mark.parametrize("config,faults,error", [
        (cfg(gridWidth=1, gridHeight=1, numPeople=1), [FaultSpec("flicker", ("node1",))],
         InvalidConfig),
        (cfg(), [FaultSpec("flicker", ("node1",))], UnknownFault),
        (cfg(), [FaultSpec(FAULT_GO_DARK, ("node9",))], UnknownTarget),
    ], ids=["route", "fault-kind", "fault-target"])
    def test_route_then_fault_then_tag_errors_before_any_tap_line(self, tmp_path, config,
                                                                  faults, error):
        tap = tmp_path / "tap.log"
        with Broker(tap=str(tap)) as broker, pytest.raises(error) as raised:
            run_episode(config, ConstantController(1.0, 0.0), broker, faults=faults)
        assert tap.read_text() == ""
        with Broker() as broker, pytest.raises(error, match=re.escape(str(raised.value))):
            oracle_run_episode(config, ConstantController(1.0, 0.0), broker, faults=faults)


class TestLayoutMemo:
    def test_a_grid_is_laid_out_once_and_read_only(self):
        first = init_world(cfg(gridWidth=4, gridHeight=3))
        second = init_world(cfg(gridWidth=4, gridHeight=3, rngSeed=9, numPeople=2),
                            episodes=3)
        assert second.ids is first.ids
        assert second.near is first.near and second.peers is first.peers
        for table in (first.near, first.peers):
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[0, 0] = 0
        with pytest.raises(TypeError):
            first.ids[0] = "node0"

    def test_a_route_config_is_routed_once_and_read_only(self):
        first = init_world(cfg(gridWidth=4, gridHeight=3, numPeople=3, rngSeed=7))
        second = init_world(cfg(gridWidth=4, gridHeight=3, numPeople=3, rngSeed=7,
                                maxTicks=9, ambientLight=0.5), episodes=2)
        other = init_world(cfg(gridWidth=4, gridHeight=3, numPeople=3, rngSeed=8))
        assert second.path is first.path and second.base is first.base
        assert other.path is not first.path
        for array in (first.path, first.last_step, first.path_flat, first.path_next, first.base):
            assert not array.flags.writeable

    def test_another_range_or_shape_gets_its_own_tables(self):
        base = init_world(cfg(gridWidth=4, gridHeight=3))
        wider = init_world(cfg(gridWidth=4, gridHeight=3, wirelessRange=2))
        assert wider.peers is not base.peers and wider.peers.shape[1] > base.peers.shape[1]
        assert np.array_equal(wider.near, base.near)
        tall = init_world(cfg(gridWidth=3, gridHeight=4))
        assert tall.ids == base.ids and tall.near is not base.near
        assert not np.array_equal(tall.near, base.near)


class TestInvariants:
    @given(world_seed=st.integers(0, 10_000), ctrl_seed=st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_pedestrians_only_walk_forward(self, world_seed, ctrl_seed):
        c = cfg(gridWidth=3, gridHeight=3, numPeople=3, maxTicks=12, rngSeed=world_seed)
        world = init_world(c)
        controller = ScriptedController(RandomController(ctrl_seed).forward_batch(
            np.zeros((9 * c.maxTicks, 3))).reshape(c.maxTicks, 9, 2))
        for _ in range(c.maxTicks):
            step, arrived = world.step.copy(), world.arrived.copy()
            step_world(world, batch(controller))
            if not len(world.live):  # every pedestrian arrived: the episode left the batch
                assert world.results[0].pPeople == 1.0
                break
            assert (step <= world.step).all() and (world.step <= world.last_step).all()
            assert not (arrived & ~world.arrived).any()
            assert (world.ticks_moving <= world.tick * world.people).all()
        on_ticks = sum(int((f[:, 0] > 0).sum()) for f in controller.frames[: world.tick])
        assert world.metrics()[0].pEnergy == on_ticks / (9 * c.maxTicks)

    @given(world_seed=st.integers(0, 10_000), ctrl_seed=st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_metrics_stay_normalized(self, world_seed, ctrl_seed):
        c = cfg(gridWidth=3, gridHeight=3, numPeople=2, maxTicks=10, rngSeed=world_seed)
        metrics = run_episode(c, RandomController(ctrl_seed))
        for value in (metrics.pPeople, metrics.pTrip, metrics.pEnergy):
            assert 0.0 <= value <= 1.0


GENE = st.one_of(
    st.sampled_from([0.0, 5.0, -5.0]),
    st.floats(-5.0, 5.0, allow_nan=False, allow_infinity=False),
)


@st.composite
def worlds(draw, max_ticks=40):
    width, height = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    lights = width * height
    config = WorldConfig(
        gridWidth=width,
        gridHeight=height,
        wirelessRange=draw(st.integers(0, 3)),
        # a single light has no second border node to route people to
        numPeople=draw(st.integers(0, 8)) if lights > 1 else 0,
        maxTicks=draw(st.integers(1, max_ticks)),
        ambientLight=draw(st.sampled_from([0.0, 0.05, 0.2])),
        rngSeed=draw(st.integers(0, 10_000)),
    )
    faults = tuple(
        FaultSpec(kind, tuple(f"node{i}" for i in draw(
            st.lists(st.integers(1, lights), min_size=1, max_size=3))))
        for kind in draw(st.lists(st.sampled_from(FAULT_KINDS), max_size=4))
    )
    return config, faults


def neural_controllers(draw, count):
    topology = NetworkTopology(hiddenCount=draw(st.integers(1, 5)))
    genomes = draw(st.lists(
        st.lists(GENE, min_size=topology.genomeLength, max_size=topology.genomeLength),
        min_size=count, max_size=count,
    ))
    return [decode(genes, topology) for genes in genomes]


@st.composite
def batched_worlds(draw, max_ticks=40):
    config, faults = draw(worlds(max_ticks))
    return config, faults, neural_controllers(draw, draw(st.integers(1, 8)))


#: a 3-2-2 genome whose led sum cancels exactly on zero inputs; two matmul
#: kernels can round it to either sign, which switches a lamp on a dark world
CANCELLING = decode([0.0] * 6 + [5.0, 5.0, 5.0, -5.0, 0.0, 0.0, 0.0, 0.0],
                    NetworkTopology(hiddenCount=2))
DARK_LIGHT = WorldConfig(gridWidth=1, gridHeight=1, wirelessRange=0, numPeople=0, maxTicks=1,
                         ambientLight=0.0, rngSeed=0)

#: sensor readings: dark and bright, motion flags, and any wireless level
READING = st.one_of(st.sampled_from([0.0, 1.0, 0.05]), st.floats(-1.0, 1.0))


@st.composite
def batch_rows(draw):
    """Controllers of one topology, the live episodes of a tick, and its (rows, lights, 3) inputs."""
    controllers = neural_controllers(draw, draw(st.integers(1, 8)))
    live = np.array(sorted(draw(st.sets(st.integers(0, len(controllers) - 1), min_size=1))))
    lights = draw(st.integers(1, 6))
    inputs = draw(st.lists(READING, min_size=3 * lights * len(live),
                           max_size=3 * lights * len(live)))
    return controllers, live, np.array(inputs).reshape(len(live), lights, 3)


#: scripted outputs: signed zeros, values that round to 0.000000 either way, and NaN
OUTPUT = st.sampled_from([-0.0, 0.0, 0.25, -0.3, 1.0, 4e-7, -4e-7, float("nan")])


class Replay:
    """A fresh controller per episode from one drawn recipe, so both worlds see the same one."""

    def __init__(self, kind, lights, draw):
        self.kind = kind
        if kind == "neural":
            self.network = neural_controllers(draw, 1)[0]
        elif kind == "scripted":
            self.frames = draw(st.lists(
                st.lists(st.tuples(OUTPUT, OUTPUT), min_size=lights, max_size=lights),
                min_size=1, max_size=6))

    def __call__(self):
        if self.kind == "neural":
            return self.network
        return ScriptedController(self.frames)

    def __repr__(self):
        return f"Replay({self.kind!r})"


@st.composite
def logged_worlds(draw):
    config, faults = draw(worlds(max_ticks=20))
    kind = draw(st.sampled_from(["neural", "scripted"]))
    return config, faults, Replay(kind, config.gridWidth * config.gridHeight, draw)


def logged_episode(run, config, controller, faults):
    """Tap bytes and metrics of one logged episode run by ``run``."""
    with tempfile.TemporaryDirectory() as tmp:
        tap = Path(tmp) / "tap.log"
        with Broker(tap=str(tap)) as broker:
            metrics = run(config, controller, broker, faults=faults)
        return tap.read_bytes(), metrics


@st.composite
def stranded_worlds(draw):
    """Long neural episodes on grids too dim to walk by, with dark lamps, so pedestrians strand."""
    config, faults = draw(worlds())
    lights = config.gridWidth * config.gridHeight
    dark = FaultSpec(FAULT_GO_DARK, tuple(f"node{i}" for i in draw(
        st.lists(st.integers(1, lights), min_size=1, max_size=3))))
    config = replace(config, maxTicks=draw(st.integers(50, 300)),
                     ambientLight=draw(st.sampled_from([0.0, 0.05])))
    return config, faults + (dark,), neural_controllers(draw, 1)[0]


#: a controller that strands four of the shipped world's five pedestrians
STRANDING = [-0.9, -0.03, -0.59, 0.98, -0.31, -0.66, -0.1, -0.39, 0.48, 0.29, 0.18, 0.4, 0.35,
             0.13, -0.82, -0.91, 0.81, -0.49, 0.92, -0.29, -0.84, 0.13, -0.35, -0.34, 0.4, 0.58]


class TestTapIdentity:
    """A logged episode writes the reference world's tap, byte for byte."""

    @given(case=logged_worlds())
    @settings(max_examples=40, deadline=None)
    def test_taps_and_metrics_equal_the_reference_world(self, case):
        config, faults, replay = case
        tap, metrics = logged_episode(run_episode, config, replay(), faults)
        assert (tap, metrics) == logged_episode(oracle_run_episode, config, replay(), faults)
        assert metrics == run_episodes(config, [replay()], faults=faults)[0]

    @given(case=stranded_worlds())
    @settings(max_examples=25, deadline=None)
    def test_long_stranded_neural_episodes_equal_the_reference_world(self, case):
        # their states recur, so the logged world replays the ticks the reference steps
        config, faults, network = case
        stats = {}
        tap, metrics = logged_episode(functools.partial(run_episode, stats=stats),
                                      config, network, faults)
        assert (tap, metrics) == logged_episode(oracle_run_episode, config, network, faults)
        assert stats["ticks_stepped"] + stats["ticks_replayed"] <= config.maxTicks

    def test_a_stranded_episode_replays_its_period_within_the_window(self, monkeypatch):
        c = replace(load_world_config(data_path("world.cfg")), maxTicks=300)
        stranding, stats, recorded = decode(STRANDING), {}, []
        step = world_module.step_world

        def recording(world, controllers):
            step(world, controllers)
            recorded.append(len(world.period or ()))

        monkeypatch.setattr(world_module, "step_world", recording)
        tap, metrics = logged_episode(functools.partial(run_episode, stats=stats),
                                      c, stranding, ())
        assert (tap, metrics) == logged_episode(oracle_run_episode, c, stranding, ())
        assert metrics.pPeople == 0.2
        # its state after tick 22 is the one after tick 16: ticks 23-300 are replayed
        assert stats == {"ticks_stepped": 22, "ticks_replayed": 278}
        assert max(recorded) <= 2 * RECURRENCE_WINDOW  # a sense and an actuate batch a tick

    def test_a_scripted_episode_replays_no_tick(self):
        c = cfg(gridWidth=3, gridHeight=3, numPeople=2, maxTicks=40, rngSeed=4)
        off = [np.full((9, 2), -1.0)]  # every lamp off: its state recurs after one tick
        stats = {}
        tap, metrics = logged_episode(functools.partial(run_episode, stats=stats),
                                      c, ScriptedController(off), ())
        assert (tap, metrics) == logged_episode(oracle_run_episode, c, ScriptedController(off), ())
        assert stats == {"ticks_stepped": c.maxTicks, "ticks_replayed": 0}

    def test_a_negative_zero_wireless_command_is_logged_with_its_sign(self):
        c = cfg(gridWidth=2, gridHeight=1, maxTicks=3)
        script = [[[1.0, -0.0], [-1.0, 0.0]]]
        faults = (FaultSpec(FAULT_MUTE_WIRELESS, ("node2",)),)
        tap, metrics = logged_episode(run_episode, c, ScriptedController(script), faults)
        assert (tap, metrics) == logged_episode(
            oracle_run_episode, c, ScriptedController(script), faults)
        messages = [line.split(b"\t")[2] for line in tap.splitlines() if b".sendWirelessData." in line]
        assert messages == [b"out=-0.000000", b"out=0.000000"] * 3
        assert b"in=-0.000000" not in tap


@st.composite
def gene_matrices(draw):
    config, faults = draw(worlds(max_ticks=60))
    topology = NetworkTopology(hiddenCount=draw(st.integers(1, 5)))
    length = topology.genomeLength
    genomes = draw(st.lists(st.lists(GENE, min_size=length, max_size=length),
                            min_size=1, max_size=8))
    return config, faults, topology, genomes


class TestRunEpisodes:
    @given(case=batched_worlds())
    @settings(max_examples=60, deadline=None)
    @example(case=(DARK_LIGHT, (), [CANCELLING]))
    def test_matches_the_light_by_light_world(self, case):
        config, faults, controllers = case
        batch = run_episodes(config, controllers, faults=faults)
        assert batch == [oracle_run_episode(config, c, faults=faults) for c in controllers]
        with Broker() as broker:
            logged = run_episode(config, controllers[0], broker, faults=faults)
        assert batch[0] == logged

    @given(case=batched_worlds(max_ticks=300))
    @settings(max_examples=20, deadline=None)
    def test_long_episodes_match_the_light_by_light_world(self, case):
        # long enough for stranded rows to repeat and retire before maxTicks
        config, faults, controllers = case
        batch = run_episodes(config, controllers, faults=faults)
        assert batch == [oracle_run_episode(config, c, faults=faults) for c in controllers]
        with Broker() as broker:
            assert batch[0] == run_episode(config, controllers[0], broker, faults=faults)

    @given(case=batched_worlds(), rows=st.integers(1, 3))
    @settings(max_examples=30, deadline=None)
    def test_chunked_populations_get_the_unchunked_metrics(self, case, rows):
        config, faults, controllers = case
        whole, chunks = run_episodes(config, controllers, faults=faults), []
        init = world_module.init_world

        def counting(config, **kw):
            chunks.append(kw["episodes"])
            return init(config, **kw)

        budget = rows * world_module._row_bytes(config, controllers)
        with mock.patch.object(world_module, "TICK_BYTES", budget), \
                mock.patch.object(world_module, "init_world", counting):
            assert run_episodes(config, controllers, faults=faults) == whole
        n = len(controllers)
        assert chunks == [min(rows, n - start) for start in range(0, n, rows)]

    def test_chunks_share_one_build_of_the_routes(self, monkeypatch):
        c = cfg(gridWidth=3, gridHeight=3, numPeople=4, maxTicks=20, rngSeed=6)
        controllers = [decode([random.Random(n).uniform(-1.0, 1.0) for _ in range(26)])
                       for n in range(8)]
        whole, chunks, built = run_episodes(c, controllers), [], []
        init, build = world_module.init_world, world_module.build_routes

        def counting(config, **kw):
            chunks.append(kw["episodes"])
            return init(config, **kw)

        monkeypatch.setattr(world_module, "_routes", BoundedMemo(4))
        monkeypatch.setattr(world_module, "build_routes",
                            lambda *args: built.append(args) or build(*args))
        budget = 2 * world_module._row_bytes(c, controllers)
        with mock.patch.object(world_module, "TICK_BYTES", budget), \
                mock.patch.object(world_module, "init_world", counting):
            assert run_episodes(c, controllers) == whole
        assert chunks == [2, 2, 2, 2]
        assert len(built) == 1

    @given(case=gene_matrices())
    @settings(max_examples=40, deadline=None)
    def test_a_gene_matrix_gets_the_metrics_of_its_decoded_controllers(self, case):
        config, faults, topology, genomes = case
        controllers = [decode(genes, topology) for genes in genomes]
        matrix = ControllerBatch.from_genes(genomes, topology)
        for stacked, decoded in zip(matrix.networks, ControllerBatch(controllers).networks):
            assert stacked.flags.c_contiguous and decoded.flags.c_contiguous
            assert stacked.tobytes() == decoded.tobytes()
        assert len(matrix) == len(genomes) and matrix.controllers == []
        assert (run_episodes(config, matrix, faults=faults)
                == run_episodes(config, controllers, faults=faults))

    @given(case=batch_rows())
    @settings(max_examples=100, deadline=None)
    @example(case=([CANCELLING], np.array([0]), np.zeros((1, 1, 3))))
    def test_a_controller_gives_the_bits_of_its_batch_row(self, case):
        controllers, live, inputs = case
        batch = ControllerBatch(controllers).outputs(inputs, live)
        for row, episode in enumerate(live):
            alone = controllers[episode].forward_batch(inputs[row])
            assert np.array_equal(alone.view(np.int64), batch[row].view(np.int64))

    def test_pedestrians_count_against_the_tick_budget(self):
        # 2000 pedestrians on 9 lights: their arrays, not the lights', fill a row
        c = cfg(gridWidth=3, gridHeight=3, numPeople=2000, maxTicks=20, rngSeed=3)
        controllers = [decode([random.Random(n).uniform(-1.0, 1.0) for _ in range(26)])
                       for n in range(6)]
        whole, chunks = run_episodes(c, controllers), []
        init = world_module.init_world

        def counting(config, **kw):
            chunks.append(kw["episodes"])
            return init(config, **kw)

        budget = 2 * world_module._row_bytes(c, controllers) + 1
        with mock.patch.object(world_module, "TICK_BYTES", budget), \
                mock.patch.object(world_module, "init_world", counting):
            assert run_episodes(c, controllers) == whole
        assert chunks == [2, 2, 2]
        # the lights' floats alone would take every row in one chunk; a row
        # counts at least each pedestrian's step and arrived flag
        assert 6 * 8 * 9 * (3 + 2 + 4 + 5 + 5) < budget
        assert world_module._row_bytes(c, controllers) > c.numPeople * (8 + 1)

    def test_a_stranded_batch_stops_before_max_ticks(self, monkeypatch):
        c = load_world_config(data_path("world.cfg"))
        stranding = decode(STRANDING)
        dark = decode([0.0] * 26)  # every lamp stays off, so no pedestrian moves
        ticks = count_ticks(monkeypatch)
        metrics = run_episodes(c, [stranding])
        assert metrics == [oracle_run_episode(c, stranding)]
        assert metrics[0].pPeople == 0.2  # four of five pedestrians never arrive
        # its state after tick 22 is the one after tick 16: the 178 ticks left are 29 periods
        # of 6 ticks plus 4, and are counted, not stepped
        assert len(ticks) == 22 < c.maxTicks
        ticks.clear()
        assert run_episodes(c, [dark]) == [oracle_run_episode(c, dark)]
        assert len(ticks) == 1  # its state after tick 1 is the one it started from

    def test_controllers_that_may_hold_state_are_asked_on_every_tick(self, monkeypatch):
        c = cfg(gridWidth=3, gridHeight=3, numPeople=2, maxTicks=40, rngSeed=4)
        dark = decode([0.0] * 26)
        off = [np.full((9, 2), -1.0)]  # every lamp off: both pedestrians are stranded
        scripted = ScriptedController(off)
        ticks = count_ticks(monkeypatch)
        metrics = run_episodes(c, [dark, scripted, RandomController(5)])
        assert len(ticks) == len(scripted.seen) == c.maxTicks
        assert metrics == [oracle_run_episode(c, controller) for controller in (
            dark, ScriptedController(off), RandomController(5))]
        ticks.clear()
        run_episodes(c, [ScriptedController(off)])
        assert len(ticks) == c.maxTicks

    def test_a_controller_may_keep_the_inputs_it_was_given(self):
        class Keeper(ConstantController):
            kept = []

            def forward_batch(self, inputs):
                self.kept.append(inputs)
                return super().forward_batch(inputs)

        c = cfg(gridWidth=3, gridHeight=3, numPeople=2, maxTicks=6, rngSeed=4)
        scripted = ScriptedController([np.tile((1.0, 0.5), (9, 1))])
        run_episodes(c, [Keeper(1.0, 0.5)])
        run_episodes(c, [scripted])
        assert len(Keeper.kept) == len(scripted.seen) > 1
        assert all(np.array_equal(a, b) for a, b in zip(Keeper.kept, scripted.seen))
        assert not np.array_equal(Keeper.kept[0], Keeper.kept[-1])

    def test_a_logged_stranded_episode_senses_on_every_tick(self, tmp_path):
        c = cfg(gridWidth=3, gridHeight=3, numPeople=2, maxTicks=40, rngSeed=4)
        tap = tmp_path / "tap.log"
        with Broker(tap=str(tap)) as broker:
            metrics = run_episode(c, decode([0.0] * 26), broker)
        assert metrics.pPeople == 0.0
        ticks = [int(ts) // TICK_US for key, ts, _ in
                 (line.split("\t", 2) for line in tap.read_text().splitlines())
                 if key.split(".")[2] == "readLightSensor"]
        assert ticks == [tick for tick in range(1, c.maxTicks + 1) for _ in range(9)]

    def test_batch_size_does_not_change_a_genome_s_metrics(self):
        c = cfg(gridWidth=5, gridHeight=5, numPeople=5, maxTicks=200, rngSeed=3)
        rng = np.random.default_rng(11)
        controllers = [decode(rng.uniform(-3.0, 3.0, 26)) for _ in range(24)]
        faults = [FaultSpec(FAULT_GO_DARK, ("node7",)), FaultSpec(FAULT_SENSOR_STUCK, ("node13",))]
        batch = run_episodes(c, controllers, faults=faults)
        alone = [run_episodes(c, [ctrl], faults=faults)[0] for ctrl in controllers]
        assert batch == alone
        # episodes stop at different ticks, so rows leave the batch mid-run
        assert len({m.pTrip for m in batch if m.pPeople == 1.0}) > 1
        assert any(m.pPeople < 1.0 for m in batch)

    def test_muted_relays_match_the_light_by_light_world(self):
        # a lamp switches on and rebroadcasts when it sees motion or a
        # neighbour's broadcast, so a muted column changes how far light spreads
        relay = decode([0.0, 5.0, 5.0, -1.0, 5.0, 5.0, -1.0, -1.0], NetworkTopology(hiddenCount=1))
        c = cfg(gridWidth=5, gridHeight=5, numPeople=2, maxTicks=30, rngSeed=8)
        wall = [FaultSpec(FAULT_MUTE_WIRELESS, ("node3", "node8", "node13", "node18", "node23"))]
        free, muted = run_episodes(c, [relay]), run_episodes(c, [relay], faults=wall)
        assert free == [oracle_run_episode(c, relay)]
        assert muted == [oracle_run_episode(c, relay, faults=wall)]
        assert muted[0].pEnergy < free[0].pEnergy

    def test_other_controllers_are_queried_one_by_one(self):
        c = cfg(gridWidth=3, gridHeight=3, numPeople=2, maxTicks=25, rngSeed=4)

        class Relay:
            def forward_batch(self, inputs):
                return np.stack([inputs[:, 0] - 0.1, inputs[:, 2]], axis=1)

        controllers = [ConstantController(1.0, 0.5), RandomController(2),
                       decode([0.5] * 26), Relay()]
        expected = [oracle_run_episode(c, ConstantController(1.0, 0.5)),
                    oracle_run_episode(c, RandomController(2)),
                    oracle_run_episode(c, decode([0.5] * 26)),
                    oracle_run_episode(c, Relay())]
        assert run_episodes(c, controllers) == expected

    def test_controller_shape_is_checked(self):
        class Wide:
            def forward_batch(self, inputs):
                return np.zeros((len(inputs), 3))

        with pytest.raises(WorldError, match=r"controller must yield \(lights, 2\) outputs"):
            run_episodes(cfg(), [ConstantController(1.0, 0.0), Wide()])

    @pytest.mark.parametrize("spec,error", [
        (FaultSpec("flicker", ("node1",)), UnknownFault),
        (FaultSpec(FAULT_GO_DARK, ("node1", "node99")), UnknownTarget),
    ])
    def test_fault_errors_match_the_light_by_light_world(self, spec, error):
        with pytest.raises(error) as reference:
            oracle_init_world(cfg(), faults=[spec])
        with pytest.raises(error, match=re.escape(str(reference.value))):
            run_episodes(cfg(), [ConstantController(1.0, 0.0)], faults=[spec])

    def test_no_controllers_no_episodes(self):
        assert run_episodes(cfg(), []) == []


def fresh_walkers(world):
    """(at, ahead, motion, walking, count) of the live rows, from step, arrived and the routes."""
    c = world.config
    w, lights = c.gridWidth, world.lights
    routes = build_routes(c)
    rows = len(world.live)
    at = np.full((rows, world.people), lights)
    ahead = np.full((rows, world.people), lights)
    motion = np.zeros((rows, lights), dtype=bool)
    for r in range(rows):
        for n, route in enumerate(routes):
            step = int(world.step[r, n])
            assert world.arrived[r, n] == (step == len(route) - 1)
            if step + 1 < len(route):
                x, y = route[step + 1]
                ahead[r, n] = y * w + x
            if world.arrived[r, n]:
                continue
            x, y = route[step]
            at[r, n] = y * w + x
            for light in range(lights):
                motion[r, light] |= abs(light % w - x) + abs(light // w - y) <= 1
    return at, ahead, motion, ~world.arrived, (~world.arrived).sum(axis=1)


class TestWalkers:
    @given(width=st.integers(2, 5), height=st.integers(1, 5), people=st.integers(1, 6),
           seed=st.integers(0, 10_000), genes=st.lists(GENE, min_size=8, max_size=8))
    @settings(max_examples=40, deadline=None)
    def test_the_cached_walkers_are_those_of_the_state(self, width, height, people, seed,
                                                       genes):
        config = cfg(gridWidth=width, gridHeight=height, numPeople=people, maxTicks=40,
                     rngSeed=seed)
        topology = NetworkTopology(hiddenCount=1)
        # every lamp on, so everyone walks and arrives; every lamp off, so the
        # state recurs at once; and a drawn genome
        lit, dark = [0.0] * 6 + [5.0, 0.0], [0.0] * 8
        controllers = ControllerBatch([decode(g, topology) for g in (lit, dark, genes)])
        world = init_world(config, episodes=3)
        with np.errstate(over="ignore", invalid="ignore"):
            while len(world.live) and world.tick < config.maxTicks:
                step_world(world, controllers)
                world.retire_periodic()
                for cached, fresh in zip(world_module._walkers(world), fresh_walkers(world)):
                    assert np.array_equal(cached, fresh)
        # the lit episode left on arrival, the dark one on recurrence
        assert world.results[0] is not None and world.results[0].pPeople == 1.0
        assert world.results[1] is not None and world.results[1].pPeople == 0.0
