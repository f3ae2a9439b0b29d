import random
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from masharness.broker import Broker, QueueClosed
from masharness.logmodel import (
    MAX_KEY_BYTES,
    InvalidTag,
    KeyTooLong,
    load_tap,
    make_log_event,
)
from masharness.neural import NetworkTopology, decode
from masharness.world import (
    FAULT_GO_DARK,
    FAULT_KINDS,
    FAULT_MUTE_WIRELESS,
    FAULT_SENSOR_STUCK,
    FAULT_SKIP_HANDSHAKE,
    MAX_LIGHTS,
    EpisodeMetrics,
    FaultSpec,
    InvalidConfig,
    Pedestrian,
    UnknownFault,
    UnknownTarget,
    WorldConfig,
    WorldError,
    actuate,
    build_routes,
    init_world,
    inject_fault,
    load_world_config,
    move_people,
    parse_fault_spec,
    run_episode,
    run_episodes,
    seeds_with_light_on_route,
    sense,
    step_world,
)


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
        energyPerTickOn=1.0,
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
    """Plays back one preset (lights, 2) output matrix per tick."""

    def __init__(self, frames):
        self.frames = [np.asarray(f, dtype=float) for f in frames]
        self.calls = 0

    def forward_batch(self, inputs):
        out = self.frames[min(self.calls, len(self.frames) - 1)]
        self.calls += 1
        return out


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
            dict(energyPerTickOn=0.0),
        ],
    )
    def test_rejects_bad_values(self, kw):
        with pytest.raises(InvalidConfig):
            cfg(**kw)

    @pytest.mark.parametrize(
        "name", ["ambientLight", "lightBrightness", "darkThreshold", "energyPerTickOn"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_floats_are_rejected_by_name(self, name, value):
        with pytest.raises(InvalidConfig, match=f"^{name} must be a finite number"):
            cfg(**{name: value})

    def test_grid_size_is_bounded(self):
        assert cfg(gridWidth=100, gridHeight=MAX_LIGHTS // 100).gridWidth == 100
        with pytest.raises(InvalidConfig, match="lights"):
            cfg(gridWidth=100, gridHeight=MAX_LIGHTS // 100 + 1)
        with pytest.raises(InvalidConfig, match="lights"):
            cfg(gridWidth=100_000, gridHeight=100_000)

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


class TestFaultSpec:
    def test_parse_single_and_multiple_targets(self):
        assert parse_fault_spec("go-dark:node10") == FaultSpec("go-dark", ("node10",))
        spec = parse_fault_spec("mute-wireless:node1,node2,node3")
        assert spec.kind == FAULT_MUTE_WIRELESS
        assert spec.targets == ("node1", "node2", "node3")

    @pytest.mark.parametrize("text", ["go-dark", "go-dark:", "flicker:node1", ":node1"])
    def test_parse_rejects_malformed(self, text):
        with pytest.raises(UnknownFault):
            parse_fault_spec(text)

    def test_inject_unknown_target(self):
        world = init_world(cfg())
        with pytest.raises(UnknownTarget):
            inject_fault(world, FaultSpec("go-dark", ("node99",)))

    def test_inject_unknown_kind(self):
        world = init_world(cfg())
        with pytest.raises(UnknownFault):
            inject_fault(world, FaultSpec("flicker", ("node1",)))

    def test_inject_sets_flags_on_all_targets(self):
        world = init_world(cfg())
        inject_fault(world, FaultSpec(FAULT_GO_DARK, ("node1", "node4")))
        assert FAULT_GO_DARK in world.lights_by_id["node1"].faultFlags
        assert FAULT_GO_DARK in world.lights_by_id["node4"].faultFlags
        assert not world.lights_by_id["node2"].faultFlags


class TestGridAndRoutes:
    def test_node_ids_are_row_major(self):
        world = init_world(cfg(gridWidth=3, gridHeight=3))
        assert [l.id for l in world.lights] == [f"node{i}" for i in range(1, 10)]
        assert world.lights_by_id["node1"].position == (0, 0)
        assert world.lights_by_id["node3"].position == (2, 0)
        assert world.lights_by_id["node4"].position == (0, 1)
        assert world.lights_by_id["node9"].position == (2, 2)

    def test_node10_sits_at_4_1_on_default_grid(self):
        world = init_world(cfg(gridWidth=5, gridHeight=5))
        assert world.lights_by_id["node10"].position == (4, 1)

    def test_neighbor_counts(self):
        world = init_world(cfg(gridWidth=3, gridHeight=3))
        assert len(world.neighbors((0, 0))) == 2
        assert len(world.neighbors((1, 0))) == 3
        assert len(world.neighbors((1, 1))) == 4

    def test_wireless_range_uses_manhattan_distance(self):
        world = init_world(cfg(gridWidth=3, gridHeight=3, wirelessRange=2))
        center = world.lights_by_id["node5"]
        assert set(world.wireless_neighbors(center)) == {
            f"node{i}" for i in (1, 2, 3, 4, 6, 7, 8, 9)
        }
        zero = init_world(cfg(wirelessRange=0))
        assert world.lights_by_id["node5"].id not in world.wireless_neighbors(center)
        assert zero.wireless_neighbors(zero.lights_by_id["node1"]) == ()

    @pytest.mark.parametrize("width,height", [(1, 1), (1, 6), (4, 3), (6, 6)])
    @pytest.mark.parametrize("reach", [0, 1, 2, 5, 12])
    def test_neighbour_lists_match_an_all_pairs_scan(self, width, height, reach):
        world = init_world(cfg(gridWidth=width, gridHeight=height, wirelessRange=reach))
        for light in world.lights:
            x, y = light.position
            assert world.wireless_neighbors(light) == tuple(
                other.id for other in world.lights
                if other is not light
                and abs(other.position[0] - x) + abs(other.position[1] - y) <= reach
            )
            assert world.neighbors(light.position) == tuple(
                (nx, ny) for nx, ny in ((x - 1, y), (x + 1, y), (x, y - 1), (x, y + 1))
                if 0 <= nx < width and 0 <= ny < height
            )

    def test_routes_are_seeded_border_to_border_shortest_paths(self):
        c = cfg(gridWidth=5, gridHeight=4, numPeople=6, rngSeed=9)
        routes = build_routes(c, random.Random(9))
        again = build_routes(c, random.Random(9))
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

    def test_people_need_two_border_nodes(self):
        with pytest.raises(InvalidConfig):
            init_world(cfg(gridWidth=1, gridHeight=1, numPeople=1))
        world = init_world(cfg(gridWidth=1, gridHeight=1, numPeople=0))
        assert world.people == []

    def test_seeds_with_light_on_route(self):
        c = cfg(gridWidth=5, gridHeight=5, numPeople=5)
        seeds = seeds_with_light_on_route(c, "node10", 4)
        assert len(seeds) == 4
        assert seeds == sorted(set(seeds))
        for seed in seeds:
            world = init_world(cfg(gridWidth=5, gridHeight=5, numPeople=5, rngSeed=seed))
            visited = {pos for p in world.people for pos in p.route}
            assert world.lights_by_id["node10"].position in visited


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
        assert len(world.lights) == 4


class TestSense:
    def test_dark_idle_world(self):
        world = init_world(cfg())
        frame = sense(world.lights_by_id["node1"], world)
        assert frame.lightLevel == cfg().ambientLight
        assert frame.motionDetected is False
        assert frame.wirelessIn == 0.0
        assert world.lights_by_id["node1"].lastFrame == frame

    def test_motion_covers_own_and_adjacent_nodes(self):
        world = init_world(cfg(gridWidth=3, gridHeight=3))
        world.people.append(Pedestrian(id="p1", route=((1, 1), (2, 1))))
        assert sense(world.lights_by_id["node5"], world).motionDetected is True  # own node
        assert sense(world.lights_by_id["node4"], world).motionDetected is True  # adjacent
        assert sense(world.lights_by_id["node1"], world).motionDetected is False  # diagonal
        world.people[0].finished = True
        assert sense(world.lights_by_id["node5"], world).motionDetected is False

    def test_light_level_sums_own_and_adjacent_spill(self):
        c = cfg(gridWidth=3, gridHeight=1, ambientLight=0.5, lightBrightness=0.3)
        world = init_world(c)
        world.prev_emitting = {(1, 0)}
        assert sense(world.lights_by_id["node1"], world).lightLevel == pytest.approx(0.8)
        assert sense(world.lights_by_id["node2"], world).lightLevel == pytest.approx(0.8)
        world.prev_emitting = {(0, 0), (1, 0)}
        # 0.5 + 0.3 + 0.3 clamps to 1.0
        assert sense(world.lights_by_id["node1"], world).lightLevel == 1.0
        assert sense(world.lights_by_id["node3"], world).lightLevel == pytest.approx(0.8)

    def test_sensor_stuck_freezes_first_reading(self):
        world = init_world(
            cfg(gridWidth=2, gridHeight=1),
            faults=[FaultSpec(FAULT_SENSOR_STUCK, ("node1",))],
        )
        ambient = world.config.ambientLight
        assert sense(world.lights_by_id["node1"], world).lightLevel == ambient
        world.prev_emitting = {(0, 0), (1, 0)}
        assert sense(world.lights_by_id["node1"], world).lightLevel == ambient
        assert sense(world.lights_by_id["node2"], world).lightLevel > ambient

    def test_wireless_takes_strongest_neighbor_not_self(self):
        world = init_world(cfg(gridWidth=3, gridHeight=1, wirelessRange=1))
        world.prev_outbox = {"node1": 0.3, "node2": 0.9, "node3": 0.7}
        assert sense(world.lights_by_id["node2"], world).wirelessIn == 0.7
        assert sense(world.lights_by_id["node1"], world).wirelessIn == 0.9
        wide = init_world(cfg(gridWidth=3, gridHeight=1, wirelessRange=2))
        wide.prev_outbox = {"node1": 0.3, "node2": 0.9, "node3": 0.7}
        assert sense(wide.lights_by_id["node1"], wide).wirelessIn == 0.9

    def test_publishes_four_logs_in_order(self, tmp_path):
        tap = tmp_path / "tap.log"
        with Broker(tap=str(tap)) as broker:
            world = init_world(cfg(), broker)
            sense(world.lights_by_id["node3"], world)
        events = load_tap(tap)[-4:]
        assert [(e.agentName, e.action) for e in events] == [
            ("node3", "receiveWirelessData"),
            ("node3", "readLightSensor"),
            ("node3", "readMotionSensor"),
            ("node3", "sendMsg"),
        ]
        assert events[2].message == "motion=0"
        assert all(e.agentType == "lightContainer" for e in events)


class TestActuate:
    def run_actuate(self, tmp_path, decision, faults=()):
        tap = tmp_path / "tap.log"
        with Broker(tap=str(tap)) as broker:
            world = init_world(cfg(), broker, faults=faults)
            light = world.lights_by_id["node1"]
            actuate(light, decision, world)
        actions = [e.action for e in load_tap(tap) if e.tick == 0][-5:]
        return world, light, actions

    def test_positive_led_switches_on_and_detects(self, tmp_path):
        world, light, actions = self.run_actuate(tmp_path, (0.7, 0.2))
        assert light.lightOn is True
        assert light.outbox == pytest.approx(0.2)
        assert actions[-4:] == [
            "receiveNeuralNetworkCommand",
            "switchLightON",
            "sendWirelessData",
            "detectLight",
        ]

    def test_non_positive_led_switches_off(self, tmp_path):
        world, light, actions = self.run_actuate(tmp_path, (-0.3, -0.5))
        assert light.lightOn is False
        assert light.outbox == 0.0  # negative broadcast clamps to silence
        assert actions[-3:] == [
            "receiveNeuralNetworkCommand",
            "switchLightOFF",
            "sendWirelessData",
        ]
        assert "detectLight" not in actions

    def test_zero_led_means_off(self, tmp_path):
        world, light, actions = self.run_actuate(tmp_path, (0.0, 0.0))
        assert light.lightOn is False

    def test_go_dark_switches_on_without_detecting(self, tmp_path):
        world, light, actions = self.run_actuate(
            tmp_path, (0.9, 0.0), faults=[FaultSpec(FAULT_GO_DARK, ("node1",))]
        )
        assert light.lightOn is True
        assert world.emitting(light) is False
        assert "switchLightON" in actions
        assert "detectLight" not in actions

    def test_mute_wireless_forces_silent_outbox(self, tmp_path):
        world, light, actions = self.run_actuate(
            tmp_path, (0.9, 0.8), faults=[FaultSpec(FAULT_MUTE_WIRELESS, ("node1",))]
        )
        assert light.outbox == 0.0
        assert "sendWirelessData" in actions


class TestMovement:
    def walkway(self):
        world = init_world(cfg(gridWidth=2, gridHeight=1))
        person = Pedestrian(id="p1", route=((0, 0), (1, 0)))
        world.people.append(person)
        return world, person

    def test_advances_when_both_ends_lit(self):
        world, person = self.walkway()
        for light in world.lights:
            light.lightOn = True
        move_people(world)
        assert person.positionIndex == 1
        assert person.finished is True
        assert person.ticksMoving == 1

    def test_blocked_when_current_node_dark(self):
        world, person = self.walkway()
        world.lights_by_id["node2"].lightOn = True
        move_people(world)
        assert person.positionIndex == 0
        assert person.ticksMoving == 1  # waiting still costs trip time

    def test_blocked_when_next_node_dark(self):
        world, person = self.walkway()
        world.lights_by_id["node1"].lightOn = True
        move_people(world)
        assert person.positionIndex == 0

    def test_go_dark_lamp_gives_no_walking_light(self):
        world, person = self.walkway()
        for light in world.lights:
            light.lightOn = True
        world.lights_by_id["node2"].faultFlags.add(FAULT_GO_DARK)
        move_people(world)
        assert person.positionIndex == 0

    def test_finished_people_stop_accruing_trip_time(self):
        world, person = self.walkway()
        person.positionIndex = 1
        person.finished = True
        move_people(world)
        assert person.ticksMoving == 0

    def test_bright_ambient_alone_is_enough(self):
        world = init_world(cfg(gridWidth=2, gridHeight=1, ambientLight=0.5))
        person = Pedestrian(id="p1", route=((0, 0), (1, 0)))
        world.people.append(person)
        move_people(world)
        assert person.finished is True


class TestStepWorld:
    def test_tick_log_layout(self, tmp_path):
        tap = tmp_path / "tap.log"
        with Broker(tap=str(tap)) as broker:
            world = init_world(cfg(), broker)
            step_world(world, ConstantController(1.0, 1.0))
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
                step_world(world, ConstantController(1.0, 0.0))
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
            step_world(world, Wide())

    def test_plain_callable_and_forward_objects_work(self):
        world = init_world(cfg())
        step_world(world, lambda row: (1.0, 0.0))
        assert all(l.lightOn for l in world.lights)

        class Single:
            def forward(self, row):
                return (-1.0, 0.0)

        step_world(world, Single())
        assert not any(l.lightOn for l in world.lights)

    def test_energy_counts_on_ticks_exactly(self):
        world = init_world(cfg(energyPerTickOn=0.25))
        on = ConstantController(1.0, 0.0)
        off = ConstantController(-1.0, 0.0)
        step_world(world, on)
        step_world(world, on)
        step_world(world, off)
        assert world.onTicks == 8
        assert world.energy == pytest.approx(2.0)

    def test_wireless_arrives_one_tick_late(self):
        quiet = [[0.0, 0.0]] * 3
        world = init_world(cfg(gridWidth=3, gridHeight=1))
        script = ScriptedController(
            [[[0.0, 0.0], [0.0, 0.8], [0.0, 0.0]], quiet, quiet]
        )
        step_world(world, script)
        by_id = world.lights_by_id
        assert by_id["node1"].lastFrame.wirelessIn == 0.0  # nothing sent yet
        step_world(world, script)
        assert by_id["node1"].lastFrame.wirelessIn == pytest.approx(0.8)
        assert by_id["node3"].lastFrame.wirelessIn == pytest.approx(0.8)
        assert by_id["node2"].lastFrame.wirelessIn == 0.0  # own broadcast excluded
        step_world(world, script)
        assert by_id["node1"].lastFrame.wirelessIn == 0.0  # decayed with the outbox

    def test_spill_is_visible_one_tick_late(self):
        quiet = [[0.0, 0.0]] * 3
        world = init_world(cfg(gridWidth=3, gridHeight=1))
        script = ScriptedController(
            [[[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]], quiet]
        )
        step_world(world, script)
        ambient = world.config.ambientLight
        assert world.lights_by_id["node1"].lastFrame.lightLevel == ambient
        step_world(world, script)
        lit = ambient + world.config.lightBrightness
        for lid in ("node1", "node2", "node3"):
            assert world.lights_by_id[lid].lastFrame.lightLevel == pytest.approx(lit)

    def test_walking_light_is_own_lamp_only(self):
        # the middle lamp lights its sensor neighborhood but nobody else walks by it
        world = init_world(cfg(gridWidth=3, gridHeight=1))
        person = Pedestrian(id="p1", route=((0, 0), (1, 0), (2, 0)))
        world.people.append(person)
        middle_only = ScriptedController([[[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]]])
        for _ in range(3):
            step_world(world, middle_only)
        assert person.positionIndex == 0
        assert world.lights_by_id["node1"].lastFrame.lightLevel > world.config.darkThreshold

    def test_mute_wireless_starves_neighbors(self):
        broadcast = ConstantController(-1.0, 1.0)
        world = init_world(
            cfg(gridWidth=3, gridHeight=1),
            faults=[FaultSpec(FAULT_MUTE_WIRELESS, ("node2",))],
        )
        step_world(world, broadcast)
        assert world.prev_outbox == {"node1": 1.0, "node2": 0.0, "node3": 1.0}
        step_world(world, broadcast)
        assert world.lights_by_id["node1"].lastFrame.wirelessIn == 0.0
        assert world.lights_by_id["node2"].lastFrame.wirelessIn == 1.0


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
        metrics = run_episode(cfg(maxTicks=3), [0.0] * 26)
        assert metrics.pEnergy == 0.0

    def test_deterministic_for_fixed_seed(self):
        c = cfg(gridWidth=4, gridHeight=3, numPeople=3, maxTicks=30, rngSeed=77)
        rng = np.random.default_rng(5)
        genes = rng.uniform(-1.0, 1.0, size=26).tolist()
        assert run_episode(c, genes) == run_episode(c, genes)

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

    def test_episode_tag_namespaces_agent_names(self, tmp_path):
        tap = tmp_path / "tap.log"
        with Broker(tap=str(tap)) as broker:
            run_episode(cfg(maxTicks=2), ConstantController(1.0, 0.0), broker,
                        episode_tag="ep3")
        events = load_tap(tap)
        assert events
        assert all(e.agentName.endswith("@ep3") for e in events)
        assert any(e.agentName == "node1@ep3" for e in events)

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


def tap_records(path):
    """(key, message) of every tap line, timestamps left out."""
    return [(key, message) for key, _, message in
            (line.split("\t", 2) for line in path.read_text().splitlines())]


class TestInternedKeys:
    def test_over_long_episode_tag_fails_in_init_world_before_any_tap_line(self, tmp_path):
        plain = tmp_path / "plain.log"
        with Broker(tap=str(plain)) as broker:
            run_episode(cfg(maxTicks=1), ConstantController(1.0, 0.0), broker)
        keys = [key for key, _ in tap_records(plain)]
        longest = max(keys, key=len)
        # the tag makes the longest key one byte too long, the first one not
        tag = "t" * (MAX_KEY_BYTES - len(longest))
        assert len(keys[0]) < len(longest)
        tap = tmp_path / "tap.log"
        with Broker(tap=str(tap)) as broker:
            with pytest.raises(KeyTooLong) as err:
                init_world(cfg(), broker, episode_tag=tag)
        assert tap.read_text() == ""
        agentType, agentName, action, typeLog, unit, operation, line, resource = longest.split(".")
        with pytest.raises(KeyTooLong) as checked:
            make_log_event(agentType, f"{agentName}@{tag}", action, typeLog, sourceUnit=unit,
                           sourceOperation=operation, sourceLine=int(line), resource=resource)
        assert str(err.value) == str(checked.value) == f"routing key exceeds {MAX_KEY_BYTES} bytes"
        with Broker() as broker:
            assert init_world(cfg(), broker, episode_tag=tag[1:]).log_keys

    def test_bad_episode_tag_raises_the_first_events_error(self):
        with Broker() as broker, pytest.raises(InvalidTag) as err:
            init_world(cfg(), broker, episode_tag="a.b")
        assert str(err.value) == "agentName may not contain '.': 'manager01@a.b'"

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


class RandomController:
    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)

    def forward_batch(self, inputs):
        return self.rng.uniform(-1.0, 1.0, size=(len(inputs), 2))


class TestInvariants:
    @given(world_seed=st.integers(0, 10_000), ctrl_seed=st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_pedestrians_only_walk_forward(self, world_seed, ctrl_seed):
        c = cfg(gridWidth=3, gridHeight=3, numPeople=3, maxTicks=12, rngSeed=world_seed)
        world = init_world(c)
        controller = RandomController(ctrl_seed)
        on_ticks = 0
        last_index = [0] * len(world.people)
        for _ in range(c.maxTicks):
            was_finished = [p.finished for p in world.people]
            step_world(world, controller)
            on_ticks += sum(1 for l in world.lights if l.lightOn)
            for i, p in enumerate(world.people):
                assert last_index[i] <= p.positionIndex < len(p.route)
                assert not (was_finished[i] and not p.finished)
                assert p.ticksMoving <= world.tick
                last_index[i] = p.positionIndex
        assert world.onTicks == on_ticks

    @given(world_seed=st.integers(0, 10_000), ctrl_seed=st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_metrics_stay_normalized(self, world_seed, ctrl_seed):
        c = cfg(gridWidth=3, gridHeight=3, numPeople=2, maxTicks=10, rngSeed=world_seed)
        metrics = run_episode(c, RandomController(ctrl_seed))
        for value in (metrics.pPeople, metrics.pTrip, metrics.pEnergy):
            assert 0.0 <= value <= 1.0


def scalar_episode(config, controller, faults=()):
    """The light-by-light world without a broker, stopped as run_episode stops."""
    world = init_world(config, faults=faults)
    for _ in range(config.maxTicks):
        step_world(world, controller)
        if config.numPeople > 0 and world.all_finished:
            break
    return world.metrics()


GENE = st.one_of(
    st.sampled_from([0.0, 5.0, -5.0]),
    st.floats(-5.0, 5.0, allow_nan=False, allow_infinity=False),
)


@st.composite
def batched_worlds(draw):
    width, height = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    lights = width * height
    config = WorldConfig(
        gridWidth=width,
        gridHeight=height,
        wirelessRange=draw(st.integers(0, 3)),
        # a single light has no second border node to route people to
        numPeople=draw(st.integers(0, 8)) if lights > 1 else 0,
        maxTicks=draw(st.integers(1, 40)),
        ambientLight=draw(st.sampled_from([0.0, 0.05, 0.2])),
        rngSeed=draw(st.integers(0, 10_000)),
    )
    faults = tuple(
        FaultSpec(kind, tuple(f"node{i}" for i in draw(
            st.lists(st.integers(1, lights), min_size=1, max_size=3))))
        for kind in draw(st.lists(st.sampled_from(FAULT_KINDS), max_size=4))
    )
    topology = NetworkTopology(hiddenCount=draw(st.integers(1, 5)))
    count = draw(st.integers(1, 8))
    genomes = draw(st.lists(
        st.lists(GENE, min_size=topology.genomeLength, max_size=topology.genomeLength),
        min_size=count, max_size=count,
    ))
    return config, faults, [decode(genes, topology) for genes in genomes]


class TestRunEpisodes:
    @given(case=batched_worlds())
    @settings(max_examples=60, deadline=None)
    def test_matches_the_light_by_light_world(self, case):
        config, faults, controllers = case
        batch = run_episodes(config, controllers, faults=faults)
        assert batch == [scalar_episode(config, c, faults) for c in controllers]
        with Broker() as broker:
            logged = run_episode(config, controllers[0], broker, faults=faults)
        assert batch[0] == logged

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
        assert free == [scalar_episode(c, relay)]
        assert muted == [scalar_episode(c, relay, wall)]
        assert muted[0].pEnergy < free[0].pEnergy

    def test_other_controllers_are_queried_one_by_one(self):
        c = cfg(gridWidth=3, gridHeight=3, numPeople=2, maxTicks=25, rngSeed=4)
        controllers = [ConstantController(1.0, 0.5), RandomController(2),
                       decode([0.5] * 26), lambda row: (row[0] - 0.1, row[2])]
        expected = [scalar_episode(c, ConstantController(1.0, 0.5)),
                    scalar_episode(c, RandomController(2)),
                    scalar_episode(c, decode([0.5] * 26)),
                    scalar_episode(c, lambda row: (row[0] - 0.1, row[2]))]
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
        with pytest.raises(error) as scalar:
            init_world(cfg(), faults=[spec])
        with pytest.raises(error, match=re.escape(str(scalar.value))):
            run_episodes(cfg(), [ConstantController(1.0, 0.0)], faults=[spec])

    def test_no_controllers_no_episodes(self):
        assert run_episodes(cfg(), []) == []
