"""Independent reference implementations the real code is tested against.

Each oracle deliberately uses a different algorithmic strategy than the
production code: pattern matching via regex translation instead of a
two-pointer walk, trace verdicts via brute-force subsequence search instead
of an online state machine, and the network forward pass via hand-rolled
loops instead of numpy.  The reference world steps light by light over one object per
light and per pedestrian, where masharness.world steps arrays.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

import numpy as np

from masharness import world
from masharness.logmodel import TICK_US, make_log_event
from masharness.testkit import TestVerdict


def regex_for_pattern(pattern: str) -> re.Pattern:
    """Translate a binding pattern into an anchored regex over dotted keys.

    ``*`` becomes one word; ``#`` swallows zero or more words including the
    dot glue, which needs three cases: a bare ``#``, a leading ``#.``, and
    a trailing ``.#``.  Runs of consecutive ``#`` segments are collapsed
    first (``#.#`` accepts exactly what ``#`` does), so every remaining
    hash has non-hash context and the dot bookkeeping below is sound.
    """
    segments = []
    for seg in pattern.split("."):
        if seg == "#" and segments and segments[-1] == "#":
            continue
        segments.append(seg)
    parts = []
    for seg in segments:
        if seg == "*":
            parts.append("[^.]+")
        elif seg == "#":
            parts.append("#")
        else:
            parts.append(re.escape(seg))
    joined = r"\.".join(parts)
    # '#' glued between dots can absorb the dots around it
    joined = joined.replace(r"#\.", r"(?:[^.]+\.)*")
    joined = joined.replace(r"\.#", r"(?:\.[^.]+)*")
    joined = joined.replace("#", r"(?:[^.]+(?:\.[^.]+)*)?")
    return re.compile(joined + "$")


def oracle_matches(pattern: str, key: str) -> bool:
    return regex_for_pattern(pattern).match(key) is not None


def oracle_run_machine(pattern_lists, trace_keys, matcher):
    """Brute-force subsequence verdict for a transition list over a trace.

    ``pattern_lists`` is a list of alternative-pattern lists (one per
    transition); greedy earliest matching is optimal for existence of an
    ordered embedding, so the verdict is (passed, failed_state_index) where
    the index counts fired transitions when the trace ran out.
    """
    fired = 0
    pos = 0
    for alternatives in pattern_lists:
        found = False
        while pos < len(trace_keys):
            key = trace_keys[pos]
            pos += 1
            if any(matcher(p, key) for p in alternatives):
                found = True
                break
        if not found:
            return False, fired
        fired += 1
    return True, fired


def oracle_offer_verdict(case, events) -> TestVerdict:
    """The verdict of offering ``events`` in turn to a machine for ``case``, then finishing.

    Written as one loop over the events, with the end-of-stream lateness
    check the machine's ``finish`` once made: a machine still running at
    the end is late if the later of its last judged time and its state's
    entry time is past the pending deadline, and only otherwise fails with
    the stream-end reason.  Patterns match through ``oracle_matches``.
    """
    specs = case.validationSequence
    current = seen = entered = last = 0
    outcome, reason = None, ""

    def late(now):
        nonlocal last, outcome, reason
        wait = specs[current].maxWait
        if now <= entered + wait * TICK_US:
            return False
        last, outcome, reason = entered + wait * TICK_US, "fail", f"waited past {wait} ticks"
        return True

    for event in events:
        if outcome is not None:
            break
        seen += 1
        if late(event.timestamp):
            break
        last = event.timestamp
        if any(oracle_matches(alt.encode(), event.key.text) for alt in specs[current].alternatives):
            current, entered = current + 1, event.timestamp
            if current == len(specs):
                outcome = "pass"
    if outcome is None and not late(max(last, entered)):
        last, outcome, reason = max(last, entered), "fail", \
            "event stream ended before the expected pattern"
    passed = outcome == "pass"
    return TestVerdict(
        name=case.functionName,
        outcome=outcome,
        failedState=None if passed else "start" if current == 0 else specs[current - 1].label(),
        missingPatterns=() if passed else tuple(alt.encode() for alt in specs[current].alternatives),
        elapsed=last / TICK_US,
        seen=seen,
        reason=reason,
    )


def oracle_forward(genes, inputs, hidden_count):
    """Pure-python 3-h-2 tanh forward pass with the documented gene order."""
    n_in, n_out = 3, 2
    idx = 0
    w1 = []
    for _ in range(hidden_count):
        w1.append(genes[idx : idx + n_in])
        idx += n_in
    b1 = genes[idx : idx + hidden_count]
    idx += hidden_count
    w2 = []
    for _ in range(n_out):
        w2.append(genes[idx : idx + hidden_count])
        idx += hidden_count
    b2 = genes[idx : idx + n_out]
    hidden = [
        math.tanh(sum(w * x for w, x in zip(row, inputs)) + b)
        for row, b in zip(w1, b1)
    ]
    return [
        math.tanh(sum(w * h for w, h in zip(row, hidden)) + b)
        for row, b in zip(w2, b2)
    ]


# -- the reference world -----------------------------------------------------
#
# The streetlight world stepped light by light, with one object per light and
# per pedestrian, neighbours found by scanning all pairs, and every event
# built by make_log_event.  masharness.world steps the same simulation on
# (episodes, lights) arrays; its taps and metrics must equal these.


@dataclass(frozen=True, slots=True)
class SensorFrame:
    lightLevel: float
    motionDetected: bool
    wirelessIn: float


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


class OracleWorld:
    """Mutable state of one reference episode."""

    def __init__(self, config, broker):
        self.config = config
        self.broker = broker
        self.tick = 0
        self.onTicks = 0
        self.lights: list[Streetlight] = []
        self.lights_by_id: dict[str, Streetlight] = {}
        self.light_at: dict[tuple[int, int], Streetlight] = {}
        self.people: list[Pedestrian] = []
        # end-of-last-tick snapshots, read by the next tick's sensors
        self.prev_outbox: dict[str, float] = {}
        self.prev_emitting: set[tuple[int, int]] = set()

    def publish(self, agent: str, action: str, message: str) -> None:
        if self.broker is None:
            return
        sites = world._LOG_SITES
        for (agentType, name), actions in sites.items():
            if action in actions and (name == agent or (name is None and agent in self.lights_by_id)):
                unit, operation, line, resource = actions[action]
                break
        else:
            raise KeyError((agent, action))
        self.broker.publish(make_log_event(
            agentType, agent, action, sourceUnit=unit, sourceOperation=operation,
            sourceLine=line, resource=resource, message=message, clock=self.broker.clock))

    def neighbors(self, position) -> list[tuple[int, int]]:
        x, y = position
        return [p for p in ((x - 1, y), (x + 1, y), (x, y - 1), (x, y + 1)) if p in self.light_at]

    def wireless_neighbors(self, light: Streetlight) -> list[str]:
        (x, y), reach = light.position, self.config.wirelessRange
        return [other.id for other in self.lights if other is not light
                and abs(other.position[0] - x) + abs(other.position[1] - y) <= reach]

    @property
    def all_finished(self) -> bool:
        return all(p.finished for p in self.people)

    def emitting(self, light: Streetlight) -> bool:
        return light.lightOn and world.FAULT_GO_DARK not in light.faultFlags

    def perceived_light(self, position) -> float:
        """Walking light at a node: its own lamp only."""
        level = self.config.ambientLight
        if self.emitting(self.light_at[position]):
            level += self.config.lightBrightness
        return min(level, 1.0)

    def metrics(self):
        c = self.config
        if c.numPeople == 0:
            p_people, p_trip = 1.0, 0.0
        else:
            p_people = sum(1 for p in self.people if p.finished) / c.numPeople
            p_trip = sum(p.ticksMoving for p in self.people) / (c.numPeople * c.maxTicks)
        p_energy = self.onTicks / (len(self.lights) * c.maxTicks)
        return world.EpisodeMetrics(pPeople=p_people, pTrip=min(p_trip, 1.0),
                                    pEnergy=min(p_energy, 1.0))


def oracle_init_world(config, broker=None, *, faults=()) -> OracleWorld:
    """Build the grid, route the pedestrians, install faults, run the handshake."""
    w = OracleWorld(config, broker)
    for y in range(config.gridHeight):
        for x in range(config.gridWidth):
            light = Streetlight(id=f"node{y * config.gridWidth + x + 1}", position=(x, y))
            w.lights.append(light)
            w.lights_by_id[light.id] = light
            w.light_at[light.position] = light
            w.prev_outbox[light.id] = 0.0
    routes = world.build_routes(config)
    w.people = [Pedestrian(id=f"person{i}", route=r) for i, r in enumerate(routes, start=1)]
    for spec in faults:
        if spec.kind not in world.FAULT_KINDS:
            raise world.UnknownFault(f"unknown fault kind {spec.kind!r}")
        targets = []
        for target in spec.targets:
            if target not in w.lights_by_id:
                raise world.UnknownTarget(f"no light named {target!r}")
            targets.append(w.lights_by_id[target])
        for light in targets:
            light.faultFlags.add(spec.kind)
    if broker is not None:
        broker.clock.advance_to(0)
        for light in w.lights:
            w.publish("manager01", "receiveMsgFromSmartThing", f"thing={light.id}")
            if world.FAULT_SKIP_HANDSHAKE not in light.faultFlags:
                w.publish("manager01", "createAdaptiveAgent", f"controller for {light.id}")
            w.publish("lightsAgent", "connect", f"{light.id} joined")
            w.publish("manager01", "sendMsgToSmartThing", f"ack to {light.id}")
            w.publish("lightsAgent", "receiveInputDataFromSmartThing",
                      f"initial data from {light.id}")
    return w


def oracle_sense(light: Streetlight, w: OracleWorld) -> SensorFrame:
    """Read one light's sensors against the end of the last tick and log them."""
    cfg = w.config
    level = cfg.ambientLight
    for pos in [light.position] + w.neighbors(light.position):
        if pos in w.prev_emitting:
            level += cfg.lightBrightness
    level = min(level, 1.0)
    if world.FAULT_SENSOR_STUCK in light.faultFlags:
        if light.stuckLightLevel is None:
            light.stuckLightLevel = level
        level = light.stuckLightLevel
    seen = [light.position] + w.neighbors(light.position)
    motion = any(not p.finished and p.position in seen for p in w.people)
    wireless = 0.0
    for other in w.wireless_neighbors(light):
        wireless = max(wireless, w.prev_outbox[other])
    frame = SensorFrame(lightLevel=level, motionDetected=motion, wirelessIn=wireless)
    light.lastFrame = frame
    w.publish(light.id, "receiveWirelessData", f"in={frame.wirelessIn:.6f}")
    w.publish(light.id, "readLightSensor", f"level={frame.lightLevel:.6f}")
    w.publish(light.id, "readMotionSensor", f"motion={1 if frame.motionDetected else 0}")
    w.publish(light.id, "sendMsg", f"frame from {light.id}")
    return frame


def oracle_actuate(light: Streetlight, decision, w: OracleWorld) -> None:
    """Apply one (led, wireless) controller output pair to one light and log it."""
    led = float(decision[0])
    wireless = float(decision[1])
    light.lightOn = led > 0
    light.outbox = 0.0 if world.FAULT_MUTE_WIRELESS in light.faultFlags else max(wireless, 0.0)
    w.publish(light.id, "receiveNeuralNetworkCommand", f"led={led:.6f} wireless={wireless:.6f}")
    if light.lightOn:
        w.publish(light.id, "switchLightON", "on")
    else:
        w.publish(light.id, "switchLightOFF", "off")
    w.publish(light.id, "sendWirelessData", f"out={light.outbox:.6f}")
    if w.emitting(light):
        w.publish(light.id, "detectLight", f"brightness={w.config.lightBrightness:.6f}")


def oracle_move_people(w: OracleWorld) -> None:
    """Move every unfinished pedestrian whose current and next nodes are lit."""
    threshold = w.config.darkThreshold
    for person in w.people:
        if person.finished:
            continue
        person.ticksMoving += 1
        nxt = person.route[person.positionIndex + 1]
        if w.perceived_light(person.position) > threshold and w.perceived_light(nxt) > threshold:
            person.positionIndex += 1
            person.finished = person.positionIndex == len(person.route) - 1


def _oracle_outputs(controller, inputs):
    return [tuple(row) for row in controller.forward_batch(inputs)]


def oracle_step_world(w: OracleWorld, controller) -> None:
    """One tick: every light senses, then light by light the agent decides and the light acts."""
    w.tick += 1
    if w.broker is not None:
        w.broker.clock.advance_to(w.tick * TICK_US)
    frames = [oracle_sense(light, w) for light in w.lights]
    inputs = np.array([[f.lightLevel, 1.0 if f.motionDetected else 0.0, f.wirelessIn]
                       for f in frames])
    for light, frame, out in zip(w.lights, frames, _oracle_outputs(controller, inputs)):
        w.publish("lightsAgent", "receiveInputDataFromSmartThing",
                  f"from {light.id} level={frame.lightLevel:.6f} "
                  f"motion={1 if frame.motionDetected else 0} wireless={frame.wirelessIn:.6f}")
        w.publish("lightsAgent", "useControllerToGetOutput", f"deciding for {light.id}")
        w.publish("lightsAgent", "sendOutputToSmartThing",
                  f"to {light.id} led={out[0]:.6f} wireless={out[1]:.6f}")
        oracle_actuate(light, out, w)
    oracle_move_people(w)
    w.onTicks += sum(1 for light in w.lights if light.lightOn)
    w.prev_emitting = {light.position for light in w.lights if w.emitting(light)}
    w.prev_outbox = {light.id: light.outbox for light in w.lights}


def oracle_run_episode(config, controller, broker=None, *, faults=()):
    """One reference episode, stopped early once every pedestrian has arrived."""
    w = oracle_init_world(config, broker, faults=faults)
    for _ in range(config.maxTicks):
        oracle_step_world(w, controller)
        if config.numPeople > 0 and w.all_finished:
            break
    if w.all_finished:
        w.publish("lights", "finishSimulation", f"tick={w.tick}")
    return w.metrics()
