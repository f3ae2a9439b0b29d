"""Trace-based test oracles: state machines over consumed log streams.

A test case lists the log patterns an execution must produce, in order.  The
compiled machine starts in ``start`` and owns one pending transition at a
time; an event matching any alternative of that transition advances the
machine, every other event is recorded and ignored (open world).  Timeouts
are measured on the events' virtual clock by default, so verdicts do not
depend on host scheduling; wallclock mode exists for live runs.
"""

from __future__ import annotations

import enum
import threading
import time
from dataclasses import dataclass

from .broker import Broker, QueueClosed, QueueHandle, _match
from .logmodel import (
    TICK_US,
    BindingPattern,
    LogEvent,
    parse_binding_pattern,
    routing_key,
)

LEVELS = ("local", "global")
SUB_LEVELS = ("framework", "scenario", "learning", "mas")

DEFAULT_MAX_WAIT_TICKS = 500
#: wallclock seconds that stand in for one tick (500 ticks == 5 s)
SECONDS_PER_TICK = 0.01


class TestkitError(Exception):
    """Base class for test-plan and machine errors."""


class ParseError(TestkitError):
    """A test plan file is malformed.  Carries the 1-based line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class BindingMismatch(TestkitError):
    """The consumed queue's bindings cannot cover the machine's patterns."""


@dataclass(frozen=True, slots=True)
class TransitionSpec:
    """One expected step: a set of alternative patterns and a wait budget."""

    alternatives: tuple[BindingPattern, ...]
    maxWait: int = DEFAULT_MAX_WAIT_TICKS

    def __post_init__(self):
        if not self.alternatives:
            raise TestkitError("transition needs at least one alternative")
        if self.maxWait <= 0:
            raise TestkitError(f"maxWait must be positive, got {self.maxWait}")

    def matches(self, event: LogEvent) -> bool:
        key = routing_key(event).segments
        return any(_match(alt.segments, key) for alt in self.alternatives)

    def label(self) -> str:
        """Human name for the state reached by firing this transition."""
        names = []
        for alt in self.alternatives:
            segs = alt.segments
            name = segs[2] if len(segs) >= 3 and segs[2] not in ("*", "#") else alt.encode()
            if name not in names:
                names.append(name)
        return "|".join(names)


@dataclass(frozen=True, slots=True)
class TestCase:
    """A named requirement over the log stream of one run."""

    functionName: str
    level: str
    subLevel: str
    validationSequence: tuple[TransitionSpec, ...]
    procedure: str = ""
    input: str = ""
    expectedValue: str = ""

    def __post_init__(self):
        if self.level not in LEVELS:
            raise TestkitError(f"level must be one of {LEVELS}, got {self.level!r}")
        if self.subLevel not in SUB_LEVELS:
            raise TestkitError(
                f"subLevel must be one of {SUB_LEVELS}, got {self.subLevel!r}"
            )
        if not self.validationSequence:
            raise TestkitError("validationSequence may not be empty")


class MachineStatus(enum.Enum):
    RUNNING = "running"
    PASSED = "passed"
    FAILED = "failed"


class TestMachine:
    """Compiled test case: N transitions give N+1 states.

    ``states[0]`` is ``start``; ``states[i]`` is named after transition i's
    alternatives.  Reaching the last state is a pass.  Once passed or failed
    the machine is frozen and ignores further events.
    """

    def __init__(self, case: TestCase):
        self.case = case
        self.specs = case.validationSequence
        self.states = ("start",) + tuple(spec.label() for spec in self.specs)
        self.current = 0
        self.status = MachineStatus.RUNNING
        self.startedAt: int | None = None
        self.trace: list[LogEvent] = []
        self.matchedEvents: list[LogEvent] = []
        self.failureReason: str | None = None

    @property
    def name(self) -> str:
        return self.case.functionName

    @property
    def pending(self) -> TransitionSpec | None:
        if self.status is MachineStatus.RUNNING:
            return self.specs[self.current]
        return None

    def start(self, at_timestamp: int = 0) -> None:
        self.startedAt = at_timestamp

    def step(self, event: LogEvent) -> MachineStatus:
        """Feed one event: advance on a match, ignore anything else."""
        if self.status is not MachineStatus.RUNNING:
            return self.status
        self.trace.append(event)
        spec = self.specs[self.current]
        if spec.matches(event):
            self.matchedEvents.append(event)
            self.current += 1
            if self.current == len(self.specs):
                self.status = MachineStatus.PASSED
        return self.status

    def fail(self, reason: str) -> None:
        if self.status is MachineStatus.RUNNING:
            self.status = MachineStatus.FAILED
            self.failureReason = reason


@dataclass(frozen=True, slots=True)
class TestVerdict:
    """Outcome of running one machine against a queue."""

    name: str
    outcome: str  # "pass" or "fail"
    failedState: str | None
    missingPatterns: tuple[str, ...]
    elapsed: float  # ticks in virtual mode, seconds in wallclock mode
    trace: tuple[LogEvent, ...]
    reason: str = ""
    annotations: tuple[str, ...] = ()

    @property
    def passed(self) -> bool:
        return self.outcome == "pass"


def compile(case: TestCase) -> TestMachine:  # noqa: A001 - domain verb
    """Build the runnable state machine for a test case."""
    return TestMachine(case)


def _check_bindings_cover(machine: TestMachine, queue: QueueHandle) -> None:
    """Static superset check: every machine pattern must be a queue binding.

    Pattern inclusion in general is undecidable without expansion, so the
    contract is set inclusion on the parsed patterns: consuming from a queue
    that simply is not bound to a machine's pattern is a harness bug and
    fails fast instead of producing a bogus timeout verdict.
    """
    bound = {b.segments for b in queue.bindings}
    missing = [
        alt.encode()
        for spec in machine.specs
        for alt in spec.alternatives
        if alt.segments not in bound
    ]
    if missing:
        raise BindingMismatch(
            f"machine {machine.name!r} expects patterns the queue "
            f"{queue.name!r} is not bound to: {', '.join(sorted(set(missing)))}"
        )


def _verdict(machine: TestMachine, elapsed: float) -> TestVerdict:
    if machine.status is MachineStatus.PASSED:
        return TestVerdict(
            name=machine.name,
            outcome="pass",
            failedState=None,
            missingPatterns=(),
            elapsed=elapsed,
            trace=tuple(machine.trace),
        )
    pending = machine.specs[machine.current]
    return TestVerdict(
        name=machine.name,
        outcome="fail",
        failedState=machine.states[machine.current],
        missingPatterns=tuple(alt.encode() for alt in pending.alternatives),
        elapsed=elapsed,
        trace=tuple(machine.trace),
        reason=machine.failureReason or "",
    )


def run(
    machine: TestMachine,
    queue: QueueHandle,
    *,
    wallclock: bool = False,
    start_timestamp: int = 0,
    check_bindings: bool = True,
) -> TestVerdict:
    """Drive a machine to a verdict by consuming a queue to completion.

    In virtual-time mode (default) each state's deadline is maxWait ticks
    after the timestamp that entered the state; an event stamped past the
    deadline fails the machine even if it would have matched, and a closed,
    drained queue fails the machine at its current state.  In wallclock mode
    deadlines are real time at SECONDS_PER_TICK per tick.
    """
    if check_bindings:
        _check_bindings_cover(machine, queue)
    if wallclock:
        return _run_wallclock(machine, queue)
    return _run_virtual(machine, queue, start_timestamp)


def _run_virtual(machine: TestMachine, queue: QueueHandle, start_timestamp: int) -> TestVerdict:
    machine.start(start_timestamp)
    entered = start_timestamp
    last_seen = start_timestamp
    while machine.status is MachineStatus.RUNNING:
        deadline = entered + machine.specs[machine.current].maxWait * TICK_US
        try:
            event = queue.consume(None)
        except QueueClosed:
            machine.fail("event stream ended before the expected pattern")
            last_seen = max(last_seen, entered)
            break
        if event is None:  # pragma: no cover - blocking consume returns or raises
            continue
        last_seen = event.timestamp
        if event.timestamp > deadline:
            machine.trace.append(event)
            machine.fail(
                f"waited past {machine.specs[machine.current].maxWait} ticks"
            )
            last_seen = deadline
            break
        before = machine.current
        machine.step(event)
        if machine.current != before:
            entered = event.timestamp
    elapsed = (last_seen - start_timestamp) / TICK_US
    return _verdict(machine, elapsed)


def _run_wallclock(machine: TestMachine, queue: QueueHandle) -> TestVerdict:
    started = time.monotonic()
    machine.start(0)
    while machine.status is MachineStatus.RUNNING:
        budget = machine.specs[machine.current].maxWait * SECONDS_PER_TICK
        entered = time.monotonic()
        advanced = False
        while not advanced:
            remaining = budget - (time.monotonic() - entered)
            if remaining <= 0:
                machine.fail(
                    f"waited past {machine.specs[machine.current].maxWait} ticks"
                )
                break
            try:
                event = queue.consume(remaining)
            except QueueClosed:
                machine.fail("event stream ended before the expected pattern")
                break
            if event is None:
                machine.fail(
                    f"waited past {machine.specs[machine.current].maxWait} ticks"
                )
                break
            before = machine.current
            machine.step(event)
            advanced = machine.current != before
            if machine.status is not MachineStatus.RUNNING:
                break
    return _verdict(machine, time.monotonic() - started)


def merge_timeline(*event_streams) -> list[LogEvent]:
    """Merge per-queue traces into one timeline ordered by timestamp.

    The sort is stable, so events with equal timestamps keep their arrival
    order within and across the given streams.
    """
    merged: list[LogEvent] = []
    for stream in event_streams:
        merged.extend(stream)
    merged.sort(key=lambda e: e.timestamp)
    return merged


def format_summary(verdict: TestVerdict) -> str:
    """One line per machine: name, outcome, failed state, elapsed."""
    state = verdict.failedState if verdict.failedState else "-"
    return f"{verdict.name} {verdict.outcome} {state} {verdict.elapsed:.2f}"


def format_report(verdict: TestVerdict) -> str:
    """Multi-line human report used by the command-line harness."""
    lines = [f"test {verdict.name}: {verdict.outcome.upper()}"]
    if not verdict.passed:
        lines.append(f"  failed at state: {verdict.failedState}")
        lines.append("  missing: " + " | ".join(verdict.missingPatterns))
        if verdict.reason:
            lines.append(f"  reason: {verdict.reason}")
    lines.append(f"  elapsed: {verdict.elapsed:.2f}")
    lines.append(f"  events seen: {len(verdict.trace)}")
    for note in verdict.annotations:
        lines.append(f"  note: {note}")
    return "\n".join(lines)


class VerdictCollector:
    """Thread-safe verdict sink for machines running on worker threads."""

    def __init__(self):
        self._lock = threading.Lock()
        self._verdicts: list[TestVerdict] = []

    def add(self, verdict: TestVerdict) -> None:
        with self._lock:
            self._verdicts.append(verdict)

    def results(self) -> list[TestVerdict]:
        with self._lock:
            return list(self._verdicts)

    @property
    def all_passed(self) -> bool:
        with self._lock:
            return all(v.passed for v in self._verdicts)


def load_test_plan(path) -> list[TestCase]:
    """Parse a plan file into test cases.

    Grammar, one directive per line (blank lines and ``#`` comments allowed)::

        test <name> level=<local|global> sublevel=<framework|scenario|learning|mas>
        expect <pattern>[|<pattern>...] within <N>ticks

    ``within`` is optional and defaults to 500 ticks.  Raises ParseError
    with the offending line number.
    """
    cases: list[TestCase] = []
    name = None
    level = ""
    sublevel = ""
    specs: list[TransitionSpec] = []
    header_line = 0

    def flush(at_line: int):
        nonlocal name, specs
        if name is None:
            return
        if not specs:
            raise ParseError(f"test {name!r} has no expect lines", header_line)
        try:
            cases.append(
                TestCase(
                    functionName=name,
                    level=level,
                    subLevel=sublevel,
                    validationSequence=tuple(specs),
                )
            )
        except TestkitError as exc:
            raise ParseError(str(exc), header_line) from exc
        name = None
        specs = []

    last_line = 0
    with open(path, "r", encoding="utf-8") as fh:
        try:
            lines = fh.readlines()
        except UnicodeDecodeError as exc:
            raise TestkitError(f"plan {path} is not UTF-8 text: {exc.reason}") from None
        for lineno, raw in enumerate(lines, start=1):
            last_line = lineno
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            tokens = line.split()
            if tokens[0] == "test":
                flush(lineno)
                if len(tokens) != 4:
                    raise ParseError(
                        "expected: test <name> level=<...> sublevel=<...>", lineno
                    )
                name = tokens[1]
                header_line = lineno
                level = sublevel = ""
                for tok in tokens[2:]:
                    if tok.startswith("level="):
                        level = tok[len("level="):]
                    elif tok.startswith("sublevel="):
                        sublevel = tok[len("sublevel="):]
                    else:
                        raise ParseError(f"unknown option {tok!r}", lineno)
                if not level or not sublevel:
                    raise ParseError("both level= and sublevel= are required", lineno)
            elif tokens[0] == "expect":
                if name is None:
                    raise ParseError("expect before any test header", lineno)
                rest = tokens[1:]
                max_wait = DEFAULT_MAX_WAIT_TICKS
                if len(rest) >= 2 and rest[-2] == "within":
                    dur = rest[-1]
                    if not dur.endswith("ticks") or not dur[: -len("ticks")].isdigit():
                        raise ParseError(f"bad duration {dur!r}, want <N>ticks", lineno)
                    max_wait = int(dur[: -len("ticks")])
                    rest = rest[:-2]
                if len(rest) != 1:
                    raise ParseError(
                        "expected: expect <pattern>[|<alt>...] [within <N>ticks]",
                        lineno,
                    )
                try:
                    alts = tuple(
                        parse_binding_pattern(p) for p in rest[0].split("|")
                    )
                    specs.append(TransitionSpec(alternatives=alts, maxWait=max_wait))
                except (TestkitError, ValueError) as exc:
                    raise ParseError(str(exc), lineno) from exc
            else:
                raise ParseError(f"unknown directive {tokens[0]!r}", lineno)
    flush(last_line)
    return cases
