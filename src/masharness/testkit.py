"""Trace-based test oracles: state machines that judge a log stream.

A test case lists the log patterns an execution must produce, in order.  The
compiled machine starts in ``start`` and owns one pending transition at a
time; an event matching any alternative of that transition advances the
machine, every other event is counted and ignored (open world).  Events
reach a machine one at a time through ``offer``, inline as a broker
subscriber or from a queue by ``run``, and ``finish`` gives the verdict.
``offer`` returns True once the machine has passed or failed, which an
inline subscriber uses to leave the broker's routes: later events could
not change the verdict.
Deadlines are measured on the events' virtual clock, so a verdict is a
pure function of the ordered events the machine's bindings match.  A
machine fails for lateness only when an event arrives past its pending
deadline; at the end of the stream a running machine fails with "event
stream ended before the expected pattern".
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace

from .broker import Broker, QueueClosed, QueueHandle, _match
from .logmodel import (
    TICK_US,
    BindingPattern,
    LogEvent,
    _shown,
    parse_binding_pattern,
)

LEVELS = ("local", "global")
SUB_LEVELS = ("framework", "scenario", "learning", "mas")

DEFAULT_MAX_WAIT_TICKS = 500
#: longest wait a transition may have
MAX_WAIT_TICKS = 1_000_000_000


class TestkitError(Exception):
    """Base class for test-plan and machine errors."""


class ParseError(TestkitError):
    """A test plan file is malformed.  Names the file and carries the 1-based line number."""

    def __init__(self, message: str, line: int, path):
        super().__init__(f"plan {path} line {line}: {message}")
        self.line = line


class BindingMismatch(TestkitError):
    """The consumed queue's bindings cannot cover the machine's patterns."""


@dataclass(frozen=True, slots=True)
class TransitionSpec:
    """One expected step: a set of alternative patterns and a wait budget."""

    alternatives: tuple[BindingPattern, ...]
    maxWait: int = DEFAULT_MAX_WAIT_TICKS

    def __post_init__(self):
        if type(self.alternatives) is not tuple or not all(
                isinstance(alt, BindingPattern) for alt in self.alternatives):
            raise TestkitError("alternatives must be a tuple of BindingPatterns")
        if not self.alternatives:
            raise TestkitError("transition needs at least one alternative")
        if type(self.maxWait) is not int:
            raise TestkitError(f"maxWait must be an int, got {_shown(self.maxWait)}")
        if self.maxWait <= 0:
            raise TestkitError(f"maxWait must be positive, got {_shown(self.maxWait)}")
        if self.maxWait > MAX_WAIT_TICKS:
            raise TestkitError(
                f"maxWait must be at most {MAX_WAIT_TICKS} ticks, got {_shown(self.maxWait)}")

    def matches(self, event: LogEvent) -> bool:
        key = event.key.segments
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

    def __post_init__(self):
        if type(self.functionName) is not str or not self.functionName:
            raise TestkitError(
                f"functionName must be a non-empty str, got {_shown(self.functionName)}")
        if self.level not in LEVELS:
            raise TestkitError(f"level must be one of {LEVELS}, got {_shown(self.level)}")
        if self.subLevel not in SUB_LEVELS:
            raise TestkitError(
                f"subLevel must be one of {SUB_LEVELS}, got {_shown(self.subLevel)}"
            )
        if type(self.validationSequence) is not tuple or not all(
                isinstance(spec, TransitionSpec) for spec in self.validationSequence):
            raise TestkitError("validationSequence must be a tuple of TransitionSpecs")
        if not self.validationSequence:
            raise TestkitError("validationSequence may not be empty")


class MachineStatus(enum.Enum):
    RUNNING = "running"
    PASSED = "passed"
    FAILED = "failed"


@dataclass(frozen=True, slots=True)
class TestVerdict:
    """Outcome of running one machine over an event stream."""

    name: str
    outcome: str  # "pass" or "fail"
    failedState: str | None
    missingPatterns: tuple[str, ...]
    elapsed: float  # ticks from time 0 to the last event judged
    seen: int  # events the machine was shown up to its verdict
    reason: str = ""
    annotations: tuple[str, ...] = ()

    @property
    def passed(self) -> bool:
        return self.outcome == "pass"


class TestMachine:
    """Compiled test case: N transitions give N+1 states.

    ``states[0]`` is ``start``; ``states[i]`` is named after transition i's
    alternatives.  Reaching the last state is a pass.  Once passed or failed
    the machine is frozen and ignores further events.

    Times are the offered events' timestamps in microseconds (virtual time,
    origin 0).  A state's deadline is maxWait ticks after the time that
    entered it.
    """

    def __init__(self, case: TestCase):
        self.name = case.functionName
        self.specs = case.validationSequence
        self.states = ("start",) + tuple(spec.label() for spec in self.specs)
        #: every pattern of every transition, once each, in plan order
        self.patterns = tuple(dict.fromkeys(
            alt for spec in self.specs for alt in spec.alternatives
        ))
        self.current = 0
        self.status = MachineStatus.RUNNING
        self.seen = 0
        self.failureReason: str | None = None
        self._entered = self._last = 0

    def step(self, event: LogEvent) -> MachineStatus:
        """Feed one event: advance on a match, ignore anything else."""
        if self.status is not MachineStatus.RUNNING:
            return self.status
        self.seen += 1
        spec = self.specs[self.current]
        if spec.matches(event):
            self.current += 1
            if self.current == len(self.specs):
                self.status = MachineStatus.PASSED
        return self.status

    def offer(self, event: LogEvent) -> bool:
        """Judge one event: a late one fails the machine, any other is stepped.

        Returns True from the event that ends ``RUNNING`` on, so that as a
        broker subscriber the machine is done then.
        """
        if self.status is not MachineStatus.RUNNING:
            return True
        now = event.timestamp
        wait = self.specs[self.current].maxWait
        deadline = self._entered + wait * TICK_US
        if now > deadline:
            self._last = deadline
            self.seen += 1
            self.status = MachineStatus.FAILED
            self.failureReason = f"waited past {wait} ticks"
            return True
        self._last = now
        before = self.current
        self.step(event)
        if self.current != before:
            self._entered = now
        return self.status is not MachineStatus.RUNNING

    def finish(self) -> TestVerdict:
        """End of stream: a machine still running fails at its state.

        It cannot be late here: ``offer`` keeps ``_last`` and ``_entered`` at
        or before the pending deadline, and a step only moves that later."""
        if self.status is MachineStatus.RUNNING:
            self._last = max(self._last, self._entered)
            self.status = MachineStatus.FAILED
            self.failureReason = "event stream ended before the expected pattern"
        passed = self.status is MachineStatus.PASSED
        pending = () if passed else self.specs[self.current].alternatives
        return TestVerdict(
            name=self.name,
            outcome="pass" if passed else "fail",
            failedState=None if passed else self.states[self.current],
            missingPatterns=tuple(alt.encode() for alt in pending),
            elapsed=self._last / TICK_US,
            seen=self.seen,
            reason=self.failureReason or "",
        )


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
    missing = [alt.encode() for alt in machine.patterns if alt.segments not in bound]
    if missing:
        raise BindingMismatch(
            f"machine {machine.name!r} expects patterns the queue "
            f"{queue.name!r} is not bound to: {', '.join(sorted(set(missing)))}"
        )


def run(machine: TestMachine, queue: QueueHandle) -> TestVerdict:
    """Drive a machine to a verdict by consuming a queue.

    Events are offered in FIFO order until the machine passes or fails, or
    the broker is closed and the queue drained.  A verdict over a queue that
    dropped events carries a note giving the count.
    """
    _check_bindings_cover(machine, queue)
    while machine.status is MachineStatus.RUNNING:
        try:
            event = queue.consume()
        except QueueClosed:
            break
        machine.offer(event)
    verdict = machine.finish()
    dropped = queue.stats().dropped
    if dropped:
        verdict = replace(verdict, annotations=verdict.annotations + (
            f"queue {queue.name!r} dropped {dropped} events; the verdict saw an incomplete stream",
        ))
    return verdict


def judge(cases, broker: Broker):
    """Subscribe one machine per case, and an error monitor, to ``broker``.

    Each machine subscribes to the union of its patterns and judges events
    inline, in publish order.  The error monitor on ``*.*.*.error.#`` notes
    every error-level event.  Returns a function that, once the broker is
    closed, gives the verdicts in plan order, each annotated with the notes.
    """
    machines = [TestMachine(case) for case in cases]
    for machine in machines:
        broker.subscribe(machine.name, machine.patterns, machine.offer)
    notes = []
    # plan names are single tokens, so this name cannot collide with one
    broker.subscribe("error monitor", ["*.*.*.error.#"],
                     lambda event: notes.append(f"error log: {event.key.text} {event.message}"))

    def verdicts() -> list[TestVerdict]:
        found = [machine.finish() for machine in machines]
        return [replace(v, annotations=tuple(notes)) for v in found] if notes else found

    return verdicts


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


def format_report(verdict: TestVerdict) -> str:
    """Multi-line human report used by the command-line harness."""
    lines = [f"test {verdict.name}: {verdict.outcome.upper()}"]
    if not verdict.passed:
        lines.append(f"  failed at state: {verdict.failedState}")
        lines.append("  missing: " + " | ".join(verdict.missingPatterns))
        if verdict.reason:
            lines.append(f"  reason: {verdict.reason}")
    lines.append(f"  elapsed: {verdict.elapsed:.2f}")
    lines.append(f"  events seen: {verdict.seen}")
    for note in verdict.annotations:
        lines.append(f"  note: {note}")
    return "\n".join(lines)


def load_test_plan(path) -> list[TestCase]:
    """Parse a plan file into test cases.

    Grammar, one directive per line (blank lines and ``#`` comments allowed)::

        test <name> level=<local|global> sublevel=<framework|scenario|learning|mas>
        expect <pattern>[|<pattern>...] within <N>ticks

    ``within`` is optional and defaults to 500 ticks; N is decimal digits,
    at most MAX_WAIT_TICKS.  Test names are unique.  Raises ParseError
    naming the plan file and the offending line number.
    """
    cases: list[TestCase] = []
    name = None
    level = ""
    sublevel = ""
    specs: list[TransitionSpec] = []
    header_line = 0
    seen: set[str] = set()

    def flush():
        nonlocal name, specs
        if name is None:
            return
        if not specs:
            raise ParseError(f"test {name!r} has no expect lines", header_line, path)
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
            raise ParseError(str(exc), header_line, path) from exc
        name = None
        specs = []

    with open(path, "r", encoding="utf-8") as fh:
        try:
            lines = fh.readlines()
        except UnicodeDecodeError as exc:
            raise TestkitError(f"plan {path} is not UTF-8 text: {exc.reason}") from None
        for lineno, raw in enumerate(lines, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            tokens = line.split()
            if tokens[0] == "test":
                flush()
                if len(tokens) != 4:
                    raise ParseError(
                        "expected: test <name> level=<...> sublevel=<...>", lineno, path)
                name = tokens[1]
                if name in seen:
                    raise ParseError(f"duplicate test name {name!r}", lineno, path)
                seen.add(name)
                header_line = lineno
                level = sublevel = ""
                for tok in tokens[2:]:
                    if tok.startswith("level="):
                        level = tok[len("level="):]
                    elif tok.startswith("sublevel="):
                        sublevel = tok[len("sublevel="):]
                    else:
                        raise ParseError(f"unknown option {tok!r}", lineno, path)
                if not level or not sublevel:
                    raise ParseError("both level= and sublevel= are required", lineno, path)
            elif tokens[0] == "expect":
                if name is None:
                    raise ParseError("expect before any test header", lineno, path)
                rest = tokens[1:]
                max_wait = DEFAULT_MAX_WAIT_TICKS
                if len(rest) >= 2 and rest[-2] == "within":
                    dur = rest[-1]
                    count = dur[: -len("ticks")]
                    # isdecimal(), not isdigit(): int() refuses digits such as '²'
                    if not dur.endswith("ticks") or not count.isdecimal():
                        raise ParseError(f"bad duration {dur!r}, want <N>ticks", lineno, path)
                    # more digits than the bound has, perhaps more than int() reads
                    digits = count.lstrip("0") or "0"
                    if len(digits) > len(str(MAX_WAIT_TICKS)):
                        raise ParseError(f"maxWait must be at most {MAX_WAIT_TICKS} ticks, "
                                         f"got a number of {len(digits)} digits", lineno, path)
                    max_wait = int(digits)
                    rest = rest[:-2]
                if len(rest) != 1:
                    raise ParseError(
                        "expected: expect <pattern>[|<alt>...] [within <N>ticks]", lineno, path)
                try:
                    alts = tuple(
                        parse_binding_pattern(p) for p in rest[0].split("|")
                    )
                    specs.append(TransitionSpec(alternatives=alts, maxWait=max_wait))
                except (TestkitError, ValueError) as exc:
                    raise ParseError(str(exc), lineno, path) from exc
            else:
                raise ParseError(f"unknown directive {tokens[0]!r}", lineno, path)
    flush()
    return cases
