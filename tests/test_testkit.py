import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from masharness.broker import Broker, matches
from masharness.logmodel import (
    TICK_US,
    EventClock,
    LogEvent,
    RoutingKey,
    event_key,
    keyed_event,
    make_log_event,
)
from masharness.testkit import (
    MAX_WAIT_TICKS,
    BindingMismatch,
    MachineStatus,
    ParseError,
    TestCase,
    TestkitError,
    TransitionSpec,
    compile,
    judge,
    load_test_plan,
    merge_timeline,
    run,
)
from masharness.logmodel import parse_binding_pattern

from oracles import oracle_matches, oracle_offer_verdict, oracle_run_machine


def spec(*patterns, maxWait=500):
    return TransitionSpec(
        alternatives=tuple(parse_binding_pattern(p) for p in patterns),
        maxWait=maxWait,
    )


def case(*specs, name="sample", level="local", sublevel="scenario"):
    return TestCase(
        functionName=name,
        level=level,
        subLevel=sublevel,
        validationSequence=tuple(specs),
    )


def light_event(action, clock, name="node10"):
    return make_log_event(
        "lightContainer",
        name,
        action,
        "info",
        sourceUnit="Light",
        sourceOperation="act",
        sourceLine=58,
        resource="lightActuator",
        clock=clock,
    )


class TestCaseValidation:
    def test_vocabulary_is_enforced(self):
        with pytest.raises(TestkitError):
            case(spec("a.#"), level="regional")
        with pytest.raises(TestkitError):
            case(spec("a.#"), sublevel="misc")
        with pytest.raises(TestkitError):
            case()

    def test_transition_requires_positive_wait(self):
        with pytest.raises(TestkitError):
            spec("a.#", maxWait=0)

    def test_transition_requires_an_alternative(self):
        with pytest.raises(TestkitError, match="^transition needs at least one alternative$"):
            TransitionSpec(alternatives=())

    @pytest.mark.parametrize("wait,message", [
        (2.5, "must be an int, got 2.5"),
        (True, "must be an int, got True"),
        (float("nan"), "must be an int, got nan"),
        ("5", "must be an int, got '5'"),
        (None, "must be an int, got None"),
        (10 ** 5000, f"must be at most {MAX_WAIT_TICKS} ticks, got an int of 16610 bits"),
    ], ids=["float", "bool", "nan", "str", "none", "huge"])
    def test_a_wait_is_an_int(self, wait, message):
        with pytest.raises(TestkitError, match=f"^maxWait {re.escape(message)}$"):
            spec("a.#", maxWait=wait)

    @pytest.mark.parametrize("alternatives", [("a.#",), [parse_binding_pattern("a.#")]],
                             ids=["str", "list"])
    def test_an_alternative_is_a_binding_pattern(self, alternatives):
        with pytest.raises(TestkitError, match="^alternatives must be a tuple of BindingPatterns$"):
            TransitionSpec(alternatives)

    @pytest.mark.parametrize("steps", [("x",), [spec("a.#")]], ids=["str", "list"])
    def test_a_step_is_a_transition(self, steps):
        with pytest.raises(TestkitError,
                           match="^validationSequence must be a tuple of TransitionSpecs$"):
            TestCase("n", "local", "scenario", steps)

    @pytest.mark.parametrize("name,shown", [(5, "5"), ("", "''"), (None, "None")])
    def test_a_name_is_a_non_empty_string(self, name, shown):
        with pytest.raises(TestkitError,
                           match=f"^functionName must be a non-empty str, got {shown}$"):
            case(spec("a.#"), name=name)


class TestCompile:
    def test_states_are_start_plus_one_per_transition(self):
        machine = compile(
            case(
                spec("lightContainer.node10.receiveNeuralNetworkCommand.#"),
                spec("lightContainer.node10.switchLightON.#"),
                spec("lightContainer.node10.detectLight.#"),
            )
        )
        assert machine.states == (
            "start",
            "receiveNeuralNetworkCommand",
            "switchLightON",
            "detectLight",
        )

    def test_alternative_state_name_joins_actions(self):
        machine = compile(
            case(
                spec(
                    "lightContainer.node10.switchLightON.#",
                    "lightContainer.node10.switchLightOFF.#",
                )
            )
        )
        assert machine.states[1] == "switchLightON|switchLightOFF"


class TestStep:
    def test_matching_event_advances(self):
        clock = EventClock()
        machine = compile(case(spec("lightContainer.*.switchLightON.#")))
        status = machine.step(light_event("switchLightON", clock))
        assert status is MachineStatus.PASSED

    def test_non_matching_event_is_recorded_and_ignored(self):
        clock = EventClock()
        machine = compile(case(spec("lightContainer.*.switchLightON.#")))
        status = machine.step(light_event("switchLightOFF", clock))
        assert status is MachineStatus.RUNNING
        assert machine.current == 0
        assert machine.seen == 1

    def test_any_alternative_advances(self):
        clock = EventClock()
        machine = compile(
            case(
                spec(
                    "lightContainer.*.switchLightON.#",
                    "lightContainer.*.switchLightOFF.#",
                )
            )
        )
        assert machine.step(light_event("switchLightOFF", clock)) is MachineStatus.PASSED

    def test_terminal_machine_is_frozen(self):
        clock = EventClock()
        machine = compile(case(spec("lightContainer.#")))
        machine.step(light_event("a", clock))
        seen = machine.seen
        machine.step(light_event("b", clock))
        assert machine.status is MachineStatus.PASSED
        assert machine.seen == seen


def run_over(machine, events, *, close=True):
    """Publish events to a fresh broker queue, close, then run the machine."""
    broker = Broker()
    patterns = []
    for sp in machine.specs:
        for alt in sp.alternatives:
            if alt not in patterns:
                patterns.append(alt)
    queue = broker.declare_queue("q", patterns + [parse_binding_pattern("#")])
    for event in events:
        broker.publish(event)
    if close:
        broker.close()
    return run(machine, queue)


class TestRunVirtualTime:
    def test_full_sequence_passes(self):
        clock = EventClock()
        machine = compile(
            case(
                spec("lightContainer.*.receiveNeuralNetworkCommand.#"),
                spec("lightContainer.*.switchLightON.#"),
            )
        )
        events = [
            light_event("receiveNeuralNetworkCommand", clock),
            light_event("noise", clock),
            light_event("switchLightON", clock),
        ]
        verdict = run_over(machine, events)
        assert verdict.passed
        assert verdict.failedState is None
        assert verdict.missingPatterns == ()
        assert verdict.seen == 3

    def test_stream_end_fails_at_current_state(self):
        clock = EventClock()
        machine = compile(
            case(
                spec("lightContainer.*.switchLightON.#"),
                spec("lightContainer.*.detectLight.#"),
            )
        )
        verdict = run_over(machine, [light_event("switchLightON", clock)])
        assert not verdict.passed
        assert verdict.failedState == "switchLightON"
        assert verdict.missingPatterns == ("lightContainer.*.detectLight.#",)

    def test_event_past_deadline_fails_even_if_matching(self):
        clock = EventClock()
        machine = compile(case(spec("lightContainer.*.switchLightON.#", maxWait=2)))
        clock.advance_to(5 * TICK_US)
        verdict = run_over(machine, [light_event("switchLightON", clock)])
        assert not verdict.passed
        assert verdict.failedState == "start"
        assert verdict.elapsed == pytest.approx(2.0)

    def test_deadline_measured_from_state_entry(self):
        clock = EventClock()
        machine = compile(
            case(
                spec("lightContainer.*.switchLightON.#", maxWait=500),
                spec("lightContainer.*.detectLight.#", maxWait=10),
            )
        )
        clock.advance_to(400 * TICK_US)
        on = light_event("switchLightON", clock)
        clock.advance_to(405 * TICK_US)
        detect = light_event("detectLight", clock)
        verdict = run_over(machine, [on, detect])
        assert verdict.passed

    def test_elapsed_reports_ticks_to_final_match(self):
        clock = EventClock()
        machine = compile(case(spec("lightContainer.*.switchLightON.#")))
        clock.advance_to(7 * TICK_US)
        verdict = run_over(machine, [light_event("switchLightON", clock)])
        assert verdict.passed
        assert verdict.elapsed == pytest.approx(7.0)

    def test_binding_superset_check(self):
        machine = compile(case(spec("MANAGER.*.createAdaptiveAgent.#")))
        broker = Broker()
        queue = broker.declare_queue("q", ["lightContainer.#"])
        with pytest.raises(BindingMismatch):
            run(machine, queue)

    def test_binding_check_accepts_exact_cover(self):
        machine = compile(case(spec("MANAGER.*.createAdaptiveAgent.#")))
        broker = Broker()
        queue = broker.declare_queue(
            "q", ["MANAGER.*.createAdaptiveAgent.#", "lightContainer.#"]
        )
        broker.close()
        verdict = run(machine, queue)
        assert not verdict.passed  # empty stream, but no BindingMismatch


class TestOfferAndFinish:
    def test_inline_subscriber_reaches_the_same_verdict_as_run(self):
        clock = EventClock()
        the_case = case(
            spec("lightContainer.*.switchLightON.#"),
            spec("lightContainer.*.detectLight.#", maxWait=3),
        )
        inline = compile(the_case)
        broker = Broker()
        broker.subscribe("inline", inline.patterns, inline.offer)
        queue = broker.declare_queue("q", inline.patterns)
        broker.publish(light_event("switchLightON", clock))
        clock.advance_to(5 * TICK_US)
        broker.publish(light_event("detectLight", clock))
        broker.close()
        expected = run(compile(the_case), queue)
        got = inline.finish()
        assert got == expected
        assert got.reason == "waited past 3 ticks"
        assert got.elapsed == pytest.approx(3.0)

    def test_offer_answers_true_from_the_event_that_passes_the_machine(self):
        clock = EventClock()
        machine = compile(case(spec("lightContainer.*.switchLightON.#"),
                               spec("lightContainer.*.detectLight.#")))
        answers = [machine.offer(light_event(action, clock)) for action in (
            "readMotionSensor", "switchLightON", "switchLightOFF", "detectLight",
            "switchLightON", "readMotionSensor")]
        assert answers == [False, False, False, True, True, True]
        assert machine.finish().passed
        assert machine.finish().seen == 4

    def test_offer_answers_true_from_the_late_event_that_fails_the_machine(self):
        clock = EventClock()
        machine = compile(case(spec("lightContainer.*.switchLightON.#", maxWait=2)))
        assert machine.offer(light_event("readMotionSensor", clock)) is False
        clock.advance_to(5 * TICK_US)
        assert machine.offer(light_event("readMotionSensor", clock)) is True
        assert machine.status is MachineStatus.FAILED
        assert machine.offer(light_event("switchLightON", clock)) is True
        assert machine.finish().reason == "waited past 2 ticks"

    def test_finish_is_idempotent(self):
        machine = compile(case(spec("lightContainer.*.switchLightON.#")))
        first = machine.finish()
        assert first.reason == "event stream ended before the expected pattern"
        assert machine.finish() == first

#: key words an event of the lateness property draws from, and the patterns over them
LATE_WORDS = ("a", "b")
LATE_PATTERNS = ("#", "a.#", "b.#", "*.n.a.#", "*.n.b.#", "a.*.b.#")


def late_event(agent, action, timestamp):
    key = event_key(agent, "n", action, sourceUnit="U", sourceOperation="op",
                    sourceLine=1, resource="r")
    return keyed_event(key, timestamp, "m")


#: timestamps on and between tick boundaries, so deadlines are hit exactly
LATE_TIMES = st.one_of(st.integers(0, 25).map(lambda t: t * TICK_US),
                       st.integers(0, 25 * TICK_US))


class TestLateness:
    @settings(max_examples=300, deadline=None)
    @given(
        plan=st.lists(st.tuples(st.lists(st.sampled_from(LATE_PATTERNS), min_size=1, max_size=2),
                                st.integers(1, 5)), min_size=1, max_size=4),
        drawn=st.lists(st.tuples(st.sampled_from(LATE_WORDS), st.sampled_from(LATE_WORDS),
                                 LATE_TIMES), max_size=12),
        in_order=st.booleans(),
    )
    def test_finish_is_never_late_and_agrees_with_the_oracle(self, plan, drawn, in_order):
        the_case = case(*(spec(*alts, maxWait=wait) for alts, wait in plan))
        if in_order:
            drawn = sorted(drawn, key=lambda d: d[2])
        events = [late_event(*d) for d in drawn]
        machine = compile(the_case)
        for event in events:
            machine.offer(event)
        verdict = machine.finish()
        if verdict.reason == "event stream ended before the expected pattern":
            deadline = machine._entered + machine.specs[machine.current].maxWait * TICK_US
            assert machine._last <= deadline
            assert verdict.elapsed == machine._last / TICK_US
        assert verdict == oracle_offer_verdict(the_case, events)

    def test_an_out_of_order_entry_sets_elapsed(self):
        # the last event judged is older than the one that entered the pending state
        machine = compile(case(spec("a.#"), spec("b.#", maxWait=3)))
        for event in (late_event("b", "a", 5 * TICK_US), late_event("a", "a", 2 * TICK_US),
                      late_event("a", "b", 1 * TICK_US)):
            machine.offer(event)
        verdict = machine.finish()
        assert (verdict.reason, verdict.elapsed, verdict.seen) == (
            "event stream ended before the expected pattern", 2.0, 3)


class TestDroppedEvents:
    def test_verdict_over_a_lossy_queue_notes_the_drops(self):
        clock = EventClock()
        machine = compile(case(spec("lightContainer.*.switchLightON.#")))
        broker = Broker()
        queue = broker.declare_queue("small", machine.patterns, capacity=2)
        events = [light_event("switchLightON", clock, name=f"node{i + 1}") for i in range(5)]
        for event in events:
            broker.publish(event)
        broker.close()
        verdict = run(machine, queue)
        assert verdict.passed
        # the queue kept node4's and node5's events, and node4's passed the machine
        assert verdict.seen == 1
        assert verdict.elapsed == events[3].timestamp / TICK_US
        assert verdict.annotations == (
            "queue 'small' dropped 3 events; the verdict saw an incomplete stream",
        )

    def test_lossless_queue_adds_no_note(self):
        clock = EventClock()
        machine = compile(case(spec("lightContainer.*.switchLightON.#")))
        verdict = run_over(machine, [light_event("switchLightON", clock)])
        assert verdict.annotations == ()


class TestJudge:
    def test_verdicts_come_in_plan_order_with_the_error_notes_and_their_counts(self):
        broker = Broker()
        finish = judge([
            case(spec("lightContainer.*.switchLightON.#"), name="switch-on"),
            case(spec("lightContainer.node10.#"), spec("lightContainer.*.detectLight.#"),
                 name="detect"),
        ], broker)
        lamp = broker.publisher("lightContainer", "node10")
        for action, typeLog, message in (("readMotionSensor", "info", ""),
                                         ("switchLightON", "info", ""),
                                         ("switchLightON", "error", "bulb hot"),
                                         ("switchLightOFF", "info", "")):
            lamp.log(action, typeLog, sourceUnit="Light", sourceOperation="act",
                     sourceLine=58, resource="lightActuator", message=message)
        broker.close()
        verdicts = finish()
        assert [(v.name, v.outcome) for v in verdicts] == [("switch-on", "pass"), ("detect", "fail")]
        note = "error log: lightContainer.node10.switchLightON.error.Light.act.58.lightActuator bulb hot"
        assert all(v.annotations == (note,) for v in verdicts)
        delivered = {name: q.delivered for name, q in broker.stats().queues.items()}
        # switch-on is done at the first event it binds; detect is shown all four
        assert [v.seen for v in verdicts] == [delivered[v.name] for v in verdicts] == [1, 4]
        assert delivered["error monitor"] == 1


class TestMergeTimeline:
    def make(self, ts, action):
        return LogEvent(RoutingKey(("t", "n", action, "info", "U", "op", "1", "r")), timestamp=ts)

    def test_sorted_by_timestamp(self):
        events = [self.make(5, "a"), self.make(1, "b"), self.make(3, "c")]
        merged = merge_timeline(events)
        assert [e.timestamp for e in merged] == [1, 3, 5]

    def test_stable_for_equal_timestamps(self):
        stream_a = [self.make(1, "a1"), self.make(2, "a2")]
        stream_b = [self.make(1, "b1"), self.make(2, "b2")]
        merged = merge_timeline(stream_a, stream_b)
        assert [e.action for e in merged] == ["a1", "b1", "a2", "b2"]


class TestLoadTestPlan:
    def write(self, tmp_path, text):
        path = tmp_path / "plan.txt"
        path.write_text(text)
        return path

    def test_parses_cases_with_alternatives_and_waits(self, tmp_path):
        path = self.write(
            tmp_path,
            "# comment\n"
            "\n"
            "test set-actuators level=local sublevel=scenario\n"
            "expect lightContainer.node10.receiveNeuralNetworkCommand.# within 500ticks\n"
            "expect lightContainer.node10.switchLightON.#|lightContainer.node10.switchLightOFF.#\n",
        )
        cases = load_test_plan(path)
        assert len(cases) == 1
        tc = cases[0]
        assert tc.functionName == "set-actuators"
        assert tc.level == "local"
        assert tc.subLevel == "scenario"
        assert len(tc.validationSequence) == 2
        assert tc.validationSequence[0].maxWait == 500
        assert tc.validationSequence[1].maxWait == 500  # default
        assert len(tc.validationSequence[1].alternatives) == 2

    def test_empty_plan_gives_no_cases(self, tmp_path):
        assert load_test_plan(self.write(tmp_path, "\n# nothing\n")) == []

    @pytest.mark.parametrize(
        "text,bad_line",
        [
            ("expect a.# within 5ticks\n", 1),
            ("test t level=local\n", 1),
            ("test t level=local sublevel=scenario\nexpect a..b\n", 2),
            ("test t level=local sublevel=scenario\nexpect a.# within 5sec\n", 2),
            ("test t level=local sublevel=scenario\nwhatever\n", 2),
            ("test t level=municipal sublevel=scenario\nexpect a.#\n", 1),
            ("test t level=local sublevel=scenario\n", 1),
            ("test t level=local sublevel=scenario\nexpect\n", 2),
        ],
    )
    def test_errors_carry_line_numbers(self, tmp_path, text, bad_line):
        path = self.write(tmp_path, text)
        with pytest.raises(ParseError) as err:
            load_test_plan(path)
        assert err.value.line == bad_line
        assert str(err.value).startswith(f"plan {path} line {bad_line}: ")

    def test_an_unknown_header_option_is_named(self, tmp_path):
        # its header also lacks sublevel=, so only the message shows which check refused it
        path = self.write(tmp_path, "# colours\ntest t level=local color=red\nexpect a.#\n")
        with pytest.raises(ParseError) as err:
            load_test_plan(path)
        assert str(err.value) == f"plan {path} line 2: unknown option 'color=red'"

    @pytest.mark.parametrize("duration,message", [
        ("\u00b2ticks", "bad duration '\u00b2ticks', want <N>ticks"),
        ("1000000001ticks", f"maxWait must be at most {MAX_WAIT_TICKS} ticks, got 1000000001"),
        ("9" * 11 + "ticks", f"maxWait must be at most {MAX_WAIT_TICKS} ticks, "
                             "got a number of 11 digits"),
        ("9" * 5000 + "ticks", f"maxWait must be at most {MAX_WAIT_TICKS} ticks, "
                               "got a number of 5000 digits"),
    ], ids=["superscript", "one-over", "eleven-digits", "past-int-digit-limit"])
    def test_durations_are_decimal_and_bounded(self, tmp_path, duration, message):
        text = f"test t level=local sublevel=scenario\nexpect a.#\nexpect b.# within {duration}\n"
        path = self.write(tmp_path, text)
        with pytest.raises(ParseError) as err:
            load_test_plan(path)
        assert err.value.line == 3
        assert str(err.value) == f"plan {path} line 3: {message}"

    def test_durations_up_to_the_bound_parse(self, tmp_path):
        text = ("test t level=local sublevel=scenario\n"
                f"expect a.# within {MAX_WAIT_TICKS}ticks\n"
                f"expect b.# within {'0' * 5000}7ticks\n"
                "expect c.# within \u0663ticks\n")
        (parsed,) = load_test_plan(self.write(tmp_path, text))
        waits = [s.maxWait for s in parsed.validationSequence]
        assert waits == [MAX_WAIT_TICKS, 7, 3]

    def test_deadline_at_the_bound_is_exact(self):
        deadline = MAX_WAIT_TICKS * TICK_US
        for timestamp, status in ((deadline, MachineStatus.PASSED),
                                  (deadline + 1, MachineStatus.FAILED)):
            machine = compile(case(spec("lightContainer.*.switchLightON.#",
                                        maxWait=MAX_WAIT_TICKS)))
            machine.offer(light_event("switchLightON", EventClock(timestamp)))
            assert machine.status is status
        assert machine.finish().reason == f"waited past {MAX_WAIT_TICKS} ticks"
        assert machine.finish().elapsed == MAX_WAIT_TICKS
        with pytest.raises(TestkitError, match="maxWait must be at most"):
            spec("a.#", maxWait=MAX_WAIT_TICKS + 1)

    def test_repeated_test_name_is_rejected_at_its_second_header(self, tmp_path):
        text = ("test a level=local sublevel=scenario\nexpect x.#\n\n"
                "test b level=local sublevel=scenario\nexpect y.#\n"
                "test a level=local sublevel=mas\nexpect z.#\n")
        with pytest.raises(ParseError) as err:
            load_test_plan(self.write(tmp_path, text))
        assert err.value.line == 6
        assert "duplicate test name 'a'" in str(err.value)

    def test_shipped_plan_parses(self):
        from masharness.cli import data_path

        cases = load_test_plan(data_path("default_plan.txt"))
        assert len(cases) == 7
        assert sum(1 for c in cases if c.level == "global") == 1


class TestSubsequenceOracleAgreement:
    ALPHA = ["a", "b", "c", "d"]

    def random_pattern(self, rng):
        segs = [
            rng.choice(self.ALPHA + ["*", "#"])
            for _ in range(rng.randint(1, 3))
        ]
        return ".".join(segs)

    def random_key_event(self, rng, clock):
        """An event of random words, and the key text its words make."""
        agentType, agentName, action, resource = (rng.choice(self.ALPHA) for _ in range(4))
        event = make_log_event(agentType, agentName, action, "info", sourceUnit="U",
                               sourceOperation="op", sourceLine=1, resource=resource, clock=clock)
        return event, f"{agentType}.{agentName}.{action}.info.U.op.1.{resource}"

    def test_run_agrees_with_brute_force_oracle(self):
        rng = random.Random(20240817)
        for _ in range(200):
            clock = EventClock()
            n_specs = rng.randint(1, 4)
            specs = []
            pattern_lists = []
            for _ in range(n_specs):
                alts = [self.random_pattern(rng) for _ in range(rng.randint(1, 2))]
                pattern_lists.append(alts)
                specs.append(spec(*alts))
            machine = compile(case(*specs))
            drawn = [self.random_key_event(rng, clock) for _ in range(rng.randint(0, 12))]
            events = [event for event, _ in drawn]
            verdict = run_over(machine, events)

            keys = [key for _, key in drawn]
            passed, fired = oracle_run_machine(pattern_lists, keys, oracle_matches)
            assert verdict.passed == passed
            if not passed:
                assert verdict.failedState == machine.states[fired]
