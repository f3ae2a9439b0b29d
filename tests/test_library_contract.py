"""The library's constructors on odd values: each call returns or raises its module's own error.

A property test in the style of QuickCheck (Claessen and Hughes, ICFP 2000):
every field of ``WorldConfig`` and ``GAConfig``, ``NetworkTopology``'s
``hiddenCount``, ``EventClock``'s start, ``reserve`` and ``advance_to``,
``TransitionSpec``'s alternatives and ``maxWait``, ``TestCase``'s
``functionName``, and ``declare_queue``'s and ``subscribe``'s name, pattern
list, ``capacity`` and ``deliver`` are drawn from values the CLI never passes.
"""

from dataclasses import fields

from hypothesis import given, settings, strategies as st

from masharness.broker import Broker, BrokerError
from masharness.evolution import GAConfig
from masharness.logmodel import (
    TIMESTAMP_LIMIT,
    EventClock,
    InvalidPattern,
    LogModelError,
    parse_binding_pattern,
)
from masharness.neural import NetworkTopology
from masharness.testkit import TestCase, TestkitError, TransitionSpec
from masharness.world import InvalidConfig, WorldConfig

ODD = st.one_of(
    st.booleans(),
    st.none(),
    st.floats(),  # NaN and both infinities included
    st.sampled_from([float("nan"), float("inf"), float("-inf"), 2.5, -0.0]),
    st.integers(min_value=2 ** 63, max_value=2 ** 256),
    st.integers(min_value=-2 ** 256, max_value=-1),
    st.sampled_from([10 ** 5000, -10 ** 5000]),  # too long for str()
    st.text(max_size=3),
    st.tuples(st.integers(-3, 3)),
)
#: odd values, and ints a call would take
ANY = st.one_of(ODD, st.integers(min_value=0, max_value=2 ** 64))


def returns_or_raises(error, call, *args, **kwargs):
    """``call``'s result, or None when it raised ``error``; any other exception fails the test."""
    try:
        return call(*args, **kwargs)
    except error:
        return None


def config_values(cls):
    """Keyword arguments for ``cls``: each field left out or given an odd value."""
    return st.fixed_dictionaries({}, optional={f.name: ODD for f in fields(cls)})


#: a transition's alternatives: odd values, or a tuple of patterns a call would take
ALTERNATIVES = st.one_of(ODD, st.just((parse_binding_pattern("a.#"),)))

CLOCK_CALLS = st.lists(st.tuples(st.sampled_from(["reserve", "advance_to"]), ANY), max_size=6)


@settings(max_examples=200, deadline=None)
@given(world=config_values(WorldConfig), ga=config_values(GAConfig), hidden=ODD,
       start=ANY, calls=CLOCK_CALLS)
def test_a_call_returns_or_raises_its_module_s_error(world, ga, hidden, start, calls):
    returns_or_raises(InvalidConfig, WorldConfig, **world)
    returns_or_raises(InvalidConfig, GAConfig, **ga)
    returns_or_raises(ValueError, NetworkTopology, hiddenCount=hidden)
    clock = returns_or_raises(LogModelError, EventClock, start)
    if clock is None:
        return
    end = 0  # one past the last timestamp handed out
    for name, value in calls:
        first = returns_or_raises(LogModelError, getattr(clock, name), value)
        count = value if name == "reserve" else 0
        drawn = returns_or_raises(LogModelError, clock.next_timestamp)
        # the clock never goes back, and every timestamp is an int below 2**63
        for ts, n in ((first, count), (drawn, 1)):
            if ts is not None and n:
                assert type(ts) is int and end <= ts and ts + n <= TIMESTAMP_LIMIT
                end = ts + n


@settings(max_examples=200, deadline=None)
@given(alternatives=ALTERNATIVES, wait=ANY, name=st.one_of(ODD, st.just("n")), capacity=ANY,
       queue=st.one_of(ODD, st.just("q")), patterns=st.one_of(ODD, st.just(["#"])),
       deliver=st.one_of(ODD, st.just(lambda event: None)))
def test_a_plan_or_queue_call_returns_or_raises_its_module_s_error(
        alternatives, wait, name, capacity, queue, patterns, deliver):
    transition = returns_or_raises(TestkitError, TransitionSpec, alternatives, wait)
    if transition is not None:
        assert type(transition.maxWait) is int and transition.maxWait >= 1
        returns_or_raises(TestkitError, TestCase, name, "local", "scenario", (transition,))
    handle = returns_or_raises(BrokerError, Broker().declare_queue, "q", ["#"], capacity)
    assert handle is None or type(capacity) is int and capacity >= 1
    queues, subscribers = Broker(), Broker()
    handle = returns_or_raises((BrokerError, InvalidPattern), queues.declare_queue, queue, patterns)
    assert handle is None or isinstance(queue, str)
    try:
        subscribers.subscribe(queue, patterns, deliver)
    except (BrokerError, InvalidPattern):
        pass
    else:
        assert callable(deliver) and isinstance(queue, str)
    # whatever was bound, a publish routes without an error
    for broker in (queues, subscribers):
        assert broker.publisher("A", "a1").log(
            "act", sourceUnit="U", sourceOperation="o", sourceLine=1, resource="r") in (0, 1)
