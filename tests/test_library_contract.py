"""The library on odd values: each call returns or raises a ``MasharnessError``.

A property test in the style of QuickCheck (Claessen and Hughes, ICFP 2000):
every field of ``WorldConfig`` and ``GAConfig``, ``NetworkTopology``'s
``hiddenCount``, ``EventClock``'s start, ``reserve`` and ``advance_to``,
``TransitionSpec``'s alternatives and ``maxWait``, ``TestCase``'s
``functionName``, and ``declare_queue``'s and ``subscribe``'s name, pattern
list, ``capacity`` and ``deliver`` are drawn from values the CLI never passes.
So are the arguments of every export that takes input from outside the
program: the fault and pattern parsers, ``matches``, ``decode``, the file
loaders, ``save_genome`` and a broker's tap, whose files hold drawn bytes.

The per-tick functions (``sense``, ``actuate``, ``move_people``,
``step_world``) are left out: they take the world the library built, and a
check there would cost every tick.
"""

import os
import tempfile
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from masharness import (
    Broker,
    MasharnessError,
    decode,
    load_genome,
    load_ga_config,
    load_test_plan,
    load_world_config,
    matches,
    parse_binding_pattern,
    parse_fault_spec,
    save_genome,
)
from masharness.broker import BrokerError
from masharness.evolution import GAConfig, MetricsOutOfRange, UnscoredGenome
from masharness.logmodel import (
    TIMESTAMP_LIMIT,
    EventClock,
    LogModelError,
    RoutingKey,
    load_tap,
)
from masharness.neural import GenomeShapeMismatch, NetworkTopology
from masharness.testkit import TestCase, TestkitError, TransitionSpec
from masharness.world import WorldConfig, WorldError

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
    returns_or_raises(MasharnessError, WorldConfig, **world)
    returns_or_raises(MasharnessError, GAConfig, **ga)
    returns_or_raises(MasharnessError, NetworkTopology, hiddenCount=hidden)
    clock = returns_or_raises(MasharnessError, EventClock, start)
    if clock is None:
        return
    end = 0  # one past the last timestamp handed out
    for name, value in calls:
        first = returns_or_raises(MasharnessError, getattr(clock, name), value)
        count = value if name == "reserve" else 0
        drawn = returns_or_raises(MasharnessError, clock.next_timestamp)
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
    transition = returns_or_raises(MasharnessError, TransitionSpec, alternatives, wait)
    if transition is not None:
        assert type(transition.maxWait) is int and transition.maxWait >= 1
        returns_or_raises(MasharnessError, TestCase, name, "local", "scenario", (transition,))
    handle = returns_or_raises(MasharnessError, Broker().declare_queue, "q", ["#"], capacity)
    assert handle is None or type(capacity) is int and capacity >= 1
    queues, subscribers = Broker(), Broker()
    handle = returns_or_raises(MasharnessError, queues.declare_queue, queue, patterns)
    assert handle is None or isinstance(queue, str)
    try:
        subscribers.subscribe(queue, patterns, deliver)
    except MasharnessError:
        pass
    else:
        assert callable(deliver) and isinstance(queue, str)
    # whatever was bound, a publish routes without an error
    for broker in (queues, subscribers):
        assert broker.publisher("A", "a1").log(
            "act", sourceUnit="U", sourceOperation="o", sourceLine=1, resource="r") in (0, 1)


#: an odd value that is not a file name; a bool would name stdin or stdout, which
#: tests/test_cli.py's fresh processes check instead
NOT_A_PATH = ODD.filter(lambda value: not isinstance(value, (str, bool)))

#: lines of a world or GA config, a genome, a plan or a tap, well formed or not
LINES = st.one_of(
    st.sampled_from([
        "", "# note", "gridWidth=3", "populationSize = 2", "maxTicks=1e9", "numPeople=-1",
        "3 4 2", "3 0 2", "3 4", "0.5", "nan", "1e400",
        "test t level=local sublevel=scenario", "test t level=x sublevel=y",
        "expect a.#|*.b within 3ticks", "expect a..b", "expect a.b within 0ticks",
        "a.b.c.info.U.o.1.r\t5\tm", "a.b.c.info.U.o.1.r\t99999999999999999999\tm",
    ]),
    st.text(max_size=12),
)
#: a file's bytes: drawn lines (a lone surrogate makes them not UTF-8), or any bytes
CONTENTS = st.one_of(
    st.lists(LINES, max_size=8).map(lambda lines: "\n".join(lines).encode("utf-8", "surrogatepass")),
    st.binary(max_size=32),
)
GENES = st.one_of(ODD, st.lists(st.one_of(st.floats(), ODD), min_size=26, max_size=26),
                  st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=26,
                           max_size=26))
TOPOLOGY = st.one_of(st.none(), st.just(NetworkTopology()), ODD)
PATTERN = st.one_of(ODD, st.sampled_from(["a.#", "*.b", "a..b", "#x"]))
KEY = st.one_of(ODD, st.sampled_from(["a.b", "a b", "a.*"]), st.just(RoutingKey(("a", "b"))))
LOADERS = [load_world_config, load_ga_config, load_genome, load_test_plan, load_tap]


@settings(max_examples=200, deadline=None)
@given(contents=CONTENTS, odd_path=NOT_A_PATH, on_disk=st.booleans(), spec=ODD,
       pattern=PATTERN, key=KEY, genes=GENES, topology=TOPOLOGY)
def test_an_input_from_outside_returns_or_raises_the_root_error(
        contents, odd_path, on_disk, spec, pattern, key, genes, topology):
    returns_or_raises(MasharnessError, parse_fault_spec, spec)
    returns_or_raises(MasharnessError, parse_binding_pattern, spec)
    assert returns_or_raises(MasharnessError, matches, pattern, key) in (True, False, None)
    returns_or_raises(MasharnessError, decode, genes, topology)
    with tempfile.TemporaryDirectory() as folder:
        path = os.path.join(folder, "input") if on_disk else odd_path
        if on_disk:
            with open(path, "wb") as fh:
                fh.write(contents)
        loaded = [returns_or_raises(MasharnessError, load, path) for load in LOADERS]
        broker = returns_or_raises(MasharnessError, Broker, tap=path)
        if broker is not None:
            broker.close()
        if not on_disk:  # an odd value names no file; a false one is no tap
            assert loaded == [None] * len(LOADERS) and (broker is None or not path)
        try:
            save_genome(path, genes, topology)
        except MasharnessError:
            return
        # what save_genome accepts, it writes as load_genome reads it back
        expected = tuple(np.asarray(genes, dtype=float).tolist())
        assert on_disk and load_genome(path) == (topology or NetworkTopology(), expected)


@pytest.mark.parametrize("path", ["a\0b", b"\0"])
@pytest.mark.parametrize("call", [*LOADERS, lambda path: Broker(tap=path),
                                  lambda path: save_genome(path, [0.0] * 26)],
                         ids=[*(load.__name__ for load in LOADERS), "tap", "save_genome"])
def test_a_path_with_a_nul_is_refused(call, path):
    with pytest.raises(MasharnessError, match="path must be a str, bytes or os.PathLike without NUL"):
        call(path)


@pytest.mark.parametrize("family", [LogModelError, BrokerError, TestkitError, WorldError,
                                    GenomeShapeMismatch])
def test_each_error_family_derives_from_the_root(family):
    assert issubclass(family, MasharnessError)


@pytest.mark.parametrize("error", [LogModelError, GenomeShapeMismatch, UnscoredGenome])
def test_a_refusal_that_was_a_value_error_still_is_one(error):
    assert issubclass(error, MasharnessError) and issubclass(error, ValueError)


def test_a_metric_out_of_range_is_a_bug_not_a_refusal():
    assert issubclass(MetricsOutOfRange, ValueError)
    assert not issubclass(MetricsOutOfRange, MasharnessError)
