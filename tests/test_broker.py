import contextlib
import dataclasses
import functools
import itertools
import sys
import tempfile
import threading
import time

import pytest
from hypothesis import given, settings, strategies as st

from masharness import broker as broker_module, evolution, world as world_module
from masharness.broker import (
    ROUTE_KEYS,
    Broker,
    DuplicateQueue,
    BrokerError,
    QueueClosed,
    QueueStats,
    _match,
    matches,
)
from masharness.evolution import _OBSERVER_SITES
from masharness.logmodel import (
    MEMO_SIZE,
    TICK_US,
    BoundedMemo,
    EventClock,
    InvalidPattern,
    InvalidTag,
    LogEvent,
    LogModelError,
    RoutingKey,
    _keys,
    _valid_words,
    event_key,
    keyed_event,
    load_tap,
    make_log_event,
    parse_binding_pattern,
    routing_key,
)

from oracles import oracle_matches


def event(action="ping", agentName="node1", typeLog="info", *, clock, message=""):
    return make_log_event(
        "lightContainer",
        agentName,
        action,
        typeLog,
        sourceUnit="Light",
        sourceOperation="act",
        sourceLine=7,
        resource="lightActuator",
        message=message,
        clock=clock,
    )


class TestMatches:
    @pytest.mark.parametrize(
        "pattern,key,expected",
        [
            ("a.b.c", "a.b.c", True),
            ("a.b.c", "a.b.x", False),
            ("*.b.c", "a.b.c", True),
            ("a.*.c", "a.b.c", True),
            ("a.*", "a.b.c", False),  # * is exactly one word
            ("a.#", "a.b.c", True),
            ("a.#", "a", True),  # # matches zero words
            ("#", "november.11.device01.error", True),
            ("#.error", "november.11.device01.error", True),
            ("a.#.c", "a.c", True),
            ("a.#.c", "a.b.b.c", True),
            ("a.*.b", "a.b", False),
            ("Observer.*.*.error.#", "Observer.obs1.act.error.U.op.1.r", True),
            ("Observer.*.*.error.#", "Observer.obs1.act.info.U.op.1.r", False),
        ],
    )
    def test_wildcard_semantics(self, pattern, key, expected):
        assert matches(pattern, key) is expected

    def test_string_and_parsed_inputs_agree(self):
        ev = event(action="connectToSystem", clock=EventClock())
        from masharness.logmodel import parse_binding_pattern, routing_key

        pattern = parse_binding_pattern("lightContainer.#")
        assert matches(pattern, routing_key(ev))
        assert matches("lightContainer.#", ev)

    @given(
        st.lists(
            st.sampled_from(["a", "b", "c", "*", "#"]), min_size=1, max_size=5
        ),
        st.lists(st.sampled_from(["a", "b", "c"]), min_size=1, max_size=5),
    )
    @settings(max_examples=300)
    def test_agrees_with_regex_oracle(self, pattern_segs, key_segs):
        pattern = ".".join(pattern_segs)
        key = ".".join(key_segs)
        assert matches(pattern, key) == oracle_matches(pattern, key)

    @pytest.mark.parametrize("pattern", [5, None, ("a", "#"), b"a.#"])
    def test_a_pattern_of_another_type_is_an_invalid_pattern(self, pattern):
        with pytest.raises(InvalidPattern, match="^pattern must be a BindingPattern or str, got "):
            matches(pattern, "a.b")

    @pytest.mark.parametrize("key", [5, None, ("a", "b"), b"a.b"])
    def test_a_key_of_another_type_is_an_invalid_tag(self, key):
        with pytest.raises(InvalidTag, match="^key must be a RoutingKey, LogEvent or str, got "):
            matches("a.#", key)


class TestDeclareQueue:
    def test_duplicate_name_is_rejected(self):
        broker = Broker()
        broker.declare_queue("q", ["#"])
        with pytest.raises(DuplicateQueue):
            broker.declare_queue("q", ["a.b"])

    def test_empty_binding_list_is_rejected(self):
        with pytest.raises(InvalidPattern):
            Broker().declare_queue("q", [])

    def test_malformed_pattern_is_rejected(self):
        with pytest.raises(InvalidPattern):
            Broker().declare_queue("q", ["a..b"])

    def test_a_queue_needs_room_for_an_event(self):
        broker = Broker()
        with pytest.raises(BrokerError, match="^capacity must be positive, got 0$"):
            broker.declare_queue("q", ["#"], capacity=0)
        assert broker.stats().queues == {}

    @pytest.mark.parametrize("capacity,shown", [
        ("10", "'10'"), (None, "None"), (2.5, "2.5"), (True, "True"),
    ])
    def test_a_capacity_that_is_not_an_int_is_refused(self, capacity, shown):
        broker = Broker()
        with pytest.raises(BrokerError, match=f"^capacity must be an int, got {shown}$"):
            broker.declare_queue("q", ["#"], capacity=capacity)
        assert broker.stats().queues == {}

    def test_a_capacity_too_long_to_print_is_shown_by_its_size(self):
        with pytest.raises(BrokerError, match="^capacity must be positive, got an int of 16610 bits$"):
            Broker().declare_queue("q", ["#"], capacity=-10 ** 5000)

    @pytest.mark.parametrize("name,shown", [(5, "5"), (["u"], r"\['u'\]"), (None, "None")])
    def test_a_name_that_is_not_a_str_is_refused(self, name, shown):
        broker = Broker()
        with pytest.raises(BrokerError, match=f"^queue name must be a str, got {shown}$"):
            broker.declare_queue(name, ["#"])
        assert broker.stats().queues == {}

    @pytest.mark.parametrize("patterns", ["ab", "a.#", None, 5])
    def test_a_pattern_list_that_is_a_str_or_not_iterable_is_refused(self, patterns):
        broker = Broker()
        with pytest.raises(InvalidPattern, match="^binding patterns must be a list, got "):
            broker.declare_queue("x", patterns)
        assert broker.stats().queues == {}


class TestPublish:
    def test_receipt_counts_matching_queues(self):
        broker = Broker()
        broker.declare_queue("all", ["#"])
        broker.declare_queue("pings", ["lightContainer.*.ping.#"])
        broker.declare_queue("other", ["MANAGER.#"])
        assert broker.publish(event(clock=broker.clock)) == 2

    def test_zero_matches_is_legal(self):
        broker = Broker()
        broker.declare_queue("other", ["MANAGER.#"])
        assert broker.publish(event(clock=broker.clock)) == 0
        assert broker.stats().published == 1

    def test_sequence_numbers_increase(self):
        broker = Broker()
        seqs = []
        for _ in range(5):
            broker.publish(event(clock=broker.clock))
            seqs.append(broker.stats().published)
        assert seqs == [1, 2, 3, 4, 5]

    def test_event_enqueued_once_despite_multiple_matching_bindings(self):
        broker = Broker()
        q = broker.declare_queue("multi", ["#", "lightContainer.#", "*.node1.ping.#"])
        broker.publish(event(clock=broker.clock))
        assert q.consume(0.1) is not None
        assert q.consume(0.0) is None

    def test_fifo_order_preserved(self):
        broker = Broker()
        q = broker.declare_queue("q", ["#"])
        sent = [event(action=f"a{i}", clock=broker.clock) for i in range(100)]
        for ev in sent:
            broker.publish(ev)
        got = [q.consume(0.1) for _ in range(100)]
        assert got == sent

    def test_overflow_drops_oldest(self):
        broker = Broker()
        q = broker.declare_queue("small", ["#"], capacity=3)
        sent = [event(action=f"a{i}", clock=broker.clock) for i in range(5)]
        for ev in sent:
            broker.publish(ev)
        stats = broker.stats().queues["small"]
        assert stats.dropped == 2
        assert [q.consume(0.0) for _ in range(3)] == sent[2:]

    def test_publish_after_close_raises(self):
        broker = Broker()
        broker.close()
        with pytest.raises(QueueClosed):
            broker.publish(event(clock=broker.clock))


class TestConsume:
    def test_timeout_returns_none(self):
        broker = Broker()
        q = broker.declare_queue("q", ["#"])
        assert q.consume(0.01) is None

    def test_blocking_consumer_woken_by_publish(self):
        broker = Broker()
        q = broker.declare_queue("q", ["#"])
        got = []

        def consumer():
            got.append(q.consume(5.0))

        thread = threading.Thread(target=consumer)
        thread.start()
        ev = event(clock=broker.clock)
        broker.publish(ev)
        thread.join(timeout=5)
        assert got == [ev]

    def test_close_drains_then_raises(self):
        broker = Broker()
        q = broker.declare_queue("q", ["#"])
        ev = event(clock=broker.clock)
        broker.publish(ev)
        broker.close()
        assert q.consume(0.0) == ev
        with pytest.raises(QueueClosed):
            q.consume(0.0)

    def test_close_wakes_blocked_consumer(self):
        broker = Broker()
        q = broker.declare_queue("q", ["#"])
        outcome = []

        def consumer():
            try:
                q.consume(None)
            except QueueClosed:
                outcome.append("closed")

        thread = threading.Thread(target=consumer)
        thread.start()
        broker.close()
        thread.join(timeout=5)
        assert outcome == ["closed"]

    @pytest.mark.parametrize("wait", [float("nan"), float("inf"), 1e300, 10 ** 400,
                                      threading.TIMEOUT_MAX * 2, "1", True, b"1", [1]],
                             ids=["nan", "inf", "1e300", "10**400", "2*TIMEOUT_MAX", "str",
                                  "True", "bytes", "list"])
    def test_a_wait_it_cannot_wait_on_is_refused(self, wait):
        # in a daemon thread, so that a call that waits forever fails the test, not the run
        broker = Broker()
        q = broker.declare_queue("q", ["#"])
        outcome = []

        def consumer():
            try:
                outcome.append(q.consume(wait))
            except Exception as exc:
                outcome.append(exc)

        thread = threading.Thread(target=consumer, daemon=True)
        try:
            thread.start()
            thread.join(timeout=5)
            assert len(outcome) == 1 and type(outcome[0]) is BrokerError
            assert "maxWait must be None or at most" in str(outcome[0])
        finally:
            broker.close()  # wakes a consumer still waiting
            thread.join(timeout=5)

    @pytest.mark.parametrize("wait", [0, 0.0, -0.0, -1, -1e300, -10 ** 400, float("-inf")],
                             ids=["0", "0.0", "-0.0", "-1", "-1e300", "-10**400", "-inf"])
    def test_a_wait_of_zero_or_below_returns_none_on_an_empty_queue(self, wait):
        broker = Broker()
        q = broker.declare_queue("q", ["#"])
        assert q.consume(wait) is None
        ev = event(clock=broker.clock)
        broker.publish(ev)
        assert q.consume(wait) == ev

    def test_a_handle_of_another_broker_is_refused(self):
        other = Broker().declare_queue("q", ["#"])
        broker = Broker()
        broker.declare_queue("q", ["#"])
        for handle in (other, "q", None):
            with pytest.raises(BrokerError, match="handle must be a queue of this broker"):
                broker.consume(handle, 0)


class TestStats:
    def test_counter_identity_per_queue(self):
        broker = Broker()
        q = broker.declare_queue("q", ["#"], capacity=4)
        for i in range(10):
            broker.publish(event(action=f"a{i}", clock=broker.clock))
        q.consume(0.0)
        q.consume(0.0)
        st_ = broker.stats().queues["q"]
        assert st_.matched == st_.delivered + st_.dropped + st_.buffered
        assert st_.delivered == 2

    def test_interleaved_publish_consume_preserves_identity(self):
        broker = Broker()
        q1 = broker.declare_queue("q1", ["lightContainer.#"], capacity=16)
        q2 = broker.declare_queue("q2", ["*.node2.#"], capacity=16)
        import random

        rng = random.Random(7)
        consumed = 0
        for i in range(1000):
            name = f"node{rng.randrange(1, 4)}"
            broker.publish(event(agentName=name, action=f"a{i}", clock=broker.clock))
            if rng.random() < 0.5:
                if q1.consume(0.0) is not None:
                    consumed += 1
                if q2.consume(0.0) is not None:
                    consumed += 1
        stats = broker.stats()
        for qs in stats.queues.values():
            assert qs.matched == qs.delivered + qs.dropped + qs.buffered
        assert stats.published == 1000


class TestRouteMemo:
    def test_queue_declared_after_repeats_receives_the_next_publish(self):
        broker = Broker()
        broker.declare_queue("early", ["lightContainer.#"], capacity=8)
        for _ in range(20):
            broker.publish(event(clock=broker.clock))
        late = broker.declare_queue("late", ["*.node1.ping.#"])
        assert broker.publish(event(clock=broker.clock, message="after")) == 2
        assert late.consume(0.0).message == "after"
        assert late.consume(0.0) is None
        stats = broker.stats()
        assert stats.queues["early"].matched == 21
        for qs in stats.queues.values():
            assert qs.matched == qs.delivered + qs.dropped + qs.buffered

    def test_memos_stay_within_their_bound(self, monkeypatch):
        # a small route bound, and a fresh shared table made with it, so that
        # a few thousand keys overflow the broker's shared table
        monkeypatch.setattr(broker_module, "ROUTE_KEYS", 64)
        monkeypatch.setattr(broker_module, "_route_tables", BoundedMemo(64))
        broker = Broker()
        broker.declare_queue("q", ["*.node1.#"], capacity=16)
        for i in range(MEMO_SIZE + 100):
            broker.publish(event(action=f"bound{i}", clock=broker.clock))
            assert broker._keys is broker_module._route_tables[(broker._targets[0].bindings,)]
            assert len(broker._keys) <= broker_module.ROUTE_KEYS
            assert len(broker._classes) <= MEMO_SIZE
            assert len(_keys) <= MEMO_SIZE
            assert len(_valid_words) <= MEMO_SIZE
        assert broker.publish(event(action="bound0", clock=broker.clock)) == 1
        qs = broker.stats().queues["q"]
        assert qs.matched == MEMO_SIZE + 101
        assert qs.matched == qs.delivered + qs.dropped + qs.buffered

    def test_class_lists_start_over_at_their_bound(self, monkeypatch):
        # two classes at most: a class new past them empties the class lists and the
        # routes memoised to them, so a retirement still reaches every route in use
        monkeypatch.setattr(broker_module, "MEMO_SIZE", 2)
        monkeypatch.setattr(broker_module, "_route_tables", BoundedMemo(64))
        broker = Broker()
        got = {"one": [], "two": []}

        def one(event):  # done after its third event
            got["one"].append(event.message)
            return len(got["one"]) == 3

        broker.subscribe("one", ["*.n1.#", "*.n3.#"], one)
        broker.subscribe("two", ["*.n2.#", "*.n3.#"], lambda e: got["two"].append(e.message))
        keys = {name: event_key("a", name, "x", sourceUnit="U", sourceOperation="op",
                                sourceLine=1, resource="r") for name in ("n0", "n1", "n2", "n3")}
        # classes: n0 (), n1 (one), n2 (two), n3 (one, two)
        sent = ["n0", "n1", "n2", "n3", "n1", "n3", "n1", "n3", "n2", "n1"]
        for name in sent:
            broker._publish_batch([(keys[name], name)])
            assert len(broker._classes) <= 2
        assert got == {"one": ["n1", "n3", "n1"], "two": ["n2", "n3", "n3", "n3", "n2"]}
        stats = broker.stats()
        assert stats.published == len(sent)
        assert (stats.queues["one"].delivered, stats.queues["two"].delivered) == (3, 5)

    def test_route_memos_hold_every_key_of_the_largest_grid(self):
        sites = world_module._LOG_SITES
        per_light = len(sites[("lightContainer", world_module._LIGHT)])
        fixed = sum(len(actions) for (_, agent), actions in sites.items()
                    if agent is not world_module._LIGHT)
        assert (per_light, fixed, len(_OBSERVER_SITES)) == (9, 8, 13)
        assert ROUTE_KEYS >= per_light * world_module.MAX_LIGHTS + fixed + len(_OBSERVER_SITES)


class Target:
    """A stand-in target for the scan: a name and its bindings."""

    def __init__(self, name, patterns):
        self.name = name
        self.bindings = tuple(parse_binding_pattern(p) for p in patterns)


def scan_route(targets, key):
    """Routing by a scan of every binding of every target."""
    return tuple(t for t in targets if any(_match(b.segments, key) for b in t.bindings))


ROUTE_PATTERNS = st.lists(st.sampled_from(["a", "b", "c", "*", "#"]), min_size=1, max_size=8)


class TestRoutesEqualScan:
    """A broker's routes equal a scan of every binding, however the patterns are written."""

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(st.booleans(), st.lists(ROUTE_PATTERNS, min_size=1, max_size=3)),
                    min_size=1, max_size=8),
           st.lists(st.sampled_from(["a", "b", "c"]), min_size=8, max_size=8))
    def test_broker_delivers_in_declaration_order(self, bindings, words):
        """Queues and subscribers mixed: each matching one gets the event once."""
        broker = Broker()
        got = []
        targets = []
        for i, (is_queue, pats) in enumerate(bindings):
            patterns = [".".join(p) for p in pats]
            targets.append(Target(f"t{i}", patterns))
            if is_queue:
                broker.declare_queue(f"t{i}", patterns)
            else:
                broker.subscribe(f"t{i}", patterns, lambda ev, name=f"t{i}": got.append(name))
        words[3] = "info"
        ev = make_log_event(*words[:4], sourceUnit=words[4], sourceOperation=words[5],
                            sourceLine=1, resource=words[7], clock=broker.clock)
        expected = scan_route(targets, routing_key(ev).segments)
        assert broker.publish(ev) == len(expected)
        assert got == [t.name for t, (is_queue, _) in zip(targets, bindings)
                       if t in expected and not is_queue]
        matched = {name for name, qs in broker.stats().queues.items() if qs.matched}
        assert matched == {t.name for t in expected}

    @pytest.mark.parametrize("pattern,expected", [
        (".".join(["#"] * 127), 1),
        (".".join(["#", "a"] * 63 + ["#"]), 0),
    ])
    def test_pathological_patterns_route_quickly(self, pattern, expected):
        broker = Broker()
        broker.subscribe("s", [pattern], lambda ev: None)
        ev = make_log_event("a", "a", "a", sourceUnit="a", sourceOperation="a",
                            sourceLine=1, resource="a", clock=broker.clock)
        start = time.perf_counter()
        matched = broker.publish(ev)
        assert time.perf_counter() - start < 0.2
        assert matched == expected
        # the longest key a pattern can face, 127 words, all of them ``a``, is a route miss
        key = RoutingKey(("a",) * 127)
        start = time.perf_counter()
        with broker._lock:
            route = broker._route(key)
        assert time.perf_counter() - start < 0.5
        assert [q.name for q in route] == ["s"]

    def test_binding_declared_after_repeats_is_routed_on_the_next_publish(self):
        broker = Broker()
        got = []
        broker.subscribe("first", ["*.node1.#"], lambda ev: got.append("first"))
        for _ in range(20):
            broker.publish(event(clock=broker.clock))
        assert got == ["first"] * 20
        got.clear()
        broker.subscribe("second", ["#.lightActuator"], lambda ev: got.append("second"))
        broker.subscribe("third", ["*.node2.#"], lambda ev: got.append("third"))
        assert broker.publish(event(clock=broker.clock)) == 2
        assert broker.publish(event(agentName="node2", clock=broker.clock)) == 2
        assert got == ["first", "second", "second", "third"]


BATCH_WORDS = ["a", "b"]
#: interned keys over a few words, so that bindings match some and miss others
BATCH_KEYS = st.builds(
    lambda words, typeLog, line: event_key(*words[:3], typeLog, sourceUnit=words[3],
                                           sourceOperation=words[4], sourceLine=line,
                                           resource=words[5]),
    st.lists(st.sampled_from(BATCH_WORDS), min_size=6, max_size=6),
    st.sampled_from(["info", "error"]), st.integers(0, 1))
BATCH_ITEMS = st.lists(st.tuples(BATCH_KEYS, st.sampled_from(["", "m", "two words"])),
                       max_size=12)
#: (queue?, patterns, capacity) per binding
BATCH_BINDINGS = st.lists(
    st.tuples(st.booleans(),
              st.lists(st.lists(st.sampled_from([*BATCH_WORDS, "info", "*", "#"]),
                                min_size=1, max_size=8).map(".".join),
                       min_size=1, max_size=2),
              st.integers(1, 3)),
    min_size=1, max_size=4)


class Boom(Exception):
    pass


def publish_items(bindings, items, batched, *, start=0, raise_at=None, closed=False,
                  retire_at=(), again=(), tapped=True):
    """Publish ``items`` in one batch or one event at a time; returns what came out.

    Subscriber ``t<i>`` returns True at its ``retire_at[i]``-th event where
    that is given, and None otherwise.  For each floor in ``again`` the
    clock is raised to it and ``items`` published once more, a batch through
    ``_publish_again`` with one plan kept across floors.  With ``tapped``
    false the broker has no tap, and ``tap`` comes out as None.
    """
    with tempfile.TemporaryDirectory() as tmp:
        tap = f"{tmp}/tap.log"
        broker = Broker(clock=EventClock(start), tap=tap if tapped else None)
        delivered = []
        handles = []

        def deliver(name, event, done_at=None):
            delivered.append((name, event, event.key))
            if done_at is not None:
                return sum(n == name for n, _, _ in delivered) == done_at

        def boom(event):
            deliver("boom", event)
            if sum(name == "boom" for name, _, _ in delivered) == raise_at:
                raise Boom()

        for i, (is_queue, patterns, capacity) in enumerate(bindings):
            if is_queue:
                handles.append(broker.declare_queue(f"t{i}", patterns, capacity=capacity))
            else:
                done_at = retire_at[i] if i < len(retire_at) else None
                broker.subscribe(f"t{i}", patterns,
                                 functools.partial(deliver, f"t{i}", done_at=done_at))
        if raise_at is not None:
            # every event reaches this subscriber last, and the raise_at-th one raises
            broker.subscribe("boom", ["#"], boom)
        if closed:
            broker.close()
        raised = None
        plan = []
        try:
            for floor in (None, *again):
                if floor is not None:
                    broker.clock.advance_to(floor)
                if batched and floor is None:
                    broker._publish_batch(items)
                elif batched:
                    broker._publish_again(items, plan)
                else:
                    for key, message in items:
                        broker.publish(keyed_event(key, broker.clock.next_timestamp(), message))
        except (Boom, QueueClosed) as exc:
            raised = exc
        stats = broker.stats()
        queued = [[(e, e.key) for e in iter(lambda h=h: h.consume(0.0), None)]
                  for h in handles] if not closed else []
        broker.close()
        tap_bytes = None
        if tapped:
            with open(tap, "rb") as fh:
                tap_bytes = fh.read()
        return dict(tap=tap_bytes, stats=stats, delivered=delivered, queued=queued,
                    raised=type(raised), next_timestamp=broker.clock.next_timestamp())


class TestPublishBatch:
    """A batch is indistinguishable from publishing its events one by one."""

    @settings(max_examples=100, deadline=None)
    @given(BATCH_BINDINGS, BATCH_ITEMS, st.integers(0, 3))
    def test_equals_one_publish_per_event(self, bindings, items, start):
        batched = publish_items(bindings, items, True, start=start)
        single = publish_items(bindings, items, False, start=start)
        assert batched == single
        assert batched["raised"] is type(None)
        assert batched["next_timestamp"] == start + len(items)

    @settings(max_examples=40, deadline=None)
    @given(BATCH_BINDINGS, BATCH_ITEMS.filter(bool), st.integers(1, 12))
    def test_a_raising_subscriber_keeps_the_tap_lines_up_to_its_event(self, bindings, items,
                                                                       raise_at):
        raise_at = min(raise_at, len(items))
        batched = publish_items(bindings, items, True, raise_at=raise_at)
        single = publish_items(bindings, items, False, raise_at=raise_at)
        assert batched["raised"] is Boom
        for field in ("tap", "stats", "delivered", "queued", "raised"):
            assert batched[field] == single[field]
        assert batched["tap"].count(b"\n") == raise_at

    @settings(max_examples=20, deadline=None)
    @given(BATCH_BINDINGS, BATCH_ITEMS.filter(bool))
    def test_a_closed_broker_writes_nothing(self, bindings, items):
        batched = publish_items(bindings, items, True, start=5, closed=True)
        assert batched["raised"] is QueueClosed
        assert (batched["tap"], batched["stats"].published) == (b"", 0)
        assert batched["delivered"] == []
        assert batched["next_timestamp"] == 5

    def test_an_empty_batch_publishes_nothing(self):
        broker = Broker()
        broker.subscribe("s", ["#"], lambda event: None)
        broker._publish_batch([])
        assert broker.stats().published == 0
        assert broker.clock.next_timestamp() == 0

    @pytest.mark.parametrize("batched", [True, False], ids=["batch", "one-by-one"])
    def test_counts_and_delivers_only_the_tap_lines_it_wrote(self, tmp_path, batched):
        # a lone surrogate does not encode, so its tap line cannot be written
        tap = tmp_path / "tap.log"
        broker = Broker(tap=str(tap))
        got = []
        broker.subscribe("all", ["#"], got.append)
        key = event_key("lightContainer", "node1", "ping", sourceUnit="Light",
                        sourceOperation="act", sourceLine=7, resource="lightActuator")
        items = [(key, "ok"), (key, "x\ud800"), (key, "after")]
        with pytest.raises(UnicodeEncodeError):
            if batched:
                broker._publish_batch(items)
            else:
                for _, message in items:
                    broker.publish(keyed_event(key, broker.clock.next_timestamp(), message))
        broker.close()
        assert [e.message for e in load_tap(tap)] == ["ok"]
        assert [e.message for e in got] == ["ok"]
        assert broker.stats().published == 1


#: clock floors to publish a batch again at: tick 0, where stamps are not padded,
#: offsets 0-3 of ticks 1-3, and the last offsets of a tick, where a batch of
#: up to 12 events carries into the next tick's digits
AGAIN_FLOORS = st.lists(
    st.builds(lambda tick, offset: tick * TICK_US + offset, st.integers(0, 3),
              st.one_of(st.integers(0, 3), st.integers(TICK_US - 12, TICK_US - 1))),
    min_size=1, max_size=4)


class TestNoTap:
    """A broker with no tap formats no line and counts, routes and delivers as a tapped one."""

    @settings(max_examples=60, deadline=None)
    @given(BATCH_BINDINGS, BATCH_ITEMS, st.one_of(st.none(), st.integers(1, 12)),
           st.booleans(), st.lists(st.integers(1, 3).map(TICK_US.__mul__), max_size=2))
    def test_equals_a_tapped_broker(self, bindings, items, raise_at, batched, again):
        tapped = publish_items(bindings, items, batched, raise_at=raise_at, again=again)
        untapped = publish_items(bindings, items, batched, raise_at=raise_at, again=again,
                                 tapped=False)
        assert untapped["tap"] is None
        for field in ("stats", "delivered", "queued", "raised", "next_timestamp"):
            assert untapped[field] == tapped[field]
        # with a raise, published counts the lines up to and including its event
        assert tapped["stats"].published == tapped["tap"].count(b"\n")

    def test_formats_no_line(self):
        class Message(str):
            def __format__(self, spec):
                raise AssertionError("formatted a tap line")

        key = event_key("lightContainer", "node1", "ping", sourceUnit="Light",
                        sourceOperation="act", sourceLine=7, resource="lightActuator")
        broker = Broker()
        broker._publish_batch([(key, Message("a")), (key, Message("b"))])
        broker.clock.advance_to(TICK_US)
        broker._publish_again([(key, Message("a"))], [])
        assert broker.stats().published == 3


class TestPublishAgain:
    """A batch published again through its plan is the batch published through _publish_batch."""

    @settings(max_examples=100, deadline=None)
    @given(BATCH_BINDINGS, BATCH_ITEMS, AGAIN_FLOORS, st.one_of(st.none(), st.integers(1, 40)),
           st.booleans(), st.lists(st.one_of(st.none(), st.integers(1, 20)), max_size=4))
    def test_equals_one_publish_per_event(self, bindings, items, floors, raise_at, tapped,
                                          retire_at):
        kwargs = dict(again=floors, raise_at=raise_at, tapped=tapped, retire_at=retire_at)
        again = publish_items(bindings, items, True, **kwargs)
        single = publish_items(bindings, items, False, **kwargs)
        if again["raised"] is Boom:  # a batch has drawn its timestamps, one by one has not
            del again["next_timestamp"], single["next_timestamp"]
        assert again == single

    @pytest.mark.parametrize("tapped", [True, False], ids=["tap", "no-tap"])
    @pytest.mark.parametrize("at", [0, 2, 4])
    def test_a_subscriber_raising_mid_replay_keeps_the_lines_through_its_event(
            self, tmp_path, at, tapped):
        tap = tmp_path / "tap.log"
        pings = [(ping_key(f"node{i}"), f"m{i}") for i in range(5)]
        # the third publish, the second from the plan, raises at event ``at``
        stamp = 3 * TICK_US + 7 + at

        def boom(event):
            if event.timestamp == stamp:
                raise Boom()

        broker = Broker(tap=str(tap) if tapped else None)
        broker.subscribe("boom", ["*.node0.#", "*.node2.#", "*.node4.#"], boom)
        plan = []
        broker._publish_batch(pings)
        for tick in (2, 3):
            broker.clock.advance_to(tick * TICK_US + 7)
            with contextlib.suppress(Boom):
                broker._publish_again(pings, plan)
        broker.close()
        published = 10 + at + 1
        assert broker.stats().published == published
        assert broker.stats().queues["boom"].delivered == 3 + 3 + at // 2 + 1
        if tapped:
            stamps = [e.timestamp for e in load_tap(tap)]
            assert len(stamps) == published and stamps[-1] == stamp
            assert stamps[5:] == [2 * TICK_US + 7 + i for i in range(5)] + list(
                range(3 * TICK_US + 7, stamp + 1))

    @pytest.mark.parametrize("floor", [0, 5, 2 * TICK_US - 3, 2 * TICK_US - 1],
                             ids=["tick-0", "tick-0-offset", "carry-by-2", "carry-by-4"])
    def test_a_batch_on_tick_0_or_carrying_takes_the_batch_loop(self, tmp_path, floor):
        pings = [(ping_key(f"node{i}"), f"m{i}") for i in range(5)]
        taps = []
        for name in ("again", "batch"):
            tap = tmp_path / f"{name}.log"
            plan = []
            with Broker(clock=EventClock(floor), tap=str(tap)) as broker:
                if name == "again":
                    broker._publish_again(pings, plan)
                else:
                    broker._publish_batch(pings)
            assert plan == []
            taps.append(tap.read_text())
        assert taps[0] == taps[1] == "".join(
            f"{key.text}\t{floor + i}\t{message}\n" for i, (key, message) in enumerate(pings))

    def test_a_retirement_mid_replay_empties_the_planned_route(self):
        pings = [(ping_key("node1"), "a"), (ping_key("node1"), "b")]
        broker = Broker()
        got = []
        broker.subscribe("thrice", ["*.node1.#"], lambda event: got.append(event) or len(got) == 3)
        broker._publish_batch(pings)
        plan = []
        for tick in (1, 2):
            broker.clock.advance_to(tick * TICK_US)
            broker._publish_again(pings, plan)
        assert [(e.timestamp, e.message) for e in got] == [(0, "a"), (1, "b"), (TICK_US, "a")]
        assert broker.stats().queues["thrice"].delivered == 3
        assert broker.stats().published == 6

    def test_a_subscribe_between_replays_drops_the_plan(self):
        pings = [(ping_key("node1"), "a"), (ping_key("node2"), "b")]
        broker = Broker()
        early = []
        broker.subscribe("early", ["*.node1.#"], early.append)
        plan = []
        broker._publish_batch(pings)
        broker.clock.advance_to(TICK_US)
        broker._publish_again(pings, plan)
        epoch = plan[0]
        late = []
        broker.subscribe("late", ["#"], late.append)
        broker.clock.advance_to(2 * TICK_US)
        broker._publish_again(pings, plan)
        assert plan[0] != epoch
        assert [(e.timestamp, e.message) for e in late] == [(2 * TICK_US, "a"),
                                                             (2 * TICK_US + 1, "b")]
        assert [e.timestamp for e in early] == [0, TICK_US, 2 * TICK_US]

    def test_class_lists_started_over_while_planning_take_the_batch_loop(self, monkeypatch):
        # three classes, two kept: planning the batch empties the class lists, so a
        # retirement would miss the plan's first lists; the batch loop routes it instead
        monkeypatch.setattr(broker_module, "MEMO_SIZE", 2)
        pings = [(ping_key(f"node{i}"), f"m{i}") for i in (1, 2, 3)]
        runs = []
        for again in (True, False):
            broker = Broker()
            got = []
            broker.subscribe("once", ["#"], lambda event: got.append(("once", event)) or True)
            for i in (1, 2, 3):
                broker.subscribe(f"s{i}", [f"*.node{i}.#"],
                                 functools.partial(lambda name, event: got.append((name, event)),
                                                   f"s{i}"))
            plan = []
            for tick in (1, 2):
                broker.clock.advance_to(tick * TICK_US)
                if again:
                    broker._publish_again(pings, plan)
                else:
                    broker._publish_batch(pings)
            runs.append(([(name, e.timestamp) for name, e in got], broker.stats()))
        assert runs[0] == runs[1]
        assert [name for name, _ in runs[0][0]] == ["once", "s1", "s2", "s3", "s1", "s2", "s3"]


def ping_key(agentName: str) -> RoutingKey:
    return event_key("lightContainer", agentName, "ping", sourceUnit="Light",
                     sourceOperation="act", sourceLine=7, resource="lightActuator")


class TestRetiringSubscribers:
    """A subscriber that returns True gets nothing more, and nothing else changes."""

    @pytest.mark.parametrize("batched", [True, False], ids=["batch", "one-by-one"])
    @settings(max_examples=60, deadline=None)
    # the last subscriber binds every key, so most examples retire one mid-stream
    @given(bindings=BATCH_BINDINGS.map(lambda b: b + [(False, ["#"], 1)]), items=BATCH_ITEMS,
           retire_at=st.lists(st.one_of(st.none(), st.integers(1, 4)), min_size=5, max_size=5))
    def test_only_the_retired_subscribers_deliveries_end(self, batched, bindings, items,
                                                         retire_at):
        retiring = publish_items(bindings, items, batched, retire_at=retire_at)
        plain = publish_items(bindings, items, batched)
        for field in ("tap", "queued", "raised", "next_timestamp"):
            assert retiring[field] == plain[field]
        assert retiring["stats"].published == plain["stats"].published
        retired = {f"t{i}": retire_at[i] for i, (is_queue, _, _) in enumerate(bindings)
                   if not is_queue and retire_at[i] is not None}

        def others(run):
            return [d for d in run["delivered"] if d[0] not in retired]

        assert others(retiring) == others(plain)
        for name, k in retired.items():
            got = [d for d in retiring["delivered"] if d[0] == name]
            want = [d for d in plain["delivered"] if d[0] == name]
            assert got == want[:k]
            stats = retiring["stats"].queues[name]
            assert stats == QueueStats(matched=len(got), delivered=len(got), dropped=0, buffered=0)
        for name, stats in plain["stats"].queues.items():
            if name not in retired:
                assert retiring["stats"].queues[name] == stats

    def test_a_key_bound_only_by_a_done_subscriber_builds_no_event(self, monkeypatch):
        built = []
        monkeypatch.setattr(broker_module, "keyed_event",
                            lambda *args: built.append(args) or keyed_event(*args))
        broker = Broker()
        got, kept = [], []
        broker.subscribe("once", ["*.*.ping.#"], lambda event: got.append(event) or True)
        broker.subscribe("pongs", ["*.*.pong.#"], kept.append)
        key = event_key("lightContainer", "node1", "ping", sourceUnit="Light",
                        sourceOperation="act", sourceLine=7, resource="lightActuator")
        pong = event_key("lightContainer", "node1", "pong", sourceUnit="Light",
                         sourceOperation="act", sourceLine=7, resource="lightActuator")
        broker._publish_batch([(key, "a"), (key, "b"), (pong, "c"), (key, "d")])
        assert [e.message for e in got] == ["a"]
        assert [e.message for e in kept] == ["c"]
        assert len(built) == 2
        assert broker.publish(event(clock=broker.clock)) == 0
        stats = broker.stats()
        assert stats.published == 5
        assert stats.queues["once"] == QueueStats(matched=1, delivered=1, dropped=0, buffered=0)

    @pytest.mark.parametrize("batched", [True, False], ids=["batch", "one-by-one"])
    def test_a_subscriber_done_before_another_raises_is_done(self, batched):
        broker = Broker()
        got = []
        broker.subscribe("once", ["#"], lambda event: got.append(event.message) or True)

        def boom(event):
            if event.message == "a":
                raise Boom()

        broker.subscribe("boom", ["#"], boom)
        key = event_key("lightContainer", "node1", "ping", sourceUnit="Light",
                        sourceOperation="act", sourceLine=7, resource="lightActuator")
        for message in ("a", "b"):
            with contextlib.suppress(Boom):
                if batched:
                    broker._publish_batch([(key, message)])
                else:
                    broker.publish(keyed_event(key, broker.clock.next_timestamp(), message))
        assert got == ["a"]
        assert broker.stats().queues["once"].delivered == 1

    def test_only_true_means_done(self):
        broker = Broker()
        got = []
        # a truthy answer that is not True, such as the event itself, keeps the subscriber
        broker.subscribe("s", ["#"], lambda event: got.append(event) or event)
        for _ in range(3):
            assert broker.publish(event(clock=broker.clock)) == 1
        assert len(got) == 3

    def test_a_subscriber_declared_later_still_gets_events(self):
        broker = Broker()
        broker.subscribe("first", ["#"], lambda event: True)
        assert broker.publish(event(clock=broker.clock)) == 1
        got = []
        broker.subscribe("late", ["#"], got.append)
        assert broker.publish(event(clock=broker.clock, message="after")) == 1
        assert [e.message for e in got] == ["after"]
        assert broker.stats().queues["first"].delivered == 1


class ScanModel:
    """The broker as a scan: each event is matched with ``_match`` against every
    binding of every live target, in declaration order.

    ``targets`` holds (name, is_queue, patterns, capacity, retire_after); a
    subscriber is done once it has had ``retire_after`` events.
    """

    def __init__(self, targets):
        self.targets = [dict(name=name, queue=is_queue, capacity=capacity, retire=retire,
                             patterns=[tuple(p.split(".")) for p in patterns],
                             got=[], buffer=[], matched=0, dropped=0, done=False)
                        for name, is_queue, patterns, capacity, retire in targets]
        self.tap = []
        self.built = 0
        self.timestamp = 0

    def publish(self, key, message, *, batched):
        """Publish one event; returns how many targets it matched."""
        segments = key.segments
        item = (self.timestamp, key.text, message)
        self.tap.append("%s\t%d\t%s\n" % (key.text, self.timestamp, message))
        self.timestamp += 1
        route = [t for t in self.targets
                 if not t["done"] and any(_match(p, segments) for p in t["patterns"])]
        # a batch builds an event only for a matched key; publish is handed a built one
        self.built += batched and bool(route)
        for t in route:
            t["matched"] += 1
            if not t["queue"]:
                t["got"].append(item)
                t["done"] = len(t["got"]) == t["retire"]
            elif len(t["buffer"]) < t["capacity"]:
                t["buffer"].append(item)
            else:
                t["buffer"] = t["buffer"][1:] + [item]
                t["dropped"] += 1
        return len(route)

    def stats(self):
        return {t["name"]: QueueStats(matched=t["matched"],
                                      delivered=0 if t["queue"] else len(t["got"]),
                                      dropped=t["dropped"], buffered=len(t["buffer"]))
                for t in self.targets}


#: (name, queue?, patterns, capacity, retire after) per target
MODEL_TARGETS = st.lists(
    st.tuples(st.booleans(),
              st.lists(st.lists(st.sampled_from([*BATCH_WORDS, "info", "*", "#"]),
                                min_size=1, max_size=8).map(".".join),
                       min_size=1, max_size=2),
              st.integers(1, 3), st.one_of(st.none(), st.integers(1, 4))),
    min_size=1, max_size=5,
).map(lambda targets: [(f"t{i}", *t) for i, t in enumerate(targets)])
#: (batched?, items) per call: one _publish_batch, or one publish per item
MODEL_CALLS = st.lists(st.tuples(st.booleans(), BATCH_ITEMS), max_size=5)


def run_against_model(targets, calls):
    """Run ``calls`` through a Broker and through ScanModel, check they agree; returns the model."""
    model = ScanModel(targets)
    got = {name: [] for name, *_ in targets}
    built = []

    def deliver(name, retire, event):
        got[name].append((event.timestamp, event.key.text, event.message))
        return len(got[name]) == retire

    with pytest.MonkeyPatch.context() as patch, tempfile.TemporaryDirectory() as tmp:
        patch.setattr(broker_module, "keyed_event",
                      lambda *args: built.append(args) or keyed_event(*args))
        broker = Broker(tap=f"{tmp}/tap.log")
        handles = {}
        for name, is_queue, patterns, capacity, retire in targets:
            if is_queue:
                handles[name] = broker.declare_queue(name, patterns, capacity=capacity)
            else:
                broker.subscribe(name, patterns, functools.partial(deliver, name, retire))
        counts, expected = [], []
        for batched, items in calls:
            if batched:
                broker._publish_batch(items)
            for key, message in items:
                matched = model.publish(key, message, batched=batched)
                if not batched:
                    event = keyed_event(key, broker.clock.next_timestamp(), message)
                    counts.append(broker.publish(event))
                    expected.append(matched)
        assert counts == expected
        assert broker.stats().queues == model.stats()
        assert broker.stats().published == len(model.tap)
        for t in model.targets:
            if t["queue"]:
                queued = iter(lambda h=handles[t["name"]]: h.consume(0.0), None)
                assert [(e.timestamp, e.key.text, e.message) for e in queued] == t["buffer"]
            else:
                assert got[t["name"]] == t["got"]
        broker.close()
        with open(f"{tmp}/tap.log", encoding="utf-8") as fh:
            assert fh.read() == "".join(model.tap)
    assert len(built) == model.built
    return model


class TestScanModel:
    """Routing by class, with retirements, equals a scan of every live binding."""

    @settings(max_examples=100, deadline=None)
    @given(targets=MODEL_TARGETS, calls=MODEL_CALLS)
    def test_publish_and_batches_equal_the_model(self, targets, calls):
        run_against_model(targets, calls)

    def test_a_retirement_in_the_middle_of_a_batch(self):
        key = functools.partial(event_key, "lightContainer", sourceUnit="Light",
                                sourceOperation="act", sourceLine=7, resource="lightActuator")
        ping, pong = key("node1", "ping"), key("node2", "pong")
        targets = [("twice", False, ["*.*.ping.#"], 1, 2), ("all", False, ["#"], 1, None),
                   ("q", True, ["*.node1.#", "*.node2.#"], 2, None), ("once", False, ["#"], 1, 1)]
        calls = [(False, [(pong, "a")]),
                 (True, [(ping, "b"), (pong, "c"), (ping, "d"), (ping, "e"), (pong, "f")]),
                 (False, [(ping, "g")])]
        model = run_against_model(targets, calls)
        twice, _, q, once = model.targets
        # "twice" retires at the batch's third event, and no ping after it reaches it
        assert [m for _, _, m in twice["got"]] == ["b", "d"]
        assert [m for _, _, m in once["got"]] == ["a"]
        assert [m for _, _, m in q["buffer"]] == ["f", "g"] and q["dropped"] == 5


class TestCarriedKey:
    def test_replaced_event_routes_by_its_new_key(self):
        broker = Broker()
        got = []
        broker.subscribe("pongs", ["*.*.pong.#"], got.append)
        ping = event(clock=broker.clock)
        pong = dataclasses.replace(ping, key=event_key(
            "lightContainer", "node1", "pong", sourceUnit="Light", sourceOperation="act",
            sourceLine=7, resource="lightActuator"))
        assert routing_key(ping).text.startswith("lightContainer.node1.ping.")
        assert broker.publish(ping) == 0
        assert broker.publish(pong) == 1
        assert got == [pong]
        assert routing_key(pong).text == "lightContainer.node1.pong.info.Light.act.7.lightActuator"

    def test_publisher_events_equal_checked_ones(self):
        broker = Broker()
        got = []
        broker.subscribe("s", ["#"], got.append)
        pub = broker.publisher("lightContainer", "node1")
        for message in ("one", "two"):
            pub.log("ping", "INFO", sourceUnit="Light", sourceOperation="act", sourceLine=7,
                    resource="lightActuator", message=message)
        clock = EventClock()
        assert got == [event(clock=clock, message="one"), event(clock=clock, message="two")]

    @pytest.mark.parametrize("message", ["two\nlines", "cr\r", None])
    def test_publisher_checks_every_message(self, message):
        broker = Broker()
        pub = broker.publisher("lightContainer", "node1")
        pub.log("ping", sourceUnit="Light", sourceOperation="act", sourceLine=7,
                resource="lightActuator", message="fine")
        with pytest.raises(InvalidTag):
            pub.log("ping", sourceUnit="Light", sourceOperation="act", sourceLine=7,
                    resource="lightActuator", message=message)
        assert broker.stats().published == 1


class TestSubscribe:
    def test_delivers_matching_events_in_publish_order(self):
        broker = Broker()
        got = []
        broker.subscribe("s", ["*.node1.#", "*.*.ping.#"], got.append)
        sent = [
            event(action=action, agentName=name, clock=broker.clock)
            for action, name in [("ping", "node2"), ("pong", "node1"), ("pong", "node2"),
                                 ("ping", "node1"), ("pong", "node3")]
        ]
        counts = [broker.publish(ev) for ev in sent]
        assert got == [sent[0], sent[1], sent[3]]  # once each, even when both bind
        assert counts == [1, 1, 0, 1, 0]

    def test_a_false_callable_is_a_subscriber(self):
        class Falsy(list):  # an empty list is false, and this one is callable
            __call__ = list.append

        broker = Broker()
        got = Falsy()
        broker.subscribe("s", ["#"], got)
        ev = event(clock=broker.clock)
        assert broker.publish(ev) == 1
        assert got == [ev]
        assert broker.stats().queues["s"] == QueueStats(matched=1, delivered=1, dropped=0,
                                                        buffered=0)

    def test_stats_count_every_match_as_delivered(self):
        broker = Broker()
        broker.subscribe("s", ["lightContainer.#"], lambda ev: None)
        queue = broker.declare_queue("q", ["#"], capacity=2)
        for i in range(10):
            broker.publish(event(action=f"a{i}", clock=broker.clock))
        stats = broker.stats()
        assert stats.queues["s"] == QueueStats(matched=10, delivered=10, dropped=0, buffered=0)
        assert stats.queues["q"].dropped == 8
        assert queue.stats() == stats.queues["q"]

    def test_subscriber_declared_after_repeats_gets_the_next_publish(self):
        broker = Broker()
        broker.declare_queue("early", ["lightContainer.#"], capacity=8)
        for _ in range(20):
            broker.publish(event(clock=broker.clock))
        got = []
        broker.subscribe("late", ["*.node1.ping.#"], got.append)
        assert broker.publish(event(clock=broker.clock, message="after")) == 2
        assert [ev.message for ev in got] == ["after"]

    def test_name_shared_with_queues(self):
        broker = Broker()
        broker.declare_queue("q", ["#"])
        with pytest.raises(DuplicateQueue):
            broker.subscribe("q", ["#"], lambda ev: None)
        broker.subscribe("s", ["#"], lambda ev: None)
        with pytest.raises(DuplicateQueue):
            broker.declare_queue("s", ["#"])

    @pytest.mark.parametrize("patterns", [[], ["a..b"], "ab"])
    def test_bad_patterns_are_rejected(self, patterns):
        with pytest.raises(InvalidPattern):
            Broker().subscribe("s", patterns, lambda ev: None)

    @pytest.mark.parametrize("deliver,shown", [(None, "None"), (5, "5")])
    def test_a_deliver_that_is_not_callable_is_refused_before_binding(self, deliver, shown):
        broker = Broker()
        with pytest.raises(BrokerError, match=f"^deliver must be callable, got {shown}$"):
            broker.subscribe("s", ["#"], deliver)
        assert broker.stats().queues == {}
        assert broker.publish(event(clock=broker.clock)) == 0

    def test_concurrent_publishers_lose_no_delivery(self):
        broker = Broker()
        seen = {"count": 0, "last": {}}
        out_of_order = []

        def deliver(ev):
            seen["count"] += 1  # read-modify-write: a second caller at once would lose one
            source, index = map(int, ev.message.split(":"))
            if seen["last"].get(source, -1) >= index:
                out_of_order.append(ev.message)
            seen["last"][source] = index

        broker.subscribe("s", ["#"], deliver)

        def publish(source):
            for i in range(500):
                broker.publish(event(clock=broker.clock, message=f"{source}:{i}"))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=publish, args=(n,)) for n in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert seen["count"] == 8 * 500 == broker.stats().queues["s"].delivered
        assert out_of_order == []

    def test_closed_broker_refuses_subscribers(self):
        broker = Broker()
        broker.close()
        with pytest.raises(QueueClosed):
            broker.subscribe("s", ["#"], lambda ev: None)


TAP_WORDS = st.one_of(
    st.text(st.characters(exclude_characters=".*#", exclude_categories=("Cs",)),
            min_size=1, max_size=6).filter(lambda word: not any(c.isspace() for c in word)),
    st.sampled_from(["node10", "007", "\x00", "\x7f"]),
)
TAP_MESSAGES = st.one_of(
    st.text(max_size=12),
    st.sampled_from(["a\tb\t", "\x0b\x0c\x1c", "\x85", "\u2028\u2029", " trailing  "]),
)
#: the tags of a key, in its word order
TAGS = ("agentType", "agentName", "action", "typeLog", "sourceUnit", "sourceOperation",
        "sourceLine", "resource")
WORD_TAGS = ("agentType", "agentName", "action", "sourceUnit", "sourceOperation", "resource")
#: values of each field that a tap line cannot carry, or not as the same value; a
#: tag is its word of the key
ODD_VALUES = {
    **dict.fromkeys(WORD_TAGS, st.sampled_from(["a.b", "n*", "#", "x y", "\u2028", "", None,
                                                "n" * 250])),
    "typeLog": st.sampled_from(["INFO", "Error", "fatal", ""]),
    "sourceLine": st.sampled_from(["-1", "True", "1.5", "007", "\u0663", "None"]),
    "timestamp": st.sampled_from([-1, True, 2.0, "5", None]),
    "message": st.sampled_from(["two\nlines", "cr\r", "\r\n", None]),
}


@st.composite
def tap_events(draw):
    """The arguments of ``LogEvent(...)`` as key words, timestamp and message, valid but
    for at most one odd field."""
    fields = {name: draw(TAP_WORDS) for name in WORD_TAGS}
    fields.update(typeLog=draw(st.sampled_from(["info", "warning", "error"])),
                  sourceLine=str(draw(st.integers(0, 10**25))),
                  timestamp=draw(st.integers(0, 10**25)), message=draw(TAP_MESSAGES))
    odd = draw(st.one_of(st.none(), st.sampled_from(sorted(ODD_VALUES))))
    if odd is not None:
        fields[odd] = draw(ODD_VALUES[odd])
    return tuple(fields[name] for name in TAGS), fields["timestamp"], fields["message"]


class TestBrokerArguments:
    @pytest.mark.parametrize("clock", [5, 0, "clock", EventClock, object()],
                             ids=["5", "0", "str", "the class", "object"])
    def test_a_clock_that_is_not_an_event_clock_is_refused(self, clock):
        with pytest.raises(BrokerError, match="clock must be an EventClock"):
            Broker(clock=clock)

    @pytest.mark.parametrize("tap", [0, 0.0, False, 1, True])
    def test_only_none_means_no_tap(self, tap):
        with pytest.raises(LogModelError, match="output path must be a str, bytes or os.PathLike"):
            Broker(tap=tap)
        with Broker(tap=None) as broker:
            broker.publish(event(clock=broker.clock))
        assert broker.stats().published == 1


class TestTap:
    def test_tap_mirrors_all_events_even_unrouted(self, tmp_path):
        tap = tmp_path / "events.tap"
        broker = Broker(tap=str(tap))
        broker.declare_queue("narrow", ["MANAGER.#"])
        sent = [event(action=f"a{i}", clock=broker.clock) for i in range(5)]
        for ev in sent:
            broker.publish(ev)
        broker.close()
        assert load_tap(tap) == sent

    @pytest.mark.parametrize("change,error", [
        (dict(message="two\nlines"), "message may not contain newlines"),
        (dict(message="cr\r"), "message may not contain newlines"),
        (dict(message="x\ud800"), "message must encode as UTF-8, got 'x\\ud800'"),
        (dict(timestamp=1.5), "timestamp must be a non-negative int, got 1.5"),
        (dict(timestamp=True), "timestamp must be a non-negative int, got True"),
        (dict(timestamp=-1), "timestamp must be a non-negative int, got -1"),
        (dict(timestamp=-10 ** 5000),
         "timestamp must be a non-negative int, got an int of 16610 bits"),
        (dict(message=10 ** 5000), "message must be a string, got an int of 16610 bits"),
        (dict(timestamp=2 ** 63), "timestamp must be below 2**63"),
        (dict(timestamp=10 ** 5000), "timestamp must be below 2**63"),
        (dict(typeLog="INFO"), "typeLog must be one of ('info', 'warning', 'error'), got 'INFO'"),
        (dict(typeLog="fatal"), "typeLog must be one of ('info', 'warning', 'error'), got 'fatal'"),
        (dict(sourceLine=-1), "sourceLine word must be canonical decimal, got '-1'"),
    ], ids=["newline", "carriage-return", "lone-surrogate", "float-timestamp", "bool-timestamp",
            "negative-timestamp", "huge-negative-timestamp", "huge-int-message",
            "2**63-timestamp", "huge-timestamp", "upper-case-typeLog",
            "unknown-typeLog", "negative-sourceLine"])
    @pytest.mark.parametrize("build", ["init", "replace"])
    def test_unreadable_event_raises_before_its_tap_line(self, tmp_path, change, error, build):
        # an event is checked when it is built, so the odd one never reaches the broker
        tap = tmp_path / "events.tap"
        broker = Broker(tap=str(tap))
        sent = event(clock=broker.clock)
        words = list(sent.key.segments)
        for name, value in change.items():
            if name in TAGS:
                words[TAGS.index(name)] = str(value)
        fields = {name: value for name, value in change.items() if name not in TAGS}
        if words != list(sent.key.segments):
            fields["key"] = RoutingKey(tuple(words))
        with pytest.raises(InvalidTag) as err:
            if build == "replace":
                dataclasses.replace(sent, **fields)
            else:
                LogEvent(**{"key": sent.key, "timestamp": sent.timestamp,
                            "message": sent.message, **fields})
        assert str(err.value) == error
        broker.publish(sent)
        broker.close()
        assert broker.stats().published == 1
        assert load_tap(tap) == [sent]

    def test_a_subscriber_raising_mid_batch_cuts_a_longer_old_tap(self, tmp_path):
        # the tap is written over the old file and cut to length as the error unwinds
        key = event_key("lightContainer", "node1", "ping", sourceUnit="Light",
                        sourceOperation="act", sourceLine=7, resource="lightActuator")

        def boom(event):
            if event.message == "c":
                raise Boom()

        taps = []
        for old in ("", "x" * 100_000 + "\n"):
            tap = tmp_path / f"{len(taps)}.tap"
            tap.write_text(old)
            with pytest.raises(Boom), Broker(tap=str(tap)) as broker:
                broker.subscribe("boom", ["#"], boom)
                broker._publish_batch([(key, message) for message in "abcde"])
            taps.append(tap.read_bytes())
        assert taps[1] == taps[0]
        assert [e.message for e in load_tap(tmp_path / "1.tap")] == ["a", "b", "c"]

    def test_no_timestamp_past_2_to_the_63_is_published(self, tmp_path):
        # each publishing path refuses before it writes, counts or delivers anything
        tap = tmp_path / "t.log"
        key = event_key("lightContainer", "node1", "ping", sourceUnit="Light",
                        sourceOperation="act", sourceLine=7, resource="lightActuator")
        got = []
        refused = pytest.raises(LogModelError, match=r"^timestamps must be below 2\*\*63$")
        with Broker(clock=EventClock(2 ** 63 - 2), tap=str(tap)) as broker:
            broker.subscribe("all", ["#"], got.append)
            with refused:
                broker._publish_batch([(key, message) for message in "abc"])
            broker._publish_batch([(key, message) for message in "ab"])
            with refused:
                broker.publisher("a", "b").log("x", sourceUnit="U", sourceOperation="op",
                                               sourceLine=1, resource="r", message="m")
            with refused:
                evolution._publish(broker, [("calculateFitness", "fitness=0.5")])
        assert broker.stats().published == 2
        assert [(e.timestamp, e.message) for e in got] == [(2 ** 63 - 2, "a"), (2 ** 63 - 1, "b")]
        assert load_tap(tap) == got

    @settings(max_examples=300, deadline=None)
    @given(tap_events())
    def test_every_accepted_event_reads_back_equal(self, sent):
        words, timestamp, message = sent
        with tempfile.TemporaryDirectory() as tmp:
            tap = f"{tmp}/tap.log"
            with Broker(tap=tap) as broker:
                try:
                    built = LogEvent(RoutingKey(words), timestamp, message)
                except LogModelError:
                    accepted = []
                else:
                    broker.publish(built)
                    accepted = [built]
            assert broker.stats().published == len(accepted)
            assert load_tap(tap) == accepted


class TestAgentPublisher:
    def test_publisher_fills_identity_and_uses_broker_clock(self):
        broker = Broker()
        q = broker.declare_queue("q", ["OBSERVER.observer01.#"])
        pub = broker.publisher("OBSERVER", "observer01")
        pub.log(
            "calculateFitness",
            sourceUnit="Observer",
            sourceOperation="evaluate",
            sourceLine=137,
            resource="simulationResults",
            message="fitness=0.5",
        )
        ev = q.consume(0.1)
        assert ev.agentType == "OBSERVER"
        assert ev.agentName == "observer01"
        assert ev.timestamp == 0
