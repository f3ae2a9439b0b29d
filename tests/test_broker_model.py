"""A stateful model of one Broker, with a tap and without one.

Each rule is one broker call made on the broker and on a plain model of it.
After every step the tap, read back through load_tap, holds exactly the
events the model accepted, ``stats().published`` is their count, and every
queue's and subscriber's counters, buffer and deliveries are the model's.
Routes in the model come from the regex oracle, not the broker's scan.
"""

import tempfile

from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from masharness.broker import Broker, DuplicateQueue, QueueClosed
from masharness.logmodel import TICK_US, InvalidTag, event_key, load_tap

from oracles import oracle_matches

WORDS = ["a", "b"]
#: an event's eight tags, over few words so that bindings match some keys and miss others
TAGS = st.tuples(*[st.sampled_from(WORDS)] * 3, st.sampled_from(["info", "error"]),
                 *[st.sampled_from(WORDS)] * 2, st.integers(0, 1), st.sampled_from(WORDS))
#: make_log_event refuses the last two; a tapped batch cannot write the lone surrogate
MESSAGES = st.sampled_from(["", "m", "two words", "x\ud800", "a\nb"])
BATCH_MESSAGES = st.sampled_from(["", "m", "two words", "m2", "m3", "m4", "m5", "x\ud800"])
#: binding lists of patterns that match many keys, few keys or none
PATTERNS = st.lists(
    st.one_of(st.sampled_from(["#", "a.#", "*.b.#", "#.a", "#.error.#", "*.*.*.info.#.1.*"]),
              st.lists(st.sampled_from([*WORDS, "info", "1", "*", "#"]),
                       min_size=1, max_size=8).map(".".join)),
    min_size=1, max_size=2)
#: queues and subscribers share one namespace, so a name may be taken
NAMES = st.sampled_from(["t0", "t1", "t2", "t3", "t4"])


class Boom(Exception):
    pass


class Target:
    """The model of one queue (``capacity`` set) or subscriber.

    A subscriber returns True at its ``retire_at``-th event and raises Boom
    at its ``raise_at``-th, where those are given.
    """

    def __init__(self, patterns, capacity=None, retire_at=None, raise_at=None):
        self.patterns = patterns
        self.capacity = capacity
        self.retire_at = retire_at
        self.raise_at = raise_at
        self.buffer = []  # a queue's events not yet consumed
        self.got = []  # a subscriber's events
        self.matched = self.delivered = self.dropped = 0
        self.done = False

    def counts(self):
        return (self.matched, self.delivered, self.dropped, len(self.buffer))


def tags_kwargs(tags):
    agentType, agentName, action, typeLog, unit, operation, line, resource = tags
    return dict(agentType=agentType, agentName=agentName, action=action, typeLog=typeLog,
                sourceUnit=unit, sourceOperation=operation, sourceLine=line, resource=resource)


class BrokerModel(RuleBasedStateMachine):
    tapped = True

    def __init__(self):
        super().__init__()
        self.dir = tempfile.TemporaryDirectory()
        self.tap = f"{self.dir.name}/tap.log"
        self.broker = Broker(tap=self.tap if self.tapped else None)
        self.batches = []  # (batch, plan) of each batch whose messages all encode
        self.targets: dict[str, Target] = {}  # in declaration order
        self.handles = {}
        self.got = {}  # subscriber name -> the events its callback was handed
        self.accepted = []  # (key text, timestamp, message) of each tap line
        self.timestamp = 0
        self.closed = False

    def teardown(self):
        self.broker.close()
        self.dir.cleanup()

    # -- the model ---------------------------------------------------------

    def expected_bind_error(self, name):
        return QueueClosed if self.closed else DuplicateQueue if name in self.targets else None

    def accept(self, text, message):
        """Write one event to the model's tap and deliver it.

        Returns the number of targets it matched, and whether a subscriber raised.
        """
        item = (text, self.timestamp, message)
        self.timestamp += 1
        self.accepted.append(item)
        route = [t for t in self.targets.values()
                 if not t.done and any(oracle_matches(p, text) for p in t.patterns)]
        for t in route:
            t.matched += 1
            if t.capacity is not None:
                if len(t.buffer) >= t.capacity:
                    t.buffer.pop(0)
                    t.dropped += 1
                t.buffer.append(item)
                continue
            t.delivered += 1
            t.got.append(item)
            if t.delivered == t.raise_at:
                return len(route), True
            t.done = t.delivered == t.retire_at
        return len(route), False

    # -- rules ---------------------------------------------------------------

    @rule(name=NAMES, patterns=PATTERNS, capacity=st.integers(1, 3))
    def declare_queue(self, name, patterns, capacity):
        expected = self.expected_bind_error(name)
        try:
            self.handles[name] = self.broker.declare_queue(name, patterns, capacity=capacity)
        except (QueueClosed, DuplicateQueue) as exc:
            assert type(exc) is expected
            return
        assert expected is None
        self.targets[name] = Target(patterns, capacity=capacity)

    @rule(name=NAMES, patterns=PATTERNS,
          ends=st.sampled_from([(None, None), (1, None), (2, None), (None, 1), (None, 2)]))
    def subscribe(self, name, patterns, ends):
        retire_at, raise_at = ends
        got = []

        def deliver(event):
            got.append((event.key.text, event.timestamp, event.message))
            if len(got) == raise_at:
                raise Boom()
            return len(got) == retire_at

        expected = self.expected_bind_error(name)
        try:
            self.broker.subscribe(name, patterns, deliver)
        except (QueueClosed, DuplicateQueue) as exc:
            assert type(exc) is expected
            return
        assert expected is None
        self.targets[name] = Target(patterns, retire_at=retire_at, raise_at=raise_at)
        self.got[name] = got

    @rule(tags=TAGS, message=MESSAGES)
    def publish(self, tags, message):
        kwargs = tags_kwargs(tags)
        publisher = self.broker.publisher(kwargs.pop("agentType"), kwargs.pop("agentName"))
        try:
            matched = publisher.log(**kwargs, message=message)
        except InvalidTag:
            assert message in ("x\ud800", "a\nb")
            return
        except QueueClosed:
            assert self.closed
            self.timestamp += 1  # make_log_event drew its timestamp
            return
        except Boom:
            matched = None
        text = event_key(**tags_kwargs(tags)).text
        if matched is None:  # a subscriber raised
            assert self.accept(text, message)[1]
        else:
            assert self.accept(text, message) == (matched, False)

    @rule(items=st.lists(st.tuples(TAGS, BATCH_MESSAGES), max_size=5))
    def publish_batch(self, items):
        batch = [(event_key(**tags_kwargs(tags)), message) for tags, message in items]
        try:
            self.broker._publish_batch(batch)
        except QueueClosed:
            assert self.closed
            return
        except (Boom, UnicodeEncodeError) as exc:
            raised = type(exc)
        else:
            raised = None
        expected, end = None, self.timestamp + len(batch)
        for key, message in batch:
            if message == "x\ud800" and self.tapped:  # only a tap line must encode
                expected = UnicodeEncodeError
                break
            if self.accept(key.text, message)[1]:
                expected = Boom
                break
        self.timestamp = end
        assert raised is expected
        if all(message != "x\ud800" for _, message in batch):
            self.batches.append((batch, []))

    @precondition(lambda self: self.batches)
    # floors on tick 0, at the start of a tick, and where a batch carries into the next
    @rule(data=st.data(), tick=st.integers(0, 4),
          offset=st.one_of(st.integers(0, 2), st.integers(TICK_US - 5, TICK_US - 1)))
    def publish_again(self, data, tick, offset):
        batch, plan = data.draw(st.sampled_from(self.batches))
        floor = tick * TICK_US + offset
        self.broker.clock.advance_to(floor)
        self.timestamp = max(self.timestamp, floor)
        try:
            self.broker._publish_again(batch, plan)
        except QueueClosed:
            assert self.closed
            return
        except Boom:
            raised = Boom
        else:
            raised = None
        expected, end = None, self.timestamp + len(batch)
        for key, message in batch:
            if self.accept(key.text, message)[1]:
                expected = Boom
                break
        self.timestamp = end
        assert raised is expected

    @precondition(lambda self: self.handles)
    @rule(data=st.data())
    def consume(self, data):
        name = data.draw(st.sampled_from(sorted(self.handles)))
        target = self.targets[name]
        try:
            event = self.handles[name].consume(0.0)
        except QueueClosed:
            assert self.closed and not target.buffer
            return
        if not target.buffer:
            assert event is None
            return
        assert (event.key.text, event.timestamp, event.message) == target.buffer.pop(0)
        target.delivered += 1

    @precondition(lambda self: len(self.accepted) >= 4)  # most runs publish a while first
    @rule()
    def close(self):
        self.broker.close()
        self.closed = True

    # -- invariants ------------------------------------------------------------

    @invariant()
    def agrees_with_the_model(self):
        if self.tapped:
            if self.broker._tap is not None:
                self.broker._tap.flush()
            tap = [(e.key.text, e.timestamp, e.message) for e in load_tap(self.tap)]
            assert tap == self.accepted
        stats = self.broker.stats()
        assert stats.published == len(self.accepted)
        assert {name: (s.matched, s.delivered, s.dropped, s.buffered)
                for name, s in stats.queues.items()} == {
                    name: t.counts() for name, t in self.targets.items()}
        for name, got in self.got.items():
            assert got == self.targets[name].got
        # the clock has handed out exactly the model's timestamps; this check draws one more
        assert self.broker.clock.next_timestamp() == self.timestamp
        self.timestamp += 1


class UntappedBrokerModel(BrokerModel):
    tapped = False


TestBrokerModel = BrokerModel.TestCase
TestUntappedBrokerModel = UntappedBrokerModel.TestCase
TestBrokerModel.settings = TestUntappedBrokerModel.settings = settings(
    max_examples=50, stateful_step_count=25, deadline=None)
