"""In-process topic exchange with wildcard bindings, bounded FIFO queues and
inline subscribers.

A single broker lock makes publish linearizable: each published event is
matched against every binding's patterns and handed (at most once per
queue or subscriber) before the next publish is admitted.  A batch of
interned keys and messages (``_publish_batch``) is admitted as one, with one
clock reservation and one tap write, and builds events only for bound keys.
A key's route class is the set of the targets (queues and subscribers) it
matches, as an int with bit i set for target i.  A table shared by every
broker with equal binding lists maps key text to class, and only a key new
to that table is matched against every binding, in declaration order.
Each broker keeps one list of live targets per class, so a repeated key
costs two dict lookups.  The table holds ROUTE_KEYS keys, more than the
largest accepted grid logs, so it matches each key once.  Every target is
handed an event the same way: a subscriber's callback runs inside the
publish, in publish order, on the publishing thread, and may return True
once it wants no more events (as AMQP's ``basic.cancel``): it is then
pruned from every class list in place, so a key it alone bound builds no
event and no key is routed again.  A queue's callback buffers the event,
dropping its oldest one when full, and its consumers block on per-queue
conditions, so slow consumers never stall publishers.

A batch published again (``_publish_again``, a logged world's replayed
period) goes by a plan that the caller keeps per batch.  Its first use
fills it with the offset of the batch's first timestamp in its tick, the
events some target binds with their class lists and, with a tap, the tap
text cut around the tick digits: the first key and tab, then each event's
offset in six digits, tab, message, newline and the next key and tab.  A
publish at the same offset writes ``str(tick).join`` of those pieces and
builds only the planned events whose class list is still non-empty.  A
_bind, or class lists that start over, drop every plan; a new offset plans
again; a batch on tick 0, whose stamps have no padded digits, or whose
offset would carry into the tick digits takes _publish_batch's loop.  A
broker with no tap formats no line, on any path: it counts them.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from collections.abc import Iterable
from dataclasses import dataclass

from .logmodel import (
    HASH,
    MEMO_SIZE,
    STAR,
    TICK_US,
    BindingPattern,
    BoundedMemo,
    EventClock,
    InvalidPattern,
    InvalidTag,
    LogEvent,
    MasharnessError,
    RoutingKey,
    _shown,
    keyed_event,
    make_log_event,
    open_output,
    parse_binding_pattern,
)

DEFAULT_CAPACITY = 65536


class BrokerError(MasharnessError):
    """Base class for broker usage errors."""


class DuplicateQueue(BrokerError):
    """A queue with the same name already exists."""


class QueueClosed(BrokerError):
    """The broker is closed and the queue is fully drained."""


def _match(pattern: tuple[str, ...], key: tuple[str, ...]) -> bool:
    """Glob-style segment matcher: * is one word, # is any run of words.

    Two-pointer walk with backtracking to the most recent #, the classic
    linear-space wildcard algorithm, so pathological patterns stay cheap.
    """
    p = k = 0
    star_p = -1  # position after the last # seen
    star_k = 0  # key position that # is currently absorbing up to
    np, nk = len(pattern), len(key)
    while k < nk:
        if p < np and (pattern[p] == STAR or pattern[p] == key[k]):
            p += 1
            k += 1
        elif p < np and pattern[p] == HASH:
            star_p = p + 1
            star_k = k
            p += 1
        elif star_p != -1:
            # let the previous # absorb one more word and retry
            star_k += 1
            p = star_p
            k = star_k
        else:
            return False
    while p < np and pattern[p] == HASH:
        p += 1
    return p == np


def matches(pattern: BindingPattern | str, key: RoutingKey | LogEvent | str) -> bool:
    """Decide whether a binding pattern matches a routing key.

    Raises InvalidPattern for a pattern, and InvalidTag for a key, of another type."""
    if isinstance(pattern, str):
        pattern = parse_binding_pattern(pattern)
    elif not isinstance(pattern, BindingPattern):
        raise InvalidPattern(f"pattern must be a BindingPattern or str, got {_shown(pattern)}")
    if isinstance(key, LogEvent):
        key = key.key
    elif isinstance(key, str):
        key = RoutingKey(tuple(key.split(".")))
    elif not isinstance(key, RoutingKey):
        raise InvalidTag(f"key must be a RoutingKey, LogEvent or str, got {_shown(key)}")
    return _match(pattern.segments, key.segments)


#: keys a shared route table holds before it starts over: more than the largest
#: accepted grid can log, 9 x MAX_LIGHTS + 8 world and 13 observer keys (90,021)
ROUTE_KEYS = 2 ** 17

#: key text -> class by binding lists, shared across brokers; a key's class is
#: the int whose bit i is set when it matches target i
_route_tables = BoundedMemo(64)


def _scan(queues, key: tuple[str, ...]) -> int:
    """The class of ``key``: bit i is set when target i has a binding that matches it."""
    return sum(1 << i for i, q in enumerate(queues)
               if any(_match(pattern.segments, key) for pattern in q.bindings))


def _deliver(route, event: LogEvent, prune) -> None:
    """Hand ``event`` to each queue and subscriber of ``route`` (under the broker lock).

    A subscriber that answers True is done, and ``prune`` is called once
    ``route`` has been walked, also when a later subscriber raises.
    """
    retired = False
    try:
        for q in route:
            q.matched += 1
            if q.deliver(event) is True:
                q.done = retired = True
    finally:
        if retired:
            prune()


@dataclass(frozen=True, slots=True)
class QueueStats:
    matched: int
    delivered: int
    dropped: int
    buffered: int


@dataclass(frozen=True, slots=True)
class BrokerStats:
    published: int
    queues: dict[str, QueueStats]


class QueueHandle:
    """Consumer-side view of one declared queue."""

    def __init__(self, broker: "Broker", name: str, bindings: tuple[BindingPattern, ...]):
        self._broker = broker
        self.name = name
        self.bindings = bindings

    def consume(self, maxWait: float | None = None) -> LogEvent | None:
        return self._broker.consume(self, maxWait)

    def stats(self) -> QueueStats:
        return self._broker.stats().queues[self.name]

    def __repr__(self) -> str:
        pats = ", ".join(b.encode() for b in self.bindings)
        return f"QueueHandle({self.name!r}, [{pats}])"


class _Queue:
    """A subscriber, or a declared queue whose ``deliver`` is its own
    ``_buffer``; ``done`` once a subscriber has asked for no more events."""

    __slots__ = ("name", "bindings", "buffer", "capacity", "cond", "deliver", "done",
                 "matched", "dropped")

    def __init__(self, name, bindings, capacity, lock, deliver):
        self.name = name
        self.bindings = bindings
        self.buffer: deque[LogEvent] = deque()
        self.capacity = capacity
        self.cond = threading.Condition(lock)
        self.deliver = deliver if deliver is not None else self._buffer
        self.done = False
        self.matched = 0
        self.dropped = 0

    def _buffer(self, event: LogEvent) -> None:
        """Append ``event``, dropping the oldest one first when full, and wake a consumer."""
        if len(self.buffer) >= self.capacity:
            self.buffer.popleft()
            self.dropped += 1
        self.buffer.append(event)
        self.cond.notify()


class Broker:
    """Topic exchange for LogEvents.

    ``tap`` names a file that mirrors every published event (one serialized
    line each, including events that matched no queue).  The file is written
    from its start and cut to the written length by ``close`` (open_output);
    only None means no tap.  ``clock`` must be an EventClock, or None for a
    new one; BrokerError otherwise.
    """

    def __init__(self, clock: EventClock | None = None, tap: str | None = None):
        if clock is None:
            clock = EventClock()
        elif not isinstance(clock, EventClock):
            raise BrokerError(f"clock must be an EventClock, got {_shown(clock)}")
        self.clock = clock
        self._lock = threading.Lock()
        self._queues: dict[str, _Queue] = {}
        self._published = 0
        self._closed = False
        self._tap = open_output(tap) if tap is not None else None
        # key text -> class, shared by brokers with these binding lists and
        # taken with the targets on the first route after a _bind
        self._keys: dict[str, int] = {}
        self._targets: tuple[_Queue, ...] | None = None
        # class -> the queues and live subscribers of its indices, in declaration order
        self._classes: dict[int, list[_Queue]] = {}
        self._epoch = 0  # counts the times the class lists started over

    def declare_queue(self, name: str, patterns, capacity: int = DEFAULT_CAPACITY) -> QueueHandle:
        """Create a named queue bound to one or more patterns.

        Raises DuplicateQueue on a name collision, BrokerError if the name is
        not a str, and InvalidPattern if ``patterns`` is a str or not iterable, is
        empty, or contains a malformed pattern.
        """
        if type(capacity) is not int:
            raise BrokerError(f"capacity must be an int, got {_shown(capacity)}")
        if capacity < 1:
            raise BrokerError(f"capacity must be positive, got {_shown(capacity)}")
        return QueueHandle(self, name, self._bind(name, patterns, capacity, None))

    def subscribe(self, name: str, patterns, deliver) -> None:
        """Call ``deliver(event)`` inside publish for every matching event.

        Events arrive in publish order, at most once each, with nothing
        buffered or dropped.  ``deliver`` runs under the broker lock and
        must not call back into the broker.  When it returns True the
        subscriber is done: it gets no further event, its ``matched`` and
        ``delivered`` counts stop there, and a key no one else binds is no
        longer built into an event.  Names share the queue namespace; the
        errors are those of declare_queue, and BrokerError if ``deliver`` is
        not callable.
        """
        if not callable(deliver):
            raise BrokerError(f"deliver must be callable, got {_shown(deliver)}")
        self._bind(name, patterns, 0, deliver)

    def _bind(self, name, patterns, capacity, deliver) -> tuple[BindingPattern, ...]:
        if not isinstance(name, str):
            raise BrokerError(f"queue name must be a str, got {_shown(name)}")
        # a str is iterable too, but its characters are no binding list
        if isinstance(patterns, str) or not isinstance(patterns, Iterable):
            raise InvalidPattern(f"binding patterns must be a list, got {_shown(patterns)}")
        parsed = tuple(
            p if isinstance(p, BindingPattern) else parse_binding_pattern(p)
            for p in patterns
        )
        if not parsed:
            raise InvalidPattern("queue needs at least one binding pattern")
        with self._lock:
            if self._closed:
                raise QueueClosed("broker is closed")
            if name in self._queues:
                raise DuplicateQueue(f"queue {name!r} already declared")
            self._queues[name] = _Queue(name, parsed, capacity, self._lock, deliver)
            self._keys, self._targets = {}, None
            self._classes.clear()
            self._epoch += 1
        return parsed

    def _route(self, key: RoutingKey) -> list[_Queue]:
        """The live queues and subscribers ``key`` matches, in declaration order (under the lock).

        That is the list of the key's class, which _prune keeps free of done
        subscribers; the table shared with other brokers is left as it is.
        The first route after a _bind takes that table; a key new to it is
        scanned against every binding once, and a class new to the broker
        gets its list.
        """
        queues = self._targets
        if queues is None:
            queues = self._targets = tuple(self._queues.values())
            bindings = tuple(q.bindings for q in queues)
            self._keys = _route_tables.get(bindings)
            if self._keys is None:
                self._keys = _route_tables.remember(bindings, BoundedMemo(ROUTE_KEYS))
        found = self._keys.get(key.text)
        if found is None:
            found = self._keys.remember(key.text, _scan(queues, key.segments))
        classes = self._classes
        route = classes.get(found)
        if route is None:
            if len(classes) >= MEMO_SIZE:
                # a planned route whose list left _classes would miss _prune
                classes.clear()
                self._epoch += 1
            route = classes[found] = [q for i, q in enumerate(queues)
                                      if found >> i & 1 and not q.done]
        return route

    def _prune(self) -> None:
        """Drop done subscribers from every class list, in place, so plans lose them too."""
        for route in self._classes.values():
            route[:] = [q for q in route if not q.done]

    def publish(self, event: LogEvent) -> int:
        """Route one event to every queue and subscriber with a matching binding.

        Returns the number of queues and live subscribers it went to, each
        handed it once however many of its bindings match; zero is legal.  A
        full queue drops its oldest buffered event first; subscribers are
        called before publish returns.  The event was checked when it was
        built; it is counted once its tap line is written.
        """
        key = event.key
        with self._lock:
            if self._closed:
                raise QueueClosed("broker is closed")
            route = self._classes.get(self._keys.get(key.text))
            if route is None:
                route = self._route(key)
            matched = len(route)  # before _prune empties the list a retirement leaves
            if self._tap is not None:
                self._tap.write(f"{key.text}\t{event.timestamp}\t{event.message}\n")
            self._published += 1
            if route:
                _deliver(route, event, self._prune)
        return matched

    def _publish_batch(self, batch: list[tuple[RoutingKey, str]]) -> None:
        """Publish each ``(interned key, message)`` pair's event, in order, as one admission.

        Taps, routing, delivery and stats are those of publishing the events
        one by one, but the batch takes the lock and the clock once, writes
        the tap once and builds only the events some binding matches.  The
        caller (WorldState.publish) takes messages from its own format
        tables, so none is checked.  A closed broker raises QueueClosed
        before writing any; if a subscriber raises, or a message does not encode
        for the tap, the lines before its event (and a subscriber's own) are
        written and counted first.
        """
        with self._lock:
            if self._closed:
                raise QueueClosed("broker is closed")
            self._publish_each(batch, self.clock.reserve(len(batch)))

    def _publish_each(self, batch, timestamp: int) -> None:
        """_publish_batch's loop from ``timestamp``, under the lock: a line per event, if tapped."""
        keys, classes, prune, tap = self._keys, self._classes, self._prune, self._tap
        lines = []
        line = lines.append
        stamp = timestamp
        try:
            for key, message in batch:
                text = key.text
                route = classes.get(keys.get(text))
                if route is None:
                    route = self._route(key)
                    keys = self._keys
                if tap is not None:
                    if not message.isascii():
                        message.encode("utf-8")  # a lone surrogate raises here
                    line(f"{text}\t{stamp}\t{message}\n")
                stamp += 1
                if route:
                    _deliver(route, keyed_event(key, stamp - 1, message), prune)
        finally:
            if tap is not None:
                tap.write("".join(lines))
            self._published += stamp - timestamp

    def _publish_again(self, batch: list[tuple[RoutingKey, str]], plan: list) -> None:
        """Publish a batch _publish_batch published before, as _publish_batch would.

        ``plan`` is the caller's list for ``batch``, empty at first, filled on
        first use and kept while the class lists and the offset are (see the
        module docstring).  The messages were encoded for the tap when first
        published, so a plan checks none of them again.
        """
        with self._lock:
            if self._closed:
                raise QueueClosed("broker is closed")
            timestamp = self.clock.reserve(len(batch))
            tick, offset = divmod(timestamp, TICK_US)
            if not tick or offset + len(batch) > TICK_US:  # tick 0's stamps or a carry
                return self._publish_each(batch, timestamp)
            if plan[:2] != [self._epoch, offset]:
                epoch, pieces, text = self._epoch, [], ""  # the epoch before routing
                routed = [(i, key, message, route) for i, (key, message) in enumerate(batch)
                          if (route := self._route(key))]
                if self._tap is not None:
                    for i, (key, message) in enumerate(batch, offset):
                        pieces.append(f"{text}{key.text}\t")
                        text = f"{i:06d}\t{message}\n"
                    pieces.append(text)
                plan[:] = [epoch, offset, pieces, routed]
            epoch, _, pieces, routed = plan
            if epoch != self._epoch:  # the class lists started over while planning
                return self._publish_each(batch, timestamp)
            prune, end = self._prune, len(batch)
            try:
                for i, key, message, route in routed:
                    if route:
                        end = i + 1  # the lines up to this event, should it raise
                        _deliver(route, keyed_event(key, timestamp + i, message), prune)
                end = len(batch)
            finally:
                if self._tap is not None:
                    if end < len(batch):  # the lines up to the raise, less the next key
                        pieces = [*pieces[:end], pieces[end][:-len(batch[end][0].text) - 1]]
                    self._tap.write(str(tick).join(pieces))
                self._published += end

    def consume(self, handle: QueueHandle, maxWait: float | None = None) -> LogEvent | None:
        """Pop the next event in FIFO order.

        Blocks up to ``maxWait`` seconds (forever when None) and returns
        None on timeout.  Raises QueueClosed once the broker is closed and
        the queue has been drained; buffered events remain consumable after
        close.  Raises BrokerError for a handle of another broker, and for a
        ``maxWait`` that is not an int or float, is NaN or is above
        threading.TIMEOUT_MAX.
        """
        if not isinstance(handle, QueueHandle) or handle._broker is not self:
            raise BrokerError(f"handle must be a queue of this broker, got {_shown(handle)}")
        if maxWait is not None and (isinstance(maxWait, bool)
                                    or not isinstance(maxWait, (int, float))
                                    or not maxWait <= threading.TIMEOUT_MAX):  # NaN too
            raise BrokerError(f"maxWait must be None or at most {threading.TIMEOUT_MAX} seconds, "
                              f"got {_shown(maxWait)}")
        q = self._queues[handle.name]
        with q.cond:
            # at least 0, as an int far below it does not add to a float
            deadline = None if maxWait is None else time.monotonic() + max(maxWait, 0)
            while not q.buffer and not self._closed:
                remaining = None if deadline is None else deadline - time.monotonic()
                if remaining is not None and remaining <= 0:
                    return None
                q.cond.wait(remaining)
            if q.buffer:
                return q.buffer.popleft()
            raise QueueClosed(f"queue {handle.name!r} is closed and drained")

    def close(self) -> None:
        """Stop accepting publishes and wake all blocked consumers."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            for q in self._queues.values():
                q.cond.notify_all()
            if self._tap is not None:
                self._tap.close()
                self._tap = None

    @property
    def closed(self) -> bool:
        with self._lock:
            return self._closed

    def stats(self) -> BrokerStats:
        """Consistent snapshot of broker counters.

        For every queue, matched == delivered + dropped + buffered; for a
        subscriber, matched == delivered, and a done subscriber's counts
        stop at the event it returned True for.
        """
        with self._lock:
            queues = {
                q.name: QueueStats(
                    matched=q.matched,
                    delivered=q.matched - q.dropped - len(q.buffer),
                    dropped=q.dropped,
                    buffered=len(q.buffer),
                )
                for q in self._queues.values()
            }
            return BrokerStats(published=self._published, queues=queues)

    def publisher(self, agentType: str, agentName: str) -> "AgentPublisher":
        return AgentPublisher(self, agentType, agentName)

    def __enter__(self) -> "Broker":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class AgentPublisher:
    """Publishing facade bound to one agent identity.

    ``log`` is make_log_event on the broker's clock, then Broker.publish: a
    call site's tags are checked once, later calls check only the message.
    It returns ``Broker.publish``'s count of queues and subscribers reached.
    """

    def __init__(self, broker: Broker, agentType: str, agentName: str):
        self.broker = broker
        self.agentType = agentType
        self.agentName = agentName

    def log(
        self,
        action: str,
        typeLog: str = "info",
        *,
        sourceUnit: str,
        sourceOperation: str,
        sourceLine: int,
        resource: str,
        message: str = "",
    ) -> int:
        return self.broker.publish(make_log_event(
            self.agentType, self.agentName, action, typeLog, sourceUnit=sourceUnit,
            sourceOperation=sourceOperation, sourceLine=sourceLine, resource=resource,
            message=message, clock=self.broker.clock))
