"""In-process topic exchange with wildcard bindings, bounded FIFO queues and
inline subscribers.

A single broker lock makes publish linearizable: each published event is
matched against every binding's patterns and handed (at most once per
queue or subscriber) before the next publish is admitted.  A batch of
interned keys and messages (``_publish_batch``) is admitted as one, with one
clock reservation and one tap write, and builds events only for bound keys.
A key's route class is the tuple of the targets (queues and subscribers)
it matches.  A table shared by every broker with equal binding lists maps
key text to class, and only a key new to that table is matched against
every binding, in declaration order.  Each broker keeps one list of live
targets per class and memoises key text to that list, so a repeated key
costs one dict lookup.  Both memos hold ROUTE_KEYS keys, more than the
largest accepted grid logs, so a table matches each key once.  A
subscriber's callback runs inside the publish, in publish order, on the
publishing thread, and may return True once it wants no more events (as
AMQP's ``basic.cancel``): it is then pruned from every class list in
place, so a key it alone bound builds no event and no key is routed again.
Queue consumers block on per-queue conditions, so slow consumers never
stall publishers; a full queue drops its oldest event instead.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass

from .logmodel import (
    HASH,
    MEMO_SIZE,
    STAR,
    BindingPattern,
    BoundedMemo,
    EventClock,
    InvalidPattern,
    LogEvent,
    RoutingKey,
    keyed_event,
    make_log_event,
    parse_binding_pattern,
)

DEFAULT_CAPACITY = 65536


class BrokerError(Exception):
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
    """Decide whether a binding pattern matches a routing key."""
    if isinstance(pattern, str):
        pattern = parse_binding_pattern(pattern)
    if isinstance(key, LogEvent):
        key = key.key
    if isinstance(key, str):
        key = RoutingKey(tuple(key.split(".")))
    return _match(pattern.segments, key.segments)


#: keys a route memo holds before it starts over: more than the largest
#: accepted grid can log, 9 x MAX_LIGHTS + 8 world and 13 observer keys (90,021)
ROUTE_KEYS = 2 ** 17

#: key text -> class by binding lists, shared across brokers; a key's class is
#: the ascending tuple of the target indices it matches
_route_tables = BoundedMemo(64)


def _scan(queues, key: tuple[str, ...]) -> tuple[int, ...]:
    """The indices of the targets with a binding that matches ``key``, in declaration order."""
    return tuple(i for i, q in enumerate(queues)
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
            if q.deliver is not None:
                q.delivered += 1
                if q.deliver(event) is True:
                    q.done = retired = True
                continue
            if len(q.buffer) >= q.capacity:
                q.buffer.popleft()
                q.dropped += 1
            q.buffer.append(event)
            q.cond.notify()
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
    """A declared queue, or a subscriber when ``deliver`` is set; ``done``
    once the subscriber has asked for no more events."""

    __slots__ = ("name", "bindings", "buffer", "capacity", "cond", "deliver", "done",
                 "matched", "delivered", "dropped")

    def __init__(self, name, bindings, capacity, lock, deliver):
        self.name = name
        self.bindings = bindings
        self.buffer: deque[LogEvent] = deque()
        self.capacity = capacity
        self.cond = threading.Condition(lock)
        self.deliver = deliver
        self.done = False
        self.matched = 0
        self.delivered = 0
        self.dropped = 0


class Broker:
    """Topic exchange for LogEvents.

    ``tap`` names a file that mirrors every published event (one serialized
    line each, including events that matched no queue).  The file is created
    fresh and only appended to afterwards.
    """

    def __init__(self, clock: EventClock | None = None, tap: str | None = None):
        self.clock = clock if clock is not None else EventClock()
        self._lock = threading.Lock()
        self._queues: dict[str, _Queue] = {}
        self._published = 0
        self._closed = False
        self._tap = open(tap, "w", encoding="utf-8") if tap else None
        # key text -> the list of its class in _classes
        self._routes = BoundedMemo(ROUTE_KEYS)
        # class -> the queues and live subscribers of its indices, in declaration order
        self._classes: dict[tuple[int, ...], list[_Queue]] = {}
        # (shared key table, queues), found on the first miss after a _bind
        self._table = None

    def declare_queue(self, name: str, patterns, capacity: int = DEFAULT_CAPACITY) -> QueueHandle:
        """Create a named queue bound to one or more patterns.

        Raises DuplicateQueue on a name collision and InvalidPattern if the
        binding list is empty or contains a malformed pattern.
        """
        if capacity < 1:
            raise BrokerError(f"capacity must be positive, got {capacity}")
        return QueueHandle(self, name, self._bind(name, patterns, capacity, None))

    def subscribe(self, name: str, patterns, deliver) -> None:
        """Call ``deliver(event)`` inside publish for every matching event.

        Events arrive in publish order, at most once each, with nothing
        buffered or dropped.  ``deliver`` runs under the broker lock and
        must not call back into the broker.  When it returns True the
        subscriber is done: it gets no further event, its ``matched`` and
        ``delivered`` counts stop there, and a key no one else binds is no
        longer built into an event.  Names share the queue namespace; the
        errors are those of declare_queue.
        """
        self._bind(name, patterns, 0, deliver)

    def _bind(self, name, patterns, capacity, deliver) -> tuple[BindingPattern, ...]:
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
            self._routes.clear()
            self._classes.clear()
            self._table = None
        return parsed

    def _route(self, key: RoutingKey) -> list[_Queue]:
        """The live queues and subscribers ``key`` matches, in declaration order (under the lock).

        That is the list of the key's class, which _prune keeps free of done
        subscribers; the table shared with other brokers is left as it is.
        The first miss after a _bind takes that table and every route it holds;
        a key new to it is scanned against every binding once.
        """
        text = key.text
        route = self._routes.get(text)
        if route is None and self._table is None:
            self._share()
            route = self._routes.get(text)
        if route is None:
            shared, queues = self._table
            found = shared.get(text)
            if found is None:
                found = shared.remember(text, _scan(queues, key.segments))
            route = self._routes.remember(text, self._class(found))
        return route

    def _share(self) -> None:
        """Find the table shared by brokers with these binding lists, and memoise its routes."""
        queues = tuple(self._queues.values())
        bindings = tuple(q.bindings for q in queues)
        shared = _route_tables.get(bindings)
        if shared is None:
            shared = _route_tables.remember(bindings, BoundedMemo(ROUTE_KEYS))
        self._table = (shared, queues)
        # from a copy, as a broker on another thread may be adding keys; it
        # holds at most ROUTE_KEYS of them, the bound of _routes
        for text, found in shared.copy().items():
            self._routes[text] = self._class(found)

    def _class(self, found: tuple[int, ...]) -> list[_Queue]:
        """The list of live queues and subscribers of a class, made on its first use."""
        classes = self._classes
        route = classes.get(found)
        if route is None:
            if len(classes) >= MEMO_SIZE:
                # a memoised route whose list left _classes would miss _prune
                classes.clear()
                self._routes.clear()
            queues = self._table[1]
            route = classes[found] = [queues[i] for i in found if not queues[i].done]
        return route

    def _prune(self) -> None:
        """Drop done subscribers from every class list, in place, so memoised routes lose them too."""
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
            route = self._routes.get(key.text)
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
        callers (WorldState.publish, _replay) take messages from their own
        format tables, so none is checked.  A closed broker raises QueueClosed
        before writing any; if a subscriber raises, or a message does not encode
        for the tap, the lines before its event (and a subscriber's own) are
        written and counted first.
        """
        with self._lock:
            if self._closed:
                raise QueueClosed("broker is closed")
            timestamp = self.clock.reserve(len(batch))
            routes, prune, tap = self._routes, self._prune, self._tap
            lines = []
            line = lines.append
            try:
                for key, message in batch:
                    text = key.text
                    route = routes.get(text)
                    if route is None:
                        route = self._route(key)
                    if tap is not None and not message.isascii():
                        message.encode("utf-8")  # a lone surrogate raises here
                    line(f"{text}\t{timestamp}\t{message}\n")
                    if route:
                        _deliver(route, keyed_event(key, timestamp, message), prune)
                    timestamp += 1
            finally:
                if tap is not None:
                    tap.write("".join(lines))
                self._published += len(lines)

    def consume(self, handle: QueueHandle, maxWait: float | None = None) -> LogEvent | None:
        """Pop the next event in FIFO order.

        Blocks up to ``maxWait`` seconds (forever when None) and returns
        None on timeout.  Raises QueueClosed once the broker is closed and
        the queue has been drained; buffered events remain consumable after
        close.
        """
        q = self._queues[handle.name]
        with q.cond:
            if maxWait is None:
                while not q.buffer and not self._closed:
                    q.cond.wait()
            else:
                deadline = time.monotonic() + maxWait
                while not q.buffer and not self._closed:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return None
                    q.cond.wait(remaining)
            if q.buffer:
                q.delivered += 1
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
                    delivered=q.delivered,
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
