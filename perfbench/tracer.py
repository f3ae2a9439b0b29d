"""Outside-in span tracer for the traced benchmark run.

The tracer replaces public functions and methods of the masharness modules
with wrappers that record one span per call: name, start, end, parent span
and op id.  Parents come from a thread-local stack, so the machine threads
of ``masharness test`` get their own span trees.  Spans are appended to
per-thread ``array`` columns (about 26 bytes a span) and only turned into
numbers when the run ends.

A function that another module imported by name lives in two module
dictionaries; ``install`` replaces every module-level reference to the
original object, so calls through ``from .logmodel import routing_key`` are
counted too.  The private ``broker._match`` is deliberately not wrapped: it
runs about 1.5 million times per go-dark op, and a wrapper there would cost
more than the op itself.
Per-binding work is derived from declared queues and ``Broker.stats()``.
"""

from __future__ import annotations

import threading
import time
import weakref
from array import array
from collections import Counter

perf = time.perf_counter

#: (module, function) pairs wrapped wherever the function object is referenced
FUNCTIONS = (
    ("logmodel", "make_log_event"),
    ("logmodel", "routing_key"),
    ("logmodel", "serialize_event"),
    ("logmodel", "parse_event_line"),
    ("logmodel", "load_tap"),
    ("broker", "matches"),
    ("testkit", "run"),
    ("testkit", "load_test_plan"),
    ("testkit", "merge_timeline"),
    ("world", "init_world"),
    ("world", "sense"),
    ("world", "actuate"),
    ("world", "move_people"),
    ("world", "run_episode"),
    ("neural", "decode"),
    ("evolution", "fitness"),
    ("evolution", "evaluate_solution"),
    ("evolution", "evolve_generation"),
    ("evolution", "run_observer"),
    ("cli", "main"),
)

#: (module, class, method) methods wrapped on the class
METHODS = (
    ("broker", "Broker", "consume"),
    ("neural", "NeuralController", "forward_batch"),
)

MODULES = ("logmodel", "broker", "testkit", "world", "neural", "evolution", "cli")


class _ThreadSpans:
    __slots__ = ("name", "start", "end", "parent", "op", "stack", "counts")

    def __init__(self):
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.stack: list[int] = []
        self.counts: Counter = Counter()


class Tracer:
    """Span recorder plus the counters measured at the same boundaries."""

    def __init__(self, package):
        self.package = package
        self.names: list[str] = []
        self.op = -1
        self._local = threading.local()
        self._threads: list[_ThreadSpans] = []
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []
        self._bindings: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        # per op: stats snapshots of every closed broker
        self.broker_stats: list[tuple[int, object]] = []

    # -- recording --------------------------------------------------------

    def _thread(self) -> _ThreadSpans:
        try:
            return self._local.spans
        except AttributeError:
            spans = _ThreadSpans()
            with self._lock:
                self._threads.append(spans)
            self._local.spans = spans
            return spans

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _enter(self, nid: int):
        t = self._thread()
        i = len(t.start)
        t.name.append(nid)
        t.parent.append(t.stack[-1] if t.stack else -1)
        t.op.append(self.op)
        t.end.append(0.0)
        t.stack.append(i)
        t.start.append(perf())
        return t, i

    @staticmethod
    def _leave(t: _ThreadSpans, i: int) -> None:
        t.end[i] = perf()
        t.stack.pop()

    def count(self, key: str, n: int = 1) -> None:
        self._thread().counts[(key, self.op)] += n

    def span(self, name: str, fn):
        """Wrap ``fn`` so that each call records one span called ``name``."""
        nid = self._name_id(name)
        enter, leave = self._enter, self._leave

        def wrapper(*args, **kwargs):
            t, i = enter(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                leave(t, i)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # -- hooks with counters ----------------------------------------------

    def _publish(self, fn):
        nid = self._name_id("broker.publish")
        enter, leave, bindings, count = self._enter, self._leave, self._bindings, self.count

        def publish(broker, event):
            count("broker.publish.bindings_scanned", bindings.get(broker, 0))
            t, i = enter(nid)
            try:
                return fn(broker, event)
            finally:
                leave(t, i)

        return publish

    def _declare_queue(self, fn):
        wrapped = self.span("broker.declare_queue", fn)
        bindings = self._bindings

        def declare_queue(broker, *args, **kwargs):
            handle = wrapped(broker, *args, **kwargs)
            bindings[broker] = bindings.get(broker, 0) + len(handle.bindings)
            return handle

        return declare_queue

    def _close(self, fn):
        def close(broker):
            if not broker.closed:
                with self._lock:
                    self.broker_stats.append((self.op, broker.stats()))
            return fn(broker)

        return close

    def _step(self, fn):
        wrapped = self.span("testkit.step", fn)
        count = self.count

        def step(machine, event):
            before = machine.current
            status = wrapped(machine, event)
            if machine.current != before:
                count("testkit.step.advanced")
            return status

        return step

    def _step_world(self, fn):
        wrapped = self.span("world.step_world", fn)
        tracer = self

        def step_world(world, controller):
            if world.broker is not None:
                # queue depth sampled once per tick, before the tick publishes
                depth = max((q.buffered for q in world.broker.stats().queues.values()), default=0)
                t = tracer._thread()
                key = ("broker.queue.max_buffered", tracer.op)
                t.counts[key] = max(t.counts[key], depth)
            return wrapped(world, controller)

        return step_world

    def _world_publish(self, fn):
        wrapped = self.span("world.publish", fn)

        def publish(world, *args, **kwargs):
            if world.broker is None:
                # silent runs return at once; a span here would only add overhead
                return fn(world, *args, **kwargs)
            return wrapped(world, *args, **kwargs)

        return publish

    # -- install / uninstall ------------------------------------------------

    def _module(self, name: str):
        return getattr(self.package, name)

    def _patch_everywhere(self, original, wrapper) -> None:
        for mod_name in MODULES:
            mod = self._module(mod_name)
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def _patch_attr(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        for mod_name, fn_name in FUNCTIONS:
            original = getattr(self._module(mod_name), fn_name)
            self._patch_everywhere(original, self.span(f"{mod_name}.{fn_name}", original))
        step_world = self._module("world").step_world
        self._patch_everywhere(step_world, self._step_world(step_world))
        for mod_name, cls_name, meth in METHODS:
            cls = getattr(self._module(mod_name), cls_name)
            self._patch_attr(cls, meth, self.span(f"{mod_name}.{meth}", cls.__dict__[meth]))
        broker_cls = self._module("broker").Broker
        self._patch_attr(broker_cls, "publish", self._publish(broker_cls.__dict__["publish"]))
        self._patch_attr(broker_cls, "declare_queue",
                         self._declare_queue(broker_cls.__dict__["declare_queue"]))
        self._patch_attr(broker_cls, "close", self._close(broker_cls.__dict__["close"]))
        machine_cls = self._module("testkit").TestMachine
        self._patch_attr(machine_cls, "step", self._step(machine_cls.__dict__["step"]))
        world_cls = self._module("world").WorldState
        self._patch_attr(world_cls, "publish", self._world_publish(world_cls.__dict__["publish"]))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results --------------------------------------------------------------

    def columns(self):
        """All spans as numpy columns; ``parent`` indexes the same columns."""
        import numpy as np

        parts = {k: [] for k in ("name", "start", "end", "parent", "op", "thread")}
        offset = 0
        self._thread()  # at least one (possibly empty) buffer, so every column concatenates
        with self._lock:
            threads = list(self._threads)
        for tid, t in enumerate(threads):
            n = len(t.start)
            parent = np.frombuffer(t.parent, dtype=np.int32).astype(np.int64)
            parts["parent"].append(np.where(parent >= 0, parent + offset, -1))
            parts["name"].append(np.frombuffer(t.name, dtype=np.uint16).astype(np.int64))
            parts["start"].append(np.frombuffer(t.start, dtype=np.float64))
            parts["end"].append(np.frombuffer(t.end, dtype=np.float64))
            parts["op"].append(np.frombuffer(t.op, dtype=np.int32).astype(np.int64))
            parts["thread"].append(np.full(n, tid, dtype=np.int64))
            offset += n
        return {k: np.concatenate(v) for k, v in parts.items()}

    def counts(self) -> Counter:
        total: Counter = Counter()
        with self._lock:
            threads = list(self._threads)
        for t in threads:
            for key, value in t.counts.items():
                if key[0] == "broker.queue.max_buffered":
                    total[key] = max(total[key], value)
                else:
                    total[key] += value
        return total

    def save(self, path: str) -> None:
        import numpy as np

        np.savez(path, names=np.array(self.names), **self.columns())


def layer_metrics(tracer: Tracer, ops: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of ``ops`` traced ops (op ids 0 .. ops-1), with units.

    Self time is a span's duration minus the durations of its direct child
    spans.  ``us``/``ms`` figures are per call; ``/op`` figures are per op.
    ``<layer>.self_s`` sums the self time of the layer's spans per op, except
    ``broker.consume``, which is blocked waiting.  A layer that did not run
    reads 0.
    """
    import numpy as np

    c = tracer.columns()
    names = tracer.names
    keep = (c["op"] >= 0) & (c["op"] < ops)
    dur = c["end"] - c["start"]
    parent = c["parent"]
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    self_t = dur - child
    name = c["name"]
    parent_name = np.where(has_parent, name[np.where(has_parent, parent, 0)], -1)
    counts = tracer.counts()

    def nid(n):
        return names.index(n) if n in names else -1

    def sel(n):
        return keep & (name == nid(n))

    def calls(n):
        return int(sel(n).sum())

    def per_call(values, n, scale):
        s = sel(n)
        k = int(s.sum())
        return float(values[s].sum()) / k * scale if k else 0.0

    def total(values, n):
        return float(values[sel(n)].sum())

    def counted(key, combine=sum):
        return combine([v for (k, op), v in counts.items() if k == key and 0 <= op < ops] or [0])

    def ratio(a, b):
        return a / b if b else 0.0

    per_op = 1.0 / ops
    published = calls("broker.publish")
    events = published + calls("logmodel.parse_event_line")
    stats = [s for op, s in tracer.broker_stats if 0 <= op < ops]
    matched = sum(q.matched for s in stats for q in s.queues.values())
    offered = sum(s.published * len(s.queues) for s in stats)
    steps = calls("testkit.step")
    ticks = calls("world.step_world")

    consume_in_run = keep & (name == nid("broker.consume")) & (parent_name == nid("testkit.run"))
    tick_parents = [nid("world.step_world"), nid("world.sense"), nid("world.actuate")]
    publish_in_tick = sel("world.publish") & np.isin(parent_name, tick_parents)

    drains = []
    for op in range(ops):
        in_op = c["op"] == op
        runs = in_op & (name == nid("testkit.run"))
        evals = in_op & (name == nid("evolution.evaluate_solution"))
        if runs.any() and evals.any():
            drains.append(max(0.0, float(c["end"][runs].max() - c["end"][evals].max())))

    metrics = {
        "logmodel.make_log_event.self_us": (per_call(self_t, "logmodel.make_log_event", 1e6), "us"),
        "logmodel.routing_key.self_us": (per_call(self_t, "logmodel.routing_key", 1e6), "us"),
        "logmodel.routing_key.calls_per_event": (ratio(calls("logmodel.routing_key"), events), "calls/event"),
        "logmodel.serialize_event.self_us": (per_call(self_t, "logmodel.serialize_event", 1e6), "us"),
        "logmodel.parse_event_line.self_us": (per_call(self_t, "logmodel.parse_event_line", 1e6), "us"),
        "logmodel.load_tap.s": (per_call(dur, "logmodel.load_tap", 1.0), "s"),
        "broker.publish.self_us": (per_call(self_t, "broker.publish", 1e6), "us"),
        "broker.publish.bindings_scanned": (
            ratio(counted("broker.publish.bindings_scanned"), published), "bindings/publish"),
        "broker.publish.matched_ratio": (ratio(matched, offered), "ratio"),
        "broker.consume.calls": (calls("broker.consume") * per_op, "calls/op"),
        "broker.consume.wait_s": (total(dur, "broker.consume") * per_op, "s/op"),
        "broker.queue.max_buffered": (float(counted("broker.queue.max_buffered", max)), "events"),
        "broker.dropped": (sum(q.dropped for s in stats for q in s.queues.values()) * per_op, "events/op"),
        "broker.matches.self_us": (per_call(self_t, "broker.matches", 1e6), "us"),
        "testkit.step.calls": (steps * per_op, "calls/op"),
        "testkit.step.self_us": (per_call(self_t, "testkit.step", 1e6), "us"),
        "testkit.step.advance_ratio": (ratio(counted("testkit.step.advanced"), steps), "ratio"),
        "testkit.run.busy_s": ((total(dur, "testkit.run") - float(dur[consume_in_run].sum())) * per_op, "s/op"),
        "testkit.drain_s": (sum(drains) / len(drains) if drains else 0.0, "s/op"),
        "testkit.load_test_plan.ms": (per_call(dur, "testkit.load_test_plan", 1e3), "ms"),
        "testkit.merge_timeline.ms": (per_call(dur, "testkit.merge_timeline", 1e3), "ms"),
        "world.ticks": (ticks * per_op, "ticks/op"),
        "world.ticks_per_genome": (ratio(ticks, calls("world.run_episode")), "ticks/genome"),
        "world.step_world.self_ms_per_tick": (per_call(self_t, "world.step_world", 1e3), "ms"),
        "world.sense.self_us": (per_call(self_t, "world.sense", 1e6), "us"),
        "world.actuate.self_us": (per_call(self_t, "world.actuate", 1e6), "us"),
        "world.move_people.self_us": (per_call(self_t, "world.move_people", 1e6), "us"),
        "world.init_world.ms": (per_call(dur, "world.init_world", 1e3), "ms"),
        "world.publish_share": (ratio(float(dur[publish_in_tick].sum()), total(dur, "world.step_world")), "ratio"),
        "neural.decode.self_us": (per_call(self_t, "neural.decode", 1e6), "us"),
        "neural.forward_batch.calls": (calls("neural.forward_batch") * per_op, "calls/op"),
        "neural.forward_batch.self_us": (per_call(self_t, "neural.forward_batch", 1e6), "us"),
        "evolution.evaluations": (calls("evolution.fitness") * per_op, "genomes/op"),
        "evolution.run_episode.ms": (per_call(dur, "world.run_episode", 1e3), "ms"),
        "evolution.evolve_generation.self_ms": (per_call(self_t, "evolution.evolve_generation", 1e3), "ms"),
        "evolution.fitness.self_us": (per_call(self_t, "evolution.fitness", 1e6), "us"),
        "evolution.evaluate_solution.ms": (per_call(dur, "evolution.evaluate_solution", 1e3), "ms"),
        "cli.main.self_ms": (per_call(self_t, "cli.main", 1e3), "ms"),
    }
    for layer in ("logmodel", "broker", "testkit", "world", "neural", "evolution", "cli"):
        ids = [i for i, n in enumerate(names)
               if n.split(".", 1)[0] == layer and n != "broker.consume"]
        metrics[f"{layer}.self_s"] = (float(self_t[keep & np.isin(name, ids)].sum()) * per_op, "s/op")
    return metrics
