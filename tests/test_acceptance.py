"""Acceptance gate: ten checks, one per shipped guarantee.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one verdict line
per criterion.  Each check is self-contained and uses only public entry
points plus the independent oracles in oracles.py.
"""

import itertools
import math
import random
import threading
import time
from dataclasses import replace

from masharness.broker import Broker, QueueClosed, matches
from masharness.cli import data_path, main
from masharness.evolution import GAConfig, fitness, run_observer
from masharness.logmodel import EventClock, make_log_event, parse_binding_pattern
from masharness.testkit import (
    TestCase,
    TransitionSpec,
    compile as compile_machine,
    load_test_plan,
    merge_timeline,
    run as run_machine,
)
from masharness.world import (
    EpisodeMetrics,
    WorldConfig,
    load_world_config,
    seeds_with_light_on_route,
)

from oracles import oracle_matches, oracle_run_machine


def test_criterion_01_matcher_equals_regex_oracle():
    words = ("a", "b", "c")
    pattern_symbols = words + ("*", "#")
    started = time.monotonic()
    checked = 0
    keys = [
        ".".join(combo)
        for length in range(1, 5)
        for combo in itertools.product(words, repeat=length)
    ]
    for length in range(1, 5):
        for combo in itertools.product(pattern_symbols, repeat=length):
            pattern = ".".join(combo)
            for key in keys:
                assert matches(pattern, key) == oracle_matches(pattern, key), (
                    f"disagreement on pattern={pattern!r} key={key!r}"
                )
                checked += 1
    elapsed = time.monotonic() - started
    assert checked == 780 * 120
    assert elapsed < 30.0
    print(f"criterion 1 PASS: matcher == regex oracle on all {checked} pairs in {elapsed:.2f}s")


def test_criterion_02_fitness_formula_is_exact():
    assert fitness(EpisodeMetrics(1.0, 0.0, 0.0)).fitness == 1.0
    assert fitness(EpisodeMetrics(0.0, 1.0, 1.0)).fitness == -1.0
    rng = random.Random(20260814)
    for _ in range(10_000):
        people, trip, energy = (rng.uniform(0.0, 1.0) for _ in range(3))
        got = fitness(EpisodeMetrics(people, trip, energy)).fitness
        expected = 1.0 * people - 0.6 * trip - 0.4 * energy
        assert abs(got - expected) <= math.ulp(max(abs(expected), 1.0))
    print("criterion 2 PASS: fitness matches the weighted sum within 1 ulp on 10000 triples")


def test_criterion_03_shipped_plan_passes_fault_free(tmp_path, capsys):
    cases = load_test_plan(data_path("default_plan.txt"))
    assert len(cases) == 7
    assert sum(1 for c in cases if c.level == "local") == 6
    assert sum(1 for c in cases if c.level == "global") == 1
    started = time.monotonic()
    code = main([
        "test",
        "--manifest", str(tmp_path / "manifest.txt"),
        "--tap", str(tmp_path / "tap.log"),
    ])
    elapsed = time.monotonic() - started
    out = capsys.readouterr().out
    verdicts = [line for line in out.splitlines() if line.startswith("VERDICT ")]
    assert code == 0
    assert len(verdicts) == 7
    assert all(line.split()[2] == "PASS" for line in verdicts)
    assert elapsed < 10.0
    print(f"criterion 3 PASS: all 7 machines pass fault-free, exit 0, in {elapsed:.2f}s")


def test_criterion_04_go_dark_failure_localization(tmp_path, capsys):
    config = load_world_config(data_path("world.cfg"))
    seeds = seeds_with_light_on_route(config, "node10", 5)
    for seed in seeds:
        code = main([
            "test",
            "--fault", "go-dark:node10",
            "--seed", str(seed),
            "--manifest", str(tmp_path / "manifest.txt"),
            "--tap", str(tmp_path / f"tap{seed}.log"),
        ])
        out = capsys.readouterr().out
        assert code == 1, f"seed {seed}: expected exit 1, got {code}"
        assert "VERDICT switch-light-on FAIL switchLightON" in out, f"seed {seed}"
        block = out.split("test switch-light-on: FAIL", 1)[1]
        assert block.splitlines()[1].strip() == "failed at state: switchLightON"
        assert "missing: lightContainer.node10.detectLight.#" in block
        assert "VERDICT evaluate-solution FAIL" in out, f"seed {seed}"
        global_block = out.split("test evaluate-solution: FAIL", 1)[1]
        missing_line = next(
            line for line in global_block.splitlines() if "missing:" in line
        )
        assert "OBSERVER.*.achievePeopleTarget.#" in missing_line, f"seed {seed}"
    print(
        "criterion 4 PASS: go-dark:node10 fails switch-light-on at switchLightON "
        f"(missing detectLight) and the global machine misses achievePeopleTarget "
        f"on seeds {seeds}"
    )


def test_criterion_05_shipped_genome_meets_global_targets(tmp_path, capsys):
    code = main([
        "simulate",
        "--manifest", str(tmp_path / "manifest.txt"),
        "--tap", str(tmp_path / "tap.log"),
    ])
    out = capsys.readouterr().out
    assert code == 0
    values = dict(
        line.split("=", 1) for line in out.splitlines() if "=" in line
    )
    p_people = float(values["pPeople"])
    p_energy = float(values["pEnergy"])
    assert p_people == 1.0
    assert p_energy < 0.70
    print(
        f"criterion 5 PASS: shipped genome delivers pPeople={p_people:.6f}, "
        f"pEnergy={p_energy:.6f} < 0.70"
    )


def test_criterion_06_elitism_keeps_best_fitness_monotone():
    world = WorldConfig(
        gridWidth=3, gridHeight=3, wirelessRange=1, numPeople=2, maxTicks=15,
        ambientLight=0.05, lightBrightness=0.8, darkThreshold=0.15,
        rngSeed=11,
    )
    ga = GAConfig()  # default knobs: population 40, 30 generations, elitism 2
    for seed in range(1, 6):
        result = run_observer(world, replace(ga, rngSeed=seed))
        best = [stats.best for stats in result.history]
        assert len(best) == ga.generations
        assert best == sorted(best), f"seed {seed}: best fitness regressed"
    print("criterion 6 PASS: per-generation best fitness non-decreasing on 5 seeds")


def test_criterion_07_identical_flags_identical_taps(tmp_path, capsys):
    taps = []
    for name in ("first.log", "second.log"):
        tap = tmp_path / name
        code = main([
            "simulate",
            "--manifest", str(tmp_path / "manifest.txt"),
            "--tap", str(tap),
        ])
        assert code == 0
        taps.append(tap.read_bytes())
    capsys.readouterr()
    assert taps[0] == taps[1]
    assert taps[0]
    print(f"criterion 7 PASS: two identical runs wrote byte-identical taps ({len(taps[0])} bytes)")


def test_criterion_08_verdicts_agree_with_subsequence_oracle():
    alphabet = ["a", "b", "c", "d"]
    rng = random.Random(424242)

    def random_pattern():
        return ".".join(
            rng.choice(alphabet + ["*", "#"]) for _ in range(rng.randint(1, 3))
        )

    checked = 0
    failures_seen = 0
    for _ in range(1000):
        clock = EventClock()
        pattern_lists = [
            [random_pattern() for _ in range(rng.randint(1, 2))]
            for _ in range(rng.randint(1, 4))
        ]
        case = TestCase(
            functionName="fuzz",
            level="local",
            subLevel="scenario",
            validationSequence=tuple(
                TransitionSpec(
                    alternatives=tuple(parse_binding_pattern(p) for p in alts)
                )
                for alts in pattern_lists
            ),
        )
        machine = compile_machine(case)
        inline = compile_machine(case)
        # agentType, agentName, action, resource: the words of each event's key
        drawn = [tuple(rng.choice(alphabet) for _ in range(4)) for _ in range(rng.randint(0, 12))]
        events = [
            make_log_event(
                agentType, agentName, action, "info", sourceUnit="U", sourceOperation="op",
                sourceLine=1, resource=resource, clock=clock,
            )
            for agentType, agentName, action, resource in drawn
        ]
        broker = Broker()
        bindings = []
        for alts in pattern_lists:
            for alt in alts:
                if alt not in bindings:
                    bindings.append(alt)
        queue = broker.declare_queue("fuzz", bindings + ["#"])
        broker.subscribe("fuzz-inline", bindings + ["#"], inline.offer)
        for event in events:
            broker.publish(event)
        broker.close()
        verdict = run_machine(machine, queue)
        inline_verdict = inline.finish()
        for field in ("outcome", "failedState", "elapsed", "seen"):
            assert getattr(inline_verdict, field) == getattr(verdict, field), field

        keys = [f"{t}.{n}.{a}.info.U.op.1.{r}" for t, n, a, r in drawn]
        passed, fired = oracle_run_machine(pattern_lists, keys, oracle_matches)
        assert verdict.passed == passed
        if not passed:
            assert verdict.failedState == machine.states[fired]
            failures_seen += 1
        checked += 1
    assert failures_seen > 100  # the fuzz must actually exercise failure paths
    print(
        f"criterion 8 PASS: run() and the inline subscriber agreed with the "
        f"subsequence oracle on {checked} random plans ({failures_seen} failing "
        "cases localized identically)"
    )


def test_criterion_09_timeline_merge_is_ordered_and_stable():
    rng = random.Random(99)
    rounds = 100
    for _ in range(rounds):
        streams = []
        tagged = []
        for stream_index in range(rng.randint(1, 5)):
            clock = EventClock()
            stamps = sorted(rng.randint(0, 20) for _ in range(rng.randint(0, 20)))
            stream = []
            for event_index, stamp in enumerate(stamps):
                event = make_log_event(
                    "lightContainer", f"s{stream_index}", "ping", "info",
                    sourceUnit="U", sourceOperation="op", sourceLine=1,
                    resource="r", message=f"{stream_index}:{event_index}",
                    clock=clock,
                )
                event = replace(event, timestamp=stamp)
                stream.append(event)
            streams.append(stream)
            tagged.extend(stream)
        merged = merge_timeline(*streams)
        stamps = [e.timestamp for e in merged]
        assert stamps == sorted(stamps)
        expected = sorted(tagged, key=lambda e: e.timestamp)  # stable reference
        assert [e.message for e in merged] == [e.message for e in expected]
    print(f"criterion 9 PASS: merged timelines ordered and tie-stable over {rounds} rounds")


def test_criterion_10_broker_fifo_and_isolation_under_load():
    n_publishers, per_publisher = 8, 1250
    actions = ("alpha", "beta", "gamma", "delta")
    broker = Broker()
    queues = {a: broker.declare_queue(a, [f"*.*.{a}.#"]) for a in actions}
    received = {a: [] for a in actions}
    expected = {a: set() for a in actions}

    def consume(action):
        queue = queues[action]
        while True:
            try:
                event = queue.consume(None)
            except QueueClosed:
                return
            if event is None:
                return
            received[action].append(event.message)

    def publish(publisher_id):
        publisher = broker.publisher("lightContainer", f"pub{publisher_id}")
        for i in range(per_publisher):
            publisher.log(
                actions[i % len(actions)],
                sourceUnit="U", sourceOperation="op", sourceLine=1,
                resource="r", message=f"{publisher_id}:{i}",
            )

    for publisher_id in range(n_publishers):
        for i in range(per_publisher):
            expected[actions[i % len(actions)]].add(f"{publisher_id}:{i}")

    consumers = [threading.Thread(target=consume, args=(a,)) for a in actions]
    publishers = [threading.Thread(target=publish, args=(i,)) for i in range(n_publishers)]
    for thread in consumers + publishers:
        thread.start()
    for thread in publishers:
        thread.join()
    broker.close()
    for thread in consumers:
        thread.join()

    total = sum(len(msgs) for msgs in received.values())
    assert total == n_publishers * per_publisher
    for action in actions:
        assert set(received[action]) == expected[action]  # nothing lost or leaked
        per_source = {}
        for message in received[action]:
            source, index = message.split(":")
            index = int(index)
            assert per_source.get(source, -1) < index  # FIFO per publisher
            per_source[source] = index
    print(
        f"criterion 10 PASS: {total} events across {len(actions)} queues delivered "
        "complete, isolated, and in FIFO order"
    )
