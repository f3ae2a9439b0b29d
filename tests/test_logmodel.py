import pytest
from hypothesis import example, given, strategies as st

from masharness.logmodel import (
    MAX_KEY_BYTES,
    EventClock,
    InvalidPattern,
    InvalidTag,
    KeyTooLong,
    LogEvent,
    make_log_event,
    parse_binding_pattern,
    parse_event_line,
    _check_word,
    routing_key,
    serialize_event,
)


def sample_event(**overrides):
    clock = overrides.pop("clock", EventClock())
    kwargs = dict(
        agentType="lightContainer",
        agentName="node10",
        action="readLightSensor",
        typeLog="info",
        sourceUnit="Light",
        sourceOperation="sense",
        sourceLine=42,
        resource="lightSensor",
        message="level=0.050000",
        clock=clock,
    )
    kwargs.update(overrides)
    return make_log_event(**kwargs)


class TestMakeLogEvent:
    def test_routing_key_has_eight_segments_in_tag_order(self):
        event = sample_event()
        assert routing_key(event).encode() == (
            "lightContainer.node10.readLightSensor.info.Light.sense.42.lightSensor"
        )

    def test_type_log_is_normalised_to_lower_case(self):
        event = sample_event(typeLog="ERROR")
        assert event.typeLog == "error"

    @pytest.mark.parametrize("bad", ["", "a.b", "with space", "star*", "hash#", "a\tb"])
    def test_tags_with_reserved_characters_are_rejected(self, bad):
        with pytest.raises(InvalidTag):
            sample_event(agentName=bad)

    @pytest.mark.parametrize("bad", ["fatal", "debug", ""])
    def test_unknown_type_log_is_rejected(self, bad):
        with pytest.raises(InvalidTag):
            sample_event(typeLog=bad)

    def test_negative_source_line_is_rejected(self):
        with pytest.raises(InvalidTag):
            sample_event(sourceLine=-1)

    def test_newline_in_message_is_rejected(self):
        with pytest.raises(InvalidTag):
            sample_event(message="two\nlines")

    def test_message_may_contain_dots_and_wildcard_characters(self):
        event = sample_event(message="energy=0.42 vs #target *really*")
        assert "0.42" in event.message

    def test_over_long_key_is_rejected(self):
        with pytest.raises(KeyTooLong):
            sample_event(agentName="n" * MAX_KEY_BYTES)

    def test_timestamps_strictly_increase_per_clock(self):
        clock = EventClock()
        stamps = [sample_event(clock=clock).timestamp for _ in range(10)]
        assert stamps == sorted(stamps)
        assert len(set(stamps)) == len(stamps)


class TestEventClock:
    def test_starts_at_zero(self):
        assert EventClock().next_timestamp() == 0

    def test_advance_to_sets_a_floor(self):
        clock = EventClock()
        clock.next_timestamp()
        clock.advance_to(1_000_000)
        assert clock.next_timestamp() == 1_000_000

    def test_advance_backwards_is_ignored(self):
        clock = EventClock(start=500)
        clock.advance_to(100)
        assert clock.next_timestamp() == 500

    def test_tick_recovered_from_timestamp(self):
        clock = EventClock()
        clock.advance_to(3 * 1_000_000)
        event = sample_event(clock=clock)
        assert event.tick == 3


class TestBindingPatternParsing:
    @pytest.mark.parametrize(
        "text,segments",
        [
            ("a.b.c", ("a", "b", "c")),
            ("*.b.#", ("*", "b", "#")),
            ("#", ("#",)),
            ("Observer.*.*.error.#", ("Observer", "*", "*", "error", "#")),
        ],
    )
    def test_parse_splits_on_dots(self, text, segments):
        assert parse_binding_pattern(text).segments == segments

    @pytest.mark.parametrize("bad", ["", "a..b", ".a", "a.", "a.b*", "a.#b", "x*y"])
    def test_malformed_patterns_are_rejected(self, bad):
        with pytest.raises(InvalidPattern):
            parse_binding_pattern(bad)

    def test_over_long_pattern_is_rejected(self):
        with pytest.raises(InvalidPattern):
            parse_binding_pattern(".".join(["seg"] * 80))

    @given(
        st.lists(
            st.one_of(
                st.sampled_from(["*", "#"]),
                st.text(alphabet="abcXYZ09_-", min_size=1, max_size=8),
            ),
            min_size=1,
            max_size=8,
        )
    )
    def test_parse_round_trips_encode(self, segments):
        pattern = parse_binding_pattern(".".join(segments))
        assert parse_binding_pattern(pattern.encode()) == pattern


class TestSerialization:
    def test_line_format_is_key_timestamp_message(self):
        event = sample_event()
        line = serialize_event(event)
        key, ts, message = line.split("\t", 2)
        assert key == routing_key(event).encode()
        assert int(ts) == event.timestamp
        assert message == event.message

    def test_round_trip(self):
        event = sample_event(message="x=1 y=2.5 #tag *")
        assert parse_event_line(serialize_event(event)) == event

    def test_round_trip_empty_message(self):
        event = sample_event(message="")
        assert parse_event_line(serialize_event(event)) == event

    def test_message_with_tabs_round_trips(self):
        event = sample_event(message="a\tb\tc")
        assert parse_event_line(serialize_event(event)).message == "a\tb\tc"

    @pytest.mark.parametrize(
        "bad",
        [
            "only-one-field",
            "a.b.c\t12\tmsg",  # key too short
            "a.b.c.info.U.op.42.r\tnotanint\tmsg",
            "a.b.c.fatal.U.op.42.r\t1\tmsg",  # bad typeLog
            "a.b.c.info.U.op.xx.r\t1\tmsg",  # non-numeric line tag
        ],
    )
    def test_malformed_lines_are_rejected(self, bad):
        from masharness.logmodel import LogModelError

        with pytest.raises(LogModelError):
            parse_event_line(bad)


def per_character_check(name, value):
    """The word check as written before it had a memo."""
    if not isinstance(value, str) or not value:
        raise InvalidTag(f"{name} must be a non-empty string, got {value!r}")
    if "." in value:
        raise InvalidTag(f"{name} may not contain '.': {value!r}")
    if "*" in value or "#" in value:
        raise InvalidTag(f"{name} may not contain wildcard characters: {value!r}")
    if any(c.isspace() for c in value):
        raise InvalidTag(f"{name} may not contain whitespace: {value!r}")
    return value


def outcome(check, name, value):
    try:
        return ("accepted", check(name, value))
    except Exception as exc:
        return (type(exc), str(exc))


WORDS = st.one_of(
    st.text(max_size=6),
    st.text(alphabet="ab.*# \t\u00a0\u2028\u3000", max_size=4),
    st.sampled_from(["node10", "ok", ""]),
    st.none(),
    st.integers(),
    st.binary(max_size=3),
    st.lists(st.text(max_size=2), max_size=2),
)


class TestWordMemo:
    @given(WORDS, st.sampled_from(["agentName", "key segment"]))
    @example("a\u00a0b", "agentName")
    @example("\u2028", "agentName")
    @example("x\u3000", "key segment")
    @example(None, "agentName")
    def test_memo_agrees_with_the_per_character_check(self, value, name):
        expected = outcome(per_character_check, name, value)
        assert outcome(_check_word, name, value) == expected
        # the second call may be answered from the memo
        assert outcome(_check_word, name, value) == expected

    def test_repeated_key_is_the_memoised_key(self):
        assert routing_key(sample_event()) is routing_key(sample_event())

    def test_unhashable_tag_is_an_invalid_tag(self):
        event = LogEvent("t", ["n"], "a", "info", "U", "op", 1, "r", timestamp=0)
        with pytest.raises(InvalidTag):
            routing_key(event)
