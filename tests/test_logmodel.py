import dataclasses
import io

import pytest
from hypothesis import example, given, settings, strategies as st

from masharness import logmodel
from masharness.logmodel import (
    LOG_TYPES,
    MAX_KEY_BYTES,
    MEMO_SIZE,
    EventClock,
    InvalidPattern,
    InvalidTag,
    KeyTooLong,
    LogEvent,
    LogModelError,
    RoutingKey,
    load_tap,
    make_log_event,
    parse_binding_pattern,
    parse_event_line,
    parse_tap_line,
    _check_word,
    event_key,
    keyed_event,
    read_tap,
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

    def test_message_that_does_not_encode_as_utf8_is_rejected(self):
        with pytest.raises(InvalidTag, match="must encode as UTF-8"):
            sample_event(message="x\ud800")
        assert sample_event(message="caf\u00e9 \U0001f4a1").message == "caf\u00e9 \U0001f4a1"

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

    def test_start_below_zero_is_refused(self):
        # a tap line's timestamp is decimal digits, so -3 would not read back
        with pytest.raises(LogModelError, match="^clock start must be >= 0, got -3$"):
            EventClock(-3)

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
        with pytest.raises(InvalidTag):
            event_key("t", ["n"], "a", sourceUnit="U", sourceOperation="op", sourceLine=1,
                      resource="r")
        with pytest.raises(InvalidTag):
            LogEvent(RoutingKey(("t", ["n"], "a", "info", "U", "op", "1", "r")), timestamp=0)


def reference_parse_event_line(line):
    """The tap line parser as written before it had a key memo, with its
    numeric fields limited to decimal digits (no sign, space or underscore)."""
    line = line.rstrip("\n")
    parts = line.split("\t", 2)
    if len(parts) != 3:
        raise LogModelError(f"expected key<TAB>timestamp<TAB>message, got {line!r}")
    key_text, ts_text, message = parts
    segments = key_text.split(".")
    if len(segments) != 8:
        raise LogModelError(f"routing key must have 8 segments, got {key_text!r}")
    if not ts_text.isdecimal():
        raise LogModelError(f"bad timestamp {ts_text!r}")
    timestamp = int(ts_text)
    if not segments[6].isdecimal():
        raise LogModelError(f"bad sourceLine segment {segments[6]!r}")
    segments[6] = str(int(segments[6]))
    if segments[3] not in LOG_TYPES:
        raise LogModelError(f"bad typeLog segment {segments[3]!r}")
    return LogEvent(RoutingKey(tuple(segments)), timestamp, message)


def parsed(parse, line):
    try:
        return ("accepted", parse(line))
    except Exception as exc:
        return (type(exc), str(exc))


KEY_WORDS = st.text(alphabet="abcXYZ09_-", min_size=1, max_size=8)
BAD_WORDS = st.sampled_from(["a b", "x\u00a0y", "*", "#", "n*", "#x", "", "\u3000"])
LINE_TAGS = st.one_of(
    st.integers(0, 10**6).map(str),
    st.sampled_from(["007", "0", "\u0663", "\uff17", "-1", " 12", "1_0", "4x", ""]),
)
TIMESTAMPS = st.one_of(
    st.integers(0, 2**40).map(str),
    st.sampled_from(["notanint", "", "+5", " 7 ", "1_000", "\u0663", "1.5", "0x10"]),
)
TYPE_LOGS = st.one_of(st.sampled_from(LOG_TYPES), st.sampled_from(["fatal", "INFO", ""]))


@st.composite
def tap_lines(draw):
    """A line built from a valid key, with some of its parts made malformed."""
    words = draw(st.lists(KEY_WORDS, min_size=8, max_size=8))
    words[3] = draw(TYPE_LOGS)
    words[6] = draw(LINE_TAGS)
    for i in draw(st.lists(st.sampled_from([0, 1, 2, 4, 5, 7]), max_size=2)):
        words[i] = draw(BAD_WORDS)
    if draw(st.booleans()):
        words[1] = "n" * draw(st.integers(230, MAX_KEY_BYTES))
    count = draw(st.sampled_from([8, 8, 8, 7, 9]))
    words = (words + ["extra"])[:count]
    message = draw(st.text(alphabet="ab .*#\t=", max_size=12))
    fields = [".".join(words), draw(TIMESTAMPS), message][: draw(st.sampled_from([3, 3, 3, 2]))]
    return "\t".join(fields) + draw(st.sampled_from(["", "\n", "\n\n"]))


class TestMemoisedTapParser:
    @given(tap_lines())
    @example("a.b.c.info.U.op.007.r\t5\tmsg")
    @example("a.b.c.info.U.op.\u0663.r\t5\tmsg")
    @example("a.b.c.info.U.op.42.r\tnotanint\tmsg")
    @example("a.b.c.fatal.U.op.42.r\t1\tmsg")
    @example("a.b.c.info.U.op.42\t1\tmsg")
    @example("a.b.c.info.U.op.42.r.s\t1\tmsg")
    @example("a.b c.c.info.U.op.42.r\t1\tmsg")
    @example("a.*.c.info.U.op.42.r\t1\tmsg")
    @example("a." + "n" * MAX_KEY_BYTES + ".c.info.U.op.42.r\t1\tmsg")
    @example("a.b.c.info.U.op.42.r\t1\ta\tb\tc")
    @example("a.b.c\tnotanint\tmsg")
    def test_agrees_with_the_reference_on_first_and_repeat_calls(self, line):
        expected = parsed(reference_parse_event_line, line)
        assert parsed(parse_event_line, line) == expected
        # the repeat call may be answered from the key memo
        assert parsed(parse_event_line, line) == expected

    def test_key_text_is_normalised(self):
        key, timestamp, message = parse_tap_line("a.b.c.info.U.op.007.r\t5\tm\n")
        assert (key.line, key.text, timestamp, message) == (7, "a.b.c.info.U.op.7.r", 5, "m")
        assert key == event_key("a", "b", "c", sourceUnit="U", sourceOperation="op",
                                sourceLine=7, resource="r")
        assert key is routing_key(parse_event_line("a.b.c.info.U.op.7.r\t1\tm"))

    def test_memo_stays_within_its_bound(self):
        for i in range(MEMO_SIZE + 100):
            parse_tap_line(f"a.b.c.info.U.op.{i}.r\t{i}\tm")
        assert 0 < len(logmodel._tap_keys) <= MEMO_SIZE


class TestReadTap:
    def test_skips_blank_lines(self, tmp_path):
        tap = tmp_path / "t.log"
        tap.write_text("a.b.c.info.U.op.1.r\t1\tm\n\n  \na.b.c.info.U.op.2.r\t2\tn\n")
        assert [ts for _, ts, _ in read_tap(tap)] == [1, 2]
        assert [e.sourceLine for e in load_tap(tap)] == [1, 2]

    @pytest.mark.parametrize(
        "bad,error",
        [
            ("a.b.c.info.U.op.4.r\tnotanint\tm", LogModelError),
            ("a.b.c.info.U.op.4\t1\tm", LogModelError),
            ("a.b c.c.info.U.op.4.r\t1\tm", InvalidTag),
            ("a." + "n" * MAX_KEY_BYTES + ".c.info.U.op.4.r\t1\tm", KeyTooLong),
        ],
    )
    def test_errors_name_the_file_and_line(self, tmp_path, bad, error):
        tap = tmp_path / "t.log"
        tap.write_text(f"a.b.c.info.U.op.4.r\t1\tm\n\n{bad}\n")
        message = parsed(parse_event_line, bad)[1]
        for read in (load_tap, lambda path: list(read_tap(path))):
            with pytest.raises(error) as err:
                read(tap)
            assert type(err.value) is error
            assert str(err.value) == f"tap {tap} line 3: {message}"


    @pytest.mark.parametrize("bad,message", [
        ("a.b.c.info.U.op.-1.r\t1\tm", "bad sourceLine segment '-1'"),
        ("a.b.c.info.U.op.+3.r\t1\tm", "bad sourceLine segment '+3'"),
        ("a.b.c.info.U.op.4.r\t+5\tm", "bad timestamp '+5'"),
        ("a.b.c.info.U.op.4.r\t 7 \tm", "bad timestamp ' 7 '"),
        ("a.b.c.info.U.op.4.r\t1_000\tm", "bad timestamp '1_000'"),
        ("a.b.c.info.U.op.4.r\t-2\tm", "bad timestamp '-2'"),
    ])
    def test_numbers_are_decimal_digits_only(self, tmp_path, bad, message):
        tap = tmp_path / "t.log"
        tap.write_text(f"a.b.c.info.U.op.4.r\t1\tm\n{bad}\n")
        with pytest.raises(LogModelError) as err:
            load_tap(tap)
        assert str(err.value) == f"tap {tap} line 2: {message}"

    @pytest.mark.parametrize("bad,message", [
        ("a.b.c.info.U.op.4.r\t" + "9" * 5000 + "\tm", "bad timestamp of 5000 digits"),
        ("a.b.c.info.U.op." + "9" * 5000 + ".r\t1\tm", "bad sourceLine segment of 5000 digits"),
    ], ids=["timestamp", "sourceLine"])
    def test_numbers_past_the_int_digit_limit_are_named(self, tmp_path, bad, message):
        tap = tmp_path / "t.log"
        tap.write_text(f"a.b.c.info.U.op.4.r\t1\tm\n{bad}\n")
        for read in (load_tap, lambda path: list(read_tap(path))):
            with pytest.raises(LogModelError) as err:
                read(tap)
            assert str(err.value) == f"tap {tap} line 2: {message}"

    def test_leading_zeros_and_unicode_digits_still_read(self, tmp_path):
        tap = tmp_path / "t.log"
        tap.write_text("a.b.c.info.U.op.007.r\t0012\tm\na.b.c.info.U.op.\u0663.r\t\uff17\tn\n")
        assert [(e.sourceLine, e.timestamp) for e in load_tap(tap)] == [(7, 12), (3, 7)]



def reference_read_tap(path):
    """The tap reader as written before it had an inline path: every non-blank
    line goes through parse_tap_line, and nothing is filtered."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            for lineno, raw in enumerate(fh, 1):
                if raw.strip():
                    yield parse_tap_line(raw)
        except UnicodeDecodeError as exc:
            raise LogModelError(f"tap {path} is not UTF-8 text: {exc.reason}") from None
        except LogModelError as exc:
            raise type(exc)(f"tap {path} line {lineno}: {exc}") from None


def read_all(records):
    """The records an iterator yields, then the class and message of the error
    that ends it (None if it ends cleanly)."""
    got = []
    try:
        for record in records:
            got.append(record)
    except Exception as exc:
        return got, (type(exc), str(exc))
    return got, None


AGENTS = ("a", "lightContainer", "OBSERVER")
TAP_KEY_TEXTS = st.builds(
    "{}.n.act.{}.U.op.{}.r".format,
    st.sampled_from(AGENTS),
    st.sampled_from(LOG_TYPES + ("fatal",)),
    st.sampled_from(["1", "7", "007", "42", "٣", "７"]),
)
TAP_TIMESTAMPS = st.one_of(
    st.integers(0, 10**6).map(str),
    st.sampled_from(["9" * 18, "1" + "0" * 18, "9" * 5000, "0012", "７", "+5", "-2",
                     " 7", "7 ", "1_0", "", "x"]),
)
TAP_MESSAGES = st.text(alphabet="ab .=#\t", max_size=8)


@st.composite
def tap_bytes(draw):
    """A tap file: valid lines over a few repeated keys, mixed with malformed,
    two-field and blank lines, LF/CRLF/CR ends and, sometimes, a non-UTF-8 tail."""
    lines = []
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(["line", "line", "line", "two", "blank", "other"]))
        if kind == "line":  # three fields, or four and more when the message holds tabs
            text = f"{draw(TAP_KEY_TEXTS)}\t{draw(TAP_TIMESTAMPS)}\t{draw(TAP_MESSAGES)}"
        elif kind == "two":
            text = f"{draw(TAP_KEY_TEXTS)}\t{draw(TAP_TIMESTAMPS)}"
        elif kind == "blank":
            text = draw(st.sampled_from(["", " ", " \t \t ", "\t", "\t\t", "　"]))
        else:
            text = draw(tap_lines()).rstrip("\n")
        lines.append(text + draw(st.sampled_from(["\n", "\n", "\r\n", "\r", ""])))
    data = "".join(lines).encode("utf-8")
    if draw(st.integers(0, 5)) == 0:
        data += b"a.n.act.info.U.op.1.r\t1\t\xff\xfe\n"
    return data


@pytest.fixture(scope="module")
def scratch_tap(tmp_path_factory):
    return tmp_path_factory.mktemp("inline") / "t.log"


class TestInlineTapReader:
    @settings(max_examples=100, deadline=None)
    @example(b"a.n.act.info.U.op.1.r\t" + b"9" * 19 + b"\tm\n", frozenset(AGENTS), True)
    @example(b"a.n.act.info.U.op.1.r\t5\tm\r\na.n.act.info.U.op.1.r\t 6\tm\n", frozenset("a"), False)
    @example(b"a.n.act.info.U.op.007.r\t5\tm\na.n.act.info.U.op.7.r\t6\ta\tb\n", frozenset(), True)
    @example(b" \t \t \n\na.n.act.info.U.op.1.r\t5\n", frozenset(AGENTS), False)
    @given(tap_bytes(), st.frozensets(st.sampled_from(AGENTS)), st.booleans())
    def test_agrees_with_the_reference_reader(self, scratch_tap, data, agents, cold):
        tap = scratch_tap
        tap.write_bytes(data)
        calls = []

        def keep(key):
            calls.append(key)
            return key.segments[0] in agents

        if cold:  # no key text of the tap is known before the readers run
            logmodel._tap_keys.clear()
            unfiltered, filtered = read_all(read_tap(tap)), read_all(read_tap(tap, keep))
            expected = read_all(reference_read_tap(tap))
        else:
            expected = read_all(reference_read_tap(tap))
            unfiltered, filtered = read_all(read_tap(tap)), read_all(read_tap(tap, keep))
        assert unfiltered == expected
        records, error = expected
        assert filtered == ([r for r in records if r[0].segments[0] in agents], error)
        # keep is asked once per distinct key text: of every line when the tap reads cleanly
        key_texts = {raw.split("\t", 1)[0]
                     for raw in io.StringIO(data.decode("utf-8", "replace"), newline=None)
                     if raw.strip()}
        assert len(calls) == len(key_texts) if error is None else len(calls) <= len(key_texts)

    def test_keep_is_asked_once_per_key_text(self, tmp_path):
        tap = tmp_path / "t.log"
        tap.write_text("".join(f"a.b.c.info.U.op.{tag}.r\t{i}\tm\n"
                               for i, tag in enumerate(["1", "2", "1", "007", "2", "7", "7"])))
        asked = []
        records = list(read_tap(tap, lambda key: asked.append(key.text) or key.segments[6] != "2"))
        assert asked == ["a.b.c.info.U.op.1.r", "a.b.c.info.U.op.2.r", "a.b.c.info.U.op.7.r",
                         "a.b.c.info.U.op.7.r"]  # 007 and 7 are two key texts
        assert [ts for _, ts, _ in records] == [0, 2, 3, 5, 6]

    def test_records_before_a_malformed_line_come_first(self, tmp_path):
        tap = tmp_path / "t.log"
        tap.write_text("a.b.c.info.U.op.1.r\t1\tm\na.b.c.info.U.op.2.r\t2\tn\n"
                       "a.b.c.info.U.op.1.r\t+3\tm\n")
        for keep in (None, lambda key: key.segments[6] == "2"):
            records = read_tap(tap, keep)
            assert next(records)[1] == (1 if keep is None else 2)
            if keep is None:
                assert next(records)[1] == 2
            with pytest.raises(LogModelError, match=r"line 3: bad timestamp '\+3'$"):
                next(records)

    def test_unkept_lines_are_still_checked(self, tmp_path):
        tap = tmp_path / "t.log"
        tap.write_text("a.b.c.info.U.op.1.r\t1\tm\na.b.c.info.U.op.1.r\tx\tm\n")
        with pytest.raises(LogModelError, match=r"line 2: bad timestamp 'x'$"):
            list(read_tap(tap, lambda key: False))


def reference_make_log_event(agentType, agentName, action, typeLog="info", *, sourceUnit,
                             sourceOperation, sourceLine, resource, message="", clock):
    """make_log_event as written before keys were interned."""
    typeLog = typeLog.lower()
    if typeLog not in LOG_TYPES:
        raise InvalidTag(f"typeLog must be one of {LOG_TYPES}, got {typeLog!r}")
    for name, value in (("agentType", agentType), ("agentName", agentName), ("action", action),
                        ("sourceUnit", sourceUnit), ("sourceOperation", sourceOperation),
                        ("resource", resource)):
        per_character_check(name, value)
    if not isinstance(sourceLine, int) or isinstance(sourceLine, bool) or sourceLine < 0:
        raise InvalidTag(f"sourceLine must be a non-negative int, got {sourceLine!r}")
    if not isinstance(message, str):
        raise InvalidTag(f"message must be a string, got {message!r}")
    if "\n" in message or "\r" in message:
        raise InvalidTag("message may not contain newlines")
    segments = (agentType, agentName, action, typeLog, sourceUnit, sourceOperation,
                str(sourceLine), resource)
    if len(".".join(segments).encode("utf-8")) > MAX_KEY_BYTES:
        raise KeyTooLong(f"routing key exceeds {MAX_KEY_BYTES} bytes")
    return LogEvent(RoutingKey(segments), clock.next_timestamp(), message)


TAG_WORDS = st.one_of(
    st.sampled_from(["node10", "Light", "a", "a.b", "", "x y", "n*", "#", None, ["n"]]),
    st.integers(230, 260).map(lambda n: "n" * n),
)
SOURCE_LINES = st.sampled_from([0, 42, -1, True, False, 1.0, "7", None])
MESSAGES = st.sampled_from(["", "level=0.5", "a\tb", "two\nlines", "cr\r", None, 3])


class TestEventKey:
    @given(TAG_WORDS, TAG_WORDS, st.sampled_from(["info", "INFO", "Error", "fatal", ""]),
           SOURCE_LINES, MESSAGES)
    @example("node10", "Light", "info", True, "")
    @example("node10", "Light", "info", 1, "")
    def test_agrees_with_the_unmemoised_checks(self, name, unit, typeLog, line, message):
        def make(build):
            return build("lightContainer", name, "readLightSensor", typeLog,
                         sourceUnit=unit, sourceOperation="sense", sourceLine=line,
                         resource="lightSensor", message=message, clock=EventClock())

        expected = outcome(lambda *_: make(reference_make_log_event), None, None)
        assert outcome(lambda *_: make(make_log_event), None, None) == expected
        # the repeat call is answered from the interned key
        assert outcome(lambda *_: make(make_log_event), None, None) == expected

    def test_keyed_event_equals_the_checked_event(self):
        key = event_key("lightContainer", "node10", "readLightSensor", sourceUnit="Light",
                        sourceOperation="sense", sourceLine=42, resource="lightSensor")
        assert key is event_key("lightContainer", "node10", "readLightSensor",
                                sourceUnit="Light", sourceOperation="sense", sourceLine=42,
                                resource="lightSensor")
        built = keyed_event(key, 0, "level=0.050000")
        assert built == sample_event()
        assert hash(built) == hash(sample_event())
        assert built.key is routing_key(sample_event())


#: key words: ASCII, accented, and digits that are decimal but not ASCII
KEY_WORDS = st.text(alphabet="ab_-9\u00e9\u0663", min_size=1, max_size=5)
ARABIC_INDIC = str.maketrans("0123456789", "".join(map(chr, range(0x660, 0x66A))))


class TestKeyedEventFromKeys:
    """An interned key carries every tag of its events, sourceLine included."""

    @given(words=st.lists(KEY_WORDS, min_size=6, max_size=6),
           typeLog=st.sampled_from(["info", "WARNING", "Error"]), line=st.integers(0, 10 ** 12),
           zeros=st.integers(0, 2), arabic=st.booleans(), timestamp=st.integers(0, 2 ** 63),
           message=st.sampled_from(["", "m", "a\tb", "\u00e9"]))
    def test_a_key_builds_the_event_make_log_event_builds(self, words, typeLog, line, zeros,
                                                         arabic, timestamp, message):
        agentType, agentName, action, unit, operation, resource = words
        tags = dict(sourceUnit=unit, sourceOperation=operation, sourceLine=line,
                    resource=resource)
        expected = make_log_event(agentType, agentName, action, typeLog, **tags,
                                  message=message, clock=EventClock(timestamp))
        key = event_key(agentType, agentName, action, typeLog, **tags)
        # a tap may spell the line with leading zeros or other decimal digits
        written = "0" * zeros + str(line)
        segments = [*key.segments[:6], written.translate(ARABIC_INDIC) if arabic else written,
                    resource]
        tapped = parse_tap_line(f"{'.'.join(segments)}\t{timestamp}\t{message}")[0]
        for k in (key, tapped):
            assert k.line == int(k.segments[6]) == line
            built = keyed_event(k, timestamp, message)
            assert built == expected
            assert built.key == expected.key


#: the words of a key LogEvent may or may not take: ASCII and accented
#: words, and line words with leading zeros, Arabic-Indic digits or none
EVENT_WORDS = st.one_of(st.text(alphabet="ab_-9\u00e9", min_size=1, max_size=4),
                        st.sampled_from(["INFO", "info", "007", "7", "\u0663", "None"]))


@st.composite
def built_events(draw):
    """The arguments of one LogEvent(...): a key of 8 words or not, a timestamp, a message."""
    words = draw(st.lists(EVENT_WORDS, min_size=7, max_size=9))
    if len(words) == 8 and draw(st.booleans()):  # else a valid typeLog and line are rare
        words[3] = draw(st.sampled_from(LOG_TYPES + ("INFO",)))
        words[6] = draw(st.one_of(st.integers(0, 10 ** 6).map(str),
                                  st.sampled_from(["007", "\u0663", "None"])))
    timestamp = draw(st.one_of(st.integers(0, 2 ** 63), st.sampled_from([-1, True, 1.5, "5"])))
    message = draw(st.sampled_from(["", "m", "a\tb", "\u00e9", "two\nlines", "x\ud800", None]))
    return RoutingKey(tuple(words)), timestamp, message


class TestLogEventContract:
    @settings(max_examples=300, deadline=None)
    @example((RoutingKey(("a", "b", "c", "info", "U", "op", "None", "r")), 0, ""))
    @example((RoutingKey(("a", "b", "c", "info", "U", "op", "007", "r")), 0, ""))
    @example((RoutingKey(("a", "b", "c", "info", "U", "op", "\u0663", "r")), 0, ""))
    @example((RoutingKey(("a", "b", "c", "INFO", "U", "op", "7", "r")), 0, ""))
    @example((RoutingKey(("a", "b", "c", "info", "U", "op", "7", "r")), 5, "a\tb"))
    @given(built_events())
    def test_a_built_event_is_refused_or_reads_back(self, scratch_tap, args):
        key, timestamp, message = args
        try:
            event = LogEvent(key, timestamp, message)
        except InvalidTag:
            return
        # a None line word is refused: key.line is then None, and str(None) is that word
        assert key.segments[6] != "None"
        scratch_tap.write_text(serialize_event(event) + "\n", encoding="utf-8")
        (read,) = load_tap(scratch_tap)
        assert read == event and hash(read) == hash(event)
        assert (read.sourceLine, read.typeLog) == (int(key.segments[6]), key.segments[3])

    def test_equality_and_hash_cover_the_ten_fields_only(self):
        # the eight routed tags through the key, then timestamp and message
        checked = sample_event()
        assert [f.name for f in dataclasses.fields(LogEvent)] == ["key", "timestamp", "message"]
        plain = LogEvent(RoutingKey(tuple(checked.key.text.split("."))), checked.timestamp,
                         checked.message)
        assert plain.key is not checked.key
        assert plain == checked and hash(plain) == hash(checked)
        assert repr(plain) == repr(checked)
        assert plain != dataclasses.replace(checked, message="other")
        assert plain != dataclasses.replace(checked, timestamp=checked.timestamp + 1)
        assert plain != sample_event(sourceLine=43)

    @pytest.mark.parametrize("name", ["action", "timestamp", "key"])
    def test_assignment_is_refused(self, name):
        event = sample_event()
        # a tag is a property of the key with no setter; CPython 3.11's __setattr__ of a frozen
        # slots dataclass refuses a name that is not a field with TypeError, not FrozenInstanceError
        refusal = (dataclasses.FrozenInstanceError if name in ("timestamp", "key")
                   else (AttributeError, TypeError))
        with pytest.raises(refusal):
            setattr(event, name, None)
        assert event == sample_event() and event.action == "readLightSensor"

    def test_unvalidated_event_fails_when_routed(self):
        # an event is checked when it is built, so one that could not be routed never exists
        with pytest.raises(InvalidTag, match="may not contain '.'"):
            LogEvent(RoutingKey(("t", "n.x", "a", "info", "U", "op", "1", "r")), timestamp=0)
        with pytest.raises(InvalidTag, match="^key must be a RoutingKey of 8 words, got"):
            LogEvent(RoutingKey(("t", "n", "a", "info", "U", "op", "1")), timestamp=0)
        with pytest.raises(InvalidTag, match="^key must be a RoutingKey of 8 words, got"):
            LogEvent("t.n.a.info.U.op.1.r", timestamp=0)
        with pytest.raises(InvalidTag, match="^routing key needs a tuple of segments, got"):
            LogEvent(RoutingKey(["t", "n", "a", "info", "U", "op", "1", "r"]), timestamp=0)

    def test_replace_drops_the_carried_key(self):
        # re-keying replaces the key itself; a tag is not a field of replace
        event = sample_event()
        with pytest.raises(TypeError):
            dataclasses.replace(event, action="readMotionSensor")
        moved = dataclasses.replace(event, key=event_key(
            "lightContainer", "node10", "readMotionSensor", sourceUnit="Light",
            sourceOperation="sense", sourceLine=42, resource="lightSensor"))
        assert routing_key(moved).text == (
            "lightContainer.node10.readMotionSensor.info.Light.sense.42.lightSensor")
        assert (moved.action, moved.timestamp, moved.message) == (
            "readMotionSensor", event.timestamp, event.message)
        assert routing_key(event).text.split(".")[2] == "readLightSensor"
