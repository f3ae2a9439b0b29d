"""Annotated log events, routing keys, and binding patterns.

Every observable action in the system is published as a ten-tag log event.
Eight of the tags form a dot-delimited routing key

    agentType.agentName.action.typeLog.sourceUnit.sourceOperation.sourceLine.resource

while ``timestamp`` and ``message`` travel in the payload.  Consumers bind
queues with patterns over the same grammar, where ``*`` stands for exactly
one word and ``#`` for zero or more words.
"""

from __future__ import annotations

import io
import os
import stat
import threading
from collections.abc import Iterator
from dataclasses import dataclass, field, fields

MAX_KEY_BYTES = 255

LOG_TYPES = ("info", "warning", "error")

STAR = "*"
HASH = "#"

#: microseconds of virtual time per simulation tick
TICK_US = 1_000_000

#: timestamps are below this bound, so every one prints and reads back
TIMESTAMP_LIMIT = 2 ** 63


class LogModelError(ValueError):
    """Base class for log event and pattern validation errors."""


class InvalidTag(LogModelError):
    """A tag value is empty or contains a reserved character."""


class KeyTooLong(LogModelError):
    """An encoded routing key exceeds the byte limit."""


class InvalidPattern(LogModelError):
    """A binding pattern is syntactically malformed."""


#: entries a memo holds before it starts over; a default-world run sees
#: about 120 distinct words and 240 distinct keys
MEMO_SIZE = 4096


class BoundedMemo(dict):
    """A dict that empties itself rather than grow past ``size`` entries.

    Reads are plain dict lookups.  ``remember`` is the only way in and holds
    a lock, so concurrent fills cannot overshoot the bound.
    """

    def __init__(self, size: int = MEMO_SIZE):
        super().__init__()
        self._lock = threading.Lock()
        self._size = size

    def remember(self, key, value):
        with self._lock:
            if len(self) >= self._size:
                self.clear()
            self[key] = value
        return value


#: words that passed _check_word, so a repeated word skips the scan
_valid_words = BoundedMemo()

#: an int at least this far from zero has more digits than a key has bytes; an error
#: message shows it by its size, as str() may refuse an int of more than 640 digits
_LONG_INT = 10 ** MAX_KEY_BYTES


def _shown(value) -> str:
    """``repr(value)`` for an error message, or the size of a long int."""
    if isinstance(value, int) and not -_LONG_INT < value < _LONG_INT:
        return f"an int of {value.bit_length()} bits"
    return repr(value)


def _check_word(name: str, value: str) -> str:
    """Validate a single routing-key word (one tag value)."""
    if type(value) is str and value in _valid_words:
        return value
    if not isinstance(value, str) or not value:
        raise InvalidTag(f"{name} must be a non-empty string, got {_shown(value)}")
    if "." in value:
        raise InvalidTag(f"{name} may not contain '.': {value!r}")
    if STAR in value or HASH in value:
        raise InvalidTag(f"{name} may not contain wildcard characters: {value!r}")
    if any(c.isspace() for c in value):
        raise InvalidTag(f"{name} may not contain whitespace: {value!r}")
    if type(value) is str:
        _valid_words.remember(value, value)
    return value


class EventClock:
    """Monotonic per-run event clock with microsecond granularity.

    Timestamps are strictly increasing across all events drawn from the same
    clock, so a merged timeline has a total order.  The simulation raises the
    floor once per tick (tick ``t`` starts at ``t * TICK_US``), which keeps
    timestamp // TICK_US equal to the tick the event was published on.
    """

    def __init__(self, start: int = 0):
        if type(start) is not int:
            raise LogModelError(f"clock start must be an int, got {_shown(start)}")
        if start < 0:
            raise LogModelError(f"clock start must be >= 0, got {_shown(start)}")
        if start >= TIMESTAMP_LIMIT:
            raise LogModelError("clock start must be below 2**63")
        self._lock = threading.Lock()
        self._next = start

    def next_timestamp(self) -> int:
        return self.reserve(1)

    def reserve(self, count: int) -> int:
        """Draw ``count`` consecutive timestamps at once; returns the first.

        Raises LogModelError, and leaves the clock as it was, if ``count`` is
        not an int >= 0 or the last of them would not be below 2**63.
        """
        if type(count) is not int or count < 0:
            raise LogModelError(f"count must be an int >= 0, got {_shown(count)}")
        with self._lock:
            ts = self._next
            if ts + count > TIMESTAMP_LIMIT:
                raise LogModelError("timestamps must be below 2**63")
            self._next = ts + count
            return ts

    def advance_to(self, floor: int) -> None:
        """Raise the clock so the next timestamp is at least ``floor``.

        Raises LogModelError, and leaves the clock as it was, if ``floor`` is not an int.
        """
        if type(floor) is not int:
            raise LogModelError(f"floor must be an int, got {_shown(floor)}")
        with self._lock:
            if floor > self._next:
                self._next = floor



def _word(index: int) -> property:
    """A read-only tag of an event: one word of its key."""
    return property(lambda event: event.key.segments[index])


@dataclass(frozen=True, slots=True)
class LogEvent:
    """One annotated log record: an event key, a timestamp and a message.

    The eight routed tags are read-only views of ``key``; ``sourceUnit``,
    ``sourceOperation`` and ``sourceLine`` name the emitting call site.
    ``timestamp`` is in microseconds on the run's virtual clock; ``message``
    is free text, dots allowed.  An event is checked once, when built, so its
    tap line reads back as an equal event; make_log_event builds one from tags.
    """

    key: RoutingKey
    timestamp: int
    message: str = ""

    def __post_init__(self):
        key = self.key
        if not isinstance(key, RoutingKey) or len(key.segments) != 8:
            raise InvalidTag(f"key must be a RoutingKey of 8 words, got {_shown(key)}")
        if key.segments[3] not in LOG_TYPES:
            raise InvalidTag(f"typeLog must be one of {LOG_TYPES}, got {key.segments[3]!r}")
        # key.line is None for a word that is not decimal, and str(None) is "None"
        if key.line is None or str(key.line) != key.segments[6]:
            raise InvalidTag(f"sourceLine word must be canonical decimal, got {key.segments[6]!r}")
        _check_count("timestamp", self.timestamp)
        if self.timestamp >= TIMESTAMP_LIMIT:
            raise InvalidTag("timestamp must be below 2**63")
        _check_message(self.message)

    agentType = _word(0)
    agentName = _word(1)
    action = _word(2)
    typeLog = _word(3)
    sourceUnit = _word(4)
    sourceOperation = _word(5)
    resource = _word(7)
    sourceLine = property(lambda event: event.key.line)

    @property
    def tick(self) -> int:
        return self.timestamp // TICK_US


def make_log_event(
    agentType: str,
    agentName: str,
    action: str,
    typeLog: str = "info",
    *,
    sourceUnit: str,
    sourceOperation: str,
    sourceLine: int,
    resource: str,
    message: str = "",
    clock: EventClock,
) -> LogEvent:
    """Validate tags and stamp a new event from ``clock``.

    ``typeLog`` is normalised to lower case and must be one of info,
    warning, error.  Raises InvalidTag on any malformed tag and KeyTooLong
    on an over-long key, before a timestamp is drawn, and LogModelError if
    the clock has no timestamp below 2**63 left.
    """
    key = event_key(agentType, agentName, action, typeLog, sourceUnit=sourceUnit,
                    sourceOperation=sourceOperation, sourceLine=sourceLine,
                    resource=resource, message=message)
    return keyed_event(key, clock.next_timestamp(), message)


def _check_count(name: str, value) -> None:
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise InvalidTag(f"{name} must be a non-negative int, got {_shown(value)}")


def _check_message(message) -> None:
    if not isinstance(message, str):
        raise InvalidTag(f"message must be a string, got {_shown(message)}")
    if "\n" in message or "\r" in message:
        # the tab-separated tap line format must round-trip
        raise InvalidTag("message may not contain newlines")
    if not message.isascii() and any("\ud800" <= c <= "\udfff" for c in message):
        raise InvalidTag(f"message must encode as UTF-8, got {message!r}")  # a lone surrogate


@dataclass(frozen=True, slots=True)
class RoutingKey:
    """Encoded destination of one event: eight literal words."""

    segments: tuple[str, ...]
    #: the dotted form, joined once
    text: str = field(init=False, repr=False, compare=False)
    #: its events' sourceLine: the seventh of eight words as an int, if that word is decimal
    line: int | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if type(self.segments) is not tuple or not self.segments:
            # a list would leave the key unhashable and unequal to the one its text reads back as
            raise InvalidTag(f"routing key needs a tuple of segments, got {_shown(self.segments)}")
        for seg in self.segments:
            _check_word("key segment", seg)
        text = ".".join(self.segments)
        if len(text.encode("utf-8")) > MAX_KEY_BYTES:
            raise KeyTooLong(f"routing key exceeds {MAX_KEY_BYTES} bytes")
        object.__setattr__(self, "text", text)
        line = self.segments[6] if len(self.segments) == 8 else ""
        object.__setattr__(self, "line", int(line) if line.isdecimal() else None)

    def encode(self) -> str:
        return self.text

    def __str__(self) -> str:
        return self.text


#: event keys event_key and parse_tap_line interned, by key text
_keys = BoundedMemo()

#: interned event keys by the tag values they were asked for with
_event_keys = BoundedMemo()


def event_key(
    agentType: str,
    agentName: str,
    action: str,
    typeLog: str = "info",
    *,
    sourceUnit: str,
    sourceOperation: str,
    sourceLine: int,
    resource: str,
    message: str = "",
) -> RoutingKey:
    """Check an event's tags as make_log_event does and intern its key.

    Tags asked for before are answered from a memo.  ``message`` is not part
    of the key; it is checked where make_log_event always checked it, so
    that every input raises the error it raised before.
    """
    tags = (agentType, agentName, action, typeLog, sourceUnit, sourceOperation,
            sourceLine, resource)
    try:
        # a bool sourceLine would equal an int one, and is rejected below
        key = _event_keys.get(tags) if type(sourceLine) is int else None
    except TypeError:  # an unhashable tag, which the checks below reject
        key = None
    if key is not None:
        _check_message(message)
        return key
    if not isinstance(typeLog, str) or (typeLog := typeLog.lower()) not in LOG_TYPES:
        raise InvalidTag(f"typeLog must be one of {LOG_TYPES}, got {_shown(typeLog)}")
    _check_word("agentType", agentType)
    _check_word("agentName", agentName)
    _check_word("action", action)
    _check_word("sourceUnit", sourceUnit)
    _check_word("sourceOperation", sourceOperation)
    _check_word("resource", resource)
    if isinstance(sourceLine, int) and not -_LONG_INT < sourceLine < _LONG_INT:
        raise KeyTooLong(f"routing key exceeds {MAX_KEY_BYTES} bytes")  # str() may refuse it
    _check_count("sourceLine", sourceLine)
    _check_message(message)
    segments = (agentType, agentName, action, typeLog, sourceUnit, sourceOperation,
                str(sourceLine), resource)
    text = ".".join(segments)
    key = _keys.get(text) or _keys.remember(text, RoutingKey(segments))
    return _event_keys.remember(tags, key)


#: an agent's log sites: action -> (sourceUnit, sourceOperation, sourceLine, resource)
LogSites = dict[str, tuple[str, str, int, str]]


def intern_sites(agentType: str, agentName: str, sites: LogSites) -> dict[str, RoutingKey]:
    """Intern the key of each of one agent's log sites, in the table's order."""
    return {
        action: event_key(agentType, agentName, action, sourceUnit=unit,
                          sourceOperation=operation, sourceLine=line, resource=resource)
        for action, (unit, operation, line, resource) in sites.items()
    }


_new = object.__new__
# slot setters: a frozen event is filled without its checked __init__
_set_key, _set_timestamp, _set_message = (getattr(LogEvent, f.name).__set__
                                          for f in fields(LogEvent))


def keyed_event(key: RoutingKey, timestamp: int, message: str) -> LogEvent:
    """Build the event of an interned key, checking nothing.

    ``key`` comes from event_key or parse_tap_line, ``timestamp`` is a
    non-negative int and ``message`` a string without newlines, as
    LogEvent checks them; the event equals the one LogEvent would build.
    """
    event = _new(LogEvent)
    _set_key(event, key)
    _set_timestamp(event, timestamp)
    _set_message(event, message)
    return event


def routing_key(event: LogEvent) -> RoutingKey:
    """The eight-segment routing key of an event, which the event is built with."""
    return event.key


@dataclass(frozen=True, slots=True)
class BindingPattern:
    """A topic pattern: literal words mixed with ``*`` and ``#`` segments."""

    segments: tuple[str, ...]

    def __post_init__(self):
        if not self.segments:
            raise InvalidPattern("pattern needs at least one segment")
        for seg in self.segments:
            if type(seg) is not str:
                raise InvalidPattern(f"pattern segment must be a string, got {_shown(seg)}")
            if seg in (STAR, HASH):
                continue
            if not seg:
                raise InvalidPattern(f"empty segment in pattern {self.encode()!r}")
            if STAR in seg or HASH in seg:
                raise InvalidPattern(
                    f"wildcard must be a whole segment, got {seg!r}"
                )
            _check_word("pattern segment", seg)
        if len(self.encode().encode("utf-8")) > MAX_KEY_BYTES:
            raise InvalidPattern(f"pattern exceeds {MAX_KEY_BYTES} bytes")

    def encode(self) -> str:
        return ".".join(self.segments)

    def __str__(self) -> str:
        return self.encode()


#: patterns parse_binding_pattern accepted, by their text
_patterns = BoundedMemo()


def parse_binding_pattern(text: str) -> BindingPattern:
    """Parse the dotted text form of a binding pattern.

    Raises InvalidPattern for an empty string, an empty segment (leading,
    trailing, or doubled dot), a wildcard glued to other characters, or an
    over-long pattern.  A text accepted before is answered from a memo.
    """
    pattern = _patterns.get(text) if isinstance(text, str) else None
    if pattern is not None:
        return pattern
    if not isinstance(text, str) or not text:
        raise InvalidPattern("pattern must be a non-empty string")
    try:
        return _patterns.remember(text, BindingPattern(tuple(text.split("."))))
    except InvalidTag as exc:
        raise InvalidPattern(str(exc)) from exc


def serialize_event(event: LogEvent) -> str:
    """Encode an event as one tap line: key, timestamp, message, tab-separated."""
    return f"{event.key.text}\t{event.timestamp}\t{event.message}"


def _in_place(path, flags: int) -> int:
    """``open``'s opener for mode "w" without O_TRUNC, so an old file is written over."""
    return os.open(path, flags & ~os.O_TRUNC, 0o666)


class _Output(io.TextIOWrapper):
    """A text file written over an old one's bytes, and cut to the written length on close."""

    def close(self) -> None:
        if self.closed:
            return
        try:
            self.flush()
        finally:
            try:
                fd = self.fileno()
                if stat.S_ISREG(os.fstat(fd).st_mode):  # a pipe or a tty has no position to cut at
                    os.ftruncate(fd, os.lseek(fd, 0, os.SEEK_CUR))
            finally:
                super().close()


def open_output(path) -> io.TextIOWrapper:
    """Open ``path`` for UTF-8 text writing as ``open(path, "w")`` does, but without truncating.

    A regular file is cut to the length written when the file is closed, also
    when a write or the flush raised, so a run that unwinds leaves exactly the
    new bytes.  On ext4 this skips what truncating on open costs: freeing the
    old blocks, and the flush on close that ``auto_da_alloc`` arms after a
    truncation.  Any other path (``/dev/null``, a tty, a pipe) is written as a
    stream.  The name, permissions, symlink-following and errors are open's.
    """
    buffer = open(path, "wb", opener=_in_place)
    return _Output(buffer, encoding="utf-8", line_buffering=buffer.isatty())


#: one tap line as read: (key, timestamp, message)
TapRecord = tuple[RoutingKey, int, str]


def parse_tap_line(line: str) -> TapRecord:
    """Split one tap line into ``(RoutingKey, timestamp, message)``.

    The key is built from the validated segments, so a line tag ``007``
    reads back as ``7`` in its text.  A key text interned before, here or
    by event_key, is answered from the key table; only the timestamp is
    then still checked.  Raises LogModelError on malformed input.
    """
    line = line.rstrip("\n")
    parts = line.split("\t", 2)
    if len(parts) != 3:
        raise LogModelError(f"expected key<TAB>timestamp<TAB>message, got {line!r}")
    key_text, ts_text, message = parts
    key = _keys.get(key_text)
    if key is None:
        segments = key_text.split(".")
        if len(segments) != 8:
            raise LogModelError(f"routing key must have 8 segments, got {key_text!r}")
    # isdecimal() first: int() would also take a sign, spaces and underscores
    if not ts_text.isdecimal():
        raise LogModelError(f"bad timestamp {ts_text!r}")
    try:
        timestamp = int(ts_text)
    except ValueError:  # more digits than int() reads
        raise LogModelError(f"bad timestamp of {len(ts_text)} digits") from None
    if timestamp >= TIMESTAMP_LIMIT:
        raise LogModelError(f"bad timestamp of {len(ts_text)} digits, not below 2**63")
    if key is None:
        if not segments[6].isdecimal():
            raise LogModelError(f"bad sourceLine segment {segments[6]!r}")
        try:
            segments[6] = str(int(segments[6]))
        except ValueError:
            raise LogModelError(f"bad sourceLine segment of {len(segments[6])} digits") from None
        if segments[3] not in LOG_TYPES:
            raise LogModelError(f"bad typeLog segment {segments[3]!r}")
        text = ".".join(segments)  # looked up only now, so only a checked key enters the table
        key = _keys.get(text) or _keys.remember(text, RoutingKey(tuple(segments)))
    return key, timestamp, message


#: timestamp digits int() reads on any host; a longer one takes parse_tap_line's path
_INLINE_TS_DIGITS = 18


def read_tap(path, keep=None) -> Iterator[TapRecord]:
    """Yield the ``parse_tap_line`` records of a tap file's non-blank lines.

    ``keep``, a predicate on a RoutingKey asked once per distinct key text,
    picks the records built; every line is checked either way.  A line of
    three fields with a known key text and a timestamp of at most 18 digits
    is checked inline, any other by ``parse_tap_line``.  A malformed line
    raises its error class, prefixed by ``tap <path> line <N>:``.
    """
    known = {}  # key text -> its RoutingKey if kept, else False

    def decide(key_text: str, entry: RoutingKey):
        if keep is not None and not keep(entry):
            entry = False
        known[key_text] = entry
        return entry

    with open(path, "r", encoding="utf-8") as fh:
        try:
            for lineno, raw in enumerate(fh, 1):
                parts = raw.split("\t", 2)
                key_text = parts[0]
                entry = known.get(key_text)
                if entry is None and (entry := _keys.get(key_text)) is not None:
                    entry = decide(key_text, entry)
                if (entry is not None and len(parts) == 3 and parts[1].isdecimal()
                        and len(parts[1]) <= _INLINE_TS_DIGITS):
                    if entry:
                        yield entry, int(parts[1]), parts[2].rstrip("\n")
                elif raw.strip():
                    record = parse_tap_line(raw)
                    if entry is None:
                        entry = decide(key_text, record[0])
                    if entry:
                        yield record
        except UnicodeDecodeError as exc:
            raise LogModelError(f"tap {path} is not UTF-8 text: {exc.reason}") from None
        except LogModelError as exc:
            raise type(exc)(f"tap {path} line {lineno}: {exc}") from None


def parse_event_line(line: str) -> LogEvent:
    """Inverse of serialize_event.  Raises LogModelError on malformed input."""
    return keyed_event(*parse_tap_line(line))


def load_tap(path) -> list[LogEvent]:
    """Read a tap file written by the broker back into events."""
    return [keyed_event(*record) for record in read_tap(path)]
