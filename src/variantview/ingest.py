"""Event data ingestion.

Parses XES and CSV event data into an in-memory log of activity instances.
Events carrying ``lifecycle:transition`` values ``start``/``complete`` are
matched into one instance per execution (FIFO per case and label); events
with a single timestamp become atomic instances with ``start == complete``.

Timestamps are normalized to UTC microseconds since the Unix epoch, so every
ordering comparison downstream is an exact integer comparison.
"""

from __future__ import annotations

import csv
import gzip
import io
import re
import zlib
from collections import deque
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from operator import itemgetter
from pathlib import Path
from typing import IO, Sequence
from xml.parsers import expat

MICROS_PER_SECOND = 1_000_000

_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
_MICROSECOND = timedelta(microseconds=1)

# "MM/DD/YYYY HH:MM" style rows, optionally with seconds.
_SLASH_FORMATS = ("%m/%d/%Y %H:%M:%S", "%m/%d/%Y %H:%M")

_FRACTION_RE = re.compile(r"\.(\d+)")
_COMPACT_OFFSET_RE = re.compile(r"([+-]\d{2})(\d{2})$")


class ParseError(ValueError):
    """Unparseable input: bad XML or CSV, missing columns, broken gzip, bad UTF-8."""


def parse_timestamp(text: str) -> int:
    """Parse an RFC 3339 or ``MM/DD/YYYY HH:MM`` timestamp to UTC microseconds.

    Naive timestamps are interpreted as UTC. Raises ValueError for
    unsupported input.
    """
    raw = text.strip()
    dt = _parse_iso(raw)
    if dt is None:
        for fmt in _SLASH_FORMATS:
            try:
                dt = datetime.strptime(raw, fmt)
                break
            except ValueError:
                continue
    if dt is None:
        raise ValueError(f"unsupported timestamp format: {text!r}")
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return (dt - _EPOCH) // _MICROSECOND


def _parse_iso(s: str) -> datetime | None:
    # Python 3.11+ reads RFC 3339 as it is. Only with a 'T' or ' ' separator:
    # 3.11 also takes '.' there, which the fraction rewrite below misreads.
    if s[10:11] in ("T", " "):
        try:
            return datetime.fromisoformat(s)
        except ValueError:
            pass
    # Normalize the RFC 3339 variants datetime.fromisoformat (3.10) rejects:
    # trailing 'Z', fractional seconds that are not 3/6 digits, '+0200' offsets.
    if s.endswith(("Z", "z")):
        s = s[:-1] + "+00:00"
    s = _COMPACT_OFFSET_RE.sub(r"\1:\2", s)
    s = _FRACTION_RE.sub(lambda m: "." + m.group(1)[:6].ljust(6, "0"), s, count=1)
    try:
        return datetime.fromisoformat(s)
    except ValueError:
        return None


def format_timestamp(micros: int) -> str:
    """Render UTC microseconds as an RFC 3339 string (exact round-trip)."""
    return (_EPOCH + timedelta(microseconds=micros)).isoformat()


@dataclass(frozen=True, slots=True)
class ActivityInstance:
    """One execution of an activity within a case.

    ``start_ts``/``complete_ts`` are UTC microseconds; an atomic activity has
    ``start_ts == complete_ts``.
    """

    id: int | str
    case_id: str
    label: str
    start_ts: int
    complete_ts: int

    def __post_init__(self) -> None:
        if self.start_ts > self.complete_ts:
            raise ValueError(
                f"instance {self.id!r}: start {self.start_ts} after complete {self.complete_ts}"
            )


def instance_sort_key(instance: ActivityInstance) -> tuple[int, int, str, str]:
    """Total deterministic order: start, complete, label, then id."""
    return (instance.start_ts, instance.complete_ts, instance.label, str(instance.id))


@dataclass(frozen=True, slots=True)
class SourceMeta:
    """Provenance of a parsed log: file name, format, and parse diagnostics."""

    file_name: str | None = None
    format: str = "memory"
    warnings: tuple[str, ...] = ()
    errors: tuple[str, ...] = ()


@dataclass(frozen=True, slots=True)
class EventLog:
    """A set of activity instances with unique ids."""

    instances: tuple[ActivityInstance, ...]
    source_meta: SourceMeta = field(default_factory=SourceMeta)

    def __post_init__(self) -> None:
        ids = {a.id for a in self.instances}
        if len(ids) != len(self.instances):
            raise ValueError("event log contains duplicate instance ids")

    def __len__(self) -> int:
        return len(self.instances)


@dataclass(frozen=True, slots=True)
class Trace:
    """The activity instances of one case, in deterministic order."""

    case_id: str
    instances: tuple[ActivityInstance, ...]

    def __post_init__(self) -> None:
        for a in self.instances:
            if a.case_id != self.case_id:
                raise ValueError(
                    f"instance {a.id!r} belongs to case {a.case_id!r}, not {self.case_id!r}"
                )
        object.__setattr__(
            self, "instances", tuple(sorted(self.instances, key=instance_sort_key))
        )


def group_by_case(log: EventLog) -> list[Trace]:
    """Split an event log into one trace per distinct case id, by case id.

    Instances are bucketed in one pass; each trace sorts only its own."""
    buckets: dict[str, list[ActivityInstance]] = {}
    for a in log.instances:
        buckets.setdefault(a.case_id, []).append(a)
    return [Trace(case_id, tuple(group)) for case_id, group in sorted(buckets.items())]


def pair_events(
    events: Sequence[tuple[str, str, int]],
    *,
    case_id: str = "",
    id_start: int = 0,
    warnings: list[str] | None = None,
) -> list[ActivityInstance]:
    """Match start events to complete events, first-in-first-out per label.

    ``events`` are ``(label, kind, timestamp)`` triples of a single case with
    ``kind`` in ``{"start", "complete"}``, sorted by timestamp (stable on
    ties). Unmatched events degrade to atomic instances; a message is appended
    to ``warnings`` for each.
    """
    out: list[ActivityInstance] = []
    pending: dict[str, deque[int]] = {}
    next_id = id_start

    def emit(label: str, start: int, complete: int) -> None:
        nonlocal next_id
        out.append(ActivityInstance(next_id, case_id, label, start, complete))
        next_id += 1

    def warn(message: str) -> None:
        if warnings is not None:
            warnings.append(message)

    for label, kind, ts in events:
        if kind == "start":
            pending.setdefault(label, deque()).append(ts)
        elif kind == "complete":
            queue = pending.get(label)
            if queue:
                emit(label, queue.popleft(), ts)
            else:
                emit(label, ts, ts)
                warn(f"case {case_id!r}: unmatched complete event for {label!r}")
        else:
            raise ValueError(f"unknown event kind: {kind!r}")

    leftovers = sorted(
        (ts, label) for label, queue in pending.items() for ts in queue
    )
    for ts, label in leftovers:
        emit(label, ts, ts)
        warn(f"case {case_id!r}: unmatched start event for {label!r}")
    return out


@dataclass(frozen=True, slots=True)
class ColumnMap:
    """Names of the case-id, label, start and complete columns of a CSV file."""

    case: str = "case"
    label: str = "label"
    start: str = "start"
    complete: str = "complete"

    def fields(self) -> tuple[str, str, str, str]:
        return (self.case, self.label, self.start, self.complete)


def parse_csv(
    source: str | Path | IO[str] | IO[bytes],
    mapping: ColumnMap | None = None,
) -> EventLog:
    """Parse a row-per-instance CSV file into an event log.

    Expects a header row; ``mapping`` names the four required columns (where
    a name repeats, the last such column counts). Blank rows are skipped.
    Rows too short to hold a required column, or with unparseable
    timestamps, are rejected with a warning, rows whose start lies after
    their complete with an error entry. Instance ids are the row numbers.
    """
    mapping = mapping or ColumnMap()
    file_name, stream, close = None, None, False
    warnings: list[str] = []
    errors: list[str] = []
    instances: list[ActivityInstance] = []
    share = {}.setdefault  # equal case ids and labels share one str
    try:
        file_name, stream, close = _open_text(source)
        rows = csv.reader(stream)
        header = next(rows, [])
        missing = [c for c in mapping.fields() if c not in header]
        if missing:
            raise ParseError(f"missing required column(s) {missing} in header {header}")
        index = {name: i for i, name in enumerate(header)}
        case_i, label_i, start_i, complete_i = (index[c] for c in mapping.fields())
        width = max(case_i, label_i, start_i, complete_i) + 1
        for row_no, row in enumerate(filter(None, rows), start=1):  # blank rows skipped
            if len(row) < width:
                warnings.append(f"row {row_no} rejected: short row")
                continue
            start_raw, complete_raw = row[start_i], row[complete_i]
            try:
                start = parse_timestamp(start_raw)
                complete = parse_timestamp(complete_raw)
            except ValueError as exc:
                warnings.append(f"row {row_no} rejected: {exc}")
                continue
            if start > complete:
                errors.append(
                    f"row {row_no} rejected: start {start_raw!r} after complete {complete_raw!r}"
                )
                continue
            case, label = row[case_i], row[label_i]
            instances.append(
                ActivityInstance(row_no, share(case, case), share(label, label), start, complete)
            )
    except _UNREADABLE as exc:
        raise _unreadable(file_name, source, exc) from exc
    except csv.Error as exc:  # e.g. a quote left open runs past the field size limit
        raise ParseError(
            f"{file_name or 'input'}: malformed CSV at line {rows.line_num}: {exc}"
        ) from exc
    finally:
        if close:
            stream.close()
    meta = SourceMeta(file_name, "csv", tuple(warnings), tuple(errors))
    return EventLog(tuple(instances), meta)


def write_csv(log: EventLog, dest: IO[str]) -> None:
    """Serialize a log with the default column names; inverse of parse_csv."""
    writer = csv.writer(dest, lineterminator="\n")
    writer.writerow(ColumnMap().fields())
    for a in sorted(log.instances, key=lambda a: (a.case_id,) + instance_sort_key(a)):
        writer.writerow(
            (a.case_id, a.label, format_timestamp(a.start_ts), format_timestamp(a.complete_ts))
        )


def parse_xes(source: str | Path | IO[bytes]) -> EventLog:
    """Parse an XES file (optionally gzip-compressed) into an event log.

    Follows the IEEE 1849-2016 element structure log > trace > event with
    key/value attribute children. The trace-level ``concept:name`` becomes the
    case id (``case_<n>`` when absent). Events whose lifecycle is ``start`` or
    ``complete`` are paired via :func:`pair_events`; any other or missing
    lifecycle yields an atomic instance. Events without ``concept:name`` or
    ``time:timestamp`` are skipped with a warning. One pass reads the file,
    and memory holds one open trace at a time.
    """
    file_name, stream, close = _open_binary(source)
    warnings: list[str] = []
    instances: list[ActivityInstance] = []
    share = {}.setdefault  # equal case ids and labels share one str
    # Per open element: for a trace a list of its concept:name and then one
    # attribute dict per event, for an event of a trace that dict, else None.
    stack: list[list | dict | None] = [None]
    trace_no = 0

    def start(name: str, attrs: dict[str, str]) -> None:
        parent = stack[-1]
        tag = name.rpartition("}")[2]
        node = None
        if tag == "trace":
            node = [None]
        elif type(parent) is dict:
            parent[attrs.get("key")] = attrs.get("value", "")
        elif type(parent) is list:
            if tag == "event":
                node = {}
                parent.append(node)
            elif tag == "string" and attrs.get("key") == "concept:name":
                parent[0] = attrs.get("value")
        stack.append(node)

    def end(name: str) -> None:
        nonlocal trace_no
        trace = stack.pop()
        if type(trace) is not list:
            return
        trace_no += 1
        case_id = share(trace[0], trace[0]) if trace[0] is not None else f"case_{trace_no}"
        paired: list[tuple[str, str, int]] = []
        atomic: list[tuple[str, int]] = []
        for event_no, attrs in enumerate(trace[1:], start=1):
            label = attrs.get("concept:name")
            ts_raw = attrs.get("time:timestamp")
            if label is None or ts_raw is None:
                warnings.append(
                    f"trace {trace_no}: event {event_no} skipped "
                    "(missing concept:name or time:timestamp)"
                )
                continue
            try:
                ts = parse_timestamp(ts_raw)
            except ValueError as exc:
                warnings.append(f"trace {trace_no}: event {event_no} skipped ({exc})")
                continue
            label = share(label, label)
            lifecycle = attrs.get("lifecycle:transition", "").strip().lower()
            if lifecycle in ("start", "complete"):
                paired.append((label, lifecycle, ts))
            else:
                atomic.append((label, ts))
        paired.sort(key=itemgetter(2))  # stable: ties keep document order
        instances.extend(
            pair_events(paired, case_id=case_id, id_start=len(instances), warnings=warnings)
        )
        for label, ts in atomic:
            instances.append(ActivityInstance(len(instances), case_id, label, ts, ts))

    def skipped_entity(name: str, is_parameter_entity: bool) -> None:
        # Expat skips an undeclared entity if the document has an external DTD.
        if not is_parameter_entity:
            error = expat.ExpatError(f"undefined entity &{name};")
            error.lineno, error.offset = parser.ErrorLineNumber, parser.ErrorColumnNumber
            raise error

    parser = expat.ParserCreate(namespace_separator="}")
    parser.StartElementHandler = start
    parser.EndElementHandler = end
    parser.SkippedEntityHandler = skipped_entity
    try:
        parser.ParseFile(stream)
    except expat.ExpatError as exc:
        reason = expat.ErrorString(exc.code) if hasattr(exc, "code") else exc
        raise ParseError(
            f"malformed XES XML at line {exc.lineno}, column {exc.offset}: {reason}"
        ) from exc
    except _UNREADABLE as exc:
        raise _unreadable(file_name, source, exc) from exc
    finally:
        if close:
            stream.close()
    meta = SourceMeta(file_name, "xes", tuple(warnings), ())
    return EventLog(tuple(instances), meta)


# What reading a file can raise midway: bad gzip data, bad UTF-8.
_UNREADABLE = (EOFError, zlib.error, gzip.BadGzipFile, UnicodeDecodeError)


def _unreadable(file_name: str | None, source, exc: Exception) -> ParseError:
    name = file_name or "input"
    if not isinstance(exc, UnicodeDecodeError):
        return ParseError(f"{name}: truncated or corrupt gzip data ({exc})")
    where = ""
    if isinstance(source, (str, Path)):  # the text stream decodes in chunks
        try:
            Path(source).read_bytes().decode("utf-8")
        except UnicodeDecodeError as whole:
            where = f" at byte {whole.start}"
    return ParseError(f"{name}: not UTF-8 text{where} ({exc.reason})")


def _open_text(source) -> tuple[str | None, IO[str], bool]:
    if isinstance(source, (str, Path)):
        path = Path(source)
        return path.name, path.open("r", encoding="utf-8-sig", newline=""), True
    if isinstance(source, io.TextIOBase):
        return getattr(source, "name", None), source, False
    data = source.read()
    if isinstance(data, bytes):
        data = data.decode("utf-8-sig")
    return getattr(source, "name", None), io.StringIO(data), True


def _open_binary(source) -> tuple[str | None, IO[bytes], bool]:
    if isinstance(source, (str, Path)):
        path = Path(source)
        with path.open("rb") as probe:
            magic = probe.read(2)
        if magic == b"\x1f\x8b":
            return path.name, gzip.open(path, "rb"), True
        return path.name, path.open("rb"), True
    stream = source
    name = getattr(source, "name", None)
    if not stream.seekable():
        stream = io.BytesIO(stream.read())
    magic = stream.read(2)
    stream.seek(0)
    if magic == b"\x1f\x8b":
        # Closing the gzip wrapper leaves the caller's stream open.
        return name, gzip.open(stream, "rb"), True
    return name, stream, False
