"""Ingestion tests: timestamps, pairing, CSV and XES parsing, grouping."""

from __future__ import annotations

import csv
import gzip
import io
import re
from datetime import datetime
from itertools import permutations
from xml.sax.saxutils import quoteattr

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    DATA,
    MIN,
    parsed,
    reference_parse_csv,
    reference_parse_timestamp,
    reference_parse_xes,
    ts,
)
from variantview.ingest import (
    ActivityInstance,
    ColumnMap,
    EventLog,
    ParseError,
    Trace,
    format_timestamp,
    group_by_case,
    pair_events,
    parse_csv,
    parse_timestamp,
    parse_xes,
    write_csv,
)


class TestTimestamps:
    def test_slash_date_format(self):
        assert parse_timestamp("07/13/2021 08:00") == ts(8)

    def test_rfc3339_utc(self):
        assert parse_timestamp("2021-07-13T08:00:00+00:00") == ts(8)
        assert parse_timestamp("2021-07-13T08:00:00Z") == ts(8)

    def test_rfc3339_offset_converts_to_utc(self):
        assert parse_timestamp("2021-07-13T10:00:00+02:00") == ts(8)
        assert parse_timestamp("2021-07-13T10:00:00+0200") == ts(8)

    def test_fractional_seconds(self):
        assert parse_timestamp("2021-07-13T08:00:00.000+00:00") == ts(8)
        assert parse_timestamp("2021-07-13T08:00:00.25Z") == ts(8) + 250_000
        assert parse_timestamp("2021-07-13T08:00:00.1234567Z") == ts(8) + 123_456

    def test_naive_is_utc(self):
        assert parse_timestamp("2021-07-13 08:00:00") == ts(8)

    def test_garbage_rejected(self):
        with pytest.raises(ValueError):
            parse_timestamp("yesterday at noon")

    def test_round_trip(self):
        for micros in (0, ts(8), ts(16, 30) + 1, -1_000_000):
            assert parse_timestamp(format_timestamp(micros)) == micros


class TestInstanceInvariants:
    def test_start_after_complete_rejected(self):
        with pytest.raises(ValueError):
            ActivityInstance(1, "c", "A", 10, 5)

    def test_duplicate_ids_rejected(self):
        a = ActivityInstance(1, "c", "A", 0, 1)
        b = ActivityInstance(1, "c", "B", 2, 3)
        with pytest.raises(ValueError):
            EventLog((a, b))

    def test_trace_requires_matching_case(self):
        a = ActivityInstance(1, "c", "A", 0, 1)
        with pytest.raises(ValueError):
            Trace("other", (a,))


def _min_makespan(starts, completes):
    """Oracle: minimum over all valid matchings of the longest duration."""
    best = None
    for perm in permutations(completes):
        if any(s > c for s, c in zip(starts, perm)):
            continue
        worst = max(c - s for s, c in zip(starts, perm))
        best = worst if best is None else min(best, worst)
    return best


class TestPairEvents:
    def test_start_complete_pair(self):
        out = pair_events([("A", "start", ts(8)), ("A", "complete", ts(9, 30))])
        assert [(i.label, i.start_ts, i.complete_ts) for i in out] == [
            ("A", ts(8), ts(9, 30))
        ]

    def test_unmatched_start_becomes_atomic_with_warning(self):
        warnings = []
        out = pair_events([("A", "start", ts(8))], warnings=warnings)
        assert [(i.start_ts, i.complete_ts) for i in out] == [(ts(8), ts(8))]
        assert len(warnings) == 1

    def test_unmatched_complete_becomes_atomic_with_warning(self):
        warnings = []
        out = pair_events([("A", "complete", ts(8))], warnings=warnings)
        assert [(i.start_ts, i.complete_ts) for i in out] == [(ts(8), ts(8))]
        assert len(warnings) == 1

    def test_interleaved_fifo(self):
        # Two starts then two completes of the same label match FIFO; this is
        # also the minimum-makespan matching.
        events = [
            ("A", "start", 1),
            ("A", "start", 2),
            ("A", "complete", 3),
            ("A", "complete", 4),
        ]
        out = pair_events(events)
        assert [(i.start_ts, i.complete_ts) for i in out] == [(1, 3), (2, 4)]
        fifo_makespan = max(i.complete_ts - i.start_ts for i in out)
        assert fifo_makespan == _min_makespan([1, 2], [3, 4])

    def test_fifo_is_min_makespan_on_triples(self):
        starts = [0, 3, 4]
        completes = [5, 6, 10]
        events = sorted(
            [("A", "start", t) for t in starts]
            + [("A", "complete", t) for t in completes],
            key=lambda e: e[2],
        )
        out = pair_events(events)
        assert len(out) == 3
        assert max(i.complete_ts - i.start_ts for i in out) == _min_makespan(
            starts, completes
        )

    def test_labels_do_not_cross_match(self):
        out = pair_events(
            [("A", "start", 1), ("B", "start", 2), ("A", "complete", 3), ("B", "complete", 4)]
        )
        assert sorted((i.label, i.start_ts, i.complete_ts) for i in out) == [
            ("A", 1, 3),
            ("B", 2, 4),
        ]

    def test_event_count_conserved(self):
        events = [
            ("A", "start", 1),
            ("A", "complete", 2),
            ("A", "start", 3),
            ("B", "complete", 4),
        ]
        out = pair_events(events)
        # one matched pair + two unmatched singletons
        assert len(out) == 3

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            pair_events([("A", "resume", 1)])

    def test_leftover_starts_are_emitted_in_time_order(self):
        # A's queue comes first in the pending dict but holds the latest start.
        warnings = []
        events = [("A", "start", 1), ("C", "complete", 3), ("B", "start", 5), ("A", "start", 7)]
        out = pair_events(events, case_id="k", id_start=10, warnings=warnings)
        assert [(i.id, i.label, i.start_ts, i.complete_ts) for i in out] == [
            (10, "C", 3, 3), (11, "A", 1, 1), (12, "B", 5, 5), (13, "A", 7, 7)
        ]
        assert warnings == [
            "case 'k': unmatched complete event for 'C'",
            "case 'k': unmatched start event for 'A'",
            "case 'k': unmatched start event for 'B'",
            "case 'k': unmatched start event for 'A'",
        ]


class TestParseCsv:
    def test_worked_example_row_values(self):
        log = parse_csv(DATA / "worked_example.csv")
        first = log.instances[0]
        assert (first.case_id, first.label) == ("1", "A")
        assert (first.start_ts, first.complete_ts) == (ts(8), ts(9, 30))

    def test_worked_example_has_nine_instances(self):
        log = parse_csv(DATA / "worked_example.csv")
        assert len(log) == 9
        assert sum(1 for a in log.instances if a.case_id == "1") == 8

    def test_empty_file_with_header(self):
        log = parse_csv(io.StringIO("case,label,start,complete\n"))
        assert len(log) == 0

    def test_missing_column_is_parse_error(self):
        with pytest.raises(ParseError):
            parse_csv(io.StringIO("case,label,begin,complete\n"))

    def test_bad_timestamp_rejected_with_warning(self):
        stream = io.StringIO(
            "case,label,start,complete\n1,A,not a time,07/13/2021 09:00\n"
        )
        log = parse_csv(stream)
        assert len(log) == 0
        assert len(log.source_meta.warnings) == 1

    def test_start_after_complete_rejected_with_error(self):
        stream = io.StringIO(
            "case,label,start,complete\n1,A,07/13/2021 09:00,07/13/2021 08:00\n"
        )
        log = parse_csv(stream)
        assert len(log) == 0
        assert len(log.source_meta.errors) == 1

    def test_custom_column_mapping(self):
        mapping = ColumnMap(
            case="Case-ID",
            label="Activity Label",
            start="Start-timestamp",
            complete="Complete-timestamp",
        )
        log = parse_csv(DATA / "spreadsheet_headers.csv", mapping)
        assert len(log) == 9
        assert log.instances[0].label == "activity A"

    def test_blank_rows_skipped_and_last_duplicate_column_wins(self):
        log = parse_csv(
            io.StringIO(
                "label,case,start,complete,label\n"
                "\n"
                "x,1,07/13/2021 08:00,07/13/2021 09:00,A\n"
                "y,1,07/13/2021 08:00,07/13/2021 09:00\n"
            )
        )
        assert [(a.id, a.label) for a in log.instances] == [(1, "A")]
        assert log.source_meta.warnings == ("row 2 rejected: short row",)

    def test_bad_utf8_is_parse_error_with_byte_offset(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"case,label,start,complete\n1,\xff,07/13/2021 08:00,07/13/2021 09:00\n")
        with pytest.raises(ParseError, match=r"^bad\.csv: not UTF-8 text at byte 28 "):
            parse_csv(bad)

    def test_start_one_microsecond_after_complete_is_an_error_entry(self):
        log = parse_csv(
            io.StringIO(
                "case,label,start,complete\n"
                "c,A,2021-07-13T08:00:00.000001Z,2021-07-13T08:00:00Z\n"
                "c,B,2021-07-13T08:00:00Z,2021-07-13T08:00:00Z\n"
            )
        )
        assert [(a.id, a.label) for a in log.instances] == [(2, "B")]
        assert log.source_meta.errors == (
            "row 1 rejected: start '2021-07-13T08:00:00.000001Z' "
            "after complete '2021-07-13T08:00:00Z'",
        )
        assert log.source_meta.warnings == ()

    def test_byte_order_mark_is_not_part_of_the_header(self, tmp_path):
        plain = (DATA / "worked_example.csv").read_bytes()
        marked = tmp_path / "marked.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + plain)
        expected = parsed(parse_csv, DATA / "worked_example.csv")[:2]
        assert parsed(parse_csv, marked)[:2] == expected
        assert parsed(parse_csv, io.BytesIO(b"\xef\xbb\xbf" + plain))[:2] == expected

    def test_bad_utf8_offset_counts_the_byte_order_mark(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(
            b"\xef\xbb\xbfcase,label,start,complete\n1,\xff,07/13/2021 08:00,07/13/2021 09:00\n"
        )
        with pytest.raises(ParseError, match=r"^bad\.csv: not UTF-8 text at byte 31 "):
            parse_csv(bad)

    def test_quote_left_open_is_parse_error(self, tmp_path):
        rows = ["case,label,start,complete", '1,"A,07/13/2021 08:00,07/13/2021 09:00']
        rows += ["1,B,07/13/2021 08:00,07/13/2021 09:00"] * 4000
        broken = tmp_path / "open_quote.csv"
        broken.write_text("\n".join(rows) + "\n")
        with pytest.raises(ParseError, match=r"^open_quote\.csv: malformed CSV at line \d+: field larger"):
            parse_csv(broken)

    def test_round_trip(self):
        log = parse_csv(DATA / "worked_example.csv")
        buffer = io.StringIO()
        write_csv(log, buffer)
        again = parse_csv(io.StringIO(buffer.getvalue()))
        original = {
            (a.case_id, a.label, a.start_ts, a.complete_ts) for a in log.instances
        }
        reparsed = {
            (a.case_id, a.label, a.start_ts, a.complete_ts) for a in again.instances
        }
        assert original == reparsed


def _xes(body: str) -> io.BytesIO:
    doc = f'<?xml version="1.0" encoding="UTF-8"?><log>{body}</log>'
    return io.BytesIO(doc.encode("utf-8"))


class TestParseXes:
    def test_worked_example_pairs_events(self):
        log = parse_xes(DATA / "worked_example.xes")
        assert len(log) == 9
        case1 = sorted(
            (a for a in log.instances if a.case_id == "1"),
            key=lambda a: (a.start_ts, a.label),
        )
        assert [a.label for a in case1] == ["A", "B", "C", "D", "E", "F", "A", "G"]
        assert (case1[0].start_ts, case1[0].complete_ts) == (ts(8), ts(9, 30))

    def test_event_without_lifecycle_is_atomic(self):
        log = parse_xes(
            _xes(
                "<trace>"
                '<string key="concept:name" value="1"/>'
                '<event><string key="concept:name" value="A"/>'
                '<date key="time:timestamp" value="2021-07-13T08:00:00Z"/></event>'
                "</trace>"
            )
        )
        (a,) = log.instances
        assert a.start_ts == a.complete_ts == ts(8)

    def test_other_lifecycle_is_atomic(self):
        log = parse_xes(
            _xes(
                "<trace>"
                '<string key="concept:name" value="1"/>'
                '<event><string key="concept:name" value="A"/>'
                '<string key="lifecycle:transition" value="schedule"/>'
                '<date key="time:timestamp" value="2021-07-13T08:00:00Z"/></event>'
                "</trace>"
            )
        )
        (a,) = log.instances
        assert a.start_ts == a.complete_ts

    def test_interleaved_same_label_fifo(self):
        log = parse_xes(
            _xes(
                "<trace>"
                '<string key="concept:name" value="1"/>'
                '<event><string key="concept:name" value="A"/>'
                '<string key="lifecycle:transition" value="start"/>'
                '<date key="time:timestamp" value="2021-07-13T08:01:00Z"/></event>'
                '<event><string key="concept:name" value="A"/>'
                '<string key="lifecycle:transition" value="start"/>'
                '<date key="time:timestamp" value="2021-07-13T08:02:00Z"/></event>'
                '<event><string key="concept:name" value="A"/>'
                '<string key="lifecycle:transition" value="complete"/>'
                '<date key="time:timestamp" value="2021-07-13T08:03:00Z"/></event>'
                '<event><string key="concept:name" value="A"/>'
                '<string key="lifecycle:transition" value="complete"/>'
                '<date key="time:timestamp" value="2021-07-13T08:04:00Z"/></event>'
                "</trace>"
            )
        )
        pairs = sorted((a.start_ts, a.complete_ts) for a in log.instances)
        assert pairs == [(ts(8, 1), ts(8, 3)), (ts(8, 2), ts(8, 4))]
        starts = [s for s, _ in pairs]
        completes = [c for _, c in pairs]
        assert max(c - s for s, c in pairs) == _min_makespan(starts, completes)

    def test_trace_without_name_gets_synthetic_case(self):
        log = parse_xes(
            _xes(
                "<trace><event>"
                '<string key="concept:name" value="A"/>'
                '<date key="time:timestamp" value="2021-07-13T08:00:00Z"/>'
                "</event></trace>"
            )
        )
        assert log.instances[0].case_id == "case_1"

    def test_event_missing_name_skipped_with_warning(self):
        log = parse_xes(
            _xes(
                "<trace>"
                '<string key="concept:name" value="1"/>'
                '<event><date key="time:timestamp" value="2021-07-13T08:00:00Z"/></event>'
                '<event><string key="concept:name" value="B"/>'
                '<date key="time:timestamp" value="2021-07-13T09:00:00Z"/></event>'
                "</trace>"
            )
        )
        assert [a.label for a in log.instances] == ["B"]
        assert len(log.source_meta.warnings) == 1

    def test_malformed_xml_reports_position(self):
        with pytest.raises(ParseError) as info:
            parse_xes(io.BytesIO(b"<log><trace></log>"))
        assert str(info.value) == "malformed XES XML at line 1, column 14: mismatched tag"

    def test_undeclared_entity_with_external_dtd_is_an_error(self):
        doc = b'<!DOCTYPE log SYSTEM "log.dtd"><log><trace>&x;</trace></log>'
        with pytest.raises(ParseError, match="line 1, column 43: undefined entity &x;"):
            parse_xes(io.BytesIO(doc))

    def test_only_events_directly_inside_a_trace_are_read(self):
        event = (
            '<event><string key="concept:name" value="{}"/>'
            '<date key="time:timestamp" value="2021-07-13T08:00:00Z"/></event>'
        )
        log = parse_xes(
            _xes(
                event.format("outside")
                + '<global scope="event">' + event.format("global") + "</global>"
                + "<trace>" + event.format("A")
                + "<wrapper>" + event.format("wrapped") + "</wrapper></trace>"
            )
        )
        assert [a.label for a in log.instances] == ["A"]

    def test_nested_attributes_are_ignored(self):
        log = parse_xes(
            _xes(
                "<trace><event>"
                '<string key="concept:name" value="A">'
                '<string key="concept:name" value="nested"/></string>'
                '<date key="time:timestamp" value="2021-07-13T08:00:00Z"/>'
                "</event></trace>"
            )
        )
        assert [a.label for a in log.instances] == ["A"]

    def test_gzip_accepted(self, tmp_path):
        packed = tmp_path / "worked_example.xes.gz"
        packed.write_bytes(gzip.compress((DATA / "worked_example.xes").read_bytes()))
        log = parse_xes(packed)
        assert len(log) == 9

    def test_namespaced_document(self):
        doc = (
            '<?xml version="1.0"?>'
            '<log xmlns="http://www.xes-standard.org/"><trace>'
            '<string key="concept:name" value="1"/>'
            '<event><string key="concept:name" value="A"/>'
            '<date key="time:timestamp" value="2021-07-13T08:00:00Z"/></event>'
            "</trace></log>"
        )
        log = parse_xes(io.BytesIO(doc.encode()))
        assert [a.label for a in log.instances] == ["A"]


class TestGroupByCase:
    def test_two_cases_two_traces(self):
        log = parse_csv(DATA / "worked_example.csv")
        traces = group_by_case(log)
        assert sorted(t.case_id for t in traces) == ["1", "2"]
        assert sorted(len(t.instances) for t in traces) == [1, 8]

    def test_empty_log(self):
        assert group_by_case(EventLog(())) == []

    def test_union_equals_log(self):
        log = parse_csv(DATA / "same_structure_cases.csv")
        traces = group_by_case(log)
        regrouped = {a.id for t in traces for a in t.instances}
        assert regrouped == {a.id for a in log.instances}

    def test_traces_sorted_deterministically(self):
        log = parse_csv(DATA / "worked_example.csv")
        trace = next(t for t in group_by_case(log) if t.case_id == "1")
        keys = [(a.start_ts, a.complete_ts, a.label) for a in trace.instances]
        assert keys == sorted(keys)


# The parsers equal the reference parsers of conftest.py on generated input.

PARSER_SETTINGS = settings(max_examples=100, deadline=None)

_OFFSETS = st.builds(
    "{}{:02d}{}{:02d}".format,
    st.sampled_from("+-"),
    st.integers(0, 23),
    st.sampled_from(["", ":"]),
    st.integers(0, 59),
)


@st.composite
def rfc3339_strings(draw):
    """RFC 3339 and near misses: a 't', '.' or '_' between date and time."""
    d = draw(st.datetimes())
    fraction = draw(st.text("0123456789", max_size=9))
    return "".join(
        (
            draw(st.sampled_from(["", " ", "\t", "\n "])),
            f"{d.year:04d}-{d.month:02d}-{d.day:02d}",
            draw(st.sampled_from(["T", " ", "t", ".", "_"])),
            f"{d.hour:02d}:{d.minute:02d}:{d.second:02d}",
            "." + fraction if fraction else "",
            draw(st.one_of(st.sampled_from(["", "Z", "z"]), _OFFSETS)),
            draw(st.sampled_from(["", " ", "\t"])),
        )
    )


@st.composite
def slash_strings(draw):
    d = draw(st.datetimes(min_value=datetime(1000, 1, 1)))
    seconds = f":{d.second:02d}" if draw(st.booleans()) else ""
    return f"{d.month:02d}/{d.day:02d}/{d.year} {d.hour:02d}:{d.minute:02d}{seconds}"


TIMESTAMP_STRINGS = st.one_of(
    rfc3339_strings(),
    slash_strings(),
    st.text("0123456789-+:.TZz W,/", max_size=30),
)


def _outcome(parse, text):
    try:
        return parse(text)
    except ValueError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(TIMESTAMP_STRINGS)
def test_parse_timestamp_equals_reference(text):
    assert _outcome(parse_timestamp, text) == _outcome(reference_parse_timestamp, text)


# A few fixed instants, so that equal timestamps and start/complete pairs are
# common, next to generated and malformed strings.
_FEW_TIMES = st.sampled_from(
    ["2021-07-13T08:00:00Z", "2021-07-13T09:00:00+01:00", "07/13/2021 08:30",
     "2021-07-13 10:00:00.5", "2021-07-13T07:00:00-0200"]
)
_TIMES = st.one_of(_FEW_TIMES, _FEW_TIMES, TIMESTAMP_STRINGS)
_LABELS = st.one_of(st.sampled_from("AB"), st.text('A,"\n\r é', max_size=4))


@st.composite
def csv_documents(draw):
    header = draw(st.permutations(["case", "label", "start", "complete"]))
    for name in draw(st.lists(st.sampled_from(["case", "label", "start", "note", ""]), max_size=3)):
        header.insert(draw(st.integers(0, len(header))), name)
    if draw(st.integers(0, 9)) == 0:
        header.remove(draw(st.sampled_from(header)))
    cell = {"case": st.sampled_from(["1", "2", " 3"]), "label": _LABELS,
            "start": _TIMES, "complete": _TIMES}
    buffer = io.StringIO()
    writer = csv.writer(
        buffer,
        quoting=draw(st.sampled_from([csv.QUOTE_MINIMAL, csv.QUOTE_ALL])),
        lineterminator=draw(st.sampled_from(["\n", "\r\n"])),
    )
    writer.writerow(header)
    for _ in range(draw(st.integers(0, 8))):
        width = len(header) if draw(st.integers(0, 3)) else draw(st.integers(0, len(header) + 2))
        names = header + [""] * 2
        writer.writerow([draw(cell.get(names[i], _LABELS)) for i in range(width)])
    return buffer.getvalue()


@PARSER_SETTINGS
@given(csv_documents())
def test_parse_csv_equals_reference(text):
    # newline="" as for a file: quoted labels keep their line breaks.
    new = parsed(parse_csv, io.StringIO(text, newline=""))
    assert new == parsed(reference_parse_csv, io.StringIO(text, newline=""))


_NS = "http://www.xes-standard.org/"
_LIFECYCLES = st.sampled_from(["start", "complete", "Start", " COMPLETE ", "schedule", ""])
_VALUE_TEXT = st.text('aB &<>"\'é', max_size=4)
_ENTITIES = ["&amp;", "&lt;", "&#65;", "&#x42;"]


@st.composite
def xes_documents(draw):
    """XES text in the default, a prefixed or no namespace, with entities,
    nested and key-less attributes, events outside traces, unnamed traces
    and, now and then, cut short."""
    style = draw(st.sampled_from(["none", "default", "prefixed"]))
    dtd = draw(st.sampled_from(["", " [<!ENTITY e 'entity'>]", ' SYSTEM "log.dtd"']))
    entities = st.sampled_from(_ENTITIES + ["&e;"] * bool(dtd))

    def tag(name):
        """The element name, drawn once per element: open and close agree."""
        return "x:" + name if style == "prefixed" and draw(st.booleans()) else name

    def value(strategy):
        quoted = quoteattr(draw(strategy))
        if draw(st.integers(0, 9)) == 0:
            quoted = quoted[:-1] + draw(entities) + quoted[-1]
        return quoted

    def attribute(depth=0):
        key = draw(st.sampled_from(
            ["concept:name", "time:timestamp", "lifecycle:transition", "org:resource", None]
        ))
        name = tag(draw(st.sampled_from(["string", "date", "int"])))
        text = f"<{name}"
        if key is not None:
            text += f" key={quoteattr(key)}"
        if draw(st.integers(0, 9)):
            strategy = {"time:timestamp": _TIMES, "lifecycle:transition": _LIFECYCLES,
                        "concept:name": _LABELS}.get(key, _VALUE_TEXT)
            text += f" value={value(strategy)}"
        if depth == 0 and draw(st.integers(0, 5)) == 0:
            return text + ">" + attribute(1) + f"</{name}>"
        return text + "/>"

    def event():
        if draw(st.integers(0, 3)):
            body = (
                f'<string key="concept:name" value={value(st.sampled_from("AB"))}/>'
                f'<string key="lifecycle:transition" value={value(_LIFECYCLES)}/>'
                f'<date key="time:timestamp" value={value(_TIMES)}/>'
            )
        else:
            body = "".join(attribute() for _ in range(draw(st.integers(0, 4))))
        name = tag("event")
        return f"<{name}>{body}</{name}>"

    def trace():
        parts = [event() for _ in range(draw(st.integers(0, 6)))]
        for _ in range(draw(st.integers(0, 2))):
            kind = tag(draw(st.sampled_from(["string", "string", "int"])))
            name = f'<{kind} key="concept:name" value={value(_VALUE_TEXT)}/>'
            if draw(st.integers(0, 5)) == 0:
                name = '<string key="concept:name"/>'
            parts.insert(draw(st.integers(0, len(parts))), name)
        if draw(st.integers(0, 4)) == 0:
            parts.insert(draw(st.integers(0, len(parts))), draw(entities) + "\n text ")
        name = tag("trace")
        return f"<{name}>{''.join(parts)}</{name}>"

    top = [
        '<extension name="Concept" prefix="concept" uri="http://www.xes-standard.org/concept.xesext"/>',
        f'<global scope="event">{attribute()}</global>',
        '<string key="concept:name" value="the log"/>',
    ]
    if draw(st.integers(0, 19)) == 0:
        top.append('<string key="undeclared" value="&undeclared;"/>')
    top += [trace() if draw(st.integers(0, 4)) else event() for _ in range(draw(st.integers(0, 5)))]
    xmlns = {"none": "", "default": f' xmlns="{_NS}"', "prefixed": f' xmlns:x="{_NS}"'}[style]
    root = "x:log" if style == "prefixed" else "log"
    doc = (
        '<?xml version="1.0" encoding="UTF-8"?>'
        + (f"<!DOCTYPE {root}{dtd}>" if dtd else "")
        + f"<{root}{xmlns}>{''.join(draw(st.permutations(top)))}</{root}>"
    ).encode("utf-8")
    if draw(st.integers(0, 9)) == 0:
        doc = doc[: draw(st.integers(0, len(doc)))]
    return doc


@PARSER_SETTINGS
@given(xes_documents())
def test_parse_xes_equals_reference(doc):
    new = parsed(parse_xes, io.BytesIO(doc))
    old = parsed(reference_parse_xes, io.BytesIO(doc))
    if isinstance(old, str):
        # ElementTree repeats the position after expat's reason; nothing else differs.
        position = re.search(r"at (line \d+, column \d+): ", old)[1]
        assert old == f"{new}: {position}"
    else:
        assert new == old


@pytest.mark.parametrize(
    "name", ["worked_example.csv", "worked_example.xes", "spreadsheet_headers.csv",
             "chained_overlaps.csv", "same_structure_cases.csv"],
)
def test_parsers_equal_reference_on_test_data(name):
    parse, reference = (
        (parse_xes, reference_parse_xes) if name.endswith(".xes")
        else (parse_csv, reference_parse_csv)
    )
    mapping = ColumnMap("Case-ID", "Activity Label", "Start-timestamp", "Complete-timestamp")
    args = (mapping,) if name == "spreadsheet_headers.csv" else ()
    assert parsed(lambda p: parse(p, *args), DATA / name) == parsed(
        lambda p: reference(p, *args), DATA / name
    )
