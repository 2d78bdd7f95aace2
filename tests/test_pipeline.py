"""The variant pipeline's memory design: one sort and one pass per trace,
shared names and a streamed ``variants`` writer. Checked against the
order-based reference pipeline in ``conftest``, for invariance under the
order of the input, and for the memory it holds."""

from __future__ import annotations

import csv
import io
import json
import random
import tempfile
import tracemalloc
from pathlib import Path

from hypothesis import given, settings, strategies as st

from conftest import (
    inst,
    reference_group_by_case,
    reference_variants,
    reference_variants_document,
)
from variantview.cli import _write_variants_json, main
from variantview.ingest import (
    EventLog,
    Trace,
    format_timestamp,
    group_by_case,
    parse_csv,
    parse_xes,
)
from variantview.layout import variant_table, variants_of_traces
from variantview.order import IntervalOrder
from variantview.stats import GeneratorSpec, generate_log, report

# (case id, label, start minute, duration in minutes): one instance each.
_ROWS = st.lists(
    st.tuples(
        st.sampled_from(["c1", "c2", "c10", "x"]),
        st.sampled_from("abcd"),
        st.integers(0, 20),
        st.integers(0, 6),
    ),
    max_size=40,
)


def _log(rows) -> EventLog:
    return EventLog(tuple(inst(i, l, s, s + d, case=c) for i, (c, l, s, d) in enumerate(rows)))


def _view(table):
    """Everything a table says, in entry order."""
    entries = [
        (key, e.count, e.case_ids, e.layout, e.has_fallback) for key, e in table.entries.items()
    ]
    return entries, table.skipped


@given(_ROWS, st.lists(st.tuples(st.integers(0, 10), st.sampled_from(["e1", "e2", "e3"]))))
@settings(max_examples=150, deadline=None)
def test_pipeline_equals_order_based_reference(rows, empties):
    log = _log(rows)
    traces = group_by_case(log)
    reference = reference_group_by_case(log)
    assert [(t.case_id, t.instances) for t in traces] == [
        (t.case_id, t.instances) for t in reference
    ]
    assert _view(variant_table(log)) == _view(reference_variants(reference))
    mixed = list(traces)
    for position, case_id in empties:
        mixed.insert(position % (len(mixed) + 1), Trace(case_id, ()))
    assert _view(variants_of_traces(mixed)) == _view(reference_variants(mixed))


@given(_ROWS, st.lists(st.sampled_from(["e1", "e2"]), max_size=3))
@settings(max_examples=100, deadline=None)
def test_streamed_document_equals_one_dump(rows, empties):
    table = variants_of_traces(group_by_case(_log(rows)) + [Trace(e, ()) for e in empties])
    out = io.StringIO()
    _write_variants_json(out, table)
    assert out.getvalue() == reference_variants_document(table)


def _csv_text(rows) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["case", "label", "start", "complete"])
    for c, l, s, d in rows:
        a = inst(0, l, s, s + d)
        writer.writerow([c, l, format_timestamp(a.start_ts), format_timestamp(a.complete_ts)])
    return out.getvalue()


def _xes_text(cases: dict) -> str:
    parts = ['<log xes.version="1.0">']
    for case_id, rows in cases.items():
        parts.append(f'<trace><string key="concept:name" value="{case_id}"/>')
        for _, l, s, d in rows:
            a = inst(0, l, s, s + d)
            for kind, t in (("start", a.start_ts), ("complete", a.complete_ts)):
                parts.append(
                    f'<event><string key="concept:name" value="{l}"/>'
                    f'<string key="lifecycle:transition" value="{kind}"/>'
                    f'<date key="time:timestamp" value="{format_timestamp(t)}"/></event>'
                )
        parts.append("</trace>")
    return "".join(parts) + "</log>\n"


def _outputs(path: Path) -> tuple:
    """``variants`` JSON and text bytes and the ``stats`` counts of one file."""
    got = []
    for command, fmt in (("variants", "json"), ("variants", "text"), ("stats", "json")):
        out = path.with_name(f"{command}.{fmt}")
        argv = [command, "--input", str(path), "--output", str(out), "--output-format", fmt]
        assert main(argv) == 0
        got.append(out.read_bytes())
    stats = json.loads(got.pop())
    del stats["timings"]
    return tuple(got) + (stats,)


@given(_ROWS, st.randoms(use_true_random=False))
@settings(max_examples=20, deadline=None)
def test_csv_row_order_changes_no_output(rows, rng):
    shuffled = list(rows)
    rng.shuffle(shuffled)
    with tempfile.TemporaryDirectory() as tmp:
        outputs = []
        for name, these in (("a", rows), ("b", shuffled)):
            (Path(tmp) / name).mkdir()
            path = Path(tmp) / name / "log.csv"
            path.write_text(_csv_text(these), encoding="utf-8")
            outputs.append(_outputs(path))
    assert outputs[0] == outputs[1]


@given(_ROWS, st.randoms(use_true_random=False))
@settings(max_examples=20, deadline=None)
def test_xes_trace_order_changes_no_output(rows, rng):
    cases: dict = {}
    for row in rows:
        cases.setdefault(row[0], []).append(row)
    names = list(cases)
    rng.shuffle(names)
    with tempfile.TemporaryDirectory() as tmp:
        outputs = []
        for name, order in (("a", list(cases)), ("b", names)):
            (Path(tmp) / name).mkdir()
            path = Path(tmp) / name / "log.xes"
            path.write_text(_xes_text({c: cases[c] for c in order}), encoding="utf-8")
            outputs.append(_outputs(path))
    assert outputs[0] == outputs[1]


def test_pipeline_builds_no_interval_order(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the variant pipeline built an IntervalOrder")

    log = generate_log(GeneratorSpec(4, 10, 12, 0.5, seed=3))
    monkeypatch.setattr(IntervalOrder, "__init__", refuse)
    assert variant_table(log).total_count == 40
    assert report(log).interval_variant_count == 4


# Traced memory variant_table allocates beyond the log it reads, as a share
# of the log's own traced size. The whole-log sorts and lists of orders,
# trees and keys took 0.86 of it on this log; one pass per trace takes 0.23.
_PEAK_SHARE_BOUND = 0.5


def test_variant_table_peak_memory_is_a_small_share_of_the_log():
    tracemalloc.start()
    try:
        log = generate_log(GeneratorSpec(20, 50, 20, 0.45, seed=5))
        log_bytes, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        table = variant_table(log)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert table.total_count == 1000
    assert (peak - log_bytes) / log_bytes < _PEAK_SHARE_BOUND


EMPTY_DOCUMENT = (
    '{\n  "num_variants": 0,\n  "total_traces": 0,\n  "skipped_traces": 0,\n  "variants": []\n}\n'
)


def test_empty_table_writes_an_empty_variant_list(tmp_path, capsys):
    path = tmp_path / "rejected.csv"
    path.write_text("case,label,start,complete\nc,A,never,never\n", encoding="utf-8")
    out = tmp_path / "variants.json"
    assert main(["variants", "--input", str(path), "--output", str(out)]) == 0
    capsys.readouterr()
    assert main(["variants", "--input", str(path)]) == 0
    assert capsys.readouterr().out == EMPTY_DOCUMENT
    assert out.read_bytes() == EMPTY_DOCUMENT.encode()


def test_every_trace_empty_writes_an_empty_variant_list():
    table = variants_of_traces([Trace("a", ()), Trace("b", ())])
    out = io.StringIO()
    _write_variants_json(out, table)
    assert out.getvalue() == reference_variants_document(table)
    assert json.loads(out.getvalue()) == {
        "num_variants": 0, "total_traces": 0, "skipped_traces": 2, "variants": [],
    }


def test_parsers_share_equal_names(tmp_path):
    text = "case,label,start,complete\n" + "".join(
        f"c{i % 3},{'AB'[i % 2]}x,07/13/2021 08:00,07/13/2021 09:00\n" for i in range(12)
    )
    log = parse_csv(io.StringIO(text))
    assert len({id(a.case_id) for a in log.instances}) == 3
    assert len({id(a.label) for a in log.instances}) == 2
    rng = random.Random(1)
    rows = [(f"k{rng.randint(0, 2)}", rng.choice("ab") + "y", 0, 1) for _ in range(12)]
    cases: dict = {}
    for row in rows:
        cases.setdefault(row[0], []).append(row)
    path = tmp_path / "log.xes"
    path.write_text(_xes_text(cases), encoding="utf-8")
    log = parse_xes(path)
    assert len({id(a.label) for a in log.instances}) == len({a.label for a in log.instances})
