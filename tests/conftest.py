"""Shared fixtures and independent reference implementations.

The reference helpers here are deliberately naive (pairwise double loops,
BFS reachability): they are the oracles the production sweeps are checked
against and must not share logic with them.
"""

from __future__ import annotations

import csv
import hashlib
import json
import random
import re
import xml.etree.ElementTree as ET
from collections import deque
from datetime import datetime, timedelta, timezone
from functools import partial
from itertools import groupby
from pathlib import Path

import pytest

from variantview.cuts import CutKind, CutResult, find_cut
from variantview.ingest import (
    ActivityInstance,
    ColumnMap,
    EventLog,
    ParseError,
    SourceMeta,
    Trace,
    _open_binary,
    _open_text,
    instance_sort_key,
    pair_events,
)
from variantview.layout import (
    Fallback,
    Leaf,
    Parallel,
    Sequence,
    VariantTable,
    build_layout,
    canonical_form,
    fold,
    layout_json_text,
)
from variantview.order import IntervalOrder, build_interval_order, induced_suborder
from variantview.render import _CONTAINER_FILLS, _LEAF_WIDTH, NOTCH, PADDING, PALETTE, UNIT_HEIGHT

DATA = Path(__file__).parent / "data"

MIN = 60_000_000  # microseconds per minute

# 2021-07-13T00:00:00Z
DAY0 = 1_626_134_400 * 1_000_000


def ts(hours: float, minutes: float = 0.0) -> int:
    """Timestamp on the worked-example day, in UTC microseconds."""
    return DAY0 + int(round((hours * 60 + minutes) * MIN))


def inst(id, label, start_min, complete_min, case="c"):
    """Instance with timestamps given in minutes from 08:00."""
    return ActivityInstance(
        id, case, label, ts(8, start_min), ts(8, complete_min)
    )


def make_trace(rows, case="c"):
    """rows: (label, start_minutes, complete_minutes) triples."""
    return Trace(
        case,
        tuple(inst(i, l, s, c, case=case) for i, (l, s, c) in enumerate(rows)),
    )


WORKED_CASE_ROWS = (
    ("A", 0, 90),
    ("B", 30, 180),
    ("C", 60, 240),
    ("D", 210, 330),
    ("E", 220, 300),
    ("F", 360, 420),
    ("A", 390, 480),
    ("G", 510, 540),
)

TWIN_CASE_ROWS = (
    ("A", 0, 90),
    ("B", 60, 120),
    ("C", 60, 240),
    ("D", 210, 330),
    ("E", 180, 300),
    ("F", 360, 420),
    ("A", 348, 420),
    ("G", 450, 540),
)

CHAINED_ROWS = (
    ("A", 0, 90),
    ("B", 60, 150),
    ("C", 120, 210),
    ("D", 180, 270),
    ("E", 240, 330),
    ("F", 300, 390),
)

# Interval realization whose maximal ordering cut is {v0,v1,v2}, {v3}, {v4,v5} and
# v0 -> v2 the only edge inside the first block.
BLOCK_EXAMPLE_ROWS = (
    ("v0", "a", 0, 10),
    ("v1", "a", 5, 25),
    ("v2", "a", 20, 30),
    ("v3", "a", 40, 50),
    ("v4", "a", 60, 70),
    ("v5", "a", 65, 75),
)


@pytest.fixture
def worked_case() -> Trace:
    return make_trace(WORKED_CASE_ROWS, case="1")


@pytest.fixture
def twin_case() -> Trace:
    return make_trace(TWIN_CASE_ROWS, case="2")


@pytest.fixture
def chained_case() -> Trace:
    return make_trace(CHAINED_ROWS, case="5")


@pytest.fixture
def three_block_order() -> IntervalOrder:
    return build_interval_order(
        Trace(
            "6",
            tuple(inst(i, l, s, c, case="6") for i, l, s, c in BLOCK_EXAMPLE_ROWS),
        )
    )


def random_trace(rng: random.Random, min_size=2, max_size=12, case="r") -> Trace:
    """Random trace on a small integer grid; ties and touching are frequent."""
    n = rng.randint(min_size, max_size)
    rows = []
    for i in range(n):
        start = rng.randint(0, 20)
        rows.append((rng.choice("abcd"), start, start + rng.randint(0, 6)))
    return make_trace(rows, case=case)


def nested_trace(levels: int, case="deep") -> Trace:
    """``par(seq(..., Xk), Yk)`` nested ``levels`` deep around one leaf L0.

    Level k adds Xk, which starts after everything so far, and Yk, which
    spans from time 0 to Xk's start and so overlaps every other instance.
    The trace has ``2 * levels + 1`` instances and a layout that deep.
    """
    rows = [("L0", 0, 1)]
    end = 1
    for k in range(levels):
        rows.append((f"X{k}", end + 1, end + 2))
        rows.append((f"Y{k}", 0, end + 1))
        end += 2
    return make_trace(rows, case=case)


def brute_edges(instances) -> frozenset:
    """Pairwise double loop over the strict precedence definition."""
    return frozenset(
        (a.id, b.id)
        for a in instances
        for b in instances
        if a.id != b.id and a.complete_ts < b.start_ts
    )


def bfs_components(order: IntervalOrder) -> set[frozenset]:
    """Reachability partition of the undirected view of the edge set."""
    neighbours = {v.id: set() for v in order.vertices}
    for a, b in order.edges:
        neighbours[a].add(b)
        neighbours[b].add(a)
    seen = set()
    components = set()
    for v in order.vertices:
        if v.id in seen:
            continue
        queue = deque([v.id])
        component = set()
        while queue:
            u = queue.popleft()
            if u in component:
                continue
            component.add(u)
            queue.extend(neighbours[u] - component)
        seen |= component
        components.add(frozenset(component))
    return components


def reference_layout(order: IntervalOrder):
    """The layout by plain recursion: cut with ``find_cut``, rebuild every
    block with ``induced_suborder``. Only for shallow trees (a few hundred
    levels at most)."""
    if len(order.vertices) == 1:
        return Leaf(order.vertices[0].label)
    cut = find_cut(order)
    if cut.kind is CutKind.NONE:
        return Fallback(tuple(sorted(v.label for v in order.vertices)))
    node = Sequence if cut.kind is CutKind.ORDERING else Parallel
    return node(tuple(reference_layout(induced_suborder(order, g)) for g in cut.groups))


def as_cut(kind: CutKind, blocks) -> CutResult:
    """A kernel's block list as a ``CutResult`` of vertex-id sets in block
    order; fewer than two blocks is no cut."""
    if len(blocks) < 2:
        return CutResult(CutKind.NONE, ())
    return CutResult(kind, tuple(frozenset(v.id for v in b) for b in blocks))


MAX_ORACLE_VERTICES = 16


def brute_force_ordering_cut(order: IntervalOrder) -> CutResult:
    """Ordering-cut oracle by direct enumeration of all vertex subsets.

    A subset P is a prefix of an ordering cut iff every pair (p in P,
    s outside P) is an edge; the prefixes form a chain under inclusion and
    their consecutive differences are the maximal blocks. Works on the edge
    set only; limited to 16 vertices.
    """
    verts = order.vertices
    n = len(verts)
    if n > MAX_ORACLE_VERTICES:
        raise ValueError(f"oracle limited to {MAX_ORACLE_VERTICES} vertices, got {n}")
    if n == 1:
        return CutResult(CutKind.NONE, ())
    index = {v.id: i for i, v in enumerate(verts)}
    succ = [0] * n
    for a, b in order.edges:
        succ[index[a]] |= 1 << index[b]
    full = (1 << n) - 1

    # P qualifies iff union of non-successors over its members stays inside P.
    # required[m] is that union for the subset with bit mask m.
    required = [0]
    for b in range(n):
        non_succ_b = full & ~succ[b]
        required += [r | non_succ_b for r in required]
    prefixes = [m for m in range(1, full) if not required[m] & ~m]
    prefixes.sort(key=lambda m: (bin(m).count("1"), m))

    block_masks = []
    prev = 0
    for mask in prefixes:
        if prev & ~mask:
            raise ValueError("prefix sets are not a chain: not a valid interval order")
        block_masks.append(mask & ~prev)
        prev = mask
    block_masks.append(full & ~prev)
    if len(block_masks) < 2:
        return CutResult(CutKind.NONE, ())
    groups = tuple(
        frozenset(verts[i].id for i in range(n) if mask >> i & 1)
        for mask in block_masks
    )
    return CutResult(CutKind.ORDERING, groups)


def _labels(node, kids: list[list[str]]) -> list[str]:
    if isinstance(node, Leaf):
        return [node.label]
    return list(node.labels) if isinstance(node, Fallback) else [l for k in kids for l in k]


def tree_labels(tree) -> list[str]:
    """The label multiset of a tree (order unspecified)."""
    return fold(tree, _labels)


# Reference pipeline: the order-based one the per-trace loop replaced. It
# sorts the whole log, builds every trace's IntervalOrder (which sorts its
# vertices again) and keeps every tree and key until the table is filled.


def reference_group_by_case(log: EventLog) -> list[Trace]:
    """``group_by_case`` as one sort of the whole log and ``groupby``."""
    ordered = sorted(log.instances, key=lambda a: (a.case_id,) + instance_sort_key(a))
    return [Trace(c, tuple(g)) for c, g in groupby(ordered, key=lambda a: a.case_id)]


def reference_variants(traces: list[Trace]) -> VariantTable:
    """``variants_of_traces`` over whole-log lists of orders, trees and keys."""
    usable = [t for t in traces if t.instances]
    table = VariantTable(skipped=[t.case_id for t in traces if not t.instances])
    orders = [build_interval_order(t) for t in usable]
    trees = [build_layout(o) for o in orders]
    keys = [canonical_form(t) for t in trees]
    for trace, key, tree in zip(usable, keys, trees):
        table.add(key, tree, trace.case_id)
    return table


_LAYOUT_SLOT = re.compile(r'^(      "layout": )(\d+)$', re.MULTILINE)


def reference_variants_document(table: VariantTable) -> str:
    """The ``variants`` JSON document as one ``json.dumps`` with each layout
    spliced in, compact, where its index was."""
    items = table.sorted_items()
    payload = {
        "num_variants": len(table.entries),
        "total_traces": table.total_count,
        "skipped_traces": len(table.skipped),
        "variants": [
            {
                "key": key,
                "count": entry.count,
                "has_fallback": entry.has_fallback,
                "representative_cases": entry.case_ids[:5],
                "layout": i,
            }
            for i, (key, entry) in enumerate(items)
        ],
    }
    layouts = [layout_json_text(entry.layout) for _, entry in items]
    text = _LAYOUT_SLOT.sub(
        lambda m: m[1] + layouts[int(m[2])], json.dumps(payload, ensure_ascii=False, indent=2)
    )
    return text + "\n"


# Reference SVG writer: the drawing code the one-string writers in
# ``variantview.render`` replaced, verbatim but for the ``_ref_`` names. It
# hashes and formats every leaf on every call. Shared with the package: the
# geometry constants and the palette.


def reference_render_svg(tree, palette_seed: int = 0) -> str:
    """``render_svg`` as it was: each number formatted on its own, each leaf
    hashed and escaped on every call."""
    sizes: dict[int, tuple[float, float]] = {}
    width, height = fold(tree, partial(_ref_measure, sizes))
    parts = _ref_draw((tree, PADDING, PADDING, width, height, 0), palette_seed, sizes)
    total_w, total_h = width + 2 * PADDING, height + 2 * PADDING
    head = (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_ref_fmt(total_w)}" height="{_ref_fmt(total_h)}" '
        f'viewBox="0 0 {_ref_fmt(total_w)} {_ref_fmt(total_h)}">\n'
    )
    return head + "".join(parts) + "</svg>\n"


def _ref_label_color(label: str, palette_seed: int = 0) -> str:
    digest = hashlib.blake2b(
        f"{palette_seed}:{label}".encode("utf-8"), digest_size=8
    ).digest()
    return PALETTE[int.from_bytes(digest, "big") % len(PALETTE)]


def _ref_text_color(fill: str) -> str:
    r, g, b = (int(fill[i : i + 2], 16) for i in (1, 3, 5))
    return "#1a1a1a" if 0.299 * r + 0.587 * g + 0.114 * b > 150 else "#ffffff"


def _ref_fmt(x: float) -> str:
    return f"{x:.2f}"


def _ref_measure(sizes: dict, node, child_sizes: list) -> tuple:
    if isinstance(node, Leaf):
        size = (_LEAF_WIDTH, UNIT_HEIGHT)
    elif isinstance(node, Fallback):
        size = (_LEAF_WIDTH, UNIT_HEIGHT * len(node.labels))
    elif isinstance(node, Sequence):
        size = (
            sum(w for w, _ in child_sizes) + PADDING * (len(child_sizes) - 1),
            max(h for _, h in child_sizes),
        )
    else:
        size = (
            max(w for w, _ in child_sizes) + 2 * (NOTCH + PADDING),
            sum(h for _, h in child_sizes) + PADDING * (len(child_sizes) + 1),
        )
    sizes[id(node)] = size
    return size


def _ref_draw(root: tuple, palette_seed: int, sizes: dict) -> list[str]:
    out: list[str] = []
    stack: list = [root]
    while stack:
        item = stack.pop()
        if type(item) is str:
            out.append(item)
            continue
        node, x, y, w, h, depth = item
        if isinstance(node, Leaf):
            fill = _ref_label_color(node.label, palette_seed)
            out.append('<g class="leaf">')
            out.append(_ref_chevron(x, y, w, h, fill))
            out.append(_ref_text(x + w / 2, y + h / 2, node.label, _ref_text_color(fill)))
            out.append("</g>\n")
            continue
        if isinstance(node, Fallback):
            fill = _CONTAINER_FILLS[depth % len(_CONTAINER_FILLS)]
            out.append('<g class="fallback">')
            out.append(_ref_chevron(x, y, w, h, fill))
            line_h = h / len(node.labels)
            for i, label in enumerate(node.labels):
                out.append(_ref_text(x + w / 2, y + line_h * (i + 0.5), label, "#1a1a1a"))
            out.append("</g>\n")
            continue
        child_sizes = [sizes[id(c)] for c in node.children]
        placed = []
        if isinstance(node, Sequence):
            out.append('<g class="seq">\n')
            pool = sum(cw for cw, _ in child_sizes)
            extra = max(0.0, w - (pool + PADDING * (len(child_sizes) - 1)))
            cursor = x
            for i, (child, (cw, _)) in enumerate(zip(node.children, child_sizes)):
                cw_final = cw + extra * cw / pool
                if i == len(child_sizes) - 1:
                    cw_final = x + w - cursor  # close rounding drift exactly
                placed.append((child, cursor, y, cw_final, h, depth))
                cursor += cw_final + PADDING
        else:
            fill = _CONTAINER_FILLS[depth % len(_CONTAINER_FILLS)]
            out.append('<g class="par">\n')
            out.append(_ref_chevron(x, y, w, h, fill))
            inner_x = x + NOTCH + PADDING
            inner_w = w - 2 * (NOTCH + PADDING)
            pool = sum(ch for _, ch in child_sizes)
            extra = max(0.0, h - (pool + PADDING * (len(child_sizes) + 1)))
            cursor = y + PADDING
            for child, (_, ch) in zip(node.children, child_sizes):
                ch_final = ch + extra * ch / pool
                placed.append((child, inner_x, cursor, inner_w, ch_final, depth + 1))
                cursor += ch_final + PADDING
        stack.append("</g>\n")
        stack.extend(reversed(placed))
    return out


def _ref_chevron(x: float, y: float, w: float, h: float, fill: str) -> str:
    notch = min(NOTCH, w / 2)
    points = " ".join(
        f"{_ref_fmt(px)},{_ref_fmt(py)}"
        for px, py in (
            (x, y),
            (x + w - notch, y),
            (x + w, y + h / 2),
            (x + w - notch, y + h),
            (x, y + h),
            (x + notch, y + h / 2),
        )
    )
    return (
        f'<polygon points="{points}" fill="{fill}" '
        'stroke="#8c8c8c" stroke-width="0.75"/>\n'
    )


def _ref_text(cx: float, cy: float, label: str, color: str) -> str:
    size = 0.45 * UNIT_HEIGHT
    label = label.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    return (
        f'<text x="{_ref_fmt(cx)}" y="{_ref_fmt(cy)}" text-anchor="middle" '
        f'dominant-baseline="central" font-family="sans-serif" '
        f'font-size="{_ref_fmt(size)}" fill="{color}">{label}</text>\n'
    )


# Reference parsers: the element-tree and DictReader readers the streaming
# ones in ``variantview.ingest`` replaced. They share only ``pair_events``,
# the data classes and the file openers with the package.

_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
_SLASH_FORMATS = ("%m/%d/%Y %H:%M:%S", "%m/%d/%Y %H:%M")
_FRACTION_RE = re.compile(r"\.(\d+)")
_COMPACT_OFFSET_RE = re.compile(r"([+-]\d{2})(\d{2})$")


def reference_parse_timestamp(text: str) -> int:
    """Normalize the RFC 3339 variants Python 3.10's ``fromisoformat``
    rejects (trailing 'Z', fractions that are not 3/6 digits, '+0200'
    offsets), then try the slash formats."""
    raw = text.strip()
    s = raw
    if s.endswith(("Z", "z")):
        s = s[:-1] + "+00:00"
    s = _COMPACT_OFFSET_RE.sub(r"\1:\2", s)
    s = _FRACTION_RE.sub(lambda m: "." + m.group(1)[:6].ljust(6, "0"), s, count=1)
    try:
        dt = datetime.fromisoformat(s)
    except ValueError:
        dt = None
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
    return (dt - _EPOCH) // timedelta(microseconds=1)


def reference_parse_csv(source, mapping: ColumnMap | None = None) -> EventLog:
    """``parse_csv`` on ``csv.DictReader``."""
    mapping = mapping or ColumnMap()
    file_name, stream, close = _open_text(source)
    warnings, errors, instances = [], [], []
    try:
        reader = csv.DictReader(stream)
        header = reader.fieldnames or []
        missing = [c for c in mapping.fields() if c not in header]
        if missing:
            raise ParseError(f"missing required column(s) {missing} in header {header}")
        for row_no, row in enumerate(reader, start=1):
            cells = [row.get(c) for c in mapping.fields()]
            if any(cell is None for cell in cells):
                warnings.append(f"row {row_no} rejected: short row")
                continue
            case_raw, label, start_raw, complete_raw = cells
            try:
                start = reference_parse_timestamp(start_raw)
                complete = reference_parse_timestamp(complete_raw)
            except ValueError as exc:
                warnings.append(f"row {row_no} rejected: {exc}")
                continue
            if start > complete:
                errors.append(
                    f"row {row_no} rejected: start {start_raw!r} after complete {complete_raw!r}"
                )
                continue
            instances.append(ActivityInstance(row_no, str(case_raw), label, start, complete))
    finally:
        if close:
            stream.close()
    return EventLog(tuple(instances), SourceMeta(file_name, "csv", tuple(warnings), tuple(errors)))


def reference_parse_xes(source) -> EventLog:
    """``parse_xes`` on ``ElementTree.iterparse``: each ``trace`` element is
    read when it ends, then cleared. Its ParseError message carries
    ElementTree's own position suffix after expat's reason."""
    file_name, stream, close = _open_binary(source)
    warnings, instances = [], []
    next_id = 0
    trace_no = 0
    try:
        root = None
        for event, elem in ET.iterparse(stream, events=("start", "end")):
            if event == "start":
                if root is None:
                    root = elem
                continue
            if elem.tag.rpartition("}")[2] != "trace":
                continue
            trace_no += 1
            case_id, paired, atomic = _reference_read_trace(elem, trace_no, warnings)
            batch = pair_events(paired, case_id=case_id, id_start=next_id, warnings=warnings)
            next_id += len(batch)
            for label, ts in atomic:
                batch.append(ActivityInstance(next_id, case_id, label, ts, ts))
                next_id += 1
            instances.extend(batch)
            elem.clear()
            for child in list(root):
                if child is not elem:
                    root.remove(child)
    except ET.ParseError as exc:
        line, column = exc.position
        raise ParseError(f"malformed XES XML at line {line}, column {column}: {exc.msg}") from exc
    finally:
        if close:
            stream.close()
    return EventLog(tuple(instances), SourceMeta(file_name, "xes", tuple(warnings), ()))


def _reference_read_trace(elem, trace_no, warnings):
    case_id = None
    paired, atomic = [], []
    event_no = 0
    for child in elem:
        tag = child.tag.rpartition("}")[2]
        if tag == "event":
            event_no += 1
            attrs = {sub.attrib.get("key"): sub.attrib.get("value", "") for sub in child}
            label = attrs.get("concept:name")
            ts_raw = attrs.get("time:timestamp")
            if label is None or ts_raw is None:
                warnings.append(
                    f"trace {trace_no}: event {event_no} skipped "
                    "(missing concept:name or time:timestamp)"
                )
                continue
            try:
                ts = reference_parse_timestamp(ts_raw)
            except ValueError as exc:
                warnings.append(f"trace {trace_no}: event {event_no} skipped ({exc})")
                continue
            lifecycle = attrs.get("lifecycle:transition", "").strip().lower()
            if lifecycle in ("start", "complete"):
                paired.append((label, lifecycle, ts, event_no))
            else:
                atomic.append((label, ts))
        elif tag == "string" and child.attrib.get("key") == "concept:name":
            case_id = child.attrib.get("value")
    if case_id is None:
        case_id = f"case_{trace_no}"
    paired.sort(key=lambda e: (e[2], e[3]))
    return case_id, [(label, kind, ts) for label, kind, ts, _ in paired], atomic


def parsed(parse, source):
    """What a parser makes of ``source``: instance tuples, warnings and
    errors, or the ParseError's message."""
    try:
        log = parse(source)
    except ParseError as exc:
        return str(exc)
    return (
        [(a.id, a.case_id, a.label, a.start_ts, a.complete_ts) for a in log.instances],
        log.source_meta.warnings,
        log.source_meta.errors,
    )
