"""Chevron layout trees and variant grouping.

An interval order decomposes recursively: a maximal ordering cut becomes a
Sequence node over its blocks, a maximal parallel cut a Parallel node over
its components, a single vertex a Leaf. When neither cut applies to two or
more vertices, the suborder collapses into a Fallback listing its labels in
no particular order.

Traces whose layouts canonicalize to the same key form one variant. The
canonical form ignores the on-screen order of Parallel children and of
Fallback labels; everything else is structural.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from json.encoder import encode_basestring as json_string

from .cuts import Run, ordering_blocks, parallel_blocks
from .ingest import EventLog, Trace, group_by_case
from .order import IntervalOrder


class _Node:
    """Structural ``==``, ``hash`` and ``repr`` for the four node kinds. They go
    through :func:`fold`, so unlike the dataclass methods they work at any depth."""

    __slots__ = ()

    def __eq__(self, other):
        if not isinstance(other, _Node):
            return NotImplemented
        return layout_json_text(self) == layout_json_text(other)

    def __hash__(self):
        return hash(layout_json_text(self))

    def __repr__(self):
        return fold(self, _repr)


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class Leaf(_Node):
    label: str


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class Sequence(_Node):
    children: tuple


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class Parallel(_Node):
    children: tuple


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class Fallback(_Node):
    labels: tuple  # label multiset, sorted here once so no reader sorts it

    def __post_init__(self) -> None:
        object.__setattr__(self, "labels", tuple(sorted(self.labels)))


LayoutTree = Leaf | Sequence | Parallel | Fallback


def build_layout(order: IntervalOrder) -> LayoutTree:
    """Decompose an interval order into its layout tree (see :func:`layout_run`)."""
    return layout_run(order.vertices)


def layout_run(run: Run) -> LayoutTree:
    """The layout tree of the interval order on a non-empty run of instances
    sorted by ``instance_sort_key``, such as ``Trace.instances``.

    Deterministic: equal runs produce equal trees. Sequence and Parallel
    children appear in block order (time order for parallel components).
    The walk keeps an explicit stack of sorted vertex runs, so tree depth is
    not bounded by the recursion limit, and cuts each run in place: blocks
    are slices or subsequences of their parent's run, never new suborders.
    """
    done: list[LayoutTree] = []
    # Entries are (None, run) to cut a run, or (node class, child count) to
    # assemble a node from the last finished children.
    stack: list = [(None, run)]
    while stack:
        node, item = stack.pop()
        if node is not None:
            children = tuple(done[-item:])
            del done[-item:]
            done.append(node(children))
            continue
        if len(item) == 1:
            done.append(Leaf(item[0].label))
            continue
        node, blocks = Sequence, ordering_blocks(item)
        if len(blocks) < 2:
            node, blocks = Parallel, parallel_blocks(item)
            if len(blocks) < 2:
                done.append(Fallback(tuple(v.label for v in item)))
                continue
        stack.append((node, len(blocks)))
        stack.extend((None, b) for b in reversed(blocks))
    return done[0]


def layout_trace(trace: Trace) -> LayoutTree:
    return layout_run(trace.instances)


_STRUCTURAL = re.compile(r"[\\(){},]")


def escape_label(label: str) -> str:
    """Backslash-escape the characters the tree notations use structurally."""
    return _STRUCTURAL.sub(lambda m: "\\" + m.group(), label)


_CLOSE = object()


def fold(tree: LayoutTree, combine):
    """Post-order reduction on an explicit stack, so any depth works: the root's
    ``combine(node, child_values)``; leaves and fallbacks get no child values."""
    done: list = []
    # A node is pushed to open it. Opening pushes the node again under the
    # _CLOSE marker, which pops once the children's values are on ``done``.
    stack: list = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, (Leaf, Fallback)):
            done.append(combine(node, ()))
        elif node is _CLOSE:
            node = stack.pop()
            first = len(done) - len(node.children)
            done[first:] = [combine(node, done[first:])]
        elif isinstance(node, (Sequence, Parallel)):
            stack += (node, _CLOSE)
            stack.extend(reversed(node.children))
        else:
            raise TypeError(f"not a layout tree: {node!r}")
    return done[0]


def _key(node: LayoutTree, parts: list[str]) -> str:
    if isinstance(node, Leaf):
        return escape_label(node.label)
    if isinstance(node, Fallback):
        return "u{" + ",".join(map(escape_label, node.labels)) + "}"
    if isinstance(node, Sequence):
        return "s(" + ",".join(parts) + ")"
    return "p(" + ",".join(sorted(parts)) + ")"


def canonical_form(tree: LayoutTree) -> str:
    """Serialize a layout tree to its variant key. Two trees share a key iff
    they are equal up to reordering of Parallel children and Fallback labels."""
    return fold(tree, _key)


def _repr(node: LayoutTree, kids: list[str]) -> str:
    """The text a dataclass-generated repr gives for the node."""
    if isinstance(node, Leaf):
        return f"Leaf(label={node.label!r})"
    if isinstance(node, Fallback):
        return f"Fallback(labels={node.labels!r})"
    inner = ", ".join(kids) + ("," if len(kids) == 1 else "")
    return f"{type(node).__name__}(children=({inner}))"


def has_fallback(tree: LayoutTree) -> bool:
    return fold(tree, lambda node, kids: isinstance(node, Fallback) or any(kids))


def _json_node(node: LayoutTree, kids: list[dict]) -> dict:
    if isinstance(node, Leaf):
        return {"kind": "leaf", "label": node.label}
    if isinstance(node, Fallback):
        return {"kind": "fallback", "labels": list(node.labels)}
    return {"kind": "seq" if isinstance(node, Sequence) else "par", "children": kids}


def layout_to_json(tree: LayoutTree) -> dict:
    """Tree as a JSON-ready dict: kind seq|par|leaf|fallback plus payload."""
    return fold(tree, _json_node)


def _json_text(node: LayoutTree, kids: list[str]) -> str:
    if isinstance(node, Leaf):
        return '{"kind":"leaf","label":' + json_string(node.label) + "}"
    if isinstance(node, Fallback):
        labels = ",".join(map(json_string, node.labels))
        return '{"kind":"fallback","labels":[' + labels + "]}"
    kind = "seq" if isinstance(node, Sequence) else "par"
    return '{"kind":"' + kind + '","children":[' + ",".join(kids) + "]}"


def layout_json_text(tree: LayoutTree) -> str:
    """``layout_to_json(tree)`` as compact JSON text, equal to ``json.dumps``
    with ``ensure_ascii=False, separators=(",", ":")`` but at any depth."""
    return fold(tree, _json_text)


_PAYLOAD = {"leaf": "label", "fallback": "labels", "seq": "children", "par": "children"}


def layout_from_json(obj: dict) -> LayoutTree:
    """Inverse of :func:`layout_to_json`. ValueError on a node that is not an
    object, an unknown kind, or a missing, mistyped or empty payload."""
    done: list[LayoutTree] = []
    stack: list = [obj]
    while stack:
        node = stack.pop()
        if node is _CLOSE:
            node = stack.pop()
            first = len(done) - len(node["children"])
            done[first:] = [(Sequence if node["kind"] == "seq" else Parallel)(tuple(done[first:]))]
            continue
        if not isinstance(node, dict) or not isinstance(node.get("kind"), str):
            raise ValueError("layout node is not an object with a string 'kind'")
        kind = node["kind"]
        value = node.get(_PAYLOAD.get(kind))
        if kind == "leaf" and isinstance(value, str):
            done.append(Leaf(value))
        elif kind == "fallback" and isinstance(value, list) and {type(l) for l in value} == {str}:
            done.append(Fallback(tuple(value)))
        elif kind in ("seq", "par") and value and isinstance(value, list):
            stack += (node, _CLOSE)
            stack.extend(reversed(value))
        elif kind not in _PAYLOAD:
            raise ValueError(f"unknown layout node kind: {kind!r}")
        else:
            raise ValueError(f"{kind} layout node has no valid {_PAYLOAD[kind]!r}")
    return done[0]


@dataclass(slots=True)
class VariantEntry:
    count: int
    layout: LayoutTree
    case_ids: list[str]
    has_fallback: bool


@dataclass(slots=True)
class VariantTable:
    """Canonical layout key -> occurrence count and representative cases."""

    entries: dict[str, VariantEntry] = field(default_factory=dict)
    skipped: list[str] = field(default_factory=list)

    def add(self, key: str, tree: LayoutTree, case_id: str) -> None:
        entry = self.entries.get(key)
        if entry is None:
            self.entries[key] = VariantEntry(1, tree, [case_id], has_fallback(tree))
        else:
            entry.count += 1
            entry.case_ids.append(case_id)

    def sorted_items(self) -> list[tuple[str, VariantEntry]]:
        """Entries by descending count, then key."""
        return sorted(self.entries.items(), key=lambda kv: (-kv[1].count, kv[0]))

    def find_case(self, case_id: str) -> tuple[str, VariantEntry] | None:
        return next(((k, e) for k, e in self.entries.items() if case_id in e.case_ids), None)

    @property
    def total_count(self) -> int:
        return sum(e.count for e in self.entries.values())

    @property
    def fallback_variant_count(self) -> int:
        return sum(1 for e in self.entries.values() if e.has_fallback)


def variant_table(log: EventLog, threads: int = 1) -> VariantTable:
    """Group the traces of a log into interval-ordered variants.

    ``threads`` is accepted for compatibility and has no effect: the pipeline
    runs in one thread. Traces that cannot be ordered (no instances) land in
    the ``skipped`` bucket.
    """
    return variants_of_traces(group_by_case(log))


def variants_of_traces(traces: list[Trace]) -> VariantTable:
    """The variant pipeline: cut, key and tally one trace at a time, so only
    each variant's representative tree is kept. A trace's sorted run is its
    interval order; none is built. Empty traces are skipped."""
    table = VariantTable()
    for trace in traces:
        if not trace.instances:
            table.skipped.append(trace.case_id)
            continue
        tree = layout_run(trace.instances)
        table.add(canonical_form(tree), tree, trace.case_id)
    return table
