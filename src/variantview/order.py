"""Interval orders of traces.

The interval order of a trace is a labeled directed graph: one vertex per
activity instance, and an edge (u, v) exactly when u completes strictly
before v starts. Instances that touch or overlap in time are unrelated. The
edge set is its own transitive closure by construction.

Vertices keep their timestamps, so the cut detectors can run as timestamp
sweeps while the graph stays available as the semantic ground truth. Edges
are derived lazily from the timestamps unless an explicit edge set is
supplied (hand-built graphs used to exercise :func:`validate`).
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass
from typing import Iterable

from .ingest import ActivityInstance, Trace, instance_sort_key

VertexId = int | str


class IntervalOrder:
    """Labeled precedence graph over the activity instances of one trace."""

    __slots__ = ("vertices", "_edges")

    def __init__(
        self,
        vertices: Iterable[ActivityInstance],
        edges: Iterable[tuple] | None = None,
    ) -> None:
        self.vertices: tuple[ActivityInstance, ...] = tuple(
            sorted(vertices, key=instance_sort_key)
        )
        if not self.vertices:
            raise ValueError("an interval order needs at least one vertex")
        ids = {v.id for v in self.vertices}
        if len(ids) != len(self.vertices):
            raise ValueError("duplicate vertex ids")
        if edges is None:
            self._edges = None
        else:
            self._edges = frozenset(edges)
            for a, b in self._edges:
                if a not in ids or b not in ids:
                    raise ValueError(f"edge ({a!r}, {b!r}) references unknown vertex")

    @property
    def edges(self) -> frozenset:
        """Directed edges (u, v) with complete(u) < start(v), as vertex-id pairs."""
        if self._edges is None:
            self._edges = _edges_from_timestamps(self.vertices)
        return self._edges

    def __len__(self) -> int:
        return len(self.vertices)

    def __eq__(self, other) -> bool:
        if not isinstance(other, IntervalOrder):
            return NotImplemented
        return self.vertices == other.vertices and self.edges == other.edges

    def __repr__(self) -> str:
        return f"IntervalOrder({len(self.vertices)} vertices, {len(self.edges)} edges)"


def _edges_from_timestamps(vertices: tuple[ActivityInstance, ...]) -> frozenset:
    # Vertices arrive sorted by start; a vertex can only be preceded by one
    # that completed strictly before its start, so a sorted list of completes
    # yields each vertex's predecessors as a prefix.
    edges = []
    completed: list[tuple[int, int]] = []  # (complete_ts, vertex position)
    for position, v in enumerate(vertices):
        cut = bisect_left(completed, (v.start_ts,))
        edges.extend((vertices[i].id, v.id) for _, i in completed[:cut])
        insort(completed, (v.complete_ts, position))
    return frozenset(edges)


def build_interval_order(trace: Trace) -> IntervalOrder:
    """Build the interval order of a trace (error on an empty trace)."""
    if not trace.instances:
        raise ValueError(f"case {trace.case_id!r}: cannot order an empty trace")
    return IntervalOrder(trace.instances)


def induced_suborder(order: IntervalOrder, subset: Iterable) -> IntervalOrder:
    """Restrict an order to a non-empty subset of its vertex ids.

    Keeps exactly the original edges with both endpoints inside the subset;
    labels and timestamps are preserved.
    """
    wanted = frozenset(subset)
    if not wanted:
        raise ValueError("subset must be non-empty")
    vertices = [v for v in order.vertices if v.id in wanted]
    if len(vertices) != len(wanted):
        known = {v.id for v in vertices}
        raise ValueError(f"unknown vertex ids in subset: {sorted(map(str, wanted - known))}")
    if order._edges is None:
        # Timestamp-derived edges restrict to timestamp-derived edges.
        return IntervalOrder(vertices)
    kept = frozenset((a, b) for a, b in order._edges if a in wanted and b in wanted)
    return IntervalOrder(vertices, edges=kept)


@dataclass(frozen=True, slots=True)
class Violation:
    """One failed interval-order axiom with witness vertex ids."""

    axiom: str
    witnesses: tuple

    def __str__(self) -> str:
        return f"{self.axiom}: {', '.join(map(repr, self.witnesses))}"


def validate(order: IntervalOrder) -> list[Violation]:
    """Check irreflexivity, asymmetry, transitivity and the interval-order
    (no 2+2 suborder) condition; return one violation per witness found."""
    verts = order.vertices
    n = len(verts)
    index = {v.id: i for i, v in enumerate(verts)}
    succ = [0] * n
    for a, b in order.edges:
        succ[index[a]] |= 1 << index[b]

    violations: list[Violation] = []
    for i in range(n):
        if succ[i] >> i & 1:
            violations.append(Violation("irreflexivity", (verts[i].id,)))
    for i in range(n):
        for j in _bits(succ[i]):
            if j > i and succ[j] >> i & 1:
                violations.append(Violation("asymmetry", (verts[i].id, verts[j].id)))
    for i in range(n):
        for j in _bits(succ[i]):
            missing = succ[j] & ~succ[i]
            for k in _bits(missing):
                if k != i:
                    violations.append(
                        Violation("transitivity", (verts[i].id, verts[j].id, verts[k].id))
                    )
    # x<w and y<z with neither x<z nor y<w: successor sets of x and y are
    # incomparable under inclusion. Witnesses overlapping {x, y} are
    # transitivity/irreflexivity artifacts, not a 2+2 suborder, so they are
    # excluded here and reported by the checks above.
    degenerate = lambda i, j: (1 << i) | (1 << j)
    for i in range(n):
        for j in range(i + 1, n):
            only_i = succ[i] & ~succ[j] & ~degenerate(i, j)
            only_j = succ[j] & ~succ[i] & ~degenerate(i, j)
            if only_i and only_j:
                w = next(_bits(only_i))
                z = next(_bits(only_j))
                violations.append(
                    Violation(
                        "interval-order-condition",
                        (verts[i].id, verts[j].id, verts[w].id, verts[z].id),
                    )
                )
    return violations


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def to_dot(order: IntervalOrder) -> str:
    """Export as a DOT digraph for external inspection."""
    lines = ["digraph interval_order {"]
    for v in order.vertices:
        lines.append(f'  "{_dot_escape(str(v.id))}" [label="{_dot_escape(v.label)}"];')
    for a, b in sorted(order.edges, key=lambda e: (str(e[0]), str(e[1]))):
        lines.append(f'  "{_dot_escape(str(a))}" -> "{_dot_escape(str(b))}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _dot_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')
