"""Shared fixtures and independent reference implementations.

The reference helpers here are deliberately naive (pairwise double loops,
BFS reachability): they are the oracles the production sweeps are checked
against and must not share logic with them.
"""

from __future__ import annotations

import random
from collections import deque
from pathlib import Path

import pytest

from variantview.cuts import CutKind, find_cut
from variantview.ingest import ActivityInstance, Trace
from variantview.layout import Fallback, Leaf, Parallel, Sequence
from variantview.order import IntervalOrder, build_interval_order, induced_suborder

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
