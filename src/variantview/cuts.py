"""Maximal ordering and parallel cuts of interval orders.

An ordering cut partitions the vertices into blocks such that every cross
pair between an earlier and a later block is an edge; a parallel cut
partitions them into the connected components of the relation graph. The two
kinds cannot coexist, and the maximal cut of either kind is unique, which is
what makes the recursive layout deterministic.

Both detectors run as timestamp sweeps in O(n log n) and assume a valid
interval order (edges consistent with the vertex timestamps). The
subset-enumeration oracle works on the edge set alone and exists to verify
the sweeps.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from enum import Enum

from .order import IntervalOrder


class CutKind(Enum):
    ORDERING = "ordering"
    PARALLEL = "parallel"
    NONE = "none"


@dataclass(frozen=True, slots=True)
class CutResult:
    """Outcome of cut detection.

    ``groups`` are non-empty, pairwise disjoint vertex-id sets covering all
    vertices; their order is the block precedence for ordering cuts and the
    minimum-start order for parallel cuts.
    """

    kind: CutKind
    groups: tuple[frozenset, ...]


NO_CUT = CutResult(CutKind.NONE, ())


def maximal_ordering_cut(order: IntervalOrder) -> CutResult:
    """Detect the unique maximal ordering cut via a start-time sweep.

    A block boundary opens before vertex v exactly when every vertex seen so
    far completed strictly before v starts, i.e. the running maximum complete
    timestamp lies strictly below v's start.
    """
    verts = order.vertices
    groups: list[list] = []
    current: list = [verts[0].id]
    horizon = verts[0].complete_ts
    for v in verts[1:]:
        if horizon < v.start_ts:
            groups.append(current)
            current = []
        current.append(v.id)
        horizon = max(horizon, v.complete_ts)
    groups.append(current)
    if len(groups) < 2:
        return NO_CUT
    return CutResult(CutKind.ORDERING, tuple(frozenset(g) for g in groups))


def maximal_parallel_cut(order: IntervalOrder) -> CutResult:
    """Detect the unique maximal parallel cut: connected components of the
    relation graph, listed by minimum start (then complete, then label).

    Components are found by disjoint-set union over precedence pairs, scanned
    in start order: whenever some vertex completed strictly before v starts,
    v, that vertex, and everything previously related to it collapse into one
    component, so one union against a remembered pool member suffices.
    """
    verts = order.vertices
    n = len(verts)
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x: int, y: int) -> None:
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[ry] = rx

    completed: list[tuple[int, int]] = []  # (complete_ts, position) min-heap
    pool_head = -1
    for i, v in enumerate(verts):
        old_head = pool_head
        while completed and completed[0][0] < v.start_ts:
            _, j = heapq.heappop(completed)
            union(i, j)
            pool_head = j
        if old_head >= 0:
            union(i, old_head)
        heapq.heappush(completed, (v.complete_ts, i))

    members: dict[int, list] = {}
    for i, v in enumerate(verts):
        members.setdefault(find(i), []).append(i)
    # Vertices are scanned in (start, complete, label) order, so components
    # enter ``members`` in the order of their minimum members.
    blocks = list(members.values())
    if len(blocks) < 2:
        return NO_CUT
    return CutResult(
        CutKind.PARALLEL,
        tuple(frozenset(verts[i].id for i in block) for block in blocks),
    )


def find_cut(order: IntervalOrder) -> CutResult:
    """Return the ordering cut if one exists, else the parallel cut, else no
    cut. At most one detector can fire, so the priority is immaterial."""
    cut = maximal_ordering_cut(order)
    if cut.kind is CutKind.ORDERING:
        return cut
    cut = maximal_parallel_cut(order)
    if cut.kind is CutKind.PARALLEL:
        return cut
    return NO_CUT


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
        return NO_CUT
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
        return NO_CUT
    groups = tuple(
        frozenset(verts[i].id for i in range(n) if mask >> i & 1)
        for mask in block_masks
    )
    return CutResult(CutKind.ORDERING, groups)
