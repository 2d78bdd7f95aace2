"""Maximal ordering and parallel cuts of interval orders.

An ordering cut partitions the vertices into blocks such that every cross
pair between an earlier and a later block is an edge; a parallel cut
partitions them into the connected components of the relation graph. The two
kinds cannot coexist, and the maximal cut of either kind is unique, which is
what makes the recursive layout deterministic.

Both detectors are O(n) timestamp scans over a run of vertices sorted by
``instance_sort_key`` and assume a valid interval order (edges consistent
with the timestamps). Their blocks are sorted runs again (ordering blocks are
slices, parallel components subsequences), so they can be cut in turn
without rebuilding a suborder. The subset-enumeration oracle works on the
edge set alone and exists to verify the scans.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

from .ingest import ActivityInstance
from .order import IntervalOrder

Run = Sequence[ActivityInstance]


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


def ordering_blocks(verts: Run) -> list[Run]:
    """Blocks of the maximal ordering cut of a sorted run, as slices of it;
    one block means no cut. A boundary opens before vertex v exactly when the
    running maximum complete timestamp lies strictly below v's start."""
    blocks = []
    first = 0
    horizon = verts[0].complete_ts
    for i, v in enumerate(verts):
        if horizon < v.start_ts:
            blocks.append(verts[first:i])
            first = i
        if horizon < v.complete_ts:
            horizon = v.complete_ts
    blocks.append(verts[first:])
    return blocks


def parallel_blocks(verts: Run) -> list[Run]:
    """Components of the maximal parallel cut of a sorted run, as sorted
    lists in the order of their first members; one block means no cut."""
    # v overlaps every vertex, itself included, iff it starts no later than
    # the earliest complete and completes no earlier than the latest start.
    earliest = min(v.complete_ts for v in verts)
    latest = verts[-1].start_ts  # the run is sorted by start
    blocks: list = []
    core: list = []  # the one component with more than one vertex
    for v in verts:
        if v.start_ts <= earliest and v.complete_ts >= latest:
            blocks.append([v])
        else:
            if not core:
                blocks.append(core)
            core.append(v)
    return blocks


def _cut_result(kind: CutKind, blocks: list[Run]) -> CutResult:
    if len(blocks) < 2:
        return NO_CUT
    return CutResult(kind, tuple(frozenset(v.id for v in b) for b in blocks))


def maximal_ordering_cut(order: IntervalOrder) -> CutResult:
    """The unique maximal ordering cut, by :func:`ordering_blocks`."""
    return _cut_result(CutKind.ORDERING, ordering_blocks(order.vertices))


def maximal_parallel_cut(order: IntervalOrder) -> CutResult:
    """The unique maximal parallel cut: connected components of the relation
    graph, listed by minimum start (then complete, then label).

    Interval orders are 2+2-free, so at most one component has more than one
    vertex: two such components would each hold an edge, a<b and c<d, with no
    edge between them. Every other component is a single vertex overlapping
    all the rest: it starts no later than the earliest complete and completes
    no earlier than the latest start. :func:`parallel_blocks` tests that per
    vertex, in O(n) on the sorted vertices.
    """
    return _cut_result(CutKind.PARALLEL, parallel_blocks(order.vertices))


def find_cut(order: IntervalOrder) -> CutResult:
    """Return the ordering cut if one exists, else the parallel cut, else no
    cut. At most one detector can fire, so the priority is immaterial."""
    cut = maximal_ordering_cut(order)
    if cut.kind is CutKind.ORDERING:
        return cut
    return maximal_parallel_cut(order)


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
