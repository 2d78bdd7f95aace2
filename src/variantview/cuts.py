"""Maximal ordering and parallel cuts of interval orders.

An ordering cut partitions the vertices into blocks such that every cross
pair between an earlier and a later block is an edge; a parallel cut
partitions them into the connected components of the relation graph. The two
kinds cannot coexist, and the maximal cut of either kind is unique, which is
what makes the recursive layout deterministic.

Both kernels are O(n) timestamp scans over a run of vertices sorted by
``instance_sort_key`` and assume a valid interval order (edges consistent
with the timestamps). Their blocks are sorted runs again (ordering blocks are
slices, parallel components subsequences), so they can be cut in turn
without rebuilding a suborder.
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
    """Components of the maximal parallel cut of a sorted run (the connected
    components of the relation graph), as sorted lists in the order of their
    first members; one block means no cut.

    Interval orders are 2+2-free, so at most one component has more than one
    vertex: two such components would each hold an edge, a<b and c<d, with no
    edge between them. Every other component is a single vertex overlapping
    all the rest, which one test per vertex finds.
    """
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


def find_cut(order: IntervalOrder) -> CutResult:
    """The maximal ordering cut if one exists, else the maximal parallel cut,
    else no cut, with the blocks as vertex-id sets. At most one kernel can
    fire, so the priority is immaterial."""
    for kind, blocks in ((CutKind.ORDERING, ordering_blocks), (CutKind.PARALLEL, parallel_blocks)):
        found = blocks(order.vertices)
        if len(found) > 1:
            return CutResult(kind, tuple(frozenset(v.id for v in b) for b in found))
    return CutResult(CutKind.NONE, ())
