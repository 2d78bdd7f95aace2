"""Maximal ordering and parallel cuts of interval orders.

An ordering cut partitions the vertices into blocks such that every cross
pair between an earlier and a later block is an edge; a parallel cut
partitions them into the connected components of the relation graph. The two
kinds cannot coexist, and the maximal cut of either kind is unique, which is
what makes the recursive layout deterministic.

One kernel, :func:`maximal_cut`, finds either cut. It works on a run held in
two orders, by start and by complete, and walks it from both ends, so a level
of the layout costs about what it peels off, not the size of its run. Its
blocks are runs in the same two orders, so they can be cut in turn without
rebuilding a suborder or sorting again.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from enum import Enum
from operator import attrgetter
from typing import Sequence

from .ingest import ActivityInstance
from .order import IntervalOrder

Run = Sequence[ActivityInstance]
Block = tuple[list, list]  # one run, by start and by complete

_START = attrgetter("start_ts")
BY_COMPLETE = attrgetter("complete_ts")
_START_KEY = attrgetter("start_ts", "complete_ts")
_COMPLETE_KEY = attrgetter("complete_ts", "start_ts")
_BISECT_COST = 32  # deleting a vertex by bisection costs about this many filter steps
_STEP = 4  # the steps each ordering walk takes in its first round


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


def maximal_cut(by_start: list, by_complete: list) -> tuple[CutKind, list[Block]]:
    """The maximal cut of a run and its blocks, each block a pair of lists:
    its members by start and by complete. ``by_start`` is sorted by
    ``instance_sort_key`` and ``by_complete`` is its stable sort by
    ``complete_ts``. The kernel takes both lists over: a block may be one of
    them with its ends or some members deleted, and a one-vertex block is one
    list in both roles. For ``NONE`` the lists are left as they were and the
    block list is empty.

    Ordering blocks come in block order; parallel blocks in the order of each
    block's first member by start. The kernel stops as soon as the cut's kind
    is settled, so a level costs about the size of the blocks it peels:

    - **Two walks from the ends**, in rounds that double in length. From the
      left, by start, a boundary opens before v where the running maximum
      complete lies below v's start. From the right, by complete, a boundary
      opens after u where u's complete lies below the running minimum start.
      A boundary settles "ordering", and the walks go on peeling blocks off
      both ends; the middle is what no block holds yet.
    - **The singleton search.** The singletons, the vertices that overlap all
      others, start no later than the earliest complete and end no earlier
      than the latest start. They lie in the start-order prefix that starts
      by the earliest complete, and in the complete-order suffix that ends at
      or after the latest start. Bisection sizes both regions and the search
      reads the shorter. It runs after a round, on the whole run while
      nothing has peeled and on the middle after a peel, unless the walks are
      about to meet. Singletons settle "parallel", or end the peeling.
    - If the walks meet with no boundary, one pass partitions the run.

    Why this is exact, and why the search pays for itself:

    - Everything peeled completes before the middle starts, or starts after
      it completes. So the boundaries of the middle are exactly those of the
      whole run inside it, and the walks need not restart.
    - Ordering blocks are contiguous in complete order too: each block's
      completes lie below the next block's starts. So the middle is one slice
      in both lists, and its earliest complete and latest start sit at its
      ends.
    - A run with a singleton has no ordering boundary, because the singleton
      overlaps a vertex on the other side of it. Interval orders are 2+2-free,
      so a parallel cut has at most one block of more than one vertex, the
      core, and every other block is a singleton.
    - A run's prefix region lies in its first ordering block, because its
      members overlap the earliest complete, and its suffix region lies in
      its last. So a search costs no more than the walks pay for the next
      peel. A parallel core keeps its run's earliest complete and latest
      start, so the core's next peel pays for the search that found its
      singletons.
    """
    n = len(by_start)
    if n < 2:
        return CutKind.NONE, []
    blocks, tail = [], []  # peeled off from the left, and from the right
    lo, hi = 0, n  # the middle, what no block holds yet
    i, horizon = 1, by_start[0].complete_ts  # next left test, max complete before it
    j, floor = n - 1, by_complete[-1].start_ts  # next right test, min start from it on
    searched = None  # the last middle searched for singletons
    step = _STEP
    while True:
        stop = i + step
        if stop > j:
            stop = j + 1
        for k in range(i, stop):
            v = by_start[k]
            if horizon < v.start_ts:
                if k - lo == 1:  # as _single, inline: a chain peels one vertex a block
                    s = [by_start[lo]]
                    blocks.append((s, s))
                else:
                    blocks.append((by_start[lo:k], by_complete[lo:k]))
                lo = k
            if horizon < v.complete_ts:
                horizon = v.complete_ts
        i = stop
        if i > j:
            break
        stop = j - step
        if stop < i - 1:
            stop = i - 1
        for k in range(j, stop, -1):
            v = by_complete[k - 1]
            if v.complete_ts < floor:
                if hi - k == 1:
                    s = [by_start[k]]
                    tail.append((s, s))
                else:
                    tail.append((by_start[k:hi], by_complete[k:hi]))
                hi = k
            if v.start_ts < floor:
                floor = v.start_ts
        j = stop
        if i > j:
            break
        step += step
        if j - i < step or searched == (lo, hi):
            continue  # the walks are about to meet, or nothing peeled since
        found, in_start_order = _singletons(by_start, by_complete, lo, hi)
        if found and (blocks or tail):
            break  # the middle is one block
        if found:
            return CutKind.PARALLEL, _parallel_blocks(by_start, by_complete, found, in_start_order)
        searched = (lo, hi)
    if not (blocks or tail):  # no ordering cut
        if searched:
            return CutKind.NONE, []
        blocks = _partition(by_start, by_complete)
        return (CutKind.PARALLEL, blocks) if len(blocks) > 1 else (CutKind.NONE, [])
    # The peeled blocks are slices, paid for by the walks; the middle keeps the lists.
    del by_start[hi:], by_complete[hi:], by_start[:lo], by_complete[:lo]
    blocks.append((by_start, by_complete))
    blocks += reversed(tail)
    return CutKind.ORDERING, blocks


def _single(v: ActivityInstance) -> Block:
    """A one-vertex block: one list serves as both orders. No kernel call
    mutates it, because a run of one vertex has no cut."""
    s = [v]
    return s, s


def _singletons(by_start: list, by_complete: list, lo: int, hi: int) -> tuple[list[int], bool]:
    """Positions of the vertices of ``[lo, hi)`` that overlap all its others.
    Bisection sizes both regions that hold them, and the shorter is read: the
    positions are ascending in ``by_start`` (then True) or in ``by_complete``."""
    early, late = by_complete[lo].complete_ts, by_start[hi - 1].start_ts
    prefix = bisect_right(by_start, early, lo, hi, key=_START)
    suffix = bisect_left(by_complete, late, lo, hi, key=BY_COMPLETE)
    if prefix - lo <= hi - suffix:
        return [k for k in range(lo, prefix) if by_start[k].complete_ts >= late], True
    return [k for k in range(suffix, hi) if by_complete[k].start_ts <= early], False


def _parallel_blocks(by_start: list, by_complete: list, found: list[int], in_start_order: bool):
    """The singleton blocks and the core, the run without them, placed at its
    first member by start; ``found`` as :func:`_singletons` gives it. Few
    singletons in a long run are deleted in place; otherwise the run is
    partitioned in one pass."""
    if len(by_start) <= _BISECT_COST * len(found):
        return _partition(by_start, by_complete)
    if in_start_order:
        singles = [by_start[p] for p in found]
    else:
        singles = sorted((by_complete[p] for p in found), key=_START_KEY)
    lead = 0  # the singletons that start before the core
    while lead < len(singles) and by_start[lead] is singles[lead]:
        lead += 1
    if in_start_order:
        for p in reversed(found):
            del by_start[p]
        _delete(by_complete, sorted(singles, key=_COMPLETE_KEY), _COMPLETE_KEY)
    else:
        for p in reversed(found):
            del by_complete[p]
        _delete(by_start, singles, _START_KEY)
    blocks: list = [_single(v) for v in singles]
    blocks.insert(lead, (by_start, by_complete))
    return blocks


def _partition(by_start: list, by_complete: list) -> list[Block]:
    """The blocks of the maximal parallel cut by one pass over each list, in
    the order of their first members; one block if there is no cut."""
    early, late = by_complete[0].complete_ts, by_start[-1].start_ts
    blocks: list = []
    core: list = []
    for v in by_start:
        if v.start_ts <= early and v.complete_ts >= late:
            blocks.append(_single(v))
        else:
            if not core:
                rest = [u for u in by_complete if u.start_ts > early or u.complete_ts < late]
                blocks.append((core, rest))
            core.append(v)
    return blocks


def _delete(run: list, items: list, key) -> None:
    """Delete ``items`` from ``run``, both sorted by ``key`` with ties in the
    same order: bisect to each, then step forward to it across ties."""
    p = 0
    for v in items:
        p = bisect_left(run, key(v), p, key=key)
        while run[p] is not v:
            p += 1
        del run[p]


def find_cut(order: IntervalOrder) -> CutResult:
    """The maximal cut of an interval order (ordering, parallel or none), with
    the blocks as vertex-id sets."""
    verts = order.vertices
    kind, blocks = maximal_cut(list(verts), sorted(verts, key=BY_COMPLETE))
    return CutResult(kind, tuple(frozenset(v.id for v in b) for b, _ in blocks))
