"""Independent reference for the benchmark's correctness checks.

Shares no code with the program's ``order``, ``cuts`` or ``layout`` modules:

- edges come from the definition, pair by pair: u -> v iff u completes
  strictly before v starts;
- a maximal parallel cut is the set of connected components of the
  comparability graph, found by graph search;
- a maximal ordering cut is the set of connected components of the
  incomparability graph, put in order and checked block by block against the
  definition (every vertex of an earlier block precedes every vertex of a
  later one);
- keys are written in the program's documented variant-key notation by this
  module's own serializer;
- XES start/complete events are paired here first-in-first-out per label.

Vertex sets are Python ints used as bitsets, and the recursion runs on an
explicit stack, so traces of any depth are handled.
"""

from __future__ import annotations

import re
from collections import Counter, deque
from dataclasses import dataclass

_STRUCTURAL = re.compile(r"[\\(){},]")


def escape(label: str) -> str:
    return _STRUCTURAL.sub(lambda m: "\\" + m.group(), label)


def rank_signature(instances) -> tuple:
    """(label, rank of start, rank of complete), sorted; ranks count distinct
    timestamps of the trace. Traces with equal signatures have equal orders."""
    points = sorted({t for _, s, c in instances for t in (s, c)})
    rank = {t: i for i, t in enumerate(points)}
    return tuple(sorted((label, rank[s], rank[c]) for label, s, c in instances))


def classic_key(instances) -> tuple:
    """Label sequence in (start, complete, label) order."""
    return tuple(label for s, c, label in sorted((s, c, label) for label, s, c in instances))


@dataclass(slots=True)
class RefLayout:
    key: str
    leaves: int  # Leaf nodes, not counting labels inside Fallback nodes
    has_fallback: bool


def _components(subset: int, neighbours) -> list[int]:
    """Connected components (bitsets) of ``subset`` by breadth-first search."""
    comps = []
    rest = subset
    while rest:
        low = rest & -rest
        comp = low
        frontier = deque([low.bit_length() - 1])
        while frontier:
            i = frontier.popleft()
            new = neighbours(i) & rest & ~comp
            comp |= new
            while new:
                b = new & -new
                new ^= b
                frontier.append(b.bit_length() - 1)
        comps.append(comp)
        rest &= ~comp
    return comps


def _bits(mask: int):
    while mask:
        b = mask & -mask
        mask ^= b
        yield b.bit_length() - 1


def layout(instances) -> RefLayout:
    """Decompose one trace by definition and serialize its variant key."""
    n = len(instances)
    labels = [label for label, _, _ in instances]
    start = [s for _, s, _ in instances]
    complete = [c for _, _, c in instances]
    succ = [0] * n
    pred = [0] * n
    for u in range(n):
        cu = complete[u]
        for v in range(n):
            if cu < start[v]:
                succ[u] |= 1 << v
                pred[v] |= 1 << u
    related = [succ[i] | pred[i] for i in range(n)]

    leaves = fallbacks = 0
    keys: dict[int, str] = {}
    # Post-order over subsets: a frame is (subset, kind, children or None).
    stack = [((1 << n) - 1, None, None)]
    while stack:
        subset, kind, children = stack.pop()
        if children is not None:
            parts = [keys.pop(ch) for ch in children]
            if kind == "p":
                parts.sort()
            keys[subset] = kind + "(" + ",".join(parts) + ")"
            continue
        if subset & (subset - 1) == 0:
            keys[subset] = escape(labels[subset.bit_length() - 1])
            leaves += 1
            continue
        blocks = _components(subset, lambda i: subset & ~related[i] & ~(1 << i))
        if len(blocks) > 1:
            blocks.sort(key=lambda b: bin(pred[b.bit_length() - 1] & subset & ~b).count("1"))
            later = subset
            for block in blocks:
                later &= ~block
                for u in _bits(block):
                    if succ[u] & later != later:
                        raise AssertionError("ordering blocks are not totally ordered")
            stack.append((subset, "s", blocks))
            stack.extend((b, None, None) for b in blocks)
            continue
        comps = _components(subset, lambda i: subset & related[i])
        if len(comps) > 1:
            stack.append((subset, "p", comps))
            stack.extend((c, None, None) for c in comps)
            continue
        members = sorted(labels[i] for i in _bits(subset))
        keys[subset] = "u{" + ",".join(escape(l) for l in members) + "}"
        fallbacks += 1
    return RefLayout(keys[(1 << n) - 1], leaves, fallbacks > 0)


def fifo_pair(events) -> tuple[list[tuple[str, int, int]], int]:
    """Pair one case's events as written, first-in-first-out per label.

    Events are taken in time order, document order on ties. Unpaired starts
    and completes, and events without a lifecycle, become atomic instances.
    Returns the instances and the number of unpaired events.
    """
    ordered = sorted(
        ((e.ts, i, e) for i, e in enumerate(events) if e.kind), key=lambda k: (k[0], k[1])
    )
    open_starts: dict[str, deque] = {}
    out = [(e.label, e.ts, e.ts) for e in events if not e.kind]
    unpaired = 0
    for _, _, e in ordered:
        if e.kind == "start":
            open_starts.setdefault(e.label, deque()).append(e.ts)
        elif open_starts.get(e.label):
            out.append((e.label, open_starts[e.label].popleft(), e.ts))
        else:
            out.append((e.label, e.ts, e.ts))
            unpaired += 1
    for label, queue in open_starts.items():
        for ts in queue:
            out.append((label, ts, ts))
            unpaired += 1
    return out, unpaired


def json_key(node: dict) -> str:
    """Variant key of a layout in the program's JSON layout format."""
    out: dict[int, str] = {}
    stack = [(node, False)]
    while stack:
        obj, done = stack.pop()
        kind = obj["kind"]
        if kind == "leaf":
            out[id(obj)] = escape(obj["label"])
        elif kind == "fallback":
            out[id(obj)] = "u{" + ",".join(escape(l) for l in sorted(obj["labels"])) + "}"
        elif not done:
            stack.append((obj, True))
            stack.extend((c, False) for c in obj["children"])
        else:
            parts = [out.pop(id(c)) for c in obj["children"]]
            if kind == "par":
                parts.sort()
            out[id(obj)] = ("s(" if kind == "seq" else "p(") + ",".join(parts) + ")"
    return out[id(node)]


@dataclass(slots=True)
class Reference:
    """Expected results for one input: per-case instances, keys and counts."""

    instances: dict[str, list[tuple[str, int, int]]]  # per case, after pairing
    keys: dict[str, str]  # case id -> variant key
    layouts: dict[str, RefLayout]  # variant key -> reference layout
    counts: Counter  # variant key -> number of cases
    classic_count: int
    unpaired: int  # events the program must warn about
    shapes: int  # distinct rank signatures

    @property
    def fallback_variants(self) -> int:
        return sum(1 for lay in self.layouts.values() if lay.has_fallback)


def build_reference(inp) -> Reference:
    """Reference results for a generated input (``gen.Input``)."""
    unpaired = 0
    if inp.fmt == "xes":
        instances = {}
        for case in inp.cases:
            instances[case.case_id], u = fifo_pair(inp.events[case.case_id])
            unpaired += u
    else:
        instances = {case.case_id: list(case.instances) for case in inp.cases}
    by_shape: dict[tuple, RefLayout] = {}
    keys, layouts = {}, {}
    classic = set()
    for case_id, inst in instances.items():
        sig = rank_signature(inst)
        lay = by_shape.get(sig)
        if lay is None:
            lay = by_shape[sig] = layout(inst)
        keys[case_id] = lay.key
        layouts[lay.key] = lay
        classic.add(classic_key(inst))
    return Reference(
        instances, keys, layouts, Counter(keys.values()), len(classic), unpaired, len(by_shape)
    )
