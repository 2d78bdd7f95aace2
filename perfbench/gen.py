"""Seeded inputs for the benchmark workloads, and the CSV and XES writers.

Nothing here calls the program: cases are made as ``(label, start_us,
complete_us)`` triples, written to disk in the formats the program reads, and
kept in memory so that the reference can be computed from what was written.

Every input comes from ``random.Random(seed)``; the same seed gives the same
bytes on disk.
"""

from __future__ import annotations

import csv
import gzip
import random
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from pathlib import Path
from xml.sax.saxutils import quoteattr

from reference import layout, rank_signature

EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
# 2021-01-01T00:00:00Z; realizations start somewhere in the following year.
BASE_US = 1_609_459_200 * 1_000_000

# UTC offsets (minutes) a case's timestamps are written in; 0 is written "Z".
OFFSETS = (0, 60, 120, -300)

Instance = tuple[str, int, int]  # (label, start_us, complete_us)


@dataclass(slots=True)
class Case:
    case_id: str
    instances: list[Instance]
    offset_min: int = 0


@dataclass(slots=True)
class Event:
    """One XES event: ``kind`` is "start", "complete" or "" (no lifecycle)."""

    label: str
    kind: str
    ts: int


@dataclass(slots=True)
class Input:
    """A generated input file and what the benchmark knows about it."""

    path: Path
    fmt: str  # "csv" or "xes"
    cases: list[Case]  # instances as generated (before any pairing)
    events: dict[str, list[Event]] = field(default_factory=dict)  # XES only
    orphans: int = 0  # unmatched start/complete events injected (XES only)

    @property
    def record_count(self) -> int:
        """CSV rows or XES events in the file."""
        if self.fmt == "xes":
            return sum(len(evs) for evs in self.events.values())
        return sum(len(c.instances) for c in self.cases)

    def timestamp_strings(self) -> list[str]:
        """Every timestamp string the file holds, as written."""
        if self.fmt == "xes":
            return [
                format_ts(e.ts, c.offset_min) for c in self.cases for e in self.events[c.case_id]
            ]
        return [
            format_ts(t, c.offset_min) for c in self.cases for _, s, e in c.instances for t in (s, e)
        ]

    def pairing_events(self) -> list[tuple[str, list[tuple[str, str, int]]]]:
        """Per case, its start/complete events as ``pair_events`` takes them:
        ``(label, kind, ts)`` in time order, document order on ties. A CSV row
        stands for a start and a complete event."""
        out = []
        for c in self.cases:
            if self.fmt == "xes":
                evs = [(e.label, e.kind, e.ts) for e in self.events[c.case_id] if e.kind]
            else:
                evs = [(l, k, t) for l, s, e in c.instances for k, t in (("start", s), ("complete", e))]
            evs.sort(key=lambda e: e[2])
            out.append((c.case_id, evs))
        return out


# ---------------------------------------------------------------- structures


def grid_structure(
    rng: random.Random,
    n: int,
    alphabet: tuple[str, ...],
    density: float,
    touch: float,
    atomic: float,
    same_label: float = 0.0,
) -> list[tuple[str, int, int]]:
    """``n`` intervals on an integer grid, each placed relative to the last.

    With probability ``density`` an interval overlaps its predecessor, either
    chaining past its end (chains of these give Fallback nodes) or nesting
    inside it; with probability ``touch`` it starts exactly where everything
    so far completed; otherwise it starts after a gap. Independently it is
    made atomic with probability ``atomic``. An overlapping interval reuses
    its predecessor's label with probability ``same_label``. Integer grid
    points make equal timestamps common.
    """
    s, c = 0, rng.randint(2, 5)
    label = rng.choice(alphabet)
    out = [(label, s, c)]
    latest = c
    for _ in range(n - 1):
        r = rng.random()
        if r < density:
            ns = rng.randint(s, c)
            if rng.random() < 0.5:
                nc = c + rng.randint(1, 4)
            else:
                nc = rng.randint(ns, c + 1)
            if rng.random() >= same_label:
                label = rng.choice(alphabet)
        else:
            ns = latest if r < density + touch else latest + rng.randint(1, 4)
            nc = ns + rng.randint(1, 4)
            label = rng.choice(alphabet)
        if rng.random() < atomic:
            nc = ns
        out.append((label, ns, nc))
        s, c = ns, nc
        latest = max(latest, nc)
    return out


def nested_structure(
    rng: random.Random, levels: int, prefix: str, inner: int = 1
) -> list[tuple[str, int, int]]:
    """``par(seq(..., X), Y)`` nested ``levels`` deep around ``inner`` leaves.

    At each level X starts after everything so far and Y spans from the first
    interval's complete (or the very start) to at least X's start, so Y is
    unrelated to every interval inside while X follows them all. Y's ends
    sometimes touch, and many Ys share their start.
    """
    out = []
    t = 0
    for k in range(inner):
        out.append((f"{prefix}L{k}", t, t + 1))
        t += 2
    first_complete = 1
    hi = t - 1
    for k in range(levels):
        xs = hi + 1
        xc = xs + rng.randint(1, 3)
        ys = rng.choice((0, first_complete))
        yc = rng.randint(xs, xc)
        out.append((f"{prefix}X{k}", xs, xc))
        out.append((f"{prefix}Y{k}", ys, yc))
        hi = xc
    return out


def realize(rng: random.Random, grid: list[tuple[str, int, int]]) -> list[Instance]:
    """Map grid points to microseconds by a random strictly increasing map.

    The map keeps every comparison between grid points, so all realizations of
    one structure have the same interval order. Times are whole milliseconds.
    """
    points = sorted({t for _, s, c in grid for t in (s, c)})
    cursor = BASE_US + rng.randrange(365 * 24 * 3600) * 1_000_000
    remap = {}
    for p in points:
        cursor += rng.randint(30, 3600) * 1_000_000 + rng.randrange(1000) * 1000
        remap[p] = cursor
    return [(label, remap[s], remap[c]) for label, s, c in grid]


def distinct_structures(rng, count, make, signature) -> list:
    """``count`` structures from ``make()`` with pairwise distinct ``signature``."""
    out, seen = [], set()
    for _ in range(1000 * count):
        grid = make()
        key = signature(grid)
        if key not in seen:
            seen.add(key)
            out.append(grid)
            if len(out) == count:
                return out
    raise RuntimeError(f"could not make {count} distinct structures")


# ---------------------------------------------------------------- writers


def format_ts(us: int, offset_min: int) -> str:
    """RFC 3339 with milliseconds, in the given UTC offset ("Z" for 0)."""
    dt = EPOCH + timedelta(microseconds=us)
    if offset_min == 0:
        return dt.isoformat(timespec="milliseconds").replace("+00:00", "Z")
    tz = timezone(timedelta(minutes=offset_min))
    return dt.astimezone(tz).isoformat(timespec="milliseconds")


def write_csv(path: Path, cases: list[Case]) -> None:
    """One row per instance, all cases interleaved in start-time order."""
    rows = [
        (s, case.case_id, label, format_ts(s, case.offset_min), format_ts(c, case.offset_min))
        for case in cases
        for label, s, c in case.instances
    ]
    rows.sort(key=lambda r: (r[0], r[1]))
    with path.open("w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(("case", "label", "start", "complete"))
        writer.writerows(r[1:] for r in rows)


def xes_events(rng: random.Random, case: Case) -> list[Event]:
    """Events of one case in document order: time order, ties shuffled.

    An atomic instance is one event without a lifecycle; any other instance is
    a start and a complete event.
    """
    events = []
    for label, s, c in case.instances:
        if s == c:
            events.append(Event(label, "", s))
        else:
            events.append(Event(label, "start", s))
            events.append(Event(label, "complete", c))
    keyed = [(e.ts, rng.random(), e) for e in events]
    keyed.sort(key=lambda k: (k[0], k[1]))
    return [e for _, _, e in keyed]


def write_xes_gz(path: Path, cases: list[Case], events: dict[str, list[Event]]) -> None:
    """An IEEE 1849 XES document, gzip-compressed."""
    with gzip.open(path, "wt", encoding="utf-8", compresslevel=6) as f:
        f.write(
            '<?xml version="1.0" encoding="UTF-8"?>\n'
            '<log xes.version="1.0" xes.features="nested-attributes" '
            'xmlns="http://www.xes-standard.org/">\n'
            '  <extension name="Concept" prefix="concept" uri="http://www.xes-standard.org/concept.xesext"/>\n'
            '  <extension name="Time" prefix="time" uri="http://www.xes-standard.org/time.xesext"/>\n'
            '  <extension name="Lifecycle" prefix="lifecycle" uri="http://www.xes-standard.org/lifecycle.xesext"/>\n'
            '  <extension name="Organizational" prefix="org" uri="http://www.xes-standard.org/org.xesext"/>\n'
        )
        for case in cases:
            parts = [f'  <trace>\n    <string key="concept:name" value={quoteattr(case.case_id)}/>\n']
            for i, e in enumerate(events[case.case_id]):
                parts.append(f'    <event>\n      <string key="concept:name" value={quoteattr(e.label)}/>\n')
                if e.kind:
                    parts.append(f'      <string key="lifecycle:transition" value="{e.kind}"/>\n')
                parts.append(
                    f'      <date key="time:timestamp" value="{format_ts(e.ts, case.offset_min)}"/>\n'
                    f'      <string key="org:resource" value="R{i % 7}"/>\n'
                    "    </event>\n"
                )
            parts.append("  </trace>\n")
            f.write("".join(parts))
        f.write("</log>\n")


# ---------------------------------------------------------------- workloads

# Labels with a comma, a space and an ampersand exercise CSV quoting, key
# escaping and XML escaping.
CSV_ALPHABET = tuple("ABCDEFGHIJKLMNOPQRSTUVW") + ("Check, approve", "Send offer", "R&D")
XES_ALPHABET = tuple("ABCDEFGHIJKL") + ("Send offer", "R&D <review>")
ORPHAN_LABEL = "Reminder"

CSV_REPEAT = dict(templates=20, per_template=125, size=20, density=0.45, touch=0.1, atomic=0.05)
XES_UNIQUE = dict(cases=800, size=30, density=0.45, touch=0.1, atomic=0.05, same_label=0.3, orphan=0.02)
DEEP_NESTING = dict(traces=12, min_size=100, max_size=300)
DEEP_FAILING_SIZE = 1200


def make_csv_repeat(seed: int, work: Path) -> Input:
    rng = random.Random(seed)
    p = CSV_REPEAT
    templates = distinct_structures(
        rng,
        p["templates"],
        lambda: grid_structure(rng, p["size"], CSV_ALPHABET, p["density"], p["touch"], p["atomic"]),
        lambda grid: layout(grid).key,  # templates give distinct variants
    )
    cases = []
    for t, grid in enumerate(templates):
        for k in range(p["per_template"]):
            cases.append(Case(f"c{t:02d}-{k:04d}", realize(rng, grid), rng.choice(OFFSETS)))
    rng.shuffle(cases)
    path = work / "csv_repeat.csv"
    write_csv(path, cases)
    return Input(path, "csv", cases)


def make_xes_unique(seed: int, work: Path) -> Input:
    rng = random.Random(seed)
    p = XES_UNIQUE
    grids = distinct_structures(
        rng,
        p["cases"],
        lambda: grid_structure(
            rng, p["size"], XES_ALPHABET, p["density"], p["touch"], p["atomic"], p["same_label"]
        ),
        rank_signature,
    )
    cases = [Case(f"x{i:05d}", realize(rng, g), rng.choice(OFFSETS)) for i, g in enumerate(grids)]
    events = {}
    orphans = 0
    for case in cases:
        evs = xes_events(rng, case)
        if rng.random() < p["orphan"]:
            # A start or complete with no partner: the program keeps it as an
            # atomic instance and warns.
            pos = rng.randrange(len(evs) + 1)
            ts = evs[min(pos, len(evs) - 1)].ts
            evs.insert(pos, Event(ORPHAN_LABEL, rng.choice(("start", "complete")), ts))
            orphans += 1
        events[case.case_id] = evs
    path = work / "xes_unique.xes.gz"
    write_xes_gz(path, cases, events)
    return Input(path, "xes", cases, events, orphans)


def make_deep(rng: random.Random, size: int, prefix: str) -> list[tuple[str, int, int]]:
    inner = 2 - size % 2  # one leaf for odd sizes, seq of two for even
    return nested_structure(rng, (size - inner) // 2, prefix, inner)


def make_deep_nesting(seed: int, work: Path) -> Input:
    rng = random.Random(seed)
    p = DEEP_NESTING
    # Sizes are spread evenly and only their order depends on the seed: the
    # work grows faster than linearly with size, so random sizes would change
    # the amount of work from seed to seed.
    step = (p["max_size"] - p["min_size"]) / (p["traces"] - 1)
    sizes = [p["min_size"] + round(k * step) for k in range(p["traces"])]
    rng.shuffle(sizes)
    cases = []
    for t, size in enumerate(sizes):
        grid = make_deep(rng, size, f"t{t}.")
        cases.append(Case(f"d{t:02d}", realize(rng, grid), rng.choice(OFFSETS)))
    path = work / "deep_nesting.csv"
    write_csv(path, cases)
    return Input(path, "csv", cases)


def make_deep_failing(work: Path) -> Input:
    """The single 1,200-instance nested trace; it does not depend on the seed."""
    rng = random.Random(0)
    grid = make_deep(rng, DEEP_FAILING_SIZE, "f.")
    path = work / "deep_1200.csv"
    cases = [Case("deep", realize(rng, grid))]
    write_csv(path, cases)
    return Input(path, "csv", cases)
