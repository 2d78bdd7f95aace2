"""Log statistics, phase-timed pipeline reports, synthetic log generation.

The report mirrors the pipeline phases: preprocessing (grouping instances
into sorted traces, each its own interval order, so building orders reads 0)
and cutting them into layout trees. Timings are wall-clock per phase.

The generator produces seeded logs from a fixed number of interval-structure
templates; per-trace jitter moves every distinct timestamp monotonically, so
relative order and ties are preserved exactly and each template contributes
exactly one interval-ordered variant.
"""

from __future__ import annotations

import random
import string
import time
from dataclasses import asdict, dataclass
from typing import Iterable

from .ingest import ActivityInstance, EventLog, SourceMeta, Trace, group_by_case
from .layout import canonical_form, layout_trace, variants_of_traces


def classic_variants(log: EventLog) -> dict[tuple[str, ...], int]:
    """Count classic (totally ordered) variants.

    The key of a trace is its label sequence sorted by start timestamp, ties
    broken by complete timestamp and then label.
    """
    return classic_of_traces(group_by_case(log))


def classic_of_traces(traces: Iterable[Trace]) -> dict[tuple[str, ...], int]:
    counts: dict[tuple[str, ...], int] = {}
    for trace in traces:
        key = tuple(a.label for a in trace.instances)
        counts[key] = counts.get(key, 0) + 1
    return counts


@dataclass(frozen=True, slots=True)
class PhaseTimings:
    preprocessing: float
    building_orders: float
    cutting: float
    total: float


@dataclass(frozen=True, slots=True)
class LogReport:
    num_cases: int
    avg_events_per_case: float
    classic_variant_count: int
    interval_variant_count: int
    fallback_variant_count: int
    fallback_variant_pct: float
    timings: PhaseTimings


def report(
    log: EventLog,
    threads: int = 1,
    extra_preprocessing_seconds: float = 0.0,
) -> LogReport:
    """Run the variant pipeline with wall-clock instrumentation per phase.

    ``extra_preprocessing_seconds`` lets callers that already parsed a file
    fold the parse time into the preprocessing phase. ``threads`` is accepted
    for compatibility and has no effect.
    """
    started = time.perf_counter()

    t0 = time.perf_counter()
    traces = group_by_case(log)
    preprocessing = time.perf_counter() - t0 + extra_preprocessing_seconds

    t0 = time.perf_counter()
    table = variants_of_traces(traces)
    cutting = time.perf_counter() - t0
    classic = classic_of_traces(traces)

    total = time.perf_counter() - started + extra_preprocessing_seconds
    num_cases = table.total_count
    interval_count = len(table.entries)
    fallback_count = table.fallback_variant_count
    return LogReport(
        num_cases=num_cases,
        avg_events_per_case=(len(log.instances) / num_cases) if num_cases else 0.0,
        classic_variant_count=len(classic),
        interval_variant_count=interval_count,
        fallback_variant_count=fallback_count,
        fallback_variant_pct=(100.0 * fallback_count / interval_count)
        if interval_count
        else 0.0,
        timings=PhaseTimings(preprocessing, 0.0, cutting, total),
    )


def report_to_json(rep: LogReport) -> dict:
    return asdict(rep)


_REPORT_ROWS = (
    ("#cases (avg. #events per case)", lambda r: f"{r.num_cases} ({r.avg_events_per_case:.1f})"),
    ("Total calculation (s)", lambda r: f"{r.timings.total:.3f}"),
    ("Preprocessing event data (s)", lambda r: f"{r.timings.preprocessing:.3f}"),
    ("Creating interval orders (s)", lambda r: f"{r.timings.building_orders:.3f}"),
    ("Cutting interval orders (s)", lambda r: f"{r.timings.cutting:.3f}"),
    ("#classic variants", lambda r: str(r.classic_variant_count)),
    ("#interval ordered variants", lambda r: str(r.interval_variant_count)),
    (
        "#interval ordered variants with limitations",
        lambda r: f"{r.fallback_variant_count} ({r.fallback_variant_pct:.1f}%)",
    ),
)


def report_to_text(rep: LogReport, name: str = "event log") -> str:
    """Aligned plain-text table with the evaluation column names."""
    width = max(len(label) for label, _ in _REPORT_ROWS)
    lines = [f"Event log: {name}"]
    for label, value in _REPORT_ROWS:
        lines.append(f"{label:<{width}}  {value(rep)}")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True, slots=True)
class GeneratorSpec:
    num_templates: int
    traces_per_template: int
    instances_per_trace: int
    overlap_density: float
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("num_templates", "traces_per_template", "instances_per_trace"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0")
        if not 0.0 <= self.overlap_density <= 1.0:
            raise ValueError("overlap_density must lie in [0, 1]")


# 2021-07-13T00:00:00Z, the day used throughout the worked examples.
_GENESIS_MICROS = 1_626_134_400 * 1_000_000


def generate_log(spec: GeneratorSpec) -> EventLog:
    """Generate a seeded, reproducible synthetic event log.

    Produces ``num_templates`` structurally distinct interval templates, then
    ``traces_per_template`` jittered realizations of each. Jitter remaps the
    distinct template timestamps through a random strictly increasing map, so
    every realization of one template has the same interval order and the log
    has exactly ``num_templates`` interval-ordered variants.
    """
    rng = random.Random(spec.seed)
    templates = _distinct_templates(rng, spec)

    total = spec.num_templates * spec.traces_per_template
    pad = max(5, len(str(total - 1)))
    instances: list[ActivityInstance] = []
    next_id = 0
    case_no = 0
    for template in templates:
        for _ in range(spec.traces_per_template):
            case_id = f"case_{case_no:0{pad}d}"
            case_no += 1
            remap = _jitter_map(template, rng)
            for label, s, c in template:
                instances.append(
                    ActivityInstance(next_id, case_id, label, remap[s], remap[c])
                )
                next_id += 1
    meta = SourceMeta(None, "synthetic")
    return EventLog(tuple(instances), meta)


def _distinct_templates(rng: random.Random, spec: GeneratorSpec) -> list[list]:
    templates: list[list] = []
    seen: set[str] = set()
    attempts = 0
    while len(templates) < spec.num_templates:
        attempts += 1
        if attempts > 1000 * spec.num_templates:
            raise ValueError(
                "could not generate enough structurally distinct templates; "
                "raise instances_per_trace or lower num_templates"
            )
        template = _template(rng, spec.instances_per_trace, spec.overlap_density)
        key = canonical_form(layout_trace(_probe_trace(template)))
        if key in seen:
            continue
        seen.add(key)
        templates.append(template)
    return templates


def _template(rng: random.Random, n: int, density: float) -> list:
    """Skeleton of one trace structure on an integer time grid."""
    labels = [rng.choice(string.ascii_uppercase) for _ in range(n)]
    out = []
    start = 0
    complete = rng.randint(2, 5)
    out.append((labels[0], start, complete))
    latest = complete
    for k in range(1, n):
        if rng.random() < density:
            # Overlap the previous instance: either chain past its end or
            # nest inside it.
            s = rng.randint(start, complete)
            if rng.random() < 0.5:
                c = complete + rng.randint(1, 4)
            else:
                c = rng.randint(s, complete + 1)
        else:
            s = latest + rng.randint(1, 4)
            c = s + rng.randint(2, 5)
        out.append((labels[k], s, c))
        start, complete = s, c
        latest = max(latest, c)
    return out


def _probe_trace(template: list) -> Trace:
    instances = tuple(
        ActivityInstance(i, "probe", label, s * 1_000_000, c * 1_000_000)
        for i, (label, s, c) in enumerate(template)
    )
    return Trace("probe", instances)


def _jitter_map(template: list, rng: random.Random) -> dict[int, int]:
    values = sorted({t for _, s, c in template for t in (s, c)})
    cursor = _GENESIS_MICROS + rng.randint(0, 365 * 24) * 3_600_000_000
    remap = {}
    for v in values:
        cursor += rng.randint(60, 600) * 1_000_000
        remap[v] = cursor
    return remap
