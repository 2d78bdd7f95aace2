"""Trace variant explorer for partially ordered event data.

Builds interval orders from start/complete-timestamped activity instances,
recursively decomposes them with maximal ordering and parallel cuts, and
renders the resulting nested-chevron layouts.
"""

from .cuts import CutKind, CutResult, find_cut
from .ingest import (
    ActivityInstance,
    ColumnMap,
    EventLog,
    ParseError,
    SourceMeta,
    Trace,
    group_by_case,
    pair_events,
    parse_csv,
    parse_xes,
    write_csv,
)
from .layout import (
    Fallback,
    LayoutTree,
    Leaf,
    Parallel,
    Sequence,
    VariantEntry,
    VariantTable,
    build_layout,
    canonical_form,
    layout_from_json,
    layout_to_json,
    variant_table,
)
from .order import (
    IntervalOrder,
    Violation,
    build_interval_order,
    induced_suborder,
    to_dot,
    validate,
)
from .render import label_color, render_svg, render_text
from .stats import (
    GeneratorSpec,
    LogReport,
    PhaseTimings,
    classic_variants,
    generate_log,
    report,
    report_to_json,
    report_to_text,
)

__version__ = "0.1.0"

__all__ = [
    "ActivityInstance",
    "ColumnMap",
    "CutKind",
    "CutResult",
    "EventLog",
    "Fallback",
    "GeneratorSpec",
    "IntervalOrder",
    "LayoutTree",
    "Leaf",
    "LogReport",
    "Parallel",
    "ParseError",
    "PhaseTimings",
    "Sequence",
    "SourceMeta",
    "Trace",
    "VariantEntry",
    "VariantTable",
    "Violation",
    "build_interval_order",
    "build_layout",
    "canonical_form",
    "classic_variants",
    "find_cut",
    "generate_log",
    "group_by_case",
    "induced_suborder",
    "label_color",
    "layout_from_json",
    "layout_to_json",
    "pair_events",
    "parse_csv",
    "parse_xes",
    "render_svg",
    "render_text",
    "report",
    "report_to_json",
    "report_to_text",
    "to_dot",
    "validate",
    "variant_table",
    "write_csv",
]
