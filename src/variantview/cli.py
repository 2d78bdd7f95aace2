"""Command-line front end: variants, render, stats, check, bench.

Exit codes: 0 success, 2 input error, 3 unknown variant/case reference,
1 internal error. stdout carries data only; diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import statistics
import sys
import time
from dataclasses import fields
from json.encoder import encode_basestring as json_string
from pathlib import Path

from .ingest import ColumnMap, EventLog, ParseError, group_by_case, parse_csv, parse_xes
from .layout import VariantTable, layout_json_text, variant_table
from .order import build_interval_order, validate
from .render import render_svg, render_text
from .stats import GeneratorSpec, PhaseTimings, generate_log, report, report_to_json, report_to_text

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_INPUT = 2
EXIT_BAD_REFERENCE = 3


class InputError(Exception):
    """Bad invocation or unusable input file (exit 2)."""


class UnknownReference(Exception):
    """Requested variant key or case id does not exist (exit 3)."""


def _check_args(args: argparse.Namespace) -> None:
    """Validate the parsed arguments and convert them in place: ``input`` and
    ``output`` to paths, ``columns`` to a ColumnMap, ``generate`` to a spec."""
    # --threads has no effect but is still validated.
    if args.threads < 1:
        raise InputError(f"--threads must be >= 1, got {args.threads}")
    if getattr(args, "repeat", 1) < 1:
        raise InputError(f"--repeat must be >= 1, got {args.repeat}")

    if args.generate is not None:
        args.generate = _parse_generate(args.generate, args.seed)

    args.input = Path(args.input) if args.input else None
    if (args.input is None) == (args.generate is None):
        raise InputError("exactly one of --input and --generate is required")
    if args.input is not None and not args.input.exists():
        raise InputError(f"input file does not exist: {args.input}")

    columns = ColumnMap()
    if args.columns:
        parts = [p.strip() for p in args.columns.split(",")]
        if len(parts) != 4:
            raise InputError(
                "--columns needs four comma-separated names: case,label,start,complete"
            )
        columns = ColumnMap(*parts)
    args.columns = columns
    args.output = Path(args.output) if args.output else None


_GENERATE_KEYS = (
    "num_templates", "traces_per_template", "instances_per_trace",
    "overlap_density", "seed",
)


def _parse_generate(text: str, seed: int) -> GeneratorSpec:
    fields: dict[str, str] = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        key, sep, value = part.partition("=")
        key = key.strip()
        if not sep or key not in _GENERATE_KEYS:
            raise InputError(
                f"--generate entries must be key=value with keys {_GENERATE_KEYS}, got {part!r}"
            )
        fields[key] = value.strip()
    try:
        return GeneratorSpec(
            num_templates=int(fields.get("num_templates", 5)),
            traces_per_template=int(fields.get("traces_per_template", 100)),
            instances_per_trace=int(fields.get("instances_per_trace", 10)),
            overlap_density=float(fields.get("overlap_density", 0.3)),
            seed=int(fields.get("seed", seed)),
        )
    except ValueError as exc:
        raise InputError(f"bad --generate spec: {exc}")


def _detect_format(path: Path, explicit: str) -> str:
    if explicit != "auto":
        return explicit
    name = path.name.lower()
    if name.endswith((".xes", ".xes.gz")):
        return "xes"
    if name.endswith(".csv"):
        return "csv"
    raise InputError(
        f"cannot infer format of {path.name!r}; pass --format xes|csv"
    )


def _load_log(args: argparse.Namespace) -> tuple[EventLog, float]:
    """Parse or generate the event log; returns (log, parse seconds)."""
    if args.generate is not None:
        return generate_log(args.generate), 0.0
    fmt = _detect_format(args.input, args.format)
    t0 = time.perf_counter()
    try:
        log = parse_xes(args.input) if fmt == "xes" else parse_csv(args.input, args.columns)
    except OSError as exc:  # a directory, a vanished file, no permission
        raise InputError(f"cannot read {args.input}: {exc.strerror or exc}")
    return log, time.perf_counter() - t0


def _emit_diagnostics(log: EventLog) -> None:
    meta = log.source_meta
    for kind, messages in (("warning", meta.warnings), ("error", meta.errors)):
        for message in messages[:20]:
            print(f"{kind}: {message}", file=sys.stderr)
        if len(messages) > 20:
            print(f"... and {len(messages) - 20} more {kind}s", file=sys.stderr)


def _resolve_output_format(args: argparse.Namespace, default: str, allowed: set[str]) -> str:
    fmt = args.output_format
    if fmt is None and args.output is not None:
        suffix = args.output.suffix.lower().lstrip(".")
        if suffix in allowed:
            fmt = suffix
    if fmt is None:
        fmt = default
    if fmt not in allowed:
        raise InputError(f"output format {fmt!r} not supported here (use {sorted(allowed)})")
    return fmt


@contextlib.contextmanager
def _open_output(args: argparse.Namespace):
    """The ``--output`` file opened for writing, or stdout (left open). An
    OSError while opening, writing, flushing or closing it is an InputError."""
    try:
        if args.output is None:
            yield sys.stdout
            sys.stdout.flush()
        else:
            with args.output.open("w", encoding="utf-8") as out:
                yield out
    except OSError as exc:  # a directory, a missing parent, a full disk
        if args.output is None:
            _discard_stdout()
        name = args.output or "standard output"
        raise InputError(f"cannot write {name}: {exc.strerror or exc}") from None


def _discard_stdout() -> None:
    """Point stdout's file descriptor at the null device, so the flush at
    interpreter exit drops what a failed write left buffered."""
    try:
        fd = sys.stdout.fileno()
    except (OSError, ValueError):  # captured, or closed
        return
    null = os.open(os.devnull, os.O_WRONLY)
    os.dup2(null, fd)
    os.close(null)


def _write_output(args: argparse.Namespace, text: str) -> None:
    with _open_output(args) as out:
        out.write(text)


def _write_variants_json(out, table: VariantTable) -> None:
    """Write the variants document piece by piece: equal to ``json.dumps(doc,
    ensure_ascii=False, indent=2)`` but with each layout compact on one line,
    so its size does not grow with depth, and one variant in memory at a time."""
    items = table.sorted_items()
    out.write(
        f'{{\n  "num_variants": {len(items)},\n  "total_traces": {table.total_count},\n'
        f'  "skipped_traces": {len(table.skipped)},\n  "variants": ['
    )
    for i, (key, entry) in enumerate(items):
        cases = ",\n        ".join(map(json_string, entry.case_ids[:5]))
        out.write(
            f'{"," if i else ""}\n    {{\n      "key": {json_string(key)},\n'
            f'      "count": {entry.count},\n'
            f'      "has_fallback": {"true" if entry.has_fallback else "false"},\n'
            f'      "representative_cases": [\n        {cases}\n      ],\n'
            f'      "layout": {layout_json_text(entry.layout)}\n    }}'
        )
    out.write("\n  ]\n}\n" if items else "]\n}\n")


def cmd_variants(args, log: EventLog, parse_seconds: float) -> int:
    table = variant_table(log)
    fmt = _resolve_output_format(args, default="json", allowed={"json", "text"})
    with _open_output(args) as out:
        if fmt == "json":
            _write_variants_json(out, table)
        else:
            for _, entry in table.sorted_items():
                out.write(f"{entry.count}\t{render_text(entry.layout)}\n")
    return EXIT_OK


def cmd_render(args, log: EventLog, parse_seconds: float) -> int:
    table = variant_table(log)
    if args.key is not None:
        entry = table.entries.get(args.key)
        if entry is None:
            raise UnknownReference(f"no variant with key {args.key!r}")
    else:
        found = table.find_case(args.case)
        if found is None:
            raise UnknownReference(f"no case with id {args.case!r}")
        entry = found[1]
    fmt = _resolve_output_format(args, default="svg", allowed={"svg", "text", "json"})
    if fmt == "svg":
        text = render_svg(entry.layout, palette_seed=args.seed)
    elif fmt == "text":
        text = render_text(entry.layout) + "\n"
    else:
        text = layout_json_text(entry.layout) + "\n"
    _write_output(args, text)
    return EXIT_OK


def cmd_stats(args, log: EventLog, parse_seconds: float) -> int:
    rep = report(log, extra_preprocessing_seconds=parse_seconds)
    fmt = _resolve_output_format(args, default="text", allowed={"json", "text"})
    if fmt == "json":
        _write_output(args, json.dumps(report_to_json(rep), indent=2) + "\n")
    else:
        name = args.input.name if args.input else "synthetic"
        _write_output(args, report_to_text(rep, name))
    return EXIT_OK


def cmd_check(args, log: EventLog, parse_seconds: float) -> int:
    traces = group_by_case(log)
    lines = []
    bad = 0
    for trace in traces:
        if not trace.instances:
            continue
        for violation in validate(build_interval_order(trace)):
            bad += 1
            lines.append(f"case {trace.case_id}: {violation}")
    lines.append(f"checked {len(traces)} traces: {bad} violations")
    _write_output(args, "".join(line + "\n" for line in lines))
    # A constructed order violating its own axioms is an internal error.
    return EXIT_OK if bad == 0 else EXIT_INTERNAL


def cmd_bench(args, log: EventLog, parse_seconds: float) -> int:
    # The variants to draw come from one table, built outside the timings.
    layouts = [entry.layout for _, entry in variant_table(log).sorted_items()]
    parsing, runs, rendering = [], [], []
    for _ in range(args.repeat):
        if args.input is not None:  # re-read the file, so parsing is timed too
            log, parse_seconds = _load_log(args)
        parsing.append(parse_seconds)
        runs.append(report(log).timings)
        t0 = time.perf_counter()
        for layout in layouts:
            render_svg(layout, palette_seed=args.seed)
        rendering.append(time.perf_counter() - t0)
    phases = {"parsing": parsing} | {
        f.name: [getattr(r, f.name) for r in runs] for f in fields(PhaseTimings)
    } | {"rendering": rendering}
    fmt = _resolve_output_format(args, default="text", allowed={"json", "text"})
    if fmt == "json":
        payload = {
            "runs": args.repeat,
            "phases": {
                name: {"min": min(vals), "median": statistics.median(vals)}
                for name, vals in phases.items()
            },
        }
        _write_output(args, json.dumps(payload, indent=2) + "\n")
    else:
        lines = [f"benchmark: {args.repeat} runs", f"{'phase':<16} {'min':>10} {'median':>10}"]
        for name, vals in phases.items():
            lines.append(
                f"{name:<16} {min(vals):>9.3f}s {statistics.median(vals):>9.3f}s"
            )
        _write_output(args, "".join(line + "\n" for line in lines))
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--input", "-i", help="path to a .xes, .xes.gz or .csv event log")
    common.add_argument(
        "--generate",
        metavar="SPEC",
        help=(
            "synthesize a log instead of reading one; SPEC is key=value pairs: "
            "num_templates,traces_per_template,instances_per_trace,overlap_density[,seed]"
        ),
    )
    common.add_argument(
        "--format", choices=("auto", "xes", "csv"), default="auto",
        help="input format (default: by file extension)",
    )
    common.add_argument(
        "--columns",
        help="CSV column names as case,label,start,complete (default exactly those)",
    )
    common.add_argument("--output", "-o", help="output path (default: stdout)")
    common.add_argument(
        "--output-format", choices=("json", "svg", "text"),
        help="output format (default: per command, or by --output extension)",
    )
    common.add_argument(
        "--threads", type=int, default=1,
        help=(
            "accepted for compatibility and has no effect: the pipeline runs in "
            "one thread, output bytes are the same"
        ),
    )
    common.add_argument("--seed", type=int, default=0, help="seed for colors and --generate")

    parser = argparse.ArgumentParser(
        prog="variantview",
        description="Trace variant explorer for partially ordered event data.",
    )
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("variants", parents=[common], help="list interval-ordered variants")
    p.set_defaults(func=cmd_variants)

    p = sub.add_parser("render", parents=[common], help="render one variant as SVG/text")
    selector = p.add_mutually_exclusive_group(required=True)
    selector.add_argument("--key", help="canonical variant key to render")
    selector.add_argument("--case", help="case id whose variant to render")
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("stats", parents=[common], help="log and variant statistics")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("check", parents=[common], help="validate every trace's interval order")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("bench", parents=[common], help="repeat the pipeline and time phases")
    p.add_argument("--repeat", type=int, default=5, help="number of runs (default 5)")
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "func", None) is None:
        parser.print_usage(sys.stderr)
        return EXIT_INPUT
    try:
        _check_args(args)
        log, parse_seconds = _load_log(args)
        _emit_diagnostics(log)
        return args.func(args, log, parse_seconds)
    except (InputError, ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except UnknownReference as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_REFERENCE
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
