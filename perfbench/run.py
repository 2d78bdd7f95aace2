"""Benchmark of variantview from event-log file to variant table and SVG.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/`` and its CLI is run as ``python -m variantview.cli`` with that
directory on ``PYTHONPATH``. The seed makes the input; the program only sees
the files. A run repeats whole rounds of the operations in
``Bench.run_round`` until ``--seconds`` have passed, checks every output
against the reference in ``reference.py``, and prints one JSON object as its
last line of standard output: the end-to-end metrics with ``--trace 0``, the
per-layer metrics of a traced pass (``spans.py``) with ``--trace 1``. See
README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import subprocess
import sys
import traceback
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path
from statistics import median
from time import perf_counter
from typing import Callable

import gen
import reference
from checks import (
    Mismatch,
    check_log,
    check_stats_json,
    check_svg,
    check_table,
    check_variants_json,
    expect,
)
from spans import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

CHILD_TIMEOUT_S = 150
# Starts the CLI from a small interpreter and reports its wall time, exit code
# and ru_maxrss. Linux carries the peak RSS of the process that forks into the
# child's ru_maxrss, so a CLI started straight from this (larger) process would
# report this process's peak instead of its own.
LAUNCHER = """
import os, subprocess, sys, threading, time
t0 = time.perf_counter()
proc = subprocess.Popen(sys.argv[2:], stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
timer = threading.Timer(float(sys.argv[1]), proc.kill)
timer.start()
_, status, usage = os.wait4(proc.pid, 0)
wall = time.perf_counter() - t0
timer.cancel()
proc.returncode = os.waitstatus_to_exitcode(status)
print(wall, proc.returncode, usage.ru_maxrss)
"""
SETUP_PROBES = 3  # fresh-interpreter imports per round
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import variantview.cli; "
    "print(time.perf_counter() - t)"
)

END_TO_END_UNITS = {
    "setup_s": "s",
    "variants_s": "s",
    "stats_s": "s",
    "analyze_instances_per_s": "instances/s",
    "svg_per_s": "variants/s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "ingest.read_s": "s",
    "ingest.timestamp_s": "s",
    "ingest.pair_s": "s",
    "ingest.group_s": "s",
    "ingest.bytes": "bytes",
    "ingest.events": "count",
    "ingest.instances": "count",
    "ingest.warnings": "count",
    "order.build_s": "s",
    "order.orders": "count",
    "order.suborder_s": "s",
    "order.suborder_calls": "count",
    "cuts.find_cut_s": "s",
    "cuts.find_cut_calls": "count",
    "layout.cut_s": "s",
    "layout.canonical_s": "s",
    "layout.aggregate_s": "s",
    "layout.variants": "count",
    "layout.seq_nodes": "count",
    "layout.par_nodes": "count",
    "layout.fallback_nodes": "count",
    "layout.max_depth": "count",
    "layout.distinct_shapes": "count",
    "layout.shape_reuse": "ratio",
    "stats.classic_s": "s",
    "stats.classic_variants": "count",
    "stats.report_s": "s",
    "render.svg_s": "s",
    "render.svg_bytes": "bytes",
    "render.text_s": "s",
    "render.json_s": "s",
    "cli.overhead_s": "s",
}


@dataclass(frozen=True)
class Workload:
    make: Callable[[int, Path], gen.Input]  # (seed, work dir) -> input
    threads: int
    svg_passes: int  # render passes over the variant table per round, about 1 s
    deep_failing: bool = False  # round also runs the 1,200-instance trace


WORKLOADS = {
    "csv_repeat": Workload(gen.make_csv_repeat, threads=1, svg_passes=120),
    "xes_unique": Workload(gen.make_xes_unique, threads=2, svg_passes=2),
    "deep_nesting": Workload(gen.make_deep_nesting, threads=1, svg_passes=1, deep_failing=True),
}

DEEP_OP = "deep_1200"


class OpFailed(Exception):
    """An operation the program did not complete (non-zero exit, exception)."""


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def load_program():
    """Import variantview from this checkout's ``src/``, or exit with 2."""
    if not (SRC / "variantview" / "cli.py").is_file():
        log(f"error: no program sources under {SRC}; run from a source checkout")
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import variantview

    if Path(variantview.__file__).resolve().parent != SRC / "variantview":
        log(f"error: imported variantview from {variantview.__file__}, not {SRC}")
        sys.exit(2)
    return variantview


def git_revision() -> str:
    """Commit of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        name = head[5:]
        if (git / name).is_file():
            return (git / name).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Bench:
    def __init__(self, name: str, seed: int, work: Path, vv) -> None:
        self.wl = WORKLOADS[name]
        self.work = work
        self.vv = vv
        self.env = dict(os.environ, PYTHONPATH=str(SRC))

        t0 = perf_counter()
        self.inp = self.wl.make(seed, work)
        self.ref = reference.build_reference(self.inp)
        expect(self.ref.unpaired == self.inp.orphans, "reference pairing left other events unpaired")
        self.failing = gen.make_deep_failing(work) if self.wl.deep_failing else None
        self.failing_ref = None  # built only if the program ever gets it right
        self.gen_s = perf_counter() - t0

        self.samples: dict[str, list[float]] = defaultdict(list)
        self.layer: dict[str, list[float]] = defaultdict(list)
        self.attempted = Counter()
        self.failed = Counter()
        self.verified: dict[str, object] = {}  # first checked output, by op
        self.table = None
        self.round_setup: list[float] = []
        self.round_variants = None
        self.round_analyze = None
        self.overhead: list[tuple[float, float]] = []  # (traced, untraced) analysis seconds
        self.tracer: Tracer | None = None

    # ------------------------------------------------------------ children

    def child(self, args: list[str], out: Path) -> tuple[float, float]:
        """Run the CLI; return (wall seconds, peak RSS in MB), or raise OpFailed."""
        err_path = self.work / "stderr.txt"
        cmd = [
            sys.executable, "-c", LAUNCHER, str(CHILD_TIMEOUT_S),
            sys.executable, "-m", "variantview.cli", *args, "--output", str(out),
        ]
        with err_path.open("wb") as err:
            done = subprocess.run(
                cmd, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=err,
                env=self.env, cwd=self.work, text=True, check=True,
            )
        wall, code, maxrss_kb = done.stdout.split()
        if code != "0":
            tail = err_path.read_text(errors="replace").strip().splitlines()[-1:]
            raise OpFailed(f"exit {code}: {' '.join(tail)}")
        return float(wall), int(maxrss_kb) / 1024.0

    def import_time(self) -> float:
        done = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE], env=self.env, cwd=self.work,
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
        if done.returncode != 0:
            raise OpFailed(f"import failed: {done.stderr.strip()[-300:]}")
        return float(done.stdout)

    # ------------------------------------------------------------ operations

    def op(self, name: str, fn) -> None:
        self.attempted[name] += 1
        try:
            if self.tracer is None:
                fn()
            else:
                with self.tracer.operation(name):
                    fn()
        except Mismatch:
            raise
        except OpFailed as exc:
            self.failed[name] += 1
            if self.failed[name] == 1:
                log(f"{name} failed: {exc}")
        except Exception:
            self.failed[name] += 1
            log(f"{name} failed:\n{traceback.format_exc()}")

    def same_as_verified(self, op: str, output, check) -> None:
        """Check an output fully the first time, then require identical bytes."""
        if op not in self.verified:
            check(output)
            self.verified[op] = output
        else:
            expect(output == self.verified[op], f"{op}: output differs from the first round's")

    def op_setup(self) -> None:
        self.round_setup = [self.import_time() for _ in range(SETUP_PROBES)]
        self.samples["setup_s"].extend(self.round_setup)

    def cli_args(self, command: str, path: Path) -> list[str]:
        return [command, "--input", str(path), "--threads", str(self.wl.threads)]

    def op_variants(self) -> None:
        out = self.work / "variants.json"
        wall, rss = self.child(self.cli_args("variants", self.inp.path), out)
        self.samples["variants_s"].append(wall)
        self.samples["peak_rss_mb"].append(rss)
        self.round_variants = wall
        self.same_as_verified(
            "variants_cli", out.read_bytes(),
            lambda data: check_variants_json(json.loads(data), self.ref),
        )

    def op_stats(self) -> None:
        out = self.work / "stats.json"
        wall, _ = self.child(self.cli_args("stats", self.inp.path) + ["--output-format", "json"], out)
        self.samples["stats_s"].append(wall)
        check_stats_json(json.loads(out.read_bytes()), self.ref)

    def parse(self, path: Path):
        return (self.vv.parse_xes if self.inp.fmt == "xes" else self.vv.parse_csv)(path)

    def op_analyze(self) -> None:
        self.table = None
        gc.collect()
        t0 = perf_counter()
        parsed = self.parse(self.inp.path)
        table = self.vv.variant_table(parsed, threads=self.wl.threads)
        dt = perf_counter() - t0
        self.samples["analyze_instances_per_s"].append(len(parsed) / dt)
        self.round_analyze = dt
        check_log(parsed, self.ref)
        check_table(table, self.ref)
        self.table = table

    def op_svg(self) -> None:
        if self.table is None:
            raise OpFailed("no variant table from this round's analysis")
        items = self.table.sorted_items()
        layouts = [entry.layout for _, entry in items]
        render = self.vv.render_svg
        gc.collect()
        t0 = perf_counter()
        for _ in range(self.wl.svg_passes):
            svgs = [render(tree) for tree in layouts]
        dt = perf_counter() - t0
        self.samples["svg_per_s"].append(self.wl.svg_passes * len(layouts) / dt)
        self.same_as_verified(
            "svg", svgs, lambda out: [check_svg(s, k, self.ref) for s, (k, _) in zip(out, items)]
        )

    def op_deep_failing(self) -> None:
        out = self.work / "deep_1200.json"
        self.child(self.cli_args("variants", self.failing.path), out)
        if self.failing_ref is None:
            self.failing_ref = reference.build_reference(self.failing)
        check_variants_json(json.loads(out.read_bytes()), self.failing_ref)

    def run_round(self) -> None:
        self.op("setup", self.op_setup)
        self.op("variants_cli", self.op_variants)
        self.op("stats_cli", self.op_stats)
        self.op("analyze", self.op_analyze)
        self.op("svg", self.op_svg)
        if self.failing is not None:
            self.op(DEEP_OP, self.op_deep_failing)

    # ------------------------------------------------------------ traced pass

    def traced_pass(self, tr: Tracer) -> None:
        """Call each layer's public functions in turn, timing every call."""
        vv = self.vv
        parse_timestamp = vv.ingest.parse_timestamp
        since = len(tr.spans)
        strings = self.inp.timestamp_strings()
        pairing = self.inp.pairing_events()
        gc.collect()
        with tr.operation("ingest"):
            parsed = tr.call("ingest.read", self.parse, self.inp.path)
            with tr.span("ingest.timestamp", calls=len(strings)):
                for text in strings:
                    parse_timestamp(text)
            with tr.span("ingest.pair", calls=len(pairing)):
                for case_id, events in pairing:
                    vv.pair_events(events, case_id=case_id)
            traces = tr.call("ingest.group", vv.group_by_case, parsed)
        with tr.operation("order") as order_span:
            orders = [tr.call("order.build", vv.build_interval_order, t) for t in traces]
        with tr.operation("replay"):
            # build_layout's recursion as the program has it, on an explicit stack.
            stack = list(orders)
            while stack:
                order = stack.pop()
                if len(order) == 1:
                    continue
                cut = tr.call("cuts.find_cut", vv.find_cut, order)
                for group in cut.groups:
                    stack.append(tr.call("order.suborder", vv.induced_suborder, order, group))
        with tr.operation("layout") as layout_span:
            trees = [tr.call("layout.cut", vv.build_layout, o) for o in orders]
            keys = [tr.call("layout.canonical", vv.canonical_form, t) for t in trees]
            table = vv.VariantTable()
            for trace, key, tree in zip(traces, keys, trees):
                tr.call("layout.aggregate", table.add, key, tree, trace.case_id)
        del orders, trees, keys
        check_log(parsed, self.ref)
        check_table(table, self.ref)
        with tr.operation("stats"):
            classic = tr.call("stats.classic", vv.classic_variants, parsed)
            tr.call("stats.report", vv.report, parsed, threads=self.wl.threads)
        expect(len(classic) == self.ref.classic_count, "classic variant count")
        items = table.sorted_items()
        with tr.operation("render"):
            svgs = [tr.call("render.svg", vv.render_svg, e.layout) for _, e in items]
            for _, e in items:
                tr.call("render.text", vv.render_text, e.layout)
            variants = [
                {
                    "key": key,
                    "count": e.count,
                    "has_fallback": e.has_fallback,
                    "representative_cases": e.case_ids[:5],
                    "layout": tr.call("render.json", vv.layout_to_json, e.layout),
                }
                for key, e in items
            ]
            payload = {
                "num_variants": len(items),
                "total_traces": table.total_count,
                "skipped_traces": len(table.skipped),
                "variants": variants,
            }
            tr.call("render.json", json.dumps, payload, ensure_ascii=False, indent=2)
        for svg, (key, _) in zip(svgs, items):
            check_svg(svg, key, self.ref)

        totals = tr.totals(since)
        busy = {name: b for name, (b, _) in totals.items()}
        calls = {name: c for name, (_, c) in totals.items()}
        nodes = Counter()
        depth = 0
        for _, e in items:
            n, d = tree_shape(e.layout)
            for kind, k in n.items():
                nodes[kind] += k * e.count
            depth = max(depth, d)
        traced_analysis = (
            busy["ingest.read"] + busy["ingest.group"]
            + (order_span.end - order_span.start) + (layout_span.end - layout_span.start)
        )
        self.overhead.append((traced_analysis, self.round_analyze))
        values = {
            "ingest.read_s": busy["ingest.read"],
            "ingest.timestamp_s": busy["ingest.timestamp"],
            "ingest.pair_s": busy["ingest.pair"],
            "ingest.group_s": busy["ingest.group"],
            "ingest.bytes": self.inp.path.stat().st_size,
            "ingest.events": self.inp.record_count,
            "ingest.instances": len(parsed),
            "ingest.warnings": len(parsed.source_meta.warnings),
            "order.build_s": busy["order.build"],
            "order.orders": calls["order.build"],
            "order.suborder_s": busy.get("order.suborder", 0.0),
            "order.suborder_calls": calls.get("order.suborder", 0),
            "cuts.find_cut_s": busy.get("cuts.find_cut", 0.0),
            "cuts.find_cut_calls": calls.get("cuts.find_cut", 0),
            "layout.cut_s": busy["layout.cut"],
            "layout.canonical_s": busy["layout.canonical"],
            "layout.aggregate_s": busy["layout.aggregate"],
            "layout.variants": len(items),
            "layout.seq_nodes": nodes["sequence"],
            "layout.par_nodes": nodes["parallel"],
            "layout.fallback_nodes": nodes["fallback"],
            "layout.max_depth": depth,
            "layout.distinct_shapes": self.ref.shapes,
            "layout.shape_reuse": len(traces) / self.ref.shapes,
            "stats.classic_s": busy["stats.classic"],
            "stats.classic_variants": len(classic),
            "stats.report_s": busy["stats.report"],
            "render.svg_s": busy["render.svg"],
            "render.svg_bytes": sum(len(s.encode("utf-8")) for s in svgs),
            "render.text_s": busy["render.text"],
            "render.json_s": busy["render.json"],
            "cli.overhead_s": self.round_variants
            - median(self.round_setup) - self.round_analyze - busy["render.json"],
        }
        for name, value in values.items():
            self.layer[name].append(value)


def tree_shape(tree) -> tuple[Counter, int]:
    """Node counts by lower-cased class name, and depth (nodes on the longest
    path), of a program layout tree, walked without recursion."""
    counts = Counter()
    depth = 0
    stack = [(tree, 1)]
    while stack:
        node, d = stack.pop()
        depth = max(depth, d)
        counts[type(node).__name__.lower()] += 1
        stack.extend((c, d + 1) for c in getattr(node, "children", ()))
    return counts, depth


def describe(bench: Bench) -> dict:
    """Make-up of the generated input, for the record."""
    ref = bench.ref
    sizes = [len(v) for v in ref.instances.values()]
    ties = atomic = stamps = 0
    for inst in ref.instances.values():
        points = Counter(t for _, s, c in inst for t in {s, c})
        stamps += sum(points.values())
        ties += sum(k for k in points.values() if k > 1)
        atomic += sum(1 for _, s, c in inst if s == c)
    return {
        "bytes": bench.inp.path.stat().st_size,
        "cases": len(sizes),
        "instances": sum(sizes),
        "min_instances": min(sizes),
        "max_instances": max(sizes),
        "labels": len({l for v in ref.instances.values() for l, _, _ in v}),
        "variants": len(ref.counts),
        "fallback_variants": ref.fallback_variants,
        "distinct_shapes": ref.shapes,
        "tied_timestamp_share": round(ties / stamps, 4),
        "atomic_share": round(atomic / sum(sizes), 4),
        "unpaired_events": ref.unpaired,
        "generate_s": round(bench.gen_s, 3),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    vv = load_program()
    work = OUT / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        return run(args, vv, work)
    finally:
        for path in work.iterdir():
            path.unlink()
        work.rmdir()


def run(args, vv, work: Path) -> int:
    bench = Bench(args.workload, args.seed, work, vv)
    log(f"input: {json.dumps(describe(bench))}")
    bench.import_time()  # compiles bytecode once, outside the samples
    gc.freeze()  # keep the reference out of the program's collections
    tracer = bench.tracer = Tracer() if args.trace else None
    started = perf_counter()
    rounds = 0
    correct = True
    try:
        while True:
            bench.run_round()
            if tracer is not None and bench.table is not None:
                bench.table = None
                bench.traced_pass(tracer)
            rounds += 1
            if perf_counter() - started >= args.seconds:
                break
    except Mismatch as exc:
        log(f"MISMATCH: {exc}")
        correct = False
    attempted, failed = sum(bench.attempted.values()), sum(bench.failed.values())
    if not correct:
        print(json.dumps({"correct": False, "attempted": attempted, "failed": failed, "metrics": {}}))
        return 1

    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    source = bench.layer if args.trace else bench.samples
    missing = [name for name in units if not source.get(name)]
    if missing:
        log(f"error: no samples for {missing}")
        return 1
    metrics = {name: {"value": median(source[name]), "unit": unit} for name, unit in units.items()}
    per_op = {op: [bench.attempted[op], bench.failed[op]] for op in bench.attempted}
    log(
        f"rounds: {rounds} in {perf_counter() - started:.1f} s; "
        f"attempted/failed per operation: {json.dumps(per_op)}"
    )
    for name, values in bench.samples.items():
        log(f"samples {name} (n={len(values)}): {' '.join(f'{v:.4g}' for v in values)}")
    if tracer is not None:
        trace_path = OUT / f"trace-{args.workload}-{args.seed}.json"
        tracer.write(
            trace_path,
            workload=args.workload,
            seed=args.seed,
            python=platform.python_version(),
            cpus=os.cpu_count(),
            revision=git_revision(),
            overhead=[
                {"traced_s": t, "untraced_s": u, "ratio": t / u} for t, u in bench.overhead
            ],
            metrics={name: m["value"] for name, m in metrics.items()},
        )
        ratios = [t / u for t, u in bench.overhead]
        log(f"trace: {trace_path.relative_to(ROOT)}; traced/untraced analysis time {median(ratios):.3f}")
    print(json.dumps({"correct": True, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
