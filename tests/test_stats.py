"""Statistics, the phase-timed report, and the synthetic generator."""

from __future__ import annotations

import random

import pytest

from conftest import CHAINED_ROWS, DATA, inst, make_trace
from variantview.ingest import EventLog, group_by_case, parse_csv
from variantview.layout import Fallback, Parallel, Sequence, layout_trace, variant_table
from variantview.stats import (
    GeneratorSpec,
    classic_variants,
    generate_log,
    report,
    report_to_json,
    report_to_text,
)


class TestClassicVariants:
    def test_twin_cases_differ_classically(self):
        log = parse_csv(DATA / "same_structure_cases.csv")
        counts = classic_variants(log)
        assert len(counts) == 2
        assert sorted(counts.values()) == [1, 1]
        keys = sorted(counts)
        # case 1 runs D before E, case 2 E before D
        assert tuple("ABCDEFAG") in counts
        assert tuple("ABCEDAFG") in counts
        assert all(len(k) == 8 for k in keys)

    def test_single_trace(self):
        log = EventLog(make_trace([("A", 0, 1), ("B", 2, 3)]).instances)
        assert list(classic_variants(log).values()) == [1]

    def test_tie_break_by_complete_then_label(self):
        trace = make_trace([("B", 0, 10), ("A", 0, 10), ("C", 0, 5)])
        log = EventLog(trace.instances)
        ((key, _),) = classic_variants(log).items()
        # equal starts: C completes first; A before B by label
        assert key == ("C", "A", "B")

    def test_atomic_distinct_timestamps_classic_equals_interval(self):
        rng = random.Random(51)
        instances = []
        next_id = 0
        for case in range(40):
            times = rng.sample(range(1000), rng.randint(2, 8))
            for t in times:
                instances.append(
                    make_trace([("x", 0, 0)]).instances[0].__class__(
                        next_id, f"c{case}", rng.choice("abcde"), t, t
                    )
                )
                next_id += 1
        log = EventLog(tuple(instances))
        classic = classic_variants(log)
        table = variant_table(log)
        assert len(classic) == len(table.entries)


class TestReport:
    def test_worked_example_counts(self):
        log = parse_csv(DATA / "worked_example.csv")
        rep = report(log)
        assert rep.num_cases == 2
        assert rep.interval_variant_count == 2
        assert rep.classic_variant_count == 2
        assert rep.fallback_variant_count == 0
        assert rep.avg_events_per_case == pytest.approx(4.5)

    def test_empty_log(self):
        rep = report(EventLog(()))
        assert rep.num_cases == 0
        assert rep.interval_variant_count == 0
        assert rep.avg_events_per_case == 0.0
        assert rep.fallback_variant_pct == 0.0

    def test_total_covers_phases(self):
        log = generate_log(GeneratorSpec(3, 30, 8, 0.4, seed=1))
        rep = report(log)
        t = rep.timings
        assert t.total + 1e-6 >= t.preprocessing + t.building_orders + t.cutting - 0.01

    def test_extra_preprocessing_folded_in(self):
        log = parse_csv(DATA / "worked_example.csv")
        rep = report(log, extra_preprocessing_seconds=1.0)
        assert rep.timings.preprocessing >= 1.0
        assert rep.timings.total >= 1.0

    def test_threads_do_not_change_counts(self):
        log = generate_log(GeneratorSpec(4, 25, 10, 0.5, seed=2))
        a = report(log, threads=1)
        b = report(log, threads=8)
        assert (a.num_cases, a.classic_variant_count, a.interval_variant_count) == (
            b.num_cases,
            b.classic_variant_count,
            b.interval_variant_count,
        )

    def test_fallback_pct_is_a_share_of_interval_variants(self):
        # Three cases, two variants, one of them with a fallback: 50%, not 33%.
        rows = [("a", "A", 0, 10), ("a", "B", 20, 30), ("b", "A", 0, 5), ("b", "B", 40, 50)]
        rows += [("c", label, s, c) for label, s, c in CHAINED_ROWS]
        log = EventLog(tuple(inst(i, l, s, c, case=k) for i, (k, l, s, c) in enumerate(rows)))
        rep = report(log)
        assert (rep.num_cases, rep.interval_variant_count) == (3, 2)
        assert rep.fallback_variant_count == 1
        assert rep.fallback_variant_pct == 50.0

    def test_fallback_pct_zero_for_distinct_atomic_logs(self):
        rng = random.Random(52)
        instances = []
        next_id = 0
        proto = make_trace([("x", 0, 0)]).instances[0].__class__
        for case in range(20):
            for t in rng.sample(range(500), 6):
                instances.append(proto(next_id, f"c{case}", rng.choice("abc"), t, t))
                next_id += 1
        rep = report(EventLog(tuple(instances)))
        assert rep.fallback_variant_count == 0
        assert rep.fallback_variant_pct == 0.0

    def test_timings_grow_with_log_size(self):
        # smoke property with very generous tolerance
        small = generate_log(GeneratorSpec(2, 20, 8, 0.4, seed=3))
        large = generate_log(GeneratorSpec(2, 400, 8, 0.4, seed=3))
        t_small = report(small).timings.total
        t_large = report(large).timings.total
        assert t_large >= t_small * 0.3


class TestReportSerialization:
    def test_json_keys(self):
        rep = report(parse_csv(DATA / "worked_example.csv"))
        doc = report_to_json(rep)
        assert doc["num_cases"] == 2
        assert set(doc["timings"]) == {
            "preprocessing",
            "building_orders",
            "cutting",
            "total",
        }

    def test_text_table_column_names(self):
        rep = report(parse_csv(DATA / "worked_example.csv"))
        text = report_to_text(rep, "worked_example.csv")
        for needle in (
            "#cases (avg. #events per case)",
            "Total calculation",
            "Preprocessing event data",
            "Creating interval orders",
            "Cutting interval orders",
            "#classic variants",
            "#interval ordered variants",
            "#interval ordered variants with limitations",
        ):
            assert needle in text


class TestGenerateLog:
    def test_deterministic(self):
        spec = GeneratorSpec(5, 10, 6, 0.5, seed=42)
        assert generate_log(spec) == generate_log(spec)

    def test_five_templates_five_variants(self):
        log = generate_log(GeneratorSpec(5, 200, 8, 0.5, seed=7))
        table = variant_table(log)
        assert len(table.entries) == 5
        assert table.total_count == 1000
        assert all(e.count == 200 for e in table.entries.values())

    def test_zero_overlap_is_totally_ordered(self):
        log = generate_log(GeneratorSpec(4, 5, 7, 0.0, seed=9))

        def flat_sequence(tree):
            assert isinstance(tree, Sequence)
            assert not any(isinstance(c, (Parallel, Fallback, Sequence)) for c in tree.children)

        for trace in group_by_case(log):
            flat_sequence(layout_trace(trace))

    def test_high_overlap_produces_chained_fallbacks(self):
        log = generate_log(GeneratorSpec(6, 5, 10, 1.0, seed=11))
        table = variant_table(log)
        assert table.fallback_variant_count >= 1

    def test_counts(self):
        spec = GeneratorSpec(3, 7, 5, 0.2, seed=1)
        log = generate_log(spec)
        traces = group_by_case(log)
        assert len(traces) == 21
        assert all(len(t.instances) == 5 for t in traces)

    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError):
            GeneratorSpec(0, 1, 1, 0.5)
        with pytest.raises(ValueError):
            GeneratorSpec(1, 1, 1, 1.5)
        with pytest.raises(ValueError):
            GeneratorSpec(1, -2, 1, 0.5)

    def test_instances_have_valid_intervals(self):
        log = generate_log(GeneratorSpec(3, 10, 9, 0.8, seed=13))
        assert all(a.start_ts <= a.complete_ts for a in log.instances)
