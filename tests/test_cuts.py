"""Cut detection: the kernels and ``find_cut`` against the enumeration oracle
and reachability."""

from __future__ import annotations

import random

import pytest

import variantview

from conftest import (
    as_cut,
    bfs_components,
    brute_force_ordering_cut,
    make_trace,
    random_trace,
)
from variantview.cuts import CutKind, CutResult, find_cut, ordering_blocks, parallel_blocks
from variantview.ingest import Trace
from variantview.order import build_interval_order, induced_suborder


def _labels(order, groups):
    label_of = {v.id: v.label for v in order.vertices}
    return [sorted(label_of[i] for i in g) for g in groups]


class TestMaximalOrderingCut:
    def test_worked_example_three_blocks(self, worked_case):
        order = build_interval_order(worked_case)
        cut = as_cut(CutKind.ORDERING, ordering_blocks(order.vertices))
        assert cut.kind is CutKind.ORDERING
        assert _labels(order, cut.groups) == [
            ["A", "B", "C", "D", "E"],
            ["A", "F"],
            ["G"],
        ]

    def test_two_overlapping_instances(self):
        order = build_interval_order(make_trace([("A", 0, 10), ("B", 5, 15)]))
        assert len(ordering_blocks(order.vertices)) == 1

    def test_matches_oracle_on_randoms(self):
        rng = random.Random(21)
        for _ in range(300):
            order = build_interval_order(random_trace(rng, max_size=10))
            cut = as_cut(CutKind.ORDERING, ordering_blocks(order.vertices))
            assert cut == brute_force_ordering_cut(order)


class TestMaximalParallelCut:
    def test_components_of_first_block(self, worked_case):
        order = build_interval_order(worked_case)
        first_block = ordering_blocks(order.vertices)[0]
        sub = induced_suborder(order, {v.id for v in first_block})
        cut = as_cut(CutKind.PARALLEL, parallel_blocks(sub.vertices))
        assert cut.kind is CutKind.PARALLEL
        assert _labels(sub, cut.groups) == [["A", "B", "D", "E"], ["C"]]

    def test_chain_has_single_component(self):
        order = build_interval_order(
            make_trace([("a", 0, 1), ("b", 2, 3), ("c", 4, 5)])
        )
        assert len(parallel_blocks(order.vertices)) == 1

    def test_matches_reachability_on_randoms(self):
        rng = random.Random(22)
        for _ in range(300):
            order = build_interval_order(random_trace(rng, max_size=10))
            cut = as_cut(CutKind.PARALLEL, parallel_blocks(order.vertices))
            expected = bfs_components(order)
            if len(expected) < 2:
                assert cut.kind is CutKind.NONE
            else:
                assert set(cut.groups) == expected

    def test_groups_ordered_by_min_start(self):
        order = build_interval_order(
            make_trace([("late", 50, 60), ("early", 0, 100), ("mid", 20, 30)])
        )
        cut = as_cut(CutKind.PARALLEL, parallel_blocks(order.vertices))
        assert cut.kind is CutKind.PARALLEL
        starts = [
            min(v.start_ts for v in order.vertices if v.id in g) for g in cut.groups
        ]
        assert starts == sorted(starts)


class TestFindCut:
    def test_worked_example_is_ordering(self, worked_case):
        cut = find_cut(build_interval_order(worked_case))
        assert cut.kind is CutKind.ORDERING
        assert len(cut.groups) == 3

    def test_chained_case_has_no_cut(self, chained_case):
        assert find_cut(build_interval_order(chained_case)).kind is CutKind.NONE

    def test_single_vertex(self):
        order = build_interval_order(make_trace([("A", 0, 1)]))
        assert find_cut(order).kind is CutKind.NONE

    def test_equals_oracles_on_randoms(self):
        rng = random.Random(27)
        seen = set()
        for _ in range(500):
            order = build_interval_order(random_trace(rng, min_size=1, max_size=10))
            cut = find_cut(order)
            seen.add(cut.kind)
            oracle = brute_force_ordering_cut(order)
            components = bfs_components(order)
            if oracle.kind is CutKind.ORDERING:
                assert cut == oracle
            elif len(components) >= 2:
                assert cut.kind is CutKind.PARALLEL
                assert set(cut.groups) == components
                assert len(cut.groups) == len(components)
            else:
                assert cut == CutResult(CutKind.NONE, ())
        assert seen == set(CutKind)


class TestBruteForceOracle:
    def test_three_block_example(self, three_block_order):
        cut = brute_force_ordering_cut(three_block_order)
        assert [sorted(g) for g in cut.groups] == [
            ["v0", "v1", "v2"],
            ["v3"],
            ["v4", "v5"],
        ]

    def test_two_chain(self):
        order = build_interval_order(make_trace([("a", 0, 1), ("b", 2, 3)]))
        cut = brute_force_ordering_cut(order)
        labels = {v.id: v.label for v in order.vertices}
        assert [[labels[i] for i in g] for g in cut.groups] == [["a"], ["b"]]

    def test_size_bound(self):
        trace = make_trace([("x", 3 * i, 3 * i + 1) for i in range(17)])
        with pytest.raises(ValueError):
            brute_force_ordering_cut(build_interval_order(trace))


class TestCutLaws:
    def test_exclusion(self):
        rng = random.Random(23)
        for _ in range(500):
            order = build_interval_order(random_trace(rng))
            ordering = len(ordering_blocks(order.vertices)) > 1
            parallel = len(parallel_blocks(order.vertices)) > 1
            assert not (ordering and parallel)

    def test_detectors_invariant_under_vertex_permutation(self):
        rng = random.Random(24)
        for _ in range(100):
            trace = random_trace(rng)
            shuffled = list(trace.instances)
            rng.shuffle(shuffled)
            a = build_interval_order(trace)
            b = build_interval_order(Trace(trace.case_id, tuple(shuffled)))
            assert find_cut(a) == find_cut(b)

    def test_ordering_cut_cross_pairs_are_edges(self):
        rng = random.Random(25)
        checked = 0
        while checked < 50:
            order = build_interval_order(random_trace(rng))
            cut = as_cut(CutKind.ORDERING, ordering_blocks(order.vertices))
            if cut.kind is not CutKind.ORDERING:
                continue
            checked += 1
            for i in range(len(cut.groups)):
                for j in range(i + 1, len(cut.groups)):
                    for u in cut.groups[i]:
                        for v in cut.groups[j]:
                            assert (u, v) in order.edges

    def test_groups_partition_vertices(self):
        rng = random.Random(26)
        for _ in range(200):
            order = build_interval_order(random_trace(rng))
            cut = find_cut(order)
            if cut.kind is CutKind.NONE:
                continue
            assert len(cut.groups) >= 2
            ids = [i for g in cut.groups for i in g]
            assert len(ids) == len(set(ids)) == len(order.vertices)


PUBLIC_NAMES = [
    "ActivityInstance", "ColumnMap", "CutKind", "CutResult", "EventLog", "Fallback",
    "GeneratorSpec", "IntervalOrder", "LayoutTree", "Leaf", "LogReport", "Parallel",
    "ParseError", "PhaseTimings", "Sequence", "SourceMeta", "Trace", "VariantEntry",
    "VariantTable", "Violation", "build_interval_order", "build_layout", "canonical_form",
    "classic_variants", "find_cut", "generate_log", "group_by_case", "induced_suborder",
    "label_color", "layout_from_json", "layout_to_json", "pair_events", "parse_csv",
    "parse_xes", "render_svg", "render_text", "report", "report_to_json", "report_to_text",
    "to_dot", "validate", "variant_table", "write_csv",
]


def test_public_names_are_pinned_and_resolve():
    # The cut API is the two kernels plus find_cut; the oracle lives in the tests.
    assert variantview.__all__ == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert getattr(variantview, name) is not None
    for gone in ("maximal_ordering_cut", "maximal_parallel_cut", "brute_force_ordering_cut"):
        assert not hasattr(variantview, gone)
