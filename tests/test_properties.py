"""Property-based suite for the order/cut/layout invariants."""

from __future__ import annotations

import io
import json
import xml.etree.ElementTree as ET
from itertools import accumulate

from hypothesis import example, given, settings, strategies as st

from conftest import (
    as_cut,
    bfs_components,
    brute_edges,
    brute_force_ordering_cut,
    decomposition_layout,
    has_fallback,
    kernel_blocks,
    make_trace,
    nested_trace,
    reference_kernel_layout,
    reference_ordering_blocks,
    reference_parallel_blocks,
    reference_layout,
    tree_labels,
)
from test_render import parse_render_text
from variantview.cuts import BY_COMPLETE, CutKind, find_cut, maximal_cut
from variantview.ingest import (
    ActivityInstance,
    EventLog,
    Trace,
    group_by_case,
    pair_events,
    parse_csv,
    write_csv,
)
from variantview.layout import (
    Fallback,
    Leaf,
    Parallel,
    Sequence,
    build_layout,
    canonical_form,
    fold,
    layout_from_json,
    layout_json_text,
    layout_run,
    layout_to_json,
    layout_trace,
    variant_table,
)
from variantview.order import build_interval_order, induced_suborder, validate
from variantview.render import label_color, render_svg, render_text

PROPERTY_SETTINGS = settings(max_examples=150, deadline=None)

_PLAIN = st.sampled_from(["a", "b", "c", "d"])
_WEIRD = st.text(alphabet="ab,(){}\\ u", min_size=1, max_size=6)
# Characters JSON escapes or passes through with ensure_ascii=False.
_JSONY = st.text(
    alphabet=st.one_of(st.sampled_from('ab"\\/\x00\x1f\x7f\n\t\u2028é€😀'), st.characters()),
    min_size=1,
    max_size=6,
)


@st.composite
def traces(draw, min_size=1, max_size=10, labels=_PLAIN):
    n = draw(st.integers(min_size, max_size))
    rows = []
    for _ in range(n):
        start = draw(st.integers(0, 20))
        rows.append((draw(labels), start, start + draw(st.integers(0, 6))))
    return make_trace(rows)


@given(traces())
@PROPERTY_SETTINGS
def test_constructed_orders_satisfy_all_axioms(trace):
    assert validate(build_interval_order(trace)) == []


@given(traces())
@PROPERTY_SETTINGS
def test_edges_match_pairwise_definition(trace):
    order = build_interval_order(trace)
    assert order.edges == brute_edges(trace.instances)


@given(traces(min_size=2), st.data())
@PROPERTY_SETTINGS
def test_restriction_commutes_with_construction(trace, data):
    order = build_interval_order(trace)
    ids = sorted((str(v.id), v.id) for v in order.vertices)
    picked = data.draw(
        st.sets(st.sampled_from([i for _, i in ids]), min_size=1),
        label="subset",
    )
    direct = induced_suborder(order, picked)
    rebuilt = build_interval_order(
        Trace(trace.case_id, tuple(a for a in trace.instances if a.id in picked))
    )
    assert direct == rebuilt


@given(traces())
@PROPERTY_SETTINGS
def test_cuts_cannot_coexist(trace):
    order = build_interval_order(trace)
    assert not (
        len(kernel_blocks(CutKind.ORDERING, order.vertices)) > 1
        and len(kernel_blocks(CutKind.PARALLEL, order.vertices)) > 1
    )


@given(traces(max_size=10))
@PROPERTY_SETTINGS
def test_sweep_equals_enumeration_oracle(trace):
    order = build_interval_order(trace)
    cut = as_cut(CutKind.ORDERING, kernel_blocks(CutKind.ORDERING, order.vertices))
    assert cut == brute_force_ordering_cut(order)


@given(traces())
@PROPERTY_SETTINGS
def test_parallel_cut_equals_reachability(trace):
    order = build_interval_order(trace)
    cut = as_cut(CutKind.PARALLEL, kernel_blocks(CutKind.PARALLEL, order.vertices))
    components = bfs_components(order)
    if len(components) < 2:
        assert cut.kind is CutKind.NONE
    else:
        assert set(cut.groups) == components
        # Components are listed by their minimum vertex position.
        position = {v.id: i for i, v in enumerate(order.vertices)}
        minima = [min(position[v] for v in g) for g in cut.groups]
        assert all(a < b for a, b in zip(minima, minima[1:]))
        # 2+2-freeness: at most one component has more than one vertex, and
        # each single-vertex component overlaps every other vertex.
        assert sum(len(g) > 1 for g in cut.groups) <= 1
        for g in cut.groups:
            if len(g) == 1:
                (v,) = (u for u in order.vertices if u.id in g)
                for u in order.vertices:
                    assert u is v or (
                        v.start_ts <= u.complete_ts and u.start_ts <= v.complete_ts
                    )


@given(traces(max_size=14))
@PROPERTY_SETTINGS
def test_build_layout_equals_recursive_reference(trace):
    # The grid makes ties, touching and atomic instances frequent, and the
    # four labels repeat; equality includes the order of children.
    order = build_interval_order(trace)
    assert build_layout(order) == reference_layout(order)


@st.composite
def runs(draw, max_size=16):
    """Sorted runs with ties, atomic instances and repeated labels."""
    n = draw(st.integers(1, max_size))
    span = draw(st.sampled_from((3, 10, 40)))
    rows = []
    for _ in range(n):
        start = draw(st.integers(0, span))
        rows.append((draw(_PLAIN), start, start + draw(st.integers(0, span // 2))))
    return make_trace(rows).instances


@st.composite
def long_runs(draw):
    """Runs of 34 to 160 instances: random intervals, a few that span them
    all, and a nesting like ``nested_trace`` after them. They reach the
    kernel's bisection search and its in-place deletions."""
    n = draw(st.integers(34, 120))
    span = draw(st.sampled_from((20, 200, 2000)))
    rows = []
    for _ in range(n):
        start = draw(st.integers(0, span))
        rows.append((draw(_PLAIN), start, start + draw(st.integers(0, span // 8))))
    end = span * 2
    rows += [("z", 0, end)] * draw(st.integers(0, 3))
    for k in range(draw(st.integers(0, 20))):
        rows.append(("x", end + 1, end + 1 + draw(st.integers(0, 2))))
        rows.append(("y", draw(st.sampled_from((0, 1))), end + 1 + draw(st.integers(0, 1))))
        end += 4
    return make_trace(rows).instances


# The singleton search reads the start-order prefix, where y is a singleton
# that touches the latest start.
TOUCHING_SINGLETON = make_trace(
    [("x", 0, 1), ("y", 1, 50), ("e", 50, 51)] + [("c", i, i + 1) for i in range(2, 32)]
).instances


@given(runs() | long_runs())
@example(make_trace([("a", 0, 9), ("b", 1, 2), ("c", 3, 4), ("d", 0, 9)]).instances)
@example(make_trace([("a", 0, 1), ("b", 2, 3), ("c", 2, 3), ("d", 5, 5), ("a", 5, 5)]).instances)
@example(nested_trace(40).instances)
@example(TOUCHING_SINGLETON)
@PROPERTY_SETTINGS
def test_kernel_equals_reference_kernels(run):
    kind, blocks = maximal_cut(list(run), sorted(run, key=BY_COMPLETE))
    ordering = reference_ordering_blocks(run)
    parallel = reference_parallel_blocks(run)
    if len(ordering) > 1:
        expected = CutKind.ORDERING, ordering
    elif len(parallel) > 1:
        expected = CutKind.PARALLEL, parallel
    else:
        expected = CutKind.NONE, []
    # Same kind, same blocks, same block order; each block also comes by
    # complete, as the stable sort of its start order.
    assert (kind, [list(b) for b, _ in blocks]) == (expected[0], [list(b) for b in expected[1]])
    for by_start, by_complete in blocks:
        assert by_complete == sorted(by_start, key=BY_COMPLETE)


@given(long_runs())
@example(nested_trace(40).instances)
@example(TOUCHING_SINGLETON)
@PROPERTY_SETTINGS
def test_layout_run_equals_reference_kernel_layout_on_long_runs(run):
    assert layout_run(run) == reference_kernel_layout(run)


@given(traces(labels=st.text(alphabet="u{}\\,()ab", max_size=4)) | traces(labels=st.text()))
@PROPERTY_SETTINGS
def test_fallback_flag_read_from_key(trace):
    # An unescaped "u{" in a key is written only by a Fallback.
    tree = layout_trace(trace)
    assert ("u{" in canonical_form(tree)) == has_fallback(tree)


@given(traces(max_size=8))
@example(make_trace([("a", 0, 2), ("b", 1, 4), ("c", 3, 6), ("d", 5, 7), ("e", 8, 8), ("a", 8, 8)]))
@PROPERTY_SETTINGS
def test_layout_is_the_collapsed_modular_decomposition(trace):
    # An oracle from graph theory alone: strong modules of the comparability
    # graph, enumerated over subsets, with every prime node a Fallback.
    assert layout_trace(trace) == decomposition_layout(trace)


@given(traces())
@PROPERTY_SETTINGS
def test_sweep_agrees_on_induced_suborders(trace):
    order = build_interval_order(trace)
    cut = find_cut(order)
    for group in cut.groups:
        sub = induced_suborder(order, group)
        cut = as_cut(CutKind.ORDERING, kernel_blocks(CutKind.ORDERING, sub.vertices))
        assert cut == brute_force_ordering_cut(sub)


@given(traces(), st.integers(-10**9, 10**9))
@PROPERTY_SETTINGS
def test_canonical_key_is_shift_invariant(trace, shift_minutes):
    shift = shift_minutes * 60_000_000
    shifted = Trace(
        trace.case_id,
        tuple(
            ActivityInstance(a.id, a.case_id, a.label, a.start_ts + shift, a.complete_ts + shift)
            for a in trace.instances
        ),
    )
    assert canonical_form(layout_trace(trace)) == canonical_form(layout_trace(shifted))


# A trace has at most 2 * 10 distinct timestamps; each remap draws a gap per
# stamp, so its image is strictly increasing.
_GAPS = st.lists(st.integers(1, 10**12), min_size=20, max_size=20)


@given(traces(), _GAPS)
@example(make_trace([("a", 0, 0), ("b", 0, 3), ("c", 3, 3), ("a", 3, 5), ("d", 5, 5)]), [1] * 20)
@PROPERTY_SETTINGS
def test_layout_and_key_are_rank_invariant(trace, gaps):
    stamps = sorted({t for a in trace.instances for t in (a.start_ts, a.complete_ts)})
    remap = dict(zip(stamps, accumulate(gaps)))
    remapped = Trace(
        trace.case_id,
        tuple(
            ActivityInstance(a.id, a.case_id, a.label, remap[a.start_ts], remap[a.complete_ts])
            for a in trace.instances
        ),
    )
    tree = layout_trace(trace)
    assert layout_trace(remapped) == tree
    assert canonical_form(layout_trace(remapped)) == canonical_form(tree)


def _rename_tree(tree, phi):
    if isinstance(tree, Leaf):
        return Leaf(phi[tree.label])
    if isinstance(tree, Fallback):
        return Fallback(tuple(sorted(phi[l] for l in tree.labels)))
    cls = Sequence if isinstance(tree, Sequence) else Parallel
    return cls(tuple(_rename_tree(c, phi) for c in tree.children))


@given(traces(), st.permutations(["a", "b", "c", "d"]))
@PROPERTY_SETTINGS
def test_canonical_key_is_label_equivariant(trace, image):
    phi = dict(zip(["a", "b", "c", "d"], image))
    renamed = Trace(
        trace.case_id,
        tuple(
            ActivityInstance(a.id, a.case_id, phi[a.label], a.start_ts, a.complete_ts)
            for a in trace.instances
        ),
    )
    assert canonical_form(layout_trace(renamed)) == canonical_form(
        _rename_tree(layout_trace(trace), phi)
    )


@given(traces(labels=_WEIRD))
@PROPERTY_SETTINGS
def test_labels_conserved_even_with_hostile_labels(trace):
    tree = layout_trace(trace)
    assert sorted(tree_labels(tree)) == sorted(a.label for a in trace.instances)


@given(traces(labels=_WEIRD))
@PROPERTY_SETTINGS
def test_render_text_round_trips(trace):
    tree = layout_trace(trace)
    assert parse_render_text(render_text(tree)) == tree


@given(traces(labels=_WEIRD), traces(labels=_WEIRD))
@PROPERTY_SETTINGS
def test_canonical_keys_collide_only_for_equal_text(t1, t2):
    # the canonical key determines the render_text output up to parallel
    # child order, so equal keys imply equal parsed structures modulo that
    k1, k2 = canonical_form(layout_trace(t1)), canonical_form(layout_trace(t2))
    if k1 == k2:
        assert canonical_form(layout_trace(t2)) == k1  # stable
        assert sorted(tree_labels(layout_trace(t1))) == sorted(
            tree_labels(layout_trace(t2))
        )


@given(traces())
@PROPERTY_SETTINGS
def test_layout_shape_respects_maximality(trace):
    def check(tree):
        if isinstance(tree, (Sequence, Parallel)):
            assert len(tree.children) >= 2
            same = Sequence if isinstance(tree, Sequence) else Parallel
            assert not any(isinstance(c, same) for c in tree.children)
            for c in tree.children:
                check(c)
        elif isinstance(tree, Fallback):
            assert len(tree.labels) >= 2

    check(layout_trace(trace))


@given(traces(labels=_WEIRD))
@PROPERTY_SETTINGS
def test_svg_is_well_formed(trace):
    ET.fromstring(render_svg(layout_trace(trace)))


_ANY_LABEL_TREES = st.recursive(
    st.builds(Leaf, st.text())
    | st.lists(st.text(), min_size=2, max_size=4).map(lambda ls: Fallback(tuple(sorted(ls)))),
    lambda kids: st.lists(kids, min_size=2, max_size=3).flatmap(
        lambda cs: st.sampled_from((Sequence(tuple(cs)), Parallel(tuple(cs))))
    ),
    max_leaves=10,
)
# What an XML parser reads back from an SVG text: forbidden characters are
# U+FFFD, and line ends are normalized to LF.
_XML_READ = str.maketrans(
    {c: "\ufffd" for c in (*range(0x09), 0x0B, 0x0C, *range(0x0E, 0x20), 0xFFFE, 0xFFFF)}
)


def _leaves(node, kids: list[list[str]]) -> list[str]:
    return [node.label] if isinstance(node, Leaf) else [l for k in kids for l in k]


@given(_ANY_LABEL_TREES, st.sampled_from((0, 3, 7)))
@PROPERTY_SETTINGS
def test_svg_parses_for_any_labels(tree, seed):
    root = ET.fromstring(render_svg(tree, seed))
    ns = "{http://www.w3.org/2000/svg}"
    leaves = [g for g in root.iter(f"{ns}g") if g.get("class") == "leaf"]
    labels = fold(tree, _leaves)
    assert len(leaves) == len(labels)
    for g, label in zip(leaves, labels):
        read = label.translate(_XML_READ).replace("\r\n", "\n").replace("\r", "\n")
        assert (g.find(f"{ns}text").text or "") == read
        assert g.find(f"{ns}polygon").get("fill") == label_color(label, seed)


@st.composite
def lifecycle_events(draw):
    n = draw(st.integers(0, 12))
    events = []
    for _ in range(n):
        events.append(
            (
                draw(st.sampled_from("ab")),
                draw(st.sampled_from(["start", "complete"])),
                draw(st.integers(0, 30)),
            )
        )
    events.sort(key=lambda e: e[2])
    return events


@given(lifecycle_events())
@PROPERTY_SETTINGS
def test_pairing_conserves_events(events):
    out = pair_events(events, case_id="c")
    assert all(a.start_ts <= a.complete_ts for a in out)
    # Every event is consumed exactly once: matched pairs (a complete can
    # only absorb a start already seen) plus one instance per unmatched event.
    total = 0
    for label in "ab":
        open_starts = matched = orphan_completes = 0
        for l, kind, _ in events:
            if l != label:
                continue
            if kind == "start":
                open_starts += 1
            elif open_starts:
                open_starts -= 1
                matched += 1
            else:
                orphan_completes += 1
        produced = sum(1 for a in out if a.label == label)
        assert produced == matched + orphan_completes + open_starts
        total += produced
    assert len(out) == total


@given(st.lists(st.tuples(st.sampled_from("abc"), st.sampled_from("xyz"),
                          st.integers(0, 50), st.integers(0, 50)), max_size=25))
@PROPERTY_SETTINGS
def test_csv_round_trip(rows):
    instances = tuple(
        ActivityInstance(i, case, label, min(s, c) * 1000, max(s, c) * 1000)
        for i, (label, case, s, c) in enumerate(rows)
    )
    log = EventLog(instances)
    buffer = io.StringIO()
    write_csv(log, buffer)
    again = parse_csv(io.StringIO(buffer.getvalue()))
    assert {(a.case_id, a.label, a.start_ts, a.complete_ts) for a in again.instances} == {
        (a.case_id, a.label, a.start_ts, a.complete_ts) for a in log.instances
    }


@given(st.lists(traces(max_size=6), min_size=0, max_size=8))
@PROPERTY_SETTINGS
def test_variant_table_is_deterministic_and_complete(trace_list):
    instances = []
    next_id = 0
    for k, trace in enumerate(trace_list):
        for a in trace.instances:
            instances.append(
                ActivityInstance(next_id, f"case{k}", a.label, a.start_ts, a.complete_ts)
            )
            next_id += 1
    log = EventLog(tuple(instances))
    one = variant_table(log, threads=1)
    two = variant_table(log, threads=4)
    assert one.entries.keys() == two.entries.keys()
    assert one.total_count == len(trace_list)
    for key, entry in one.entries.items():
        assert entry.count == two.entries[key].count
        assert canonical_form(entry.layout) == key


@given(traces(labels=_JSONY))
@PROPERTY_SETTINGS
def test_layout_json_text_equals_json_dumps_and_round_trips(trace):
    tree = layout_trace(trace)
    doc = layout_to_json(tree)
    assert layout_json_text(tree) == json.dumps(doc, ensure_ascii=False, separators=(",", ":"))
    assert layout_from_json(doc) == tree
