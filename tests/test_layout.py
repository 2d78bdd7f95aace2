"""Layout trees, canonical keys, and variant grouping."""

from __future__ import annotations

import ast
import dataclasses
import json
import random
from pathlib import Path

import pytest

import variantview

from conftest import DATA, make_trace, nested_trace, random_trace, tree_labels
from variantview.cli import main
from variantview.ingest import EventLog, Trace, parse_csv, write_csv
from variantview.layout import (
    Fallback,
    Leaf,
    Parallel,
    Sequence,
    build_layout,
    canonical_form,
    escape_label,
    has_fallback,
    layout_from_json,
    layout_json_text,
    layout_to_json,
    layout_trace,
    variant_table,
)
from variantview.order import build_interval_order


WORKED_TREE = Sequence(
    (
        Parallel(
            (
                Sequence(
                    (
                        Parallel((Leaf("A"), Leaf("B"))),
                        Parallel((Leaf("D"), Leaf("E"))),
                    )
                ),
                Leaf("C"),
            )
        ),
        Parallel((Leaf("F"), Leaf("A"))),
        Leaf("G"),
    )
)


class TestBuildLayout:
    def test_worked_example_tree(self, worked_case):
        assert layout_trace(worked_case) == WORKED_TREE

    def test_single_instance_is_leaf(self):
        assert layout_trace(make_trace([("A", 0, 10)])) == Leaf("A")

    def test_chained_case_is_fallback(self, chained_case):
        assert layout_trace(chained_case) == Fallback(("A", "B", "C", "D", "E", "F"))

    def test_deterministic_across_input_order(self):
        rng = random.Random(31)
        for _ in range(50):
            trace = random_trace(rng)
            shuffled = list(trace.instances)
            rng.shuffle(shuffled)
            assert layout_trace(trace) == layout_trace(
                Trace(trace.case_id, tuple(shuffled))
            )

    def test_no_nested_same_kind(self):
        # consequence of cut maximality
        def check(tree):
            if isinstance(tree, Sequence):
                assert not any(isinstance(c, Sequence) for c in tree.children)
            if isinstance(tree, Parallel):
                assert not any(isinstance(c, Parallel) for c in tree.children)
            if isinstance(tree, (Sequence, Parallel)):
                assert len(tree.children) >= 2
                for c in tree.children:
                    check(c)

        rng = random.Random(32)
        for _ in range(300):
            check(layout_trace(random_trace(rng)))

    def test_labels_conserved(self):
        rng = random.Random(33)
        for _ in range(200):
            trace = random_trace(rng)
            assert sorted(tree_labels(layout_trace(trace))) == sorted(
                a.label for a in trace.instances
            )


class TestCanonicalForm:
    def test_leaf(self):
        assert canonical_form(Leaf("A")) == "A"

    def test_parallel_children_commute(self):
        ab = Parallel((Leaf("A"), Leaf("B")))
        ba = Parallel((Leaf("B"), Leaf("A")))
        assert canonical_form(ab) == canonical_form(ba) == "p(A,B)"

    def test_twin_cases_share_a_key(self, worked_case, twin_case):
        assert canonical_form(layout_trace(worked_case)) == canonical_form(
            layout_trace(twin_case)
        )

    def test_worked_example_key(self, worked_case):
        key = canonical_form(layout_trace(worked_case))
        assert key == "s(p(C,s(p(A,B),p(D,E))),p(A,F),G)"

    def test_fallback_key_sorts_labels(self):
        assert canonical_form(Fallback(("b", "a", "a"))) == "u{a,a,b}"

    def test_fallback_sorts_labels_when_built(self):
        fall = Fallback(("b", "a", "c", "a"))
        assert fall.labels == ("a", "a", "b", "c")
        assert Fallback(("b", "a")) == Fallback(("a", "b"))
        assert hash(Fallback(("b", "a"))) == hash(Fallback(("a", "b")))

    def test_structural_characters_escaped(self):
        tricky = Parallel((Leaf("s(x,y)"), Leaf("u{z}")))
        key = canonical_form(tricky)
        assert key == "p(s\\(x\\,y\\),u\\{z\\})"
        # distinct labels stay distinct after escaping
        assert canonical_form(Leaf("a,b")) != canonical_form(Leaf("a\\,b"))

    def test_distinct_structures_distinct_keys(self):
        seq = Sequence((Leaf("A"), Leaf("B")))
        par = Parallel((Leaf("A"), Leaf("B")))
        fall = Fallback(("A", "B"))
        keys = {canonical_form(t) for t in (seq, par, fall)}
        assert len(keys) == 3

    def test_escape_label_round_trip_readable(self):
        assert escape_label("plain") == "plain"
        assert escape_label("a(b") == "a\\(b"


class TestLayoutJson:
    def test_round_trip(self, worked_case):
        tree = layout_trace(worked_case)
        assert layout_from_json(layout_to_json(tree)) == tree

    def test_schema_kinds(self, worked_case, chained_case):
        doc = layout_to_json(layout_trace(worked_case))
        assert doc["kind"] == "seq"
        assert {c["kind"] for c in doc["children"]} == {"par", "leaf"}
        fallback_doc = layout_to_json(layout_trace(chained_case))
        assert fallback_doc == {
            "kind": "fallback",
            "labels": ["A", "B", "C", "D", "E", "F"],
        }


class TestVariantTable:
    def test_twin_cases_one_variant(self):
        log = parse_csv(DATA / "same_structure_cases.csv")
        table = variant_table(log)
        assert len(table.entries) == 1
        ((key, entry),) = table.entries.items()
        assert entry.count == 2
        assert sorted(entry.case_ids) == ["1", "2"]
        assert canonical_form(entry.layout) == key

    def test_empty_log(self):
        table = variant_table(EventLog(()))
        assert table.entries == {}
        assert table.total_count == 0

    def test_worked_example_two_variants(self):
        table = variant_table(parse_csv(DATA / "worked_example.csv"))
        assert len(table.entries) == 2
        assert table.total_count == 2

    def test_thread_count_does_not_change_result(self):
        log = parse_csv(DATA / "same_structure_cases.csv")
        single = variant_table(log, threads=1)
        multi = variant_table(log, threads=8)
        assert single.entries.keys() == multi.entries.keys()
        for key in single.entries:
            assert single.entries[key].count == multi.entries[key].count
            assert single.entries[key].case_ids == multi.entries[key].case_ids

    def test_counts_sum_to_traces(self):
        rng = random.Random(34)
        traces = tuple(
            a
            for k in range(30)
            for a in random_trace(rng, case=f"case{k}").instances
        )
        relabeled = tuple(
            type(a)(i, a.case_id, a.label, a.start_ts, a.complete_ts)
            for i, a in enumerate(traces)
        )
        log = EventLog(relabeled)
        table = variant_table(log)
        assert table.total_count == 30

    def test_fallback_flag(self, chained_case):
        log = EventLog(chained_case.instances)
        table = variant_table(log)
        ((_, entry),) = table.entries.items()
        assert entry.has_fallback
        assert table.fallback_variant_count == 1

    def test_find_case(self):
        log = parse_csv(DATA / "worked_example.csv")
        table = variant_table(log)
        key, entry = table.find_case("2")
        assert entry.layout == Leaf("A")
        assert table.find_case("missing") is None

    def test_sorted_items_by_count_then_key(self):
        log = parse_csv(DATA / "same_structure_cases.csv")
        table = variant_table(log)
        items = table.sorted_items()
        counts = [e.count for _, e in items]
        assert counts == sorted(counts, reverse=True)


def test_empty_traces_land_in_skipped_bucket():
    from variantview.layout import variants_of_traces

    good = make_trace([("A", 0, 1)], case="ok")
    table = variants_of_traces([Trace("hollow", ()), good])
    assert table.skipped == ["hollow"]
    assert table.total_count == 1


def test_has_fallback_walks_nested_trees():
    tree = Sequence((Leaf("A"), Parallel((Leaf("B"), Fallback(("C", "D"))))))
    assert has_fallback(tree)
    assert not has_fallback(WORKED_TREE)


def test_deeply_nested_trace_is_cut_keyed_and_counted(tmp_path, capsys):
    # 1,201 instances nest 600 levels deep, past the recursion limit.
    trace = nested_trace(600)
    log = EventLog(trace.instances)
    table = variant_table(log)
    assert len(table.entries) == 1
    ((key, entry),) = table.entries.items()
    assert entry.count == 1 and not entry.has_fallback
    expected = "L0"
    for k in range(600):
        expected = f"p(Y{k},s({expected},X{k}))"
    assert key == expected

    path = tmp_path / "deep.csv"
    with path.open("w", encoding="utf-8") as dest:
        write_csv(log, dest)
    assert main(["stats", "--input", str(path), "--output-format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["num_cases"] == 1
    assert doc["interval_variant_count"] == 1


def test_deeply_nested_trace_is_written_rendered_and_round_tripped(tmp_path, capsys):
    # The 600-level layout of test_deeply_nested_trace_is_cut_keyed_and_counted
    # through every writer. json.loads is not used on it: the C scanner
    # recurses too.
    trace = nested_trace(600)
    log = EventLog(trace.instances)
    tree = layout_trace(trace)
    key, text, doc = "L0", "L0", '{"kind":"leaf","label":"L0"}'
    for k in range(600):
        key = f"p(Y{k},s({key},X{k}))"
        text = f"par(seq({text},X{k}),Y{k})"
        doc = (
            '{"kind":"par","children":[{"kind":"seq","children":['
            f'{doc},{{"kind":"leaf","label":"X{k}"}}]}},{{"kind":"leaf","label":"Y{k}"}}]}}'
        )
    assert layout_json_text(tree) == doc
    assert canonical_form(layout_from_json(layout_to_json(tree))) == key

    path = tmp_path / "deep.csv"
    with path.open("w", encoding="utf-8") as dest:
        write_csv(log, dest)
    source = ["--input", str(path)]
    assert main(["variants", *source, "--output-format", "text"]) == 0
    assert capsys.readouterr().out == f"1\t{text}\n"
    assert main(["variants", *source, "--output-format", "json"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert f'      "key": "{key}",' in lines
    assert [l for l in lines if l.startswith('      "layout": ')] == ['      "layout": ' + doc]

    render = ["render", *source, "--case", "deep", "--output-format"]
    assert main([*render, "text"]) == 0
    assert capsys.readouterr().out == text + "\n"
    assert main([*render, "json"]) == 0
    assert capsys.readouterr().out == doc + "\n"
    assert main([*render, "svg"]) == 0
    svg = capsys.readouterr().out
    assert svg.startswith("<?xml") and svg.endswith("</svg>\n")
    assert svg.count('<g class="leaf">') == 1201
    assert svg.count('<g class="par">') == 600 and svg.count('<g class="seq">') == 600


def test_deeply_nested_tree_compares_hashes_and_reprs():
    # 600 levels: past the recursion limit that the dataclass methods hit.
    tree = layout_trace(nested_trace(600))
    twin = layout_trace(nested_trace(600))
    assert tree is not twin and tree == twin and hash(tree) == hash(twin)
    assert {tree: "deep"}[twin] == "deep"
    assert tree != layout_trace(nested_trace(599))
    text = repr(tree)
    assert text.startswith("Parallel(children=(Sequence(children=(Parallel(")
    assert text.count("Leaf(label=") == 1201
    assert text.endswith("Leaf(label='Y599')))")


# Twins of the node classes with the recursive methods a plain frozen
# dataclass generates: the reference for the nodes' fold-based methods.
_DATACLASS_TWINS = {
    Leaf: dataclasses.make_dataclass("Leaf", [("label", str)], frozen=True),
    Sequence: dataclasses.make_dataclass("Sequence", [("children", tuple)], frozen=True),
    Parallel: dataclasses.make_dataclass("Parallel", [("children", tuple)], frozen=True),
    Fallback: dataclasses.make_dataclass("Fallback", [("labels", tuple)], frozen=True),
}


def _rebuild(node, classes=None):
    """A copy of a layout tree, made of ``classes[type(node)]`` if given."""
    cls = classes[type(node)] if classes else type(node)
    if isinstance(node, (Sequence, Parallel)):
        return cls(tuple(_rebuild(c, classes) for c in node.children))
    return cls(node.label if isinstance(node, Leaf) else node.labels)


def _random_tree(rng, depth):
    roll = rng.random()
    if depth == 0 or roll < 0.35:
        return Leaf(rng.choice(["a", "b", "c'", 'd"\\', "é\n"]))
    if roll < 0.45:
        return Fallback(tuple(rng.choice("ab'") for _ in range(rng.randint(1, 3))))
    node = rng.choice([Sequence, Parallel])
    return node(tuple(_random_tree(rng, depth - 1) for _ in range(rng.randint(1, 3))))


def test_node_methods_agree_with_recursive_dataclass_methods():
    rng = random.Random(24)
    trees = [_random_tree(rng, rng.randint(0, 3)) for _ in range(300)]
    twins = [_rebuild(t, _DATACLASS_TWINS) for t in trees]
    equal_pairs = 0
    for tree, twin in zip(trees, twins):
        assert repr(tree) == repr(twin)
        copy = _rebuild(tree)
        assert tree == copy and hash(tree) == hash(copy)
    for _ in range(3000):
        i, j = rng.randrange(len(trees)), rng.randrange(len(trees))
        same = twins[i] == twins[j]
        assert (trees[i] == trees[j]) is same and (trees[i] != trees[j]) is not same
        if same:
            equal_pairs += 1
            assert hash(trees[i]) == hash(trees[j])
    assert equal_pairs > 100
    assert Leaf("a") != "a" and Leaf("a") != Fallback(("a",))


def test_no_function_in_the_package_calls_itself():
    # Layout depth grows with the trace, so every walk uses an explicit stack.
    calls = []
    for path in sorted(Path(variantview.__file__).parent.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(fn):
                if not isinstance(node, ast.Call):
                    continue
                f = node.func
                by_name = isinstance(f, ast.Name) and f.id == fn.name
                by_self = (
                    isinstance(f, ast.Attribute)
                    and f.attr == fn.name
                    and isinstance(f.value, ast.Name)
                    and f.value.id in ("self", "cls")
                )
                if by_name or by_self:
                    calls.append(f"{path.name}:{node.lineno} {fn.name}")
    assert calls == []


# A leaf without its label under 3,000 sequences.
DEEP_BAD_DOCUMENT = {"kind": "leaf"}
for _ in range(3000):
    DEEP_BAD_DOCUMENT = {"kind": "seq", "children": [DEEP_BAD_DOCUMENT]}


@pytest.mark.parametrize(
    "doc",
    [
        [],
        "leaf",
        None,
        {},
        {"kind": None},
        {"kind": ["seq"], "children": [{"kind": "leaf", "label": "A"}]},
        {"kind": "tree", "children": [{"kind": "leaf", "label": "A"}]},
        {"kind": "leaf"},
        {"kind": "leaf", "label": 3},
        {"kind": "fallback"},
        {"kind": "fallback", "labels": "AB"},
        {"kind": "fallback", "labels": ["A", 1]},
        {"kind": "fallback", "labels": []},
        {"kind": "seq"},
        {"kind": "par", "children": []},
        {"kind": "seq", "children": {"kind": "leaf", "label": "A"}},
        {"kind": "seq", "children": [{"kind": "leaf", "label": "A"}, "B"]},
        {"kind": "par", "children": [{"kind": "leaf", "label": "A"}, {"label": "B"}]},
        DEEP_BAD_DOCUMENT,
    ],
    ids=lambda doc: "deep" if doc is DEEP_BAD_DOCUMENT else None,
)
def test_layout_from_json_rejects_malformed_documents(doc):
    with pytest.raises(ValueError):
        layout_from_json(doc)
