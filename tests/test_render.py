"""Rendering: text notation round-trip, SVG structure and determinism."""

from __future__ import annotations

import hashlib
import random
import xml.etree.ElementTree as ET

from conftest import nested_trace, random_trace, reference_render_svg
from variantview.layout import (
    Fallback,
    Leaf,
    Parallel,
    Sequence,
    canonical_form,
    layout_json_text,
    layout_trace,
)
from variantview.render import _leaf_style, label_color, render_svg, render_text


_CONTROLS = {"n": "\n", "r": "\r", "t": "\t"}


def parse_render_text(text: str):
    """Independent parser for the render_text notation (test helper). A
    backslash escapes the next character, and \\n, \\r and \\t stand for LF,
    CR and tab."""
    pos = 0

    def read_label(stop: str) -> str:
        nonlocal pos
        out = []
        while pos < len(text) and text[pos] not in stop:
            if text[pos] == "\\":
                pos += 1
                out.append(_CONTROLS.get(text[pos], text[pos]))
            else:
                out.append(text[pos])
            pos += 1
        return "".join(out)

    def node():
        nonlocal pos
        if text.startswith("seq(", pos) or text.startswith("par(", pos):
            kind = text[pos : pos + 3]
            pos += 4
            children = [node()]
            while text[pos] == ",":
                pos += 1
                children.append(node())
            assert text[pos] == ")"
            pos += 1
            cls = Sequence if kind == "seq" else Parallel
            return cls(tuple(children))
        if text.startswith("unordered{", pos):
            pos += len("unordered{")
            labels = [read_label(",}")]
            while text[pos] == ",":
                pos += 1
                labels.append(read_label(",}"))
            assert text[pos] == "}"
            pos += 1
            return Fallback(tuple(sorted(labels)))
        return Leaf(read_label(",)}"))

    tree = node()
    assert pos == len(text)
    return tree


class TestRenderText:
    def test_worked_example_notation(self, worked_case):
        assert (
            render_text(layout_trace(worked_case))
            == "seq(par(seq(par(A,B),par(D,E)),C),par(F,A),G)"
        )

    def test_leaf(self):
        assert render_text(Leaf("G")) == "G"

    def test_chained_fallback_notation(self, chained_case):
        assert render_text(layout_trace(chained_case)) == "unordered{A,B,C,D,E,F}"

    def test_escapes_structural_characters(self):
        assert render_text(Leaf("a,b(c")) == "a\\,b\\(c"

    def test_line_breaks_and_tabs_are_escaped(self):
        tree = Sequence((Leaf("a\nb"), Fallback(("c\td", "e\r"))))
        text = render_text(tree)
        assert text == "seq(a\\nb,unordered{c\\td,e\\r})"
        assert parse_render_text(text) == tree
        # A backslash before n stays a backslash and an n.
        assert parse_render_text(render_text(Leaf("\\n"))) == Leaf("\\n")
        # Keys and layout JSON keep the label as it is.
        assert canonical_form(tree) == "s(a\nb,u{c\td,e\r})"
        assert '"a\\nb"' in layout_json_text(tree)

    def test_round_trip_on_randoms(self):
        rng = random.Random(41)
        for _ in range(200):
            tree = layout_trace(random_trace(rng))
            assert parse_render_text(render_text(tree)) == tree

    def test_round_trip_with_hostile_labels(self):
        tree = Parallel((Leaf("s(x,y)"), Fallback(tuple(sorted(("u{a}", "b\\c"))))))
        assert parse_render_text(render_text(tree)) == tree


def _svg_root(text: str) -> ET.Element:
    return ET.fromstring(text)


SVG_NS = "{http://www.w3.org/2000/svg}"


def _groups(elem):
    return [c for c in elem if c.tag == f"{SVG_NS}g"]


class TestRenderSvg:
    def test_leaf_has_one_chevron_and_text(self):
        root = _svg_root(render_svg(Leaf("A")))
        (leaf,) = _groups(root)
        assert leaf.attrib["class"] == "leaf"
        assert len(leaf.findall(f"{SVG_NS}polygon")) == 1
        (text,) = leaf.findall(f"{SVG_NS}text")
        assert text.text == "A"

    def test_worked_example_svg_structure(self, worked_case):
        root = _svg_root(render_svg(layout_trace(worked_case)))
        (seq,) = _groups(root)
        assert seq.attrib["class"] == "seq"
        top = _groups(seq)
        assert [g.attrib["class"] for g in top] == ["par", "par", "leaf"]
        # first chevron: two stacked rows (the nested sequence and C)
        rows = _groups(top[0])
        assert len(rows) == 2
        assert [g.attrib["class"] for g in rows] == ["seq", "leaf"]

    def test_byte_identical_across_calls(self, worked_case):
        tree = layout_trace(worked_case)
        assert render_svg(tree) == render_svg(tree)

    def test_well_formed_for_random_trees(self):
        rng = random.Random(42)
        for _ in range(60):
            tree = layout_trace(random_trace(rng))
            root = _svg_root(render_svg(tree))
            assert root.tag == f"{SVG_NS}svg"
            assert root.attrib["version"] == "1.1"

    def test_fallback_lists_labels(self, chained_case):
        root = _svg_root(render_svg(layout_trace(chained_case)))
        (fallback,) = _groups(root)
        assert fallback.attrib["class"] == "fallback"
        texts = [t.text for t in fallback.findall(f"{SVG_NS}text")]
        assert texts == ["A", "B", "C", "D", "E", "F"]

    def test_equal_labels_equal_colors(self, worked_case):
        svg = render_svg(layout_trace(worked_case))
        root = _svg_root(svg)
        fills = {}
        for leaf in root.iter(f"{SVG_NS}g"):
            if leaf.attrib.get("class") != "leaf":
                continue
            polygon = leaf.find(f"{SVG_NS}polygon")
            label = leaf.find(f"{SVG_NS}text").text
            fills.setdefault(label, set()).add(polygon.attrib["fill"])
        assert all(len(colors) == 1 for colors in fills.values())
        # the two A instances share a fill
        assert len(fills["A"]) == 1

    def test_label_text_is_escaped(self):
        svg = render_svg(Leaf("a<b&c"))
        root = _svg_root(svg)
        text = root.find(f".//{SVG_NS}text")
        assert text.text == "a<b&c"

    def test_svg_size_grows_with_tree(self):
        small = render_svg(Leaf("A"))
        big = render_svg(Sequence((Leaf("A"), Leaf("B"), Leaf("C"))))
        small_w = float(_svg_root(small).attrib["width"])
        big_w = float(_svg_root(big).attrib["width"])
        assert big_w > small_w

    # SHA-256 of the SVG documents as rendered before subtree sizes were
    # cached: the cache must not move a single byte.
    def test_worked_example_svg_bytes_pinned(self, worked_case):
        svg = render_svg(layout_trace(worked_case)).encode("utf-8")
        assert hashlib.sha256(svg).hexdigest() == (
            "499e9a936fa7641b582c1ba70ed8e1ec2035b9dee5ea19b97595f35a32383e84"
        )

    def test_deeply_nested_svg_bytes_pinned(self):
        tree = Fallback(("B", "C"))
        for _ in range(20):
            tree = Parallel((Sequence((tree, Leaf("X"))), Leaf("Y")))
        svg = render_svg(tree).encode("utf-8")
        assert hashlib.sha256(svg).hexdigest() == (
            "c1ff881f5b01579a4ca9fa20bfa689fbe537fc1f6c364e9faa432db983a1557d"
        )


# Labels that need escaping somewhere (XML, keys, the text notation), or are
# not ASCII.
_LABELS = (
    "A", "B", "R&D <review>", "Check, approve", "a&b", "<x>", 'say "hi"', "it's",
    "back\\slash", "(p)", "{q}", "a,b", "é", "Übergabe", "日本語", "😀",
)


def random_layout(rng: random.Random, depth: int = 0):
    """A random tree of every node kind, on hostile and non-ASCII labels."""
    r = rng.random()
    if depth >= 4 or r < 0.35:
        return Leaf(rng.choice(_LABELS))
    if r < 0.5:
        return Fallback(tuple(sorted(rng.choice(_LABELS) for _ in range(rng.randint(2, 5)))))
    kind = rng.choice((Sequence, Parallel))
    return kind(tuple(random_layout(rng, depth + 1) for _ in range(rng.randint(2, 4))))


class TestAgainstReference:
    """The one-string writers and the style cache give the reference's bytes."""

    # Seeds rotate from tree to tree, so a style cached under one seed is
    # asked for under another next.
    SEEDS = (0, 3, 7)

    def _seeds(self, i: int) -> tuple[int, ...]:
        return self.SEEDS[i % 3 :] + self.SEEDS[: i % 3]

    def test_random_layouts(self):
        rng = random.Random(44)
        for i in range(300):
            tree = random_layout(rng)
            for seed in self._seeds(i):
                assert render_svg(tree, seed) == reference_render_svg(tree, seed)

    def test_random_traces(self):
        rng = random.Random(45)
        for i in range(200):
            tree = layout_trace(random_trace(rng))
            for seed in self._seeds(i):
                assert render_svg(tree, seed) == reference_render_svg(tree, seed)

    def test_deep_nesting(self):
        tree = layout_trace(nested_trace(600))
        for seed in self.SEEDS:
            assert render_svg(tree, seed) == reference_render_svg(tree, seed)

    def test_style_cache_is_bounded(self):
        assert _leaf_style.cache_info().maxsize is not None


class TestForbiddenCharacters:
    def test_control_character_becomes_replacement_character(self):
        tree = Sequence((Leaf("a\x01b"), Leaf("b")))
        texts = [t.text for t in _svg_root(render_svg(tree)).iter(f"{SVG_NS}text")]
        assert texts == ["a\ufffdb", "b"]

    def test_fallback_labels_too(self):
        tree = Fallback(("x\x00", "y\ufffe", "z\uffff"))
        texts = [t.text for t in _svg_root(render_svg(tree)).iter(f"{SVG_NS}text")]
        assert texts == ["x\ufffd", "y\ufffd", "z\ufffd"]

    def test_only_svg_text_changes(self):
        tree = Sequence((Leaf("a\x01b"), Fallback(("c\x1f", "d"))))
        assert render_text(tree) == "seq(a\x01b,unordered{c\x1f,d})"
        assert "a\x01b" in canonical_form(tree)
        assert "a\\u0001b" in layout_json_text(tree)
        leaf = _svg_root(render_svg(tree, 3)).find(f"{SVG_NS}g/{SVG_NS}g/{SVG_NS}polygon")
        assert leaf.attrib["fill"] == label_color("a\x01b", 3)


class TestColors:
    def test_stable_for_seed(self):
        assert label_color("A", 0) == label_color("A", 0)

    def test_seed_changes_palette_assignment(self):
        # not guaranteed per label, but across many labels some must move
        moved = sum(
            label_color(f"act{i}", 0) != label_color(f"act{i}", 1) for i in range(64)
        )
        assert moved > 0
