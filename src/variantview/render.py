"""Chevron rendering: SVG documents and a compact text notation.

Sequence children sit side by side, Parallel children stack vertically
inside an enclosing chevron, a Leaf is a solid chevron colored by a
deterministic hash of its label, and a Fallback is one chevron listing its
labels. Chevron width is constant per leaf; it encodes order, not duration.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache, partial

from .layout import Fallback, LayoutTree, Leaf, Sequence, escape_label, fold


# Chevron geometry: the height of one row, the depth of a chevron's notch,
# and the gap between neighbours and around the drawing.
UNIT_HEIGHT = 28.0
NOTCH = 10.0
PADDING = 4.0

# Perceptually well-separated qualitative palette.
PALETTE = (
    "#e6194b", "#3cb44b", "#ffe119", "#4363d8", "#f58231",
    "#911eb4", "#42d4f4", "#f032e6", "#bfef45", "#fabed4",
    "#469990", "#dcbeff", "#9a6324", "#fffac8", "#800000",
    "#aaffc3", "#808000", "#ffd8b1", "#000075", "#a9a9a9",
)

_CONTAINER_FILLS = ("#f5f5f5", "#e9e9e9", "#dddddd")
_LEAF_WIDTH = 3.0 * UNIT_HEIGHT


def label_color(label: str, palette_seed: int = 0) -> str:
    """Deterministic fill color for an activity label."""
    digest = hashlib.blake2b(
        f"{palette_seed}:{label}".encode("utf-8"), digest_size=8
    ).digest()
    return PALETTE[int.from_bytes(digest, "big") % len(PALETTE)]


def _text_color(fill: str) -> str:
    r, g, b = (int(fill[i : i + 2], 16) for i in (1, 3, 5))
    return "#1a1a1a" if 0.299 * r + 0.587 * g + 0.114 * b > 150 else "#ffffff"


# SVG text escapes the three markup characters, and replaces each character
# XML 1.0 forbids (C0 controls but tab, LF and CR; U+FFFE; U+FFFF) with U+FFFD.
_SVG_TEXT = str.maketrans(
    {c: "\ufffd" for c in (*range(0x09), 0x0B, 0x0C, *range(0x0E, 0x20), 0xFFFE, 0xFFFF)}
    | {"&": "&amp;", "<": "&lt;", ">": "&gt;"}
)


def _text_tail(label: str, color: str) -> str:
    """A ``<text>`` element after its coordinates: the constant attributes,
    the font size, the text color and the escaped label."""
    return (
        'text-anchor="middle" dominant-baseline="central" font-family="sans-serif" '
        f'font-size="{0.45 * UNIT_HEIGHT:.2f}" fill="{color}">'
        f"{label.translate(_SVG_TEXT)}</text>\n"
    )


@lru_cache(maxsize=4096)
def _leaf_style(label: str, palette_seed: int) -> tuple[str, str]:
    """What a leaf draws the same way every time: its fill and its text tail."""
    fill = label_color(label, palette_seed)
    return fill, _text_tail(label, _text_color(fill))


# The text notation keeps to one line: after the structural escapes, a label's
# line feed, carriage return and tab are written as \n, \r and \t.
_TEXT_CONTROLS = str.maketrans({"\n": "\\n", "\r": "\\r", "\t": "\\t"})


def _text_label(label: str) -> str:
    return escape_label(label).translate(_TEXT_CONTROLS)


def _text_node(node: LayoutTree, parts: list[str]) -> str:
    if isinstance(node, Leaf):
        return _text_label(node.label)
    if isinstance(node, Fallback):
        return "unordered{" + ",".join(map(_text_label, node.labels)) + "}"
    return ("seq(" if isinstance(node, Sequence) else "par(") + ",".join(parts) + ")"


def render_text(tree: LayoutTree) -> str:
    """Compact one-line notation: seq(...), par(...), unordered{...}, labels.
    Labels are escaped as in keys, and their LF, CR and tab become \\n, \\r
    and \\t."""
    return fold(tree, _text_node)


def render_svg(tree: LayoutTree, palette_seed: int = 0) -> str:
    """Render a layout tree as an SVG 1.1 document (byte-deterministic);
    ``palette_seed`` picks the leaf colors (see :func:`label_color`)."""
    sizes: dict[int, tuple[float, float]] = {}
    width, height = fold(tree, partial(_measure, sizes))
    parts = _draw((tree, PADDING, PADDING, width, height, 0), palette_seed, sizes)
    total_w, total_h = width + 2 * PADDING, height + 2 * PADDING
    head = (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{total_w:.2f}" height="{total_h:.2f}" '
        f'viewBox="0 0 {total_w:.2f} {total_h:.2f}">\n'
    )
    return head + "".join(parts) + "</svg>\n"


def _measure(sizes: dict, node: LayoutTree, child_sizes: list) -> tuple:
    """Natural (width, height) of a node from its children's; records it in
    ``sizes`` by node id, so drawing never measures a subtree twice."""
    if isinstance(node, Leaf):
        size = (_LEAF_WIDTH, UNIT_HEIGHT)
    elif isinstance(node, Fallback):
        size = (_LEAF_WIDTH, UNIT_HEIGHT * len(node.labels))
    elif isinstance(node, Sequence):
        size = (
            sum(w for w, _ in child_sizes) + PADDING * (len(child_sizes) - 1),
            max(h for _, h in child_sizes),
        )
    else:
        size = (
            max(w for w, _ in child_sizes) + 2 * (NOTCH + PADDING),
            sum(h for _, h in child_sizes) + PADDING * (len(child_sizes) + 1),
        )
    sizes[id(node)] = size
    return size


def _draw(root: tuple, palette_seed: int, sizes: dict) -> list[str]:
    """SVG elements of a placed node ``(node, x, y, w, h, depth)``, top-down
    (a box comes from the parent's) on a stack of placed nodes and end tags."""
    out: list[str] = []
    stack: list = [root]
    while stack:
        item = stack.pop()
        if type(item) is str:
            out.append(item)
            continue
        node, x, y, w, h, depth = item
        if isinstance(node, Leaf):
            fill, tail = _leaf_style(node.label, palette_seed)
            out.append(
                f'<g class="leaf">{_chevron(x, y, w, h, fill)}'
                f"{_text(x + w / 2, y + h / 2, tail)}</g>\n"
            )
            continue
        if isinstance(node, Fallback):
            fill = _CONTAINER_FILLS[depth % len(_CONTAINER_FILLS)]
            out.append('<g class="fallback">')
            out.append(_chevron(x, y, w, h, fill))
            line_h = h / len(node.labels)
            for i, label in enumerate(node.labels):
                tail = _text_tail(label, "#1a1a1a")
                out.append(_text(x + w / 2, y + line_h * (i + 0.5), tail))
            out.append("</g>\n")
            continue
        child_sizes = [sizes[id(c)] for c in node.children]
        placed = []
        if isinstance(node, Sequence):
            out.append('<g class="seq">\n')
            pool = sum(cw for cw, _ in child_sizes)
            extra = max(0.0, w - (pool + PADDING * (len(child_sizes) - 1)))
            cursor = x
            for i, (child, (cw, _)) in enumerate(zip(node.children, child_sizes)):
                cw_final = cw + extra * cw / pool
                if i == len(child_sizes) - 1:
                    cw_final = x + w - cursor  # close rounding drift exactly
                placed.append((child, cursor, y, cw_final, h, depth))
                cursor += cw_final + PADDING
        else:
            fill = _CONTAINER_FILLS[depth % len(_CONTAINER_FILLS)]
            out.append('<g class="par">\n')
            out.append(_chevron(x, y, w, h, fill))
            inner_x = x + NOTCH + PADDING
            inner_w = w - 2 * (NOTCH + PADDING)
            pool = sum(ch for _, ch in child_sizes)
            extra = max(0.0, h - (pool + PADDING * (len(child_sizes) + 1)))
            cursor = y + PADDING
            for child, (_, ch) in zip(node.children, child_sizes):
                ch_final = ch + extra * ch / pool
                placed.append((child, inner_x, cursor, inner_w, ch_final, depth + 1))
                cursor += ch_final + PADDING
        stack.append("</g>\n")
        stack.extend(reversed(placed))
    return out


def _chevron(x: float, y: float, w: float, h: float, fill: str) -> str:
    notch = min(NOTCH, w / 2)
    # Each coordinate that appears twice is formatted once.
    left, top, bottom = f"{x:.2f}", f"{y:.2f}", f"{y + h:.2f}"
    cut, mid = f"{x + w - notch:.2f}", f"{y + h / 2:.2f}"
    return (
        f'<polygon points="{left},{top} {cut},{top} {x + w:.2f},{mid} {cut},{bottom} '
        f'{left},{bottom} {x + notch:.2f},{mid}" fill="{fill}" '
        'stroke="#8c8c8c" stroke-width="0.75"/>\n'
    )


def _text(cx: float, cy: float, tail: str) -> str:
    return f'<text x="{cx:.2f}" y="{cy:.2f}" {tail}'
