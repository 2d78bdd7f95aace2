"""Chevron rendering: SVG documents and a compact text notation.

Sequence children sit side by side, Parallel children stack vertically
inside an enclosing chevron, a Leaf is a solid chevron colored by a
deterministic hash of its label, and a Fallback is one chevron listing its
labels. Chevron width is constant per leaf; it encodes order, not duration.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from xml.sax.saxutils import escape as xml_escape

from .layout import Fallback, LayoutTree, Leaf, Parallel, Sequence, escape_label


@dataclass(frozen=True, slots=True)
class RenderConfig:
    unit_height: float = 28.0
    chevron_indent: float = 10.0
    padding: float = 4.0
    palette_seed: int = 0

    def __post_init__(self) -> None:
        for name in ("unit_height", "chevron_indent", "padding"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0")


# Perceptually well-separated qualitative palette.
PALETTE = (
    "#e6194b", "#3cb44b", "#ffe119", "#4363d8", "#f58231",
    "#911eb4", "#42d4f4", "#f032e6", "#bfef45", "#fabed4",
    "#469990", "#dcbeff", "#9a6324", "#fffac8", "#800000",
    "#aaffc3", "#808000", "#ffd8b1", "#000075", "#a9a9a9",
)

_CONTAINER_FILLS = ("#f5f5f5", "#e9e9e9", "#dddddd")
_LEAF_WIDTH_UNITS = 3.0


def label_color(label: str, palette_seed: int = 0) -> str:
    """Deterministic fill color for an activity label."""
    digest = hashlib.blake2b(
        f"{palette_seed}:{label}".encode("utf-8"), digest_size=8
    ).digest()
    return PALETTE[int.from_bytes(digest, "big") % len(PALETTE)]


def _text_color(fill: str) -> str:
    r, g, b = (int(fill[i : i + 2], 16) for i in (1, 3, 5))
    return "#1a1a1a" if 0.299 * r + 0.587 * g + 0.114 * b > 150 else "#ffffff"


def render_text(tree: LayoutTree) -> str:
    """Compact one-line notation: seq(...), par(...), unordered{...}, labels."""
    if isinstance(tree, Leaf):
        return escape_label(tree.label)
    if isinstance(tree, Fallback):
        return "unordered{" + ",".join(escape_label(l) for l in sorted(tree.labels)) + "}"
    inner = ",".join(render_text(c) for c in tree.children)
    return ("seq(" if isinstance(tree, Sequence) else "par(") + inner + ")"


def render_svg(tree: LayoutTree, config: RenderConfig | None = None) -> str:
    """Render a layout tree as an SVG 1.1 document (byte-deterministic)."""
    cfg = config or RenderConfig()
    sizes: dict[int, tuple[float, float]] = {}
    width, height = _measure(tree, cfg, sizes)
    margin = cfg.padding
    parts: list[str] = []
    _draw(tree, margin, margin, width, height, 0, cfg, sizes, parts)
    total_w, total_h = width + 2 * margin, height + 2 * margin
    head = (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_fmt(total_w)}" height="{_fmt(total_h)}" '
        f'viewBox="0 0 {_fmt(total_w)} {_fmt(total_h)}">\n'
    )
    return head + "".join(parts) + "</svg>\n"


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def _measure(
    tree: LayoutTree, cfg: RenderConfig, sizes: dict[int, tuple[float, float]]
) -> tuple[float, float]:
    """Natural (width, height) of a tree; records every node's size in
    ``sizes`` by node id, so drawing never measures a subtree twice."""
    leaf_w = _LEAF_WIDTH_UNITS * cfg.unit_height
    if isinstance(tree, Leaf):
        size = (leaf_w, cfg.unit_height)
    elif isinstance(tree, Fallback):
        size = (leaf_w, cfg.unit_height * len(tree.labels))
    else:
        child_sizes = [_measure(c, cfg, sizes) for c in tree.children]
        if isinstance(tree, Sequence):
            size = (
                sum(w for w, _ in child_sizes) + cfg.padding * (len(child_sizes) - 1),
                max(h for _, h in child_sizes),
            )
        else:
            inset_w = 2 * (cfg.chevron_indent + cfg.padding)
            size = (
                max(w for w, _ in child_sizes) + inset_w,
                sum(h for _, h in child_sizes) + cfg.padding * (len(child_sizes) + 1),
            )
    sizes[id(tree)] = size
    return size


def _draw(
    tree: LayoutTree,
    x: float,
    y: float,
    w: float,
    h: float,
    depth: int,
    cfg: RenderConfig,
    sizes: dict[int, tuple[float, float]],
    out: list[str],
) -> None:
    if isinstance(tree, Leaf):
        fill = label_color(tree.label, cfg.palette_seed)
        out.append('<g class="leaf">')
        out.append(_chevron(x, y, w, h, cfg.chevron_indent, fill))
        out.append(_text(x + w / 2, y + h / 2, tree.label, cfg, _text_color(fill)))
        out.append("</g>\n")
        return
    if isinstance(tree, Fallback):
        fill = _CONTAINER_FILLS[depth % len(_CONTAINER_FILLS)]
        out.append('<g class="fallback">')
        out.append(_chevron(x, y, w, h, cfg.chevron_indent, fill))
        line_h = h / len(tree.labels)
        for i, label in enumerate(sorted(tree.labels)):
            out.append(_text(x + w / 2, y + line_h * (i + 0.5), label, cfg, "#1a1a1a"))
        out.append("</g>\n")
        return
    if isinstance(tree, Sequence):
        out.append('<g class="seq">\n')
        child_sizes = [sizes[id(c)] for c in tree.children]
        natural = sum(cw for cw, _ in child_sizes) + cfg.padding * (len(child_sizes) - 1)
        extra = max(0.0, w - natural)
        pool = sum(cw for cw, _ in child_sizes)
        cursor = x
        for i, (child, (cw, _)) in enumerate(zip(tree.children, child_sizes)):
            give = extra * cw / pool
            cw_final = cw + give
            if i == len(child_sizes) - 1:
                cw_final = x + w - cursor  # close rounding drift exactly
            _draw(child, cursor, y, cw_final, h, depth, cfg, sizes, out)
            cursor += cw_final + cfg.padding
        out.append("</g>\n")
        return
    if isinstance(tree, Parallel):
        fill = _CONTAINER_FILLS[depth % len(_CONTAINER_FILLS)]
        out.append('<g class="par">\n')
        out.append(_chevron(x, y, w, h, cfg.chevron_indent, fill))
        child_sizes = [sizes[id(c)] for c in tree.children]
        inner_x = x + cfg.chevron_indent + cfg.padding
        inner_w = w - 2 * (cfg.chevron_indent + cfg.padding)
        natural = sum(ch for _, ch in child_sizes) + cfg.padding * (len(child_sizes) + 1)
        extra = max(0.0, h - natural)
        pool = sum(ch for _, ch in child_sizes)
        cursor = y + cfg.padding
        for child, (_, ch) in zip(tree.children, child_sizes):
            ch_final = ch + extra * ch / pool
            _draw(child, inner_x, cursor, inner_w, ch_final, depth + 1, cfg, sizes, out)
            cursor += ch_final + cfg.padding
        out.append("</g>\n")
        return
    raise TypeError(f"not a layout tree: {tree!r}")


def _chevron(x: float, y: float, w: float, h: float, indent: float, fill: str) -> str:
    notch = min(indent, w / 2)
    points = " ".join(
        f"{_fmt(px)},{_fmt(py)}"
        for px, py in (
            (x, y),
            (x + w - notch, y),
            (x + w, y + h / 2),
            (x + w - notch, y + h),
            (x, y + h),
            (x + notch, y + h / 2),
        )
    )
    return (
        f'<polygon points="{points}" fill="{fill}" '
        'stroke="#8c8c8c" stroke-width="0.75"/>\n'
    )


def _text(cx: float, cy: float, label: str, cfg: RenderConfig, color: str) -> str:
    size = 0.45 * cfg.unit_height
    return (
        f'<text x="{_fmt(cx)}" y="{_fmt(cy)}" text-anchor="middle" '
        f'dominant-baseline="central" font-family="sans-serif" '
        f'font-size="{_fmt(size)}" fill="{color}">{xml_escape(label)}</text>\n'
    )
