"""Checks of the program's outputs against the reference.

Each check raises :class:`Mismatch` with a short description of the first
difference it finds.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from collections import Counter

from reference import Reference, json_key

SVG_G = "{http://www.w3.org/2000/svg}g"


class Mismatch(AssertionError):
    pass


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise Mismatch(message)


def check_log(log, ref: Reference) -> None:
    """Parsed instances per case equal the reference's, as multisets; the
    program warned once per unpaired event and rejected nothing."""
    got: dict[str, list] = {}
    for a in log.instances:
        got.setdefault(a.case_id, []).append((a.label, a.start_ts, a.complete_ts))
    expect(got.keys() == ref.instances.keys(), "parsed case ids differ from the written ones")
    for case_id, instances in ref.instances.items():
        expect(
            sorted(got[case_id]) == sorted(instances),
            f"case {case_id!r}: parsed instances differ from the reference pairing",
        )
    meta = log.source_meta
    expect(
        len(meta.warnings) == ref.unpaired,
        f"{len(meta.warnings)} warnings for {ref.unpaired} unpaired events",
    )
    expect(not meta.errors, f"{len(meta.errors)} rows rejected")


def tree_labels(tree) -> Counter:
    """Label multiset of a program layout tree (walked without recursion)."""
    out = Counter()
    stack = [tree]
    while stack:
        node = stack.pop()
        if hasattr(node, "children"):
            stack.extend(node.children)
        elif hasattr(node, "labels"):
            out.update(node.labels)
        else:
            out[node.label] += 1
    return out


def check_table(table, ref: Reference) -> None:
    """Every case sits under its reference key; counts add up; labels kept."""
    expect(not table.skipped, f"{len(table.skipped)} traces skipped")
    expect(
        table.total_count == len(ref.keys),
        f"variant counts sum to {table.total_count}, not {len(ref.keys)} cases",
    )
    expect(
        len(table.entries) == len(ref.counts),
        f"{len(table.entries)} variants, reference has {len(ref.counts)}",
    )
    for key, entry in table.entries.items():
        expect(entry.count == ref.counts.get(key), f"variant {key!r}: count {entry.count}")
        expect(entry.count == len(entry.case_ids), f"variant {key!r}: case list length")
        expect(
            entry.has_fallback == ref.layouts[key].has_fallback,
            f"variant {key!r}: has_fallback",
        )
        labels = tree_labels(entry.layout)
        for case_id in entry.case_ids:
            expect(ref.keys[case_id] == key, f"case {case_id!r} under key {key!r}")
            expect(
                labels == Counter(label for label, _, _ in ref.instances[case_id]),
                f"case {case_id!r}: layout labels differ from the trace's",
            )


def check_variants_json(doc: dict, ref: Reference) -> None:
    """Output of ``variantview variants``: keys, counts and layouts."""
    expect(doc["num_variants"] == len(ref.counts), "num_variants")
    expect(doc["total_traces"] == len(ref.keys), "total_traces")
    expect(doc["skipped_traces"] == 0, "skipped_traces")
    expect(len(doc["variants"]) == len(ref.counts), "variants listed")
    for v in doc["variants"]:
        key = v["key"]
        expect(v["count"] == ref.counts.get(key), f"variant {key!r}: count")
        expect(json_key(v["layout"]) == key, f"variant {key!r}: layout does not match key")
        expect(v["has_fallback"] == ref.layouts[key].has_fallback, f"variant {key!r}: has_fallback")
        for case_id in v["representative_cases"]:
            expect(ref.keys[case_id] == key, f"case {case_id!r} under key {key!r}")


def check_stats_json(doc: dict, ref: Reference) -> None:
    """Output of ``variantview stats --output-format json``."""
    expect(doc["num_cases"] == len(ref.keys), "num_cases")
    expect(doc["classic_variant_count"] == ref.classic_count, "classic_variant_count")
    expect(doc["interval_variant_count"] == len(ref.counts), "interval_variant_count")
    expect(doc["fallback_variant_count"] == ref.fallback_variants, "fallback_variant_count")


def check_svg(svg: str, key: str, ref: Reference) -> None:
    """Well-formed SVG with one leaf element per Leaf of the variant."""
    try:
        root = ET.fromstring(svg.encode("utf-8"))
    except ET.ParseError as exc:
        raise Mismatch(f"variant {key!r}: SVG is not well-formed: {exc}") from None
    expect(root.tag == "{http://www.w3.org/2000/svg}svg", f"variant {key!r}: root is {root.tag}")
    leaves = sum(1 for g in root.iter(SVG_G) if g.get("class") == "leaf")
    expect(
        leaves == ref.layouts[key].leaves,
        f"variant {key!r}: {leaves} leaf elements for {ref.layouts[key].leaves} leaves",
    )
