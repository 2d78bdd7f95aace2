"""End-to-end CLI behavior: commands, formats, exit codes, determinism."""

from __future__ import annotations

import gzip
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import variantview
from conftest import DATA
from variantview import cli
from variantview.cli import main
from variantview.ingest import parse_csv
from variantview.layout import variant_table
from variantview.render import render_svg


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestVariantsCommand:
    def test_byte_order_mark_gives_the_same_bytes(self, tmp_path):
        marked = tmp_path / "marked.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + (DATA / "worked_example.csv").read_bytes())
        outputs = []
        for path in (DATA / "worked_example.csv", marked):
            out = tmp_path / f"{path.stem}.json"
            assert main(["variants", "--input", str(path), "--output", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_worked_example_json(self, capsys):
        code, out, _ = run(capsys, "variants", "--input", str(DATA / "worked_example.csv"))
        assert code == 0
        doc = json.loads(out)
        assert doc["num_variants"] == 2
        assert doc["total_traces"] == 2
        keys = [v["key"] for v in doc["variants"]]
        assert "s(p(C,s(p(A,B),p(D,E))),p(A,F),G)" in keys
        assert "A" in keys

    def test_json_layouts_compact_on_one_line(self, capsys):
        code, out, _ = run(capsys, "variants", "--input", str(DATA / "worked_example.csv"))
        assert code == 0
        doc = json.loads(out)
        assert out.startswith('{\n  "num_variants": 2,\n')
        layout_lines = [l for l in out.splitlines() if l.startswith('      "layout": ')]
        assert layout_lines == [
            '      "layout": '
            + json.dumps(v["layout"], ensure_ascii=False, separators=(",", ":"))
            for v in doc["variants"]
        ]

    def test_twin_cases_single_variant(self, capsys):
        code, out, _ = run(capsys, "variants", "--input", str(DATA / "same_structure_cases.csv"))
        assert code == 0
        doc = json.loads(out)
        assert doc["num_variants"] == 1
        assert doc["variants"][0]["count"] == 2

    def test_text_format(self, capsys):
        code, out, _ = run(
            capsys,
            "variants",
            "--input", str(DATA / "worked_example.csv"),
            "--output-format", "text",
        )
        assert code == 0
        lines = out.splitlines()
        # equal counts tie-break by key: "A" sorts before "s(..."
        assert lines[0] == "1\tA"
        assert lines[1] == "1\tseq(par(seq(par(A,B),par(D,E)),C),par(F,A),G)"

    def test_sorted_by_count_desc(self, capsys):
        code, out, _ = run(capsys, "variants", "--input", str(DATA / "same_structure_cases.csv"))
        doc = json.loads(out)
        counts = [v["count"] for v in doc["variants"]]
        assert counts == sorted(counts, reverse=True)

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "variants.json"
        code, out, _ = run(
            capsys,
            "variants",
            "--input", str(DATA / "worked_example.csv"),
            "--output", str(target),
        )
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["num_variants"] == 2

    def test_xes_input(self, capsys):
        code, out, _ = run(capsys, "variants", "--input", str(DATA / "worked_example.xes"))
        assert code == 0
        assert json.loads(out)["num_variants"] == 2

    def test_xes_gz_input(self, capsys, tmp_path):
        packed = tmp_path / "log.xes.gz"
        packed.write_bytes(gzip.compress((DATA / "worked_example.xes").read_bytes()))
        code, out, _ = run(capsys, "variants", "--input", str(packed))
        assert code == 0
        assert json.loads(out)["num_variants"] == 2

    def test_custom_columns(self, capsys):
        code, out, _ = run(
            capsys,
            "variants",
            "--input", str(DATA / "spreadsheet_headers.csv"),
            "--columns", "Case-ID,Activity Label,Start-timestamp,Complete-timestamp",
        )
        assert code == 0
        assert json.loads(out)["num_variants"] == 2

    def test_generated_log(self, capsys):
        code, out, _ = run(
            capsys,
            "variants",
            "--generate", "num_templates=3,traces_per_template=4,instances_per_trace=6",
            "--seed", "5",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["num_variants"] == 3
        assert doc["total_traces"] == 12


class TestRenderCommand:
    def test_render_case_svg(self, capsys):
        code, out, _ = run(
            capsys, "render", "--input", str(DATA / "worked_example.csv"), "--case", "1"
        )
        assert code == 0
        assert out.startswith("<?xml")
        assert "<svg" in out and out.rstrip().endswith("</svg>")

    def test_render_single_event_case(self, capsys):
        code, out, _ = run(
            capsys,
            "render",
            "--input", str(DATA / "worked_example.csv"),
            "--case", "2",
            "--output-format", "text",
        )
        assert code == 0
        assert out.strip() == "A"

    def test_render_by_key(self, capsys):
        code, out, _ = run(
            capsys,
            "render",
            "--input", str(DATA / "worked_example.csv"),
            "--key", "A",
            "--output-format", "text",
        )
        assert code == 0
        assert out.strip() == "A"

    def test_unknown_key_exit_3(self, capsys):
        code, _, err = run(
            capsys, "render", "--input", str(DATA / "worked_example.csv"), "--key", "zzz"
        )
        assert code == 3
        assert "zzz" in err

    def test_unknown_case_exit_3(self, capsys):
        code, _, err = run(
            capsys, "render", "--input", str(DATA / "worked_example.csv"), "--case", "42"
        )
        assert code == 3

    def test_seed_picks_the_svg_palette(self, capsys):
        source = ("render", "--input", str(DATA / "worked_example.csv"), "--case", "1")
        layout = variant_table(parse_csv(DATA / "worked_example.csv")).find_case("1")[1].layout
        code, seeded, _ = run(capsys, *source, "--seed", "3")
        assert code == 0
        assert seeded == render_svg(layout, palette_seed=3)
        _, unseeded, _ = run(capsys, *source, "--seed", "0")
        assert unseeded == render_svg(layout)
        assert seeded != unseeded

    def test_byte_identical_runs(self, capsys):
        args = ("render", "--input", str(DATA / "worked_example.csv"), "--case", "1")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second

    def test_json_equals_the_variants_layout_line(self, capsys):
        source = ("--input", str(DATA / "worked_example.csv"))
        code, out, _ = run(capsys, "variants", *source)
        assert code == 0
        keys = [v["key"] for v in json.loads(out)["variants"]]
        layout_lines = [l for l in out.splitlines() if l.startswith('      "layout": ')]
        assert len(keys) == len(layout_lines) == 2
        for key, line in zip(keys, layout_lines):
            code, rendered, _ = run(
                capsys, "render", *source, "--key", key, "--output-format", "json"
            )
            assert code == 0
            assert rendered == line.removeprefix('      "layout": ') + "\n"

    def test_svg_extension_selects_format(self, capsys, tmp_path):
        target = tmp_path / "variant.svg"
        code, _, _ = run(
            capsys,
            "render",
            "--input", str(DATA / "worked_example.csv"),
            "--case", "1",
            "--output", str(target),
        )
        assert code == 0
        assert target.read_text().startswith("<?xml")


class TestStatsCommand:
    def test_text_table(self, capsys):
        code, out, _ = run(capsys, "stats", "--input", str(DATA / "worked_example.csv"))
        assert code == 0
        assert "#cases (avg. #events per case)" in out
        assert "2 (4.5)" in out

    def test_json(self, capsys):
        code, out, _ = run(
            capsys,
            "stats",
            "--input", str(DATA / "worked_example.csv"),
            "--output-format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["num_cases"] == 2
        assert doc["interval_variant_count"] == 2
        assert doc["classic_variant_count"] == 2


class TestCheckCommand:
    def test_no_violations(self, capsys):
        code, out, _ = run(capsys, "check", "--input", str(DATA / "same_structure_cases.csv"))
        assert code == 0
        assert "checked 2 traces: 0 violations" in out


class TestBenchCommand:
    def test_reports_min_and_median(self, capsys):
        code, out, _ = run(
            capsys,
            "bench",
            "--generate", "num_templates=2,traces_per_template=5,instances_per_trace=5",
            "--repeat", "2",
        )
        assert code == 0
        assert "benchmark: 2 runs" in out
        for phase in ("preprocessing", "building_orders", "cutting", "total", "rendering"):
            assert phase in out

    def test_json_format(self, capsys):
        code, out, _ = run(
            capsys,
            "bench",
            "--generate", "num_templates=2,traces_per_template=5,instances_per_trace=5",
            "--repeat", "2",
            "--output-format", "json",
        )
        doc = json.loads(out)
        assert doc["runs"] == 2
        assert list(doc["phases"]) == [
            "parsing", "preprocessing", "building_orders", "cutting", "total", "rendering"
        ]
        assert doc["phases"]["parsing"] == {"min": 0.0, "median": 0.0}
        assert 0 < doc["phases"]["rendering"]["min"] <= doc["phases"]["rendering"]["median"]

    def test_input_times_parsing_on_every_run(self, capsys, monkeypatch):
        parses = []
        real = cli.parse_csv
        monkeypatch.setattr(cli, "parse_csv", lambda *a: parses.append(a) or real(*a))
        code, out, _ = run(
            capsys,
            "bench",
            "--input", str(DATA / "worked_example.csv"),
            "--repeat", "3",
            "--output-format", "json",
        )
        assert code == 0
        parsing = json.loads(out)["phases"]["parsing"]
        assert 0 < parsing["min"] <= parsing["median"]
        assert len(parses) == 4  # the first read, then one per run

    def test_rendering_draws_every_variant_at_the_seed(self, capsys, monkeypatch):
        drawn = []
        real = cli.render_svg
        monkeypatch.setattr(
            cli, "render_svg", lambda t, palette_seed: drawn.append((t, palette_seed)) or real(t)
        )
        code, _, _ = run(
            capsys,
            "bench",
            "--input", str(DATA / "worked_example.csv"),
            "--repeat", "2",
            "--seed", "3",
        )
        assert code == 0
        table = variant_table(parse_csv(DATA / "worked_example.csv"))
        layouts = [entry.layout for _, entry in table.sorted_items()]
        assert drawn == [(t, 3) for t in layouts] * 2


class TestErrorsAndConfig:
    def test_missing_input_exit_2(self, capsys):
        code, _, err = run(capsys, "variants", "--input", "/nonexistent.csv")
        assert code == 2
        assert "error" in err

    def test_parse_failure_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "broken.xes"
        bad.write_text("<log><trace>")
        code, _, err = run(capsys, "variants", "--input", str(bad))
        assert code == 2
        assert "line" in err

    def test_unknown_extension_exit_2(self, capsys, tmp_path):
        f = tmp_path / "log.dat"
        f.write_text("x")
        code, _, err = run(capsys, "variants", "--input", str(f))
        assert code == 2
        assert "--format" in err

    def test_input_directory_exit_2(self, capsys):
        code, out, err = run(capsys, "variants", "--input", str(DATA), "--format", "csv")
        assert (code, out) == (2, "")
        assert err == f"error: cannot read {DATA}: Is a directory\n"

    def test_output_in_missing_directory_exit_2(self, capsys, tmp_path):
        target = tmp_path / "missing" / "x.json"
        code, _, err = run(
            capsys, "variants", "--input", str(DATA / "worked_example.csv"), "--output", str(target)
        )
        assert code == 2
        assert err == f"error: cannot write {target}: No such file or directory\n"

    def test_output_directory_exit_2(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "variants", "--input", str(DATA / "worked_example.csv"), "--output", str(tmp_path)
        )
        assert code == 2
        assert err == f"error: cannot write {tmp_path}: Is a directory\n"

    @pytest.mark.parametrize("repeat", ["0", "-2"])
    def test_bench_repeat_below_one_exit_2(self, capsys, repeat):
        code, out, err = run(
            capsys, "bench", "--input", str(DATA / "worked_example.csv"), "--repeat", repeat
        )
        assert (code, out) == (2, "")
        assert err == f"error: --repeat must be >= 1, got {repeat}\n"

    def test_input_and_generate_conflict(self, capsys):
        code, _, err = run(
            capsys,
            "variants",
            "--input", str(DATA / "worked_example.csv"),
            "--generate", "num_templates=1",
        )
        assert code == 2

    def test_neither_input_nor_generate(self, capsys):
        code, _, _ = run(capsys, "variants")
        assert code == 2

    def test_bad_threads_exit_2(self, capsys):
        code, _, err = run(
            capsys, "variants", "--input", str(DATA / "worked_example.csv"), "--threads", "0"
        )
        assert code == 2

    def test_vw_threads_env(self, capsys, monkeypatch):
        monkeypatch.setenv("VW_THREADS", "2")
        code, out, _ = run(capsys, "variants", "--input", str(DATA / "worked_example.csv"))
        assert code == 0
        assert json.loads(out)["num_variants"] == 2

    def test_bad_vw_threads_env(self, capsys, monkeypatch):
        # VW_THREADS is not read: a bad value neither fails nor changes a byte.
        args = ("variants", "--input", str(DATA / "worked_example.csv"))
        _, plain, _ = run(capsys, *args)
        monkeypatch.setenv("VW_THREADS", "lots")
        code, out, err = run(capsys, *args)
        assert code == 0
        assert out == plain
        assert err == ""

    def test_bad_generate_key(self, capsys):
        code, _, err = run(capsys, "variants", "--generate", "bogus=1")
        assert code == 2

    def test_diagnostics_on_stderr_not_stdout(self, capsys, tmp_path):
        dirty = tmp_path / "dirty.csv"
        dirty.write_text(
            "case,label,start,complete\n"
            "1,A,07/13/2021 08:00,07/13/2021 09:00\n"
            "1,B,junk,07/13/2021 09:00\n"
        )
        code, out, err = run(capsys, "variants", "--input", str(dirty))
        assert code == 0
        json.loads(out)  # stdout stays pure data
        assert "warning" in err


def _corrupted_inputs(tmp_path) -> list[Path]:
    packed = gzip.compress((DATA / "worked_example.xes").read_bytes())
    half = tmp_path / "half.xes.gz"
    half.write_bytes(packed[: len(packed) // 2])
    zeroed = bytearray(packed)
    zeroed[12:41] = bytes(29)
    scrambled = tmp_path / "zeroed.xes.gz"
    scrambled.write_bytes(bytes(zeroed[: len(zeroed) * 3 // 4]))
    text = (DATA / "worked_example.csv").read_bytes()
    at = text.index(b",A,") + 1
    bad_utf8 = tmp_path / "bad_utf8.csv"
    bad_utf8.write_bytes(text[:at] + b"\xff" + text[at:])
    return [half, scrambled, bad_utf8]


def test_corrupted_input_exits_2_with_one_line(capsys, tmp_path):
    for path in _corrupted_inputs(tmp_path):
        code, out, err = run(capsys, "variants", "--input", str(path))
        assert code == 2, err
        assert out == ""
        assert err.count("\n") == 1 and err.startswith(f"error: {path.name}: "), err


class TestThreadsDeterminism:
    def test_threads_do_not_change_bytes(self, capsys):
        spec = "num_templates=4,traces_per_template=25,instances_per_trace=8,overlap_density=0.5"
        _, single, _ = run(capsys, "variants", "--generate", spec, "--threads", "1")
        _, multi, _ = run(capsys, "variants", "--generate", spec, "--threads", "8")
        assert single == multi


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", ["1", ""])
@pytest.mark.parametrize(
    "argv, to_stdout",
    [
        (["variants", "--output", "/dev/full"], False),
        (["variants"], True),
        (["variants", "--output-format", "text"], True),
        (["render", "--case", "1", "--output", "/dev/full"], False),
        (["render", "--case", "1"], True),
        (["stats"], True),
    ],
)
def test_failed_write_exits_2_with_one_line(argv, to_stdout, unbuffered):
    """A full disk, for the --output file and for stdout, buffered or not: one
    error line, no traceback and no complaint at interpreter exit."""
    src = str(Path(variantview.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONUNBUFFERED=unbuffered)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    with open("/dev/full", "w") as full:
        result = subprocess.run(
            [sys.executable, "-m", "variantview.cli", *argv,
             "--input", str(DATA / "worked_example.csv")],
            env=env, stdout=full if to_stdout else subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True,
        )
    target = "standard output" if to_stdout else "/dev/full"
    assert result.returncode == 2, result.stderr
    assert result.stderr == f"error: cannot write {target}: No space left on device\n"


def test_cli_import_does_not_load_numpy():
    """Nor the modules that made the import slow: the SAX escape pulled in
    urllib.request, http.client and email."""
    src = str(Path(variantview.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    unwanted = ["numpy", "urllib.request", "http.client", "xml.sax", "xml.etree.ElementTree"]
    probe = f"import sys, variantview.cli; print([m for m in {unwanted!r} if m in sys.modules])"
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "[]"
