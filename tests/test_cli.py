import contextlib
import csv
import io
import json
import os
import re
import stat
import subprocess
import sys
import tempfile
import threading
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mutants
import render_oracle
from scanforge.cli import UsageError, _atomic_write, _parse_p_range, main, parse_elements
from scanforge.kernels import KERNEL_NAMES, get_kernel
from scanforge.render import layout, svg_string
from scanforge import kernels, render
from scanforge.runtime import MAX_N, MAX_WORKERS
from scanforge.tracing import _BLOCK as BLOCK, infer_depths, run_traced, trace_to_json
from scanforge.verify import IDENTITY, Range, race_check_history, verify_race_free
from test_executors import oblivious, updates

GOLDENS = Path(__file__).parent / "goldens"


def test_run_add(capsys):
    assert main(["run", "--kernel", "brent-kung", "--op", "add",
                 "--input", "1,2,3,4"]) == 0
    assert capsys.readouterr().out.strip() == "1,3,6,10"


def test_run_concat(capsys):
    assert main(["run", "--kernel", "serial", "--op", "concat",
                 "--input", "a,b,c"]) == 0
    assert capsys.readouterr().out.strip() == "a,ab,abc"


def test_run_matmul2(capsys):
    assert main(["run", "--kernel", "serial", "--op", "matmul2",
                 "--input", "1 0 0 1, 2 0 0 2"]) == 0
    assert capsys.readouterr().out.strip() == "1 0 0 1,2 0 0 2"


def test_run_scan_then_fan_chunks(capsys):
    assert main(["run", "--kernel", "scan-then-fan", "--op", "add",
                 "--chunks", "3", "--input", "1,1,1,1,1,1"]) == 0
    assert capsys.readouterr().out.strip() == "1,2,3,4,5,6"


def test_run_input_file(tmp_path, capsys):
    path = tmp_path / "in.txt"
    path.write_text("5 5 5")
    assert main(["run", "--kernel", "serial", "--op", "add",
                 "--input-file", str(path)]) == 0
    assert capsys.readouterr().out.strip() == "5,10,15"


def test_unknown_kernel_is_usage_error(capsys):
    assert main(["run", "--kernel", "sklansky", "--op", "add",
                 "--input", "1"]) == 2
    assert "brent-kung" in capsys.readouterr().err


def test_unreadable_input_file_is_usage_error(tmp_path, capsys):
    assert main(["run", "--kernel", "serial", "--op", "add",
                 "--input-file", str(tmp_path / "missing.txt")]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_unknown_op_is_usage_error(capsys):
    assert main(["verify", "--kernel", "serial", "--n", "4"]) in (0,)
    assert main(["run", "--kernel", "serial", "--op", "xor",
                 "--input", "1"]) == 2
    assert "add" in capsys.readouterr().err


def test_verify_ok_and_json(capsys):
    assert main(["verify", "--kernel", "brent-kung", "--n", "16"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report == {"kernel": "brent-kung", "n": 16, "ok": True,
                      "first_top": None, "conflicts": None}


def test_verify_fixed_kernel_wrong_n(capsys):
    assert main(["verify", "--kernel", "brent-kung-8", "--n", "4"]) == 2


def test_trace_stdout_parses(capsys):
    assert main(["trace", "--kernel", "serial", "--n", "4"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert rows == [
        {"reads": [1, 2], "write": 2, "depth": 1},
        {"reads": [2, 3], "write": 3, "depth": 2},
        {"reads": [3, 4], "write": 4, "depth": 3},
    ]


def test_render_serial_8_gate_count(tmp_path):
    out = tmp_path / "serial.svg"
    assert main(["render", "--kernel", "serial", "--n", "8",
                 "--out", str(out)]) == 0
    svg = out.read_text()
    assert len(re.findall(r'<circle class="out"', svg)) == 7


def test_trace_render_roundtrip_byte_identical(tmp_path):
    trace_path = tmp_path / "t.json"
    direct = tmp_path / "direct.svg"
    via = tmp_path / "via.svg"
    cases = [("brent-kung-8", 8, 4)]
    cases += [(name, n, 4) for name in ("serial", "brent-kung") for n in (1, 8, 33, 1000)]
    cases += [("scan-then-fan", n, chunks) for n in (1, 8, 33, 1000) for chunks in (1, 3, 8)]
    for name, n, chunks in cases:
        kernel = ["--kernel", name, "--n", str(n), "--chunks", str(chunks)]
        assert main(["trace", *kernel, "--out", str(trace_path)]) == 0
        assert main(["render", *kernel, "--out", str(direct)]) == 0
        assert main(["render", "--trace", str(trace_path), "--n", str(n),
                     "--out", str(via)]) == 0
        assert direct.read_bytes() == via.read_bytes(), (name, n, chunks)


def test_render_viewport_flag(tmp_path):
    out = tmp_path / "s.svg"
    assert main(["render", "--kernel", "serial", "--n", "4",
                 "--viewport", "300x200", "--out", str(out)]) == 0
    assert 'width="300"' in out.read_text()


@pytest.mark.parametrize("spec", ["-600x400", "0x400", "10", "axb"])
def test_render_rejects_bad_viewport(tmp_path, capsys, spec):
    # "-600x400" used to write width="-600"; "10" failed on int('').
    out = tmp_path / "s.svg"
    assert main(["render", "--kernel", "serial", "--n", "4",
                 f"--viewport={spec}", "--out", str(out)]) == 2
    assert "--viewport" in capsys.readouterr().err
    assert not out.exists()


def test_bench_virtual_csv(tmp_path):
    out = tmp_path / "bench.csv"
    assert main(["bench", "--p-range", "4,8", "--virtual-clock",
                 "--op-cost", "1", "--trials", "1", "--out", str(out)]) == 0
    with open(out) as f:
        rows = list(csv.DictReader(f))
    assert [r["p"] for r in rows] == ["4", "8"]
    assert rows[1]["t_serial_ns"] == "7"
    assert rows[1]["t_parallel_ns"] == "5"


@pytest.mark.parametrize("workers, complaint", [
    (str(MAX_WORKERS + 1), f"MAX_WORKERS ({MAX_WORKERS})"),
    ("lots", "SCANFORGE_WORKERS='lots' is not an integer"),
])
def test_bench_refuses_bad_worker_count(monkeypatch, capsys, workers, complaint):
    monkeypatch.setenv("SCANFORGE_WORKERS", workers)
    before = threading.active_count()
    assert main(["bench", "--p-range", "4", "--trials", "1", "--op-cost", "0"]) == 2
    assert complaint in capsys.readouterr().err
    assert threading.active_count() == before


def test_bench_unknown_kernel_is_usage_error(capsys):
    # get_kernel's KeyError used to escape as a traceback with exit 1.
    assert main(["bench", "--kernels", "serial,foo", "--virtual-clock"]) == 2
    assert "unknown kernel 'foo'" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [
    "--op-cost=inf", "--op-cost=1e309", "--op-cost=nan", "--op-cost=-1", "--op-cost=1e20",
    "--op-cost=inf --virtual-clock", "--op-cost=1e309 --virtual-clock",
    "--op-cost=nan --virtual-clock",
])
def test_bench_refuses_bad_op_cost(capsys, flags):
    # inf used to overflow in time.sleep or int(); -1 failed only in a worker.
    before = threading.active_count()
    assert main(["bench", "--p-range", "4", "--trials", "1"] + flags.split()) == 2
    assert "op_cost" in capsys.readouterr().err
    assert threading.active_count() == before


@pytest.mark.parametrize("argv", [
    ["trace", "--kernel", "serial", "--n", str(MAX_N + 1)],
    ["render", "--kernel", "brent-kung", "--n", str(MAX_N + 1), "--out", "{out}"],
    ["verify", "--kernel", "scan-then-fan", "--n", str(MAX_N + 1)],
    ["bench", "--virtual-clock", "--p-range", str(MAX_N + 1)],
    ["bench", "--p-range", f"4:{2 * MAX_N}", "--virtual-clock"],
    ["bench", "--p-range", str(MAX_N + 1)],
    ["render", "--trace", "{trace}", "--n", str(MAX_N + 1), "--out", "{out}"],
    ["render", "--trace", "{trace}", "--out", "{out}"],
], ids=["trace", "render", "verify", "bench-virtual", "bench-virtual-range", "bench-wall",
        "render-trace-n", "render-trace-inferred"])
def test_size_over_the_cap_is_usage_error(monkeypatch, capsys, tmp_path, argv):
    # `bench --virtual-clock --p-range 99999999999` used to record ~1e11 updates,
    # and `render --trace` on a one-row trace to draw ~1e11 guidelines.
    def no_recording(*args):
        raise AssertionError("a plan was recorded")

    def no_drawing(*args):
        raise AssertionError("an SVG was drawn")

    monkeypatch.setattr(kernels, "_record", no_recording)
    monkeypatch.setattr(render, "_svg", no_drawing)
    kernels._plan.cache_clear()
    before = threading.active_count()
    out = tmp_path / "over.svg"
    trace = tmp_path / "wide.json"
    trace.write_text(json.dumps([{"reads": [1, MAX_N + 1], "write": MAX_N + 1}]))
    assert main([a.format(out=out, trace=trace) for a in argv]) == 2
    assert f"MAX_N ({MAX_N})" in capsys.readouterr().err
    assert threading.active_count() == before
    assert not out.exists()


def test_virtual_bench_refuses_a_negative_op_cost(capsys):
    # -1 used to count silently as 1 tick per operation.
    assert main(["bench", "--p-range", "4", "--virtual-clock", "--op-cost", "-1"]) == 2
    assert "op_cost must be >= 0 ticks" in capsys.readouterr().err
    assert main(["bench", "--p-range", "4,8", "--virtual-clock"]) == 0  # default 0.01
    assert capsys.readouterr().out.splitlines()[1:] == ["4,3,3,1.000000,1.000000",
                                                         "8,7,5,1.400000,1.400000"]


def test_no_leftover_temp_files(tmp_path):
    out = tmp_path / "t.json"
    assert main(["trace", "--kernel", "serial", "--n", "4",
                 "--out", str(out)]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["t.json"]


def test_parse_elements_interval():
    from scanforge.verify import TOP

    assert parse_elements("interval", "1:2 id top") == [Range(1, 2), IDENTITY, TOP]


def test_usage_error_on_missing_input(capsys):
    assert main(["run", "--kernel", "serial", "--op", "add"]) == 2


def test_p_range_doubles_from_lo_to_hi():
    assert _parse_p_range("4:32") == [4, 8, 16, 32]
    assert _parse_p_range("4,8") == [4, 8]


@pytest.mark.parametrize("spec", ["0:8", "-4:8", "1:8", "0,4", "4,-2"])
def test_p_range_rejects_p_below_two(spec):
    # A lower bound <= 0 used to double forever; the parser must refuse it.
    with pytest.raises(UsageError, match="p must be >= 2"):
        _parse_p_range(spec)


@pytest.mark.parametrize("spec", ["4:2", ","])
def test_p_range_without_points_is_usage_error(spec, capsys):
    # Both used to print only the CSV header and exit 0.
    assert main(["bench", "--p-range", spec, "--virtual-clock"]) == 2
    assert "names no p" in capsys.readouterr().err


@pytest.mark.parametrize("rows, n, complaint", [
    ([{"reads": [1, 2], "write": 2}, {"reads": [2, 3]}], None, "row 2 needs"),
    ([{"reads": [1, 2], "write": 2}, {"reads": [8, 9], "write": 9}], 8,
     "row 2 uses index 9, outside 1..8"),
    ([{"reads": [0, 1], "write": 1}], None, "row 1 has an index"),
    ({"reads": [1, 2], "write": 2}, None, "JSON list"),
    ([], -3, "a diagram -3 lines wide"),  # used to write an SVG of negative width
    ([{"reads": [1, 2], "write": 2}, {"reads": [2], "write": 3}], None,
     "trace row 2 reads [2]: a row reads exactly two cells"),
    ([{"reads": [1, 2], "write": 2}, {"reads": [1, 2, 3], "write": 3}], None,
     "trace row 2 reads [1, 2, 3]: a row reads exactly two cells"),
])
def test_render_rejects_malformed_trace(tmp_path, capsys, rows, n, complaint):
    trace = tmp_path / "t.json"
    trace.write_text(json.dumps(rows))
    argv = ["render", "--trace", str(trace), "--out", str(tmp_path / "t.svg")]
    assert main(argv + (["--n", str(n)] if n else [])) == 2
    assert complaint in capsys.readouterr().err
    assert not (tmp_path / "t.svg").exists()


def test_render_rejects_deeply_nested_trace(tmp_path, capsys):
    # json.loads used to end in a RecursionError traceback.
    trace = tmp_path / "t.json"
    trace.write_text("[" * 100_000)
    assert main(["render", "--trace", str(trace), "--out", str(tmp_path / "t.svg")]) == 2
    assert "nests" in capsys.readouterr().err
    assert not (tmp_path / "t.svg").exists()


@pytest.mark.parametrize("argv", [
    ["trace", "--kernel", "serial", "--n", "3"],
    ["render", "--kernel", "serial", "--n", "3"],
    ["bench", "--virtual-clock", "--p-range", "4", "--trials", "1"],
], ids=["trace", "render", "bench"])
@pytest.mark.parametrize("where", ["missing-directory", "directory"])
def test_a_failed_write_names_the_path_asked_for(tmp_path, capsys, argv, where):
    # The message used to name the hidden temporary file beside the target:
    # "No such file or directory: '.../missing/.scanforge-<hex>'".
    out = tmp_path / "missing" / "x.out" if where == "missing-directory" else tmp_path / "dir"
    if where == "directory":
        out.mkdir()
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: [Errno ") and err.endswith(f": {str(out)!r}\n")
    assert ".scanforge" not in err
    assert [p.name for p in tmp_path.rglob("*")] == ([] if where == "missing-directory" else ["dir"])


def test_output_files_get_the_mode_open_would_give(tmp_path):
    # The temporary file used to come from mkstemp, so every output was 0o600,
    # and overwriting a 0o644 file made it 0o600.
    old = os.umask(0o022)
    try:
        fresh, kept = tmp_path / "fresh.json", tmp_path / "kept.json"
        kept.write_text("old")
        kept.chmod(0o644)
        for out in (fresh, kept):
            assert main(["trace", "--kernel", "serial", "--n", "4", "--out", str(out)]) == 0
            assert stat.S_IMODE(out.stat().st_mode) == 0o644
    finally:
        os.umask(old)


@pytest.mark.parametrize("kernel, golden", [("serial", "serial_8.json"),
                                            ("brent-kung", "brent_kung_8.json")])
def test_trace_goldens(tmp_path, capsys, kernel, golden):
    want = (GOLDENS / golden).read_bytes()
    out = tmp_path / golden
    assert main(["trace", "--kernel", kernel, "--n", "8", "--out", str(out)]) == 0
    assert out.read_bytes() == want
    assert main(["trace", "--kernel", kernel, "--n", "8"]) == 0
    assert capsys.readouterr().out.encode() == want


def any_updates(n):
    """(j, i) updates with j and i anywhere among the first few cells, so that
    two updates of one stage often touch the same cell."""
    if n < 1:
        return st.just([])
    cell = st.integers(1, min(n, 6))
    return st.lists(st.tuples(cell, cell), max_size=12)


def cli_text(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return out.getvalue()


@given(st.sampled_from(("random", "any") + KERNEL_NAMES + tuple(mutants.ALL)),
       st.integers(min_value=0, max_value=300),
       st.integers(min_value=1, max_value=12),
       st.data())
@settings(max_examples=150, deadline=None)
def test_plan_path_equals_the_history_path(name, n, chunks, data):
    if name in ("random", "any"):
        strategy = updates(n) if name == "random" else any_updates(n)
        kernel = oblivious(data.draw(strategy, label="updates"))
    elif name in mutants.ALL:
        kernel = mutants.ALL[name]
    else:
        kernel = get_kernel(name, chunks)
        n = kernel.fixed_length or n
    history = run_traced(kernel, n)
    if n >= 1:
        assert verify_race_free(kernel, n) == race_check_history(history)
    if name not in KERNEL_NAMES:
        return
    argv = ["--kernel", name, "--n", str(n), "--chunks", str(chunks)]
    assert cli_text(["trace"] + argv) == trace_to_json(history) + "\n"
    with tempfile.TemporaryDirectory() as tmp:
        svg = os.path.join(tmp, "k.svg")
        for viewport in ((600, 400), (317, 1999)):
            spec = "%dx%d" % viewport
            assert main(["render"] + argv + ["--viewport", spec, "--out", svg]) == 0
            with open(svg) as f:
                assert f.read() == svg_string(layout(history, n), viewport)


def package_env():
    """The environment of a new interpreter that imports this checkout's package."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))


def fresh_process(argv, cwd):
    """scanforge's exit status, stdout and stderr for argv, run in a new
    interpreter."""
    done = subprocess.run([sys.executable, "-m", "scanforge.cli", *argv], cwd=cwd,
                          env=package_env(), capture_output=True, text=True, timeout=120)
    return done.returncode, done.stdout, done.stderr


def this_process(argv, capsys):
    try:
        status = main(argv)
    except SystemExit as e:  # --help
        status = e.code
    out, err = capsys.readouterr()
    return status, out, err


def test_the_shared_parser_keeps_nothing_between_calls(tmp_path, capsys, monkeypatch):
    # main used to build its parser on every call; now one parser serves
    # them all, so each call must parse as a first call in a new process.
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "80")  # --help wraps to one width in both processes
    bk = ["--kernel", "brent-kung", "--n", "8"]
    calls = [
        ["render", *bk, "--viewport", "317x1999", "--out", "wide.svg"],
        ["render", *bk, "--out", "default.svg"],
        ["trace", *bk, "--out", "f.json"],
        ["trace", *bk],
        ["bench", "--p-range", "1"],
        ["bench", "--virtual-clock", "--p-range", "4,8"],
        ["--help"],
        ["--help"],
    ]
    here = [this_process(argv, capsys) for argv in calls]
    files = {name: Path(name).read_bytes() for name in ("wide.svg", "default.svg", "f.json")}
    for name in files:
        os.unlink(name)
    assert [status for status, _, _ in here] == [0, 0, 0, 0, 2, 0, 0, 0]
    for argv, got in zip(calls, here):
        assert got == fresh_process(argv, tmp_path), argv
    for name, data in files.items():
        assert Path(name).read_bytes() == data, name
    assert files["default.svg"] == (GOLDENS / "brent_kung_8.svg").read_bytes()
    assert here[-1] == here[-2]


def test_trace_to_a_reader_that_stops_early_ends_quietly():
    # Streamed, the pieces after the reader has gone met a closed pipe:
    # "error: [Errno 32] Broken pipe" and exit 2, where the text written
    # whole had ended with exit 0.
    with subprocess.Popen([sys.executable, "-m", "scanforge.cli", "trace", "--kernel", "serial",
                           "--n", "100000"], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          env=package_env()) as child:
        assert child.stdout.read(10) == b'[\n  {\n    '
        child.stdout.close()
        _, err = child.communicate(timeout=120)
    assert (child.returncode, err) == (0, b"")


@pytest.mark.parametrize("kernel, n, gates", [
    ("brent-kung", 100, 190), ("serial", BLOCK + 1, BLOCK), ("serial", BLOCK + 2, BLOCK + 1),
    ("brent-kung", 9000, 17981),
], ids=["under-one-block", "one-block", "one-block-and-a-gate", "three-blocks"])
def test_streamed_documents_equal_the_library_strings(tmp_path, capsys, kernel, n, gates):
    history = run_traced(get_kernel(kernel), n)
    assert len(history) == gates
    svg, trace = tmp_path / "k.svg", tmp_path / "k.json"
    argv = ["--kernel", kernel, "--n", str(n)]
    assert main(["render", *argv, "--out", str(svg)]) == 0
    diagram = layout(history, n)
    assert svg.read_text() == svg_string(diagram) == render_oracle.svg_string(diagram)
    assert main(["trace", *argv, "--out", str(trace)]) == 0
    want = trace_to_json(history) + "\n"
    assert want == json.dumps([{"reads": list(t.reads), "write": t.write, "depth": d}
                               for t, d in infer_depths(history)], indent=2) + "\n"
    assert trace.read_text() == want
    assert main(["trace", *argv]) == 0
    assert capsys.readouterr().out == want


def test_a_writer_that_fails_midway_leaves_no_file(tmp_path, capsys, monkeypatch):
    def fails_after_one_piece(*args):
        yield "<svg"
        raise ValueError("the writer failed")

    fresh, kept = tmp_path / "fresh.svg", tmp_path / "kept.svg"
    kept.write_text("old")
    for out in (fresh, kept):
        with pytest.raises(ValueError, match="the writer failed"):
            _atomic_write(str(out), fails_after_one_piece())
    monkeypatch.setattr(render, "_svg", fails_after_one_piece)
    for out in (fresh, kept):
        assert main(["render", "--kernel", "serial", "--n", "4", "--out", str(out)]) == 2
        assert "the writer failed" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["kept.svg"]
    assert kept.read_text() == "old"


def test_render_streams_in_bounded_memory(tmp_path):
    # The document was built whole before it was written: more than twice
    # its 80 MB at n=65536. Streamed, a block of gates is held at a time.
    out = tmp_path / "bk.svg"
    tracemalloc.start()
    try:
        assert main(["render", "--kernel", "brent-kung", "--n", "65536", "--out", str(out)]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = out.stat().st_size
    assert size > 75_000_000
    assert peak < size / 4
