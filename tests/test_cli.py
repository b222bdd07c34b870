import csv
import json
import re
import threading

import pytest

from scanforge.cli import UsageError, _parse_p_range, main, parse_elements
from scanforge.runtime import MAX_WORKERS
from scanforge.verify import IDENTITY, Range


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
    assert main(["trace", "--kernel", "brent-kung", "--n", "8",
                 "--out", str(trace_path)]) == 0
    assert main(["render", "--kernel", "brent-kung", "--n", "8",
                 "--out", str(direct)]) == 0
    assert main(["render", "--trace", str(trace_path), "--n", "8",
                 "--out", str(via)]) == 0
    assert direct.read_bytes() == via.read_bytes()


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
    "--op-cost=inf", "--op-cost=1e309", "--op-cost=nan", "--op-cost=-1",
    "--op-cost=inf --virtual-clock", "--op-cost=1e309 --virtual-clock",
    "--op-cost=nan --virtual-clock",
])
def test_bench_refuses_bad_op_cost(capsys, flags):
    # inf used to overflow in time.sleep or int(); -1 failed only in a worker.
    before = threading.active_count()
    assert main(["bench", "--p-range", "4", "--trials", "1"] + flags.split()) == 2
    assert "op_cost" in capsys.readouterr().err
    assert threading.active_count() == before


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
