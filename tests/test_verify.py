import copy
import functools
import itertools
import json
import pickle
import random
from itertools import accumulate
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scanforge.cli import main
from scanforge.kernels import (
    BRENT_KUNG,
    BRENT_KUNG_8,
    SERIAL,
    ContractError,
    ScanKernel,
    _kernel_plan,
    _replay,
    _segments,
    scan_brent_kung,
    scan_serial,
    scan_then_fan_kernel,
)
from scanforge.ops import builtin_ops
from scanforge.stores import ListStore
from scanforge import verify
from scanforge.tracing import Transaction, _columns, _depths, _trace_rows, run_traced
from scanforge.verify import (
    IDENTITY,
    Range,
    RaceReport,
    TOP,
    _interval_columns,
    _plan_races,
    _race_check,
    _serial_report,
    expected_intervals,
    interval_plus,
    race_check_history,
    seed_intervals,
    verify_parallel,
    verify_race_free,
    verify_serial,
)
from mutants import ALL as MUTANTS, CONTRACT_BREACHES
from test_executors import oblivious, updates
from test_tracing import EDGE_PLANS, every_kernel, kernel_plans, plans

# verify_parallel's JSON for the mutants and `scanforge verify`'s stdout and exit
# code for the built-in kernels, as the Range replay alone produced them.
GRID = json.loads((Path(__file__).parent / "goldens" / "verify_grid.json").read_text())


def all_intervals(max_index=6):
    ranges = [
        Range(lo, hi)
        for lo in range(1, max_index + 1)
        for hi in range(lo, max_index + 1)
    ]
    return ranges + [IDENTITY, TOP]


def dispatch_table_plus(a, b):
    """Independent oracle: the operator as an overload table.

    Methods are (signature, implementation) pairs; the most specific
    applicable method wins, with the (any, any) -> TOP case as catch-all.
    """

    def is_range(x):
        return isinstance(x, Range)

    methods = [
        # (left predicate, right predicate, specificity, impl)
        (is_range, is_range, 2,
         lambda x, y: Range(x.lo, y.hi) if x.hi + 1 == y.lo else TOP),
        (lambda x: x is IDENTITY, lambda y: y is IDENTITY, 2, lambda x, y: IDENTITY),
        (lambda x: True, lambda y: y is IDENTITY, 1, lambda x, y: x),
        (lambda x: x is IDENTITY, lambda y: True, 1, lambda x, y: y),
        (lambda x: True, lambda y: True, 0, lambda x, y: TOP),
    ]
    applicable = [(spec, impl) for lp, rp, spec, impl in methods if lp(a) and rp(b)]
    best = max(spec for spec, _ in applicable)
    winners = [impl for spec, impl in applicable if spec == best]
    assert len(winners) == 1, "ambiguous dispatch"
    return winners[0](a, b)


def test_contiguous_ranges_join():
    assert interval_plus(Range(1, 2), Range(3, 5)) == Range(1, 5)


def test_identity_is_neutral():
    for x in (Range(2, 4), TOP, IDENTITY):
        assert interval_plus(IDENTITY, x) == x
        assert interval_plus(x, IDENTITY) == x


def test_noncontiguous_is_top():
    assert interval_plus(Range(1, 2), Range(4, 5)) is TOP
    assert interval_plus(Range(3, 4), Range(3, 4)) is TOP


def test_top_absorbs():
    assert interval_plus(TOP, Range(1, 1)) is TOP
    assert interval_plus(Range(1, 1), TOP) is TOP
    assert interval_plus(TOP, TOP) is TOP
    assert interval_plus(TOP, IDENTITY) is TOP


def test_sentinels_are_themselves_after_copy_and_pickle():
    for sentinel in (IDENTITY, TOP):
        assert copy.copy(sentinel) is sentinel
        assert copy.deepcopy([sentinel])[0] is sentinel
        assert pickle.loads(pickle.dumps(sentinel)) is sentinel
    assert (repr(IDENTITY), repr(TOP)) == ("ID", "TOP")


def test_range_requires_ordered_bounds():
    with pytest.raises(ValueError):
        Range(3, 2)


def test_dispatch_table_agreement_every_cell():
    elems = all_intervals(6)
    for a, b in itertools.product(elems, repeat=2):
        assert interval_plus(a, b) == dispatch_table_plus(a, b)


def test_monoid_laws_exhaustive():
    elems = all_intervals(6)
    for x in elems:
        assert interval_plus(IDENTITY, x) == x == interval_plus(x, IDENTITY)
        assert interval_plus(TOP, x) is TOP
        assert interval_plus(x, TOP) is TOP
    for a, b, c in itertools.product(elems, repeat=3):
        left = interval_plus(interval_plus(a, b), c)
        right = interval_plus(a, interval_plus(b, c))
        assert left == right


def test_serial_kernel_on_intervals_matches_stated_answer():
    store = ListStore(seed_intervals(3))
    SERIAL(store, interval_plus)
    assert store.to_list() == [Range(1, 1), Range(1, 2), Range(1, 3)]


def test_verify_serial_accepts_correct_kernels():
    assert verify_serial(SERIAL, 10).ok
    assert verify_serial(BRENT_KUNG_8, 8).ok
    for n in range(1, 65):
        assert verify_serial(BRENT_KUNG, n).ok


def test_verify_serial_fixed_kernel_seed():
    report = verify_serial(BRENT_KUNG_8, 8)
    assert report.output == expected_intervals(8)


def test_verify_serial_flags_buggy_kernel():
    report = verify_serial(MUTANTS["wrong-offset"], 4)
    assert not report.ok
    assert report.first_top is not None
    assert TOP in report.output


def test_verify_race_free_standard_kernels():
    assert verify_race_free(BRENT_KUNG, 8).ok
    for n in (1, 5, 17, 64):
        assert verify_race_free(SERIAL, n).ok
        assert verify_race_free(BRENT_KUNG, n).ok


def test_race_conflict_reported_for_double_write():
    # two same-stage transactions both touching index 4
    history = [Transaction((3, 4), 4), Transaction((5, 6), 4)]
    report = race_check_history(history)
    assert not report.ok
    assert report.conflicting == (1, 2)


def test_verify_parallel_composition():
    assert verify_parallel(BRENT_KUNG, 8).ok
    assert verify_parallel(scan_then_fan_kernel(3), 12).ok
    report = verify_parallel(MUTANTS["wrong-offset"], 4)
    assert not report.ok


@pytest.mark.parametrize("fn", CONTRACT_BREACHES)
@pytest.mark.parametrize("as_kernel", [False, True], ids=["callable", "ScanKernel"])
def test_verify_raises_on_contract_breach(fn, as_kernel):
    # The stray read used to pass as ok=True through a 3-read transaction.
    kernel = ScanKernel(fn.__name__, fn) if as_kernel else fn
    with pytest.raises(ContractError):
        verify_serial(kernel, 3)
    with pytest.raises(ContractError):
        verify_parallel(kernel, 3)


def test_verify_parallel_runs_the_kernel_code_once():
    calls = []

    def counted(store, op):
        calls.append(len(store))
        return scan_serial(store, op)

    for kernel in (ScanKernel("counted", counted), counted):  # cached plan, plain callable
        calls.clear()
        assert verify_parallel(kernel, 37).ok
        assert calls == [37]


def test_verify_parallel_json_shape():
    report = verify_parallel(BRENT_KUNG, 16)
    data = json.loads(report.to_json())
    assert list(data.keys()) == ["kernel", "n", "ok", "first_top", "conflicts"]
    assert data["ok"] is True


def test_soundness_cross_check():
    # verify_serial ok  <=>  concrete output equals the serial oracle.
    # The concrete operator must be noncommutative for the backward
    # direction to bite (transposed operands are invisible to addition).
    from scanforge.ops import matmul

    op = matmul(2)
    rng = random.Random(11)

    def rand_matrix():
        return tuple(tuple(rng.randrange(1, 5) for _ in range(2)) for _ in range(2))

    kernels = [SERIAL, BRENT_KUNG, scan_then_fan_kernel(2)] + list(MUTANTS.values())
    for kernel in kernels:
        for n in (1, 2, 7, 8, 16, 32):
            vals = [rand_matrix() for _ in range(n)]
            got = ListStore(vals)
            kernel(got, op)
            concrete_ok = got.to_list() == list(accumulate(vals, op))
            assert verify_serial(kernel, n).ok == concrete_ok, (kernel, n)


def test_verify_rejects_n_zero():
    with pytest.raises(ValueError):
        verify_serial(SERIAL, 0)


SIZES = (1, 2, 3, 5, 8, 33, 100, 257)
SCANS = [scan_serial, scan_brent_kung, *MUTANTS.values(), *map(scan_then_fan_kernel, range(1, 10))]


def twice(first, second):
    """A kernel running first and then second on the same store."""
    def kernel(store, op):
        return second(first(store, op), op)
    return kernel


def gather(triples):
    """A kernel making the given (a, b, w) updates d[w] = op(d[a], d[b]), in order."""
    def kernel(store, op):
        for a, b, w in triples:
            store.put(w, op(store.get(a), store.get(b)))
        return store
    return kernel


def runs(n):
    """Runs of updates (a + k*da, b + k*db, w + k*dw), each cut where it leaves 1..n."""
    step = st.integers(-2, 2)
    run = st.tuples(*[st.integers(1, n)] * 3, step, step, step, st.integers(1, n))
    return st.lists(run, max_size=4).map(lambda runs: [
        (a + k * da, b + k * db, w + k * dw)
        for a, b, w, da, db, dw, count in runs for k in range(count)
        if all(0 < x <= n for x in (a + k * da, b + k * db, w + k * dw))])


def columns_are_the_range_replay(kernel, n):
    """The lo and hi columns hold the Range replay's output, or are None
    exactly when the Range replay makes a TOP."""
    columns = _interval_columns(_kernel_plan(kernel, n), n)
    serial = verify_serial(kernel, n)
    if columns is None:
        return serial.first_top is not None
    return serial.first_top is None and serial.output == list(map(Range, *columns))


@pytest.mark.parametrize("n", SIZES + (4099,))  # 4099: a chain longer than one pass
@pytest.mark.parametrize("k", range(len(SCANS)))
def test_column_proof_agrees_with_the_range_replay(k, n):
    assert columns_are_the_range_replay(SCANS[k], n)


@pytest.mark.parametrize("kernel, n", [
    (twice(scan_serial, scan_serial), 9),  # the first join of a chain fails
    (twice(oblivious([(3, 4)]), scan_serial), 4),  # the last join of a chain fails
    (twice(oblivious([(3, 4)]), scan_brent_kung), 8),  # the first join of an alias-free pass fails
    (gather([(1, 2, 4), (2, 3, 5)]), 6),  # an alias-free pass writes past its second reads
    (MUTANTS["transposed-operands"], 5),  # a loop pass joins 2:2 onto 1:1
    (gather([(1, 2, 3)]), 3),  # a loop pass writes past its second read
    (MUTANTS["wrong-offset"], 2),  # no update, and 2:2 is not 1:2
], ids=["chain-first", "chain-last", "alias-free-first", "alias-free-apart", "loop",
        "loop-apart", "end"])
def test_columns_follow_the_range_replay_through_each_kind_of_pass(kernel, n):
    assert columns_are_the_range_replay(kernel, n)
    assert not verify_parallel(kernel, n).ok


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_column_proof_is_the_range_replay_on_random_kernels(data):
    n = data.draw(st.sampled_from(SIZES) | st.integers(1, 70), label="n")
    part = st.sampled_from(SCANS) | updates(n).map(oblivious) | runs(n).map(gather)
    parts = data.draw(st.lists(part, min_size=1, max_size=3), label="parts")
    assert columns_are_the_range_replay(functools.reduce(twice, parts), n)


def row_loop(reads, writes, depths):
    """The race check row by row: the first row to touch an index that an
    earlier row of its stage touched conflicts with that row."""
    seen, level = {}, None
    for ordinal, (r, w, depth) in enumerate(zip(reads, writes, depths), start=1):
        if depth != level:
            seen, level = {}, depth
        for idx in set(r) | {w}:
            if idx in seen:
                return RaceReport(False, (seen[idx], ordinal))
            seen[idx] = ordinal
    return RaceReport(True)


cell = st.integers(1, 12)


@given(st.lists(st.tuples(st.tuples(cell, cell), cell, st.booleans())))
@settings(max_examples=300, deadline=None)
def test_staged_race_check_is_the_row_loop(rows):
    reads = [r for r, _, _ in rows]
    writes = [w for _, w, _ in rows]
    depths = list(accumulate(new for _, _, new in rows))  # stages of consecutive rows
    firsts, seconds = [a for a, _ in reads], [b for _, b in reads]
    assert _race_check(firsts, seconds, writes, depths) == row_loop(reads, writes, depths)


def row_race_check(plan):
    """The race check of the plan's columns, staged by the stage rule on rows."""
    columns = _columns(plan)
    return _race_check(*columns, _depths(*columns))


@given(plans())
@settings(max_examples=500, deadline=None)
def test_the_segment_race_check_is_the_row_race_check_on_random_plans(plan):
    assert _plan_races(plan) == row_race_check(plan)


@every_kernel
def test_the_segment_race_check_is_the_row_race_check_on_every_kernel(kernel):
    for plan in kernel_plans(kernel):
        assert _plan_races(plan) == row_race_check(plan)


def test_the_segment_race_check_follows_stages_across_segments():
    reports = [_plan_races(plan) for plan in EDGE_PLANS]
    assert reports == list(map(row_race_check, EDGE_PLANS))
    assert reports[-1] == RaceReport(False, (2, 3))


def test_a_passing_kernel_is_proved_without_its_columns(monkeypatch):
    # Only a stage with a repeated cell is built into columns, and no stage
    # of a built-in kernel has one.
    def no_columns(plan):
        raise AssertionError(f"columns built for {len(plan)} segments")

    monkeypatch.setattr(verify, "_columns", no_columns)
    monkeypatch.setattr(verify, "_depths", no_columns)
    for kernel in (SERIAL, BRENT_KUNG, scan_then_fan_kernel(3), scan_then_fan_kernel(8)):
        for n in (1, 2, 7, 64, 1000, 4099):
            assert verify_parallel(kernel, n).ok
    assert verify_parallel(BRENT_KUNG_8, 8).ok
    with pytest.raises(AssertionError, match="columns built for 1 segments"):
        verify_parallel(gather([(1, 2, 2), (3, 4, 2)]), 4)  # one stage writes cell 2 twice


def test_mutant_reports_match_the_golden():
    for key, want in GRID["mutant_reports"].items():
        name, n = key.rsplit("/", 1)
        assert verify_parallel(MUTANTS[name], int(n)).to_json() == want, key


def test_cli_verify_matches_the_golden(capsys):
    for key, want in GRID["cli_verify"].items():
        kernel, n, chunks = key.split("/")
        code = main(["verify", "--kernel", kernel, "--n", n, "--chunks", chunks])
        assert (capsys.readouterr().out, code) == (want["stdout"], want["exit"]), key


def test_the_interval_check_is_complete_on_random_trace_files():
    # On every update stream that a trace file can hold, the column check,
    # the Range replay and a concatenation of distinct letters agree: the
    # interval check is complete for two-read updates (Chong, Donaldson and
    # Ketema, POPL 2014). Random streams of at most 10 updates on n <= 6
    # cells are about 1.7% correct scans; the built-in kernels' traces all are.
    rng = random.Random(1)
    files = [(n, [{"reads": [rng.randint(1, n), rng.randint(1, n)], "write": rng.randint(1, n)}
                  for _ in range(rng.randint(0, 10))])
             for n in (rng.randint(1, 6) for _ in range(6000))]
    files += [(n, [{"reads": list(t.reads), "write": t.write} for t in run_traced(kernel, n)])
              for kernel in (SERIAL, BRENT_KUNG, scan_then_fan_kernel(2)) for n in range(1, 7)]
    concat, verdicts = builtin_ops()["concat"], []
    for n, rows in files:
        firsts, seconds, writes = _trace_rows(json.dumps(rows), n)
        plan = _segments([(a - 1, b - 1, w - 1) for a, b, w in zip(firsts, seconds, writes)], n)
        by_columns = _interval_columns(plan, n) == ([1] * n, list(range(1, n + 1)))
        letters = [chr(ord("a") + k) for k in range(n)]
        words = list(letters)
        _replay(plan, words, concat)
        by_words = words == list(accumulate(letters))
        assert by_columns == _serial_report(plan, "trace", n).ok == by_words, (n, rows)
        verdicts.append(by_columns)
    assert True in verdicts[:6000] and all(verdicts[6000:])
