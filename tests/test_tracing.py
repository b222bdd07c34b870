import json
import random
from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mutants
from scanforge.kernels import (
    BRENT_KUNG,
    BRENT_KUNG_8,
    KERNEL_NAMES,
    SERIAL,
    ContractError,
    ScanKernel,
    _kernel_plan,
    _segments,
    get_kernel,
    scan_then_fan_kernel,
)
from scanforge.render import layout
from scanforge.stores import ListStore
from scanforge.tracing import (
    Transaction,
    _columns,
    _depths,
    _plan_depths,
    dag_depths,
    infer_depths,
    max_depth,
    run_traced,
    trace_from_json,
    trace_to_json,
)
from scanforge.verify import race_check_history
from trace_oracle import UNIT, TraceStore, placeholder_op, replay


def test_get_records_reads_in_order():
    s = TraceStore(8)
    assert s.get(3) is UNIT
    assert s.pending_reads == [3]
    s.get(5)
    assert s.pending_reads == [3, 5]


def test_get_bounds_checked():
    s = TraceStore(4)
    with pytest.raises(IndexError):
        s.get(0)
    with pytest.raises(IndexError):
        s.get(5)
    with pytest.raises(IndexError):
        s.put(0, UNIT)


def test_put_closes_transaction():
    s = TraceStore(4)
    s.get(1)
    s.get(2)
    s.put(2, UNIT)
    assert s.history == [Transaction((1, 2), 2)]
    assert s.pending_reads == []


# Every reader of a history, each of which refuses a row without two reads.
HISTORY_READERS = [infer_depths, max_depth, trace_to_json, race_check_history,
                   lambda history: layout(history, 4)]


def test_put_with_no_reads_recorded():
    s = TraceStore(4)
    s.put(3, UNIT)
    assert s.history == [Transaction((), 3)]
    for reader in HISTORY_READERS:
        with pytest.raises(ValueError, match=r"trace row 2 reads \[\]"):
            reader([Transaction((1, 2), 2)] + s.history)


def test_placeholder_op_is_closed():
    assert placeholder_op(UNIT, UNIT) is UNIT


def test_serial_trace_of_4():
    assert run_traced(SERIAL, 4) == [
        Transaction((1, 2), 2),
        Transaction((2, 3), 3),
        Transaction((3, 4), 4),
    ]


def test_run_traced_counts():
    assert len(run_traced(SERIAL, 8)) == 7
    assert len(run_traced(BRENT_KUNG, 8)) == 11
    assert run_traced(SERIAL, 0) == []
    with pytest.raises(ValueError):
        run_traced(SERIAL, -1)


def test_trace_completeness_all_kernels():
    for kernel in (SERIAL, BRENT_KUNG, scan_then_fan_kernel(3)):
        for n in range(0, 65):
            history = run_traced(kernel, n)
            # each transaction is one operator application
            vals = list(range(n))
            calls = []

            def op(a, b):
                calls.append(1)
                return a + b

            kernel(ListStore(vals), op)
            assert len(history) == len(calls)


def test_infer_depths_serial():
    depths = [d for _, d in infer_depths(run_traced(SERIAL, 8))]
    assert depths == list(range(1, 8))


def test_infer_depths_brent_kung_8_rows():
    depths = [d for _, d in infer_depths(run_traced(BRENT_KUNG, 8))]
    assert depths == [1, 1, 1, 1, 2, 2, 3, 4, 5, 5, 5]


def test_single_transaction_depth():
    assert infer_depths([Transaction((1, 2), 2)]) == [(Transaction((1, 2), 2), 1)]


def test_depth_law_powers_of_two():
    import math

    for n in (4, 8, 16, 32, 64):
        want = int(math.log2(n)) + 1 + (n // 3).bit_length() - 1
        assert max_depth(run_traced(BRENT_KUNG, n)) == want
    assert max_depth(run_traced(BRENT_KUNG, 1)) == 0
    assert max_depth(run_traced(BRENT_KUNG, 2)) == 1


def test_replay_faithfulness():
    rng = random.Random(7)
    for kernel in (SERIAL, BRENT_KUNG, scan_then_fan_kernel(4)):
        for n in (0, 1, 5, 16, 33):
            vals = [rng.randrange(100) for _ in range(n)]
            got = replay(run_traced(kernel, n), vals, lambda a, b: a + b)
            assert got == list(accumulate(vals))


def test_json_roundtrip_and_key_order():
    history = run_traced(BRENT_KUNG, 8)
    text = trace_to_json(history)
    rows = json.loads(text)
    assert list(rows[0].keys()) == ["reads", "write", "depth"]
    assert trace_from_json(text) == history


def overall_depths(history):
    """The overall depth by the layout heuristic and by the dependency DAG."""
    heuristic = max((d for _, d in infer_depths(history)), default=0)
    dag = max((d for _, d in dag_depths(history)), default=0)
    return heuristic, dag


def test_dag_depths_agree_on_tree_and_serial_kernels():
    for kernel in (SERIAL, BRENT_KUNG, BRENT_KUNG_8):
        n = kernel.fixed_length or 24
        heuristic, dag = overall_depths(run_traced(kernel, n))
        assert heuristic == dag


def test_dag_depths_flag_chunked_kernel():
    # the layout heuristic serializes the fan phase that the dependency
    # DAG allows to run chunk-parallel, so the DAG is shallower
    heuristic, dag = overall_depths(run_traced(scan_then_fan_kernel(3), 24))
    assert dag < heuristic


def test_depths_disagree_on_independent_low_read():
    # second transaction reads below the last write but shares no cell
    history = [Transaction((3, 4), 4), Transaction((2, 5), 5)]
    assert [d for _, d in infer_depths(history)] == [1, 2]
    assert [d for _, d in dag_depths(history)] == [1, 1]
    assert overall_depths(history) == (2, 1)


@pytest.mark.parametrize("fn", mutants.CONTRACT_BREACHES)
@pytest.mark.parametrize("as_kernel", [False, True], ids=["callable", "ScanKernel"])
def test_run_traced_raises_on_contract_breach(fn, as_kernel):
    # The raw TraceStore records either breach as one 3-read transaction,
    # which no reader of a history accepts.
    history = fn(TraceStore(3), placeholder_op).history
    assert history[0].reads in {(1, 1, 2), (1, 2, 3)}
    for reader in HISTORY_READERS:
        with pytest.raises(ValueError, match=r"trace row 1 reads \[1, [12], [23]\]"):
            reader(history)
    with pytest.raises(ContractError):
        run_traced(ScanKernel(fn.__name__, fn) if as_kernel else fn, 3)


def two_read_histories(cells):
    """Histories whose every transaction reads two of the cells and writes one."""
    return st.lists(st.builds(Transaction, st.tuples(cells, cells), cells), max_size=40)


histories = two_read_histories(st.integers(1, 10**6))


def reference_depths(history):
    """infer_depths's stage rule, written with any() over the reads."""
    olast = depth = 0
    for t in history:
        if depth == 0 or any(r <= olast for r in t.reads):
            depth += 1
        yield t, depth
        olast = t.write


# Indices from a few cells, so that rows of one stage often share a cell.
crowded_histories = two_read_histories(st.integers(1, 8))


def reference_conflict(staged):
    """The race check written from reference_depths' stages: the ordinal of
    the first row that shares a cell with an earlier row of its stage, and the
    ordinals of those earlier rows; None when no such row exists."""
    cells = [set(t.reads) | {t.write} for t, _ in staged]
    for j, (_, d) in enumerate(staged):
        earlier = {i + 1 for i in range(j) if staged[i][1] == d and cells[i] & cells[j]}
        if earlier:
            return j + 1, earlier
    return None


@given(st.one_of(histories, crowded_histories))
@settings(max_examples=300, deadline=None)
def test_history_views_follow_the_stage_rule(history):
    staged = list(reference_depths(history))
    depths = [d for _, d in staged]
    assert infer_depths(history) == staged
    assert max_depth(history) == max(depths, default=0)
    width = max((max(t.reads + (t.write,)) for t in history), default=0)
    diagram = layout(history, width)
    assert [g.depth for g in diagram.gates] == depths
    assert diagram.max_depth == max(depths, default=0)
    report, conflict = race_check_history(history), reference_conflict(staged)
    assert report.ok == (conflict is None)
    if conflict is not None:
        assert report.conflicting[1] == conflict[0]
        assert report.conflicting[0] in conflict[1]


@given(histories)
@settings(max_examples=200, deadline=None)
def test_trace_to_json_is_json_dumps_with_indent(history):
    rows = [
        {"reads": list(t.reads), "write": t.write, "depth": d}
        for t, d in reference_depths(history)
    ]
    assert trace_to_json(history) == json.dumps(rows, indent=2)


@given(st.sampled_from(KERNEL_NAMES + tuple(mutants.ALL)),
       st.integers(min_value=0, max_value=300),
       st.integers(min_value=1, max_value=12))
@settings(max_examples=200, deadline=None)
def test_run_traced_equals_the_trace_store_run(name, n, chunks):
    if name in mutants.ALL:
        kernel = mutants.ALL[name]
    else:
        kernel = get_kernel(name, chunks)
        n = kernel.fixed_length or n
    assert run_traced(kernel, n) == kernel(TraceStore(n), placeholder_op).history


# Rows of two reads, and rows of 1 to 3 reads whose indices may break the row rule.
cell = st.integers(1, 8)
good_rows = st.builds(Transaction, st.tuples(cell, cell), cell)
index_or_not = st.one_of(cell, st.sampled_from([0, -5, True, 1.5]))
any_rows = st.builds(Transaction, st.lists(index_or_not, min_size=1, max_size=3).map(tuple),
                     index_or_not)


def first_bad_row(history):
    """The ordinal of the first row that does not read two cells or has an
    index that is not an int >= 1; None when every row keeps the rule."""
    return next((k for k, t in enumerate(history, start=1) if len(t.reads) != 2
                 or not all(type(i) is int and i >= 1 for i in (*t.reads, t.write))), None)


@given(st.lists(st.one_of(good_rows, any_rows), max_size=10))
@settings(max_examples=300, deadline=None)
def test_the_trace_writer_and_reader_agree(history):
    # trace_to_json([Transaction((0, -5), 3)]) used to write a file that
    # trace_from_json refused.
    text = json.dumps([{"reads": list(t.reads), "write": t.write} for t in history])
    bad = first_bad_row(history)
    if bad is None:
        assert trace_from_json(trace_to_json(history)) == history
        assert trace_from_json(text) == history
        return
    with pytest.raises(ValueError, match=rf"^trace row {bad} ") as written:
        trace_to_json(history)
    with pytest.raises(ValueError) as read:
        trace_from_json(text)
    assert str(read.value) == str(written.value)


@given(two_read_histories(cell), st.integers(0, 8))
@settings(max_examples=200, deadline=None)
def test_layout_refuses_an_index_outside_its_lines(history, n):
    # layout([Transaction((1, 9), 9)], 4) used to return a gate off its 4 lines.
    over = next((k for k, t in enumerate(history, start=1) if max(*t.reads, t.write) > n), None)
    if over is None:
        assert len(layout(history, n).gates) == len(history)
    else:
        complaint = rf"^trace row {over} uses index \d+, outside 1\.\.{n}$"
        with pytest.raises(ValueError, match=complaint):
            layout(history, n)


@st.composite
def plans(draw, max_n=24):
    """The plan (kernels._segments) of runs of updates (a + k*da, b + k*db,
    w + k*dw) on n cells, with steps from -3 to 3, each cut where it leaves
    the cells: negative, zero and positive steps, segments of one update, and
    stages that run on across the end of a segment."""
    n = draw(st.integers(1, max_n), label="n")
    cell, step = st.integers(0, n - 1), st.integers(-3, 3)
    runs = draw(st.lists(st.tuples(cell, cell, cell, step, step, step, st.integers(1, 10)),
                         max_size=6), label="runs")
    updates = [(a + k * da, b + k * db, w + k * dw)
               for a, b, w, da, db, dw, count in runs for k in range(count)
               if all(0 <= x < n for x in (a + k * da, b + k * db, w + k * dw))]
    return _segments(updates, n)


# Plans and their depths: one stage across three segments, the middle one of
# one row; zero steps; a segment whose rows 1..4 and 7..9 start stages and
# whose rows 5 and 6 do not; a stage from a segment's last row into the next.
EDGE_PLANS = {
    ((0, 1, 1, 2, 2, 2, 2), (4, 5, 5, 1, 1, 1, 1), (6, 7, 7, 2, 2, 2, 2)): [1, 1, 1, 1, 1],
    ((3, 3, 0, 0, 0, 1, 3), (0, 5, 5, 0, 0, 0, 2)): [1, 1, 1, 2, 3],
    ((5, 16, 10, 2, 0, 1, 10),): [1, 2, 3, 4, 5, 5, 5, 6, 7, 8],
    ((0, 1, 1, 1, 1, 1, 3), (4, 5, 5, 2, 2, 2, 2)): [1, 2, 3, 3, 3],
    ((0, 1, 1, 2, 2, 2, 2), (4, 5, 3, 1, 1, 1, 1)): [1, 1, 1],  # rows 2 and 3 write cell 3
}


def test_the_stage_reader_takes_stages_apart_across_segments():
    for plan, depths in EDGE_PLANS.items():
        assert _plan_depths(plan) == _depths(*_columns(plan)) == depths


@given(plans())
@settings(max_examples=500, deadline=None)
def test_the_stage_reader_is_the_stage_rule_on_random_plans(plan):
    assert _plan_depths(plan) == _depths(*_columns(plan))


# Each built-in kernel and each mutant, with its plans at n = 1..200 (or at
# the one length a kernel takes).
every_kernel = pytest.mark.parametrize(
    "kernel", [SERIAL, BRENT_KUNG, BRENT_KUNG_8, scan_then_fan_kernel(3), scan_then_fan_kernel(8)]
    + list(mutants.ALL.values()), ids=lambda k: getattr(k, "name", getattr(k, "__name__", "")))


def kernel_plans(kernel):
    sizes = [kernel.fixed_length] if getattr(kernel, "fixed_length", None) else range(1, 201)
    return [_kernel_plan(kernel, n) for n in sizes]


@every_kernel
def test_the_stage_reader_is_the_stage_rule_on_every_kernel(kernel):
    for plan in kernel_plans(kernel):
        assert _plan_depths(plan) == _depths(*_columns(plan))
