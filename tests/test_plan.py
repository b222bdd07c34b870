"""A ScanKernel called on a ListStore replays a cached plan of its update
stream; every other store gets the kernel's own get/put stream. The replay
runs a segment as C-level passes where that makes the same operator calls
as the per-update loop."""

import random
import threading
from collections import Counter
from itertools import accumulate
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scanforge import kernels
from scanforge.kernels import (
    BRENT_KUNG,
    BRENT_KUNG_8,
    SERIAL,
    ContractError,
    ScanKernel,
    _join,
    _plan,
    _record,
    _replay,
    _run_pass,
    _segment_path,
    _segments,
    _updates,
    chunk_schedule,
    get_kernel,
    iceil_log2,
    scan_serial,
)
from scanforge.ops import builtin_ops
from scanforge.runtime import run_parallel
from scanforge.stores import ListStore
from scanforge.tracing import run_traced
from scanforge.verify import verify_parallel

import mutants
from mutants import transposed_operands
from test_executors import oblivious, updates

OPS = builtin_ops()


def random_element(op_name, rng):
    if op_name == "concat":
        return rng.choice("abcdef")
    if op_name == "matmul2":
        return tuple(tuple(rng.randrange(-3, 4) for _ in range(2)) for _ in range(2))
    return rng.randrange(-100, 100)


@given(st.sampled_from(["serial", "brent-kung", "brent-kung-8", "scan-then-fan"]),
       st.sampled_from(["add", "concat", "matmul2"]),
       st.integers(min_value=0, max_value=300),
       st.integers(min_value=1, max_value=12),
       st.randoms(use_true_random=False))
@settings(max_examples=150, deadline=None)
def test_replay_equals_get_put_stream_and_oracle(name, op_name, n, chunks, rng):
    kernel = get_kernel(name, chunks)
    if kernel.fixed_length is not None:
        n = kernel.fixed_length
    op = OPS[op_name]
    values = [random_element(op_name, rng) for _ in range(n)]
    want = list(accumulate(values, op))
    assert kernel.fn(ListStore(values), op).to_list() == want

    _plan.cache_clear()
    assert kernel(ListStore(values), op).to_list() == want  # records the plan
    hits = _plan.cache_info().hits
    assert kernel(ListStore(values), op).to_list() == want  # replays it
    assert _plan.cache_info().hits == hits + 1


@pytest.mark.parametrize("n", [0, 1, 2, 7, 100])
def test_replay_keeps_each_update_s_operands_apart(n):
    # Reads (i, i-1) then writes i: the update's second read is not its write.
    kernel = ScanKernel("transposed", transposed_operands)
    values = [chr(ord("a") + i % 26) for i in range(n)]
    want = transposed_operands(ListStore(values), OPS["concat"]).to_list()
    assert kernel(ListStore(values), OPS["concat"]).to_list() == want
    assert kernel(ListStore(values), OPS["concat"]).to_list() == want


class UnhashableSerial:
    __hash__ = None

    def __call__(self, store, op):
        return scan_serial(store, op)


def test_kernel_fn_need_not_be_hashable():
    kernel = ScanKernel("unhashable", UnhashableSerial())
    assert kernel(ListStore([1, 2, 3]), OPS["add"]).to_list() == [1, 3, 6]
    assert kernel(ListStore([1, 2, 3]), OPS["add"]).to_list() == [1, 3, 6]


def nested_three_reads(store, op):
    store.put(3, op(op(store.get(1), store.get(2)), store.get(3)))
    return store


def nested_two_reads(store, op):
    a, b = store.get(1), store.get(2)
    store.put(2, op(op(a, b), b))
    return store


def stray_get_first(store, op):
    store.get(3)
    return scan_serial(store, op)


def stray_get_last(store, op):
    scan_serial(store, op)
    store.get(3)
    return store


def operands_out_of_read_order(store, op):
    for i in range(2, len(store) + 1):
        left, right = store.get(i - 1), store.get(i)
        store.put(i, op(right, left))
    return store


def put_without_op(store, op):
    store.put(2, store.get(1))
    return store


@pytest.mark.parametrize("fn", [nested_three_reads, nested_two_reads, stray_get_first,
                                stray_get_last, operands_out_of_read_order,
                                put_without_op])
def test_contract_breach_raises_before_any_write(fn):
    store = ListStore(["a", "b", "c"])
    with pytest.raises(ContractError):
        ScanKernel(fn.__name__, fn)(store, OPS["concat"])
    assert store.to_list() == ["a", "b", "c"]


def read_past_end(store, op):
    for i in range(2, len(store) + 2):
        store.put(i, op(store.get(i - 1), store.get(i)))
    return store


def write_index_zero(store, op):
    store.put(0, op(store.get(1), store.get(2)))
    return store


@pytest.mark.parametrize("fn", [read_past_end, write_index_zero])
def test_out_of_range_kernel_raises_index_error(fn):
    with pytest.raises(IndexError):
        ScanKernel(fn.__name__, fn)(ListStore([1, 2, 3]), OPS["add"])


def first_update_reads(index):
    """A serial scan whose first update, a segment's first, reads index for cell 1."""
    def fn(store, op):
        store.put(2, op(store.get(index), store.get(2)))
        for i in range(3, len(store) + 1):
            store.put(i, op(store.get(i - 1), store.get(i)))
        return store
    return fn


def second_update_reads(index):
    """Two updates whose second, the one that fixes the segment's steps, reads
    index for cell 1."""
    def fn(store, op):
        store.put(2, op(store.get(1), store.get(2)))
        store.put(4, op(store.get(index), store.get(4)))
        return store
    return fn


@pytest.mark.parametrize("index", [1.0, 1.5, True], ids=["1.0", "1.5", "True"])
@pytest.mark.parametrize("kernel", [first_update_reads, second_update_reads])
def test_an_index_that_is_not_an_int_breaks_the_contract(kernel, index):
    # 1.0 used to enter the plan: run_traced gave reads (1.0, 2), and
    # verify_parallel and run_parallel ended in "list indices must be integers".
    fn = kernel(index)
    before = threading.active_count()
    for call in (lambda: run_traced(fn, 4), lambda: verify_parallel(fn, 4),
                 lambda: run_parallel(fn, [1, 2, 3, 4], OPS["add"], 2),
                 lambda: ScanKernel("k", fn)(ListStore([1, 2, 3, 4]), OPS["add"])):
        with pytest.raises(ContractError, match="has an index that is not an int"):
            call()
    assert threading.active_count() == before
    good = kernel(1)
    assert run_parallel(good, [1, 2, 3, 4], OPS["add"], 2) == \
        ScanKernel("k", good)(ListStore([1, 2, 3, 4]), OPS["add"]).to_list()


def test_other_stores_get_the_kernels_own_stream():
    class CountingStore(ListStore):
        gets = 0

        def get(self, i):
            self.gets += 1
            return super().get(i)

    store = CountingStore([1, 2, 3, 4])
    assert SERIAL(store, OPS["add"]).to_list() == [1, 3, 6, 10]
    assert store.gets == 6


def test_plans_are_run_length():
    n = 4096
    assert len(_plan(SERIAL, n)) == 1
    assert len(_plan(BRENT_KUNG, n)) <= 2 * iceil_log2(n)
    assert len(_plan(get_kernel("scan-then-fan", 8), n)) <= 3 * 8


def test_scan_then_fan_kernel_is_memoised():
    assert get_kernel("scan-then-fan", 8) is get_kernel("scan-then-fan", 8)


def test_chunk_schedule_is_the_brent_kung_trace():
    assert chunk_schedule(8) == [(t.reads[0], t.write) for t in run_traced(BRENT_KUNG, 8)]


def replay_oracle(plan, data, op):
    """The plan's updates, one at a time, straight from the segment definition."""
    for a, b, w, da, db, dw, count in plan:
        for k in range(count):
            data[w + k * dw] = op(data[a + k * da], data[b + k * db])


class LoggingAdd:
    """Float addition that logs each call's operands by identity: an input
    by its position, a result by the ordinal of the call that made it."""

    def __init__(self, inputs):
        self.names = {id(x): ("in", i) for i, x in enumerate(inputs)}
        self.alive = list(inputs)  # no id is reused while the log is compared
        self.log = []

    def __call__(self, x, y):
        self.log.append((self.names[id(x)], self.names[id(y)]))
        result = x + y
        assert id(result) not in self.names
        self.names[id(result)] = ("call", len(self.log))
        self.alive.append(result)
        return result

    def name_all(self, values):
        return [self.names[id(v)] for v in values]


def check_replay_against_oracle(plan, n, seed):
    rng = random.Random(seed)
    inputs = [rng.uniform(-1, 1) * 10 ** rng.randrange(-8, 9) for _ in range(n)]
    runs = []
    for replay in (_replay, replay_oracle):
        data, op = list(inputs), LoggingAdd(inputs)
        replay(plan, data, op)
        runs.append((data, op.log, op.name_all(data)))
    (got, got_log, got_names), (want, want_log, want_names) = runs
    assert got_log == want_log  # the same operands, in the same order
    assert got_names == want_names
    assert got == want  # floats compared exactly


# Hand-built segments (a, b, w, da, db, dw, count) over n = 40 cells, one per path.
SEGMENTS = {
    "unit chain": ((0, 1, 1, 1, 1, 1, 39), "chain"),
    "step-0 read below (fan-out)": ((4, 5, 5, 0, 1, 1, 20), "alias-free"),
    "step-0 read above": ((39, 0, 0, 0, 2, 2, 19), "alias-free"),
    "same step, no alias (brent-kung level)": ((0, 1, 1, 2, 2, 2, 20), "alias-free"),
    "same step, trailing by a non-multiple": ((0, 3, 3, 2, 2, 2, 18), "alias-free"),
    "same step, alias": ((4, 30, 5, 1, 0, 1, 20), "loop"),
    "b trails the writes": ((30, 4, 5, 0, 1, 1, 20), "loop"),
    "reads above the writes": ((20, 30, 0, 1, 1, 1, 10), "alias-free"),
    "reads of later writes": ((1, 2, 0, 1, 1, 1, 38), "alias-free"),
    "negative steps": ((30, 31, 31, -1, -1, -1, 5), "loop"),
    "one update": ((0, 1, 1, 0, 0, 0, 1), "loop"),
}


@pytest.mark.parametrize("pass_size", [3, kernels._PASS])
@pytest.mark.parametrize("label", list(SEGMENTS))
def test_replay_runs_each_hand_built_segment_like_the_loop(label, pass_size):
    segment, path = SEGMENTS[label]
    assert _segment_path(*segment) == path
    with mock.patch.object(kernels, "_PASS", pass_size):
        check_replay_against_oracle((segment,), 40, seed=len(label))


@st.composite
def segments(draw, n):
    """Any segment whose cells all lie in range(n)."""
    count = draw(st.integers(1, n))
    starts = []
    for _ in range(3):
        step = draw(st.integers(-4, 4))
        lo = max(0, -step * (count - 1))
        hi = min(n - 1, n - 1 - step * (count - 1))
        if lo > hi:
            step, lo, hi = 0, 0, n - 1
        starts.append((draw(st.integers(lo, hi)), step))
    (a, da), (b, db), (w, dw) = starts
    return a, b, w, da, db, dw, count


@given(st.lists(segments(24), max_size=4), st.sampled_from([2, 3, kernels._PASS]),
       st.integers(0, 2**32))
@settings(max_examples=300, deadline=None)
def test_replay_runs_random_segments_like_the_loop(plan, pass_size, seed):
    with mock.patch.object(kernels, "_PASS", pass_size):
        check_replay_against_oracle(tuple(plan), 24, seed)


@given(st.integers(1, 12).flatmap(lambda n: st.tuples(st.just(n), st.lists(segments(n), max_size=5))),
       st.data())
@settings(max_examples=300, deadline=None)
def test_joined_runs_are_the_plan_the_recorder_records(n_plan, data):
    # Each segment cut into runs at random points: the join must merge the
    # runs of one segment again, and runs of segments that continue each
    # other, or whose first update extends a one-update segment, as the
    # recorder does one update at a time.
    n, plan = n_plan
    runs = []
    for a, b, w, da, db, dw, count in plan:
        cuts = sorted(data.draw(st.sets(st.integers(1, count - 1), max_size=3), label="cuts")
                      if count > 1 else ())
        for lo, hi in zip([0, *cuts], [*cuts, count]):
            runs.append((a + lo * da, b + lo * db, w + lo * dw, da, db, dw, hi - lo))
    assert _join(runs) == _segments(_updates(tuple(runs)), n)


@given(st.integers(0, 40).flatmap(lambda n: st.tuples(st.just(n), updates(n))),
       st.integers(0, 2**32))
@settings(max_examples=150, deadline=None)
def test_replay_runs_random_oblivious_kernels_like_the_loop(n_updates, seed):
    n, kernel_updates = n_updates
    with mock.patch.object(kernels, "_PASS", 3):
        check_replay_against_oracle(_record(oblivious(kernel_updates), n), n, seed)


@pytest.mark.parametrize("name", sorted(mutants.ALL))
@pytest.mark.parametrize("n", [1, 2, 9, 64, 100])
def test_replay_runs_mutant_kernels_like_the_loop(name, n):
    check_replay_against_oracle(_record(mutants.ALL[name], n), n, seed=n)


@pytest.mark.parametrize("name, chunks", [("serial", 1), ("brent-kung", 1),
                                          ("scan-then-fan", 8), ("scan-then-fan", 64)])
def test_built_in_kernels_replay_like_the_loop(name, chunks):
    kernel = get_kernel(name, chunks)
    check_replay_against_oracle(_plan(kernel, 5000), 5000, seed=chunks)


@pytest.mark.parametrize("name, chunks, paths", [
    ("serial", 1, {"chain": 1}),
    ("brent-kung", 1, {"alias-free": 29, "loop": 1}),
    ("scan-then-fan", 8, {"chain": 8, "alias-free": 11}),
    ("scan-then-fan", 64, {"chain": 64, "alias-free": 120}),
])
def test_segment_paths_at_65536(name, chunks, paths):
    plan = _plan(get_kernel(name, chunks), 65536)
    assert Counter(_segment_path(*segment) for segment in plan) == paths
    # Only a segment that the rule must leave to the loop stays there: in
    # brent-kung, the reduce tree's last update and the broadcast tree's first
    # make one two-update segment with negative steps.
    loop = [s for s in plan if _segment_path(*s) == "loop"]
    assert all(count == 1 or min(da, db, dw) < 0 for *_, da, db, dw, count in loop)


class Raised(Exception):
    pass


@pytest.mark.parametrize("kernel", [SERIAL, BRENT_KUNG, BRENT_KUNG_8,
                                    get_kernel("scan-then-fan", 8)], ids=lambda k: k.name)
@pytest.mark.parametrize("fail_at", [1, 2, 5, 7])
def test_operator_error_propagates_from_replay(kernel, fail_at):
    n = kernel.fixed_length or 100
    error, calls = Raised(), []

    def failing(x, y):
        calls.append(None)
        if len(calls) == fail_at:
            raise error
        return x + y

    store = ListStore(range(n))
    with pytest.raises(Raised) as info:
        kernel(store, failing)
    assert info.value is error
    assert len(calls) == fail_at
    # Every replay path writes the results of the calls before the failing one,
    # as the per-update loop stopped there would.
    want = list(range(n))
    for (j, k, i), _ in zip(_updates(_plan(kernel, n)), range(fail_at - 1)):
        want[i] = want[j] + want[k]
    assert store.to_list() == want


@pytest.mark.parametrize("label", list(SEGMENTS))
def test_a_failed_pass_holds_the_loop_s_writes_and_counts_its_calls(label):
    # One runner for all three paths: if the operator raises, data holds what
    # the per-update loop wrote before the failing call, and out one result
    # per call that finished.
    segment, path = SEGMENTS[label]
    for fail_at in range(1, segment[-1] + 2):  # the last: no call fails
        data, out, calls = list(range(40)), [], []

        def failing(x, y):
            calls.append(None)
            if len(calls) == fail_at:
                raise Raised()
            return x + y

        try:
            _run_pass(data, failing, out, path, *segment)
        except Raised:
            pass
        want = list(range(40))
        for (j, k, i), _ in zip(_updates((segment,)), range(fail_at - 1)):
            want[i] = want[j] + want[k]
        assert (data, len(out)) == (want, min(fail_at - 1, segment[-1]))
