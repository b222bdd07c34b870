"""A ScanKernel called on a ListStore replays a cached plan of its update
stream; every other store gets the kernel's own get/put stream."""

import random
from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scanforge.kernels import (
    BRENT_KUNG,
    SERIAL,
    ContractError,
    ScanKernel,
    _plan,
    chunk_schedule,
    get_kernel,
    iceil_log2,
    scan_serial,
)
from scanforge.ops import builtin_ops
from scanforge.stores import ListStore
from scanforge.tracing import run_traced

from mutants import transposed_operands

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
