import random
from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scanforge.kernels import (
    BRENT_KUNG,
    BRENT_KUNG_8,
    SERIAL,
    get_kernel,
    iceil_log2,
    scan_brent_kung,
    scan_brent_kung_8,
    scan_serial,
    scan_then_fan,
    scan_then_fan_kernel,
)
from scanforge.ops import builtin_ops
from scanforge.stores import ListStore
from scanforge.tracing import run_traced


def oracle(values, op):
    """Independent oracle: plain left fold over a list."""
    return list(accumulate(values, op))


OPS = builtin_ops()


def random_element(op_name, rng):
    if op_name == "concat":
        return rng.choice("abcdef")
    if op_name == "matmul2":
        return tuple(
            tuple(rng.randrange(-3, 4) for _ in range(2)) for _ in range(2)
        )
    return rng.randrange(-100, 100)


def test_iceil_log2():
    assert [iceil_log2(n) for n in (0, 1, 2, 3, 4, 7, 8, 9, 1024, 1025)] == [
        0, 0, 1, 2, 2, 3, 3, 4, 10, 11,
    ]


def test_scan_serial_example():
    assert scan_serial(ListStore([1, 2, 3, 4]), OPS["add"]).to_list() == [1, 3, 6, 10]


def test_scan_serial_singleton_and_empty():
    assert scan_serial(ListStore([7]), OPS["add"]).to_list() == [7]
    assert scan_serial(ListStore([]), OPS["add"]).to_list() == []


def test_scan_serial_work_count():
    for n in (0, 1, 2, 5, 17):
        assert len(run_traced(SERIAL, n)) == max(n - 1, 0)


def test_brent_kung_8_ones():
    assert scan_brent_kung_8(ListStore([1] * 8), OPS["add"]).to_list() == list(
        range(1, 9)
    )


def test_brent_kung_8_rejects_other_lengths():
    with pytest.raises(ValueError):
        scan_brent_kung_8(ListStore([1] * 7), OPS["add"])


def test_brent_kung_8_issues_eleven_ops_in_listing_order():
    history = run_traced(BRENT_KUNG_8, 8)
    assert len(history) == 11
    assert [t.write for t in history] == [2, 4, 6, 8, 4, 8, 8, 6, 3, 5, 7]


def test_brent_kung_general_matches_fixed_at_8():
    assert run_traced(BRENT_KUNG, 8) == run_traced(BRENT_KUNG_8, 8)


def test_brent_kung_length_one_untouched():
    assert run_traced(BRENT_KUNG, 1) == []
    assert scan_brent_kung(ListStore([5]), OPS["add"]).to_list() == [5]


def test_brent_kung_random_length_13_max():
    rng = random.Random(13)
    vals = [rng.randrange(100) for _ in range(13)]
    got = scan_brent_kung(ListStore(vals), OPS["max"]).to_list()
    assert got == oracle(vals, max)


def test_scan_then_fan_example():
    got = scan_then_fan(ListStore([1] * 6), OPS["add"], 3)
    assert got.to_list() == [1, 2, 3, 4, 5, 6]


def test_scan_then_fan_chunks_one_trace_equals_serial():
    kernel = scan_then_fan_kernel(1)
    assert run_traced(kernel, 9) == run_traced(SERIAL, 9)


def test_scan_then_fan_chunks_equal_length():
    vals = list(range(5, 17))
    got = scan_then_fan(ListStore(vals), OPS["add"], len(vals))
    assert got.to_list() == oracle(vals, OPS["add"])


def test_scan_then_fan_rejects_bad_chunks():
    with pytest.raises(ValueError):
        scan_then_fan(ListStore([1, 2]), OPS["add"], 0)


@pytest.mark.parametrize("op_name", ["add", "max", "matmul2", "concat"])
@pytest.mark.parametrize("kernel_name", ["brent-kung", "scan-then-fan"])
def test_oracle_equivalence(op_name, kernel_name):
    op = OPS[op_name]
    rng = random.Random(hash((op_name, kernel_name)) & 0xFFFF)
    for n in range(0, 65):
        vals = [random_element(op_name, rng) for _ in range(n)]
        want = oracle(vals, op)
        if kernel_name == "scan-then-fan":
            for chunks in (1, 2, 3, 7):
                got = scan_then_fan(ListStore(vals), op, chunks).to_list()
                assert got == want
        else:
            assert scan_brent_kung(ListStore(vals), op).to_list() == want


@given(st.lists(st.integers(min_value=-10**6, max_value=10**6), max_size=64))
@settings(max_examples=80, deadline=None)
def test_brent_kung_property_add(vals):
    assert scan_brent_kung(ListStore(vals), OPS["add"]).to_list() == oracle(
        vals, OPS["add"]
    )


@given(st.lists(st.text(alphabet="xyz", max_size=2), max_size=40),
       st.integers(min_value=1, max_value=9))
@settings(max_examples=80, deadline=None)
def test_scan_then_fan_property_concat(vals, chunks):
    got = scan_then_fan(ListStore(vals), OPS["concat"], chunks).to_list()
    assert got == oracle(vals, OPS["concat"])


def test_left_operand_rule_all_kernels():
    for kernel, n in [(SERIAL, 23), (BRENT_KUNG, 23), (BRENT_KUNG_8, 8),
                      (scan_then_fan_kernel(3), 23)]:
        for t in run_traced(kernel, n):
            assert len(t.reads) == 2
            assert t.write == t.reads[1]
            assert t.reads[0] < t.reads[1]


def test_get_kernel_returns_one_object_per_chunk_count():
    # The kernels were an lru_cache of 64: after 64 other chunk counts
    # get_kernel gave a new object, which recorded its plans again.
    first = get_kernel("scan-then-fan", 1)
    others = [get_kernel("scan-then-fan", c) for c in range(2, 67)]
    assert get_kernel("scan-then-fan", 1) is first
    assert [get_kernel("scan-then-fan", c) for c in range(2, 67)] == others


def test_get_kernel_unknown():
    with pytest.raises(KeyError):
        get_kernel("kogge-stone")
