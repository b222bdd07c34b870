"""Every executor follows one failure rule: a run whose operator raises
raises the error of the first failed call of the kernel's own get/put
stream, and a run without a failure returns that stream's scan. The
threaded run may still make calls on cells that the failure does not
reach, but never on a value that a failed call should have made."""

import random
import sys
import threading
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mutants
from test_executors import PlainStore
from test_plan import segments
from scanforge.kernels import BRENT_KUNG, KERNEL_NAMES, SERIAL, ScanKernel, get_kernel
from scanforge.runtime import run_parallel, run_virtual
from scanforge.stores import ListStore


class Failed(Exception):
    pass


def failing_concat(bad):
    """Concatenation that raises Failed(x, y) on each pair (x, y) in bad."""

    def op(x, y):
        if (x, y) in bad:
            raise Failed(x, y)
        return x + y

    return op


def outcome(run):
    """("returned", the list run() gives) or ("raised", the Failed's args)."""
    try:
        return "returned", list(run())
    except Failed as exc:
        return "raised", exc.args


def outcomes(kernel, values, op, workers):
    """What the kernel's own stream on a plain store, the plan replay, the
    virtual clock and the threaded run give, in that order."""
    return [outcome(lambda: kernel(PlainStore(values), op).data),
            outcome(lambda: kernel(ListStore(values), op).to_list()),
            outcome(lambda: run_virtual(kernel, values, op, workers).results),
            outcome(lambda: run_parallel(kernel, values, op, workers))]


def stream_pairs(kernel, values):
    """The operand pairs of the clean run, in the kernel's own order."""
    pairs = []
    kernel(PlainStore(values), lambda x, y: pairs.append((x, y)) or x + y)
    return pairs


def oblivious(updates):
    """A kernel making the given (a, b, w) updates: w need not be a or b."""

    def kernel(store, op):
        for a, b, w in updates:
            store.put(w, op(store.get(a), store.get(b)))
        return store

    return kernel


@st.composite
def any_updates(draw, n):
    """(a, b, w) updates over cells 1..n: single ones, and runs that replay
    as chains or alias-free passes, so that a pass can fail part way."""
    if n < 1:
        return []
    out = []
    for a, b, w, da, db, dw, count in draw(st.lists(segments(n), max_size=6)):
        out += [(a + k * da + 1, b + k * db + 1, w + k * dw + 1) for k in range(count)]
        if draw(st.booleans()):  # a unit chain, as in a scan
            lo = draw(st.integers(1, n))
            out += [(i - 1, i, i) for i in range(lo + 1, draw(st.integers(lo, n)) + 1)]
    return out


@st.composite
def kernels_and_values(draw):
    """A built-in, mutant or random oblivious kernel and distinct string
    values for it, so that an operand pair names its call."""
    name = draw(st.sampled_from(("random",) + KERNEL_NAMES + tuple(mutants.ALL)))
    n = draw(st.integers(min_value=0, max_value=40))
    if name == "random":
        kernel = oblivious(draw(any_updates(n), label="updates"))
        if draw(st.booleans(), label="as ScanKernel"):
            kernel = ScanKernel("random", kernel)
    elif name in mutants.ALL:
        kernel = mutants.ALL[name]
    else:
        kernel = get_kernel(name, draw(st.integers(min_value=1, max_value=12)))
        n = kernel.fixed_length or n
    return kernel, [chr(0x100 + i) for i in range(n)]


@given(kernels_and_values(), st.integers(min_value=1, max_value=4), st.data())
@settings(max_examples=300, deadline=None)
def test_every_executor_raises_the_first_failed_call(kernel_values, workers, data):
    kernel, values = kernel_values
    pairs = stream_pairs(kernel, values)
    # none, one or two failing pairs: so that two failures can meet, or a
    # failed cell can be overwritten
    bad = set(data.draw(st.lists(st.sampled_from(pairs), max_size=2), label="failing pairs")
              if pairs else ())
    got = outcomes(kernel, values, failing_concat(bad), workers)
    assert got == [got[0]] * 4


@given(kernels_and_values(), st.integers(min_value=1, max_value=4), st.data())
@settings(max_examples=150, deadline=None)
def test_a_failed_threaded_run_calls_only_on_the_clean_run_s_operands(
        kernel_values, workers, data):
    kernel, values = kernel_values
    pairs = stream_pairs(kernel, values)
    if not pairs:
        return
    bad = set(data.draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=2),
                        label="failing pairs"))
    calls = []
    fail = failing_concat(bad)

    def op(x, y):
        calls.append((x, y))
        return fail(x, y)

    with pytest.raises(Failed):
        run_parallel(kernel, values, op, workers)
    assert not Counter(calls) - Counter(pairs)


@pytest.mark.parametrize("updates, bad, first", [
    # cell 2 fails, then gets cell 1 + cell 3 in a one-update loop pass;
    # the call that would fail on cell 3 never runs
    ([(1, 2, 2), (1, 3, 2), (2, 3, 3)], {("a", "b"), ("ac", "c")}, ("a", "b")),
    # cell 2 fails, then an alias-free pass writes cells 2 and 3 from 1 and 4
    ([(1, 2, 2), (3, 3, 3), (1, 4, 2), (1, 4, 3)], {("a", "b")}, ("a", "b")),
    # a chain fails at cell 3; cell 4, which its failure reaches, is overwritten
    ([(1, 2, 2), (2, 3, 3), (3, 4, 4), (1, 2, 4)], {("ab", "c")}, ("ab", "c")),
    # the same, with cells 3 and 4 overwritten from clean cells afterwards
    ([(1, 2, 2), (2, 3, 3), (3, 4, 4), (1, 2, 3), (1, 2, 4)], {("ab", "c")}, ("ab", "c")),
], ids=["loop", "alias-free", "chain", "chain-overwritten"])
def test_a_failed_call_is_raised_though_its_cell_is_overwritten(updates, bad, first):
    # The threaded run used to return a scan when every failed cell was
    # overwritten (chain-overwritten: ['a', 'ab', 'aab', 'aab']).
    kernel, op = oblivious(updates), failing_concat(bad)
    for workers in (1, 2, 3):
        assert outcomes(kernel, ["a", "b", "c", "d"], op, workers) == [("raised", first)] * 4


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_of_two_failures_the_first_in_plan_order_is_raised(workers):
    # Brent-kung at n=8 fails on ("g", "h"), cell 8's first update, and on
    # ("ab", "c"), the broadcast into cell 3. The threaded run used to raise
    # ("ab", "c"), the error of the lowest failed cell.
    op = failing_concat({("g", "h"), ("ab", "c")})
    assert outcomes(BRENT_KUNG, list("abcdefgh"), op, workers) == [("raised", ("g", "h"))] * 4


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("bad, first", [
    ({("a", "b"), ("e", "f")}, ("a", "b")),
    ({("e", "f"), ("ab", "c")}, ("e", "f")),
], ids=["calling-thread-first", "pool-thread-first"])
def test_a_failure_on_the_calling_thread_is_ordered_with_the_others(workers, bad, first):
    # The calling thread runs worker 1's program: on 2 workers ("a", "b") and
    # ("ab", "c") are its calls and ("e", "f") is a pool thread's.
    op = failing_concat(bad)
    assert outcomes(BRENT_KUNG, list("abcdefgh"), op, workers) == [("raised", first)] * 4


def test_failed_runs_under_frequent_thread_switches():
    # Random failing runs with a tiny switch interval: a worker that ran a
    # call before the task it depends on, or skipped the first failed call,
    # would raise another error here; one that waited on a lock never
    # released would hang.
    rng = random.Random(20)
    kernels = (SERIAL, BRENT_KUNG, get_kernel("scan-then-fan", 5))
    mismatches = []

    def run():
        for _ in range(60):
            kernel, n, workers = rng.choice(kernels), rng.randint(1, 200), rng.randint(1, 4)
            values = [chr(0x100 + i) for i in range(n)]
            pairs = stream_pairs(kernel, values)
            op = failing_concat(set(rng.sample(pairs, min(len(pairs), rng.randint(1, 4)))))
            want = outcome(lambda: kernel(ListStore(values), op).to_list())
            if outcome(lambda: run_parallel(kernel, values, op, workers)) != want:
                mismatches.append((kernel.name, n, workers))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        caller = threading.Thread(target=run, daemon=True)
        caller.start()
        caller.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not caller.is_alive(), "a failed run hung"
    assert mismatches == []
