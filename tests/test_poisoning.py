"""A failed threaded run behaves like a per-update reference with poison
keyed by cell: a failed call poisons its output cell, a poisoned input passes
its error on without a call, a cell that gets a good value is clean again,
and the run raises the error of the lowest cell whose final value is
poisoned."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mutants
from test_plan import segments
from scanforge.kernels import KERNEL_NAMES, ScanKernel, _kernel_plan, _updates, get_kernel
from scanforge.runtime import run_parallel


class Failed(Exception):
    pass


def concat(x, y):
    return x + y


def reference(kernel, values, op):
    """The plan's updates one at a time on a copy of values: the scan, or
    the error of the lowest poisoned final cell."""
    data, errors = list(values), {}
    for j, k, i in _updates(_kernel_plan(kernel, len(values))):
        if j in errors or k in errors:
            errors[i] = errors[j] if j in errors else errors[k]
            continue
        try:
            data[i] = op(data[j], data[k])
        except Failed as exc:
            errors[i] = exc
        else:
            errors.pop(i, None)
    return errors[min(errors)] if errors else data


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


@given(st.sampled_from(("random",) + KERNEL_NAMES + tuple(mutants.ALL)),
       st.integers(min_value=0, max_value=40),
       st.integers(min_value=1, max_value=12),
       st.integers(min_value=1, max_value=4),
       st.data())
@settings(max_examples=300, deadline=None)
def test_failed_run_follows_the_per_update_reference(name, n, chunks, workers, data):
    if name == "random":
        kernel = oblivious(data.draw(any_updates(n), label="updates"))
        if data.draw(st.booleans(), label="as ScanKernel"):
            kernel = ScanKernel("random", kernel)
    elif name in mutants.ALL:
        kernel = mutants.ALL[name]
    else:
        kernel = get_kernel(name, chunks)
        n = kernel.fixed_length or n
    values = [chr(0x100 + i) for i in range(n)]  # distinct, so a pair names its call
    pairs = []
    reference(kernel, values, lambda x, y: pairs.append((x, y)) or x + y)
    bad = set()
    if pairs:  # so that two failures can meet, or one can be overwritten
        bad = set(data.draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=2),
                            label="failing pairs"))

    def op(x, y):
        if (x, y) in bad:
            raise Failed(x, y)
        return x + y

    want = reference(kernel, values, op)
    if isinstance(want, Failed):
        with pytest.raises(Failed) as info:
            run_parallel(kernel, values, op, workers)
        assert info.value.args == want.args
    else:
        assert run_parallel(kernel, values, op, workers) == want


@pytest.mark.parametrize("updates, bad, want", [
    # cell 2 fails, then gets cell 1 + cell 3 in a one-update loop pass;
    # cell 3 fails and stays failed
    ([(1, 2, 2), (1, 3, 2), (2, 3, 3)], {("a", "b"), ("ac", "c")}, Failed("ac", "c")),
    # cell 2 fails, then an alias-free pass writes cells 2 and 3 from 1 and 4
    ([(1, 2, 2), (3, 3, 3), (1, 4, 2), (1, 4, 3)], {("a", "b")}, ["a", "ad", "ad", "d"]),
    # a chain fails at cell 3; cell 4 passes the error on, then is overwritten
    ([(1, 2, 2), (2, 3, 3), (3, 4, 4), (1, 2, 4)], {("ab", "c")}, Failed("ab", "c")),
    # the same, with cells 3 and 4 overwritten from clean cells afterwards
    ([(1, 2, 2), (2, 3, 3), (3, 4, 4), (1, 2, 3), (1, 2, 4)], {("ab", "c")},
     ["a", "ab", "aab", "aab"]),
], ids=["loop", "alias-free", "chain", "chain-overwritten"])
def test_a_cell_overwritten_with_a_good_value_is_clean_again(updates, bad, want):
    kernel = oblivious(updates)
    values = ["a", "b", "c", "d"]

    def op(x, y):
        if (x, y) in bad:
            raise Failed(x, y)
        return x + y

    assert repr(reference(kernel, values, op)) == repr(want)
    for workers in (1, 2, 3):
        if isinstance(want, Failed):
            with pytest.raises(Failed) as info:
                run_parallel(kernel, values, op, workers)
            assert info.value.args == want.args
        else:
            assert run_parallel(kernel, values, op, workers) == want
