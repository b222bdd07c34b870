"""The one dependency walk (kernels._walk) gives the answers of the code it
replaced: runtime._schedule's nodes and depth, and tracing.dag_depths, equal
those of walk_oracle, which keeps the earlier versions verbatim."""

from hypothesis import given, settings
from hypothesis import strategies as st

import mutants
import walk_oracle
from test_poisoning import any_updates, oblivious
from scanforge.kernels import KERNEL_NAMES, _kernel_plan, get_kernel
from scanforge.runtime import _schedule
from scanforge.tracing import Transaction, dag_depths


@given(st.sampled_from(("random",) + KERNEL_NAMES + tuple(mutants.ALL)),
       st.integers(min_value=0, max_value=40),
       st.integers(min_value=1, max_value=12),
       st.data())
@settings(max_examples=400, deadline=None)
def test_schedule_equals_the_earlier_schedule(name, n, chunks, data):
    if name == "random":
        kernel = oblivious(data.draw(any_updates(n), label="updates"))
    elif name in mutants.ALL:
        kernel = mutants.ALL[name]
    else:
        kernel = get_kernel(name, chunks)
        n = kernel.fixed_length or n
    workers = data.draw(st.integers(min_value=1, max_value=n + 1), label="workers")
    plan = _kernel_plan(kernel, n)
    got, want = _schedule(plan, n, workers), walk_oracle._schedule(plan, n, workers)
    assert got.nodes == want.nodes
    assert got.depth == want.depth


cells = st.integers(min_value=-5, max_value=20)
transactions = st.builds(Transaction, st.lists(cells, max_size=3).map(tuple), cells)


@given(st.lists(transactions, max_size=30))
@settings(max_examples=400, deadline=None)
def test_dag_depths_equal_the_earlier_dag_depths(history):
    # Any int is a cell, a negative one too: none may stand for another.
    assert dag_depths(history) == walk_oracle.dag_depths(history)
