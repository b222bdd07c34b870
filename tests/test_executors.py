"""Every executor of a kernel gives the same scan: the threaded run, the
virtual clock, plan replay on a ListStore and the kernel's own get/put
stream; the threaded run's task graph is the virtual clock's."""

from hypothesis import given, settings
from hypothesis import strategies as st

import mutants
from scanforge.kernels import KERNEL_NAMES, ScanKernel, get_kernel
from scanforge.ops import builtin_ops
from scanforge.runtime import (
    build_task_graph,
    critical_path,
    run_parallel_detailed,
    run_virtual,
)
from scanforge.stores import ListStore

CONCAT = builtin_ops()["concat"]


class PlainStore:
    """Not a ListStore, so a ScanKernel runs its get/put stream on it."""

    def __init__(self, values):
        self.data = list(values)

    def __len__(self):
        return len(self.data)

    def get(self, i):
        return self.data[i - 1]

    def put(self, i, v):
        self.data[i - 1] = v


def oblivious(updates):
    """A kernel making the given (j, i) updates, j < i, in order."""

    def kernel(store, op):
        for j, i in updates:
            store.put(i, op(store.get(j), store.get(i)))
        return store

    return kernel


def updates(n):
    if n < 2:
        return st.just([])
    update = st.integers(2, n).flatmap(lambda i: st.tuples(st.integers(1, i - 1), st.just(i)))
    return st.lists(update, max_size=3 * n)


@given(st.sampled_from(("random",) + KERNEL_NAMES + tuple(mutants.ALL)),
       st.integers(min_value=0, max_value=64),
       st.integers(min_value=1, max_value=12),
       st.integers(min_value=1, max_value=4),
       st.data())
@settings(max_examples=150, deadline=None)
def test_every_executor_agrees(name, n, chunks, workers, data):
    if name == "random":
        kernel = oblivious(data.draw(updates(n), label="updates"))
        if data.draw(st.booleans(), label="as ScanKernel"):
            kernel = ScanKernel("random", kernel)
    elif name in mutants.ALL:
        kernel = mutants.ALL[name]
    else:
        kernel = get_kernel(name, chunks)
        n = kernel.fixed_length or n
    values = [chr(0x100 + i) for i in range(n)]  # distinct, so concat shows order

    stream = kernel(PlainStore(values), CONCAT).data
    assert kernel(ListStore(values), CONCAT).to_list() == stream
    assert run_virtual(kernel, values, CONCAT, workers).results == stream
    results, graph = run_parallel_detailed(kernel, values, CONCAT, workers)
    assert results == stream
    assert graph.nodes == build_task_graph(kernel, n, workers).nodes
    assert critical_path(graph) == run_virtual(kernel, values, CONCAT, workers).ticks
