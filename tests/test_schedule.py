"""The schedule's dependency rule: task k depends on the last task to touch
each of its cells and on its worker's previous task. It used to depend on
the producer of the value it overwrites too; the last toucher of that cell
implies that edge, so dropping it changes no depth and adds no wait."""

from operator import add

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mutants
import programs_oracle
from test_failures import any_updates, oblivious
from scanforge.kernels import (BRENT_KUNG, KERNEL_NAMES, SERIAL, _kernel_plan, _updates,
                               get_kernel, scan_then_fan_kernel)
from scanforge.runtime import (WORKERS_ENV, _programs, _schedule, bench, build_task_graph,
                               run_virtual)


def three_part_rule(kernel, n, workers):
    """The depth of the earlier rule's schedule, one update at a time, and
    the tasks that another worker waits on in it. Each worker starts with
    one block of the cells, and a write moves its cell to the writer."""
    size = -(-n // workers)
    owner = [i // size + 1 for i in range(n)]
    toucher, producer, last_on = [0] * n, [0] * n, {}
    worker, chain, waited = [0], [0], set()  # per task, from task 1
    for k, (a, b, w) in enumerate(_updates(_kernel_plan(kernel, n)), start=1):
        o = owner[b]
        deps = {toucher[a], toucher[b], toucher[w], last_on.get(o, 0), producer[w]} - {0}
        chain.append(1 + max((chain[d] for d in deps), default=0))
        waited |= {d for d in deps if worker[d] != o}
        worker.append(o)
        toucher[a] = toucher[b] = toucher[w] = last_on[o] = producer[w] = k
        owner[w] = o
    return max(chain), waited


def waited_on(graph):
    owner = {node.ordinal: node.owner for node in graph.nodes}
    return {d for node in graph.nodes for d in node.deps if owner[d] != node.owner}


@given(st.sampled_from(("random",) + KERNEL_NAMES + tuple(mutants.ALL)),
       st.integers(min_value=0, max_value=40),
       st.integers(min_value=1, max_value=12),
       st.data())
@settings(max_examples=400, deadline=None)
def test_schedule_keeps_the_depth_of_the_three_part_rule(name, n, chunks, data):
    if name == "random":
        kernel = oblivious(data.draw(any_updates(n), label="updates"))
    elif name in mutants.ALL:
        kernel = mutants.ALL[name]
    else:
        kernel = get_kernel(name, chunks)
        n = kernel.fixed_length or n
    workers = data.draw(st.integers(min_value=1, max_value=n + 1), label="workers")
    graph = build_task_graph(kernel, n, workers)
    depth, waited = three_part_rule(kernel, n, workers)
    assert graph.depth == depth
    assert waited_on(graph) <= waited
    assert _programs(_kernel_plan(kernel, n), n, workers)[1] == len(waited_on(graph))


@pytest.mark.parametrize("kernel, workers, locks", [
    (SERIAL, 2, 1), (BRENT_KUNG, 2, 1), (scan_then_fan_kernel(8), 2, 1),
    (SERIAL, 8, 7), (BRENT_KUNG, 8, 15), (scan_then_fan_kernel(8), 8, 12),
], ids=["serial-2", "brent-kung-2", "scan-then-fan-2", "serial-8", "brent-kung-8",
        "scan-then-fan-8"])
def test_built_in_kernels_wait_on_as_few_tasks_as_before(kernel, workers, locks):
    graph = _schedule(_kernel_plan(kernel, 1024), 1024, workers)
    made = _programs(_kernel_plan(kernel, 1024), 1024, workers)[1]
    assert made == len(waited_on(graph)) == len(three_part_rule(kernel, 1024, workers)[1])
    assert made == locks


def test_virtual_callers_cut_no_worker_programs(monkeypatch):
    # The schedule used to cut every worker's steps for the virtual clock too.
    monkeypatch.delenv(WORKERS_ENV, raising=False)
    before = _programs.cache_info()
    run_virtual(BRENT_KUNG, list(range(1, 778)), add, 5)
    build_task_graph(SERIAL, 779, 6)
    bench(SERIAL, BRENT_KUNG, [37], op_cost=1, trials=1, virtual=True)
    assert _programs.cache_info() == before


@pytest.mark.parametrize("kernel", [SERIAL, BRENT_KUNG, get_kernel("brent-kung-8"),
                                    scan_then_fan_kernel(3), scan_then_fan_kernel(8),
                                    *mutants.ALL.values()],
                         ids=["serial", "brent-kung", "brent-kung-8", "scan-then-fan-3",
                              "scan-then-fan-8", *mutants.ALL])
def test_programs_equal_the_cut_from_task_nodes(kernel):
    # The programs are now cut from the graph's columns, and only for the
    # workers that own a cell; the cut from TaskNodes gave the rest none.
    for n in range(1, 65):
        if getattr(kernel, "fixed_length", None) not in (None, n):
            continue
        plan = _kernel_plan(kernel, n)
        for workers in range(1, n + 2):
            held = len({i // -(-n // workers) for i in range(n)})  # workers that own a cell
            programs, locks = _programs(plan, n, workers)
            want, want_locks = programs_oracle._programs(plan, n, workers)
            assert (programs, locks) == (want[:held], want_locks)
            assert not any(want[held:])


@given(st.integers(min_value=1, max_value=24), st.data())
@settings(max_examples=200, deadline=None)
def test_programs_of_any_updates_equal_the_cut_from_task_nodes(n, data):
    # Writes that move cells between workers cut a step's updates into runs
    # of one update, which the join must merge as the recorder would.
    plan = _kernel_plan(oblivious(data.draw(any_updates(n), label="updates")), n)
    workers = data.draw(st.integers(min_value=1, max_value=n + 1), label="workers")
    held = len({i // -(-n // workers) for i in range(n)})  # workers that own a cell
    want, want_locks = programs_oracle._programs(plan, n, workers)
    assert _programs(plan, n, workers) == (want[:held], want_locks)


def test_equal_layouts_share_one_cache_entry():
    # 4096 and 5000 workers both give each of 4096 workers one cell; the
    # cache used to build and keep the same graph under each count.
    _schedule.cache_clear()
    graph = build_task_graph(BRENT_KUNG, 4096, 4096)
    assert _schedule.cache_info().entries == 1
    assert build_task_graph(BRENT_KUNG, 4096, 5000) is graph
    assert _schedule.cache_info().entries == 1
    plan = _kernel_plan(BRENT_KUNG, 4096)
    assert _programs(plan, 4096, 5000) is _programs(plan, 4096, 4096)


@pytest.mark.parametrize("kernel", [SERIAL, BRENT_KUNG, scan_then_fan_kernel(8)],
                         ids=["serial", "brent-kung", "scan-then-fan-8"])
def test_a_worker_count_builds_the_graph_of_the_workers_that_own_a_cell(kernel):
    build = _schedule.__wrapped__  # uncached, so each count builds its own graph
    for n in range(1, 65):
        plan = _kernel_plan(kernel, n)
        for workers in range(1, n + 4):
            owning = len({i // -(-n // workers) for i in range(n)})
            got, want = build(plan, n, workers), build(plan, n, owning)
            assert (got.owners, got.starts, got.deps, got.depth) == \
                (want.owners, want.starts, want.deps, want.depth), (n, workers)
