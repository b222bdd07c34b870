"""run_virtual reads its ticks and task graph from the plan's cached schedule;
it must agree exactly with the get/put simulator it replaced."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mutants
import virtual_oracle
from scanforge.kernels import (
    BRENT_KUNG,
    KERNEL_NAMES,
    ContractError,
    ScanKernel,
    get_kernel,
)
from scanforge.ops import builtin_ops
from scanforge.runtime import build_task_graph, critical_path, run_virtual

OPS = builtin_ops()


@given(st.sampled_from(KERNEL_NAMES + tuple(mutants.ALL)),
       st.integers(min_value=0, max_value=200),
       st.integers(min_value=1, max_value=12),
       st.integers(min_value=1, max_value=3),
       st.data())
@settings(max_examples=200, deadline=None)
def test_run_virtual_equals_the_simulator(name, n, chunks, op_cost, data):
    if name in mutants.ALL:
        kernel = mutants.ALL[name]
    else:
        kernel = get_kernel(name, chunks)
        n = kernel.fixed_length or n
    workers = data.draw(st.integers(min_value=1, max_value=n + 1), label="workers")
    values = [chr(ord("a") + i % 26) for i in range(n)]  # concat shows operand order
    got = run_virtual(kernel, values, OPS["concat"], workers, op_cost)
    want = virtual_oracle.run_virtual(kernel, values, OPS["concat"], workers, op_cost)
    assert got.results == want.results
    assert got.ticks == want.ticks
    assert got.graph.nodes == want.graph.nodes
    assert got.graph.depth == want.graph.depth
    assert got.ticks == critical_path(got.graph, op_cost)


def test_runs_share_no_mutable_state():
    # Every run reads the one cached graph, so the graph must be immutable.
    values = list(range(16))
    first = run_virtual(BRENT_KUNG, values, OPS["add"], 4)
    assert first.graph is build_task_graph(BRENT_KUNG, 16, 4)
    assert isinstance(first.graph.nodes, tuple)
    with pytest.raises(dataclasses.FrozenInstanceError):
        first.graph.nodes = ()
    with pytest.raises(dataclasses.FrozenInstanceError):
        first.graph.nodes[0].deps = (1,)
    for column in (first.graph.owners, first.graph.starts, first.graph.deps):
        with pytest.raises(TypeError):
            column[0] = column[0]
    first.results.clear()
    second = run_virtual(BRENT_KUNG, values, OPS["add"], 4)
    assert second.results == [sum(range(i + 1)) for i in range(16)]


@pytest.mark.parametrize("fn", mutants.CONTRACT_BREACHES)
@pytest.mark.parametrize("as_kernel", [False, True], ids=["callable", "ScanKernel"])
def test_contract_breach_raises(fn, as_kernel):
    # Both used to give a wrong schedule: the nested operator, 2 tasks in 1 tick.
    kernel = ScanKernel(fn.__name__, fn) if as_kernel else fn
    with pytest.raises(ContractError):
        run_virtual(kernel, [1, 2, 3], OPS["add"], 2)
    with pytest.raises(ContractError):
        build_task_graph(kernel, 3)


def test_workers_must_be_positive():
    with pytest.raises(ValueError, match="workers must be >= 1"):
        run_virtual(BRENT_KUNG, [1, 2], OPS["add"], 0)
