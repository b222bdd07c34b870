"""Reference for run_virtual: the simulator it replaced, kept verbatim but
for two deletions and one addition. Its value ids are gone, and so is the
dependency on the producer of the overwritten value, which the last toucher
of that cell already implies. It now finds its graph's depth itself, since
a TaskGraph is given its depth. Its graph is its own nodes and depth, since
runtime's TaskGraph holds int columns.

It drives the kernel's own get/put stream through closures over
future-like cells and wires each task's dependencies as the put arrives.
Tests require run_virtual to give the same results, ticks and task nodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Sequence

from scanforge.kernels import ScanKernel
from scanforge.runtime import TaskNode, VirtualRun


@dataclass(frozen=True)
class TaskGraph:
    nodes: tuple[TaskNode, ...]
    depth: int


class _VirtualCell:
    __slots__ = ("value", "owner", "ready", "ordinal")

    def __init__(self, value, owner, ready=0, ordinal=None):
        self.value = value
        self.owner = owner
        self.ready = ready  # tick at which the value resolves
        self.ordinal = ordinal  # producing task, None for seeds


def run_virtual(
    kernel: ScanKernel | Callable,
    values: Sequence[Any],
    op: Callable,
    workers: int,
    op_cost: int = 1,
) -> VirtualRun:
    """Deterministic simulation of the threaded scheduler.

    Values are computed exactly as in the threaded run; completion ticks
    follow the same per-cell access-order dependencies plus per-worker FIFO
    order, with every operator application costing op_cost ticks.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    n = len(values)
    size = -(-n // workers)  # each worker owns one contiguous block of seeds
    cells = [
        _VirtualCell(v, i // size + 1) for i, v in enumerate(values)
    ]
    nodes: list[TaskNode] = []
    ready_of: dict[int, int] = {}  # task ordinal -> completion tick
    last_toucher: dict[int, int] = {}  # cell index -> task ordinal
    worker_free: dict[int, int] = {}  # worker id -> last task ordinal
    pending_reads: list[int] = []
    state = {"ticks": 0}

    class _VStore:
        def __len__(self):
            return n

        def get(self, i):
            if not 1 <= i <= n:
                raise IndexError(f"index {i} out of range 1..{n}")
            pending_reads.append(i)
            return cells[i - 1]

        def put(self, i, cell):
            if not 1 <= i <= n:
                raise IndexError(f"index {i} out of range 1..{n}")
            touched = set(pending_reads) | {i}
            pending_reads.clear()
            ordinal = cell.ordinal
            deps = sorted(
                {last_toucher[c] for c in touched if c in last_toucher}
                | ({worker_free[cell.owner]} if cell.owner in worker_free else set())
            )
            start = max((ready_of[d] for d in deps), default=0)
            cell.ready = start + op_cost
            ready_of[ordinal] = cell.ready
            state["ticks"] = max(state["ticks"], cell.ready)
            nodes[ordinal - 1] = TaskNode(ordinal, cell.owner, tuple(deps))
            for c in touched:
                last_toucher[c] = ordinal
            worker_free[cell.owner] = ordinal
            cells[i - 1] = cell

    def lifted(c1: _VirtualCell, c2: _VirtualCell) -> _VirtualCell:
        out = _VirtualCell(op(c1.value, c2.value), c2.owner)
        out.ordinal = len(nodes) + 1
        nodes.append(TaskNode(out.ordinal, out.owner, deps=()))
        return out

    kernel(_VStore(), lifted)
    chain = {0: 0}  # longest chain ending at each task
    for node in nodes:
        chain[node.ordinal] = 1 + max(chain[d] for d in (0,) + node.deps)
    graph = TaskGraph(tuple(nodes), max(chain.values()))
    return VirtualRun([c.value for c in cells], state["ticks"], graph)
