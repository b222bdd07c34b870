"""Reference for the dependency walk: the schedule and the DAG depths as
they were before kernels._walk, kept verbatim, with the task graph that
computed its own depth.

Tests require runtime._schedule to give the same nodes and depth, and
tracing.dag_depths the same depths. Only the standard library and the
package are imported, so the comparison also runs without pytest.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Iterable

from scanforge.kernels import _PLAN_CACHE_SIZE, Plan, _updates
from scanforge.runtime import TaskNode
from scanforge.tracing import Transaction


class CycleError(RuntimeError):
    pass


@dataclass(frozen=True, slots=True)
class TaskGraph:
    """Tasks in plan order and their depth: the longest dependency chain,
    in tasks. A task may depend only on earlier tasks (else CycleError)."""

    nodes: tuple[TaskNode, ...] = ()
    depth: int = field(init=False)

    def __post_init__(self):
        nodes = tuple(self.nodes)
        chain: dict[int, int] = {}  # longest chain ending at each task
        for node in nodes:
            for d in node.deps:
                if d >= node.ordinal:
                    raise CycleError(f"task {node.ordinal} depends on non-earlier task {d}")
            chain[node.ordinal] = 1 + max((chain[d] for d in node.deps), default=0)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "depth", max(chain.values(), default=0))

    def __len__(self) -> int:
        return len(self.nodes)


@functools.lru_cache(maxsize=_PLAN_CACHE_SIZE)
def _schedule(plan: Plan, n: int, workers: int) -> TaskGraph:
    """The plan's task graph on FIFO workers: the one statement of the
    dependency rule. Cached on the plan's value, so equal plans share one
    immutable graph.

    Each worker owns one block of the cells: cell i is owned by worker
    (i-1) // ceil(n/workers) + 1 until an update writes it. Update k is task
    k, on the owner of its right read, and its write moves the cell to that
    worker. Task k depends on the last task to touch each of its cells and on
    its worker's previous task.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    size = -(-n // workers)
    owner = [i // size + 1 for i in range(n)]
    toucher = [0] * n  # last task to touch each cell
    last_on: dict[int, int] = {}  # last task of each worker
    nodes: list[TaskNode] = []
    for k, (a, b, w) in enumerate(_updates(plan), start=1):
        o = owner[b]
        deps = {toucher[a], toucher[b], toucher[w], last_on.get(o, 0)}
        deps.discard(0)
        nodes.append(TaskNode(k, o, tuple(sorted(deps))))
        toucher[a] = toucher[b] = toucher[w] = last_on[o] = k
        owner[w] = o
    return TaskGraph(nodes)


def dag_depths(history: Iterable[Transaction]) -> list[tuple[Transaction, int]]:
    """Depth of each transaction as the longest path in the access-order DAG.

    Each transaction depends on the most recent earlier transaction that
    touched (read or wrote) any of its indices; this is the dependency
    granule the parallel executor honors.
    """
    last: dict[int, int] = {}
    depths: list[int] = []
    out = []
    for ordinal, t in enumerate(history):
        cells = set(t.reads) | {t.write}
        deps = [last[c] for c in cells if c in last]
        d = 1 + max((depths[j] for j in deps), default=0)
        depths.append(d)
        out.append((t, d))
        for c in cells:
            last[c] = ordinal
    return out
