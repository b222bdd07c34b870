"""Reference for runtime._programs: the cut of each worker's steps as it was
when a task graph was a tuple of TaskNodes, kept verbatim but for reading
the nodes from graph.nodes and keeping no cache. It cuts a program for every
worker, one that owns no cell too.

Tests require runtime._programs to give the same programs, for the workers
that own a cell, and the same number of locks.
"""

from __future__ import annotations

from scanforge.kernels import Plan, _passes, _segments, _updates
from scanforge.runtime import _schedule


def _programs(plan: Plan, n: int, workers: int) -> tuple[tuple, int]:
    """Each worker's tasks in the plan's task graph as steps (waits, passes,
    release), and the number of locks: one per task that another worker waits
    for. A step starts at a task that waits on another worker's and ends after
    a task that another worker's waits on; waits and release are lock indices."""
    nodes = _schedule(plan, n, workers).nodes
    waits: dict[int, tuple[int, ...]] = {}  # task -> the locks it waits on
    lock: dict[int, int] = {}  # lock index of each task that another worker needs
    for node in nodes:
        if needs := [lock.setdefault(d, len(lock)) for d in node.deps
                     if nodes[d - 1].owner != node.owner]:
            waits[node.ordinal] = tuple(needs)
    steps: list[list] = [[] for _ in range(workers + 1)]  # [waits, updates, release]
    for node, update in zip(nodes, _updates(plan)):
        k, mine = node.ordinal, steps[node.owner]
        if k in waits or not mine or mine[-1][2] is not None:
            mine.append([waits.get(k, ()), [], None])
        mine[-1][1].append(update)
        if k in lock:
            mine[-1][2] = lock[k]
    programs = tuple(tuple((ws, tuple(_passes(_segments(ups, n))), release)
                           for ws, ups, release in mine) for mine in steps[1:])
    return programs, len(lock)
