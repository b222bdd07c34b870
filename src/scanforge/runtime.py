"""Task-parallel execution of scan kernels from the plan's schedule.

A scan kernel is oblivious, so its checked plan fixes the whole task graph
before any value exists. `run_parallel` takes the plan's cached schedule
(the same one the virtual clock reads) and interprets it on worker threads:
each update is one task on the owner of its right operand, and every value
has one slot in a flat list indexed by the schedule's ids (seeds 1..n, task
k writes id n + k), so each slot is written once. Each worker runs its own
task list in plan order. A task waits on the locks of its dependencies on
other workers, each released once that task has run; those on its own
worker hold by list order. The scheduler is stage-synchronous at the
granularity of per-cell access order — a task runs only after every earlier
task that touched any of its cells — which makes the makespan equal the
critical path of the task graph and the measured speedup follow the
(p-1) / tree-depth model. A kernel that breaks the store contract raises
`ContractError` before any thread starts.

Workers are in-process threads, not OS processes; the wait on a
dependency, not the transport, is what matters here. At most MAX_WORKERS
threads run per cluster. A virtual-clock mode reads exact tick counts from
the same schedule without threads.
"""

from __future__ import annotations

import functools
import math
import os
import threading
import time
from dataclasses import dataclass, field
from fractions import Fraction
from queue import SimpleQueue
from typing import Any, Callable, Iterable, Sequence

from .kernels import _PLAN_CACHE_SIZE, Plan, ScanKernel, _kernel_plan, _replay, _updates

WORKERS_ENV = "SCANFORGE_WORKERS"

# Most worker threads one Cluster starts; bench's default --p-range tops out at 32.
MAX_WORKERS = 256

_STOP = object()


class _Worker:
    def __init__(self):
        self.queue: SimpleQueue = SimpleQueue()
        self.thread = threading.Thread(target=self._loop, daemon=True)
        self.thread.start()

    def _loop(self) -> None:
        get = self.queue.get
        while (job := get()) is not _STOP:
            job()


def _check_workers(workers: int) -> None:
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if workers > MAX_WORKERS:
        raise ValueError(f"workers must be <= MAX_WORKERS ({MAX_WORKERS}), got {workers}")


class Cluster:
    """A pool of FIFO worker threads, numbered from 1, that run jobs."""

    def __init__(self, workers: int):
        _check_workers(workers)
        self.workers = [_Worker() for _ in range(workers)]

    def submit(self, worker: int, job: Callable[[], None]) -> None:
        self.workers[worker - 1].queue.put(job)

    def shutdown(self) -> None:
        for w in self.workers:
            w.queue.put(_STOP)
        for w in self.workers:
            w.thread.join()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.shutdown()


def run_parallel(
    kernel: ScanKernel | Callable,
    values: Sequence[Any],
    op: Callable,
    workers: int,
) -> list:
    results, _ = run_parallel_detailed(kernel, values, op, workers)
    return results


def run_parallel_detailed(
    kernel: ScanKernel | Callable,
    values: Sequence[Any],
    op: Callable,
    workers: int,
) -> tuple[list, "TaskGraph"]:
    """Run the kernel's plan on worker threads; also return the task graph.

    The graph is the plan's cached schedule, the one `run_virtual` and
    `build_task_graph` read: in it, seeds are values 1..n and task k
    writes value n + k.
    """
    _check_workers(workers)
    n = len(values)
    plan = _kernel_plan(kernel, n)
    _, nodes = _schedule(plan, n, workers)
    results, error = _run_schedule(plan, nodes, values, op, workers)
    if error is not None:
        try:
            raise error
        finally:
            error = None  # the traceback holds this frame: no cycle through it
    return results, TaskGraph(list(nodes))


def _run_schedule(plan: Plan, nodes: Sequence[TaskNode], values: Sequence[Any],
                  op: Callable, workers: int) -> tuple[list | None, BaseException | None]:
    """The final value of every cell, or the error that poisoned the first
    failed cell. An operator's error is returned, not raised, so that no
    traceback holds this frame's values."""
    n = len(values)
    slots = list(values) + [None] * len(nodes)  # by schedule id - 1
    errors: dict[int, BaseException] = {}  # slot -> the error that failed it
    done = []  # by task ordinal - 1: a lock held until that task has run
    jobs: list[list] = [[] for _ in range(workers)]
    cells = list(range(n))  # slot of each cell's final value
    for (_, _, w), node in zip(_updates(plan), nodes):
        lock = threading.Lock()
        lock.acquire()
        done.append(lock)
        waits = [done[d - 1] for d in node.deps if nodes[d - 1].owner != node.owner]
        jobs[node.owner - 1].append((node.left_id - 1, node.right_id - 1,
                                     node.out_id - 1, waits, lock))
        cells[w] = node.out_id - 1
    with Cluster(workers) as cluster:  # shutdown() returns once every task ran
        for worker, tasks in enumerate(jobs, start=1):
            cluster.submit(worker, functools.partial(_run_tasks, tasks, slots, errors, op))
    for s in cells:
        if s in errors:
            return None, errors[s]
    return [slots[s] for s in cells], None


def _run_tasks(tasks: list, slots: list, errors: dict, op: Callable) -> None:
    """One worker's task list, in plan order."""
    for left, right, out, waits, done in tasks:
        for lock in waits:
            lock.acquire()
            lock.release()
        if errors and (left in errors or right in errors):
            # a poisoned input: pass its error on, unraised
            errors[out] = errors[left] if left in errors else errors[right]
        else:
            try:
                slots[out] = op(slots[left], slots[right])
            except BaseException as exc:  # poison, do not kill the worker
                errors[out] = exc
        done.release()
    errors = None  # a failed call's traceback holds this frame: no cycle through it


# --- Task graphs and the speedup model -----------------------------------


@dataclass(frozen=True, slots=True)
class TaskNode:
    ordinal: int
    left_id: int
    right_id: int
    out_id: int
    owner: int
    deps: tuple[int, ...]


@dataclass
class TaskGraph:
    nodes: list[TaskNode] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.nodes)


class CycleError(RuntimeError):
    pass


def critical_path(graph: TaskGraph, op_cost: int = 1) -> int:
    """Longest dependency chain, in operator applications times op_cost."""
    comp: dict[int, int] = {}
    longest = 0
    for node in graph.nodes:
        for d in node.deps:
            if d >= node.ordinal:
                raise CycleError(
                    f"task {node.ordinal} depends on non-earlier task {d}"
                )
        depth = 1 + max((comp[d] for d in node.deps), default=0)
        comp[node.ordinal] = depth
        longest = max(longest, depth)
    return longest * op_cost


def _floor_log2(p: int) -> int:
    return p.bit_length() - 1


def _floor_log2_third(p: int) -> int:
    # floor(log2(p/3)) without floating point; -1 for p in {2}.
    if p < 3:
        return -1
    return (p // 3).bit_length() - 1


def speedup_model(p: int) -> Fraction:
    """Predicted ratio of serial to double-tree runtime at p processors,
    one datum per processor: (p-1) / (floor(log2 p) + 1 + floor(log2 p/3))."""
    if p < 2:
        raise ValueError("p must be >= 2")
    return Fraction(p - 1, _floor_log2(p) + 1 + _floor_log2_third(p))


# --- Virtual clock ---------------------------------------------------------


@dataclass
class VirtualRun:
    results: list
    ticks: int
    graph: TaskGraph


@functools.lru_cache(maxsize=_PLAN_CACHE_SIZE)
def _schedule(plan: Plan, n: int, workers: int) -> tuple[int, tuple[TaskNode, ...]]:
    """The plan's task graph on FIFO workers, and its depth in tasks.

    Seeds are values 1..n, element i owned by worker (i-1) % workers + 1.
    Update k is task k; its output is value n + k, owned by the owner of its
    right read. Task k depends on the last task to touch each of its cells,
    on its worker's previous task and on the producer of the value it
    overwrites. Cached on the plan's value, so equal plans share one
    immutable schedule.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    fid = list(range(1, n + 1))  # id of each cell's current value
    owner = [i % workers + 1 for i in range(n)]
    producer = [0] * n  # task that wrote each cell's value; 0 for a seed
    toucher = [0] * n  # last task to touch each cell
    last_on: dict[int, int] = {}  # last task of each worker
    depth = [0]  # by task ordinal; task 0 stands for "none"
    nodes = []
    for k, (a, b, w) in enumerate(_updates(plan), start=1):
        o = owner[b]
        deps = {toucher[a], toucher[b], toucher[w], last_on.get(o, 0), producer[w]}
        depth.append(1 + max(depth[d] for d in deps))
        deps.discard(0)
        nodes.append(TaskNode(k, fid[a], fid[b], n + k, o, tuple(sorted(deps))))
        toucher[a] = toucher[b] = toucher[w] = last_on[o] = producer[w] = k
        fid[w], owner[w] = n + k, o
    return max(depth), tuple(nodes)


def run_virtual(
    kernel: ScanKernel | Callable,
    values: Sequence[Any],
    op: Callable,
    workers: int,
    op_cost: int = 1,
) -> VirtualRun:
    """Deterministic model of the threaded scheduler.

    Values come from replaying the kernel's plan on a copy of values. The
    task graph is the plan's cached schedule: the threaded run's per-cell
    access-order dependencies plus per-worker FIFO order. Every operator
    application costs op_cost ticks, so ticks are op_cost times its depth.
    """
    n = len(values)
    plan = _kernel_plan(kernel, n)
    unit_ticks, nodes = _schedule(plan, n, workers)
    data = list(values)
    _replay(plan, data, op)
    return VirtualRun(data, unit_ticks * op_cost, TaskGraph(list(nodes)))


def build_task_graph(kernel: ScanKernel | Callable, n: int, workers: int = 0) -> TaskGraph:
    """Task graph of one kernel run at size n (workers defaults to n)."""
    _, nodes = _schedule(_kernel_plan(kernel, n), n, workers or max(n, 1))
    return TaskGraph(list(nodes))


# --- Benchmark harness -----------------------------------------------------


@dataclass
class BenchRow:
    p: int
    t_serial: int
    t_parallel: int
    measured_ratio: float
    model_ratio: float


CSV_HEADER = "p,t_serial_ns,t_parallel_ns,measured_ratio,model_ratio"


def worker_count(default: int) -> int:
    env = os.environ.get(WORKERS_ENV)
    if not env:
        return default
    try:
        return int(env)
    except ValueError:
        raise ValueError(f"{WORKERS_ENV}={env!r} is not an integer") from None


def bench(
    serial_kernel: ScanKernel | Callable,
    parallel_kernel: ScanKernel | Callable,
    ps: Iterable[int],
    op_cost: float = 0.01,
    trials: int = 3,
    virtual: bool = False,
) -> list[BenchRow]:
    """Weak-scaling benchmark: one datum per worker, minimum over trials.

    Wall-clock mode injects op_cost seconds of delay into each operator
    application so compute dominates scheduling overhead; virtual mode
    counts exact ticks with op_cost interpreted as ticks per operation.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not math.isfinite(op_cost):
        raise ValueError(f"op_cost must be finite, got {op_cost}")
    if op_cost < 0 and not virtual:
        raise ValueError(f"op_cost must be >= 0 seconds, got {op_cost}")
    ps = list(ps)
    if not virtual:  # refuse an over-cap row before any row starts threads
        for p in ps:
            _check_workers(worker_count(p))
    rows = []
    for p in ps:
        values = list(range(1, p + 1))
        workers = worker_count(p)
        if virtual:
            cost = max(1, int(op_cost))
            t_s = min(
                run_virtual(serial_kernel, values, _add, workers, cost).ticks
                for _ in range(trials)
            )
            t_p = min(
                run_virtual(parallel_kernel, values, _add, workers, cost).ticks
                for _ in range(trials)
            )
        else:
            op = _delayed_add(op_cost)
            t_s = _min_wall_ns(serial_kernel, values, op, workers, trials)
            t_p = _min_wall_ns(parallel_kernel, values, op, workers, trials)
        rows.append(
            BenchRow(p, t_s, t_p, t_s / t_p, float(speedup_model(p)))
        )
    return rows


def _add(a, b):
    return a + b


def _delayed_add(seconds: float):
    def op(a, b):
        time.sleep(seconds)
        return a + b

    return op


def _min_wall_ns(kernel, values, op, workers, trials) -> int:
    run_parallel(kernel, values, op, workers)  # warm-up, untimed
    best = None
    for _ in range(trials):
        t0 = time.perf_counter_ns()
        run_parallel(kernel, values, op, workers)
        dt = time.perf_counter_ns() - t0
        best = dt if best is None else min(best, dt)
    return best


def bench_csv(rows: Iterable[BenchRow]) -> str:
    lines = [CSV_HEADER]
    for r in rows:
        lines.append(
            f"{r.p},{r.t_serial},{r.t_parallel},"
            f"{r.measured_ratio:.6f},{r.model_ratio:.6f}"
        )
    return "\n".join(lines) + "\n"
