"""Task-parallel execution of unmodified scan kernels over futures.

Seeding a store with futures and lifting the operator to schedule work on
the owner of its right operand makes the very same kernel code run in
parallel: blocking fetches supply all synchronization. The scheduler is
stage-synchronous at the granularity of per-cell access order — a task
runs only after every earlier task that touched any of its cells — which
makes the makespan equal the critical path of the task graph and the
measured speedup follow the (p-1) / tree-depth model.

Workers are in-process threads with FIFO task queues, not OS processes;
the blocking-fetch contract, not the transport, is what matters here. A
virtual-clock mode reads exact tick counts from the kernel's plan without
threads.
"""

from __future__ import annotations

import functools
import itertools
import os
import threading
import time
from dataclasses import dataclass, field
from fractions import Fraction
from queue import Queue
from typing import Any, Callable, Iterable, Optional, Sequence

from .kernels import _PLAN_CACHE_SIZE, Plan, ScanKernel, _kernel_plan, _replay, _updates

WORKERS_ENV = "SCANFORGE_WORKERS"

_future_ids = itertools.count(1)


class Future:
    """A write-once value handle; fetch blocks until resolution."""

    __slots__ = ("id", "owner", "_event", "_value", "_error", "_node")

    def __init__(self, owner: int):
        self.id = next(_future_ids)
        self.owner = owner
        self._event = threading.Event()
        self._value = None
        self._error: Optional[BaseException] = None
        self._node = None

    @classmethod
    def resolved(cls, value, owner: int) -> "Future":
        f = cls(owner)
        f._value = value
        f._event.set()
        return f

    def resolve(self, value) -> None:
        if self._event.is_set():
            raise RuntimeError(f"future {self.id} resolved twice")
        self._value = value
        self._event.set()

    def fail(self, error: BaseException) -> None:
        if self._event.is_set():
            raise RuntimeError(f"future {self.id} resolved twice")
        self._error = error
        self._event.set()

    def fetch(self):
        self._event.wait()
        if self._error is not None:
            raise self._error
        return self._value

    @property
    def done(self) -> bool:
        return self._event.is_set()


class _Task:
    """One lifted operator application bound to a worker."""

    __slots__ = ("ordinal", "op", "left", "right", "out", "deps", "finished",
                 "launched")

    def __init__(self, ordinal: int, op, left: Future, right: Future, out: Future):
        self.ordinal = ordinal
        self.op = op
        self.left = left
        self.right = right
        self.out = out
        self.deps: list["_Task"] = []
        self.finished = threading.Event()
        self.launched = False

    def run(self) -> None:
        try:
            for dep in self.deps:
                dep.finished.wait()
            a = self.left.fetch()
            b = self.right.fetch()
            self.out.resolve(self.op(a, b))
        except BaseException as exc:  # poison, do not kill the worker
            self.out.fail(exc)
        finally:
            self.finished.set()


_STOP = object()


class _Worker:
    def __init__(self, wid: int):
        self.id = wid
        self.queue: Queue = Queue()
        self.thread = threading.Thread(target=self._loop, daemon=True)
        self.thread.start()

    def _loop(self) -> None:
        while True:
            task = self.queue.get()
            if task is _STOP:
                return
            task.run()


class Cluster:
    """A pool of FIFO workers that lifted operators schedule tasks onto."""

    def __init__(self, workers: int):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = [_Worker(wid) for wid in range(1, workers + 1)]
        self._ordinals = itertools.count(1)
        self.tasks: list[_Task] = []

    def seed(self, value, index: int) -> Future:
        """A resolved future for element `index` (1-based), round-robin owned."""
        owner = self.workers[(index - 1) % len(self.workers)].id
        return Future.resolved(value, owner)

    def _make_task(self, op, f1: Future, f2: Future) -> _Task:
        out = Future(owner=f2.owner)
        task = _Task(next(self._ordinals), op, f1, f2, out)
        out._node = task
        self.tasks.append(task)
        return task

    def submit(self, task: _Task) -> None:
        task.launched = True
        self.workers[task.out.owner - 1].queue.put(task)

    def shutdown(self) -> None:
        for w in self.workers:
            w.queue.put(_STOP)
        for w in self.workers:
            w.thread.join()
        # Each task and its output future refer to each other; unlinking them
        # frees a finished run by reference counting, not at the next full GC.
        for task in self.tasks:
            task.out._node = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.shutdown()


def lift_remote(op: Callable, cluster: Cluster) -> Callable[[Future, Future], Future]:
    """Lift op to futures: combine(f1, f2) schedules op on f2's owner.

    Returns immediately with a pending future; the worker task blocks on
    fetching f1 (the simulated data transfer), reads f2, applies op, and
    resolves the output. Failures poison the output future.
    """

    def combine(f1: Future, f2: Future) -> Future:
        task = cluster._make_task(op, f1, f2)
        cluster.submit(task)
        return task.out

    return combine


class FutureStore:
    """Store of future handles with per-cell access-order scheduling.

    get() returns the current handle without blocking. put() of a lifted
    result wires the task's dependencies (every earlier task that touched a
    cell of this transaction) and launches it. Mutation is confined to the
    issuing thread.
    """

    def __init__(self, cells: list[Future], cluster: Cluster):
        self._cells = cells
        self._cluster = cluster
        self._last_toucher: dict[int, _Task] = {}
        self._pending_reads: list[int] = []

    def __len__(self) -> int:
        return len(self._cells)

    @property
    def cells(self) -> list[Future]:
        return self._cells

    def _check(self, i: int) -> None:
        if not 1 <= i <= len(self._cells):
            raise IndexError(f"index {i} out of range 1..{len(self._cells)}")

    def get(self, i: int) -> Future:
        self._check(i)
        self._pending_reads.append(i)
        return self._cells[i - 1]

    def put(self, i: int, fut: Future) -> None:
        self._check(i)
        touched = set(self._pending_reads) | {i}
        self._pending_reads.clear()
        task = fut._node
        if task is not None and not task.launched:
            task.deps = [
                self._last_toucher[c] for c in sorted(touched) if c in self._last_toucher
            ]
            self._cluster.submit(task)
        if task is not None:
            for c in touched:
                self._last_toucher[c] = task
        self._cells[i - 1] = fut


def _lift_deferred(op: Callable, cluster: Cluster) -> Callable[[Future, Future], Future]:
    # Launch is deferred to FutureStore.put so conflict deps can be attached.
    def combine(f1: Future, f2: Future) -> Future:
        return cluster._make_task(op, f1, f2).out

    return combine


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
    """Run the kernel over a future store; also return the task graph."""
    if workers < 1:
        raise ValueError("workers must be >= 1")
    cluster = Cluster(workers)
    try:
        seeds = [cluster.seed(v, i) for i, v in enumerate(values, start=1)]
        store = FutureStore(seeds, cluster)
        kernel(store, _lift_deferred(op, cluster))
        results = [f.fetch() for f in store.cells]
    finally:
        cluster.shutdown()
    graph = TaskGraph(
        [
            TaskNode(
                ordinal=k,
                left_id=t.left.id,
                right_id=t.right.id,
                out_id=t.out.id,
                owner=t.out.owner,
                deps=tuple(sorted(d.ordinal for d in t.deps)),
            )
            for k, t in enumerate(cluster.tasks, start=1)
        ]
    )
    return results, graph


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

    Seeds are futures 1..n, element i owned by worker (i-1) % workers + 1.
    Update k is task k; its output is future n + k, owned by the owner of its
    right read. Task k depends on the last task to touch each of its cells,
    on its worker's previous task and on the producer of the value it
    overwrites. Cached on the plan's value, so equal plans share one
    immutable schedule.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    fid = list(range(1, n + 1))  # future id of each cell's current value
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
    return int(env) if env else default


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
