"""Task-parallel execution of scan kernels over futures.

A scan kernel is oblivious, so its checked plan fixes the whole task graph
before any value exists. `run_parallel` takes the plan's cached schedule
(the same one the virtual clock reads) and runs it on worker threads: each
update is one task on the owner of its right operand, and the output of a
task is a new write-once future. The scheduler is stage-synchronous at the
granularity of per-cell access order — a task runs only after every earlier
task that touched any of its cells — which makes the makespan equal the
critical path of the task graph and the measured speedup follow the
(p-1) / tree-depth model. A task waits on the futures of its dependencies
on other workers; those on its own worker hold by FIFO order. A kernel that
breaks the store contract raises `ContractError` before any thread starts.

Workers are in-process threads with FIFO task queues, not OS processes;
the blocking-fetch contract, not the transport, is what matters here. At
most MAX_WORKERS threads run per cluster. A virtual-clock mode reads exact
tick counts from the same schedule without threads.
"""

from __future__ import annotations

import _thread
import functools
import itertools
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

_future_ids = itertools.count(1)
_PENDING = object()  # a future's value until it is resolved or failed


class Future:
    """A write-once value handle; fetch blocks until resolution."""

    __slots__ = ("id", "owner", "_lock", "_value", "_error")

    def __init__(self, owner: int):
        self.id = next(_future_ids)
        self.owner = owner
        self._lock = _thread.allocate_lock()
        self._lock.acquire()  # held until the future is resolved or failed
        self._value = _PENDING
        self._error: BaseException | None = None

    @classmethod
    def resolved(cls, value, owner: int) -> "Future":
        f = cls(owner)
        f.resolve(value)
        return f

    def resolve(self, value) -> None:
        if self.done:
            raise RuntimeError(f"future {self.id} resolved twice")
        self._value = value
        self._lock.release()

    def fail(self, error: BaseException) -> None:
        if self.done:
            raise RuntimeError(f"future {self.id} resolved twice")
        self._error = error
        self._value = None
        self._lock.release()

    def _wait(self) -> None:
        self._lock.acquire()
        self._lock.release()

    def fetch(self):
        self._wait()
        if self._error is not None:
            raise self._error
        return self._value

    @property
    def done(self) -> bool:
        return self._value is not _PENDING


class _Task:
    """One operator application bound to a worker."""

    __slots__ = ("op", "left", "right", "out", "waits")

    def __init__(self, op, left: Future, right: Future, out: Future,
                 waits: Sequence[Future] = ()):
        self.op = op
        self.left = left
        self.right = right
        self.out = out
        self.waits = waits  # outputs of dependencies on other workers

    def run(self) -> None:
        for f in self.waits:
            f._wait()
        left, right = self.left, self.right
        left._wait()
        right._wait()
        error = left._error if left._error is not None else right._error
        if error is not None:  # a poisoned input: pass its error on, unraised
            self.out.fail(error)
            return
        try:
            value = self.op(left._value, right._value)
        except BaseException as exc:  # poison, do not kill the worker
            self.out.fail(exc)
            self = None  # break exc -> traceback -> this frame -> task -> exc
            return
        self.out.resolve(value)


_STOP = object()


class _Worker:
    def __init__(self, wid: int):
        self.id = wid
        self.queue: SimpleQueue = SimpleQueue()
        self.thread = threading.Thread(target=self._loop, daemon=True)
        self.thread.start()

    def _loop(self) -> None:
        get = self.queue.get
        while (task := get()) is not _STOP:
            task.run()


def _check_workers(workers: int) -> None:
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if workers > MAX_WORKERS:
        raise ValueError(f"workers must be <= MAX_WORKERS ({MAX_WORKERS}), got {workers}")


class Cluster:
    """A pool of FIFO workers that tasks are scheduled onto."""

    def __init__(self, workers: int):
        _check_workers(workers)
        self.workers = [_Worker(wid) for wid in range(1, workers + 1)]

    def seed(self, value, index: int) -> Future:
        """A resolved future for element `index` (1-based), round-robin owned."""
        owner = self.workers[(index - 1) % len(self.workers)].id
        return Future.resolved(value, owner)

    def submit(self, task: _Task) -> None:
        self.workers[task.out.owner - 1].queue.put(task)

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
    `build_task_graph` read: in it, seeds are futures 1..n and task k
    outputs future n + k.
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
    traceback holds this frame's futures."""
    n = len(values)
    with Cluster(workers) as cluster:  # shutdown() returns once every task ran
        futures = [cluster.seed(v, i) for i, v in enumerate(values, start=1)]
        cells = futures[:n]
        tasks = []
        for (_, _, w), node in zip(_updates(plan), nodes):
            out = Future(node.owner)
            waits = [futures[n + d - 1] for d in node.deps
                     if nodes[d - 1].owner != node.owner]
            tasks.append(_Task(op, futures[node.left_id - 1],
                               futures[node.right_id - 1], out, waits))
            futures.append(out)
            cells[w] = out
        for task in tasks:
            cluster.submit(task)
    for f in cells:
        if f._error is not None:
            return None, f._error
    return [f._value for f in cells], None


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
