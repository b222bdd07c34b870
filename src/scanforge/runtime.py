"""Task-parallel execution of scan kernels from the plan's schedule.

A scan kernel is oblivious, so its checked plan fixes the whole task graph
before any value exists. `run_parallel` interprets the plan's cached
schedule (the one the virtual clock reads) on worker threads. Each worker
owns one contiguous block of the cells and runs, in place and in plan
order, the updates whose right operand it owns, as the C-level passes of
the plan's replay. A task runs only after every earlier task that touched
any of its cells, so the makespan is the task graph's critical path, the
speedup follows the (p-1) / tree-depth model, and a failed operator call
raises what the replay raises. A kernel that breaks the store contract
raises `ContractError` before any thread starts.

Workers are in-process threads, not OS processes; the wait on a
dependency, not the transport, is what matters here. Worker threads start
lazily, when a call needs more than are idle, and are kept idle between
calls. A call holds its workers alone: no other call submits to them until
it has ended. At most MAX_WORKERS idle workers are kept, and a forked child
starts with none. A virtual-clock mode reads exact tick counts from the
same schedule without threads.
"""

from __future__ import annotations

import functools
import math
import operator
import os
import threading
import time
from dataclasses import dataclass
from fractions import Fraction
from queue import SimpleQueue
from typing import Any, Callable, Iterable, Sequence

from .kernels import (_PLAN_CACHE_SIZE, Plan, ScanKernel, _kernel_plan, _passes, _replay,
                      _run_pass, _segments, _updates, _walk)
from .ops import AssocOp

WORKERS_ENV = "SCANFORGE_WORKERS"

# Most workers one Cluster holds, and most idle workers kept between calls;
# bench's default --p-range tops out at 32.
MAX_WORKERS = 256
# Largest n that bench and the CLI's trace, render --kernel and verify take.
MAX_N = 1 << 18

_STOP = object()


class _Worker:
    """A daemon thread that runs the jobs on its FIFO queue until _STOP."""

    def __init__(self):
        self.queue: SimpleQueue = SimpleQueue()
        self.ended = threading.Lock()  # released by the marker job that shutdown() submits
        self.ended.acquire()
        self.thread = threading.Thread(target=self._loop, daemon=True)
        self.thread.start()

    def _loop(self) -> None:
        get = self.queue.get
        while (job := get()) is not _STOP:
            job()


def _forget_idle() -> None:
    """In a forked child: the parent's threads do not exist, and another
    thread may have held the lock at the fork."""
    global _idle, _idle_lock
    _idle, _idle_lock = [], threading.Lock()


_idle: list[_Worker] = []  # workers that no cluster holds
_idle_lock = threading.Lock()
if hasattr(os, "register_at_fork"):  # POSIX only; elsewhere nothing forks
    os.register_at_fork(after_in_child=_forget_idle)


def _check_workers(workers: int, threads: bool = True) -> int:
    """workers as an int >= 1, and at most MAX_WORKERS if they are threads."""
    try:
        workers = operator.index(workers)
    except TypeError:
        raise TypeError(f"workers must be an int, got {workers!r}") from None
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if threads and workers > MAX_WORKERS:
        raise ValueError(f"workers must be <= MAX_WORKERS ({MAX_WORKERS}), got {workers}")
    return workers


class Cluster:
    """FIFO worker threads, numbered from 1, that run jobs: idle workers
    taken from the free list, and new ones for the shortfall.

    The cluster holds its workers alone, so jobs of two clusters never queue
    on one worker, where each could wait on a lock that a job queued behind
    the other releases. shutdown() waits until every submitted job has ended,
    then gives the workers back, keeping at most MAX_WORKERS idle; if the
    wait is interrupted, the workers stop once their jobs end instead.
    """

    def __init__(self, workers: int):
        workers = _check_workers(workers)
        with _idle_lock:
            rest = max(0, len(_idle) - workers)
            self.workers = _idle[rest:]
            del _idle[rest:]
        try:
            while len(self.workers) < workers:
                self.workers.append(_Worker())
        except BaseException:  # a thread that could not start: give back those held
            self.shutdown()
            raise

    def submit(self, worker: int, job: Callable[[], None]) -> None:
        self.workers[worker - 1].queue.put(job)

    def shutdown(self) -> None:
        workers, self.workers = self.workers, []
        for w in workers:
            w.queue.put(w.ended.release)
        try:
            for w in workers:
                w.ended.acquire()
        except BaseException:
            for w in workers:
                w.queue.put(_STOP)
            raise
        with _idle_lock:
            kept = max(0, MAX_WORKERS - len(_idle))
            _idle.extend(workers[:kept])
        for w in workers[kept:]:
            w.queue.put(_STOP)

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
    return run_parallel_detailed(kernel, values, op, workers)[0]


def run_parallel_detailed(
    kernel: ScanKernel | Callable,
    values: Sequence[Any],
    op: Callable,
    workers: int,
) -> tuple[list, "TaskGraph"]:
    """Run the kernel's plan on worker threads; also return the task graph.

    The graph is the plan's cached schedule, the one `run_virtual` and
    `build_task_graph` read; the workers run the steps `_programs` cuts from
    it. A call runs only once every task it depends on has run, so it gets
    the serial run's operands. If calls fail, the one first in plan order
    is raised: the error that the plan's replay raises.
    """
    workers = _check_workers(workers)
    n = len(values)
    plan = _kernel_plan(kernel, n)
    graph = _schedule(plan, n, workers)
    programs, locks = _programs(plan, n, workers)
    data = list(values)
    done = [threading.Lock() for _ in range(locks)]  # held until its task has run or been skipped
    for lock in done:
        lock.acquire()
    skipped = [False] * locks  # set before the release of a lock whose task never ran
    failures: list = []  # (worker, position in its program, error) of each failed call
    f = op.fn if type(op) is AssocOp else op
    with Cluster(workers) as cluster:  # shutdown() returns once every program has ended
        for worker, steps in enumerate(programs, start=1):
            cluster.submit(worker, functools.partial(_run_steps, steps, data, done, skipped,
                                                     failures, worker, f))
    if failures:
        tasks: list[list[int]] = [[] for _ in range(workers + 1)]  # each worker's, in order
        for node in graph.nodes:
            tasks[node.owner].append(node.ordinal)
        failures.sort(key=lambda failure: tasks[failure[0]][failure[1]])
        raise failures.pop(0)[2]  # not kept in this frame, which its traceback holds
    return data, graph


def _run_steps(steps: tuple, data: list, done: list, skipped: list, failures: list,
               worker: int, f: Callable) -> None:
    """One worker's program on the cells in place: each step waits on its
    locks, runs its passes through _run_pass and releases its lock. The worker
    stops at its first failed call, which it records, or at a wait on a task
    that never ran; after that it makes no calls, but still releases its
    locks, marked skipped, so that no wait lasts for ever."""
    calls, stopped = 0, False  # calls: the position in the program of the next update
    for waits, passes, release in steps:
        for lock in () if stopped else waits:
            with done[lock]:
                stopped |= skipped[lock]
        for pass_ in () if stopped else passes:
            out: list = []
            try:
                _run_pass(data, f, out, *pass_)
            except BaseException as exc:  # the caller raises the first in plan order
                failures.append((worker, calls + len(out), exc))
                stopped = True
                break
            calls += len(out)
        if release is not None:
            skipped[release] = stopped
            done[release].release()
    failures = None  # a failed call's traceback holds this frame: no cycle through it


# --- Task graphs and the speedup model -----------------------------------


@dataclass(frozen=True, slots=True)
class TaskNode:
    ordinal: int
    owner: int
    deps: tuple[int, ...]


@dataclass(frozen=True, slots=True)
class TaskGraph:
    """Tasks in plan order and their depth: the longest dependency chain, in
    tasks, from the walk that found the dependencies."""

    nodes: tuple[TaskNode, ...]
    depth: int

    def __len__(self) -> int:
        return len(self.nodes)


def _ticks(op_cost: int) -> int:
    """op_cost as whole ticks: an int >= 0."""
    op_cost = operator.index(op_cost)
    if op_cost < 0:
        raise ValueError(f"op_cost must be >= 0 ticks, got {op_cost}")
    return op_cost


def critical_path(graph: TaskGraph, op_cost: int = 1) -> int:
    """Longest dependency chain in ticks: op_cost whole ticks (an int >= 0) per task."""
    return graph.depth * _ticks(op_cost)


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
def _schedule(plan: Plan, n: int, workers: int) -> TaskGraph:
    """The plan's task graph on FIFO workers. Cached on the plan's value, so
    equal plans share one immutable graph.

    Each worker owns one block of the cells: cell i is owned by worker
    (i-1) // ceil(n/workers) + 1 until an update writes it. Update k is task
    k, on the owner of its right read, and its write moves the cell to that
    worker. Worker o counts as one more cell, n + o - 1, that each of its
    tasks touches, so the walk's one rule (the last task to touch any of its
    cells) also makes task k wait for its worker's previous task.
    """
    size = -(-n // workers)
    owner = [i // size + 1 for i in range(n)]
    owners: list[int] = []  # the worker of each task

    def touches():
        for a, b, w in _updates(plan):
            owner[w] = o = owner[b]
            owners.append(o)
            yield a, b, w, n + o - 1

    nodes, depth = [], 0
    for k, deps, chain in _walk(touches(), n + min(n, workers)):
        nodes.append(TaskNode(k, owners[k - 1], deps))
        if chain > depth:
            depth = chain
    return TaskGraph(tuple(nodes), depth)


@functools.lru_cache(maxsize=_PLAN_CACHE_SIZE)
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
    application costs op_cost whole ticks, so ticks are its critical_path.
    """
    op_cost, workers = _ticks(op_cost), _check_workers(workers, threads=False)
    n = len(values)
    plan = _kernel_plan(kernel, n)
    graph = _schedule(plan, n, workers)
    run = VirtualRun(list(values), critical_path(graph, op_cost), graph)
    _replay(plan, run.results, op)
    return run


def build_task_graph(kernel: ScanKernel | Callable, n: int,
                     workers: int | None = None) -> TaskGraph:
    """Task graph of one kernel run at size n (workers defaults to n)."""
    workers = max(n, 1) if workers is None else _check_workers(workers, threads=False)
    return _schedule(_kernel_plan(kernel, n), n, workers)


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
    counts exact ticks with op_cost as whole ticks per operation, at least
    1 (so the default 0.01 counts 1); a negative cost or a p > MAX_N is refused.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not math.isfinite(op_cost):
        raise ValueError(f"op_cost must be finite, got {op_cost}")
    # time.sleep(s) fails unless now + s on the monotonic clock is below TIMEOUT_MAX
    longest = threading.TIMEOUT_MAX - time.monotonic()
    if not virtual and not 0 <= op_cost <= longest:
        raise ValueError(f"op_cost must be between 0 and {longest:.0f} seconds, got {op_cost}")
    if virtual and op_cost < 0:
        raise ValueError(f"op_cost must be >= 0 ticks, got {op_cost}")
    ps = list(ps)
    for p in ps:  # refuse an over-cap row before any row records or starts threads
        if p > MAX_N:
            raise ValueError(f"p must be <= MAX_N ({MAX_N}), got {p}")
        _check_workers(worker_count(p), threads=not virtual)
    rows = []
    for p in ps:
        workers = worker_count(p)
        if virtual:
            cost = max(1, int(op_cost))
            # ticks are exact: one schedule per kernel, whatever trials is
            t_s = critical_path(_schedule(_kernel_plan(serial_kernel, p), p, workers), cost)
            t_p = critical_path(_schedule(_kernel_plan(parallel_kernel, p), p, workers), cost)
        else:
            values = list(range(1, p + 1))
            op = _delayed_add(op_cost)
            t_s = _min_wall_ns(serial_kernel, values, op, workers, trials)
            t_p = _min_wall_ns(parallel_kernel, values, op, workers, trials)
        rows.append(
            BenchRow(p, t_s, t_p, t_s / t_p, float(speedup_model(p)))
        )
    return rows


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
