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

A schedule is a `TaskGraph` of int columns (each task's worker, and its
deps in compressed-row form), not one object per task. Schedules and the
worker programs cut from them are cached per (plan, n, workers), oldest
first out, while each cache holds at most _CACHE_TASKS tasks.

Workers are in-process threads, not OS processes; the wait on a
dependency, not the transport, is what matters here. Every other worker's
program goes on a pool thread's queue; the calling thread runs worker 1's
program, then, in order, every program that no pool thread has started
(work first), so a call on one worker starts no thread and a call whose
operator holds the GIL waits on no thread hand-off. Each program is taken
exactly once, by the caller or by its pool thread. Pool threads start
lazily, when a call needs more than are idle, and are kept idle between
calls. A call holds its workers alone until it has ended: it waits for the
pool threads that took a program, and gives back at once those whose
program it took, whose pending job takes nothing. At most MAX_WORKERS idle
workers are kept, and a forked child starts with none. A virtual-clock
mode reads exact tick counts from the same schedule without threads.
"""

from __future__ import annotations

import functools
import math
import operator
import os
import threading
import time
from array import array
from bisect import bisect_left, bisect_right
from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby
from queue import SimpleQueue
from typing import Any, Callable, Iterable, Sequence

from .kernels import (Plan, ScanKernel, _join, _kernel_plan, _passes, _replay, _run_pass, _updates,
                      _walk)
from .ops import AssocOp

WORKERS_ENV = "SCANFORGE_WORKERS"

# Most workers one Cluster holds, and most idle workers kept between calls;
# bench's default --p-range tops out at 32.
MAX_WORKERS = 256
# Largest n that bench and the CLI's trace, render --kernel and verify take.
MAX_N = 1 << 18
# Most tasks (plan updates) whose schedules, and apart from them whose worker
# programs, are cached; one brent-kung schedule at MAX_N has 524268.
_CACHE_TASKS = 1 << 21

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


def _check_workers(workers: int, threads: bool = True, least: int = 1) -> int:
    """workers as an int >= least, and at most MAX_WORKERS if they are threads."""
    try:
        workers = operator.index(workers)
    except TypeError:
        raise TypeError(f"workers must be an int, got {workers!r}") from None
    if workers < least:
        raise ValueError(f"workers must be >= {least}")
    if threads and workers > MAX_WORKERS:
        raise ValueError(f"workers must be <= MAX_WORKERS ({MAX_WORKERS}), got {workers}")
    return workers


class Cluster:
    """FIFO worker threads, numbered from 1, that run jobs: idle workers
    taken from the free list, and new ones for the shortfall; none at all
    for a cluster of no workers.

    The cluster holds its workers alone, so jobs of two clusters never queue
    on one worker, where each could wait on a lock that a job queued behind
    the other releases. shutdown(busy) waits until every job submitted to
    the workers numbered in busy (all of them by default) has ended, then
    gives the workers back, keeping at most MAX_WORKERS idle; if the wait is
    interrupted, the workers stop once their jobs end instead. A worker not
    in busy goes back with its jobs still queued, so a job of a later
    cluster may queue behind them: that is safe only for jobs that never
    wait, such as a run_parallel job whose program the caller took.
    """

    def __init__(self, workers: int):
        workers = _check_workers(workers, least=0)
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

    def shutdown(self, busy: Iterable[int] | None = None) -> None:
        workers, self.workers = self.workers, []
        waited = workers if busy is None else [workers[i - 1] for i in busy]
        for w in waited:
            w.queue.put(w.ended.release)
        try:
            for w in waited:
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
    it. Each worker that owns a cell has a program. Programs 2 and up go on
    pool threads' queues at once; the calling thread runs program 1, then,
    in order, each program that no pool thread has started yet, so a call
    on one worker, or on at most one value, starts no thread. The call
    waits only for the pool threads that took a program. A call runs only
    once every task it depends on has run, so it gets the serial run's
    operands. If calls fail, the one first in plan order is raised: the
    error that the plan's replay raises. An error that is not an Exception,
    such as KeyboardInterrupt or SystemExit, is raised before any that is.
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
    skipped: list = [None] * locks  # whether its task never ran, set just before its release
    failures: list = []  # (worker, position in its program, error) of each failed call
    f = op.fn if type(op) is AssocOp else op
    if programs:
        # worker -> whether the calling thread took its program; one
        # setdefault takes a program, for the caller (True) or a pool thread
        taken = {1: True}
        # What the programs run on; emptied once the call has ended, so that
        # a job still queued whose program the caller took holds none of it.
        call = [data, done, skipped, failures, f]
        cluster = Cluster(len(programs) - 1)
        try:
            try:
                for worker in range(2, len(programs) + 1):  # pool worker k runs program k + 1
                    cluster.submit(worker - 1, functools.partial(
                        _take, taken, worker, programs[worker - 1], call))
                for worker, steps in enumerate(programs, start=1):
                    if taken.setdefault(worker, True):
                        _run_steps(steps, worker, *call)
            except BaseException:
                # An interrupt: take every program no thread has taken, and
                # release, marked skipped, the locks still held by those the
                # caller took, so that no pool thread waits for ever. A
                # signal's handler runs at a call or a backward jump, never
                # between a store to skipped and its release: a lock whose
                # entry is None is still held. A take is one C call whose
                # result stays in taken, so no handler can lose it.
                for worker, steps in enumerate(programs, start=1):
                    if taken.setdefault(worker, True):
                        for _, _, release in steps:
                            if release is not None and skipped[release] is None:
                                skipped[release] = True
                                done[release].release()
                raise
        finally:
            cluster.shutdown(worker - 1 for worker, mine in taken.items() if not mine)
            call.clear()
    if failures:
        tasks: list[list[int]] = [[] for _ in range(len(programs) + 1)]  # each worker's, in order
        for k, owner in enumerate(graph.owners, start=1):
            tasks[owner].append(k)
        failures.sort(key=lambda failure: (isinstance(failure[2], Exception),
                                           tasks[failure[0]][failure[1]]))
        raise failures.pop(0)[2]  # not kept in this frame, which its traceback holds
    return data, graph


def _take(taken: dict, worker: int, steps: tuple, call: list) -> None:
    """A pool thread's job: run the worker's program on call unless the
    calling thread has taken it, in which case the job returns at once."""
    if not taken.setdefault(worker, False):
        _run_steps(steps, worker, *call)


def _run_steps(steps: tuple, worker: int, data: list, done: list, skipped: list,
               failures: list, f: Callable) -> None:
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
            except BaseException as exc:  # the caller chooses which failure to raise
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


@dataclass(frozen=True)
class TaskGraph:
    """Tasks in plan order as read-only int columns, and their depth: the
    longest dependency chain, in tasks, from the walk that found the
    dependencies. Task k, counted from 1, runs on worker owners[k - 1] and
    depends on the tasks deps[starts[k - 1]:starts[k]], in increasing order.

    Not slotted: on Python 3.10 and 3.11 a slotted frozen dataclass raises
    TypeError, not FrozenInstanceError, on an assignment to a property."""

    owners: memoryview
    starts: memoryview
    deps: memoryview
    depth: int

    def __len__(self) -> int:
        return len(self.owners)

    @property
    def nodes(self) -> tuple[TaskNode, ...]:
        """The tasks as TaskNodes, built anew on each read."""
        starts, deps = self.starts.tolist(), self.deps.tolist()
        return tuple(TaskNode(k, owner, tuple(deps[starts[k - 1]:starts[k]]))
                     for k, owner in enumerate(self.owners, start=1))


def _frozen(column: array) -> memoryview:
    """A read-only view of the column's ints, in a buffer of its exact size."""
    return memoryview(column.tobytes()).cast(column.typecode)


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


_CacheInfo = namedtuple("_CacheInfo", "entries tasks")


def _owning(n: int, workers: int) -> int:
    """The number of workers that own a cell when n cells are cut in blocks
    of ceil(n/workers), so every count with the same blocks gives one
    number; 1 for no cells."""
    return -(-n // -(-n // workers)) if n else 1


def _cached_by_tasks(build: Callable) -> Callable:
    """build(plan, n, workers), cached on its arguments, with workers as the
    number that own a cell, so that equal layouts share one entry. Once the
    results kept are for plans of more than _CACHE_TASKS updates in all, the
    oldest go first; a result over the bound on its own is not kept."""
    kept: dict = {}  # (plan, n, workers) -> (result, tasks), oldest first
    held = 0  # the tasks of the results kept
    lock = threading.Lock()  # taken to change kept; one dict read needs none

    @functools.wraps(build)
    def cached(plan: Plan, n: int, workers: int):
        nonlocal held
        workers = _owning(n, workers)
        key = plan, n, workers
        if (hit := kept.get(key)) is not None:
            return hit[0]
        result = build(plan, n, workers)
        tasks = sum(segment[-1] for segment in plan)
        with lock:
            if (hit := kept.get(key)) is not None:  # another thread built it meanwhile
                return hit[0]
            kept[key] = result, tasks
            held += tasks
            while held > _CACHE_TASKS:
                held -= kept.pop(next(iter(kept)))[1]
        return result

    def cache_info() -> _CacheInfo:
        with lock:
            return _CacheInfo(len(kept), held)

    def cache_clear() -> None:
        nonlocal held
        with lock:
            kept.clear()
            held = 0

    cached.cache_info, cached.cache_clear = cache_info, cache_clear
    return cached


@_cached_by_tasks
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
    owners = array("i")  # the worker of each task
    starts, deps = array("i", [0]), array("i")

    def touches():
        for a, b, w in _updates(plan):
            owner[w] = o = owner[b]
            owners.append(o)
            yield a, b, w, n + o - 1

    depth = 0
    for _, task_deps, chain in _walk(touches(), n + min(n, workers)):
        deps.extend(task_deps)
        starts.append(len(deps))
        if chain > depth:
            depth = chain
    return TaskGraph(_frozen(owners), _frozen(starts), _frozen(deps), depth)


@_cached_by_tasks
def _programs(plan: Plan, n: int, workers: int) -> tuple[tuple, int]:
    """The steps (waits, passes, release) of each worker that owns a cell,
    from the plan's task graph, and the number of locks: one per task that
    another worker waits for. A step starts at a task that waits on another
    worker's and ends after a task that another worker's waits on; waits and
    release are lock indices. A step's updates within one plan segment are
    runs of that segment, joined into passes by arithmetic."""
    graph = _schedule(plan, n, workers)
    owners, starts, deps = graph.owners.tolist(), graph.starts.tolist(), graph.deps.tolist()
    waits: dict[int, tuple[int, ...]] = {}  # task -> the locks it waits on
    lock: dict[int, int] = {}  # lock index of each task that another worker needs
    for k, owner in enumerate(owners, start=1):
        if needs := [lock.setdefault(d, len(lock)) for d in deps[starts[k - 1]:starts[k]]
                     if owners[d - 1] != owner]:
            waits[k] = tuple(needs)
    cuts = sorted({*waits, *(k + 1 for k in lock)})  # a run of one worker's tasks breaks here
    # The cache passes the workers that own a cell: for n = 0, none.
    steps: list[list] = [[] for _ in range(workers + 1 if n else 1)]  # [waits, runs, release]
    first = 1  # the task of the segment's first update
    for a, b, w, da, db, dw, count in plan:
        end = first
        for owner, tasks in groupby(owners[first - 1:first - 1 + count]):
            start, end = end, end + len(list(tasks))
            mine = steps[owner]
            for cut in cuts[bisect_right(cuts, start):bisect_left(cuts, end)] + [end]:
                if start in waits or not mine or mine[-1][2] is not None:
                    mine.append([waits.get(start, ()), [], None])
                i = start - first
                mine[-1][1].append((a + i * da, b + i * db, w + i * dw, da, db, dw, cut - start))
                if cut - 1 in lock:
                    mine[-1][2] = lock[cut - 1]
                start = cut
        first = end
    programs = tuple(tuple((ws, tuple(_passes(_join(runs))), release)
                           for ws, runs, release in mine) for mine in steps[1:])
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
