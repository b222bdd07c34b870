"""Task-parallel execution of scan kernels from the plan's schedule.

A scan kernel is oblivious, so its checked plan fixes the whole task graph
before any value exists. `run_parallel` takes the plan's cached schedule
(the same one the virtual clock reads) and interprets it on worker threads.
Each worker owns one contiguous block of the cells, and each update is one
task on the owner of its right operand. The schedule orders every access to
a cell in plan order, so the values stay in place in the n cells. Each
worker runs its own tasks in plan order, in steps: a step waits on the locks
of the tasks it needs from other workers, runs its updates as the C-level
passes of the plan's replay, and releases its lock if another worker waits
for it; tasks on one worker hold by order. The scheduler is
stage-synchronous at the granularity of per-cell access order — a task runs
only after every earlier task that touched any of its cells — which makes
the makespan equal the critical path of the task graph and the measured
speedup follow the (p-1) / tree-depth model. A kernel that breaks the store
contract raises `ContractError` before any thread starts.

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

from .kernels import (_PLAN_CACHE_SIZE, Plan, ScanKernel, _kernel_plan, _passes, _replay,
                      _run_pass, _segments, _updates)
from .ops import AssocOp

WORKERS_ENV = "SCANFORGE_WORKERS"

# Most worker threads one Cluster starts; bench's default --p-range tops out at 32.
MAX_WORKERS = 256
# Largest n that bench and the CLI's trace, render --kernel and verify take.
MAX_N = 1 << 18

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
    `build_task_graph` read; the workers run the steps `_programs` cuts from
    it. An operator's error poisons its cell; the lowest poisoned cell's is raised.
    """
    _check_workers(workers)
    n = len(values)
    plan = _kernel_plan(kernel, n)
    graph = _schedule(plan, n, workers)
    programs, locks = _programs(plan, n, workers)
    data = list(values)
    errors: dict[int, BaseException] = {}  # poisoned cell -> its error
    done = [threading.Lock() for _ in range(locks)]  # held until its task has run
    for lock in done:
        lock.acquire()
    f = op.fn if type(op) is AssocOp else op
    with Cluster(workers) as cluster:  # shutdown() returns once every task ran
        for worker, steps in enumerate(programs, start=1):
            cluster.submit(worker, functools.partial(_run_steps, steps, data, errors, done, f))
    if errors:
        error, errors = errors[min(errors)], None  # the traceback holds this frame: no cycle
        try:
            raise error
        finally:
            error = None
    return data, graph


def _run_steps(steps: tuple, data: list, errors: dict, done: list, f: Callable) -> None:
    """One worker's program on the cells in place. Until a cell is poisoned,
    a chain or alias-free pass is one _run_pass; a loop pass, and every pass
    after that, runs the per-update loop, which passes a poisoned input's
    error on unraised and clears a cell that gets a good value."""
    for waits, passes, release in steps:
        for lock in waits:
            done[lock].acquire()
            done[lock].release()
        for path, a, b, w, da, db, dw, count in passes:
            ran = 0  # updates of the pass already done
            if path != "loop" and not errors:
                out: list = []
                try:
                    _run_pass(data, f, out, path, a, b, w, da, db, dw, count)
                    continue
                except BaseException as exc:  # poison, do not kill the worker
                    ran = len(out) - (path == "chain")
                    errors[w + dw * ran] = exc
                    ran += 1
            rest = (a + da * ran, b + db * ran, w + dw * ran, da, db, dw, count - ran)
            for j, k, i in _updates((rest,)):
                if errors and (j in errors or k in errors):
                    errors[i] = errors[j] if j in errors else errors[k]
                    continue
                try:
                    data[i] = f(data[j], data[k])
                except BaseException as exc:
                    errors[i] = exc
                else:
                    errors.pop(i, None)
        if release is not None:
            done[release].release()
    errors = None  # a failed call's traceback holds this frame: no cycle through it


# --- Task graphs and the speedup model -----------------------------------


@dataclass(frozen=True, slots=True)
class TaskNode:
    ordinal: int
    owner: int
    deps: tuple[int, ...]


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


def critical_path(graph: TaskGraph, op_cost: int = 1) -> int:
    """Longest dependency chain, in operator applications times op_cost."""
    if op_cost < 0:
        raise ValueError(f"op_cost must be >= 0 ticks, got {op_cost}")
    return graph.depth * op_cost


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
    application costs op_cost ticks, so ticks are its critical_path.
    """
    n = len(values)
    plan = _kernel_plan(kernel, n)
    graph = _schedule(plan, n, workers)
    run = VirtualRun(list(values), critical_path(graph, op_cost), graph)
    _replay(plan, run.results, op)
    return run


def build_task_graph(kernel: ScanKernel | Callable, n: int, workers: int = 0) -> TaskGraph:
    """Task graph of one kernel run at size n (workers defaults to n)."""
    return _schedule(_kernel_plan(kernel, n), n, workers or max(n, 1))


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
        if not virtual:
            _check_workers(worker_count(p))
    rows = []
    for p in ps:
        workers = worker_count(p)
        if virtual:
            cost = max(1, int(op_cost))
            # ticks are exact: one schedule per kernel, whatever trials is
            t_s = _schedule(_kernel_plan(serial_kernel, p), p, workers).depth * cost
            t_p = _schedule(_kernel_plan(parallel_kernel, p), p, workers).depth * cost
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
