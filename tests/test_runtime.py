import csv
import gc
import io
import itertools
import os
import random
import signal
import sys
import threading
import time
import traceback
import tracemalloc
import types
from fractions import Fraction
from itertools import accumulate

import pytest

import mutants
from scanforge import runtime
from scanforge.kernels import (
    BRENT_KUNG,
    SERIAL,
    ContractError,
    ScanKernel,
    _plan,
    _updates,
    scan_then_fan_kernel,
)
from scanforge.runtime import (
    CSV_HEADER,
    MAX_N,
    MAX_WORKERS,
    Cluster,
    TaskGraph,
    bench,
    bench_csv,
    build_task_graph,
    critical_path,
    run_parallel,
    run_parallel_detailed,
    run_virtual,
    speedup_model,
)
from scanforge.tracing import max_depth, run_traced


def add(a, b):
    return a + b


def test_a_failed_call_reaches_the_caller():
    def boom(a, b):
        raise ZeroDivisionError("bad op")

    with pytest.raises(ZeroDivisionError):
        run_parallel(SERIAL, [1, 2], boom, 1)


def test_run_parallel_matches_oracle():
    got = run_parallel(BRENT_KUNG, list(range(1, 9)), add, 8)
    assert got == [1, 3, 6, 10, 15, 21, 28, 36]


def test_run_parallel_single_worker():
    got = run_parallel(BRENT_KUNG, list(range(1, 9)), add, 1)
    assert got == [1, 3, 6, 10, 15, 21, 28, 36]


def test_run_parallel_all_kernels_worker_counts():
    rng = random.Random(5)
    for kernel in (SERIAL, BRENT_KUNG, scan_then_fan_kernel(3)):
        for n in (0, 1, 2, 13, 32):
            vals = [rng.randrange(100) for _ in range(n)]
            want = list(accumulate(vals))
            for workers in (1, 2, 4, max(n, 1)):
                assert run_parallel(kernel, vals, add, workers) == want


def test_run_parallel_noncommutative_with_jitter():
    rng = random.Random(9)

    def jittery_concat(a, b):
        time.sleep(rng.random() * 0.002)
        return a + b

    vals = [chr(97 + i) for i in range(16)]
    want = list(accumulate(vals))
    assert run_parallel(BRENT_KUNG, vals, jittery_concat, 4) == want


def test_run_parallel_under_frequent_thread_switches():
    # More workers than cores and a tiny switch interval: a handoff that let a
    # task read an operand before its producer resolved it would show here.
    vals = [chr(0x100 + i) for i in range(64)]
    want = list(accumulate(vals))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for kernel in (SERIAL, BRENT_KUNG, scan_then_fan_kernel(5)):
            for workers in (3, 4):
                assert run_parallel(kernel, vals, add, workers) == want
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("n, workers", [(3, 4), (5, 4), (1023, 2)])
def test_cells_in_place_under_frequent_thread_switches(n, workers):
    # Uneven blocks: at (3, 4) and (5, 4) worker 4 owns no cell. A step that
    # ran before the task it waits for had written its cell would show here.
    vals = [chr(0x100 + i) for i in range(n)]
    want = list(accumulate(vals))
    runs = []

    def run():
        for kernel in (SERIAL, BRENT_KUNG, scan_then_fan_kernel(5), scan_then_fan_kernel(8)):
            runs.append(run_parallel_detailed(kernel, vals, add, workers))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        caller = threading.Thread(target=run, daemon=True)
        caller.start()
        caller.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not caller.is_alive(), "run_parallel hung"
    assert len(runs) == 4
    for results, graph in runs:
        assert results == want
        if n < workers + 2:
            assert max(node.owner for node in graph.nodes) < workers


def test_a_run_makes_one_lock_per_task_another_worker_waits_for(monkeypatch):
    made = []

    def lock():
        made.append(threading.Lock())
        return made[-1]

    counting = types.SimpleNamespace(**{**vars(threading), "Lock": lock})
    monkeypatch.setattr(runtime, "threading", counting)
    vals = list(range(1024))
    for kernel in (SERIAL, BRENT_KUNG, scan_then_fan_kernel(4), scan_then_fan_kernel(8)):
        for workers, locks in ((2, 1), (8, None)):
            made.clear()
            results, graph = run_parallel_detailed(kernel, vals, add, workers)
            assert results == list(accumulate(vals))
            owner = {node.ordinal: node.owner for node in graph.nodes}
            waited = {d for node in graph.nodes for d in node.deps if owner[d] != node.owner}
            assert len(made) == len(waited) == (locks or len(waited))


def test_run_parallel_propagates_operator_errors():
    def boom(a, b):
        raise ValueError("failed")

    with pytest.raises(ValueError):
        run_parallel(BRENT_KUNG, list(range(1, 9)), boom, 4)


def test_failed_run_raises_the_error_of_the_first_failed_task():
    # Cell 4's update, task 2 on worker 2, fails after cell 6's, task 3 on
    # worker 3, has failed: the failure first in plan order wins.
    def op(a, b):
        if (a, b) == (3, 4):
            time.sleep(0.002)
            raise LookupError("cell 4")
        if (a, b) == (5, 6):
            raise TypeError("cell 6")
        return a + b

    for _ in range(25):
        with pytest.raises(LookupError):
            run_parallel(BRENT_KUNG, list(range(1, 9)), op, 4)


@pytest.mark.parametrize("fn", mutants.CONTRACT_BREACHES)
@pytest.mark.parametrize("as_kernel", [False, True], ids=["callable", "ScanKernel"])
def test_run_parallel_raises_on_contract_breach(fn, as_kernel):
    # The nested operator used to hang forever; the stray get returned [1, 3, 6].
    kernel = ScanKernel(fn.__name__, fn) if as_kernel else fn
    outcome = []

    def call():
        try:
            outcome.append(run_parallel(kernel, [1, 2, 3], add, 2))
        except ContractError as exc:
            outcome.append(exc)

    caller = threading.Thread(target=call, daemon=True)
    caller.start()
    caller.join(timeout=10)
    assert not caller.is_alive(), "run_parallel hung"
    assert len(outcome) == 1 and isinstance(outcome[0], ContractError)


def test_worker_cap_is_refused_before_any_thread_starts():
    assert MAX_WORKERS >= 32  # the top of bench's default --p-range
    before = threading.active_count()
    with pytest.raises(ValueError, match=f"MAX_WORKERS \\({MAX_WORKERS}\\)"):
        Cluster(MAX_WORKERS + 1)
    with pytest.raises(ValueError, match=f"MAX_WORKERS \\({MAX_WORKERS}\\)"):
        run_parallel(BRENT_KUNG, [1, 2, 3], add, MAX_WORKERS + 1)
    with pytest.raises(ValueError, match="MAX_WORKERS"):
        bench(SERIAL, BRENT_KUNG, [4, MAX_WORKERS + 1], op_cost=0, trials=1)
    assert threading.active_count() == before


def test_size_cap_is_refused_before_any_recording(monkeypatch):
    assert MAX_N >= 4 * 65536  # the largest n the benchmark runs, with room
    monkeypatch.setattr(runtime, "_kernel_plan", None)  # any recording would fail
    for virtual in (True, False):
        with pytest.raises(ValueError, match=f"MAX_N \\({MAX_N}\\), got {MAX_N + 1}"):
            bench(SERIAL, BRENT_KUNG, [4, MAX_N + 1], op_cost=0, trials=1, virtual=virtual)


def test_virtual_op_cost_counts_whole_ticks():
    ones = bench(SERIAL, BRENT_KUNG, [4, 8], op_cost=1, trials=1, virtual=True)
    for cost in (0, 0.01, 0.5, 1.9):  # below 1, or fractional: whole ticks, at least 1
        assert bench(SERIAL, BRENT_KUNG, [4, 8], op_cost=cost, trials=1, virtual=True) == ones
    with pytest.raises(ValueError, match="op_cost must be >= 0 ticks"):
        bench(SERIAL, BRENT_KUNG, [4], op_cost=-1, trials=1, virtual=True)
    # run_virtual and critical_path used to give -3 and -9 ticks.
    with pytest.raises(ValueError, match="op_cost must be >= 0 ticks"):
        run_virtual(BRENT_KUNG, [1, 2, 3, 4], add, 2, op_cost=-1)
    with pytest.raises(ValueError, match="op_cost must be >= 0 ticks"):
        critical_path(build_task_graph(BRENT_KUNG, 4, 2), -3)


@pytest.mark.parametrize("cost, error", [
    (float("nan"), TypeError), (float("inf"), TypeError), (1.5, TypeError), (-1, ValueError),
], ids=["nan", "inf", "1.5", "-1"])
def test_virtual_op_cost_is_a_whole_tick_count(cost, error):
    # nan, inf and 1.5 used to give nan, inf and 3.0 ticks.
    with pytest.raises(error):
        run_virtual(SERIAL, [1, 2, 3], add, 2, op_cost=cost)
    assert run_virtual(SERIAL, [1, 2, 3], add, 2, op_cost=3).ticks == 6


@pytest.mark.parametrize("cost, error", [
    (1.5, TypeError), (float("nan"), TypeError), (-1, ValueError),
], ids=["1.5", "nan", "-1"])
def test_virtual_op_cost_is_refused_before_any_work(monkeypatch, cost, error):
    # The cost used to be checked only after the plan was recorded and its
    # schedule built: 1.5 s at n = MAX_N before the TypeError.
    def not_reached(*args):
        raise AssertionError("work done before the op_cost check")

    monkeypatch.setattr(runtime, "_kernel_plan", not_reached)
    monkeypatch.setattr(runtime, "_schedule", not_reached)
    with pytest.raises(error):
        run_virtual(SERIAL, [0] * MAX_N, add, 8, op_cost=cost)


def test_virtual_schedule_memory_is_bounded_by_n_not_by_workers():
    # The walk used to hold one cell per worker: 80 MB for 3 values on 10**7.
    want = build_task_graph(BRENT_KUNG, 3, 3)
    run_virtual(BRENT_KUNG, [1, 2, 3], add, 3)
    tracemalloc.start()
    try:
        run = run_virtual(BRENT_KUNG, [1, 2, 3], add, 10**6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert (run.graph.nodes, run.graph.depth) == (want.nodes, want.depth)


@pytest.mark.parametrize("entry", [
    lambda workers: run_parallel(SERIAL, [1, 2, 3], add, workers),
    lambda workers: run_virtual(SERIAL, [1, 2, 3], add, workers),
    lambda workers: build_task_graph(SERIAL, 3, workers),
], ids=["run_parallel", "run_virtual", "build_task_graph"])
def test_a_worker_count_must_be_an_int(entry):
    # 2.5 used to fail inside the walk: "can't multiply sequence by non-int",
    # and build_task_graph used to read 0.0 as its default.
    before = threading.active_count()
    for workers in (2.5, 0.0):
        with pytest.raises(TypeError, match=f"workers must be an int, got {workers}"):
            entry(workers)
    assert threading.active_count() == before
    assert entry(2) is not None


def test_bench_refuses_an_op_cost_sleep_cannot_take():
    # time.sleep(TIMEOUT_MAX) fails on Linux: its deadline, now + TIMEOUT_MAX on
    # the monotonic clock, is past the clock's range.
    before = threading.active_count()
    with pytest.raises(ValueError, match="op_cost"):
        bench(SERIAL, BRENT_KUNG, [4], op_cost=threading.TIMEOUT_MAX, trials=1)
    assert threading.active_count() == before


def test_finished_run_leaves_no_cyclic_garbage():
    # Unfreed cycles would hold every task, future and Event until a full GC.
    gc.collect()
    gc.disable()
    try:
        run_parallel(BRENT_KUNG, list(range(1, 65)), add, 2)
        assert gc.collect() == 0
    finally:
        gc.enable()


def failed_run_traceback_length(kernel, n):
    """Run n values on 2 workers with an operator whose first call raises."""
    calls = itertools.count()

    def op(a, b):
        if next(calls) == 0:
            raise ValueError("first call")
        return a + b

    try:
        run_parallel(kernel, list(range(n)), op, 2)
    except ValueError as exc:
        return len(traceback.extract_tb(exc.__traceback__))
    pytest.fail("the operator's error did not reach the caller")


def test_failed_run_leaves_no_cyclic_garbage():
    # The failed call's error is raised once, in the caller: its traceback
    # does not grow with the tasks after the failure, and no frame on it
    # holds the error (a worker's record of it, say), which would be a cycle.
    assert failed_run_traceback_length(SERIAL, 20) == \
        failed_run_traceback_length(SERIAL, 2000)
    gc.collect()
    gc.disable()
    try:
        failed_run_traceback_length(BRENT_KUNG, 64)
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.fixture
def idle(monkeypatch):
    """An empty free list of idle workers; its workers stop when the test ends."""
    idle = []
    monkeypatch.setattr(runtime, "_idle", idle)
    yield idle
    stop_and_join(idle)


def stop_and_join(workers):
    for w in workers:
        w.queue.put(runtime._STOP)
    for w in workers:
        w.thread.join(timeout=10)
        assert not w.thread.is_alive(), "a stopped worker did not end"


def in_caller_threads(target, callers, timeout=120):
    """Run target in callers threads at once; each must end within timeout."""
    threads = [threading.Thread(target=target, daemon=True) for _ in range(callers)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=timeout)
        assert not t.is_alive(), "run_parallel hung"


def test_concurrent_callers_hold_their_workers_alone():
    # Two calls that fed one worker's FIFO queue could deadlock: each job
    # waiting on a lock that a job queued behind the other's releases.
    vals = [chr(0x100 + i) for i in range(48)]
    want = list(accumulate(vals))
    results = []

    def calls():
        for _ in range(50):
            for kernel in (SERIAL, BRENT_KUNG, scan_then_fan_kernel(5)):
                results.append(run_parallel(kernel, vals, add, 3))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        in_caller_threads(calls, 4)
    finally:
        sys.setswitchinterval(interval)
    assert len(results) == 4 * 50 * 3
    assert all(r == want for r in results)


def test_an_operator_may_call_run_parallel():
    # The inner call's jobs would queue behind the outer's running job if the
    # two calls shared workers.
    def nested_add(a, b):
        return run_parallel(SERIAL, [a, b], add, 2)[-1]

    vals = list(range(1, 33))
    results = []
    in_caller_threads(lambda: results.append(run_parallel(BRENT_KUNG, vals, nested_add, 2)), 1)
    assert results == [list(accumulate(vals))]


def test_a_failed_run_gives_back_reusable_workers(idle):
    def first_call_fails(a, b):
        if a == 1:
            raise ValueError("first call")
        return a + b

    vals = list(range(1, 17))
    with pytest.raises(ValueError, match="first call"):
        run_parallel(SERIAL, vals, first_call_fails, 3)
    threads = {w.thread for w in idle}
    assert len(threads) == 3 and all(t.is_alive() for t in threads)
    assert run_parallel(BRENT_KUNG, vals, add, 3) == list(accumulate(vals))
    assert {w.thread for w in idle} == threads


def test_idle_workers_are_at_most_the_largest_count(idle, monkeypatch):
    vals = list(range(1, 33))
    for workers in (1, 4, 2, 8, 3, 8):
        assert run_parallel(BRENT_KUNG, vals, add, workers) == list(accumulate(vals))
    assert len(idle) == 8 and all(w.thread.is_alive() for w in idle)
    # Beyond MAX_WORKERS idle workers, the ones given back stop.
    stop_and_join(idle[:])
    idle.clear()
    monkeypatch.setattr(runtime, "MAX_WORKERS", 3)
    before = threading.active_count()
    first, second = Cluster(3), Cluster(2)
    extra = second.workers[:]
    first.shutdown()
    second.shutdown()
    assert len(idle) == 3
    stop_and_join(extra)  # already sent _STOP: each ends
    assert threading.active_count() == before + 3


@pytest.mark.skipif(not hasattr(signal, "pthread_kill"), reason="no signal.pthread_kill")
def test_an_interrupted_shutdown_stops_its_workers(idle):
    # Workers whose jobs may still run go to no later call.
    assert threading.current_thread() is threading.main_thread()
    release = threading.Event()
    cluster = Cluster(2)
    cluster.submit(1, lambda: release.wait(10))
    threads = [w.thread for w in cluster.workers]
    interrupt = threading.Timer(0.2, signal.pthread_kill,
                                (threading.main_thread().ident, signal.SIGINT))
    interrupt.start()
    try:
        with pytest.raises(KeyboardInterrupt):
            cluster.shutdown()
    finally:
        release.set()
        interrupt.join(timeout=10)
    assert idle == []
    for t in threads:  # the _STOP that shutdown sent ends them
        t.join(timeout=10)
        assert not t.is_alive()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")
@pytest.mark.filterwarnings("ignore::DeprecationWarning")  # fork() in a threaded process
def test_a_forked_child_starts_its_own_workers():
    # The parent's idle workers have no thread in the child: a child that took
    # them would wait on them for ever.
    vals = list(range(1, 65))
    assert run_parallel(BRENT_KUNG, vals, add, 2) == list(accumulate(vals))
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            signal.alarm(20)
            code = 0 if run_parallel(BRENT_KUNG, vals, add, 2) == list(accumulate(vals)) else 3
        finally:
            os._exit(code)
    _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0


def test_owner_placement_rule():
    # every update runs on its right operand's owner, and its write moves the
    # cell there; each cell starts on its block's owner
    _, graph = run_parallel_detailed(BRENT_KUNG, list(range(1, 17)), add, 16)
    assert len(graph.nodes) > 0
    run = run_virtual(BRENT_KUNG, list(range(1, 17)), add, 16)
    owner = [i // -(-16 // 16) + 1 for i in range(16)]
    updates = list(_updates(_plan(BRENT_KUNG, 16)))
    assert len(updates) == len(run.graph.nodes)
    for node, (_, b, w) in zip(run.graph.nodes, updates):
        assert node.owner == owner[b]
        owner[w] = node.owner


def test_virtual_ticks_equal_critical_path():
    for kernel in (SERIAL, BRENT_KUNG, scan_then_fan_kernel(4)):
        for n in (2, 4, 8, 16, 32, 64):
            run = run_virtual(kernel, list(range(n)), add, n)
            assert run.ticks == critical_path(run.graph, 1)


def test_virtual_ticks_equal_stage_depth():
    for n in (2, 4, 8, 16, 32, 64):
        run = run_virtual(BRENT_KUNG, list(range(n)), add, n)
        assert run.ticks == max_depth(run_traced(BRENT_KUNG, n))


def test_critical_path_examples():
    assert critical_path(build_task_graph(BRENT_KUNG, 8), 1) == 5
    assert critical_path(build_task_graph(SERIAL, 8), 1) == 7
    assert critical_path(build_task_graph(BRENT_KUNG, 2), 1) == 1
    assert critical_path(build_task_graph(SERIAL, 8), 3) == 21


def test_task_graph_takes_its_depth_from_the_walk():
    # A graph no longer walks its nodes again for a depth (or a cycle): the
    # schedule's walk finds both, and a graph without a depth is refused.
    graph = build_task_graph(BRENT_KUNG, 8)
    with pytest.raises(TypeError):
        TaskGraph(graph.nodes)
    assert TaskGraph(graph.nodes, graph.depth) == graph


def test_speedup_model_values():
    assert speedup_model(2) == Fraction(1)
    assert speedup_model(8) == Fraction(7, 5)
    assert speedup_model(80) == Fraction(79, 11)
    with pytest.raises(ValueError):
        speedup_model(1)


def test_speedup_model_floor_log_third_exact():
    import math

    for p in range(2, 400):
        want = math.floor(math.log2(p / 3))
        denom = math.floor(math.log2(p)) + 1 + want
        assert speedup_model(p) == Fraction(p - 1, denom)


def test_virtual_bench_ratio_matches_model():
    rows = bench(SERIAL, BRENT_KUNG, [4, 8, 16, 32], op_cost=1, trials=1,
                 virtual=True)
    for row in rows:
        assert Fraction(row.t_serial, row.t_parallel) == speedup_model(row.p)
    assert bench(SERIAL, BRENT_KUNG, [4, 8, 16, 32], op_cost=1, trials=3,
                 virtual=True) == rows


def test_bench_trials_take_minimum():
    rows = bench(SERIAL, BRENT_KUNG, [4], op_cost=0.001, trials=3)
    assert len(rows) == 1
    assert rows[0].t_serial > 0 and rows[0].t_parallel > 0


def test_bench_csv_parses():
    rows = bench(SERIAL, BRENT_KUNG, [4, 8], op_cost=1, trials=1, virtual=True)
    text = bench_csv(rows)
    parsed = list(csv.DictReader(io.StringIO(text)))
    assert text.splitlines()[0] == CSV_HEADER
    assert [int(r["p"]) for r in parsed] == [4, 8]
    assert float(parsed[1]["model_ratio"]) == pytest.approx(1.4)


def test_workers_env_override(monkeypatch):
    monkeypatch.setenv("SCANFORGE_WORKERS", "2")
    rows = bench(SERIAL, BRENT_KUNG, [8], op_cost=1, trials=1, virtual=True)
    # with 2 workers the parallel tree serializes further but stays correct
    assert rows[0].t_parallel >= 5


def test_determinism_repeated_runs():
    vals = [chr(97 + i % 26) for i in range(32)]
    outputs = {
        tuple(run_parallel(BRENT_KUNG, vals, add, 8)) for _ in range(25)
    }
    assert len(outputs) == 1
