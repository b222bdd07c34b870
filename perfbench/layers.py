"""Traced run of the scanforge benchmark: per-layer numbers, measured from outside.

Nothing here edits scanforge. Each probe times one public call into one
module (kernels, stores, ops, tracing, verify, render, runtime, cli); a value
marked "derived" is the difference of two such timings, and both timings are
reported beside it. Spans are recorded by wrapping the entry points of each
module in this process only (`spans_installed`); a span's self time is its
duration minus that of the spans it directly encloses.

Every timing is the median over the probe rounds of this run.
"""

from __future__ import annotations

import os
import statistics
import threading
import time
from contextlib import contextmanager
from itertools import accumulate

from workloads import (
    CHUNKS, COMPUTE_N, COSTLY_N, COSTLY_SLEEP_S, INT_RANGE, KERNELS, PARALLEL_N,
    VIRTUAL_N, VIRTUAL_WORKERS, WORKERS, Call, CountStore, check_render, cli_call,
    free_op, matmul2_inputs,
)

TRACE_PROBE_N = 4096  # the ROADMAP's verify size
RENDER_PROBE_N = 1024  # the ROADMAP's render size

# Public entry points wrapped with spans, by module. Store get/put and operator
# calls run once per element; a span there would cost more than the call, so
# their time is taken by the stores/ops probes instead.
SPAN_POINTS = {
    "kernels": ("ScanKernel.__call__",),
    "tracing": ("run_traced", "infer_depths", "dag_depths", "trace_to_json",
                "trace_from_json"),
    "verify": ("verify_serial", "verify_race_free", "race_check_history",
               "verify_parallel"),
    "render": ("layout", "svg_string"),
    "runtime": ("run_parallel", "run_parallel_detailed", "run_virtual",
                "critical_path"),
    "cli": ("main",),
}


class NullStore:
    """Store whose get/put do nothing: a kernel over it costs its index arithmetic."""

    __slots__ = ("n",)

    def __init__(self, n):
        self.n = n

    def __len__(self):
        return self.n

    def get(self, i):
        return None

    def put(self, i, v):
        pass


class Spans:
    """In-memory spans of the calls made from this thread, with self time."""

    def __init__(self):
        self.done = []  # [name, duration_s, children_s]
        self._stack = []

    def wrap(self, name, fn):
        def span(*args, **kwargs):
            rec = [name, time.perf_counter(), 0.0]
            self._stack.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                self._stack.pop()
                rec[1] = time.perf_counter() - rec[1]
                if self._stack:
                    self._stack[-1][2] += rec[1]
                self.done.append(rec)

        return span

    def self_time_by_module(self):
        out = {}
        for name, dur, children in self.done:
            module = name.split(".")[0]
            out[module] = out.get(module, 0.0) + dur - children
        return out


@contextmanager
def spans_installed(sf, spans):
    """Replace every binding of each entry point, in every scanforge module,
    by its span wrapper; restore them all on exit."""
    modules = [sf] + [getattr(sf, m) for m in SPAN_POINTS] + [sf.stores, sf.ops]
    patched = []
    try:
        for module_name, names in SPAN_POINTS.items():
            module = getattr(sf, module_name)
            for name in names:
                if "." in name:  # a method: patch the class that holds it
                    cls_name, attr = name.split(".")
                    owner = getattr(module, cls_name)
                    fn, bindings = getattr(owner, attr), [(owner, attr)]
                else:
                    fn = getattr(module, name)
                    bindings = [(m, a) for m in modules for a, v in vars(m).items()
                                if v is fn]
                wrapped = spans.wrap(f"{module_name}.{name}", fn)
                for owner, attr in bindings:
                    patched.append((owner, attr, fn))
                    setattr(owner, attr, wrapped)
        yield spans
    finally:
        for owner, attr, fn in reversed(patched):
            setattr(owner, attr, fn)


class Probes:
    """One probe round measures every layer once; timings collect per key."""

    def __init__(self, sf, rng, rec, workdir):
        self.sf, self.rng, self.rec, self.workdir = sf, rng, rec, workdir
        self.times = {}  # key -> [seconds per round]
        self.counts = {}
        self.kernels = {name: sf.get_kernel(name, CHUNKS) for name in KERNELS}
        self.ops = sf.builtin_ops()

    def timed(self, key, fn, check, lane="probe", n=0):
        """Time fn() under `key`; check its output untimed, record the call."""
        s, got = self.rec.call(Call(lane, key, n, fn, check), warm=False)
        self.times.setdefault(key, []).append(s)
        return got

    def count(self, key, value):
        """Counts must repeat exactly between rounds and runs."""
        old = self.counts.setdefault(key, value)
        if old != value:
            self.rec.write(type="call", lane="probe", kernel=key, n=0, s=0.0, ok=False,
                           warm=False, reuse=False, error=f"count {old} then {value}")

    def round(self):
        self.kernels_stores_ops()
        self.tracing_verify_render()
        self.cli()
        self.runtime()
        self.floor()

    def kernels_stores_ops(self):
        sf, n = self.sf, COMPUTE_N
        ints = self.rng.choices(INT_RANGE, k=n)
        mats, mats_expected = matmul2_inputs(self.rng, n)
        expected = {"add": list(accumulate(ints)), "max": list(accumulate(ints, max)),
                    "matmul2": mats_expected}
        for name, k in self.kernels.items():
            self.timed(f"null/{name}", lambda: k(NullStore(n), free_op),
                       lambda got: len(got) == n)
            self.timed(f"free/{name}", lambda: k(sf.ListStore(ints), free_op).to_list(),
                       lambda got: got == ints)
            for op_name in ("add", "max", "matmul2"):
                values = mats if op_name == "matmul2" else ints
                self.timed(f"{op_name}/{name}",
                           lambda: k(sf.ListStore(values), self.ops[op_name]).to_list(),
                           lambda got: got == expected[op_name])
            store, op_calls = CountStore(n), [0]

            def counting_op(a, b):
                op_calls[0] += 1

            k(store, counting_op)
            self.count(f"store_calls/{name}", store.gets + store.puts)
            self.count(f"op_calls/{name}", op_calls[0])
            self.count(f"traced_txns/{name}", len(sf.run_traced(k, n)))

    def tracing_verify_render(self):
        sf = self.sf
        n, rn = TRACE_PROBE_N, RENDER_PROBE_N
        for name, k in self.kernels.items():
            store = CountStore(n)
            k(store, free_op)
            txns = store.puts
            hist = self.timed(f"run_traced/{name}", lambda: sf.run_traced(k, n),
                              lambda got: len(got) == txns)
            rows = self.timed(f"infer_depths/{name}", lambda: sf.infer_depths(hist),
                              lambda got: len(got) == txns)
            dag = self.timed(f"dag_depths/{name}", lambda: sf.tracing.dag_depths(hist),
                             lambda got: len(got) == txns)
            self.count(f"rows/{name}", rows[-1][1])
            self.count(f"dag_depth/{name}", max(d for _, d in dag))
            self.timed(f"verify_serial/{name}", lambda: sf.verify_serial(k, n),
                       lambda got: got.ok)
            self.timed(f"race/{name}", lambda: sf.verify.race_check_history(hist),
                       lambda got: got.ok)
            self.count(f"interval_ops/{name}", self.interval_ops(k, n))

            rhist = sf.run_traced(k, rn)
            diagram = self.timed(f"layout/{name}", lambda: sf.layout(rhist, rn),
                                 lambda got: len(got.gates) == len(rhist))
            svg = self.timed(f"svg/{name}", lambda: sf.svg_string(diagram),
                             lambda got: got.count('class="out"') == len(rhist))
            self.count(f"svg_bytes/{name}", len(svg.encode()))
            self.count(f"gates/{name}", len(diagram.gates))

    def interval_ops(self, k, n):
        """Interval-monoid applications in one verify_serial, counted by
        wrapping the module's interval_plus for one untimed call."""
        verify = self.sf.verify
        calls = [0]
        plus = verify.interval_plus

        def counting(a, b):
            calls[0] += 1
            return plus(a, b)

        verify.interval_plus = counting
        try:
            verify.verify_serial(k, n)
        finally:
            verify.interval_plus = plus
        return calls[0]

    def cli(self):
        """cli.main for verify and render, with spans on the library calls it makes."""
        sf = self.sf
        svg = os.path.join(self.workdir, "probe.svg")
        for name in KERNELS:
            for argv, check in (
                (["verify", "--kernel", name, "--n", str(TRACE_PROBE_N)],
                 lambda got: got[0] == 0 and '"ok": true' in got[1]),
                (["render", "--kernel", name, "--n", str(RENDER_PROBE_N), "--out", svg],
                 lambda got: check_render(got, sf, name, RENDER_PROBE_N, svg)),
            ):
                argv += ["--chunks", str(CHUNKS)]
                spans = Spans()
                with spans_installed(sf, spans):
                    self.timed(f"cli/{argv[0]}/{name}", lambda: cli_call(sf, argv), check)
                main = [r for r in spans.done if r[0] == "cli.main"]
                self.times.setdefault(f"cli_library/{argv[0]}/{name}", []).append(
                    main[0][2])

    def runtime(self):
        sf = self.sf
        rt = sf.runtime
        self.timed("cluster", lambda: rt.Cluster(WORKERS).shutdown(), lambda got: True)
        add = self.ops["add"]
        for name, k in self.kernels.items():
            values = self.rng.choices(INT_RANGE, k=PARALLEL_N)
            want = list(accumulate(values))
            got = self.timed(f"run_parallel/{name}",
                             lambda: rt.run_parallel_detailed(k, values, add, WORKERS),
                             lambda got: got[0] == want)
            graph = got[1]
            self.count(f"tasks/{name}", len(graph))
            self.count(f"dep_edges/{name}", sum(len(node.deps) for node in graph.nodes))
            self.count(f"critical_path/{name}", rt.critical_path(graph))

            values = self.rng.choices(INT_RANGE, k=COSTLY_N)
            busy = {}
            lock = threading.Lock()

            def costly(a, b):
                t = time.perf_counter()
                time.sleep(COSTLY_SLEEP_S)
                dt = time.perf_counter() - t
                with lock:
                    busy[threading.get_ident()] = busy.get(threading.get_ident(), 0.0) + dt
                return a + b

            want = list(accumulate(values))
            self.timed(f"costly/{name}", lambda: sf.run_parallel(k, values, costly, WORKERS),
                       lambda got: got == want)
            self.times.setdefault(f"costly_busy/{name}", []).append(sum(busy.values()))
            self.count(f"costly_virtual_ticks/{name}",
                       sf.run_virtual(k, values, add, WORKERS).ticks)

            values = self.rng.choices(INT_RANGE, k=VIRTUAL_N)
            want = list(accumulate(values))
            run = self.timed(f"virtual/{name}",
                             lambda: sf.run_virtual(k, values, add, VIRTUAL_WORKERS),
                             lambda got: got.results == want)
            self.count(f"virtual_ticks/{name}", run.ticks)

    def floor(self):
        ints = self.rng.choices(INT_RANGE, k=COMPUTE_N)
        want = list(accumulate(ints))
        self.timed("accumulate", lambda: list(accumulate(ints)), lambda got: got == want)
        try:
            import numpy as np
        except ImportError:  # numpy is optional: the metric is left out
            return
        self.timed("np_cumsum", lambda: np.cumsum(np.asarray(ints)).tolist(),
                   lambda got: got == want)

    def metrics(self):
        """Per-layer metrics; sums run over the three kernels."""
        q = {key: statistics.median(v) for key, v in self.times.items()}
        c = self.counts

        def total(prefix, table):
            return sum(table[f"{prefix}/{name}"] for name in KERNELS)

        m = {}
        m["kernels.index_s"] = total("null", q)
        m["kernels.txns"] = total("traced_txns", c)
        m["stores.liststore_free_s"] = total("free", q)
        m["stores.getput_s"] = m["stores.liststore_free_s"] - m["kernels.index_s"]  # derived
        m["stores.calls"] = total("store_calls", c)
        m["ops.calls"] = total("op_calls", c)
        for op_name in ("add", "max", "matmul2"):
            real = total(op_name, q)
            m[f"ops.{op_name}.liststore_s"] = real
            m[f"ops.{op_name}.op_s"] = real - m["stores.liststore_free_s"]  # derived
            m[f"ops.{op_name}.share"] = m[f"ops.{op_name}.op_s"] / real
        m["tracing.run_traced_s"] = total("run_traced", q)
        m["tracing.infer_depths_s"] = total("infer_depths", q)
        m["tracing.dag_depths_s"] = total("dag_depths", q)
        m["tracing.rows"] = total("rows", c)
        m["tracing.dag_depth"] = total("dag_depth", c)
        m["verify.serial_s"] = total("verify_serial", q)
        m["verify.race_s"] = total("race", q)
        m["verify.interval_ops"] = total("interval_ops", c)
        m["render.layout_s"] = total("layout", q)
        m["render.svg_s"] = total("svg", q)
        m["render.svg_bytes"] = total("svg_bytes", c)
        m["render.gates"] = total("gates", c)
        for cmd in ("verify", "render"):
            main = total(f"cli/{cmd}", q)
            lib = total(f"cli_library/{cmd}", q)
            m[f"cli.{cmd}.main_s"] = main
            m[f"cli.{cmd}.library_s"] = lib
            m[f"cli.{cmd}.overhead_s"] = main - lib  # derived
        m["runtime.cluster_start_stop_s"] = q["cluster"]
        m["runtime.tasks"] = total("tasks", c)
        m["runtime.dep_edges"] = total("dep_edges", c)
        m["runtime.critical_path"] = total("critical_path", c)
        m["runtime.run_parallel_s"] = total("run_parallel", q)
        m["runtime.us_per_task"] = m["runtime.run_parallel_s"] / m["runtime.tasks"] * 1e6
        wall = total("costly", q)
        busy = total("costly_busy", q)
        ticks = total("costly_virtual_ticks", c)
        m["runtime.costly_wall_s"] = wall
        m["runtime.costly_virtual_ticks"] = ticks
        m["runtime.costly_wall_per_tick"] = wall / (ticks * COSTLY_SLEEP_S)
        m["runtime.worker_busy_share"] = busy / (wall * WORKERS)
        m["runtime.worker_idle_s"] = wall * WORKERS - busy
        m["runtime.virtual_s"] = total("virtual", q)
        m["runtime.virtual_ticks"] = total("virtual_ticks", c)
        m["floor.accumulate_s"] = q["accumulate"]
        if "np_cumsum" in q:
            m["floor.np_cumsum_s"] = q["np_cumsum"]
        return m


def mix_seconds_per_elem(rec, calls):
    """Seconds per element of one round of the workload's mix."""
    elems = seconds = 0
    for call in calls:
        seconds += rec.call(call, warm=False)[0]
        elems += call.n
    return seconds / elems


def traced_run(sf, workload, rec, first_calls, seconds, rng, workdir):
    """Probe rounds for ~60% of the budget, then the mix with spans off and on
    in alternate rounds; the gap between the two is the tracing overhead."""
    start = time.monotonic()
    probes = Probes(sf, rng, rec, workdir)
    rounds = 0
    while rounds < 2 or time.monotonic() - start < 0.6 * seconds:
        probes.round()
        rounds += 1
    metrics = probes.metrics()

    for call in first_calls:  # warm-up round of the mix
        rec.call(call, warm=True)
    plain, traced = [], []
    spans = Spans()
    while not plain or time.monotonic() - start < seconds:
        pair = workload.inputs(), workload.inputs()
        if None in pair:
            break
        plain.append(mix_seconds_per_elem(rec, workload.calls(sf, pair[0])))
        with spans_installed(sf, spans):
            traced.append(mix_seconds_per_elem(rec, workload.calls(sf, pair[1])))
    off, on = statistics.median(plain), statistics.median(traced)
    metrics["trace.untraced_elems_per_s"] = 1 / off
    metrics["trace.traced_elems_per_s"] = 1 / on
    metrics["trace.overhead_share"] = 1 - off / on
    rec.write(type="layers", metrics=metrics, probe_rounds=rounds,
              mix_rounds=len(plain) + len(traced),
              span_self_s=spans.self_time_by_module())
