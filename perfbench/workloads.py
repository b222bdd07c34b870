"""Workload side of the scanforge benchmark.

`run.py` starts this file in a fresh interpreter, one process per sample, so
that a hang cannot stall the benchmark and set-up is measured from a cold
start. The process generates its inputs from the seed, calls scanforge's
public entry points, checks every output outside the timed region, and
appends one JSON record per call to the file named by `--records`.

Each workload is a closed loop with one client. It runs in rounds; a round
calls every (lane, kernel) pair at least once, so every round has the same mix.
A reference scan of the benchmark's own is timed between the calls (see
`reference_scan`).

Modes:
  setup   import scanforge and make the first call of round 0, then exit
  timed   one warm-up round, then rounds until --seconds have passed
  traced  the per-layer probes of `layers.py`, then the mix with spans on/off
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import sys
import time
import xml.etree.ElementTree as ET
from itertools import accumulate

KERNELS = ("serial", "brent-kung", "scan-then-fan")
CHUNKS = 8  # scan-then-fan[8]
WORKERS = 2  # threads for run_parallel; never more than the cores we may use
COMPUTE_N = 65536
INT_RANGE = range(-1000, 1000)
VERIFY_N = range(2048, 4097)
RENDER_N = range(512, 1025)
TRACE_N = range(1025, 2048)  # disjoint from the two above: no (kernel, n) repeats
PARALLEL_N = 1024
COSTLY_N = 64
COSTLY_SLEEP_S = 0.001
VIRTUAL_N = 4096
VIRTUAL_WORKERS = 8
REFERENCE_N = 65536
REFERENCE_PERIOD_S = 0.05  # a reference call after each 50 ms of lane calls

# Lane names per workload, in the order of the lane1/lane2/lane3 metrics.
LANES = {
    "compute": ("add", "max", "matmul2"),
    "prove-draw": ("verify", "render", "trace"),
    "parallel": ("run_parallel", "run_parallel_costly", "run_virtual"),
}


def mat2(a, b):
    """2x2 matrix product; the benchmark's own, independent of scanforge."""
    (a00, a01), (a10, a11) = a
    (b00, b01), (b10, b11) = b
    return ((a00 * b00 + a01 * b10, a00 * b01 + a01 * b11),
            (a10 * b00 + a11 * b10, a10 * b01 + a11 * b11))


# The 8 signed 2x2 permutation matrices form a group, so every prefix product
# stays in {-1, 0, 1} and matmul2 costs the same on every call.
SIGNED_PERMS = tuple(
    m
    for s in (1, -1)
    for t in (1, -1)
    for m in (((s, 0), (0, t)), ((0, s), (t, 0)))
)
PERM_TABLE = tuple(
    tuple(SIGNED_PERMS.index(mat2(a, b)) for b in SIGNED_PERMS) for a in SIGNED_PERMS
)


def matmul2_inputs(rng: random.Random, n: int) -> tuple[list, list]:
    """Seeded matmul2 values and their prefix products via the group table."""
    idx = rng.choices(range(len(SIGNED_PERMS)), k=n)
    expected, acc = [], None
    for i in idx:
        acc = i if acc is None else PERM_TABLE[acc][i]
        expected.append(SIGNED_PERMS[acc])
    return [SIGNED_PERMS[i] for i in idx], expected


def kernel_name(name: str) -> str:
    return f"{name}[{CHUNKS}]" if name == "scan-then-fan" else name


class CountStore:
    """Null store that counts the kernel's transactions (puts) and gets."""

    def __init__(self, n: int):
        self.n, self.gets, self.puts = n, 0, 0

    def __len__(self):
        return self.n

    def get(self, i):
        self.gets += 1

    def put(self, i, v):
        self.puts += 1


def free_op(a, b):
    """An operator that does no work; the benchmark's stand-in for a free op."""
    return b


def costly_add(a, b):
    time.sleep(COSTLY_SLEEP_S)  # sleep releases the GIL, as a real costly op would
    return a + b


class RefStore:
    """Plain 1-based list store without checks, for the reference scan."""

    __slots__ = ("data",)

    def __init__(self, values):
        self.data = list(values)

    def get(self, i):
        return self.data[i - 1]

    def put(self, i, v):
        self.data[i - 1] = v


def reference_scan(values):
    """The yardstick: a naive pure-Python serial scan, independent of scanforge.

    On a small shared machine, speed drifts by up to ~1.7x over minutes and in
    phases of seconds (neighbours' load), moving every lane together. Timed
    between the lane calls, this scan moves with them, so dividing each call
    by the reference calls beside it cancels the drift while a change to
    scanforge still shows."""
    store = RefStore(values)
    add = lambda a, b: a + b  # noqa: E731  (the shape of the scanforge op)
    for i in range(2, len(values) + 1):
        store.put(i, add(store.get(i - 1), store.get(i)))
    return store.data


def reference_call(rng: random.Random):
    values = rng.choices(INT_RANGE, k=REFERENCE_N)
    expected = list(accumulate(values))
    return Call("reference", "reference", REFERENCE_N, lambda: reference_scan(values),
                lambda got: got == expected)


class Call:
    """One timed call: `fn()` is timed, `check(output)` runs after it, untimed."""

    __slots__ = ("lane", "kernel", "n", "fn", "check")

    def __init__(self, lane, kernel, n, fn, check):
        self.lane, self.kernel, self.n, self.fn, self.check = lane, kernel, n, fn, check


class Workload:
    """Kernel objects are made once and reused, as a library user would, so a
    cache keyed on the kernel can hit."""

    _kernels = None

    def kernels(self, sf):
        if self._kernels is None:
            self._kernels = {name: sf.get_kernel(name, CHUNKS) for name in KERNELS}
        return self._kernels


class Compute(Workload):
    """Library scans kernel(ListStore(values), op).to_list() at n=65536."""

    def __init__(self, rng: random.Random):
        self.rng = rng

    def inputs(self):
        ints = self.rng.choices(INT_RANGE, k=COMPUTE_N)
        mats, mats_expected = matmul2_inputs(self.rng, COMPUTE_N)
        return {
            "add": (ints, list(accumulate(ints))),
            "max": (ints, list(accumulate(ints, max))),
            "matmul2": (mats, mats_expected),
        }

    def calls(self, sf, inputs):
        """matmul2 costs ~10x add, so a round makes each add and max call three
        times, spread between the matmul2 calls: every lane gets samples from
        the whole round, not from one stretch of it."""
        ops = sf.builtin_ops()

        def call(lane, name):
            values, expected = inputs[lane]
            kernel = self.kernels(sf)[name]
            return Call(lane, name, COMPUTE_N,
                        lambda: kernel(sf.ListStore(values), ops[lane]).to_list(),
                        lambda got: got == expected)

        out = []
        for matmul_kernel in KERNELS:
            out += [call(lane, name) for lane in ("add", "max") for name in KERNELS]
            out.append(call("matmul2", matmul_kernel))
        return out


class ProveDraw(Workload):
    """`scanforge verify` / `render` / `trace` through cli.main, fresh n per call."""

    def __init__(self, rng: random.Random, workdir: str):
        self.workdir = workdir
        self.sizes = {
            "verify": iter(rng.sample(VERIFY_N, len(VERIFY_N))),
            "render": iter(rng.sample(RENDER_N, len(RENDER_N))),
            "trace": iter(rng.sample(TRACE_N, len(TRACE_N))),
        }

    def inputs(self):
        """Sizes for one round; None once a range is used up."""
        try:
            return {lane: [next(it) for _ in KERNELS] for lane, it in self.sizes.items()}
        except StopIteration:
            return None

    def calls(self, sf, inputs):
        out = []
        svg = os.path.join(self.workdir, "render.svg")
        trace = os.path.join(self.workdir, "trace.json")
        for lane in LANES["prove-draw"]:
            for name, n in zip(KERNELS, inputs[lane]):
                argv = [lane, "--kernel", name, "--n", str(n), "--chunks", str(CHUNKS)]
                if lane == "verify":
                    check = lambda got, name=name, n=n: check_verify(got, name, n)
                elif lane == "render":
                    argv += ["--out", svg]
                    check = lambda got, k=name, n=n: check_render(got, sf, k, n, svg)
                else:
                    argv += ["--out", trace]
                    check = lambda got, k=name, n=n: check_trace(got, sf, k, n, trace)
                out.append(Call(lane, name, n, lambda a=argv: cli_call(sf, a), check))
        return out


def cli_call(sf, argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = sf.cli.main(argv)
    return rc, buf.getvalue()


def transactions(sf, name: str, n: int) -> int:
    store = CountStore(n)
    sf.get_kernel(name, CHUNKS)(store, free_op)
    return store.puts


def check_verify(got, name, n) -> bool:
    rc, text = got
    report = json.loads(text)
    return rc == 0 and report["ok"] is True and report["n"] == n \
        and report["kernel"] == kernel_name(name)


def check_render(got, sf, name, n, path) -> bool:
    rc, _ = got
    root = ET.parse(path).getroot()
    outs = [e for e in root.iter("{http://www.w3.org/2000/svg}circle")
            if e.get("class") == "out"]
    return rc == 0 and len(outs) == transactions(sf, name, n)


def check_trace(got, sf, name, n, path) -> bool:
    rc, _ = got
    with open(path) as f:
        rows = json.load(f)
    if rc != 0 or len(rows) != transactions(sf, name, n):
        return False
    values = list(range(1, n + 1))
    for row in rows:  # replaying the trace with + must give the prefix sums
        a, b = row["reads"]
        values[row["write"] - 1] = values[a - 1] + values[b - 1]
    return values == list(accumulate(range(1, n + 1)))


class Parallel(Workload):
    """run_parallel (free and costly op) and run_virtual over the three kernels."""

    def __init__(self, rng: random.Random):
        self.rng = rng

    def inputs(self):
        out = {}
        for lane, n in (("run_parallel", PARALLEL_N), ("run_parallel_costly", COSTLY_N),
                        ("run_virtual", VIRTUAL_N)):
            values = self.rng.choices(INT_RANGE, k=n)
            out[lane] = (values, list(accumulate(values)))
        return out

    def calls(self, sf, inputs):
        add = sf.builtin_ops()["add"]
        out = []
        for lane in LANES["parallel"]:
            values, expected = inputs[lane]
            for name, k in self.kernels(sf).items():
                if lane == "run_parallel":
                    fn = lambda k=k, v=values: sf.run_parallel(k, v, add, WORKERS)
                elif lane == "run_parallel_costly":
                    fn = lambda k=k, v=values: sf.run_parallel(k, v, costly_add, WORKERS)
                else:
                    fn = lambda k=k, v=values: sf.run_virtual(k, v, add, VIRTUAL_WORKERS).results
                out.append(Call(lane, name, len(values), fn,
                                lambda got, want=expected: got == want))
        return out


def virtual_bench_calls(sf):
    """The virtual-clock bench rows must match the speedup model exactly."""
    from fractions import Fraction

    def row_ok(p):
        serial, bk = sf.get_kernel("serial"), sf.get_kernel("brent-kung")
        (row,) = sf.bench(serial, bk, [p], op_cost=1, trials=1, virtual=True)
        return Fraction(row.t_serial, row.t_parallel) == sf.speedup_model(p)

    return [Call("virtual_bench", "serial/brent-kung", p, lambda p=p: row_ok(p),
                 lambda got: got is True) for p in (4, 8, 16, 32)]


def make_workload(name: str, rng: random.Random, workdir: str):
    if name == "compute":
        return Compute(rng)
    if name == "prove-draw":
        return ProveDraw(rng, workdir)
    return Parallel(rng)


class Recorder:
    """Appends one JSON line per record and flushes, so a killed run keeps them."""

    def __init__(self, path: str):
        self.f = open(path, "a")
        self.seen: set = set()

    def write(self, **rec):
        self.f.write(json.dumps(rec) + "\n")
        self.f.flush()

    def call(self, call: Call, warm: bool) -> tuple[float, object]:
        """Time one call, check its output untimed, record both; return the
        seconds and the output (None if the call raised).

        `reuse` marks a call whose (kernel, n) an earlier call of this
        process already ran: the calls a per-(kernel, n) plan cache would hit.
        """
        key = (call.kernel, call.n)
        reuse = key in self.seen
        self.seen.add(key)
        error = got = None
        t = time.perf_counter()
        try:
            got = call.fn()
        except Exception as exc:  # a raising call is a failed call, not a crash
            s = time.perf_counter() - t
            ok, error = False, repr(exc)
        else:
            s = time.perf_counter() - t
            try:
                ok = bool(call.check(got))
            except Exception as exc:
                ok, error = False, repr(exc)
        self.write(type="call", lane=call.lane, kernel=call.kernel, n=call.n, s=s,
                   ok=ok, warm=warm, reuse=reuse, error=error)
        return s, got

    def close(self):
        self.f.close()


def run_round(rec, calls, reference, warm):
    """Lane calls with the reference scan interleaved, so both sample the
    machine at the same moments."""
    since = 0.0
    for call in calls:
        since += rec.call(call, warm)[0]
        if since >= REFERENCE_PERIOD_S:
            rec.call(reference, warm)
            since = 0.0


def check_workers():
    cores = len(os.sched_getaffinity(0))
    if WORKERS > cores:
        raise SystemExit(f"perfbench: {WORKERS} worker threads requested but only "
                         f"{cores} cores are available")


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(LANES))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--mode", required=True, choices=("setup", "timed", "traced"))
    p.add_argument("--records", required=True)
    p.add_argument("--workdir", required=True)
    p.add_argument("--t0", type=float, default=None,
                   help="time.monotonic() in the parent just before this process started")
    args = p.parse_args(argv)

    check_workers()  # before any scanforge thread can start
    rec = Recorder(args.records)
    rng = random.Random(args.seed)
    workload = make_workload(args.workload, rng, args.workdir)
    try:
        gen = time.monotonic()
        inputs = workload.inputs()
        gen = time.monotonic() - gen

        import scanforge as sf  # imported here: set-up is timed from a cold import
        import scanforge.cli  # noqa: F401  (the prove-draw entry point)

        calls = workload.calls(sf, inputs)
        if args.mode == "setup":
            rec.call(calls[0], warm=True)
            if args.t0 is not None:
                # Set-up is the program's cost: input generation is taken out.
                rec.write(type="setup", s=time.monotonic() - args.t0 - gen)
            rec.write(type="end")
            return 0
        if args.mode == "traced":
            import layers

            layers.traced_run(sf, workload, rec, calls, args.seconds,
                              random.Random(args.seed + 1), args.workdir)
            rec.write(type="end")
            return 0

        reference = reference_call(rng)
        run_round(rec, calls, reference, warm=True)  # excluded from the timings
        if args.workload == "parallel":
            for call in virtual_bench_calls(sf):
                rec.call(call, warm=True)
        start = time.monotonic()
        rounds = 0
        while time.monotonic() - start < args.seconds:
            inputs = workload.inputs()
            if inputs is None:
                break
            run_round(rec, workload.calls(sf, inputs), reference, warm=False)
            rounds += 1
        rec.write(type="rounds", n=rounds, s=time.monotonic() - start)
        rec.write(type="end")
        return 0
    finally:
        rec.close()


if __name__ == "__main__":
    sys.exit(main())
