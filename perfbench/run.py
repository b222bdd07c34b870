"""scanforge benchmark: one command prints every metric and checks every output.

Run from the root of a scanforge checkout:

    python3 perfbench/run.py --workload compute --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py) and their three lanes, reported as
lane1/lane2/lane3_rel_speed:

    compute     add | max | matmul2        kernel(ListStore(values), op) at n=65536
    prove-draw  verify | render | trace    `scanforge <cmd>` via cli.main, fresh n each call
    parallel    run_parallel (free op, n=1024) | run_parallel (1 ms op, n=64)
                | run_virtual (n=4096, 8 virtual workers)

Each lane runs the kernels serial, brent-kung and scan-then-fan[8]. A lane's
metric is its speed relative to a yardstick (see `lane_metric`). Its elements
per second, (number of kernels) / (sum over kernels of the median per-call
seconds per element), are printed in the report under their user-facing names.

--trace 0 prints the end-to-end metrics (lanes, setup_s, peak_rss_mb); --trace 1
runs the per-layer probes of layers.py in a separate process instead. Every
line but the last is a human-readable report; the last line is one JSON object.

Each sample runs in a child process with a deadline; a call that raises, hangs
or returns a wrong output counts as failed. The exit code is 0 when a result
was printed, 2 when the checkout has no scanforge sources or a run could not
produce every metric.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import CHUNKS, COSTLY_SLEEP_S, KERNELS, LANES  # noqa: E402

SETUP_SAMPLES = 7
DEADLINE_S = 170  # the whole command, all children included
LANE_METRICS = ("lane1_rel_speed", "lane2_rel_speed", "lane3_rel_speed")
REFERENCE_NEIGHBOURS = 2  # reference calls taken on each side of a lane call
# Lanes that mostly sleep: CPU speed hardly moves them, so their yardstick is
# the op's own pace, one element per op cost, not the reference scan.
SLEEP_BOUND = {"run_parallel_costly": 1 / COSTLY_SLEEP_S}
# Raw throughputs, printed under the names users know; each combines the lanes listed.
NAMED = {
    "compute": {"run_elems_per_s": ("add", "max"),
                "run_matmul2_elems_per_s": ("matmul2",)},
    "prove-draw": {"verify_elems_per_s": ("verify",),
                   "render_elems_per_s": ("render",),
                   "trace_elems_per_s": ("trace",)},
    "parallel": {"run_parallel_elems_per_s": ("run_parallel",),
                 "run_parallel_costly_elems_per_s": ("run_parallel_costly",),
                 "run_virtual_elems_per_s": ("run_virtual",)},
}


def layer_unit(name):
    for suffix, unit in (("elems_per_s", "elems/s"), ("us_per_task", "us"), ("_s", "s"),
                         ("share", "share"), ("_per_tick", "ratio"), ("_bytes", "bytes")):
        if name.endswith(suffix):
            return unit
    return "count"


class BenchError(Exception):
    pass


def per_kernel(calls, lanes, cost):
    """Median of cost(i, call) per (lane, kernel) of `lanes`, over the correct
    timed calls; `i` is the call's position in the run."""
    per_type = {}
    for i, c in enumerate(calls):
        if c["lane"] in lanes and c["ok"] and not c["warm"]:
            per_type.setdefault((c["lane"], c["kernel"]), []).append(cost(i, c))
    missing = [(lane, k) for lane in lanes for k in KERNELS if (lane, k) not in per_type]
    if missing:
        errors = {c["error"] for c in calls if not c["ok"]}
        raise BenchError(f"no correct timed call for {missing}; errors: {errors or 'none'}")
    return [statistics.median(v) for v in per_type.values()]


def lane_rate(calls, lanes):
    """Elements per second over the (lane, kernel) types of `lanes`."""
    medians = per_kernel(calls, lanes, lambda i, c: c["s"] / c["n"])
    return len(medians) / sum(medians)


def lane_metric(calls, lane):
    """A lane's speed relative to its yardstick.

    CPU-bound lanes: each call's seconds per element is divided by that of the
    reference scans run just before and after it (workloads.reference_scan),
    so the machine's speed at that moment cancels; the metric is (number of
    kernels) / (sum over kernels of the median ratio); README.md gives the
    spreads it removes. Sleep-bound lanes: elements per second over SLEEP_BOUND.
    """
    if lane in SLEEP_BOUND:
        return lane_rate(calls, (lane,)) / SLEEP_BOUND[lane]
    refs = [(i, c["s"] / c["n"]) for i, c in enumerate(calls)
            if c["lane"] == "reference" and c["ok"] and not c["warm"]]
    if not refs:
        raise BenchError("no reference scan completed")
    at = [i for i, _ in refs]

    def ratio(i, c):
        k = bisect.bisect(at, i)
        near = [r for _, r in refs[max(0, k - REFERENCE_NEIGHBOURS):k + REFERENCE_NEIGHBOURS]]
        return c["s"] / c["n"] / (sum(near) / len(near))

    medians = per_kernel(calls, (lane,), ratio)
    return len(medians) / sum(medians)


class Runner:
    def __init__(self, args, root):
        self.args = args
        self.start = time.monotonic()
        self.workdir = os.path.join(root, ".bench_build", f"perfbench-{os.getpid()}")
        os.makedirs(self.workdir)
        self.env = {k: v for k, v in os.environ.items() if k != "SCANFORGE_WORKERS"}
        src = os.path.join(root, "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)
        self.env["TMPDIR"] = self.workdir
        self.children = 0

    def child(self, mode, seconds, timeout):
        """Run one workload process; return (records, finished)."""
        self.children += 1
        records = os.path.join(self.workdir, f"records-{self.children}.jsonl")
        a = self.args
        cmd = [sys.executable, os.path.join(HERE, "workloads.py"),
               "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(seconds),
               "--mode", mode, "--records", records, "--workdir", self.workdir]
        timeout = min(timeout, DEADLINE_S - (time.monotonic() - self.start))
        if timeout <= 0:
            raise BenchError("deadline reached before every sample ran")
        t0 = time.monotonic()
        try:
            proc = subprocess.run(cmd + ["--t0", repr(t0)], env=self.env, timeout=timeout,
                                  stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
            exited = proc.returncode == 0
        except subprocess.TimeoutExpired:  # run() has killed and reaped the child
            print(f"# {mode} process killed after {timeout:.0f} s", file=sys.stderr)
            exited = False
        out = []
        if os.path.exists(records):
            with open(records) as f:
                out = [json.loads(line) for line in f if line.endswith("\n")]
        finished = exited and bool(out) and out[-1]["type"] == "end"
        return out, finished

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


def count(calls, finished_flags):
    """attempted/failed over scanforge calls (the reference scan is the
    benchmark's own); a process that did not finish lost one call in flight."""
    calls = [c for c in calls if c["lane"] != "reference"]
    lost = sum(not f for f in finished_flags)
    return len(calls) + lost, sum(not c["ok"] for c in calls) + lost


def machine(root):
    try:
        numpy = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy = "absent"
    git = "none"
    if os.path.isdir(os.path.join(root, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, text=True,
                              capture_output=True, stdin=subprocess.DEVNULL)
        git = proc.stdout.strip() or "none"
    digest = hashlib.sha1()
    pkg = os.path.join(root, "src", "scanforge")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as f:
                digest.update(name.encode() + b"\0" + f.read())
    return (f"nproc={len(os.sched_getaffinity(0))} python={sys.version.split()[0]} "
            f"numpy={numpy} git={git} src_sha1={digest.hexdigest()[:12]}")


def timed(runner, args):
    setup, calls, flags = [], [], []
    for _ in range(SETUP_SAMPLES):
        recs, done = runner.child("setup", 0, 30)
        flags.append(done)
        calls += [r for r in recs if r["type"] == "call"]
        setup += [r["s"] for r in recs if r["type"] == "setup"]
    recs, done = runner.child("timed", args.seconds, args.seconds + 60)
    flags.append(done)
    main_calls = [r for r in recs if r["type"] == "call"]
    calls += main_calls
    rounds = next((r for r in recs if r["type"] == "rounds"), {"n": 0, "s": 0.0})
    if not setup:
        raise BenchError("no set-up sample completed")

    lanes = LANES[args.workload]
    metrics = {name: {"value": lane_metric(main_calls, lane), "unit": "ratio"}
               for name, lane in zip(LANE_METRICS, lanes)}
    metrics["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    metrics["peak_rss_mb"] = {"value": peak, "unit": "MB"}

    lane_calls = [c for c in main_calls if c["lane"] in lanes]
    per_kernel = len(lane_calls) // (len(lanes) * len(KERNELS))
    reuse = sum(c["reuse"] for c in lane_calls) / max(len(lane_calls), 1)
    print(f"# mix: lanes {' | '.join(lanes)}; kernels {', '.join(KERNELS)} "
          f"(chunks={CHUNKS}); {rounds['n']} rounds in {rounds['s']:.1f} s; "
          f"{len(lane_calls)} calls (~{per_kernel} per lane and kernel); "
          f"plan_reuse_share={reuse:.3f}")
    ref = [c["s"] / c["n"] for c in main_calls
           if c["lane"] == "reference" and c["ok"] and not c["warm"]]
    print(f"#   reference scan = {1 / statistics.median(ref):.6g} elems/s")
    for name, lane in zip(LANE_METRICS, lanes):
        yardstick = "1 element per op cost" if lane in SLEEP_BOUND else "the reference scan"
        print(f"#   {name} ({lane}) = {metrics[name]['value']:.6g} x {yardstick}")
    for name, group in NAMED[args.workload].items():
        print(f"#   {name} = {lane_rate(main_calls, group):.6g} elems/s")
    print(f"#   setup_s = {metrics['setup_s']['value']:.4f} s "
          f"(median of {len(setup)}: {', '.join(f'{s:.4f}' for s in setup)})")
    print(f"#   peak_rss_mb = {peak:.1f} MB")
    return metrics, calls, flags


def traced(runner, args):
    recs, done = runner.child("traced", args.seconds, args.seconds + 120)
    calls = [r for r in recs if r["type"] == "call"]
    layers = next((r for r in recs if r["type"] == "layers"), None)
    if layers is None:
        raise BenchError("the traced run ended before reporting its layers")
    metrics = {name: {"value": value, "unit": layer_unit(name)}
               for name, value in layers["metrics"].items()}
    print(f"# traced run: {layers['probe_rounds']} probe rounds, "
          f"{layers['mix_rounds']} mix rounds (half with spans)")
    for name, m in metrics.items():
        print(f"#   {name} = {m['value']:.6g} {m['unit']}")
    spans = ", ".join(f"{k}={v:.3f}" for k, v in sorted(layers["span_self_s"].items()))
    print(f"#   span self time in the traced mix (s): {spans}")
    return metrics, calls, [done]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(LANES))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not 1 <= args.seconds <= 60:
        p.error("--seconds must be within 1..60")

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "scanforge", "__init__.py")):
        print("perfbench: no src/scanforge here; run from the root of a scanforge "
              "checkout", file=sys.stderr)
        return 2

    print(f"# scanforge benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print(f"# machine: {machine(root)}")
    runner = Runner(args, root)
    try:
        metrics, calls, flags = (traced if args.trace else timed)(runner, args)
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    finally:
        runner.close()
    attempted, failed = count(calls, flags)
    for c in calls:
        if not c["ok"]:
            print(f"# FAILED {c['lane']} {c['kernel']} n={c['n']}: {c['error']}")
    print(f"#   failed_ratio = {failed / attempted:.4g} ({failed} of {attempted})")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
