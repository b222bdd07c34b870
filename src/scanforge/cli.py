"""Command-line entry point: scan, trace, render, verify, and bench."""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional, Sequence

from . import kernels, ops, render, runtime, tracing, verify
from .stores import ListStore


def _atomic_write(path: str, text: str) -> None:
    # Mode "x" creates the temporary file as open(path, "w") would create the
    # target, 0o666 less the umask; tempfile.mkstemp would make it 0o600.
    directory = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(directory, f".scanforge-{os.urandom(8).hex()}")
    f = open(tmp, "x")
    try:
        with f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _parse_number(tok: str):
    try:
        return int(tok)
    except ValueError:
        return float(tok)


def _parse_interval(tok: str):
    if tok == "id":
        return verify.IDENTITY
    if tok == "top":
        return verify.TOP
    lo, _, hi = tok.partition(":")
    return verify.Range(int(lo), int(hi))


def parse_elements(op_name: str, text: str) -> list:
    """Parse CLI input into elements of the operator's domain."""
    if op_name == "concat":
        return [t for t in text.split(",")]
    tokens = [t for t in text.replace(",", " ").split() if t]
    if op_name == "matmul2":
        if len(tokens) % 4:
            raise ValueError("matmul2 input must be groups of 4 numbers")
        nums = [_parse_number(t) for t in tokens]
        return [
            ((nums[k], nums[k + 1]), (nums[k + 2], nums[k + 3]))
            for k in range(0, len(nums), 4)
        ]
    if op_name == "interval":
        return [_parse_interval(t) for t in tokens]
    return [_parse_number(t) for t in tokens]


def format_element(op_name: str, x) -> str:
    if op_name == "matmul2":
        return " ".join(str(v) for row in x for v in row)
    if op_name == "interval":
        return verify.format_interval(x)
    return str(x)


def _get_kernel(name: str, chunks: int) -> kernels.ScanKernel:
    try:
        return kernels.get_kernel(name, chunks)
    except KeyError as e:
        raise UsageError(e.args[0])


def _get_op(name: str) -> ops.AssocOp:
    catalog = ops.builtin_ops()
    if name not in catalog:
        raise UsageError(
            f"unknown op {name!r}; choose from {', '.join(sorted(catalog))}"
        )
    return catalog[name]


class UsageError(Exception):
    pass


def _cmd_run(args) -> int:
    kernel = _get_kernel(args.kernel, args.chunks)
    op = _get_op(args.op)
    if args.input is not None:
        text = args.input
    elif args.input_file is not None:
        with open(args.input_file) as f:
            text = f.read()
    else:
        raise UsageError("run requires --input or --input-file")
    elements = parse_elements(args.op, text)
    if kernel.fixed_length is not None and len(elements) != kernel.fixed_length:
        raise UsageError(
            f"kernel {kernel.name} requires exactly {kernel.fixed_length} elements"
        )
    store = ListStore(elements)
    kernel(store, op)
    print(",".join(format_element(args.op, x) for x in store.to_list()))
    return 0


def _cmd_trace(args) -> int:
    kernel = _get_kernel(args.kernel, args.chunks)
    _check_size(kernel, args.n)
    text = tracing._plan_json(kernel, args.n) + "\n"
    if args.out:
        _atomic_write(args.out, text)
    else:
        sys.stdout.write(text)
    return 0


def _parse_viewport(spec: str) -> tuple[int, int]:
    w, _, h = spec.partition("x")
    if not (w.isdecimal() and h.isdecimal() and int(w) > 0 and int(h) > 0):
        raise UsageError(f"--viewport {spec!r}: expected WxH in positive integers, "
                         "e.g. 600x400")
    return int(w), int(h)


def _cmd_render(args) -> int:
    viewport = _parse_viewport(args.viewport)
    if args.trace:
        with open(args.trace) as f:
            columns = tracing._trace_rows(f.read(), args.n)
        n = args.n if args.n is not None else max(map(max, *columns), default=0)
        if not 0 <= n <= runtime.MAX_N:  # before drawing: the SVG draws a line per index
            raise UsageError(f"a diagram {n} lines wide: n must be in 0..MAX_N ({runtime.MAX_N})")
    else:
        if args.kernel is None or args.n is None:
            raise UsageError("render requires --trace or both --kernel and --n")
        kernel = _get_kernel(args.kernel, args.chunks)
        _check_size(kernel, args.n)
        n, columns = args.n, tracing._columns(kernels._kernel_plan(kernel, args.n))
    depths = tracing._depths(*columns)
    _atomic_write(args.out, render._svg(n, max(depths, default=0), *columns, depths, viewport))
    return 0


def _check_size(kernel: kernels.ScanKernel, n: int) -> None:
    if kernel.fixed_length is not None and n != kernel.fixed_length:
        raise UsageError(f"kernel {kernel.name} requires n == {kernel.fixed_length}")
    if n > runtime.MAX_N:  # before the plan is recorded
        raise UsageError(f"--n {n}: n must be <= MAX_N ({runtime.MAX_N})")


def _cmd_verify(args) -> int:
    kernel = _get_kernel(args.kernel, args.chunks)
    _check_size(kernel, args.n)
    report = verify.verify_parallel(kernel, args.n)
    print(report.to_json())
    return 0 if report.ok else 1


def _parse_p_range(spec: str) -> list[int]:
    # "4,8,16" is an explicit list; "4:32" doubles from 4 up to 32.
    if ":" in spec:
        lo, _, hi = spec.partition(":")
        p, out = int(lo), []
        if p < 2:  # outside speedup_model's domain; doubling from p <= 0 never ends
            raise UsageError(f"--p-range {spec!r}: p must be >= 2")
        while p <= int(hi):
            out.append(p)
            p *= 2
    else:
        out = [int(t) for t in spec.split(",") if t]
        if any(p < 2 for p in out):
            raise UsageError(f"--p-range {spec!r}: p must be >= 2")
    if not out:
        raise UsageError(f"--p-range {spec!r} names no p")
    return out


def _cmd_bench(args) -> int:
    names = [k for k in args.kernels.split(",") if k]
    if len(names) != 2:
        raise UsageError("bench expects two kernels: a serial and a parallel one")
    serial = _get_kernel(names[0], args.chunks)
    parallel = _get_kernel(names[1], args.chunks)
    rows = runtime.bench(
        serial,
        parallel,
        _parse_p_range(args.p_range),
        op_cost=args.op_cost,
        trials=args.trials,
        virtual=args.virtual_clock,
    )
    csv = runtime.bench_csv(rows)
    if args.out:
        _atomic_write(args.out, csv)
    else:
        sys.stdout.write(csv)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scanforge",
        description="Generic prefix-scan kernels: compute, trace, render, "
        "verify, and benchmark.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    kernel_names = ", ".join(kernels.KERNEL_NAMES)

    run = sub.add_parser("run", help="compute a scan and print the result")
    run.add_argument("--kernel", required=True, help=f"one of: {kernel_names}")
    run.add_argument("--op", required=True, help="operator name from the catalog")
    run.add_argument("--input", help="inline comma-separated elements")
    run.add_argument("--input-file", help="file holding the elements")
    run.add_argument("--chunks", type=int, default=4)
    run.set_defaults(fn=_cmd_run)

    trace = sub.add_parser("trace", help="record a kernel's access trace as JSON")
    trace.add_argument("--kernel", required=True)
    trace.add_argument("--n", type=int, required=True)
    trace.add_argument("--out", help="output path (stdout when omitted)")
    trace.add_argument("--chunks", type=int, default=4)
    trace.set_defaults(fn=_cmd_trace)

    rend = sub.add_parser("render", help="emit a gate-diagram SVG")
    rend.add_argument("--kernel")
    rend.add_argument("--n", type=int)
    rend.add_argument("--trace", help="render a previously recorded JSON trace")
    rend.add_argument("--out", required=True)
    rend.add_argument("--viewport", default="600x400")
    rend.add_argument("--chunks", type=int, default=4)
    rend.set_defaults(fn=_cmd_render)

    ver = sub.add_parser("verify", help="check a kernel with the interval monoid")
    ver.add_argument("--kernel", required=True)
    ver.add_argument("--n", type=int, required=True)
    ver.add_argument("--chunks", type=int, default=4)
    ver.set_defaults(fn=_cmd_verify)

    ben = sub.add_parser("bench", help="weak-scaling benchmark, CSV output")
    ben.add_argument("--kernels", default="serial,brent-kung",
                     help="serial,parallel kernel pair")
    ben.add_argument("--p-range", default="4:32",
                     help='"4,8,16" list or "4:32" doubling range')
    ben.add_argument("--op-cost", type=float, default=0.01,
                     help="seconds per op (in virtual-clock mode, whole ticks per "
                     "op; a cost below 1 counts as 1 tick)")
    ben.add_argument("--trials", type=int, default=3)
    ben.add_argument("--out", help="CSV path (stdout when omitted)")
    ben.add_argument("--virtual-clock", action="store_true")
    ben.add_argument("--chunks", type=int, default=4)
    ben.set_defaults(fn=_cmd_bench)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (UsageError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
