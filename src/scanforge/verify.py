"""Correctness checking of scan kernels via the interval monoid.

Running a kernel on symbolic index ranges instead of numbers turns
correctness into a value check: each output cell must hold the contiguous
range 1..k, and combining noncontiguous ranges poisons the run with the
absorbing element TOP. A kernel whose serialized run passes this check,
and whose trace is free of same-stage index conflicts, is correct in
parallel as well.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Callable, Iterable, Optional

from .kernels import ScanKernel, _kernel_plan, _replay
from .ops import IDENTITY, TOP, Interval, Range, interval_plus
from .tracing import Transaction, _history_rows, _plan_rows


def seed_intervals(n: int) -> list:
    return [Range(k, k) for k in range(1, n + 1)]


def expected_intervals(n: int) -> list:
    return [Range(1, k) for k in range(1, n + 1)]


def format_interval(x: Interval) -> str:
    if isinstance(x, Range):
        return f"{x.lo}:{x.hi}"
    return "id" if x is IDENTITY else "top"


@dataclass
class VerificationReport:
    kernel: str
    n: int
    ok: bool
    output: list = field(default_factory=list)
    expected: list = field(default_factory=list)
    first_top: Optional[int] = None


@dataclass
class RaceReport:
    ok: bool
    conflicting: Optional[tuple[int, int]] = None


@dataclass
class ParallelReport:
    kernel: str
    n: int
    ok: bool
    first_top: Optional[int] = None
    conflicts: Optional[tuple[int, int]] = None

    def to_json(self) -> str:
        return json.dumps(asdict(self))


def verify_serial(kernel: ScanKernel | Callable, n: int) -> VerificationReport:
    """Serial correctness: scan the unit ranges and demand [1:k for k=1..n].

    first_top is the 1-based ordinal of the first operator application that
    produced TOP, if any. The ranges are scanned by the kernel's plan, so a
    kernel that breaks the store contract raises kernels.ContractError.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    state = {"ordinal": 0, "first_top": None}

    def counting_plus(a, b):
        state["ordinal"] += 1
        r = interval_plus(a, b)
        if r is TOP and state["first_top"] is None:
            state["first_top"] = state["ordinal"]
        return r

    output = seed_intervals(n)
    _replay(_kernel_plan(kernel, n), output, counting_plus)
    expected = expected_intervals(n)
    name = kernel.name if isinstance(kernel, ScanKernel) else getattr(
        kernel, "__name__", "kernel"
    )
    ok = output == expected and state["first_top"] is None
    return VerificationReport(name, n, ok, output, expected, state["first_top"])


def _race_check(reads: Iterable[tuple[int, ...]], writes: Iterable[int],
                depths: Iterable[int]) -> RaceReport:
    """Within each stage, no index may be touched by two rows.

    Reports the 1-based ordinals of the first conflicting pair of rows.
    """
    seen: dict[int, int] = {}
    level = None
    for ordinal, (r, w, depth) in enumerate(zip(reads, writes, depths), start=1):
        if depth != level:
            seen = {}
            level = depth
        for idx in set(r) | {w}:
            if idx in seen:
                return RaceReport(False, (seen[idx], ordinal))
            seen[idx] = ordinal
    return RaceReport(True)


def race_check_history(history: list[Transaction]) -> RaceReport:
    """The race check of a recorded history, staged by the stage rule."""
    return _race_check(*_history_rows(history))


def verify_race_free(kernel: ScanKernel | Callable, n: int) -> RaceReport:
    if n < 1:
        raise ValueError("n must be >= 1")
    firsts, seconds, writes, depths = _plan_rows(kernel, n)
    return _race_check(zip(firsts, seconds), writes, depths)


def verify_parallel(kernel: ScanKernel | Callable, n: int) -> ParallelReport:
    """Parallel correctness = serial correctness + race-free staging.

    Both read the kernel's plan; a ScanKernel's code runs once, to record it.
    """
    serial = verify_serial(kernel, n)
    races = verify_race_free(kernel, n)
    name = serial.kernel
    return ParallelReport(
        name,
        n,
        serial.ok and races.ok,
        serial.first_top,
        races.conflicting,
    )
