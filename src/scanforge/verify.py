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
from dataclasses import dataclass, field
from typing import Callable, Optional

from . import kernels  # the module, not its names: kernels imports ops, ops this
from .stores import ListStore
from .tracing import Transaction, infer_depths, run_traced


@dataclass(frozen=True)
class Range:
    """A contiguous 1-based index range lo..hi."""

    lo: int
    hi: int

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError(f"empty range {self.lo}..{self.hi}")

    def __repr__(self):
        return f"{self.lo}:{self.hi}"


class _Identity:
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "ID"


class _Top:
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "TOP"


IDENTITY = _Identity()
TOP = _Top()

Interval = object  # Range | IDENTITY | TOP


def interval_plus(a: Interval, b: Interval) -> Interval:
    """The interval-monoid operator.

    Cases are ordered most-specific first, mirroring how an overload table
    with a catch-all absorbing case resolves: contiguous ranges join,
    identity is neutral on either side, everything else collapses to TOP.
    """
    if isinstance(a, Range) and isinstance(b, Range):
        return Range(a.lo, b.hi) if a.hi + 1 == b.lo else TOP
    if a is IDENTITY and b is IDENTITY:
        return IDENTITY
    if b is IDENTITY:
        return a
    if a is IDENTITY:
        return b
    return TOP


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
        return json.dumps(
            {
                "kernel": self.kernel,
                "n": self.n,
                "ok": self.ok,
                "first_top": self.first_top,
                "conflicts": list(self.conflicts) if self.conflicts else None,
            }
        )


def verify_serial(kernel: kernels.ScanKernel | Callable, n: int) -> VerificationReport:
    """Serial correctness: scan the unit ranges and demand [1:k for k=1..n].

    first_top is the 1-based ordinal of the first operator application that
    produced TOP, if any.
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

    store = ListStore(seed_intervals(n))
    kernel(store, counting_plus)
    output = store.to_list()
    expected = expected_intervals(n)
    name = kernel.name if isinstance(kernel, kernels.ScanKernel) else getattr(
        kernel, "__name__", "kernel"
    )
    ok = output == expected and state["first_top"] is None
    return VerificationReport(name, n, ok, output, expected, state["first_top"])


def race_check_history(history: list[Transaction]) -> RaceReport:
    """Within each inferred stage, no index may be touched twice.

    Reports the 1-based ordinals of the first conflicting transaction pair.
    """
    seen: dict[int, int] = {}
    level = None
    for ordinal, (t, depth) in enumerate(infer_depths(history), start=1):
        if depth != level:
            seen = {}
            level = depth
        for idx in set(t.reads) | {t.write}:
            if idx in seen:
                return RaceReport(False, (seen[idx], ordinal))
            seen[idx] = ordinal
    return RaceReport(True)


def verify_race_free(kernel: kernels.ScanKernel | Callable, n: int) -> RaceReport:
    if n < 1:
        raise ValueError("n must be >= 1")
    return race_check_history(run_traced(kernel, n))


def verify_parallel(kernel: kernels.ScanKernel | Callable, n: int) -> ParallelReport:
    """Parallel correctness = serial correctness + race-free staging."""
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
