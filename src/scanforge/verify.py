"""Correctness checking of scan kernels via the interval monoid.

Running a kernel on symbolic index ranges instead of numbers turns
correctness into a value check: each output cell must hold the contiguous
range 1..k, and combining noncontiguous ranges poisons the run with the
absorbing element TOP. A kernel whose serialized run passes this check,
and whose trace is free of same-stage index conflicts, is correct in
parallel as well.

verify_parallel decides the value check on two int columns, lo and hi,
instead of a Range per update. Seeded with k:k in cell k, the replay holds
only Ranges until a join fails, and the join of lo:hi with lo':hi' is
lo:hi' exactly when hi + 1 == lo'. So while every join holds, the columns
are the Range replay, and the kernel is correct iff every join holds and
the columns end as 1..1 and 1..n. A chain pass is one slice compare and
one slice fill, as its joins carry the first lo along; an alias-free pass
is one compare and two slice copies, as it reads only values from before
it; other passes check and copy per update. On any other outcome the plan
is replayed on Ranges with interval_plus, the monoid's definition, as
verify_serial does, so the report's first_top is the definition's. One
such check proves an oblivious kernel for every associative operator
(Chong, Donaldson and Ketema, POPL 2014).
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import asdict, dataclass, field
from typing import Callable, Iterable, Optional, Sequence

from .kernels import Plan, ScanKernel, _cells, _kernel_plan, _passes, _replay, _updates
from .ops import IDENTITY, TOP, Interval, Range, interval_plus
from .tracing import Transaction, _as_row, _columns, _depths, _rows


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


def _name(kernel: ScanKernel | Callable) -> str:
    if isinstance(kernel, ScanKernel):
        return kernel.name
    return getattr(kernel, "__name__", "kernel")


def _checked_plan(kernel: ScanKernel | Callable, n: int) -> Plan:
    if n < 1:
        raise ValueError("n must be >= 1")
    return _kernel_plan(kernel, n)


def verify_serial(kernel: ScanKernel | Callable, n: int) -> VerificationReport:
    """Serial correctness: scan the unit ranges and demand [1:k for k=1..n].

    first_top is the 1-based ordinal of the first operator application that
    produced TOP, if any. The ranges are scanned by the kernel's plan, so a
    kernel that breaks the store contract raises kernels.ContractError.
    """
    return _serial_report(_checked_plan(kernel, n), _name(kernel), n)


def _serial_report(plan: Plan, name: str, n: int) -> VerificationReport:
    """verify_serial of the kernel whose plan at length n is plan."""
    state = {"ordinal": 0, "first_top": None}

    def counting_plus(a, b):
        state["ordinal"] += 1
        r = interval_plus(a, b)
        if r is TOP and state["first_top"] is None:
            state["first_top"] = state["ordinal"]
        return r

    output = seed_intervals(n)
    _replay(plan, output, counting_plus)
    expected = expected_intervals(n)
    ok = output == expected and state["first_top"] is None
    return VerificationReport(name, n, ok, output, expected, state["first_top"])


def _interval_columns(plan: Plan, n: int) -> Optional[tuple[list[int], list[int]]]:
    """The lo and hi of each cell's Range after the plan's replay on the unit
    ranges, or None if a join fails (the replay makes a TOP)."""
    lo, hi = list(range(1, n + 1)), list(range(1, n + 1))
    succ = (1).__add__
    for path, a, b, w, da, db, dw, count in _passes(plan):
        if path == "chain":  # cells a+1..a+count join onto cell a in turn
            if lo[a + 1:a + count + 1] != list(map(succ, hi[a:a + count])):
                return None
            lo[a + 1:a + count + 1] = [lo[a]] * count
        elif path == "alias-free":
            if list(map(succ, _cells(hi, a, da, count))) != list(_cells(lo, b, db, count)):
                return None
            lo[w:w + dw * count:dw] = _cells(lo, a, da, count)
            hi[w:w + dw * count:dw] = _cells(hi, b, db, count)
        else:
            for j, k, i in _updates(((a, b, w, da, db, dw, count),)):
                if hi[j] + 1 != lo[k]:
                    return None
                lo[i], hi[i] = lo[j], hi[k]
    return lo, hi


def _race_check(firsts: Sequence[int], seconds: Sequence[int], writes: Sequence[int],
                depths: Iterable[int]) -> RaceReport:
    """Within each stage, no index may be touched by two rows.

    Reports the 1-based ordinals of the first conflicting pair of rows. A
    stage passes whole when its rows' cells, each row's write and its other
    reads, hold no repeat; only a stage with a repeat is checked row by row.
    """
    end = 0
    for size in Counter(depths).values():  # depths never fall: a stage is a run of rows
        start, end = end, end + size
        if size == 1:
            continue
        fs, ss, ws = firsts[start:end], seconds[start:end], writes[start:end]
        cells = [a for a, w in zip(fs, ws) if a != w] + [b for b, w in zip(ss, ws) if b != w] + ws
        if len(set(cells)) == len(cells):
            continue
        seen: dict[int, int] = {}
        for ordinal, (a, b, w) in enumerate(zip(fs, ss, ws), start=start + 1):
            for idx in {a, b, w}:
                if idx in seen:
                    return RaceReport(False, (seen[idx], ordinal))
                seen[idx] = ordinal
    return RaceReport(True)


def race_check_history(history: list[Transaction]) -> RaceReport:
    """The race check of a recorded history, staged by the stage rule."""
    columns = _rows(map(_as_row, history))
    return _race_check(*columns, _depths(*columns))


def _plan_races(plan: Plan) -> RaceReport:
    columns = _columns(plan)
    return _race_check(*columns, _depths(*columns))


def verify_race_free(kernel: ScanKernel | Callable, n: int) -> RaceReport:
    return _plan_races(_checked_plan(kernel, n))


def verify_parallel(kernel: ScanKernel | Callable, n: int) -> ParallelReport:
    """Parallel correctness = serial correctness + race-free staging.

    Both read the kernel's plan, recorded once. The serial check runs on the
    lo and hi columns, and on Ranges only when that check fails.
    """
    plan, name = _checked_plan(kernel, n), _name(kernel)
    if _interval_columns(plan, n) == ([1] * n, list(range(1, n + 1))):
        serial = VerificationReport(name, n, True)
    else:
        serial = _serial_report(plan, name, n)
    races = _plan_races(plan)
    return ParallelReport(name, n, serial.ok and races.ok, serial.first_top,
                          races.conflicting)
