"""Access tracing: a kernel's index traffic as a history of transactions.

run_traced reads the history from the kernel's plan, the update stream
that kernels records once per (kernel, n) and checks against the store
contract: every put consumes exactly the two reads issued since the
previous put, and the kernel has no value-dependent control flow. The
history is enough to reconstruct the kernel's data flow, stage structure,
and operation count.

The same plan is also read without a Transaction per update, as integer
columns (_columns, _plan_rows): the CLI's trace and render and the race
check write their output from them. Histories and columns are staged by
one rule, _depths.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import accumulate, chain
from operator import le
from typing import Callable, Iterable

from .kernels import Plan, ScanKernel, _kernel_plan, _progression, _walk


@dataclass(frozen=True)
class Transaction:
    reads: tuple[int, ...]
    write: int


TraceHistory = list[Transaction]


def _columns(plan: Plan) -> tuple[list[int], list[int], list[int]]:
    """The plan's updates as 1-based columns: first reads, second reads and
    writes, each built a segment at a time."""
    firsts, seconds, writes = [], [], []
    for a, b, w, da, db, dw, count in plan:
        firsts += _progression(a + 1, da, count)
        seconds += _progression(b + 1, db, count)
        writes += _progression(w + 1, dw, count)
    return firsts, seconds, writes


def _depths(lows: Iterable, writes: Iterable[int]) -> list[int]:
    """The stage rule: the stage depth of each row, from its lowest read and
    its write.

    A row starts a new stage when its lowest read is at or below the previous
    row's write; the first row sits at depth 1. A row that reads nothing has
    the low math.inf, so it never starts a stage after the first.
    """
    # Summing from the int 0 makes every depth an int; the first would
    # otherwise be the bool True.
    depths = list(accumulate(map(le, lows, chain((math.inf,), writes)), initial=0))
    del depths[0]
    return depths


def _plan_rows(plan: Plan) -> tuple[list[int], ...]:
    """The plan's columns (first reads, second reads, writes) and their depths."""
    firsts, seconds, writes = _columns(plan)
    return firsts, seconds, writes, _depths(map(min, firsts, seconds), writes)


def _history_rows(history: Iterable[Transaction]) -> tuple[list, list[int], list[int]]:
    """A history's reads, writes and stage depths, as columns."""
    history = list(history)
    reads = [t.reads for t in history]
    writes = [t.write for t in history]
    return reads, writes, _depths([min(r, default=math.inf) for r in reads], writes)


def run_traced(kernel: ScanKernel | Callable, n: int) -> TraceHistory:
    """The transactions of one kernel run at length n, read from its plan.

    A kernel that breaks the store contract raises kernels.ContractError.
    """
    firsts, seconds, writes = _columns(_kernel_plan(kernel, n))
    return list(map(Transaction, zip(firsts, seconds), writes))


def infer_depths(history: Iterable[Transaction]) -> list[tuple[Transaction, int]]:
    """Assign a stage depth to each transaction of a serialized kernel run.

    Heuristic from the left-to-right access order: a transaction that reads
    at or below the index the previous transaction wrote starts a new stage.
    Depths are 1-based; the first transaction sits at depth 1.
    """
    history = list(history)
    return list(zip(history, _history_rows(history)[2]))


def max_depth(history: Iterable[Transaction]) -> int:
    depths = _history_rows(history)[2]
    return depths[-1] if depths else 0


def dag_depths(history: Iterable[Transaction]) -> list[tuple[Transaction, int]]:
    """Depth of each transaction as the longest path in the access-order DAG:
    the schedule's dependency rule (kernels._walk) on its reads and write."""
    history = list(history)
    walk = _walk((*t.reads, t.write) for t in history)
    return [(t, depth) for t, (_, _, depth) in zip(history, walk)]


def _json_rows(reads: Iterable[str], writes: Iterable[int], depths: Iterable[int]) -> str:
    """The trace JSON of rows whose reads are already written as JSON.

    The text is json.dumps(rows, indent=2) for integer indices, written here
    with one f-string per row: with indent set, json encodes in pure Python,
    one call per token.
    """
    rows = ",\n".join([f'  {{\n    "reads": {r},\n    "write": {w},\n    "depth": {d}\n  }}'
                       for r, w, d in zip(reads, writes, depths)])
    return "[\n" + rows + "\n]" if rows else "[]"


def _reads_json(reads: tuple[int, ...]) -> str:
    return "[\n      " + ",\n      ".join(map(str, reads)) + "\n    ]" if reads else "[]"


def trace_to_json(history: TraceHistory) -> str:
    """Stable JSON form: [{"reads": [...], "write": i, "depth": d}, ...]."""
    reads, writes, depths = _history_rows(history)
    return _json_rows(map(_reads_json, reads), writes, depths)


def _plan_json(kernel: ScanKernel | Callable, n: int) -> str:
    """trace_to_json(run_traced(kernel, n)), read from the plan's columns."""
    firsts, seconds, writes, depths = _plan_rows(_kernel_plan(kernel, n))
    pairs = [f"[\n      {a},\n      {b}\n    ]" for a, b in zip(firsts, seconds)]
    return _json_rows(pairs, writes, depths)


def trace_from_json(text: str) -> TraceHistory:
    """Parse trace_to_json output; a malformed row raises ValueError naming it."""
    try:
        rows = json.loads(text)
    except RecursionError:
        raise ValueError("a trace nests its JSON too deeply") from None
    if not isinstance(rows, list):
        raise ValueError("a trace is a JSON list of rows")
    history = []
    for ordinal, row in enumerate(rows, start=1):
        try:
            t = Transaction(tuple(row["reads"]), row["write"])
        except (KeyError, TypeError):
            raise ValueError(f"trace row {ordinal} needs a 'reads' list and a "
                             f"'write': {row!r}") from None
        if not all(type(k) is int and k >= 1 for k in t.reads + (t.write,)):
            raise ValueError(f"trace row {ordinal} has an index that is not an "
                             f"integer >= 1: {row!r}")
        history.append(t)
    return history

