"""Access tracing: a kernel's index traffic as a history of transactions.

run_traced reads the history from the kernel's plan, the update stream
that kernels records once per (kernel, n) and checks against the store
contract: every put consumes exactly the two reads issued since the
previous put, and the kernel has no value-dependent control flow. The
history is enough to reconstruct the kernel's data flow, stage structure,
and operation count.

Every trace has one row format: int columns of first reads, second reads
and writes. _columns reads them from a plan, whose recorder has checked every
row, and _rows, the one row rule, from rows that come from anywhere else:
histories, trace files and a layout's history on its n lines. One JSON writer
(_json_rows), render's one SVG writer and verify's one race check consume
these columns with the stage depths that _depths gives them; only readers
that use the depths compute them.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import accumulate, chain
from operator import attrgetter, itemgetter, le
from typing import Callable, Iterable, Optional

from .kernels import Plan, ScanKernel, _kernel_plan, _progression, _walk


@dataclass(frozen=True)
class Transaction:
    reads: tuple[int, ...]
    write: int


TraceHistory = list[Transaction]
_as_row = attrgetter("reads", "write")  # a Transaction as its (reads, write) row


def _columns(plan: Plan) -> tuple[list[int], list[int], list[int]]:
    """The plan's updates as 1-based columns: first reads, second reads and
    writes, each built a segment at a time."""
    firsts, seconds, writes = [], [], []
    for a, b, w, da, db, dw, count in plan:
        firsts += _progression(a + 1, da, count)
        seconds += _progression(b + 1, db, count)
        writes += _progression(w + 1, dw, count)
    return firsts, seconds, writes


def _depths(firsts: Iterable[int], seconds: Iterable[int], writes: Iterable[int]) -> list[int]:
    """The stage rule: the stage depth of each row, from its lowest read and
    its write.

    A row starts a new stage when its lowest read is at or below the previous
    row's write; the first row sits at depth 1.
    """
    lows = map(min, firsts, seconds)
    # Summing from the int 0 makes every depth an int; the first would
    # otherwise be the bool True.
    depths = list(accumulate(map(le, lows, chain((math.inf,), writes)), initial=0))
    del depths[0]
    return depths


def _rows(rows: Iterable[tuple], n: Optional[int] = None) -> tuple[list[int], ...]:
    """The row rule: the columns of (reads, write) rows. A row reads exactly
    two cells, and each index is an int in 1..n (>= 1 when n is None); the
    first row that breaks this is a ValueError naming it."""
    rows = list(rows)
    reads, writes = list(map(itemgetter(0), rows)), list(map(itemgetter(1), rows))
    if set(map(len, reads)) <= {2}:
        firsts, seconds = list(map(itemgetter(0), reads)), list(map(itemgetter(1), reads))
        cells = (firsts, seconds, writes)
        if (set(map(type, chain(*cells))) <= {int} and min(chain(*cells), default=1) >= 1
                and (n is None or max(chain(*cells), default=n) <= n)):
            return firsts, seconds, writes
    for ordinal, (r, w) in enumerate(rows, start=1):
        if len(r) != 2:
            raise ValueError(f"trace row {ordinal} reads {list(r)}: a row reads exactly two cells")
        if not all(type(k) is int and k >= 1 for k in (*r, w)):
            raise ValueError(f"trace row {ordinal} has an index that is not an integer >= 1: "
                             f"reads {list(r)}, write {w!r}")
        if n is not None and max(*r, w) > n:
            raise ValueError(f"trace row {ordinal} uses index {max(*r, w)}, outside 1..{n}")
    raise AssertionError("the columns broke the row rule, but no row did")


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
    return list(zip(history, _depths(*_rows(map(_as_row, history)))))


def max_depth(history: Iterable[Transaction]) -> int:
    return max(_depths(*_rows(map(_as_row, history))), default=0)


def dag_depths(history: Iterable[Transaction]) -> list[tuple[Transaction, int]]:
    """Depth of each transaction as the longest path in the access-order DAG:
    the schedule's dependency rule (kernels._walk) on its reads and write."""
    history = list(history)
    walk = _walk((*t.reads, t.write) for t in history)
    return [(t, depth) for t, (_, _, depth) in zip(history, walk)]


def _json_rows(firsts: Iterable[int], seconds: Iterable[int], writes: Iterable[int],
               depths: Iterable[int]) -> str:
    """The trace JSON of the rows (firsts[k], seconds[k], writes[k], depths[k]).

    The text is json.dumps(rows, indent=2) for integer indices, written here
    with one f-string per row: with indent set, json encodes in pure Python,
    one call per token.
    """
    rows = ",\n".join([f'  {{\n    "reads": [\n      {a},\n      {b}\n    ],\n'
                       f'    "write": {w},\n    "depth": {d}\n  }}'
                       for a, b, w, d in zip(firsts, seconds, writes, depths)])
    return "[\n" + rows + "\n]" if rows else "[]"


def trace_to_json(history: TraceHistory) -> str:
    """Stable JSON form: [{"reads": [a, b], "write": i, "depth": d}, ...]."""
    columns = _rows(map(_as_row, history))
    return _json_rows(*columns, _depths(*columns))


def _plan_json(kernel: ScanKernel | Callable, n: int) -> str:
    """trace_to_json(run_traced(kernel, n)), read from the plan's columns."""
    columns = _columns(_kernel_plan(kernel, n))
    return _json_rows(*columns, _depths(*columns))


def _trace_rows(text: str, n: Optional[int] = None) -> tuple[list[int], ...]:
    """A trace file's columns, by the row rule, or a ValueError naming the
    first row without a 'reads' list and a 'write'."""
    try:
        rows = json.loads(text)
    except RecursionError:
        raise ValueError("a trace nests its JSON too deeply") from None
    if not isinstance(rows, list):
        raise ValueError("a trace is a JSON list of rows")
    pairs = []
    for ordinal, row in enumerate(rows, start=1):
        try:
            pairs.append((tuple(row["reads"]), row["write"]))
        except (KeyError, TypeError):
            raise ValueError(f"trace row {ordinal} needs a 'reads' list and a "
                             f"'write': {row!r}") from None
    return _rows(pairs, n)


def trace_from_json(text: str) -> TraceHistory:
    """Parse trace_to_json output; a malformed row raises ValueError naming it."""
    firsts, seconds, writes = _trace_rows(text)
    return list(map(Transaction, zip(firsts, seconds), writes))
