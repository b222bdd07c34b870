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
(_json_pieces), render's one SVG writer and verify's one race check consume
these columns with their stage depths; only readers that use the depths
compute them. Both writers stream: they read the columns in blocks of
_BLOCK rows (_blocks) and yield a piece of text per block, and a plan's
blocks are cut from its lazy columns (_lazy_columns), read from its
segments. So a document is written without its whole text, and a plan's
without its whole columns.

The stage rule has two readers. _depths is its definition on rows, for rows
from outside a plan. _stages reads it from a plan a segment at a time, by
arithmetic on the segment's seven numbers: row k >= 1 of a segment starts a
stage iff a + k*da <= w + (k-1)*dw or b + k*db <= w + (k-1)*dw. Each side is
linear in k, so the rows that start no stage are one run, and the rest are
a prefix and a suffix of the segment (Sheeran, JFP 2011, describes prefix
networks by such regular pieces). _segment_depths reads a plan's depths
from it as ranges and repeats, and verify's race check stages a plan by it
without building the plan's columns.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import accumulate, chain, islice, repeat
from operator import attrgetter, itemgetter, le
from typing import Callable, Iterable, Iterator, Optional

from .kernels import Plan, ScanKernel, _kernel_plan, _progression, _walk


@dataclass(frozen=True)
class Transaction:
    reads: tuple[int, ...]
    write: int


TraceHistory = list[Transaction]
_as_row = attrgetter("reads", "write")  # a Transaction as its (reads, write) row


_BLOCK = 8192  # rows per block of a streamed document


def _lazy_columns(plan: Plan) -> tuple[Iterator[int], ...]:
    """The plan's rows as four lazy columns: first reads, second reads and
    writes, 1-based, and stage depths, each read a segment at a time."""
    def column(i: int) -> Iterator[int]:
        return chain.from_iterable(_progression(segment[i] + 1, segment[i + 3], segment[6])
                                   for segment in plan)

    return column(0), column(1), column(2), chain.from_iterable(_segment_depths(plan))


def _columns(plan: Plan) -> tuple[list[int], list[int], list[int]]:
    """The plan's updates as 1-based columns: first reads, second reads and
    writes."""
    return tuple(map(list, _lazy_columns(plan)[:3]))


def _blocks(*columns: Iterable[int]) -> Iterator[tuple[list[int], ...]]:
    """The columns, _BLOCK rows at a time: a tuple of lists per block."""
    columns = tuple(map(iter, columns))
    while (block := tuple(list(islice(column, _BLOCK)) for column in columns))[0]:
        yield block


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


def _stages(plan: Plan) -> Iterator[tuple[int, int, int]]:
    """The stage rule on a plan, a segment at a time: (depth, lo, hi) per
    segment. Its row 0 sits at stage depth, each of its rows 1..lo-1 and
    hi+1..count-1 starts a new stage, and its rows lo..hi (none when
    lo == hi + 1) start none.
    """
    depth, last = 0, None  # the stage and the write of the previous row
    for a, b, w, da, db, dw, count in plan:
        depth += last is None or min(a, b) <= last
        lo, hi = 1, count - 1
        # Row k starts no stage from a side iff c + k*s > 0.
        for c, s in ((a - w + dw, da - dw), (b - w + dw, db - dw)):
            if s > 0:
                lo = max(lo, -c // s + 1)
            elif s < 0:
                hi = min(hi, (c - 1) // -s)
            elif c <= 0:
                hi = 0
        if lo > hi:
            lo, hi = count, count - 1
        yield depth, lo, hi
        depth += lo - 1 + count - 1 - hi
        last = w + (count - 1) * dw


def _segment_depths(plan: Plan) -> Iterator[Iterable[int]]:
    """The depths of the plan's rows, by _stages, as three progressions per
    segment."""
    for (*_, count), (depth, lo, hi) in zip(plan, _stages(plan)):
        top = depth + lo - 1
        yield range(depth, top + 1)
        yield repeat(top, hi - lo + 1)
        yield range(top + 1, top + count - hi)


def _plan_depths(plan: Plan) -> list[int]:
    """_depths(*_columns(plan)), read from the plan's segments."""
    return list(chain.from_iterable(_segment_depths(plan)))


def _plan_max_depth(plan: Plan) -> int:
    """The depth of the plan's last row, its deepest, by _stages; 0 for no rows."""
    last = 0
    for (*_, count), (depth, lo, hi) in zip(plan, _stages(plan)):
        last = depth + lo - 1 + count - 1 - hi
    return last


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


def _json_pieces(blocks: Iterable[tuple[list[int], ...]]) -> Iterator[str]:
    """The trace JSON of the rows in blocks of columns (firsts, seconds,
    writes, depths), a piece per block.

    The text is json.dumps(rows, indent=2) for integer indices, written here
    with one f-string per row: with indent set, json encodes in pure Python,
    one call per token.
    """
    head = "[\n"
    for firsts, seconds, writes, depths in blocks:
        yield head + ",\n".join([f'  {{\n    "reads": [\n      {a},\n      {b}\n    ],\n'
                                  f'    "write": {w},\n    "depth": {d}\n  }}'
                                  for a, b, w, d in zip(firsts, seconds, writes, depths)])
        head = ",\n"
    yield "[]" if head == "[\n" else "\n]"


def trace_to_json(history: TraceHistory) -> str:
    """Stable JSON form: [{"reads": [a, b], "write": i, "depth": d}, ...]."""
    columns = _rows(map(_as_row, history))
    return "".join(_json_pieces(_blocks(*columns, _depths(*columns))))


def _plan_json(kernel: ScanKernel | Callable, n: int) -> Iterator[str]:
    """The pieces of trace_to_json(run_traced(kernel, n)), from the plan a
    block at a time; the plan is recorded before the first piece."""
    return _json_pieces(_blocks(*_lazy_columns(_kernel_plan(kernel, n))))


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
