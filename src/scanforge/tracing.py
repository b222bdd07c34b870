"""Access tracing: a kernel's index traffic as a history of transactions.

run_traced reads the history from the kernel's plan, the update stream
that kernels records once per (kernel, n) and checks against the store
contract: every put consumes exactly the two reads issued since the
previous put, and the kernel has no value-dependent control flow. The
history is enough to reconstruct the kernel's data flow, stage structure,
and operation count.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Iterable

from . import kernels  # the module, not its names: kernels is still loading here


@dataclass(frozen=True)
class Transaction:
    reads: tuple[int, ...]
    write: int


TraceHistory = list[Transaction]


def run_traced(kernel: kernels.ScanKernel | Callable, n: int) -> TraceHistory:
    """The transactions of one kernel run at length n, read from its plan.

    A kernel that breaks the store contract raises kernels.ContractError.
    """
    if n < 0:
        raise ValueError("length must be >= 0")
    updates = kernels._updates(kernels._kernel_plan(kernel, n))
    return [Transaction((a + 1, b + 1), w + 1) for a, b, w in updates]


def infer_depths(history: Iterable[Transaction]) -> list[tuple[Transaction, int]]:
    """Assign a stage depth to each transaction of a serialized kernel run.

    Heuristic from the left-to-right access order: a transaction that reads
    at or below the highest index written so far starts a new stage. Depths
    are 1-based; the first transaction sits at depth 1.
    """
    olast = 0
    depth = 0
    out: list[tuple[Transaction, int]] = []
    for t in history:
        if depth == 0 or (t.reads and min(t.reads) <= olast):
            depth += 1
        out.append((t, depth))
        olast = t.write
    return out


def max_depth(history: Iterable[Transaction]) -> int:
    levels = infer_depths(history)
    return levels[-1][1] if levels else 0


def dag_depths(history: Iterable[Transaction]) -> list[tuple[Transaction, int]]:
    """Depth of each transaction as the longest path in the access-order DAG.

    Each transaction depends on the most recent earlier transaction that
    touched (read or wrote) any of its indices; this is the dependency
    granule the parallel executor honors.
    """
    last: dict[int, int] = {}
    depths: list[int] = []
    out = []
    for ordinal, t in enumerate(history):
        cells = set(t.reads) | {t.write}
        deps = [last[c] for c in cells if c in last]
        d = 1 + max((depths[j] for j in deps), default=0)
        depths.append(d)
        out.append((t, d))
        for c in cells:
            last[c] = ordinal
    return out


def trace_to_json(history: TraceHistory) -> str:
    """Stable JSON form: [{"reads": [...], "write": i, "depth": d}, ...].

    The text is json.dumps(rows, indent=2) for integer indices, written
    here a row at a time: with indent set, json encodes in pure Python,
    one call per token.
    """
    rows = []
    for t, d in infer_depths(history):
        reads = ("[\n      " + ",\n      ".join(map(str, t.reads)) + "\n    ]"
                 if t.reads else "[]")
        rows.append(f'  {{\n    "reads": {reads},\n    "write": {t.write},\n'
                    f'    "depth": {d}\n  }}')
    return "[\n" + ",\n".join(rows) + "\n]" if rows else "[]"


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

