"""Access tracing: run a kernel against a store that records index traffic.

A TraceStore never holds data. get() hands back a unit placeholder and
logs the index; put() closes the pending reads into a Transaction. The
recorded history is enough to reconstruct the kernel's data flow, stage
structure, and operation count.

The tracer assumes (and does not relax) the contract that every put
consumes exactly the reads issued since the previous put, and that the
kernel has no value-dependent control flow.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, IO, Iterable, Optional

if TYPE_CHECKING:
    from .kernels import ScanKernel


class _Unit:
    """The placeholder value returned by traced reads."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "UNIT"


UNIT = _Unit()


def placeholder_op(a, b) -> _Unit:
    """Dummy associative operator over the placeholder: unit + unit = unit."""
    return UNIT


@dataclass(frozen=True)
class Transaction:
    reads: tuple[int, ...]
    write: int


TraceHistory = list[Transaction]


class TraceStore:
    """Store that records which indices a kernel touches, not what it computes."""

    def __init__(self, length: int):
        if length < 0:
            raise ValueError("length must be >= 0")
        self.length = length
        self.pending_reads: list[int] = []
        self.history: TraceHistory = []

    def __len__(self) -> int:
        return self.length

    def _check(self, i: int) -> None:
        # Stricter than strictly needed for tracing: catches kernel bugs early.
        if not 1 <= i <= self.length:
            raise IndexError(f"index {i} out of range 1..{self.length}")

    def get(self, i: int) -> _Unit:
        self._check(i)
        self.pending_reads.append(i)
        return UNIT

    def put(self, i: int, v) -> None:
        self._check(i)
        self.history.append(Transaction(tuple(self.pending_reads), i))
        self.pending_reads.clear()


def run_traced(kernel: ScanKernel | Callable, n: int) -> TraceHistory:
    """Trace one kernel run on a fresh store of length n."""
    store = TraceStore(n)
    kernel(store, placeholder_op)
    return store.history


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
        if depth == 0 or any(r <= olast for r in t.reads):
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


def depths_disagree(history: TraceHistory) -> bool:
    """True when the layout heuristic and the dependency DAG disagree on the
    overall depth of the computation."""
    heuristic = max((d for _, d in infer_depths(history)), default=0)
    dag = max((d for _, d in dag_depths(history)), default=0)
    return heuristic != dag


def trace_to_json(history: TraceHistory) -> str:
    """Stable JSON form: [{"reads": [...], "write": i, "depth": d}, ...]."""
    rows = [
        {"reads": list(t.reads), "write": t.write, "depth": d}
        for t, d in infer_depths(history)
    ]
    return json.dumps(rows, indent=2)


def trace_from_json(text: str) -> TraceHistory:
    """Parse trace_to_json output; a malformed row raises ValueError naming it."""
    rows = json.loads(text)
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


def replay(history: Iterable[Transaction], values: list, op: Callable) -> list:
    """Apply a recorded trace to concrete 1-based values; checks faithfulness."""
    data = list(values)
    for t in history:
        if len(t.reads) != 2:
            raise ValueError(f"cannot replay transaction with {len(t.reads)} reads")
        a, b = t.reads
        data[t.write - 1] = op(data[a - 1], data[b - 1])
    return data


def write_trace(history: TraceHistory, out: IO[str]) -> None:
    out.write(trace_to_json(history))
    out.write("\n")
