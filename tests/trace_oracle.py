"""Reference for run_traced: the raw recorder it replaced, and replay of a
recorded history on concrete values.

A TraceStore logs whatever a kernel reads and writes, checks only bounds
and does not check the store contract: get() hands back a unit placeholder
and logs the index; put() closes the pending reads into a Transaction,
however many there were. Tests require run_traced to give the same history
for every kernel that keeps the contract.
"""

from __future__ import annotations

from typing import Callable, Iterable

from scanforge.tracing import TraceHistory, Transaction


class _Unit:
    """The placeholder value returned by traced reads."""

    def __repr__(self):
        return "UNIT"


UNIT = _Unit()


def placeholder_op(a, b) -> _Unit:
    """Dummy associative operator over the placeholder: unit + unit = unit."""
    return UNIT


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


def replay(history: Iterable[Transaction], values: list, op: Callable) -> list:
    """Apply a recorded trace to concrete 1-based values; checks faithfulness."""
    data = list(values)
    for t in history:
        if len(t.reads) != 2:
            raise ValueError(f"cannot replay transaction with {len(t.reads)} reads")
        a, b = t.reads
        data[t.write - 1] = op(data[a - 1], data[b - 1])
    return data
