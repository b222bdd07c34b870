"""Associative operators: the abstraction and a small concrete catalog.

Operators are first-class values handed to kernels; nothing global is
consulted during a scan. Associativity is assumed rather than enforced
(floating-point addition is only approximately associative), but
check_associative lets callers probe it on sampled triples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable, Optional

from .verify import IDENTITY, interval_plus


@dataclass(frozen=True)
class AssocOp:
    name: str
    fn: Callable[[Any, Any], Any]
    identity: Any = None

    def __call__(self, a, b):
        return self.fn(a, b)


@dataclass(frozen=True)
class AssocReport:
    ok: bool
    first_violation: Optional[tuple] = None


def check_associative(op: Callable, samples: Iterable[tuple]) -> AssocReport:
    """Test (a+b)+c == a+(b+c) on each sampled triple; report the first miss."""
    samples = list(samples)
    if not samples:
        raise ValueError("samples must be nonempty")
    for a, b, c in samples:
        if op(op(a, b), c) != op(a, op(b, c)):
            return AssocReport(False, (a, b, c))
    return AssocReport(True)


@dataclass(frozen=True)
class Chunk:
    """An ordered slice of elements, the unit the scan-then-fan pass combines."""

    elements: tuple

    def __len__(self):
        return len(self.elements)


def chunk_combine(op: Callable) -> AssocOp:
    """Lift op to chunks: offset every element of b by the last element of a."""

    def combine(a: Chunk, b: Chunk) -> Chunk:
        if len(a.elements) == 0:
            raise ValueError("left chunk is empty: no last element to offset by")
        last = a.elements[-1]
        return Chunk(tuple(op(last, x) for x in b.elements))

    name = getattr(op, "name", getattr(op, "__name__", "op"))
    return AssocOp(f"chunk[{name}]", combine)


Matrix = tuple  # tuple of row tuples


def matmul(dim: int) -> AssocOp:
    """Dense square-matrix product over tuples of row tuples."""

    def combine(a: Matrix, b: Matrix) -> Matrix:
        return tuple(
            tuple(sum(a[i][k] * b[k][j] for k in range(dim)) for j in range(dim))
            for i in range(dim)
        )

    eye = tuple(tuple(1 if i == j else 0 for j in range(dim)) for i in range(dim))
    return AssocOp(f"matmul{dim}", combine, identity=eye)


def builtin_ops() -> dict[str, AssocOp]:
    """Named operators selectable from the CLI and used throughout the tests."""
    return {
        "add": AssocOp("add", lambda a, b: a + b, identity=0),
        "max": AssocOp("max", max),
        "matmul2": matmul(2),
        "concat": AssocOp("concat", lambda a, b: a + b, identity=""),
        "interval": AssocOp("interval", interval_plus, identity=IDENTITY),
    }
