"""Associative operators: the abstraction and a small concrete catalog.

Operators are first-class values handed to kernels; nothing global is
consulted during a scan. Associativity is assumed rather than enforced
(floating-point addition is only approximately associative), but
check_associative lets callers probe it on sampled triples.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Optional


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


MAX_DIM = 16  # compile time and source length grow as dim**3

_MATMUL_TEMPLATE = """\
def combine(a, b):
    try:
        {a} = a
        {b} = b
    except (TypeError, ValueError) as e:
        raise ValueError("{name} operands must be {dim}x{dim} matrices") from e
    return {product}
"""
_MATMULS: dict[int, AssocOp] = {}  # dim -> operator, compiled on first use


def matmul(dim: int) -> AssocOp:
    """Dense square-matrix product over tuples of row tuples, dim in 1..MAX_DIM.

    One template serves every dim: both operands unpack into locals (a
    wrongly shaped operand is a named ValueError) and each entry is written
    out in k order from the int 0, `0 + a0_0 * b0_0 + a0_1 * b1_0`, the left
    fold that sum(a[i][k] * b[k][j] for k in range(dim)) makes up to Python
    3.11, so that 0 + -0.0 is 0.0 as there.
    """
    dim = operator.index(dim)
    if not 1 <= dim <= MAX_DIM:
        raise ValueError(f"matmul dim must be in 1..{MAX_DIM}, got {dim}")
    if dim in _MATMULS:
        return _MATMULS[dim]
    ks = range(dim)
    tup = lambda items: "(" + "".join(f"{x}, " for x in items) + ")"
    cells = lambda m: tup(tup(f"{m}{i}_{k}" for k in ks) for i in ks)
    product = tup(tup(" + ".join(["0"] + [f"a{i}_{k} * b{k}_{j}" for k in ks])
                      for j in ks) for i in ks)
    name, ns = f"matmul{dim}", {}
    source = _MATMUL_TEMPLATE.format(a=cells("a"), b=cells("b"), name=name,
                                     dim=dim, product=product)
    exec(compile(source, f"<{name}>", "exec"), ns)
    eye = tuple(tuple(1 if i == j else 0 for j in ks) for i in ks)
    return _MATMULS.setdefault(dim, AssocOp(name, ns["combine"], identity=eye))


# --- The interval monoid, with which verify checks a kernel ---------------


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


class _Sentinel:
    """A constant compared with `is`; a copy or an unpickled one is itself."""

    def __init__(self, repr_: str, name: str):
        self._repr = repr_
        self._name = name  # the module global that holds it

    def __repr__(self):
        return self._repr

    def __reduce__(self):
        return self._name


IDENTITY = _Sentinel("ID", "IDENTITY")
TOP = _Sentinel("TOP", "TOP")

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


def _max(a, b):
    # The b > a comparison that builtin max(a, b) makes; parsing builtin
    # max's arguments costs most of its call.
    return b if b > a else a


def builtin_ops() -> dict[str, AssocOp]:
    """Named operators selectable from the CLI and used throughout the tests."""
    return {
        "add": AssocOp("add", operator.add, identity=0),
        "max": AssocOp("max", _max),
        "matmul2": matmul(2),
        "concat": AssocOp("concat", operator.add, identity=""),
        "interval": AssocOp("interval", interval_plus, identity=IDENTITY),
    }
