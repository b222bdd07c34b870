"""Prefix-scan kernels, generic over any store and any associative operator.

Every kernel is an in-place instruction stream of the single update shape

    store.put(i, op(store.get(j), store.get(i)))   with j < i

so the same code computes concrete scans, records access traces, or runs
in parallel depending on what the store hands back. Because the stream does
not depend on the values, a ScanKernel records it once per length as a plan
and replays that plan on plain ListStore data; traces, proofs and the
virtual clock read the same plan.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from dataclasses import dataclass
from itertools import accumulate, repeat
from typing import Callable, Iterable, Iterator, Optional

from .ops import AssocOp
from .stores import ListStore, ScanStore


def iceil_log2(n: int) -> int:
    """Exact ceil(log2(n)) for n >= 1 via bit arithmetic (0 for n == 0)."""
    if n <= 0:
        return 0
    return (n - 1).bit_length()


def scan_serial(store: ScanStore, op: Callable) -> ScanStore:
    """Left-to-right cumulative reduction; n-1 operator applications."""
    for i in range(2, len(store) + 1):
        store.put(i, op(store.get(i - 1), store.get(i)))
    return store


def scan_brent_kung_8(store: ScanStore, op: Callable) -> ScanStore:
    """The fixed-width double-tree scan, written out row by row for n = 8."""
    if len(store) != 8:
        raise ValueError("length 8 only")
    for i in (2, 4, 6, 8):
        store.put(i, op(store.get(i - 1), store.get(i)))
    for i in (4, 8):
        store.put(i, op(store.get(i - 2), store.get(i)))
    for i in (8,):
        store.put(i, op(store.get(i - 4), store.get(i)))
    for i in (6,):
        store.put(i, op(store.get(i - 2), store.get(i)))
    for i in (3, 5, 7):
        store.put(i, op(store.get(i - 1), store.get(i)))
    return store


def scan_brent_kung(store: ScanStore, op: Callable) -> ScanStore:
    """General double-tree scan: a reduce tree followed by a broadcast tree.

    Loop bounds are kept in the min(l, 2**k) form even where an iteration
    range comes out empty; non-power-of-two lengths need no padding.
    """
    l = len(store)
    k = iceil_log2(l)
    # The "reduce" tree
    for j in range(1, k + 1):
        for i in range(2 ** j, min(l, 2 ** k) + 1, 2 ** j):
            store.put(i, op(store.get(i - 2 ** (j - 1)), store.get(i)))
    # The "broadcast" tree
    for j in range(k - 1, 0, -1):
        for i in range(3 * 2 ** (j - 1), min(l, 2 ** k) + 1, 2 ** j):
            store.put(i, op(store.get(i - 2 ** (j - 1)), store.get(i)))
    return store


def chunk_schedule(nchunks: int) -> list[tuple[int, int]]:
    """(left, target) chunk pairs in the order scan_brent_kung combines them."""
    return [(a + 1, w + 1) for a, _, w in _updates(_plan(BRENT_KUNG, nchunks))]


def scan_then_fan(store: ScanStore, op: Callable, chunks: int) -> ScanStore:
    """Chunked scan: serial scan per chunk, then Brent-Kung over the chunks.

    The chunk-level pass combines chunks by offsetting every element of the
    target chunk with the last element of the source chunk, expanded here
    into per-element store updates so the whole kernel stays a stream of
    two-read/one-write transactions.
    """
    if chunks < 1:
        raise ValueError("chunks must be >= 1")
    n = len(store)
    if n == 0:
        return store
    size = -(-n // chunks)
    bounds = [(lo, min(lo + size - 1, n)) for lo in range(1, n + 1, size)]
    for lo, hi in bounds:
        for i in range(lo + 1, hi + 1):
            store.put(i, op(store.get(i - 1), store.get(i)))
    for left, target in chunk_schedule(len(bounds)):
        src = bounds[left - 1][1]
        lo, hi = bounds[target - 1]
        for i in range(lo, hi + 1):
            store.put(i, op(store.get(src), store.get(i)))
    return store


class ContractError(Exception):
    """A kernel broke the store contract: between two puts it must make
    exactly two reads, and put the operator applied to them in read order,
    and every index it passes must be an int."""


_PLAN_CACHE_SIZE = 64
_PASS = 2048  # updates per C-level pass of _replay; bounds the results held unwritten
_FIRST, _SECOND = object(), object()  # what a recorded get hands to the kernel
_APPLIED = object()  # what the recording operator returns

# A plan is a tuple of run-length segments (a, b, w, da, db, dw, count) over
# 0-based positions: update k of a segment is d[w + k*dw] = op(d[a + k*da],
# d[b + k*db]), for k in range(count), and segments run in kernel order.
Plan = tuple


def _recording_op(x, y) -> object:
    if x is _FIRST and y is _SECOND:
        return _APPLIED
    raise ContractError("the operator must combine the update's two reads, in read order")


class _PlanRecorder:
    """Store that checks the contract and records the kernel's updates as a plan.

    An update (a, b, w) has the key (a*r + b)*r + w. The key is linear, and
    with r > 3n it is one-to-one on every triple that an update, or the next
    term of a progression of updates, can be. So an update extends the open
    segment exactly when its key is the last key plus the segment's key step.
    """

    __slots__ = ("n", "radix", "first", "second", "segments", "count", "next_key",
                 "key_step")

    def __init__(self, n: int):
        self.n = n
        self.radix = 3 * n + 1
        self.first = self.second = None  # the pending reads
        self.segments: list[list[int]] = []  # 1-based; closed ones end with a count
        self.count = 0  # updates in the open segment
        self.next_key: Optional[int] = None
        self.key_step = 0

    def __len__(self) -> int:
        return self.n

    def get(self, i: int) -> object:
        if not 0 < i <= self.n:
            raise IndexError(f"index {i} out of range 1..{self.n}")
        if self.first is None:
            self.first = i
            return _FIRST
        if self.second is None:
            self.second = i
            return _SECOND
        raise ContractError(f"get({i}) is a third read before a put")

    def put(self, i: int, v) -> None:
        if not 0 < i <= self.n:
            raise IndexError(f"index {i} out of range 1..{self.n}")
        b = self.second
        if v is not _APPLIED or b is None:
            raise ContractError(f"put({i}) does not store the operator applied "
                                "to the two reads since the previous put")
        a, r = self.first, self.radix
        self.first = self.second = None
        key = (a * r + b) * r + i
        if key == self.next_key:
            self.next_key = key + self.key_step
            self.count += 1
        else:
            self._start(a, b, i, key)

    def _start(self, a: int, b: int, w: int, key: int) -> None:
        # Only here do indices enter the plan; an update that extends a
        # segment is recorded as the segment's start plus its steps.
        if not type(a) is type(b) is type(w) is int:
            raise ContractError(f"the update put({w!r}, op(get({a!r}), get({b!r}))) "
                                "has an index that is not an int")
        segments, r = self.segments, self.radix
        if self.count == 1:  # a segment's second update fixes its steps
            a0, b0, w0 = segments[-1][:3]
            segments[-1][3:] = a - a0, b - b0, w - w0
            self.key_step = key - (a0 * r + b0) * r - w0
            self.next_key, self.count = key + self.key_step, 2
        else:
            if segments:
                segments[-1].append(self.count)
            segments.append([a, b, w, 0, 0, 0])
            self.next_key, self.count = None, 1

    def plan(self) -> Plan:
        if self.first is not None:
            raise ContractError("the kernel ended with reads that no put consumed")
        if self.segments:
            self.segments[-1].append(self.count)
        return tuple((a - 1, b - 1, w - 1, da, db, dw, count)
                     for a, b, w, da, db, dw, count in self.segments)


def _record(fn: Callable, n: int) -> Plan:
    """fn's update stream at length n, checked against the store contract."""
    recorder = _PlanRecorder(n)
    fn(recorder, _recording_op)
    return recorder.plan()


def _segments(updates: Iterable[tuple[int, int, int]], n: int) -> Plan:
    """The plan of a stream of 0-based (a, b, w) updates over n cells."""
    def fn(store, op):
        for a, b, w in updates:
            store.put(w + 1, op(store.get(a + 1), store.get(b + 1)))
    return _record(fn, n)


def _join(runs: Iterable[tuple]) -> Plan:
    """The plan that _segments records from the updates of the runs, each a
    segment (a, b, w, da, db, dw, count), by the recorder's greedy rule on
    whole runs: an open segment takes any second update, which fixes its
    steps, and after that each update that is its last plus its steps."""
    out: list[list[int]] = []  # [a, b, w, da, db, dw, count], as _PlanRecorder keeps them
    for a, b, w, da, db, dw, count in runs:
        while count:
            take, seg = 1, out[-1] if out else None
            if seg is not None and seg[6] == 1:
                seg[3:] = a - seg[0], b - seg[1], w - seg[2], 2
            elif seg is not None and (a, b, w) == (seg[0] + seg[3] * seg[6], seg[1] + seg[4] * seg[6],
                                                   seg[2] + seg[5] * seg[6]):
                take = count if (da, db, dw) == (seg[3], seg[4], seg[5]) else 1
                seg[6] += take
            else:
                out.append([a, b, w, 0, 0, 0, 1])
            a, b, w, count = a + take * da, b + take * db, w + take * dw, count - take
    return tuple(map(tuple, out))


@functools.lru_cache(maxsize=_PLAN_CACHE_SIZE)
def _plan(kernel: "ScanKernel", n: int) -> Plan:
    """The kernel's update stream at length n, recorded once per (kernel, n)."""
    return _record(kernel.fn, n)


def _kernel_plan(kernel: "ScanKernel | Callable", n: int) -> Plan:
    """The plan at length n: cached for a ScanKernel, recorded again for a
    plain callable. Either way the kernel is checked against the contract."""
    if n < 0:
        raise ValueError("length must be >= 0")
    return _plan(kernel, n) if isinstance(kernel, ScanKernel) else _record(kernel, n)


def _progression(start: int, step: int, count: int) -> Iterable[int]:
    return range(start, start + step * count, step) if step else repeat(start, count)


def _updates(plan: Plan) -> Iterator[tuple[int, int, int]]:
    """The plan's (a, b, w) updates, 0-based, in kernel order."""
    for a, b, w, da, db, dw, count in plan:
        yield from zip(_progression(a, da, count), _progression(b, db, count),
                       _progression(w, dw, count))


def _walk(touches: Iterable[Iterable[int]], ncells: Optional[int] = None
          ) -> Iterator[tuple[int, tuple[int, ...], int]]:
    """The dependency rule: task k, counted from 1, depends on the last earlier
    task to touch any of its cells. Yields each task's k, its deps in order and
    its chain depth, the longest dependency chain that ends at it. A task
    touches one cell or more, from range(ncells), or any ints if ncells is None."""
    last = [0] * ncells if ncells is not None else defaultdict(int)  # 0: no task yet
    chain = [0]  # the chain depth of each task
    toucher, depth_of = last.__getitem__, chain.__getitem__
    for k, cells in enumerate(touches, start=1):
        deps = set(map(toucher, cells))
        depth = 1 + max(map(depth_of, deps))
        chain.append(depth)
        deps.discard(0)
        for c in cells:
            last[c] = k
        yield k, tuple(sorted(deps)), depth


def _reads_before_writes(r: int, dr: int, w: int, dw: int, count: int) -> bool:
    """No read r + k*dr (dr >= 0, dw > 0) is a cell w + j*dw, j < k, that an
    earlier update of the segment wrote: every read lies below or above every
    write, or the reads keep the writes' step and do not trail them by whole
    steps."""
    if r + dr * (count - 1) < w or r > w + dw * (count - 1):
        return True
    return dr == dw and (w <= r or (w - r) % dw != 0)


def _segment_path(a: int, b: int, w: int, da: int, db: int, dw: int, count: int) -> str:
    """How _replay runs a segment, by arithmetic on its seven numbers.

    "chain": the unit chain d[i] = op(d[i-1], d[i]), a left fold.
    "alias-free": no update reads a cell that an earlier update wrote, so
    every read is a value from before the segment.
    "loop": the rest (one update, a negative step, a possible alias).
    """
    if count < 2 or dw <= 0 or da < 0 or db < 0:
        return "loop"
    if da == db == dw == 1 and b == w == a + 1:
        return "chain"
    if _reads_before_writes(a, da, w, dw, count) and _reads_before_writes(b, db, w, dw, count):
        return "alias-free"
    return "loop"


def _cells(data: list, start: int, step: int, count: int) -> Iterable:
    return data[start:start + step * count:step] if step else repeat(data[start], count)


def _passes(plan: Plan) -> Iterator[tuple]:
    """The plan as (path, a, b, w, da, db, dw, count) passes: a loop segment
    whole, any other cut into segments of the same kind of up to _PASS updates
    (a chain's pass refolds from the cell that the previous pass wrote last)."""
    for a, b, w, da, db, dw, count in plan:
        path = _segment_path(a, b, w, da, db, dw, count)
        size = count if path == "loop" else _PASS
        for k in range(0, count, size):
            yield path, a + k * da, b + k * db, w + k * dw, da, db, dw, min(size, count - k)


def _run_pass(data: list, f: Callable, out: list, path: str, a: int, b: int, w: int,
              da: int, db: int, dw: int, count: int) -> None:
    """Run one pass of _passes on data, making the per-update loop's calls in
    its order; out collects the pass's results, one per call that finished.
    If a call raises, data holds what the loop wrote before that call."""
    if path == "loop":
        for j, k, i in _updates(((a, b, w, da, db, dw, count),)):
            data[i] = v = f(data[j], data[k])
            out.append(v)
        return
    try:
        if path == "chain":
            chain = accumulate(data[a:w + count], f)
            next(chain)  # the chain's first cell, which no call writes
            out.extend(chain)
        else:
            out.extend(map(f, _cells(data, a, da, count), _cells(data, b, db, count)))
    finally:
        data[w:w + dw * len(out):dw] = out


def _replay(plan: Plan, data: list, op: Callable) -> None:
    """Run the plan on data as _run_pass passes, making the operator calls of
    the per-update loop in the same order. If a call raises, data holds what
    the per-update loop would have written before that call."""
    # AssocOp.__call__ only forwards to fn; skipping it saves a frame per update.
    f = op.fn if type(op) is AssocOp else op
    for pass_ in _passes(plan):
        _run_pass(data, f, [], *pass_)


@dataclass(frozen=True, eq=False)
class ScanKernel:
    """A named scan kernel: kernel(store, op) mutates and returns the store.

    On a ListStore (not a subclass) the call replays the kernel's plan for
    len(store), cached per (kernel object, n), instead of running fn; the
    result is the same because kernels have no value-dependent control flow.
    Every other store gets fn's own get/put stream. Kernels compare and hash
    by identity, so fn need not be hashable.
    """

    name: str
    fn: Callable[[ScanStore, Callable], ScanStore]
    fixed_length: Optional[int] = None

    def __call__(self, store: ScanStore, op: Callable) -> ScanStore:
        if type(store) is not ListStore:
            return self.fn(store, op)
        _replay(_plan(self, len(store)), store._data, op)
        return store


SERIAL = ScanKernel("serial", scan_serial)
BRENT_KUNG = ScanKernel("brent-kung", scan_brent_kung)
BRENT_KUNG_8 = ScanKernel("brent-kung-8", scan_brent_kung_8, fixed_length=8)


@functools.cache
def scan_then_fan_kernel(chunks: int) -> ScanKernel:
    """One kernel object per chunk count, kept for good, so its cached plans
    are found again and get_kernel returns the same object every time."""
    return ScanKernel(
        f"scan-then-fan[{chunks}]",
        lambda store, op, c=chunks: scan_then_fan(store, op, c),
    )


KERNEL_NAMES = ("serial", "brent-kung", "brent-kung-8", "scan-then-fan")


def get_kernel(name: str, chunks: int = 4) -> ScanKernel:
    if name == "serial":
        return SERIAL
    if name == "brent-kung":
        return BRENT_KUNG
    if name == "brent-kung-8":
        return BRENT_KUNG_8
    if name == "scan-then-fan":
        return scan_then_fan_kernel(chunks)
    raise KeyError(f"unknown kernel {name!r}; choose from {', '.join(KERNEL_NAMES)}")
