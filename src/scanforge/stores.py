"""Indexable stores that scan kernels operate on.

All stores are 1-based: valid indices run from 1 to len(store). The
kernels address elements exclusively through get/put, so anything that
implements this small interface (a plain list wrapper or an access
tracer) can be driven by the same kernel code.
"""

from __future__ import annotations

from typing import Any, Iterable, Protocol, runtime_checkable


@runtime_checkable
class ScanStore(Protocol):
    def __len__(self) -> int: ...

    def get(self, i: int) -> Any: ...

    def put(self, i: int, v: Any) -> None: ...


class ListStore:
    """In-memory store backed by a Python list, 1-based and bounds-checked."""

    __slots__ = ("_data",)

    def __init__(self, values: Iterable[Any]):
        self._data = list(values)

    def __len__(self) -> int:
        return len(self._data)

    def _check(self, i: int) -> None:
        if not 1 <= i <= len(self._data):
            raise IndexError(f"index {i} out of range 1..{len(self._data)}")

    def get(self, i: int) -> Any:
        self._check(i)
        return self._data[i - 1]

    def put(self, i: int, v: Any) -> None:
        self._check(i)
        self._data[i - 1] = v

    def to_list(self) -> list:
        return list(self._data)

    def __repr__(self) -> str:
        return f"ListStore({self._data!r})"
