"""Deliberately broken kernels used to check that verification catches bugs."""

from scanforge.kernels import iceil_log2, scan_serial


def wrong_offset(store, op):
    """Serial scan reading two back instead of one."""
    for i in range(3, len(store) + 1):
        store.put(i, op(store.get(i - 2), store.get(i)))
    return store


def transposed_operands(store, op):
    """Serial scan applying the operator in the wrong operand order."""
    for i in range(2, len(store) + 1):
        store.put(i, op(store.get(i), store.get(i - 1)))
    return store


def skipped_stage(store, op):
    """Double-tree scan with the second reduce level dropped."""
    l = len(store)
    k = iceil_log2(l)
    for j in range(1, k + 1):
        if j == 2:
            continue
        for i in range(2 ** j, min(l, 2 ** k) + 1, 2 ** j):
            store.put(i, op(store.get(i - 2 ** (j - 1)), store.get(i)))
    for j in range(k - 1, 0, -1):
        for i in range(3 * 2 ** (j - 1), min(l, 2 ** k) + 1, 2 ** j):
            store.put(i, op(store.get(i - 2 ** (j - 1)), store.get(i)))
    return store


ALL = {
    "wrong-offset": wrong_offset,
    "skipped-stage": skipped_stage,
    "transposed-operands": transposed_operands,
}


def nested_operator(store, op):
    """Three reads before one put: the operator applied twice."""
    store.put(3, op(op(store.get(1), store.get(2)), store.get(3)))
    return store


def stray_get(store, op):
    """Serial scan after a read that no put consumes."""
    store.get(1)
    return scan_serial(store, op)


# Kernels that break the store contract, as opposed to computing a wrong scan.
CONTRACT_BREACHES = (nested_operator, stray_get)
