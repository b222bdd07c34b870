import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scanforge.kernels import scan_brent_kung, scan_serial
from scanforge.ops import AssocOp, builtin_ops, check_associative, matmul
from scanforge.stores import ListStore
from scanforge.verify import IDENTITY, Range, TOP

OPS = builtin_ops()


def test_check_associative_addition():
    rng = random.Random(1)
    triples = [tuple(rng.randrange(-1000, 1000) for _ in range(3)) for _ in range(100)]
    assert check_associative(OPS["add"], triples).ok


def test_check_associative_float_roundoff_violation():
    report = check_associative(OPS["add"], [(1e16, -1e16, 1.0)])
    assert not report.ok
    assert report.first_violation == (1e16, -1e16, 1.0)


def test_check_associative_concat():
    rng = random.Random(2)
    triples = [
        tuple("".join(rng.choices("abc", k=2)) for _ in range(3)) for _ in range(50)
    ]
    assert check_associative(OPS["concat"], triples).ok


def test_check_associative_requires_samples():
    with pytest.raises(ValueError):
        check_associative(OPS["add"], [])


def test_catalog_contents():
    assert {"add", "max", "matmul2", "concat", "interval"} <= set(OPS)
    assert OPS["max"](3, 5) == 5
    eye = OPS["matmul2"].identity
    assert OPS["matmul2"](eye, eye) == eye
    assert OPS["concat"]("ab", "c") == "abc"
    assert OPS["interval"](Range(1, 2), Range(3, 5)) == Range(1, 5)


@given(st.integers(-10**6, 10**6))
@settings(max_examples=50, deadline=None)
def test_declared_identities_add(x):
    op = OPS["add"]
    assert op(op.identity, x) == x == op(x, op.identity)


@given(st.text(max_size=8))
@settings(max_examples=50, deadline=None)
def test_declared_identities_concat(x):
    op = OPS["concat"]
    assert op(op.identity, x) == x == op(x, op.identity)


def test_declared_identity_matmul():
    rng = random.Random(4)
    op = matmul(3)
    for _ in range(20):
        m = tuple(tuple(rng.randrange(-5, 6) for _ in range(3)) for _ in range(3))
        assert op(op.identity, m) == m == op(m, op.identity)


def test_interval_identity():
    op = OPS["interval"]
    for x in (Range(2, 4), TOP, IDENTITY):
        assert op(op.identity, x) is x or op(op.identity, x) == x


def test_noncommutative_order_preserved():
    op = OPS["concat"]
    assert scan_serial(ListStore(["a", "b", "c"]), op).to_list() == ["a", "ab", "abc"]
    assert scan_brent_kung(ListStore(["a", "b", "c"]), op).to_list() == [
        "a", "ab", "abc",
    ]


def test_ops_are_first_class():
    doubled = AssocOp("add-doubled", lambda a, b: a + b + 1)
    got = scan_serial(ListStore([1, 1, 1]), doubled).to_list()
    assert got == [1, 3, 5]


def textbook_matmul(dim):
    """The combine matmul(dim) had before it summed over zipped columns."""

    def combine(a, b):
        return tuple(
            tuple(sum(a[i][k] * b[k][j] for k in range(dim)) for j in range(dim))
            for i in range(dim)
        )

    return combine


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
@pytest.mark.parametrize("kind", ["int", "float"])
def test_matmul_equals_textbook_product_exactly(dim, kind):
    rng = random.Random(dim)
    draw = (lambda: rng.randrange(-10**6, 10**6)) if kind == "int" else (
        lambda: rng.uniform(-1e3, 1e3) * 10 ** rng.randrange(-8, 9))
    op, oracle = matmul(dim), textbook_matmul(dim)
    for _ in range(50):
        a, b = (tuple(tuple(draw() for _ in range(dim)) for _ in range(dim))
                for _ in range(2))
        got, want = op(a, b), oracle(a, b)
        assert got == want
        assert [type(x) for row in got for x in row] == [type(x) for row in want for x in row]
