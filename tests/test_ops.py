import math
import random
from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scanforge.kernels import KERNEL_NAMES, get_kernel, scan_brent_kung, scan_serial
from scanforge.ops import (
    _MATMULS, MAX_DIM, AssocOp, builtin_ops, check_associative, matmul,
)
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
    """The textbook triple loop: each entry a left fold of its products in k
    order from the int 0, as sum() made it before Python 3.12."""

    def combine(a, b):
        rows = []
        for i in range(dim):
            row = []
            for j in range(dim):
                acc = 0
                for k in range(dim):
                    acc = acc + a[i][k] * b[k][j]
                row.append(acc)
            rows.append(tuple(row))
        return tuple(rows)

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


# Entries where a float result could differ in sign, nan-ness or last bit.
ENTRIES = st.one_of(
    st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 1e308, -1e308,
                     5e-324, -5e-324, 2.2250738585072014e-308, 10**30, -10**30]),
    st.integers(-3, 3),
    st.floats(allow_nan=True, allow_infinity=True),
)


@pytest.mark.parametrize("dim", [1, 2, 3, 4, MAX_DIM])
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_matmul_is_bit_identical_to_textbook(dim, data):
    matrix = st.tuples(*[st.tuples(*[ENTRIES] * dim)] * dim)
    a, b = data.draw(matrix), data.draw(matrix)
    assert repr(matmul(dim)(a, b)) == repr(textbook_matmul(dim)(a, b))


def test_every_kernel_scans_signed_permutations_like_accumulate():
    # The 8 signed 2x2 permutation matrices are a group, so every prefix
    # product stays exact and equality is the right comparison.
    perms = [((s, 0), (0, t)) for s in (1, -1) for t in (1, -1)]
    perms += [((0, s), (t, 0)) for s in (1, -1) for t in (1, -1)]
    rng = random.Random(8)
    for name in KERNEL_NAMES:
        kernel = get_kernel(name)
        values = rng.choices(perms, k=kernel.fixed_length or 300)
        got = kernel(ListStore(values), matmul(2)).to_list()
        assert got == list(accumulate(values, textbook_matmul(2))), name


@pytest.mark.parametrize("a", [
    ((1, 0, 0), (0, 1, 0), (0, 0, 1)),  # 3x3: once multiplied as 3x3
    ((1, 0), (0, 1, 5)),                # ragged: once truncated
    ((1, 0),),
    5,
    None,
])
def test_matmul_names_a_wrongly_shaped_operand(a):
    op = matmul(2)
    with pytest.raises(ValueError, match="^matmul2 operands must be 2x2 matrices$") as e:
        op(a, op.identity)
    assert isinstance(e.value.__cause__, (TypeError, ValueError))
    with pytest.raises(ValueError, match="^matmul2 operands"):
        op(op.identity, a)


class Explodes:
    def __mul__(self, other):
        raise ValueError("boom")


def test_matmul_does_not_relabel_the_entries_own_errors():
    with pytest.raises(TypeError, match="can't multiply sequence"):
        matmul(1)((("a",),), (("b",),))
    with pytest.raises(ValueError, match="^boom$"):
        matmul(1)(((Explodes(),),), ((1,),))


@pytest.mark.parametrize("dim", [0, -1, MAX_DIM + 1])
def test_matmul_refuses_a_dim_outside_the_range(dim):
    with pytest.raises(ValueError, match=f"1..{MAX_DIM}, got {dim}$"):
        matmul(dim)
    assert dim not in _MATMULS


@pytest.mark.parametrize("dim", [2.0, "2"])
def test_matmul_refuses_a_dim_that_is_not_an_integer(dim):
    with pytest.raises(TypeError):
        matmul(dim)


def test_matmul_compiles_once_per_dim():
    assert matmul(2) is matmul(2)
    assert builtin_ops()["matmul2"].fn is matmul(2).fn
    assert matmul(2).name == "matmul2"
