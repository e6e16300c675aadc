"""The exact kernels: row reduction and matrix product on scalar triples.

Known values and structural properties, plus a differential check of
``t_rref`` against sympy's RREF over Q(i) on sparse matrices, which is the
shape the operator-space solves feed it.
"""
import random

import pytest
from hypothesis import given, settings, strategies as st
from sympy import QQ, QQ_I
from sympy.polys.matrices import DomainMatrix

from hodgelim.matrices import t_matmul, t_rref
from hodgelim.scalars import t_norm
from hodgelim.subspaces import Subspace

ZERO = (0, 0, 1)


def random_tmat(rng, m, n, span=9):
    return tuple(
        tuple(t_norm(rng.randint(-span, span), rng.randint(-span, span),
                     rng.randint(1, 4))
              for _ in range(n))
        for _ in range(m)
    )


@st.composite
def sparse_tmats(draw, ncols=None):
    """Gaussian-rational triple-matrices up to 7x8, mostly zeros."""
    m = draw(st.integers(1, 7))
    n = ncols if ncols is not None else draw(st.integers(1, 8))
    cells = draw(st.sets(st.tuples(st.integers(0, m - 1),
                                   st.integers(0, n - 1)),
                         max_size=max(1, m * n // 3)))
    rows = [[ZERO] * n for _ in range(m)]
    for i, j in sorted(cells):
        a = draw(st.integers(-5, 5))
        b = draw(st.sampled_from([0, 0, -2, -1, 1, 2]))
        d = draw(st.integers(1, 4))
        rows[i][j] = t_norm(a, b, d)
    return tuple(tuple(r) for r in rows)


def to_gi(t):
    a, b, d = t
    return QQ_I(QQ(a, d), QQ(b, d))


def from_gi(e):
    x, y = e.x, e.y
    return t_norm(int(x.numerator) * int(y.denominator),
                  int(y.numerator) * int(x.denominator),
                  int(x.denominator) * int(y.denominator))


def sympy_rref(tm):
    m, n = len(tm), len(tm[0])
    red, pivots = DomainMatrix([[to_gi(e) for e in r] for r in tm],
                               (m, n), QQ_I).rref()
    rows = tuple(tuple(from_gi(e) for e in r)
                 for r in red.to_list()[:len(pivots)])
    return rows, list(pivots)


def test_rref_known_values():
    one, zero, two = (1, 0, 1), ZERO, (2, 0, 1)
    rows, pivots = t_rref(((two, (4, 0, 1)), (one, two)))
    assert pivots == [0]
    assert rows == ((one, two),)

    rows, pivots = t_rref(((zero, one), (one, zero)))
    assert pivots == [0, 1]
    assert rows == ((one, zero), (zero, one))

    # complex pivot gets normalized to a leading one
    rows, pivots = t_rref((((0, 1, 1), one),))
    assert rows == ((one, (0, -1, 1)),)


def test_rref_idempotent_and_canonical():
    rng = random.Random("rref-idem")
    for trial in range(30):
        a = random_tmat(rng, rng.randint(1, 6), rng.randint(1, 6))
        rows, pivots = t_rref(a)
        again, pivots2 = t_rref(rows)
        assert again == rows and pivots2 == pivots
        # pivot structure: strictly increasing, entry is exactly one,
        # and the pivot column is zero elsewhere
        assert pivots == sorted(pivots)
        for i, p in enumerate(pivots):
            assert rows[i][p] == (1, 0, 1)
            assert all(rows[j][p] == ZERO
                       for j in range(len(rows)) if j != i)


def test_rref_empty():
    assert t_rref(()) == ((), [])
    assert t_rref([]) == ((), [])


@settings(max_examples=80, deadline=None, derandomize=True)
@given(sparse_tmats())
def test_rref_against_sympy_oracle(tm):
    assert t_rref(tm) == sympy_rref(tm)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(1, 8).flatmap(
    lambda n: st.tuples(sparse_tmats(n), sparse_tmats(n))))
def test_lattice_dimension_identity(pair):
    a, b = pair
    n = len(a[0])
    sa, sb = Subspace.from_triples(a, n), Subspace.from_triples(b, n)
    assert (sa & sb).dim + (sa + sb).dim == sa.dim + sb.dim
    assert (sa & sb) <= sa and (sa & sb) <= sb
    assert sa <= sa + sb and sb <= sa + sb


def test_matmul_identity():
    rng = random.Random("matmul-id")
    a = random_tmat(rng, 4, 4)
    eye = tuple(tuple((1, 0, 1) if i == j else ZERO for j in range(4))
                for i in range(4))
    assert t_matmul(a, eye) == a
    assert t_matmul(eye, a) == a


def test_matmul_shape_mismatch():
    with pytest.raises(ValueError):
        t_matmul((((1, 0, 1),),), (((1, 0, 1),), ((1, 0, 1),)))
