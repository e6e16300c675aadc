import random
from fractions import Fraction

import pytest

from hodgelim import GR, I, Mat


def random_mat(rng, m, n, span=6):
    return Mat([[GR(Fraction(rng.randint(-span, span), rng.randint(1, 3)),
                    rng.randint(-2, 2))
                 for _ in range(n)] for _ in range(m)])


def test_construction_and_access():
    m = Mat([[1, Fraction(1, 2)], [GR(0, 1), 0]])
    assert m.shape == (2, 2)
    assert m[0, 1] == Fraction(1, 2)
    assert m[1, 0] == I
    assert m.col(0) == (GR(1), I)
    with pytest.raises(ValueError):
        Mat([[1, 2], [3]])


def test_triple_entries_are_normalized():
    assert Mat([[(2, 0, 2)]]) == Mat([[1]])
    assert Mat([[(2, -4, -6)]])[0, 0] == GR(Fraction(-1, 3), Fraction(2, 3))
    with pytest.raises(ZeroDivisionError):
        Mat([[(1, 0, 0)]])


def test_algebra():
    a = Mat([[1, 2], [3, 4]])
    b = Mat([[0, 1], [1, 0]])
    assert a + b == Mat([[1, 3], [4, 4]])
    assert a - a == Mat.zeros(2, 2)
    assert (-a) + a == Mat.zeros(2, 2)
    assert 2 * a == Mat([[2, 4], [6, 8]])
    assert a @ b == Mat([[2, 1], [4, 3]])
    assert a @ Mat.identity(2) == a


def test_transpose_conj():
    m = Mat([[GR(1, 2), 3]])
    assert m.transpose().shape == (2, 1)
    assert m.conj() == Mat([[GR(1, -2), 3]])
    assert m.conj_transpose() == Mat([[GR(1, -2)], [3]])
    assert m.conj_transpose() == m.transpose().conj()


def test_transpose_keeps_empty_dimensions():
    assert Mat.zeros(0, 3).transpose().shape == (3, 0)
    assert Mat.zeros(3, 0).transpose().shape == (0, 3)


def test_product_over_empty_inner_dimension_is_zero():
    prod = Mat.zeros(3, 0) @ Mat.zeros(0, 2)
    assert prod.shape == (3, 2)
    assert prod == Mat.zeros(3, 2)


def test_det_known():
    assert Mat([[1, 2], [3, 4]]).det() == -2
    assert Mat([[2]]).det() == 2
    assert Mat([[0, 1], [1, 0]]).det() == -1
    assert Mat([[1, 2], [2, 4]]).det() == 0
    assert Mat([[0, 1], [-1, 0]]).det() == 1
    m = Mat([[GR(0, 1), 1], [1, GR(0, 1)]])
    assert m.det() == GR(-2)  # i*i - 1


def test_det_multiplicative():
    rng = random.Random("det-mult")
    for _ in range(15):
        a = random_mat(rng, 3, 3)
        b = random_mat(rng, 3, 3)
        assert (a @ b).det() == a.det() * b.det()


def test_inverse():
    a = Mat([[1, 2], [3, 4]])
    assert a.inverse() @ a == Mat.identity(2)
    assert a @ a.inverse() == Mat.identity(2)
    with pytest.raises(ZeroDivisionError):
        Mat([[1, 2], [2, 4]]).inverse()
    rng = random.Random("inv")
    for _ in range(10):
        m = random_mat(rng, 4, 4)
        if m.rank() == 4:
            assert m.inverse() @ m == Mat.identity(4)


def test_rank_kernel_dimension():
    rng = random.Random("rank-null")
    for _ in range(25):
        m = random_mat(rng, rng.randint(1, 5), rng.randint(1, 5))
        assert m.rank() + len(m.kernel()) == m.ncols
        for v in m.kernel():
            assert (m @ Mat.from_columns([v])).is_zero()


def test_pow():
    n = Mat([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    assert n.pow(0) == Mat.identity(3)
    assert n.pow(2) == Mat([[0, 0, 1], [0, 0, 0], [0, 0, 0]])
    assert n.pow(3).is_zero()
    a = Mat([[1, 1], [0, 1]])
    assert a.pow(5) == Mat([[1, 5], [0, 1]])


def test_solve():
    a = Mat([[1, 2], [3, 4], [5, 6]])
    x = a.solve([5, 11, 17])
    assert x == (GR(1), GR(2))
    assert a.solve([1, 0, 0]) is None


def test_predicates_and_hash():
    z = Mat.zeros(2, 3)
    assert z.is_zero() and z.is_real() and not z.is_square()
    m = Mat([[GR(0, 1)]])
    assert not m.is_real()
    assert hash(Mat([[1, 2]])) == hash(Mat([[1, 2]]))
    assert Mat([[1]]) != Mat([[1, 0]])


def test_from_columns():
    m = Mat.from_columns([[1, 2], [3, 4]])
    assert m == Mat([[1, 3], [2, 4]])


def test_from_columns_rejects_ragged_and_keeps_empty_columns():
    with pytest.raises(ValueError):
        Mat.from_columns([(1,), (2, 3)])
    with pytest.raises(ValueError):
        Mat.from_columns([(1, 2), (3,)])
    assert Mat.from_columns([(), (), ()]).shape == (0, 3)
    with pytest.raises(ValueError):
        Mat.from_columns([])
