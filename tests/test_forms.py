import random
from fractions import Fraction

import pytest
import sympy

from hodgelim import GR, I, Mat, Subspace
from hodgelim.forms import (BilForm, hermitian_positive_definite,
                            in_isometry_algebra, is_hermitian, signature)


def to_sympy(m: Mat):
    return sympy.Matrix([[sympy.Rational(e.re) + sympy.Rational(e.im) * sympy.I
                          for e in (m[i, j] for j in range(m.ncols))]
                         for i in range(m.nrows)])


def sturm_signature(m: Mat):
    """Oracle: count positive/negative eigenvalues via Sturm sequences.

    Sturm chains count distinct roots, so the count runs over the factors
    of the square-free factorization, each weighted by its multiplicity.
    """
    lam = sympy.Symbol("lam")
    p = sympy.Poly(to_sympy(m).charpoly(lam).as_expr(), lam)
    # strip zero roots
    while p.eval(0) == 0:
        p = sympy.Poly(sympy.cancel(p.as_expr() / lam), lam)

    def variations(signs):
        signs = [s for s in signs if s != 0]
        return sum(1 for a, b in zip(signs, signs[1:]) if a * b < 0)

    pos = neg = 0
    for q, mult in p.sqf_list()[1]:
        chain = sympy.sturm(q)
        var_neg_inf = variations([sympy.sign(c.LC() * (-1) ** c.degree())
                                  for c in chain])
        var_zero = variations([sympy.sign(c.eval(0)) for c in chain])
        var_pos_inf = variations([sympy.sign(c.LC()) for c in chain])
        pos += mult * (var_zero - var_pos_inf)
        neg += mult * (var_neg_inf - var_zero)
    return (pos, neg)


def random_symmetric(rng, n, span=4):
    entries = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            v = Fraction(rng.randint(-span, span), rng.randint(1, 3))
            entries[i][j] = entries[j][i] = v
    return Mat(entries)


class TestBilForm:
    def test_parity_validation(self):
        BilForm(Mat([[0, 1], [1, 0]]), parity=0)
        BilForm(Mat([[0, 1], [-1, 0]]), parity=1)
        with pytest.raises(ValueError):
            BilForm(Mat([[0, 1], [1, 0]]), parity=1)
        with pytest.raises(ValueError):
            BilForm(Mat([[0, 1], [-1, 0]]), parity=0)

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            BilForm(Mat([[1, 0], [0, 0]]), parity=0)

    def test_evaluation(self):
        q = BilForm(Mat([[0, 1], [-1, 0]]), parity=1)
        assert q([1, 0], [0, 1]) == 1
        assert q([0, 1], [1, 0]) == -1
        assert q([1, 2], [1, 2]) == 0
        # antisymmetry on random vectors
        rng = random.Random("bilform")
        for _ in range(10):
            u = [rng.randint(-5, 5) for _ in range(2)]
            v = [rng.randint(-5, 5) for _ in range(2)]
            assert q(u, v) == -q(v, u)

    def test_gram_and_orthogonal(self):
        q = BilForm(Mat([[1, 0], [0, -1]]), parity=0)
        s1 = Subspace.span([[1, 0]], 2)
        s2 = Subspace.span([[0, 1]], 2)
        assert q.gram(s1, s2).is_zero()
        assert q.orthogonal(s1, s2)
        assert q.gram(s2, s2) == Mat([[-1]])


def test_isometry_algebra_membership():
    # so(2): antisymmetric matrices preserve the standard symmetric form
    q = BilForm(Mat.identity(2), parity=0)
    assert in_isometry_algebra(Mat([[0, 1], [-1, 0]]), q)
    assert not in_isometry_algebra(Mat([[1, 0], [0, 0]]), q)
    # sp(2) = sl(2) for the standard symplectic form
    w = BilForm(Mat([[0, 1], [-1, 0]]), parity=1)
    assert in_isometry_algebra(Mat([[1, 0], [0, -1]]), w)
    assert in_isometry_algebra(Mat([[0, 1], [0, 0]]), w)
    assert not in_isometry_algebra(Mat([[1, 0], [0, 1]]), w)


class TestSignature:
    def test_known(self):
        assert signature(Mat([[1, 0], [0, -1]])) == (1, 1)
        assert signature(Mat([[2]])) == (1, 0)
        assert signature(Mat([[0, 1], [1, 0]])) == (1, 1)
        assert signature(Mat.zeros(2, 2)) == (0, 0)
        assert signature(Mat([[0, 0, 1], [0, -1, 0], [1, 0, 0]])) == (1, 2)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            signature(Mat([[0, 1], [-1, 0]]))
        with pytest.raises(ValueError):
            signature(Mat([[GR(0, 1)]]))

    def test_congruence_invariance(self):
        rng = random.Random("congruence")
        for _ in range(15):
            n = rng.randint(1, 5)
            a = random_symmetric(rng, n)
            g = Mat([[rng.randint(-3, 3) for _ in range(n)]
                     for _ in range(n)])
            if g.rank() < n:
                continue
            assert signature(g.transpose() @ a @ g) == signature(a)

    def test_against_sturm_oracle(self):
        rng = random.Random("sturm")
        inputs = [random_symmetric(rng, rng.randint(1, 4)) for _ in range(12)]
        # zero diagonals: p hyperbolic planes (isotropic e_i, f_i) next to
        # scalar blocks, moved by a seeded congruence that acts on the e's
        # and the f's separately (so they stay isotropic) and then permutes
        # and rescales; a pivot is found by a swap or by the row+column repair
        for _ in range(12):
            p, r = rng.randint(1, 2), rng.randint(0, 2)
            n = 2 * p + r
            h0 = [[0] * n for _ in range(n)]
            for i in range(p):
                h0[i][p + i] = h0[p + i][i] = 1
            for i in range(2 * p, n):
                h0[i][i] = rng.randint(-2, 2)
            g = [[0] * n for _ in range(n)]
            for lo in (0, p):
                for i in range(p):
                    for j in range(p):
                        g[lo + i][lo + j] = rng.randint(-2, 2)
            for i in range(2 * p, n):
                g[i][i] = 1
            perm = rng.sample(range(n), n)
            sp = Mat([[rng.choice([-2, -1, 1, 3]) if perm[i] == j else 0
                       for j in range(n)] for i in range(n)])
            g = Mat(g) @ sp
            inputs.append(g.transpose() @ Mat(h0) @ g)
        for a in inputs:
            assert signature(a) == sturm_signature(a)


class TestHermitianPositive:
    def test_known(self):
        assert hermitian_positive_definite(Mat.identity(3))
        assert not hermitian_positive_definite(Mat([[1, 0], [0, -1]]))
        assert not hermitian_positive_definite(Mat([[0, 0], [0, 1]]))
        m = Mat([[2, I], [-I, 2]])
        assert is_hermitian(m)
        assert hermitian_positive_definite(m)
        assert not hermitian_positive_definite(Mat([[1, GR(0, 3)],
                                                    [GR(0, -3), 2]]))

    def test_non_hermitian_rejected(self):
        assert not hermitian_positive_definite(Mat([[1, 1], [0, 1]]))
        assert not hermitian_positive_definite(Mat([[I]]))

    def test_against_sympy_oracle(self):
        rng = random.Random("posdef")
        for _ in range(15):
            n = rng.randint(1, 4)
            b = Mat([[GR(rng.randint(-3, 3), rng.randint(-3, 3))
                      for _ in range(n)] for _ in range(n)])
            g = b.conj_transpose() @ b  # PSD, maybe singular
            shift = rng.choice([-2, -1, 0, 1])
            g = g + shift * Mat.identity(n)
            expected = bool(to_sympy(g).is_positive_definite)
            assert hermitian_positive_definite(g) == expected
        # complex Hermitian with zero diagonal entries: the pivot comes from
        # a swap or from an off-diagonal repair with a non-real entry
        for _ in range(15):
            n = rng.randint(2, 5)
            zeros = set(rng.sample(range(n), rng.randint(1, n)))
            rows = [[GR(0)] * n for _ in range(n)]
            for i in range(n):
                if i not in zeros:
                    rows[i][i] = GR(rng.randint(-3, 3))
                for j in range(i + 1, n):
                    h = GR(rng.randint(-2, 2), rng.randint(-2, 2))
                    rows[i][j], rows[j][i] = h, h.conj()
            g = Mat(rows)
            expected = bool(to_sympy(g).is_positive_definite)
            assert hermitian_positive_definite(g) == expected
