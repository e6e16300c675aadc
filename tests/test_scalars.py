from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, strategies as st

from hodgelim.scalars import GR, GaussianRational, I, ONE, ZERO, t_norm

rationals = st.fractions(min_value=-1000, max_value=1000, max_denominator=100)
scalars = st.builds(GaussianRational, rationals, rationals)
nonzero = scalars.filter(lambda z: not z.is_zero())


def test_normalization():
    assert GR(Fraction(2, 4)).triple == (1, 0, 2)
    assert GR(Fraction(-3, 6), Fraction(9, 6)).triple == (-1, 3, 2)
    assert GR(0).triple == (0, 0, 1)
    assert t_norm(2, -4, -6) == (-1, 2, 3)


@given(st.integers(-50, 50), st.integers(-50, 50), st.integers(1, 50))
def test_triple_invariant(a, b, d):
    na, nb, nd = t_norm(a, b, d)
    assert nd > 0
    assert gcd(gcd(na, nb), nd) == 1
    assert Fraction(na, nd) == Fraction(a, d)
    assert Fraction(nb, nd) == Fraction(b, d)


@given(scalars, scalars, scalars)
def test_field_axioms(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + y == y + x
    assert x * y == y * x
    assert x + ZERO == x
    assert x * ONE == x


@given(nonzero)
def test_inverse(x):
    assert x * x.inverse() == ONE
    assert (ONE / x) * x == ONE


@given(scalars, scalars)
def test_conjugation(x, y):
    assert (x * y).conj() == x.conj() * y.conj()
    assert (x + y).conj() == x.conj() + y.conj()
    assert x.conj().conj() == x
    norm = x * x.conj()
    assert norm.is_real()
    assert norm.re >= 0


def test_i_arithmetic():
    assert I * I == -1
    assert I.conj() == -I
    assert (ONE + I) * (ONE - I) == 2


def test_re_im_are_fractions():
    z = GR(Fraction(3, 4), Fraction(-5, 2))
    assert z.re == Fraction(3, 4) and isinstance(z.re, Fraction)
    assert z.im == Fraction(-5, 2)


def test_mixed_arithmetic():
    z = GR(1, 1)
    assert z + 1 == GR(2, 1)
    assert 2 * z == GR(2, 2)
    assert z - Fraction(1, 2) == GR(Fraction(1, 2), 1)
    assert 1 / GR(0, 1) == -I


def test_parse():
    assert GR.parse("5") == GR(5)
    assert GR.parse("-3/4") == GR(Fraction(-3, 4))
    assert GR.parse(" 7/2 ") == GR(Fraction(7, 2))
    with pytest.raises(ValueError):
        GR.parse("3/0")
    with pytest.raises(ValueError):
        GR.parse("1+2i")
    with pytest.raises(ValueError):
        GR.parse("")


@pytest.mark.parametrize("text",
                         ["\u0663", "1/2\u0663", "\uff11", "-\u0967/2"])
def test_parse_rejects_non_ascii_digits(text):
    # \u0663 is ARABIC-INDIC DIGIT THREE: int() reads it; the grammar does not
    with pytest.raises(ValueError):
        GR.parse(text)


def test_hash_matches_equality():
    assert hash(GR(7)) == hash(7)
    assert hash(GR(Fraction(1, 2))) == hash(Fraction(1, 2))
    assert GR(7) == 7
    d = {GR(7): "a"}
    d[7] = "b"
    assert d == {GR(7): "b"}


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO
    with pytest.raises(ZeroDivisionError):
        ZERO.inverse()


def test_pow():
    z = GR(1, 1)
    assert z ** 0 == ONE
    assert z ** 2 == GR(0, 2)
    assert z ** 5 == z * z * z * z * z


def test_str_forms():
    assert str(GR(3)) == "3"
    assert str(GR(Fraction(3, 2))) == "3/2"
    assert str(GR(0, 1)) == "1i"
    assert str(GR(1, -2)) == "1-2i"
    assert str(GR(Fraction(1, 3), Fraction(2, 3))) == "(1+2i)/3"
