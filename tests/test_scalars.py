from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from hodgelim.io import matrix_from_json, scalar_from_json
from hodgelim.matrices import _t_combine, t_is_zero_mat, t_sub_mul
from hodgelim.scalars import (GR, GaussianRational, I, ONE, T_ZERO, ZERO,
                              t_add, t_mul, t_neg, t_norm, t_sub)
from hodgelim.subspaces import _is_zero_vec

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


# ---------------------------------------------------------------------------
# the zero normal form: every zero triple is exactly T_ZERO
# ---------------------------------------------------------------------------

def per_entry_zero(v) -> bool:
    return not any(e[0] or e[1] for e in v)


small = st.integers(-6, 6)
triples = st.builds(t_norm, small, small, st.integers(1, 12))
# raw scalings (a k, b k, d k) of one value, negative k included
raw = st.tuples(small, small, st.integers(1, 6),
                st.integers(-5, 5).filter(bool)).map(
    lambda t: (t[0] * t[3], t[1] * t[3], t[2] * t[3]))


@st.composite
def pairs(draw):
    """(x, y) with y often x, -x or 0, so that sums and products vanish."""
    x = draw(triples)
    y = draw(st.one_of(triples, st.just(x), st.just(t_neg(x)),
                       st.just(T_ZERO)))
    return x, y


def check_zero_form(t):
    """A zero triple is T_ZERO itself, never (0, 0, d) with d != 1."""
    if not (t[0] or t[1]):
        assert t == T_ZERO


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(raw, pairs(), triples)
def test_every_zero_result_is_t_zero(r, xy, f):
    x, y = xy
    for t in (t_norm(*r), t_add(x, y), t_sub(x, y), t_mul(x, y),
              t_sub_mul(x, f, y), t_sub_mul(x, ONE.triple, x),
              t_add(x, t_neg(x)), t_mul(x, T_ZERO)):
        check_zero_form(t)
    assert t_norm(0, 0, r[2]) == T_ZERO
    assert t_sub(x, x) == T_ZERO and t_add(x, t_neg(x)) == T_ZERO


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.lists(st.tuples(triples, st.lists(
    st.tuples(st.integers(0, 3), triples), max_size=4)), max_size=4))
def test_every_zero_sum_of_products_is_t_zero(terms):
    # each term twice, once negated: the sum is 0 entry by entry
    cancelling = terms + [(t_neg(f), nz) for f, nz in terms]
    assert _t_combine(cancelling, 4) == (T_ZERO,) * 4
    for t in _t_combine(terms, 4):
        check_zero_form(t)


@pytest.mark.parametrize("literal", ["0/5", "-0", "0", "+0/7",
                                     {"re": "0", "im": "0/3"}, {"im": "-0"},
                                     0])
def test_zero_literals_read_as_t_zero(literal):
    assert scalar_from_json(literal).triple == T_ZERO
    assert matrix_from_json([[literal, literal]]).t == ((T_ZERO, T_ZERO),)


entries = st.one_of(st.just(T_ZERO), st.just(T_ZERO), triples)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 6).flatmap(lambda n: st.lists(
    st.lists(entries, min_size=n, max_size=n).map(tuple), max_size=4)))
def test_zero_tests_agree_with_the_per_entry_test(rows):
    for v in rows:
        assert _is_zero_vec(v) == per_entry_zero(v)
    rows = tuple(rows)
    assert t_is_zero_mat(rows) == all(map(per_entry_zero, rows))
