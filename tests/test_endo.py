"""Operator-space solves checked against an independent sympy oracle.

Each solve is restated as an explicit linear system in the n² unknowns
vec(X) (row-major, like the package), solved with sympy's nullspace, and
compared with the package's canonical subspace.  Membership of X in a
given span is written as orthogonality to the span's annihilator.
"""
import random
from fractions import Fraction

import pytest
from sympy import QQ, QQ_I
from sympy.polys.matrices import DomainMatrix

from hodgelim.builders import hodge_tate_orbit
from hodgelim.endo import (centralizer_in, isometry_algebra, maps_into,
                           nonzeros, operator_span, solve_in_span)
from hodgelim.filtrations import Bigrading
from hodgelim.forms import BilForm, in_isometry_algebra
from hodgelim.matrices import Mat
from hodgelim.mixed import filtration_lowering
from hodgelim.orbits import limit_context
from hodgelim.scalars import GR
from hodgelim.subspaces import Subspace

from genutil import make_split_mhs, transport_mhs


# ---------------------------------------------------------------------------
# conversions and the oracle
# ---------------------------------------------------------------------------

def gi(t):
    """A triple as an element of sympy's Gaussian rationals QQ_I."""
    a, b, d = t
    return QQ_I(QQ(a, d), QQ(b, d))


def gi_mat(m: Mat):
    return [[gi(e) for e in row] for row in m.t]


def nullspace(rows, ncols: int) -> list:
    """Basis of the right null space, by sympy over QQ_I."""
    return DomainMatrix(rows, (len(rows), ncols), QQ_I).nullspace().to_list()


def to_subspace(vectors, ambient: int) -> Subspace:
    return Subspace.span(
        [[GR(Fraction(int(e.x.numerator), int(e.x.denominator)),
             Fraction(int(e.y.numerator), int(e.y.denominator)))
          for e in v] for v in vectors], ambient)


def oracle(equations, nn: int, inside: Subspace | None = None) -> Subspace:
    """Solutions in C^nn of the equation rows, optionally inside a span."""
    rows = [list(r) for r in equations]
    if inside is not None:
        # vec(X) lies in the span iff it pairs to 0 with the annihilator
        rows += nullspace([[gi(e) for e in r] for r in inside.rows], nn)
    return to_subspace(nullspace(rows, nn), nn)


def rational(rng, span=3):
    return Fraction(rng.randint(-span, span), rng.randint(1, 3))


def dense_invertible(n: int, rng) -> Mat:
    while True:
        g = Mat([[rational(rng) for _ in range(n)] for _ in range(n)])
        if g.rank() == n:
            return g


def canonical_form(n: int, parity: int) -> Mat:
    if parity == 0:  # diag(1, -1, 1, ...)
        return Mat([[(-1) ** i if i == j else 0 for j in range(n)]
                    for i in range(n)])
    h = n // 2  # standard symplectic [[0, I], [-I, 0]]
    return Mat([[1 if j == i + h else -1 if i == j + h else 0
                 for j in range(n)] for i in range(n)])


def make_form(n: int, parity: int, moved: bool, seed: int) -> BilForm:
    m = canonical_form(n, parity)
    if moved:
        g = dense_invertible(n, random.Random(seed))
        m = g.transpose() @ m @ g
    return BilForm(m, parity)


FORM_CASES = [(n, 0, moved) for n in (1, 2, 3, 5, 6) for moved in (0, 1)] + \
             [(n, 1, moved) for n in (2, 4, 6) for moved in (0, 1)]


# ---------------------------------------------------------------------------
# isometry algebra: the closed form against the full n²-unknown system
# ---------------------------------------------------------------------------

def isometry_equations(m):
    n = len(m)
    eqs = []
    for a in range(n):
        for b in range(n):  # (X^T M + M X)[a][b] = 0
            row = [QQ_I.zero] * (n * n)
            for k in range(n):
                row[k * n + a] += m[k][b]
                row[k * n + b] += m[a][k]
            eqs.append(row)
    return eqs


@pytest.mark.parametrize("n, parity, moved", FORM_CASES)
def test_isometry_algebra_matches_oracle(n, parity, moved):
    q = make_form(n, parity, moved, seed=100 * n + 10 * parity + moved)
    g = isometry_algebra(q)
    assert g == oracle(isometry_equations(gi_mat(q.matrix)), n * n)
    assert g.dim == (n * (n + 1) // 2 if parity else n * (n - 1) // 2)


def test_isometry_algebra_of_a_gaussian_symmetric_form():
    q = BilForm(Mat([[1, GR(0, 1)], [GR(0, 1), 2]]), 0)
    assert isometry_algebra(q) == oracle(
        isometry_equations(gi_mat(q.matrix)), 4)


# ---------------------------------------------------------------------------
# centralizers: ad_A built from nonzeros against [X, A] = 0 written out
# ---------------------------------------------------------------------------

def commutator_equations(a, n):
    eqs = []
    for r in range(n):
        for c in range(n):  # (XA - AX)[r][c] = 0
            row = [QQ_I.zero] * (n * n)
            for k in range(n):
                row[r * n + k] += a[k][c]
                row[k * n + c] -= a[r][k]
            eqs.append(row)
    return eqs


def random_element(space: Subspace, n: int, rng) -> Mat:
    acc = [GR(0)] * space.ambient
    for row in space.rows:
        c = rng.randint(-2, 2)
        acc = [x + c * GR.from_triple(e) for x, e in zip(acc, row)]
    return Mat([acc[i * n:(i + 1) * n] for i in range(n)])


@pytest.mark.parametrize("n, parity, moved", FORM_CASES[2:])
def test_centralizer_in_isometry_algebra_matches_oracle(n, parity, moved):
    rng = random.Random(7 * n + parity + 2 * moved)
    q = make_form(n, parity, moved, seed=n + 50 * moved)
    g = isometry_algebra(q)
    mats = [random_element(g, n, rng) for _ in range(1 + moved)]
    eqs = [row for a in mats for row in commutator_equations(gi_mat(a), n)]
    z = centralizer_in(g, mats, n)
    assert z == oracle(eqs, n * n, inside=g)
    assert all(in_isometry_algebra(a, q) for a in mats)


@pytest.mark.parametrize("seed", range(4))
def test_centralizer_of_sparse_gaussian_matrices_in_end_v(seed):
    rng = random.Random(seed)
    n = 3 + seed % 3
    mats = []
    for _ in range(1 + seed % 2):
        entries = [[0] * n for _ in range(n)]
        for _ in range(n):
            entries[rng.randrange(n)][rng.randrange(n)] = GR(
                rational(rng), rng.choice((0, 0, 1, -1)))
        mats.append(Mat(entries))
    eqs = [row for a in mats for row in commutator_equations(gi_mat(a), n)]
    assert centralizer_in(Subspace.full(n * n), mats, n) == oracle(eqs, n * n)


# ---------------------------------------------------------------------------
# horizontal parts: X v computed from nonzeros against y . X v = 0
# ---------------------------------------------------------------------------

def lowering_equations(vb, degree, n):
    """X maps every I^{p,q} into the sum of the pieces I^{p+degree, *}."""
    eqs = []
    for (p, q), piece in vb.pieces.items():
        annihilator = nullspace(
            [[gi(e) for e in r] for (a, _), s in vb.pieces.items()
             if a == p + degree for r in s.rows], n)
        for v in piece.rows:
            for y in annihilator:  # sum_ij y_i X_ij v_j = 0
                eqs.append([y[i] * gi(v[j]) for i in range(n)
                            for j in range(n)])
    return eqs


@pytest.mark.parametrize("seed, moved", [(s, m) for s in range(4)
                                         for m in (0, 1)])
def test_filtration_lowering_on_end_v_matches_oracle(seed, moved):
    rng = random.Random(seed)
    w, f, pieces = make_split_mhs(rng, max_real_dim=6)
    n = w.ambient
    if moved:
        w, f, pieces = transport_mhs(w, f, pieces, dense_invertible(n, rng))
    vb = Bigrading(pieces)
    for degree in (-1, 0):
        got = filtration_lowering(vb, Subspace.full(n * n), degree)
        assert got == oracle(lowering_equations(vb, degree, n), n * n)


def test_horizontal_part_of_a_limit_matches_oracle():
    ctx = limit_context(hodge_tate_orbit(2, 2))
    n = ctx.orbit.ambient
    expected = oracle(lowering_equations(ctx.bigrading, -1, n), n * n,
                      inside=ctx.algebra)
    assert ctx.horizontal == expected
    assert not ctx.horizontal.is_zero()


# ---------------------------------------------------------------------------
# the solve contract
# ---------------------------------------------------------------------------

def test_nonzeros_lists_row_major_entries():
    x = Mat([[0, 2], [GR(0, 1), 0]])
    flat = tuple(e for row in x.t for e in row)
    assert nonzeros(flat, 2) == [(0, 1, (2, 0, 1)), (1, 0, (0, 1, 1))]


def test_solve_with_no_conditions_keeps_the_space():
    space = isometry_algebra(make_form(4, 1, True, seed=3))
    assert solve_in_span(space, 4, lambda nz: ()) == space
    assert solve_in_span(space, 4, maps_into([], 4)) == space


def test_solve_in_the_zero_space_is_zero():
    zero = Subspace.zero(9)
    assert solve_in_span(zero, 3, lambda nz: (nz[0][2],)) is zero


def test_operator_span_checks_the_operator_size():
    with pytest.raises(ValueError, match="length 4 in ambient dim 9"):
        operator_span([Mat([[1, 0], [0, 1]])], 3)
    span = operator_span([Mat([[1, 2], [0, 1]]), Mat([[2, 4], [0, 2]])], 2)
    assert span == Subspace.span([[1, 2, 0, 1]], 4)
