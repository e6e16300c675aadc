"""Operator-space solves checked against an independent sympy oracle.

Each solve is restated as an explicit linear system in the n² unknowns
vec(X) (row-major, like the package), solved with sympy's nullspace, and
compared with the package's canonical subspace.  Membership of X in a
given span is written as orthogonality to the span's annihilator.
"""
import random
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st
from sympy import QQ, QQ_I
from sympy.polys.matrices import DomainMatrix

from hodgelim.builders import (build_max_ivi_k2, diagonal_cone_orbit,
                               hodge_tate_orbit, symmetric_family_ivi,
                               table1_catalog)
from hodgelim.endo import (SpanCoordinates, _bracket, as_mat,
                           centralizer_in, flatten, isometry_algebra,
                           maps_into, noncommuting_pair, operator_rows,
                           operator_span, pairwise_commuting, solve_in_span,
                           span_basis_mats)
from hodgelim.errors import VerificationError
from hodgelim.filtrations import Bigrading
from hodgelim.forms import BilForm, in_isometry_algebra
from hodgelim.matrices import Mat, t_matmul
from hodgelim.mixed import (deligne_bigrading, filtration_lowering,
                            horizontal_part)
from hodgelim.orbits import NilpotentCone, NilpotentOrbit, limit_context
from hodgelim.scalars import GR, T_ZERO, t_sub
from hodgelim.subspaces import Subspace

from genutil import make_split_mhs, move, transport_mhs


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


@pytest.mark.parametrize("n, parity, moved", [(3, 0, 1), (4, 1, 0)])
def test_centralizer_in_of_no_operators_is_the_space_itself(n, parity, moved):
    # no operator gives no condition, and where_zero hands the space back
    for space in (isometry_algebra(make_form(n, parity, moved, seed=n)),
                  Subspace.full(n * n), Subspace.zero(n * n)):
        assert centralizer_in(space, [], n) is space


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
    n = ctx.ambient
    expected = oracle(lowering_equations(ctx.bigrading, -1, n), n * n,
                      inside=isometry_algebra(ctx.form))
    assert ctx.horizontal == expected
    assert not ctx.horizontal.is_zero()


@pytest.mark.parametrize("k, strings, dim", [(1, 2, 3), (3, 1, 2)])
def test_odd_weight_horizontal_part_matches_oracle(k, strings, dim):
    # odd weight pairs the block V_s with itself at s = (k - 1) / 2, which
    # gives strings * (strings + 1) / 2 dimensions; weight 3 adds
    # Hom(V_1, V_0) with strings^2
    ctx = limit_context(hodge_tate_orbit(k, strings))
    n = ctx.ambient
    expected = oracle(lowering_equations(ctx.bigrading, -1, n), n * n,
                      inside=isometry_algebra(ctx.form))
    assert ctx.horizontal == expected
    assert ctx.horizontal.dim == dim


# ---------------------------------------------------------------------------
# the horizontal part in closed form against the solve inside the algebra
# ---------------------------------------------------------------------------

def closed_form_orbits() -> dict[str, NilpotentOrbit]:
    """The CKTM grid, the catalog, symmetric families, Hodge-Tate orbits
    of weights 1 to 3, and small ones of these in dense bases."""
    orbits = {f"cktm{h20},{h11}": build_max_ivi_k2(h20, h11).orbit
              for h20 in range(1, 5) for h11 in range(1, 7)}
    for i, row in enumerate(table1_catalog()):
        o = row.witness.orbit
        orbits[f"row{i}"] = o
        for j, cone in enumerate(row.cones):
            orbits[f"row{i}.cone{j}"] = NilpotentOrbit(
                o.weight, o.form, o.filtration, cone)
    for d in (1, 2, 3):
        orbits[f"sym{d}"] = symmetric_family_ivi(d).orbit
    for k in (1, 2, 3):
        for strings in (1, 2, 3):
            orbits[f"ht{k},{strings}"] = hodge_tate_orbit(k, strings)
    small = ("ht1,2", "ht2,2", "ht3,1", "cktm1,2", "sym1", "row1.cone0")
    for seed, label in enumerate(small):
        o = orbits[label]
        g = dense_invertible(o.ambient, random.Random(seed))
        form, f, *gens = move(g, o.form, o.filtration, *o.cone.generators)
        orbits[f"dense:{label}"] = NilpotentOrbit(o.weight, form, f,
                                                  NilpotentCone(tuple(gens)))
    return orbits


CLOSED_FORM_ORBITS = closed_form_orbits()


@pytest.mark.parametrize("label", sorted(CLOSED_FORM_ORBITS))
def test_horizontal_part_in_closed_form_matches_the_solve(label):
    orbit = CLOSED_FORM_ORBITS[label]
    ctx = limit_context(orbit)
    got = horizontal_part(ctx.bigrading, orbit.form, orbit.weight)
    solved = filtration_lowering(ctx.bigrading,
                                 isometry_algebra(orbit.form), -1)
    assert (got.rows, got.pivots) == (solved.rows, solved.pivots)
    assert (ctx.horizontal.rows, ctx.horizontal.pivots) == (
        solved.rows, solved.pivots)


@pytest.mark.parametrize("matrix, pair", [
    # Q(V_0, V_0) != 0: the identity form pairs each level with itself
    ([[1, 0, 0], [0, 1, 0], [0, 0, 1]], "I^{0,*}, I^{0,*}"),
    # the standard pairing plus Q(L_0, L_1) != 0, where 2 + 1 != 2
    ([[0, 1, 1], [1, -1, 0], [1, 0, 0]], "I^{1,*}, I^{2,*}"),
])
def test_a_form_that_breaks_compatibility_is_refused(matrix, pair):
    o = hodge_tate_orbit(2, 1)
    bad = NilpotentOrbit(2, BilForm(Mat(matrix), 0), o.filtration, o.cone)
    vb = deligne_bigrading(bad.limit_weight_filtration(), bad.filtration)
    with pytest.raises(VerificationError, match="not compatible") as exc:
        horizontal_part(vb, bad.form, bad.weight)
    assert pair in str(exc.value)
    with pytest.raises(VerificationError, match="not compatible"):
        limit_context(bad)


def test_closed_form_needs_the_form_of_the_bigrading():
    ctx = limit_context(hodge_tate_orbit(2, 1))
    with pytest.raises(ValueError, match="dimension"):
        horizontal_part(ctx.bigrading, hodge_tate_orbit(2, 2).form, 2)


# ---------------------------------------------------------------------------
# the solve contract
# ---------------------------------------------------------------------------

def test_operator_rows_list_each_rows_nonzeros():
    x = Mat([[0, 2, 0], [0, 0, 0], [GR(0, 1), 0, GR(-1, 2)]])
    flat = tuple(e for row in x.t for e in row)
    assert operator_rows(flat, 3) == [[(1, (2, 0, 1))], [],
                                      [(0, (0, 1, 1)), (2, (-1, 2, 1))]]
    assert operator_rows(flatten(Mat.zeros(2, 2)), 2) == [[], []]


def test_solve_with_no_conditions_keeps_the_space():
    space = isometry_algebra(make_form(4, 1, True, seed=3))
    assert solve_in_span(space, 4, lambda rows: ()) == space
    assert solve_in_span(space, 4, maps_into([], 4)) == space


def test_solve_drops_conditions_that_are_zero_on_every_operator():
    space = isometry_algebra(make_form(4, 1, True, seed=3))

    def entry(rows, i, j):
        return next((x for b, x in rows[i] if b == j), T_ZERO)

    def conditions(rows):
        return (T_ZERO, entry(rows, 0, 0), T_ZERO, T_ZERO,
                t_sub(entry(rows, 1, 2), entry(rows, 2, 1)), T_ZERO)

    got = solve_in_span(space, 4, conditions)
    equations = [[QQ_I.zero] * 16 for _ in range(2)]
    equations[0][0] = QQ_I.one
    equations[1][1 * 4 + 2], equations[1][2 * 4 + 1] = QQ_I.one, -QQ_I.one
    assert got == oracle(equations, 16, inside=space)
    assert 0 < got.dim < space.dim
    assert got == solve_in_span(space, 4,
                                lambda rows: conditions(rows)[1::3])


def test_solve_in_the_zero_space_is_zero():
    zero = Subspace.zero(9)
    assert solve_in_span(zero, 3, lambda rows: (rows[0][0][1],)) is zero


def test_operator_span_checks_the_operator_size():
    with pytest.raises(ValueError, match="length 4 in ambient dim 9"):
        operator_span([Mat([[1, 0], [0, 1]])], 3)
    span = operator_span([Mat([[1, 2], [0, 1]]), Mat([[2, 4], [0, 2]])], 2)
    assert span == Subspace.span([[1, 2, 0, 1]], 4)


# ---------------------------------------------------------------------------
# centralizers in coordinates: structure constants against Mat brackets
# ---------------------------------------------------------------------------

def search_orbits() -> dict[str, NilpotentOrbit]:
    """The 13 table-1 cones, each on its row, and small Hodge-Tate orbits."""
    orbits = {}
    for i, row in enumerate(table1_catalog()):
        o = row.orbit
        for j, cone in enumerate(row.cones):
            orbits[f"row{i}.cone{j}"] = NilpotentOrbit(
                o.weight, o.form, o.filtration, cone)
    for n in range(2, 6):
        orbits[f"ht{n}"] = hodge_tate_orbit(2, n)
    return orbits


SEARCH_ORBITS = search_orbits()


@lru_cache(maxsize=None)
def z_base_coordinates(label: str) -> SpanCoordinates:
    """The search's z_base: the cone's centralizer in the horizontal part."""
    orbit = SEARCH_ORBITS[label]
    n = orbit.ambient
    hor = limit_context(orbit).horizontal
    gens = list(orbit.cone.generators)
    return SpanCoordinates(centralizer_in(hor, gens, n) if gens else hor, n)


def commutator(x: Mat, y: Mat) -> Mat:
    return x @ y - y @ x


def structure_constants(coords: SpanCoordinates) -> dict:
    """The nonzero c_ab[k], keyed (a, b, k), read off ``_flat[b]``, which
    lists the entries (a * D + k, c_ab[k]) of the constants that x_b
    contributes to the bracket with x."""
    r = coords.rank
    out = {}
    for b, flat in enumerate(coords._flat):
        for i, c in flat:
            assert (i // r, b, i % r) not in out
            if c != T_ZERO:
                out[i // r, b, i % r] = c
    return out


@pytest.mark.parametrize("label", sorted(SEARCH_ORBITS))
def test_structure_constants_expand_every_bracket(label):
    coords = z_base_coordinates(label)
    n = SEARCH_ORBITS[label].ambient
    zs = span_basis_mats(coords.space, n)
    brackets = {(a, b): flatten(za @ zb - zb @ za)
                for a, za in enumerate(zs) for b, zb in enumerate(zs)}
    span = Subspace.from_triples(list(brackets.values()), n * n)
    assert coords.rank == span.dim
    constants = {key: GR.from_triple(c)
                 for key, c in structure_constants(coords).items()}
    for (a, b), bracket in brackets.items():
        expansion = [GR(0)] * (n * n)
        for k, basis in enumerate(span.rows):
            c = constants.get((a, b, k))
            if c is not None:
                for i, e in enumerate(basis):
                    expansion[i] += c * GR.from_triple(e)
        assert tuple(e.triple for e in expansion) == bracket, (a, b)


def sparse_operator(rng, n: int) -> Mat:
    """An n x n operator with at most n nonzeros, some of them complex."""
    entries = [[0] * n for _ in range(n)]
    for _ in range(n):
        entries[rng.randrange(n)][rng.randrange(n)] = GR(
            rational(rng), rng.choice((0, 0, 1, -1)))
    return Mat(entries)


def check_structure_constants(coords: SpanCoordinates, n: int):
    """c_ab[k] is [z_a, z_b] at the k-th pivot column of the canonical
    basis B of the flattened brackets, and sum_k c_ab[k] B_k rebuilds it."""
    zs = span_basis_mats(coords.space, n)
    brackets = {(a, b): flatten(commutator(za, zb))
                for a, za in enumerate(zs) for b, zb in enumerate(zs)
                if a != b}
    span = Subspace.from_triples(list(brackets.values()), n * n)
    assert coords.rank == span.dim
    got = structure_constants(coords)
    assert got == {(a, b, k): bracket[q]
                   for (a, b), bracket in brackets.items()
                   for k, q in enumerate(span.pivots)
                   if bracket[q] != T_ZERO}
    for (a, b), bracket in brackets.items():
        c = tuple(got.get((a, b, k), T_ZERO) for k in range(span.dim))
        rebuilt = (t_matmul((c,), span.rows)[0] if span.dim
                   else (T_ZERO,) * (n * n))
        assert rebuilt == bracket, (a, b)


@pytest.mark.parametrize("label", sorted(SEARCH_ORBITS))
def test_structure_constants_sit_at_the_brackets_pivot_columns(label):
    check_structure_constants(z_base_coordinates(label),
                              SEARCH_ORBITS[label].ambient)


@pytest.mark.parametrize("seed", range(8))
def test_structure_constants_of_random_sparse_operator_spaces(seed):
    rng = random.Random(seed)
    n = 3 + seed % 3
    space = operator_span([sparse_operator(rng, n)
                           for _ in range(2 + seed % 4)], n)
    check_structure_constants(SpanCoordinates(space, n), n)


def check_bracket(x: Mat, y: Mat, n: int):
    """The bracket from the rows is the commutator's nonzeros."""
    expected = {i * n + j: e for i, row in enumerate(
        operator_rows(flatten(commutator(x, y)), n)) for j, e in row}
    assert _bracket(operator_rows(flatten(x), n),
                    operator_rows(flatten(y), n), n) == expected


@pytest.mark.parametrize("seed", range(8))
def test_bracket_from_nonzeros_matches_the_commutator(seed):
    rng = random.Random(seed)
    n = 2 + seed % 4
    x, y = sparse_operator(rng, n), sparse_operator(rng, n)
    check_bracket(x, y, n)
    check_bracket(x, x @ y, n)  # shares rows and columns with x


@pytest.mark.parametrize("label", ["ht3", "row0.cone0", "row3.cone1"])
def test_bracket_from_nonzeros_on_a_z_base(label):
    n = SEARCH_ORBITS[label].ambient
    zs = span_basis_mats(z_base_coordinates(label).space, n)
    for x in zs:
        for y in zs:
            check_bracket(x, y, n)


COORDINATE_POOL = (T_ZERO, T_ZERO, (1, 0, 1), (-1, 0, 1), (0, 1, 1),
                   (1, 0, 2))


def check_against_flattened(label: str, z: Subspace, x):
    """The coordinate centralizer lifts to the flattened one, pivots too."""
    coords = z_base_coordinates(label)
    space = coords.space
    n = SEARCH_ORBITS[label].ambient
    lifted_x = t_matmul((x,), space.rows)[0]
    assert tuple(lifted_x[p] for p in space.pivots) == tuple(x)
    got = coords.centralizer(z, x)
    assert got.ambient == space.dim
    assert centralizer_in(z, [x], coords) == got
    lifted = space.lift(got)
    expected = centralizer_in(space.lift(z), [as_mat(lifted_x, n)], n)
    assert (lifted.rows, lifted.pivots) == (expected.rows, expected.pivots)
    return got


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_centralizer_in_coordinates_lifts_to_the_flattened_one(data):
    label = data.draw(st.sampled_from(sorted(SEARCH_ORBITS)))
    m = z_base_coordinates(label).space.dim
    vector = st.tuples(*[st.sampled_from(COORDINATE_POOL)] * m)
    x = data.draw(vector)
    gens = data.draw(st.lists(vector, max_size=3))
    z = Subspace.from_triples(gens, m) if gens else Subspace.full(m)
    check_against_flattened(label, z, x)


@pytest.mark.parametrize("label", ["row2.cone2", "row4.cone2", "row5.cone2"])
def test_centralizer_in_coordinates_with_no_brackets(label):
    coords = z_base_coordinates(label)  # a rank-3 cone: z_base is abelian
    assert coords.rank == 0 and coords.space.dim == 3
    full = Subspace.full(coords.space.dim)
    for x in ((T_ZERO, (1, 0, 1), (0, 1, 1)), full.rows[0]):
        assert check_against_flattened(label, full, x) == full


def test_centralizer_in_coordinates_can_be_zero():
    label = "ht3"
    coords = z_base_coordinates(label)
    # the first pair with [z_a, z_b] != 0
    b, a = min((b, a) for a, b, _ in structure_constants(coords))
    unit = Subspace.full(coords.space.dim).rows
    z = Subspace.from_triples([unit[a]], coords.space.dim)
    assert check_against_flattened(label, z, unit[b]).is_zero()


@pytest.mark.parametrize("label", ["ht3", "row2.cone2"])
def test_centralizer_in_coordinates_with_vanishing_conditions(label):
    # every condition is zero: the space comes back as it is
    coords = z_base_coordinates(label)
    m = coords.space.dim
    last = Subspace.full(m).rows[-1]
    for z, x in ((Subspace.full(m), (T_ZERO,) * m),
                 (Subspace.from_triples([last], m), last)):
        assert coords.centralizer(z, x) is z
        assert check_against_flattened(label, z, x) == z


# ---------------------------------------------------------------------------
# commutation tested by comparing products
# ---------------------------------------------------------------------------

def first_noncommuting_pair(mats):
    """The dense oracle: the first pair whose commutator has a nonzero."""
    pairs = [(i, j) for i in range(len(mats))
             for j in range(i + 1, len(mats))
             if not commutator(mats[i], mats[j]).is_zero()]
    return pairs[0] if pairs else None


def stock_commuting_sets():
    ivis = [build_max_ivi_k2(h20, h11)
            for h20 in range(1, 5) for h11 in range(1, 7)]
    ivis += [row.witness for row in table1_catalog()]
    ivis += [symmetric_family_ivi(d) for d in (1, 2, 3)]
    sets = [list(ivi.family) for ivi in ivis]
    sets += [list(ivi.orbit.cone.generators) for ivi in ivis]
    sets += [list(cone.generators) for row in table1_catalog()
             for cone in row.cones]
    sets += [list(diagonal_cone_orbit(d).cone.generators) for d in (1, 2, 3)]
    sets += [list(hodge_tate_orbit(k, n).cone.generators)
             for k in (1, 2, 3) for n in (1, 2, 3)]
    return sets


def test_noncommuting_pair_returns_the_first_pair_in_order():
    e12 = Mat([[0, 1, 0], [0, 0, 0], [0, 0, 0]])
    e23 = Mat([[0, 0, 0], [0, 0, 1], [0, 0, 0]])
    diag = Mat([[1, 0, 0], [0, 2, 0], [0, 0, 3]])
    one = Mat.identity(3)
    # every (0, j) commutes; (1, 2), (1, 3) and (2, 3) do not
    assert noncommuting_pair([one, diag, e12, e23]) == (1, 2)
    assert noncommuting_pair([one, e12, e12 * GR(5), e23]) == (1, 3)
    assert noncommuting_pair([e12, e12, one]) is None
    assert noncommuting_pair([]) is None and noncommuting_pair([e23]) is None


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.lists(st.lists(st.sampled_from([0, 0, 0, 1, -1, GR(0, 1)]),
                         min_size=4, max_size=4), min_size=4, max_size=16))
def test_noncommuting_pair_matches_the_dense_commutator(entries):
    mats = [Mat([entries[k][:2], entries[k][2:]])
            for k in range(len(entries))]
    assert noncommuting_pair(mats) == first_noncommuting_pair(mats)


def test_every_stock_family_and_cone_commutes():
    for mats in stock_commuting_sets():
        assert noncommuting_pair(mats) is None
        assert first_noncommuting_pair(mats) is None
        assert pairwise_commuting(mats)


def test_noncommuting_pair_finds_a_one_entry_mutant():
    family = list(symmetric_family_ivi(2).family)
    n = family[0].nrows
    found = 0
    for k in (0, len(family) - 1):
        for i in range(n):
            for j in range(n):
                rows = [list(r) for r in family[k].t]
                a, b, d = rows[i][j]
                rows[i][j] = (a + d, b, d)
                mutant = family[:k] + [Mat(rows)] + family[k + 1:]
                pair = noncommuting_pair(mutant)
                assert pair == first_noncommuting_pair(mutant)
                found += pair is not None
    assert found > 0


@pytest.mark.parametrize("shapes", [((2, 2), (3, 3)), ((2, 3), (3, 2)),
                                    ((2, 3), (2, 3))])
def test_noncommuting_pair_refuses_mismatched_shapes(shapes):
    mats = [Mat.zeros(*shape) for shape in shapes]
    with pytest.raises(ValueError):
        noncommuting_pair(mats)
    with pytest.raises(ValueError):
        first_noncommuting_pair(mats)
