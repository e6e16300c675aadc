import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hodgelim import GR, I, Mat, Subspace, Quotient, kernel
from hodgelim.errors import VerificationError
from hodgelim.matrices import t_conj_mat, t_matmul
from hodgelim.subspaces import direct_sum_equals


def random_subspace(rng, n, max_vecs=None):
    k = rng.randint(0, max_vecs if max_vecs is not None else n)
    vecs = [[rng.randint(-5, 5) + rng.randint(-2, 2) * GR(0, 1)
             for _ in range(n)] for _ in range(k)]
    return Subspace.span(vecs, n)


def vectors(s):
    """The canonical basis of s as Gaussian-rational vectors."""
    return [tuple(GR.from_triple(e) for e in r) for r in s.rows]


def triples(v):
    return tuple(GR(x).triple for x in v)


def lift(q, coords):
    """The vector of q's complement with the given quotient coordinates."""
    return t_matmul((triples(coords),), q.complement.rows)[0]


def test_canonical_equality():
    a = Subspace.span([[1, 1, 0], [0, 1, 1]], 3)
    b = Subspace.span([[1, 2, 1], [2, 3, 1], [1, 0, -1]], 3)
    assert a == b
    assert hash(a) == hash(b)
    assert a.dim == 2


def test_zero_and_full():
    z = Subspace.zero(3)
    f = Subspace.full(3)
    assert z.dim == 0 and f.dim == 3
    assert z <= f
    assert (z + f) == f
    assert (z & f) == z
    assert Subspace.span([], 3) == z
    assert Subspace.span([[0, 0, 0]], 3) == z


def test_membership_and_coords():
    # membership is inclusion of a line; coordinates in the canonical
    # basis are those of the quotient by zero
    s = Subspace.span([[1, 0, 2], [0, 1, 3]], 3)
    assert Subspace.span([[2, 1, 7]], 3) <= s
    assert not Subspace.span([[0, 0, 1]], 3) <= s
    coords = Quotient(Subspace.zero(3), s)
    assert coords.project_triples(triples([2, 1, 7])) == triples([2, 1])
    with pytest.raises(ValueError):
        coords.project_triples(triples([0, 0, 1]))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32))
def test_dimension_formula(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 6)
    a = random_subspace(rng, n)
    b = random_subspace(rng, n)
    assert (a + b).dim + (a & b).dim == a.dim + b.dim
    assert (a & b) <= a and (a & b) <= b
    assert a <= (a + b) and b <= (a + b)


def test_intersection_example():
    a = Subspace.span([[1, 0, 0], [0, 1, 0]], 3)
    b = Subspace.span([[0, 1, 0], [0, 0, 1]], 3)
    assert (a & b) == Subspace.span([[0, 1, 0]], 3)


def lift_oracle(s, sub):
    """The span of the coordinate rows times s's rows, row-reduced."""
    return Subspace.from_triples(t_matmul(sub.rows, s.rows), s.ambient)


def test_lift_is_canonical_without_elimination():
    rng = random.Random("lift")
    spaces = [Subspace.zero(4), Subspace.full(4)]
    spaces += [random_subspace(rng, n) for n in (1, 3, 5, 7) for _ in range(4)]
    for s in spaces:
        m = s.dim
        subs = [Subspace.zero(m), Subspace.full(m)]
        subs += [random_subspace(rng, m) for _ in range(3)]
        for sub in subs:
            got, want = s.lift(sub), lift_oracle(s, sub)
            assert (got.rows, got.pivots) == (want.rows, want.pivots)
            assert got.ambient == s.ambient and got.dim == sub.dim
        assert s.lift(Subspace.full(m)) == s
        assert s.lift(Subspace.zero(m)).is_zero()


def test_lift_of_the_coordinates_of_a_nested_space():
    rng = random.Random("lift-nested")
    for _ in range(12):
        t = random_subspace(rng, 6)
        s = Subspace.from_triples(
            t_matmul(random_subspace(rng, t.dim).rows, t.rows), 6)
        assert s <= t
        coords = Subspace.from_triples(
            [tuple(r[p] for p in t.pivots) for r in s.rows], t.dim)
        lifted = t.lift(coords)
        assert (lifted.rows, lifted.pivots) == (s.rows, s.pivots)


def test_lift_rejects_coordinates_of_another_dimension():
    s = Subspace.span([[1, 0, 2], [0, 1, 3]], 3)
    with pytest.raises(ValueError, match="dimension 3 .* dimension 2"):
        s.lift(Subspace.full(3))
    with pytest.raises(ValueError):
        s.lift(Subspace.zero(1))


def test_complement():
    rng = random.Random("complement")
    for _ in range(20):
        n = rng.randint(1, 6)
        sup = random_subspace(rng, n)
        # pick a random subspace of sup
        k = rng.randint(0, sup.dim)
        basis = vectors(sup)
        sub_vecs = []
        for _ in range(k):
            coeffs = [GR(rng.randint(-3, 3)) for _ in basis]
            sub_vecs.append([sum((c * v[i] for c, v in zip(coeffs, basis)),
                             GR(0)) for i in range(n)])
        sub = Subspace.span(sub_vecs, n)
        comp = sub.complement_in(sup)
        assert comp.dim == sup.dim - sub.dim
        assert (comp + sub) == sup
        assert (comp & sub).dim == 0


def test_complement_requires_inclusion():
    # first space not inside, larger than, or of another ambient than the
    # second
    for first, second, match in (
            ([[1, 0]], [[0, 1]], "not inside"),
            ([[1, 0, 0], [0, 1, 0]], [[1, 0, 0]], "not inside"),
            ([[1, 1, 0]], [[1, 0, 0], [0, 0, 1]], "not inside"),
            ([[1, 0, 0], [0, 1, 0]], [[1, 0, 0], [0, 0, 1]], "not inside"),
            ([[1, 0]], [[1, 0, 0]], "ambient dimension mismatch")):
        a = Subspace.span(first, len(first[0]))
        b = Subspace.span(second, len(second[0]))
        with pytest.raises(ValueError, match=match):
            a.complement_in(b)


def test_conj_stable_spaces_have_real_bases():
    # the canonical basis of a conjugation-stable subspace is real
    rng = random.Random("conj-stable")
    for _ in range(20):
        n = rng.randint(1, 6)
        vecs = []
        for _ in range(rng.randint(0, n)):
            v = [GR(rng.randint(-4, 4), rng.randint(-4, 4)) for _ in range(n)]
            vecs.append(v)
            vecs.append([x.conj() for x in v])
        s = Subspace.span(vecs, n)
        assert s.is_conj_stable()
        assert all(e[1] == 0 for r in s.rows for e in r)
        assert s.conj() == s


def test_conj_keeps_the_canonical_rows():
    rng = random.Random("conj-canonical")
    for _ in range(30):
        s = random_subspace(rng, rng.randint(1, 6))
        c = s.conj()
        expected = Subspace.from_triples(t_conj_mat(s.rows), s.ambient)
        assert (c.rows, c.pivots) == (expected.rows, expected.pivots)


def test_not_conj_stable():
    s = Subspace.span([[1, I]], 2)
    assert not s.is_conj_stable()
    assert s.conj() == Subspace.span([[1, -I]], 2)


def test_direct_sum_equals():
    i = GR(0, 1)
    e1, e2, e3 = ([1, 0, 0],), ([0, 1, 0],), ([0, 0, 1],)
    full = Subspace.full(3)
    plane = Subspace.span([[1, i, 0], [0, 1, 1]], 3)
    # dependent parts whose sum is the total space
    assert not direct_sum_equals(
        [Subspace.span(e1 + e2, 3), Subspace.span(e2 + e3, 3)], full)
    # independent parts that span less than the total space
    assert not direct_sum_equals(
        [Subspace.span(e1, 3), Subspace.span([[0, 1, 1 + i]], 3)], full)
    assert direct_sum_equals([], Subspace.zero(3))
    assert not direct_sum_equals([], plane)
    assert direct_sum_equals([Subspace.span([[1, i, 0]], 3),
                              Subspace.span([[0, 1, 1]], 3)], plane)
    assert direct_sum_equals([Subspace.span(e1, 3), Subspace.zero(3),
                              Subspace.span([[1 + i, 1, 0], [0, 2, i]], 3)],
                             full)
    with pytest.raises(ValueError, match="ambient"):
        direct_sum_equals([Subspace.span(e1, 3)], Subspace.full(2))


def test_map_by_and_image_kernel():
    m = Mat([[1, 0, 1], [0, 1, 1]])
    s = Subspace.full(3)
    assert s.map_by(m) == Subspace.full(2)
    k = kernel(m)
    assert k.dim == 1
    assert Subspace.span([[1, 1, -1]], 3) <= k


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32))
def test_sends_into_says_what_the_image_says(seed):
    rng = random.Random(seed)
    n, k = rng.randint(1, 5), rng.randint(1, 5)
    s = random_subspace(rng, n)
    m = Mat([[rng.choice([0, 0, 1, -2, GR(1, 1)]) for _ in range(n)]
             for _ in range(k)])
    img = s.map_by(m)
    target = rng.choice([
        random_subspace(rng, k),
        img + random_subspace(rng, k, 1),
        Subspace.span(vectors(img)[1:], k),
        Subspace.span(vectors(img)[:-1] + [
            [rng.randint(-1, 1) for _ in range(k)]], k)])
    assert s.sends_into(m, target) == (img <= target)


def test_sends_into_checks_the_shapes():
    m = Mat([[1, 0, 1], [0, 1, 1]])
    with pytest.raises(ValueError, match="operator shape"):
        Subspace.full(2).sends_into(m, Subspace.full(2))
    with pytest.raises(ValueError, match="ambient"):
        Subspace.full(3).sends_into(m, Subspace.full(3))
    assert Subspace.full(3).sends_into(m, Subspace.full(2))
    assert not Subspace.full(3).sends_into(m, Subspace.span([[1, 1]], 2))
    assert Subspace.span([[1, 1, -1]], 3).sends_into(m, Subspace.zero(2))


def test_quotient_projection():
    sup = Subspace.full(3)
    sub = Subspace.span([[1, 1, 1]], 3)
    q = Quotient(sub, sup)
    assert q.dim == 2
    # lift then project is the identity on quotient coordinates
    rng = random.Random("quot")
    for _ in range(10):
        coords = [rng.randint(-4, 4) for _ in range(q.dim)]
        assert q.project_triples(lift(q, coords)) == triples(coords)
    # vectors differing by sub project equally
    assert (q.project_triples(triples([2, 1, 0]))
            == q.project_triples(triples([3, 2, 1])))


def test_quotient_induced_matrix():
    # N shifts e0 -> e1 -> e2 -> 0; induced on C^3/span(e2) in basis (e0, e1)
    n = Mat([[0, 0, 0], [1, 0, 0], [0, 1, 0]])
    sub = Subspace.span([[0, 0, 1]], 3)
    q = Quotient(sub, Subspace.full(3))
    ind = q.induced_matrix(n)
    # complement basis is (e0, e1) canonical; N e0 = e1, N e1 = 0 mod sub
    assert ind == Mat([[0, 0], [1, 0]])


def test_quotient_of_zero_sub():
    q = Quotient(Subspace.zero(2), Subspace.full(2))
    assert q.dim == 2
    assert q.project_triples(triples([3, 4])) == triples([3, 4])


def test_quotient_of_a_proper_complex_subspace():
    i = GR(0, 1)
    a, b, c = [1, i, 0, 2], [0, 1, 1 + i, 0], [2, 0, 1, -i]
    sup = Subspace.span([a, b, c], 4)
    sub = Subspace.span([[x + y for x, y in zip(a, b)]], 4)
    q = Quotient(sub, sup)
    assert sup.dim == 3 and q.dim == 2
    rng = random.Random("proper")
    for _ in range(10):
        coords = [rng.randint(-4, 4) + rng.randint(-3, 3) * i
                  for _ in range(q.dim)]
        v = lift(q, coords)
        assert Subspace.from_triples([v], 4) <= q.complement <= sup
        assert q.project_triples(v) == triples(coords)
        # moving by an element of sub does not change the coordinates
        s = [3 * i * (x + y) for x, y in zip(a, b)]
        w = triples(GR.from_triple(e) + x for e, x in zip(v, s))
        assert q.project_triples(w) == q.project_triples(v)
    with pytest.raises(ValueError, match="total space"):
        q.project_triples(triples([1, 0, 0, 0]))


def test_quotient_rejects_a_complement_meeting_the_pivots_of_sub(monkeypatch):
    # both reduction passes rely on the complement vanishing where sub has
    # its pivots; a complement that does not is refused at construction
    sub = Subspace.span([[1, 0, 0]], 3)
    monkeypatch.setattr(Subspace, "complement_in",
                        lambda self, sup: Subspace.span([[1, 1, 0]], 3))
    with pytest.raises(VerificationError):
        Quotient(sub, Subspace.full(3))
