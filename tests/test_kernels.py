"""The exact kernels: row reduction and matrix product on scalar triples.

Known values and structural properties, plus differential checks against
sympy's ``DomainMatrix`` over Q(i) on sparse matrices, which is the shape
the operator-space solves feed the kernels: ``t_rref``, the elimination
methods of ``Mat`` built on it, the triple-level Gram of ``BilForm``, and
the images ``Subspace.map_by`` and ``Quotient.induced_matrix``.  The
kernel's one-elimination basis is checked to be canonical as it comes.  The
one-accumulator product and the one-elimination intersection are also
checked against the loops they replaced, kept here as oracles, and the two
operator kernels of the orbit layer against plain algebra: the bounded
power ladder ``Mat.ladder`` against ``Mat.pow`` and the one-product linear
combination ``combine`` against the sum of scaled matrices.
"""
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st
from sympy import QQ, QQ_I
from sympy.polys.matrices import DomainMatrix

from hodgelim.forms import BilForm
from hodgelim.matrices import Mat, combine, t_kernel, t_matmul, t_rref
from hodgelim.scalars import GR, I, t_add, t_mul, t_neg, t_norm
from hodgelim.subspaces import Quotient, Subspace, kernel

ZERO = (0, 0, 1)


def random_tmat(rng, m, n, span=9):
    return tuple(
        tuple(t_norm(rng.randint(-span, span), rng.randint(-span, span),
                     rng.randint(1, 4))
              for _ in range(n))
        for _ in range(m)
    )


@st.composite
def sparse_tmats(draw, ncols=None, nrows=None):
    """Gaussian-rational triple-matrices up to 7x8, mostly zeros."""
    m = nrows if nrows is not None else draw(st.integers(1, 7))
    n = ncols if ncols is not None else draw(st.integers(1, 8))
    if not m:
        return ()
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


def to_dm(tm, ncols=None):
    n = len(tm[0]) if tm else ncols
    return DomainMatrix([[to_gi(e) for e in r] for r in tm], (len(tm), n),
                        QQ_I)


def from_dm(dm):
    return tuple(tuple(from_gi(e) for e in r) for r in dm.to_list())


def sympy_rref(tm):
    red, pivots = to_dm(tm).rref()
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


@st.composite
def square_tmats(draw):
    """Sparse square matrices plus a multiple of I, with permuted rows."""
    n = draw(st.integers(1, 6))
    tm = draw(sparse_tmats(n, n))
    c = draw(st.sampled_from([ZERO, (1, 0, 1), (-2, 1, 1), (0, 3, 2)]))
    perm = draw(st.permutations(range(n)))
    return tuple(tuple(t_add(e, c) if i == j else e
                       for j, e in enumerate(tm[i])) for i in perm)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(sparse_tmats())
def test_kernel_against_sympy_oracle(tm):
    n = len(tm[0])
    ours = Mat.from_triples(tm).kernel()
    theirs = from_dm(to_dm(tm).nullspace())
    assert len(ours) == n - to_dm(tm).rank()
    assert (Subspace.span(ours, n)
            == Subspace.from_triples([r for r in theirs if any(
                e != ZERO for e in r)], n))


def assert_canonical_kernel(tm, n):
    """t_kernel's basis is already the canonical basis of its own span."""
    basis = t_kernel(tm, n)
    span = Subspace.from_triples(basis, n)
    assert tuple(basis) == span.rows
    assert [v.index((1, 0, 1)) for v in basis] == list(span.pivots)
    assert kernel(Mat.from_triples(tm, n)) == span
    for row in tm:
        for v in basis:
            acc = ZERO
            for e, x in zip(row, v):
                acc = t_add(acc, t_mul(e, x))
            assert acc == ZERO
    return basis


@settings(max_examples=120, deadline=None, derandomize=True)
@given(sparse_tmats())
def test_kernel_comes_out_canonical(tm):
    assert_canonical_kernel(tm, len(tm[0]))


def test_kernel_of_dense_matrices_comes_out_canonical():
    rng = random.Random("kernel-canonical")
    for _ in range(40):
        m, n = rng.randint(1, 6), rng.randint(1, 7)
        assert_canonical_kernel(random_tmat(rng, m, n, span=4), n)


def test_kernel_edge_cases():
    one, two = (1, 0, 1), (2, 0, 1)
    eye = tuple(tuple(one if i == j else ZERO for j in range(4))
                for i in range(4))
    # no condition rows: the identity basis
    assert assert_canonical_kernel((), 4) == list(eye)
    # all-zero rows say nothing
    assert assert_canonical_kernel(((ZERO,) * 4,) * 3, 4) == list(eye)
    # full column rank: no kernel
    assert assert_canonical_kernel(eye + ((one, two, ZERO, one),), 4) == []
    assert assert_canonical_kernel((), 0) == []
    # x0 + 2 x1 = 0 and x2 = x3: the free columns are 0 and 2
    assert assert_canonical_kernel(
        ((one, two, ZERO, ZERO), (ZERO, ZERO, one, (-1, 0, 1))), 4) == [
        (one, (-1, 0, 2), ZERO, ZERO), (ZERO, ZERO, one, one)]


@settings(max_examples=80, deadline=None, derandomize=True)
@given(square_tmats())
def test_inverse_and_det_against_sympy_oracle(tm):
    dm = to_dm(tm)
    det = dm.det()
    m = Mat.from_triples(tm)
    assert m.det().triple == from_gi(det)
    if det == QQ_I.zero:
        with pytest.raises(ZeroDivisionError):
            m.inverse()
    else:
        assert m.inverse().t == from_dm(dm.inv())


@settings(max_examples=80, deadline=None, derandomize=True)
@given(sparse_tmats().flatmap(lambda tm: st.tuples(
    st.just(tm), sparse_tmats(len(tm[0]), 1), sparse_tmats(len(tm), 1),
    st.booleans())))
def test_solve_against_sympy_oracle(case):
    """Consistent right sides are images A x0; the others are drawn freely."""
    tm, (x0,), (free,), consistent = case
    a = to_dm(tm)
    b = t_matmul(tm, tuple((e,) for e in x0)) if consistent else tuple(
        (e,) for e in free)
    bdm = to_dm(b)
    x = Mat.from_triples(tm).solve([r[0] for r in b])
    if a.rank() < a.hstack(bdm).rank():
        assert x is None
        return
    assert x is not None
    xdm = to_dm(tuple((e.triple,) for e in x))
    assert a * xdm == bdm
    _, pivots = a.rref()
    assert all(x[j].triple == ZERO for j in range(len(x)) if j not in pivots)


@st.composite
def form_and_rows(draw):
    """A form of either parity and left/right rows, possibly none.

    The form is a sparse perturbation of a diagonal (even parity) or of the
    standard symplectic matrix (odd parity), so it is usually nondegenerate.
    """
    parity = draw(st.integers(0, 1))
    n = draw(st.integers(1, 3)) * 2 if parity else draw(st.integers(1, 5))
    upper = draw(sparse_tmats(n, n))
    diag = draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))
    top = [[upper[i][j] if i < j else ZERO for j in range(n)]
           for i in range(n)]
    for i in range(n):
        if not parity:
            top[i][i] = (diag[i], 0, 1)
        elif i % 2 == 0:
            top[i][i + 1] = t_add(top[i][i + 1], (1, 0, 1))
    m = tuple(tuple(top[i][j] if i <= j else
                    (t_neg(top[j][i]) if parity else top[j][i])
                    for j in range(n))
              for i in range(n))
    left = draw(sparse_tmats(n, draw(st.integers(0, 4))))
    right = draw(sparse_tmats(n, draw(st.integers(0, 4))))
    return parity, m, left, right


@settings(max_examples=80, deadline=None, derandomize=True)
@given(form_and_rows())
def test_gram_rows_against_sympy_product(case):
    parity, m, left, right = case
    mat = Mat.from_triples(m)
    n = len(m)
    assume(mat.rank() == n)
    g = BilForm(mat, parity).gram_rows(left, right)
    assert g.shape == (len(left), len(right))
    want = to_dm(left, n) * to_dm(m) * to_dm(right, n).transpose()
    assert g.t == from_dm(want)


@st.composite
def subspace_and_operator(draw):
    """A subspace of C^n (possibly zero) and a p x n operator, p >= 0."""
    n = draw(st.integers(1, 6))
    rows = draw(sparse_tmats(n, draw(st.integers(0, 4))))
    p = draw(st.integers(0, 5))
    op = draw(sparse_tmats(n, p))
    return Subspace.from_triples(rows, n), Mat.from_triples(op, n)


def sympy_span(rows, ambient):
    """Canonical rows and pivots of the span of rows, by sympy."""
    if not rows or not ambient:
        return (), ()
    red, pivots = to_dm(rows).rref()
    return (tuple(tuple(from_gi(e) for e in r)
                  for r in red.to_list()[:len(pivots)]), tuple(pivots))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(subspace_and_operator())
def test_map_by_against_sympy_oracle(case):
    sub, op = case
    image = sub.map_by(op)
    assert image.ambient == op.nrows
    want = ()
    if sub.rows and op.nrows:
        want = from_dm(to_dm(sub.rows) * to_dm(op.t, sub.ambient).transpose())
    assert (image.rows, image.pivots) == sympy_span(want, op.nrows)


def test_map_by_keeps_empty_shapes():
    for n in (1, 3):
        zero_rows = Mat.from_triples((), n)  # an operator C^n -> C^0
        assert zero_rows.shape == (0, n)
        image = Subspace.full(n).map_by(zero_rows)
        assert image.ambient == 0 and image.is_zero()
        assert Subspace.zero(n).map_by(Mat.identity(n)) == Subspace.zero(n)


@st.composite
def quotient_pairs(draw):
    """Quotients sup/sub of C^n and sup'/sub' of C^p with op a p x n
    operator carrying sup into sup' and sub into sub'."""
    sup, op = draw(subspace_and_operator())
    n, p = sup.ambient, op.nrows
    # sub: the span of combinations of sup's rows
    combos = draw(sparse_tmats(n, draw(st.integers(0, 3))))
    sub = Subspace.from_triples(
        t_matmul(tuple(r[:sup.dim] for r in combos), sup.rows)
        if combos and sup.dim else (), n)
    # the target holds op(sup) over op(sub), with extra room in both
    more = [Subspace.from_triples(draw(sparse_tmats(p, 1)), p)
            if p else Subspace.zero(0) for _ in range(2)]
    dst_sub = sub.map_by(op) + more[0]
    return (Quotient(sub, sup), op,
            Quotient(dst_sub, sup.map_by(op) + dst_sub + more[1]))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(quotient_pairs())
def test_induced_matrix_against_sympy_oracle(case):
    """A = induced_matrix(op) is the unique matrix with
    op C^T - C'^T A in sub' column by column, C and C' the complement
    bases of the source and target quotients."""
    src, op, dst = case
    a = src.induced_matrix(op, dst)
    assert a.shape == (dst.dim, src.dim)
    if not src.dim or not op.nrows:
        assert a.is_zero()
        return
    lhs = to_dm(op.t) * to_dm(src.complement.rows).transpose()
    if dst.dim:
        lhs = lhs - to_dm(dst.complement.rows).transpose() * to_dm(a.t)
    if dst.sub.is_zero():
        assert lhs.is_zero_matrix
    else:
        sub_cols = to_dm(dst.sub.rows).transpose()
        assert sub_cols.rank() == sub_cols.hstack(lhs).rank()


# ---------------------------------------------------------------------------
# the one-accumulator product against the loop it replaced
# ---------------------------------------------------------------------------

def loop_matmul(a, b):
    """The product with one t_add(acc, t_mul(f, e)) per term."""
    m = len(b[0]) if b else 0
    out = []
    for arow in a:
        orow = [ZERO] * m
        for f, brow in zip(arow, b):
            if f[0] or f[1]:
                for j, e in enumerate(brow):
                    if e[0] or e[1]:
                        orow[j] = t_add(orow[j], t_mul(f, e))
        out.append(tuple(orow))
    return tuple(out)


SCALAR_POOL = [ZERO, ZERO, (1, 0, 1), (-1, 0, 1), (1, 0, 2), (-2, 0, 3),
               (0, 1, 1), (3, -1, 4), (-5, 2, 6), (7, 0, 5), (1, 1, 3)]


@st.composite
def products_with_cancellations(draw):
    """(a, b) where b's last row is -c times its first and some rows of a
    carry c and 1 there, so those output entries cancel to exactly 0."""
    k = draw(st.integers(2, 5))
    n = draw(st.integers(1, 5))
    m = draw(st.integers(1, 6))
    entry = st.sampled_from(SCALAR_POOL)
    c = draw(st.sampled_from([e for e in SCALAR_POOL if e != ZERO]))
    b = [list(draw(st.lists(entry, min_size=m, max_size=m)))
         for _ in range(k)]
    b[-1] = [t_neg(t_mul(c, e)) for e in b[0]]
    a, cancels = [], []
    for _ in range(n):
        row = draw(st.lists(entry, min_size=k, max_size=k))
        cancels.append(draw(st.booleans()))
        if cancels[-1]:
            row = [c] + [ZERO] * (k - 2) + [(1, 0, 1)]
        a.append(tuple(row))
    return tuple(a), tuple(tuple(r) for r in b), cancels


@settings(max_examples=120, deadline=None, derandomize=True)
@given(products_with_cancellations())
def test_matmul_and_matvec_against_the_loop_and_sympy(case):
    a, b, cancels = case
    got = t_matmul(a, b)
    assert got == loop_matmul(a, b)
    assert got == from_dm(to_dm(a) * to_dm(b))
    for cancel, orow in zip(cancels, got):
        if cancel:
            assert all(e == (0, 0, 1) for e in orow)
    for col in zip(*b):
        column = tuple((e,) for e in col)
        assert t_matmul(a, column) == loop_matmul(a, column)


def test_matmul_cancels_to_the_zero_triple():
    half, third = (1, 1, 2), (-1, 0, 3)
    a = ((half, (1, 0, 1), third),)
    b = (((2, 0, 5),), ((-1, -1, 5),), ((0, 0, 1),))
    # (1+i)/2 * 2/5 - (1+i)/5 = 0 over different denominators
    assert t_matmul(a, b) == (((0, 0, 1),),)
    assert t_matmul(a, (((2, 0, 5),), ((-1, -1, 5),), ((7, 0, 1),))) == \
        ((t_mul(third, (7, 0, 1)),),)


# ---------------------------------------------------------------------------
# the one-elimination intersection against the stacked kernel
# ---------------------------------------------------------------------------

def stacked_kernel_meet(sa, sb):
    """The intersection by the n x (a + b) stacked kernel, a product and a
    second RREF: the method the Zassenhaus intersection replaced."""
    n = sa.ambient
    if sa.is_zero() or sb.is_zero():
        return Subspace.zero(n)
    a, b = sa.rows, sb.rows
    stacked = tuple(tuple(r[i] for r in a) + tuple(t_neg(r[i]) for r in b)
                    for i in range(n))
    combos = t_kernel(stacked, len(a) + len(b))
    return Subspace.from_triples(
        loop_matmul(tuple(c[:len(a)] for c in combos), a), n)


def sympy_meet(sa, sb):
    """Canonical rows and pivots of the intersection, by sympy over QQ_I."""
    n = sa.ambient
    if sa.is_zero() or sb.is_zero():
        return (), ()
    stacked = to_dm(sa.rows).transpose().hstack(
        -to_dm(sb.rows).transpose())
    null = stacked.nullspace()
    if not null.shape[0]:
        return (), ()
    combos = from_dm(null)
    vecs = from_dm(to_dm(tuple(c[:sa.dim] for c in combos))
                   * to_dm(sa.rows))
    return sympy_span(vecs, n)


def assert_meets_agree(sa, sb):
    want = stacked_kernel_meet(sa, sb)
    for got in (sa & sb, sb & sa):
        assert (got.rows, got.pivots) == (want.rows, want.pivots)
    assert (want.rows, want.pivots) == sympy_meet(sa, sb)


@st.composite
def subspace_pairs(draw):
    """Pairs of subspaces of C^n: independent draws, or zero, full,
    nested, equal (another spanning set) and transversal partners."""
    n = draw(st.integers(1, 8))
    sa = Subspace.from_triples(draw(sparse_tmats(n)), n)
    kind = draw(st.sampled_from(
        ["free", "zero", "full", "nested", "equal", "transversal"]))
    if kind == "free":
        sb = Subspace.from_triples(draw(sparse_tmats(n)), n)
    elif kind == "zero":
        sb = Subspace.zero(n)
    elif kind == "full":
        sb = Subspace.full(n)
    elif kind == "nested":
        sb = Subspace.from_triples(sa.rows + draw(sparse_tmats(n)), n)
    elif kind == "equal":
        mix = [tuple(t_add(x, y) for x, y in zip(r, sa.rows[0]))
               for r in sa.rows[1:]]
        sb = Subspace.from_triples(list(sa.rows[:1]) + mix, n)
        assert sb == sa
    else:
        unit = Subspace.full(n).rows
        sb = Subspace.from_triples(
            [unit[j] for j in range(n) if j not in sa.pivots], n)
    return sa, sb


@settings(max_examples=150, deadline=None, derandomize=True)
@given(subspace_pairs())
def test_intersection_against_the_stacked_kernel_and_sympy(pair):
    assert_meets_agree(*pair)


def test_intersection_in_dense_bases():
    rng = random.Random("meet-dense")
    for _ in range(25):
        n = rng.randint(2, 7)
        g = random_tmat(rng, n, n, span=3)
        common = random_tmat(rng, rng.randint(0, 2), n)
        a = common + random_tmat(rng, rng.randint(0, n - 1), n)
        b = common + random_tmat(rng, rng.randint(0, n - 1), n)
        sa = Subspace.from_triples(t_matmul(a, g) if a else (), n)
        sb = Subspace.from_triples(t_matmul(b, g) if b else (), n)
        assert_meets_agree(sa, sb)


# ---------------------------------------------------------------------------
# the operator kernels of the orbit layer
# ---------------------------------------------------------------------------

SMALL = st.sampled_from([0, 0, 0, 1, -1, 2, Fraction(1, 2), -Fraction(2, 3),
                         I, GR(1, -1)])


@st.composite
def powered_mats(draw):
    """Square matrices up to 5x5: a strictly upper triangular one moved by
    a random basis (nilpotent of any order), or one with no pattern."""
    m = draw(st.integers(1, 5))
    if not draw(st.booleans()):
        return Mat([[draw(SMALL) for _ in range(m)] for _ in range(m)])
    u = Mat([[draw(SMALL) if j > i else 0 for j in range(m)]
             for i in range(m)])
    # unit lower times unit upper triangular: invertible for any entries
    lower = Mat([[draw(SMALL) if j < i else int(i == j) for j in range(m)]
                 for i in range(m)])
    upper = Mat([[draw(SMALL) if j > i else int(i == j) for j in range(m)]
                 for i in range(m)])
    g = lower @ upper
    return g @ u @ g.inverse()


@settings(max_examples=80, deadline=None, derandomize=True)
@given(powered_mats())
def test_ladder_against_mat_pow(n):
    m = n.nrows
    oracle = [n.pow(j) for j in range(2 * m + 2)]
    ladder = n.ladder()
    assert list(ladder) == oracle[:len(ladder)]
    # it stops at its first zero power, or at N^m
    assert not any(p.is_zero() for p in ladder[:-1])
    assert ladder[-1].is_zero() or len(ladder) == m + 1
    for k in range(1, 2 * m + 2):
        assert n.pow_is_zero(k) == oracle[k].is_zero(), k
    # the climbed powers are kept, not climbed again
    assert all(a is b for a, b in zip(n.ladder()[1:], ladder[1:]))


def test_ladder_refuses_a_non_square_matrix():
    for n in (Mat([[0, 1]]), Mat.zeros(3, 0)):
        with pytest.raises(ValueError):
            n.ladder()
        with pytest.raises(ValueError):
            n.pow_is_zero(2)
    # on C^0, I = 0 already
    assert Mat.zeros(0, 0).ladder() == (Mat.identity(0),)
    assert Mat.zeros(0, 0).pow_is_zero(0)


@st.composite
def combinations(draw):
    """Gaussian-rational coefficients and matrices of one shape, square or
    not, with zero and unit coefficients among them."""
    nrows, ncols = draw(st.sampled_from(
        [(1, 1), (2, 2), (3, 3), (4, 4), (2, 3), (3, 1), (1, 4), (0, 2)]))
    k = draw(st.integers(1, 5))
    mats = [Mat.from_triples(draw(sparse_tmats(ncols, nrows)), ncols)
            for _ in range(k)]
    gaussian = st.builds(
        lambda a, b, d: GR(Fraction(a, d), Fraction(b, d)),
        st.integers(-7, 7), st.integers(-7, 7), st.integers(1, 5))
    coefficients = draw(st.lists(st.one_of(st.sampled_from([0, 1, -1]),
                                           gaussian), min_size=k, max_size=k))
    return coefficients, mats


@settings(max_examples=120, deadline=None, derandomize=True)
@given(combinations())
def test_combine_against_the_sum_of_scaled_matrices(case):
    coefficients, mats = case
    got = combine(coefficients, mats)
    expected = Mat.zeros(*mats[0].shape)
    for a, c in zip(mats, coefficients):
        expected = expected + a * c
    assert got == expected and got.shape == mats[0].shape
    assert all(isinstance(row, tuple) for row in got.t)


def test_combine_refuses_mismatched_input():
    a, row = Mat([[0, 1], [0, 0]]), Mat([[0, 1]])
    for coefficients, mats in [([], []), ([1], [a, a]), ([1, 2], [a]),
                               ([1, 1], [a, row])]:
        with pytest.raises(ValueError):
            combine(coefficients, mats)
