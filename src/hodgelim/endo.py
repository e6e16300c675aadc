"""Spaces of linear operators, seen as subspaces of C^(n*n).

Operators are flattened row-major: ``vec(X)[i*n + j] = X[i][j]``.  This is
the coordinate convention of every serialized operator subspace in the
package.  An operator's sparse form is its rows, row i the list of its
nonzeros ``(j, X[i][j])``, as :func:`operator_rows` lists them; every
kernel here reads that one form.  The workhorse is :func:`solve_in_span` —
cut a span of operators by linear conditions.  A condition sees each basis
operator only in its sparse form, so its cost follows the sparsity of the
space rather than n².  Centralizers and the filtration-preserving parts of
an algebra are solves; the isometry algebra of a form has a closed form
and needs none.

:class:`SpanCoordinates` puts a subspace L of operators in its own
coordinates, with the structure constants of its brackets, so repeated
centralizers inside L cost conditions in the bracket span's dimension
rather than in n².
"""
from __future__ import annotations

from itertools import chain
from typing import Callable, Sequence

from .forms import BilForm
from .matrices import (Mat, TMat, TVec, _t_combine, t_hstack, t_matmul,
                       t_rref, t_zero_row)
from .scalars import T_ZERO, Triple, t_add, t_mul, t_neg, t_sub
from .subspaces import Subspace, kernel, t_reduce

Rows = list[list[tuple[int, Triple]]]


def flatten(m: Mat) -> TVec:
    return tuple(chain.from_iterable(m.t))


def as_mat(tv: TVec, n: int) -> Mat:
    """The n x n operator of a flattened vector of normalized triples."""
    return Mat.from_triples(tuple(tv[i * n:(i + 1) * n] for i in range(n)), n)


def row_nonzeros(row: TVec) -> list[tuple[int, Triple]]:
    """The entries (j, row[j]) of a row of triples that are not 0."""
    return [(j, e) for j, e in enumerate(row) if e[0] or e[1]]


def operator_rows(tv: TVec, n: int) -> Rows:
    """The sparse form of a flattened n x n operator X: row i as the list
    of its nonzeros (j, X[i][j]).  One pass over the n² entries, which
    are mostly zero, finds the nonzeros."""
    rows = [[] for _ in range(n)]
    for k, e in enumerate(tv):
        if e[0] or e[1]:
            rows[k // n].append((k % n, e))
    return rows


def operator_span(mats: Sequence[Mat], n: int) -> Subspace:
    """The span of the given operators inside flattened C^(n*n)."""
    vecs = [flatten(m) for m in mats]
    for v in vecs:
        if len(v) != n * n:
            raise ValueError(
                f"vector of length {len(v)} in ambient dim {n * n}")
    return Subspace.from_triples(vecs, n * n)


def span_basis_mats(space: Subspace, n: int) -> list[Mat]:
    """Canonical basis of a flattened operator subspace, as matrices."""
    return [as_mat(r, n) for r in space.rows]


def solve_in_span(space: Subspace, n: int,
                  conditions: Callable[[Rows], TVec]) -> Subspace:
    """Largest subspace of ``space`` on which all conditions vanish.

    ``conditions(rows)`` gets one canonical basis operator X of ``space``
    in its sparse form, ``rows[i]`` the list of the nonzeros ``(j, x)`` of
    row i with ``x = X[i][j]`` a triple, and returns one flat tuple of
    triples, linear in X and of the same length for every X.  The result
    {X in space : conditions(X) == 0} is the product of the kernel
    combinations with the basis, in flattened form.
    A condition that vanishes on every basis operator is dropped.
    """
    if space.is_zero():
        return space
    return _kernel_part(space, [conditions(operator_rows(r, n))
                                for r in space.rows])


def _kernel_part(space: Subspace, cols: TMat) -> Subspace:
    """{sum_i y_i r_i : sum_i y_i cols[i] = 0} for the canonical rows r_i
    of space, ``cols[i]`` being the conditions evaluated on r_i.

    Conditions that vanish on every r_i are dropped, and of equal ones
    the first is kept; when none is left, ``space`` itself is returned
    and nothing is eliminated.  Otherwise
    :func:`~hodgelim.subspaces.kernel` gives the canonical coordinates
    of the solutions from one elimination, and ``space.lift`` takes them
    back into ``space`` without another.
    """
    zero = t_zero_row(len(cols))  # a zero triple is normalized to T_ZERO
    cond = list(dict.fromkeys(row for row in zip(*cols) if row != zero))
    if not cond:
        return space
    return space.lift(kernel(Mat.from_triples(tuple(cond), space.dim)))


def maps_into(pairs: Sequence[tuple[TVec, Subspace]],
              n: int) -> Callable[[Rows], TVec]:
    """Conditions saying that X v lies in dst for every pair (v, dst).

    Each condition is the residual of X v against dst's canonical basis;
    pairs whose dst is the whole space say nothing and are dropped.
    """
    pairs = [(v, dst) for v, dst in pairs if not dst.is_full()]

    def conditions(rows: Rows) -> TVec:
        out = []
        for v, dst in pairs:
            xv = [T_ZERO] * n
            for i, row in enumerate(rows):
                for j, x in row:
                    e = v[j]
                    if e[0] or e[1]:
                        xv[i] = t_add(xv[i], t_mul(x, e))
            out.extend(t_reduce(xv, dst.rows, dst.pivots)[0])
        return tuple(out)

    return conditions


def isometry_algebra(q: BilForm) -> Subspace:
    """All X with X^T M + M X = 0, as a flattened subspace.

    Closed form: X = M^-1 S with S^T = -S when M is symmetric and S^T = S
    when M is antisymmetric (a BilForm is always one of the two).  The
    spanning operators are M^-1 (E_ij + s E_ji) for i < j, plus M^-1 E_ii
    when s = +1: column j of such an operator is column i of M^-1, and
    column i is s times column j of M^-1.
    """
    n = q.dim
    minv = q.matrix.inverse().t
    s_symmetric = q.parity == 1  # M antisymmetric
    vecs = []
    for i in range(n):
        for j in range(i if s_symmetric else i + 1, n):
            v = [T_ZERO] * (n * n)
            for r in range(n):
                v[r * n + j] = minv[r][i]
            if j != i:
                for r in range(n):
                    e = minv[r][j]
                    v[r * n + i] = e if s_symmetric else t_neg(e)
            vecs.append(tuple(v))
    return Subspace.from_triples(vecs, n * n)


def _bracket(x: Rows, y: Rows, n: int) -> dict[int, Triple]:
    """The nonzeros of [X, Y] = XY - YX, keyed by flattened position:
    X[i][j] adds X[i][j] Y[j][l] at (i, l), and Y[i][j] subtracts
    Y[i][j] X[j][l]."""
    acc: dict[int, Triple] = {}
    for left, right, add in ((x, y, t_add), (y, x, t_sub)):
        for i, row in enumerate(left):
            for j, e in row:
                for l, f in right[j]:
                    k = i * n + l
                    acc[k] = add(acc.get(k, T_ZERO), t_mul(e, f))
    return {k: e for k, e in acc.items() if e[0] or e[1]}


class SpanCoordinates:
    """A subspace L of flattened n x n operators in its own coordinates.

    L's canonical basis z_1..z_m has pivot columns p_1..p_m, so every v in
    L is sum_a v[p_a] z_a and its coordinates are its entries at the pivot
    columns.  Every vector of L has its first nonzero at a pivot column,
    so this projection commutes with RREF, reduction, canonical complements
    and sums: a canonical subspace of L and its coordinate image determine
    each other row by row, and ``space.lift`` takes the image back to L.

    The brackets [z_a, z_b] span a space of dimension ``rank`` = D with
    canonical basis B_1..B_D and pivot columns q_1..q_D.  The structure
    constants are [z_a, z_b] = sum_k c_ab[k] B_k, that is c_ab[k] =
    [z_a, z_b][q_k].  ``_flat[b]`` lists the nonzeros (a * D + k, c_ab[k])
    of the m x D matrix c_{.b}, flattened row by row: c_{.b} is what x_b
    contributes to the bracket with x = sum_b x_b z_b.
    The q_k come from one ``t_rref`` of the distinct brackets restricted
    to the columns where some bracket is nonzero: the other columns are
    zero in every row, so they hold no pivot.  Each bracket's constants
    are read off its own nonzeros, through a map from q_k to k.
    """

    __slots__ = ("space", "rank", "_flat")

    def __init__(self, space: Subspace, n: int):
        self.space = space
        ops = [operator_rows(r, n) for r in space.rows]
        brackets = []
        for a in range(len(ops)):
            for b in range(a + 1, len(ops)):
                acc = _bracket(ops[a], ops[b], n)
                if acc:
                    brackets.append((a, b, acc))
        # many brackets repeat, and a repeated row leaves the RREF as it is
        distinct = {frozenset(acc.items()): acc
                    for _, _, acc in brackets}.values()
        support = sorted({k for acc in distinct for k in acc})
        _, pivots = t_rref(tuple(tuple(acc.get(k, T_ZERO) for k in support)
                                 for acc in distinct))
        index = {support[p]: k for k, p in enumerate(pivots)}
        self.rank = r = len(index)
        self._flat: Rows = [[] for _ in ops]
        for a, b, acc in brackets:
            for k, c in sorted((index[q], c) for q, c in acc.items()
                               if q in index):
                self._flat[b].append((a * r + k, c))
                self._flat[a].append((b * r + k, t_neg(c)))

    def bracket_with(self, x: TVec) -> TMat:
        """M_x = sum_b x_b c_{.b}: row a is [z_a, x] in B's coordinates."""
        r = self.rank
        flat = _t_combine([(xb, self._flat[b]) for b, xb in enumerate(x)
                           if xb[0] or xb[1]], self.space.dim * r)
        return tuple(flat[a * r:(a + 1) * r] for a in range(self.space.dim))


def centralizer_in(space: Subspace, mats: Sequence,
                   n: "int | SpanCoordinates") -> Subspace:
    """{X in space : [X, A] = 0 for all given A}.

    With ``n`` the operator size, ``space`` is a flattened operator
    subspace and the A are n x n :class:`Mat`.  [X, A] is then built from
    the sparse forms of X and of A by :func:`_bracket`, n² conditions per
    A; each A's rows are listed straight from its matrix.

    With ``n`` a :class:`SpanCoordinates` of a subspace L, ``space`` is a
    subspace of L's coordinate space C^m and the A are coordinate vectors
    of elements of L.  Then [X, A] = sum_a X_a [z_a, A], and row a of
    M_A = ``n.bracket_with(A)`` is [z_a, A] in the bracket span's
    coordinates, so the conditions on the basis of ``space`` are one
    product with M_A: D conditions per A, D the bracket span's dimension.
    Conditions that vanish on the whole basis are dropped, and when none
    is left ``space`` is returned as it is, with no elimination.  The
    result is a subspace of C^m, the coordinate image of the flattened
    centralizer.
    """
    mats = list(mats)
    if not mats:
        return space
    if isinstance(n, SpanCoordinates):
        if space.is_zero():
            return space
        m = n.bracket_with(mats[0])
        for a in mats[1:]:
            m = t_hstack(m, n.bracket_with(a))
        return _kernel_part(space, t_matmul(space.rows, m))
    nn = n * n
    ops = [[row_nonzeros(row) for row in a.t] for a in mats]

    def conditions(rows: Rows) -> TVec:
        out = [T_ZERO] * (len(ops) * nn)
        for t, op in enumerate(ops):
            for k, e in _bracket(rows, op, n).items():
                out[t * nn + k] = e
        return tuple(out)

    return solve_in_span(space, n, conditions)


def noncommuting_pair(mats: Sequence[Mat]) -> tuple[int, int] | None:
    """The first pair i < j, in lexicographic order, with [A_i, A_j] != 0.

    Each matrix is listed once in its sparse form.  For a pair, row r of
    AB - BA is one :func:`_t_combine` of row r of A against the rows of B
    and of -(row r of B) against the rows of A, compared with the zero
    row, row after row up to the first nonzero; no product is formed.
    The matrices must all be square and of one size; otherwise ValueError.
    """
    shapes = {m.shape for m in mats}
    if len(shapes) > 1 or any(r != c for r, c in shapes):
        raise ValueError(f"commutation of matrices of shapes "
                         f"{sorted(shapes)}: they must be square and of "
                         f"one size")
    if len(mats) < 2:
        return None
    rows = [[row_nonzeros(row) for row in m.t] for m in mats]
    n = len(rows[0])
    zero = t_zero_row(n)
    for i, a in enumerate(rows):
        for j in range(i + 1, len(rows)):
            b = rows[j]
            for ar, br in zip(a, b):
                if not (ar or br):
                    continue  # row r of AB and of BA are both zero
                terms = [(f, b[t]) for t, f in ar]
                terms += [(t_neg(f), a[t]) for t, f in br]
                if _t_combine(terms, n) != zero:
                    return i, j
    return None


def pairwise_commuting(mats: Sequence[Mat]) -> bool:
    return noncommuting_pair(mats) is None
