"""Spaces of linear operators, seen as subspaces of C^(n*n).

Operators are flattened row-major: ``vec(X)[i*n + j] = X[i][j]``.  This is
the coordinate convention of every serialized operator subspace in the
package.  The workhorse is :func:`solve_in_span` — cut a span of operators
by linear conditions.  A condition sees each basis operator only as its
list of nonzeros ``(i, j, x)``, so its cost follows the sparsity of the
space rather than n².  Centralizers and the filtration-preserving parts of
an algebra are solves; the isometry algebra of a form has a closed form
and needs none.

:class:`SpanCoordinates` puts a subspace L of operators in its own
coordinates, with the structure constants of its brackets, so repeated
centralizers inside L cost conditions in the bracket span's dimension
rather than in n².
"""
from __future__ import annotations

from typing import Callable, Sequence

from .forms import BilForm
from .matrices import (Mat, TMat, TVec, _t_combine, t_hstack, t_kernel,
                       t_matmul, t_transpose)
from .scalars import T_ZERO, Triple, t_add, t_inv, t_mul, t_neg, t_sub
from .subspaces import Subspace, t_reduce

Nonzeros = list[tuple[int, int, Triple]]


def flatten(m: Mat) -> TVec:
    return tuple(e for row in m.t for e in row)


def as_mat(tv: TVec, n: int) -> Mat:
    """The n x n operator of a flattened vector of normalized triples."""
    return Mat.from_triples(tuple(tv[i * n:(i + 1) * n] for i in range(n)), n)


def nonzeros(tv: TVec, n: int) -> Nonzeros:
    """The entries (i, j, X[i][j]) of a flattened operator that are not 0."""
    return [(k // n, k % n, e) for k, e in enumerate(tv) if e[0] or e[1]]


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
                  conditions: Callable[[Nonzeros], TVec]) -> Subspace:
    """Largest subspace of ``space`` on which all conditions vanish.

    ``conditions(nz)`` gets one canonical basis operator X of ``space`` as
    its list of nonzeros ``(i, j, x)`` with ``x = X[i][j]`` a triple, and
    returns one flat tuple of triples, linear in X and of the same length
    for every X.  The result {X in space : conditions(X) == 0} is the
    product of the kernel combinations with the basis, in flattened form.
    A condition that vanishes on every basis operator is dropped.
    """
    if space.is_zero():
        return space
    cols = [conditions(nonzeros(r, n)) for r in space.rows]
    return _kernel_part(space, [row for row in zip(*cols)
                                if any(e[0] or e[1] for e in row)])


def _kernel_part(space: Subspace, cond: TMat) -> Subspace:
    """{sum_i y_i r_i : cond y = 0} for the canonical rows r_i of space."""
    return space.lift(Subspace.from_triples(t_kernel(cond, space.dim),
                                            space.dim))


def maps_into(pairs: Sequence[tuple[TVec, Subspace]],
              n: int) -> Callable[[Nonzeros], TVec]:
    """Conditions saying that X v lies in dst for every pair (v, dst).

    Each condition is the residual of X v against dst's canonical basis;
    pairs whose dst is the whole space say nothing and are dropped.
    """
    pairs = [(v, dst) for v, dst in pairs if not dst.is_full()]

    def conditions(nz: Nonzeros) -> TVec:
        out = []
        for v, dst in pairs:
            xv = [T_ZERO] * n
            for i, j, x in nz:
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
    [z_a, z_b][q_k].  ``columns[b]`` lists the nonzero (a, k, c_ab[k]), so
    c_{.b} is what x_b contributes to the bracket with x = sum_b x_b z_b.
    """

    __slots__ = ("space", "rank", "columns", "_flat")

    def __init__(self, space: Subspace, n: int):
        self.space = space
        nz = [nonzeros(r, n) for r in space.rows]
        rows_of = []
        for entries in nz:
            by_row = [[] for _ in range(n)]
            for i, j, x in entries:
                by_row[i].append((j, x))
            rows_of.append(by_row)
        # [z_a, z_b] for a < b from the nonzeros, as sparse dicts: z_a[i][j]
        # adds z_a[i][j] z_b[j][l] at (i, l), and z_b[i][j] subtracts
        # z_b[i][j] z_a[j][l]
        brackets = []
        for a in range(len(nz)):
            for b in range(a + 1, len(nz)):
                acc: dict[int, Triple] = {}
                for left, right, add in ((nz[a], rows_of[b], t_add),
                                         (nz[b], rows_of[a], t_sub)):
                    for i, j, x in left:
                        for l, e in right[j]:
                            k = i * n + l
                            acc[k] = add(acc.get(k, T_ZERO), t_mul(x, e))
                acc = {k: e for k, e in acc.items() if e[0] or e[1]}
                if acc:
                    brackets.append((a, b, acc))
        qs = _pivot_columns([acc for _, _, acc in brackets])
        self.rank = len(qs)
        self.columns: list[list[tuple[int, int, Triple]]] = [
            [] for _ in range(len(nz))]
        for a, b, acc in brackets:
            for k, q in enumerate(qs):
                c = acc.get(q)
                if c is not None:
                    self.columns[b].append((a, k, c))
                    self.columns[a].append((b, k, t_neg(c)))
        # columns[b] as nonzeros of the flattened dim x rank matrix c_{.b}
        self._flat = [[(a * self.rank + k, c) for a, k, c in column]
                      for column in self.columns]

    def bracket_with(self, x: TVec) -> TMat:
        """M_x = sum_b x_b c_{.b}: row a is [z_a, x] in B's coordinates."""
        r = self.rank
        flat = _t_combine([(xb, self._flat[b]) for b, xb in enumerate(x)
                           if xb[0] or xb[1]], self.space.dim * r)
        return tuple(flat[a * r:(a + 1) * r] for a in range(self.space.dim))


def _pivot_columns(vectors: Sequence[dict[int, Triple]]) -> list[int]:
    """The pivot columns of the canonical basis of a span of sparse vectors.

    They are the leading columns of any echelon basis of the span, so one
    sparse forward elimination with no back substitution finds them.
    """
    echelon: dict[int, dict[int, Triple]] = {}
    for vec in vectors:
        v = dict(vec)
        while v:
            lead = min(v)
            row = echelon.get(lead)
            if row is None:
                inv = t_inv(v[lead])
                echelon[lead] = {k: t_mul(e, inv) for k, e in v.items()}
                break
            f = v[lead]
            for k, e in row.items():
                r = t_sub(v.get(k, T_ZERO), t_mul(f, e))
                if r[0] or r[1]:
                    v[k] = r
                else:
                    v.pop(k, None)
    return sorted(echelon)


def centralizer_in(space: Subspace, mats: Sequence,
                   n: "int | SpanCoordinates") -> Subspace:
    """{X in space : [X, A] = 0 for all given A}.

    With ``n`` the operator size, ``space`` is a flattened operator
    subspace and the A are n x n :class:`Mat`.  [X, A] is then built from
    the nonzeros of X, i.e. ad_A applied to vec(X): X[i][j] adds
    X[i][j] A[j][l] at (i, l) and subtracts A[k][i] X[i][j] at (k, j),
    n² conditions per A.

    With ``n`` a :class:`SpanCoordinates` of a subspace L, ``space`` is a
    subspace of L's coordinate space C^m and the A are coordinate vectors
    of elements of L.  Then [X, A] = sum_a X_a [z_a, A], and row a of
    M_A = ``n.bracket_with(A)`` is [z_a, A] in the bracket span's
    coordinates, so the conditions on the basis of ``space`` are one
    product with M_A: D conditions per A, D the bracket span's dimension.
    The result is a subspace of C^m, the coordinate image of the
    flattened centralizer.
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
        return _kernel_part(space, t_transpose(t_matmul(space.rows, m)))
    nn = n * n
    # per A: the nonzeros of each row and of each column
    rows_of = [[[(l, e) for l, e in enumerate(a.t[j]) if e[0] or e[1]]
                for j in range(n)] for a in mats]
    cols_of = [[[(k, a.t[k][i]) for k in range(n)
                 if a.t[k][i][0] or a.t[k][i][1]]
                for i in range(n)] for a in mats]

    def conditions(nz: Nonzeros) -> TVec:
        out = [T_ZERO] * (len(mats) * nn)
        for t, (a_rows, a_cols) in enumerate(zip(rows_of, cols_of)):
            base = t * nn
            for i, j, x in nz:
                for l, e in a_rows[j]:
                    k = base + i * n + l
                    out[k] = t_add(out[k], t_mul(x, e))
                for r, e in a_cols[i]:
                    k = base + r * n + j
                    out[k] = t_sub(out[k], t_mul(e, x))
        return tuple(out)

    return solve_in_span(space, n, conditions)


def noncommuting_pair(mats: Sequence[Mat]) -> tuple[int, int] | None:
    """The first pair i < j, in lexicographic order, with [A_i, A_j] != 0."""
    for i, a in enumerate(mats):
        for j, b in enumerate(mats[i + 1:], i + 1):
            ab, ba = a @ b, b @ a
            if ab != ba:  # exact: products hold normalized triples
                if ab.shape != ba.shape:
                    raise ValueError(
                        f"shape mismatch: {ab.shape} vs {ba.shape}")
                return i, j
    return None


def pairwise_commuting(mats: Sequence[Mat]) -> bool:
    return noncommuting_pair(mats) is None
