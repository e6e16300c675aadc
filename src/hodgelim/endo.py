"""Spaces of linear operators, seen as subspaces of C^(n*n).

Operators are flattened row-major: ``vec(X)[i*n + j] = X[i][j]``.  This is
the coordinate convention of every serialized operator subspace in the
package.  The workhorse is :func:`solve_in_span` — cut a span of operators
by linear conditions.  A condition sees each basis operator only as its
list of nonzeros ``(i, j, x)``, so its cost follows the sparsity of the
space rather than n².  Centralizers and the filtration-preserving parts of
an algebra are solves; the isometry algebra of a form has a closed form
and needs none.
"""
from __future__ import annotations

from typing import Callable, Sequence

from .forms import BilForm
from .matrices import Mat, TVec, t_from_cols, t_kernel, t_matmul
from .scalars import T_ZERO, Triple, t_add, t_mul, t_neg, t_sub
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
    """
    if space.is_zero():
        return space
    cols = [conditions(nonzeros(r, n)) for r in space.rows]
    combos = t_kernel(t_from_cols(cols, len(cols[0])), space.dim)
    if not combos:
        return Subspace.zero(n * n)
    return Subspace.from_triples(t_matmul(tuple(combos), space.rows), n * n)


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


def centralizer_in(space: Subspace, mats: Sequence[Mat], n: int) -> Subspace:
    """{X in space : [X, A] = 0 for all given A}.

    [X, A] is built from the nonzeros of X, i.e. ad_A applied to vec(X):
    X[i][j] adds X[i][j] A[j][l] at (i, l) and subtracts A[k][i] X[i][j]
    at (k, j).
    """
    mats = list(mats)
    if not mats:
        return space
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
            if not (a @ b - b @ a).is_zero():
                return i, j
    return None


def pairwise_commuting(mats: Sequence[Mat]) -> bool:
    return noncommuting_pair(mats) is None
