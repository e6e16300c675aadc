"""Bilinear forms, signatures, and positivity tests — all exact.

A :class:`BilForm` is a nondegenerate bilinear form with the parity of a
weight-k polarization: symmetric for even k, antisymmetric for odd k.
Every Gram matrix of a form, whether between subspaces, single vectors or
the polarization forms Q(C u, N^l conj v), is one product L M R^T of left
rows, the form and right rows (:meth:`BilForm.gram_rows`).
Signatures of real symmetric matrices and positive definiteness of
Hermitian matrices both come from one exact Hermitian congruence (LDL*)
pass that returns the inertia; by Sylvester's law of inertia a Hermitian
matrix is positive definite exactly when its inertia is (n, 0, 0).
"""
from __future__ import annotations

from typing import Sequence

from .errors import VerificationError
from .matrices import (Mat, TMat, TVec, _coerce_row, t_matmul, t_sub_mul,
                       t_transpose)
from .scalars import GR, t_add, t_conj, t_inv, t_is_zero, t_mul
from .subspaces import Subspace


class BilForm:
    """Nondegenerate bilinear form u^T M v of a fixed parity."""

    __slots__ = ("matrix", "parity")

    def __init__(self, matrix: Mat, parity: int):
        if not matrix.is_square():
            raise ValueError("form matrix must be square")
        parity = parity % 2
        mt = matrix.transpose()
        if parity == 0 and mt != matrix:
            raise ValueError("even-parity form must be symmetric")
        if parity == 1 and mt != -matrix:
            raise ValueError("odd-parity form must be antisymmetric")
        if matrix.rank() != matrix.nrows:
            raise ValueError("form matrix is degenerate")
        self.matrix = matrix
        self.parity = parity

    @property
    def dim(self) -> int:
        return self.matrix.nrows

    def __call__(self, u, v) -> GR:
        return self.gram_rows([_coerce_row(u)], [_coerce_row(v)])[0, 0]

    def is_real(self) -> bool:
        return self.matrix.is_real()

    def gram_rows(self, left: Sequence[TVec], right: Sequence[TVec]) -> Mat:
        """Gram matrix [Q(u, v)] of left rows u and right rows v of triples."""
        if not left or not right:
            return Mat.zeros(len(left), len(right))
        return Mat.from_triples(t_matmul(t_matmul(left, self.matrix.t),
                                         t_transpose(right)))

    def gram(self, left: Subspace, right: Subspace) -> Mat:
        """Gram matrix of the form between two subspace bases."""
        return self.gram_rows(left.rows, right.rows)

    def orthogonal(self, left: Subspace, right: Subspace) -> bool:
        return self.gram(left, right).is_zero()

    def __eq__(self, other):
        if not isinstance(other, BilForm):
            return NotImplemented
        return self.parity == other.parity and self.matrix == other.matrix

    def __repr__(self):
        kind = "symmetric" if self.parity == 0 else "antisymmetric"
        return f"BilForm({kind}, dim {self.dim})"


def in_isometry_algebra(x: Mat, q: BilForm) -> bool:
    """Whether Q(Xu, v) + Q(u, Xv) = 0 identically."""
    m = q.matrix
    return (x.transpose() @ m + m @ x).is_zero()


def _inertia(tm: TMat) -> tuple[int, int, int]:
    """Inertia (positives, negatives, zeros) of a Hermitian triple-matrix.

    One exact LDL* congruence pass.  A zero pivot is replaced by swapping in
    a later nonzero diagonal entry; if none is left, a nonzero off-diagonal
    entry h = H[k][j] is used to add h * row j to row k and conj(h) * col j
    to col k, which makes the new pivot 2|h|^2 > 0.
    """
    n = len(tm)
    work = [list(r) for r in tm]
    pos = neg = 0
    for k in range(n):
        prow = work[k]
        if t_is_zero(prow[k]):
            j = next((j for j in range(k + 1, n)
                      if not t_is_zero(work[j][j])), None)
            if j is not None:
                work[k], work[j] = work[j], work[k]
                for row in work:
                    row[k], row[j] = row[j], row[k]
                prow = work[k]
            else:
                j = next((j for j in range(k + 1, n)
                          if not t_is_zero(prow[j])), None)
                if j is None:
                    continue  # row k vanishes past the diagonal: a zero
                h = prow[j]
                hc = t_conj(h)
                jrow = work[j]
                for c in range(k, n):
                    prow[c] = t_add(prow[c], t_mul(h, jrow[c]))
                for row in work[k:]:
                    row[k] = t_add(row[k], t_mul(hc, row[j]))
        d = prow[k]
        if d[1] != 0:
            raise VerificationError("pivot of Hermitian matrix not real — "
                                    "arithmetic bug")
        if d[0] > 0:
            pos += 1
        else:
            neg += 1
        # replace the trailing block by its Schur complement
        dinv = t_inv(d)
        for r in range(k + 1, n):
            row = work[r]
            f = row[k]
            if t_is_zero(f):
                continue
            f = t_mul(f, dinv)
            for c in range(k + 1, n):
                e = prow[c]
                if not t_is_zero(e):
                    row[c] = t_sub_mul(row[c], f, e)
    return pos, neg, n - pos - neg


def signature(m: Mat) -> tuple[int, int]:
    """Signature (positives, negatives) of a real symmetric matrix."""
    if not m.is_square():
        raise ValueError("signature of non-square matrix")
    if not m.is_real():
        raise ValueError("signature needs a real matrix")
    if m.transpose() != m:
        raise ValueError("signature needs a symmetric matrix")
    return _inertia(m.t)[:2]


def is_hermitian(g: Mat) -> bool:
    return g.conj_transpose() == g


def hermitian_positive_definite(g: Mat) -> bool:
    """Whether an exact Hermitian matrix is positive definite.

    Non-Hermitian input (including non-square) gives False.
    """
    if not is_hermitian(g):
        return False
    return _inertia(g.t) == (g.nrows, 0, 0)
