"""Canonical subspaces of C^n and exact quotients.

A :class:`Subspace` stores the reduced row echelon basis of its spanning
set, so two subspaces are equal as sets iff their stored bases are equal
syntactically.  All the usual lattice operations (sum, intersection,
inclusion, canonical complement) are exact.  An intersection is one
elimination (Zassenhaus): the rows of the smaller space, reduced against
the other, are row-reduced next to their own coordinates, and the rows
whose residual vanishes give the intersection's canonical basis.

:class:`Quotient` gives coordinates on ``sup/sub`` via a canonical
complement; because complements of real subspaces have real canonical
bases, entrywise conjugation of quotient coordinates is the induced real
structure whenever ``sub`` and ``sup`` are conjugation stable.
"""
from __future__ import annotations

from typing import Iterable, Sequence

from .errors import VerificationError
from .matrices import (Mat, TMat, TVec, _coerce_row, t_conj_mat, t_identity,
                       t_kernel, t_matmul, t_rref, t_sub_mul, t_zero_row)
from .scalars import T_ONE, T_ZERO, t_is_zero


def t_reduce(v: TVec, rows: Sequence[TVec], pivots: Sequence[int]):
    """Reduce v against RREF rows; return (residual, coefficients)."""
    r = list(v)
    coeffs = []
    for row, p in zip(rows, pivots):
        c = r[p]
        coeffs.append(c)
        if c[0] or c[1]:
            for j in range(p, len(r)):
                e = row[j]
                if e[0] or e[1]:
                    r[j] = t_sub_mul(r[j], c, e)
    return tuple(r), tuple(coeffs)


def _is_zero_vec(v: TVec) -> bool:
    return v == t_zero_row(len(v))  # zero triples are all T_ZERO


class Subspace:
    """A linear subspace of C^n in canonical (RREF) form."""

    __slots__ = ("ambient", "rows", "pivots")

    def __init__(self, ambient: int, rows: TMat, pivots: tuple[int, ...]):
        # internal: rows must already be canonical; use span() instead
        self.ambient = ambient
        self.rows = rows
        self.pivots = pivots

    @classmethod
    def span(cls, vectors: Iterable[Sequence], ambient: int) -> "Subspace":
        vecs = [_coerce_row(v) for v in vectors]
        for v in vecs:
            if len(v) != ambient:
                raise ValueError(
                    f"vector of length {len(v)} in ambient dim {ambient}")
        return cls.from_triples(vecs, ambient)

    @classmethod
    def from_triples(cls, vecs: Sequence[TVec], ambient: int) -> "Subspace":
        """Span of vectors of normalized triples, taken without checks."""
        rows, pivots = t_rref(tuple(vecs))
        return cls(ambient, rows, tuple(pivots))

    @classmethod
    def zero(cls, ambient: int) -> "Subspace":
        return cls(ambient, (), ())

    @classmethod
    def full(cls, ambient: int) -> "Subspace":
        return cls(ambient, t_identity(ambient), tuple(range(ambient)))

    @property
    def dim(self) -> int:
        return len(self.rows)

    def is_zero(self) -> bool:
        return not self.rows

    def is_full(self) -> bool:
        return self.dim == self.ambient

    # -- lattice operations --------------------------------------------

    def __le__(self, other: "Subspace") -> bool:
        if self.ambient != other.ambient:
            raise ValueError("ambient dimension mismatch")
        return all(_is_zero_vec(t_reduce(r, other.rows, other.pivots)[0])
                   for r in self.rows)

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return self.ambient == other.ambient and self.rows == other.rows

    def __hash__(self):
        return hash((self.ambient, self.rows))

    def __add__(self, other: "Subspace") -> "Subspace":
        if self.ambient != other.ambient:
            raise ValueError("ambient dimension mismatch")
        if other.is_zero():
            return self
        if self.is_zero():
            return other
        return Subspace.from_triples(self.rows + other.rows, self.ambient)

    def __and__(self, other: "Subspace") -> "Subspace":
        """Intersection by one elimination (Zassenhaus).

        Let a be the space with fewer rows, with canonical rows r_1..r_k,
        and let x_i be the residual of r_i reduced against the other
        space.  A combination sum c_i r_i lies in the other space exactly
        when sum c_i x_i = 0, so in the RREF of the rows (x_i | e_i) of
        length n + k the rows whose pivot lies in the right half are
        (0 | c) with the c a canonical basis of those combinations, and
        the intersection is ``a.lift`` of their span.  The right half
        holds coordinates rather than the rows r_i themselves, because in
        a dense basis the n - k other columns of the r_i would be carried
        through every step.
        """
        if self.ambient != other.ambient:
            raise ValueError("ambient dimension mismatch")
        if self.is_zero() or other.is_zero():
            return Subspace.zero(self.ambient)
        if self.is_full():
            return other
        if other.is_full():
            return self
        a, b = (self, other) if self.dim <= other.dim else (other, self)
        residuals = [t_reduce(r, b.rows, b.pivots)[0] for r in a.rows]
        if all(map(_is_zero_vec, residuals)):
            return a  # a lies in b
        n, k = self.ambient, a.dim
        rows, pivots = t_rref(tuple(
            x + (T_ZERO,) * i + (T_ONE,) + (T_ZERO,) * (k - 1 - i)
            for i, x in enumerate(residuals)))
        first = next((i for i, p in enumerate(pivots) if p >= n),
                     len(pivots))
        return a.lift(Subspace(k, tuple(r[n:] for r in rows[first:]),
                               tuple(p - n for p in pivots[first:])))

    def lift(self, sub: "Subspace") -> "Subspace":
        """The subspace of self whose coordinates form ``sub``.

        A vector of self is sum_a c_a r_a over the canonical rows r_a, and
        c_a is its entry at the pivot p_a, since r_a is 1 there and the
        other rows are 0.  So the rows of ``sub`` times the r_a are
        canonical, a pivot j of ``sub`` becomes the pivot p_j, and no
        elimination is needed.
        """
        if sub.ambient != self.dim:
            raise ValueError(f"coordinates in dimension {sub.ambient} for "
                             f"a subspace of dimension {self.dim}")
        return Subspace(self.ambient, t_matmul(sub.rows, self.rows),
                        tuple(self.pivots[j] for j in sub.pivots))

    def complement_in(self, sup: "Subspace") -> "Subspace":
        """A canonical complement of self inside sup.

        Built from the residuals of sup's canonical basis; every basis
        vector of the result has zeros in self's pivot columns, and the
        result is real whenever both inputs have real canonical bases.
        The residuals span a space of dimension dim sup - dim(self & sup),
        which is dim sup - dim self exactly when self lies in sup, so the
        inclusion is checked by dimension, with no reduction of its own.
        """
        if self.ambient != sup.ambient:
            raise ValueError("ambient dimension mismatch")
        residuals = []
        for r in sup.rows:
            res, _ = t_reduce(r, self.rows, self.pivots)
            if not _is_zero_vec(res):
                residuals.append(res)
        comp = Subspace.from_triples(residuals, self.ambient)
        if comp.dim != sup.dim - self.dim:
            raise ValueError("complement_in: first space not inside second")
        return comp

    # -- structure maps ------------------------------------------------

    def conj(self) -> "Subspace":
        # conj(1) = 1 and conj(0) = 0: conjugate RREF rows are canonical
        return Subspace(self.ambient, t_conj_mat(self.rows), self.pivots)

    def is_conj_stable(self) -> bool:
        return all(_is_zero_vec(t_reduce(r, self.rows, self.pivots)[0])
                   for r in t_conj_mat(self.rows))

    def image_rows(self, m: Mat) -> TMat:
        """m v for the canonical rows v, as rows: they span the image."""
        if m.ncols != self.ambient:
            raise ValueError("operator shape mismatch")
        return t_matmul(self.rows, m.transpose().t)

    def map_by(self, m: Mat) -> "Subspace":
        """Image of this subspace under the linear map m."""
        return Subspace.from_triples(self.image_rows(m), m.nrows)

    def sends_into(self, m: Mat, target: "Subspace") -> bool:
        """Whether m maps this subspace into ``target``, as
        ``self.map_by(m) <= target`` says, with no basis of the image
        built: each image row is reduced against target's canonical rows."""
        if m.nrows != target.ambient:
            raise ValueError("ambient dimension mismatch")
        return all(_is_zero_vec(t_reduce(r, target.rows, target.pivots)[0])
                   for r in self.image_rows(m))

    def __repr__(self):
        return f"Subspace(dim {self.dim} of C^{self.ambient})"


def kernel(m: Mat) -> Subspace:
    """Right null space of a matrix; :func:`t_kernel`'s basis is canonical,
    each vector with its pivot at its free column (its first 1)."""
    basis = tuple(t_kernel(m.t, m.ncols))
    return Subspace(m.ncols, basis, tuple(v.index(T_ONE) for v in basis))


def direct_sum_equals(parts: Sequence[Subspace], total: Subspace) -> bool:
    """True iff the parts are independent and sum to ``total``: one
    elimination of all their rows keeps the sum of their dimensions and
    gives ``total``."""
    if any(p.ambient != total.ambient for p in parts):
        raise ValueError("ambient dimension mismatch")
    acc = Subspace.from_triples([r for p in parts for r in p.rows],
                                total.ambient)
    return acc.dim == sum(p.dim for p in parts) and acc == total


class Quotient:
    """Exact coordinates on sup/sub through a canonical complement.

    The complement's canonical rows vanish in sub's pivot columns, so
    reducing a vector against sub and then against the complement splits
    it into its two parts.
    """

    __slots__ = ("sub", "complement")

    def __init__(self, sub: Subspace, sup: Subspace):
        self.sub = sub
        self.complement = sub.complement_in(sup)
        if any(not t_is_zero(r[p]) for r in self.complement.rows
               for p in sub.pivots):
            raise VerificationError(
                "complement does not vanish in the pivot columns of sub")

    @property
    def dim(self) -> int:
        return self.complement.dim

    def project_triples(self, tv: TVec) -> TVec:
        """Coordinates of tv + sub in the complement basis, for a vector of
        normalized triples of the ambient length that lies in sup, taken
        without coercion or length check."""
        res, _ = t_reduce(tv, self.sub.rows, self.sub.pivots)
        res, coords = t_reduce(res, self.complement.rows,
                               self.complement.pivots)
        if not _is_zero_vec(res):
            raise ValueError("vector not in the total space of the quotient")
        return coords

    def induced_matrix(self, op: Mat, dst: "Quotient | None" = None) -> Mat:
        """Matrix of the map induced by op from this quotient to dst.

        ``op`` must map this quotient's total space into dst's and sub
        into dst.sub (the caller's responsibility; projection fails loudly
        if the total space is not preserved).
        """
        if dst is None:
            dst = self
        cols = [dst.project_triples(c)
                for c in t_matmul(self.complement.rows, op.transpose().t)]
        if not cols:
            return Mat.zeros(dst.dim, 0)
        return Mat.from_triples(
            tuple(tuple(c[i] for c in cols) for i in range(dst.dim)), self.dim)
