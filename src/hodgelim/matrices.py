"""Exact matrices over Q(i).

Two layers live here.  The triple layer (functions prefixed ``t_``) works on
immutable tuples-of-rows of scalar triples and is what the rest of the
package uses on hot paths.  :class:`Mat` is the friendly wrapper: immutable,
hashable, with operator overloading and the usual constructors.
"""
from __future__ import annotations

from functools import lru_cache
from itertools import chain, compress
from operator import or_
from typing import Iterable, Sequence

from .scalars import (GR, GaussianRational, Triple, T_ONE, T_ZERO, as_scalar,
                      t_add, t_conj, t_inv, t_mul, t_neg, t_norm,
                      t_sub)

TMat = tuple[tuple[Triple, ...], ...]
TVec = tuple[Triple, ...]


# ---------------------------------------------------------------------------
# triple-layer helpers
# ---------------------------------------------------------------------------

@lru_cache(maxsize=64)
def t_identity(n: int) -> TMat:
    """The n x n identity, built once per size: its tuples are immutable."""
    return tuple(tuple(T_ONE if i == j else T_ZERO for j in range(n))
                 for i in range(n))


@lru_cache(maxsize=256)
def t_zero_row(n: int) -> TVec:
    """``(T_ZERO,) * n``, built once per length.

    A zero triple is always normalized to ``T_ZERO``, so a row of triples
    is zero exactly when it equals this one.
    """
    return (T_ZERO,) * n


def t_zeros(m: int, n: int) -> TMat:
    return (t_zero_row(n),) * m


def t_transpose(tm: TMat) -> TMat:
    return tuple(zip(*tm)) if tm else ()


def t_conj_mat(tm: TMat) -> TMat:
    return tuple(tuple(map(t_conj, row)) for row in tm)


def t_neg_mat(tm: TMat) -> TMat:
    return tuple(tuple(t_neg(e) for e in row) for row in tm)


def t_add_mat(a: TMat, b: TMat) -> TMat:
    return tuple(tuple(t_add(x, y) for x, y in zip(ra, rb))
                 for ra, rb in zip(a, b))


def t_sub_mat(a: TMat, b: TMat) -> TMat:
    return tuple(tuple(t_sub(x, y) for x, y in zip(ra, rb))
                 for ra, rb in zip(a, b))


def t_scale(tm: TMat, c: Triple) -> TMat:
    return tuple(tuple(t_mul(c, e) for e in row) for row in tm)


def t_sub_mul(x: Triple, f: Triple, y: Triple) -> Triple:
    """x - f*y in one normalization pass."""
    a1, b1, d1 = x
    fa, fb, fd = f
    a2, b2, d2 = y
    pa = fa * a2 - fb * b2
    pb = fa * b2 + fb * a2
    pd = fd * d2
    return t_norm(a1 * pd - pa * d1, b1 * pd - pb * d1, d1 * pd)


def _t_combine(terms, m: int) -> TVec:
    """The sum of f * row over ``terms``, pairs (f, nonzeros (j, e) of row).

    Each of the m output entries accumulates as raw integers (A, B, D):
    a product with the running denominator adds its numerators, any other
    is cross-multiplied in.  One normalization per nonzero entry at the
    end; an exact cancellation gives T_ZERO.
    """
    sa = [0] * m
    sb = [0] * m
    sd = [1] * m
    for (fa, fb, fd), nz in terms:
        for j, (ea, eb, ed) in nz:
            pa = fa * ea - fb * eb
            pb = fa * eb + fb * ea
            pd = fd * ed
            d = sd[j]
            if d == pd:
                sa[j] += pa
                sb[j] += pb
            else:
                sa[j] = sa[j] * pd + pa * d
                sb[j] = sb[j] * pd + pb * d
                sd[j] = d * pd
    out = [T_ZERO] * m
    for j in compress(range(m), map(or_, sa, sb)):
        out[j] = t_norm(sa[j], sb[j], sd[j])
    return tuple(out)


def t_matmul(a: TMat, b: TMat) -> TMat:
    """Product of two triple-matrices; zero entries are skipped.

    The nonzeros of a row of b are listed on its first use in the call.
    An output row with one term is that row of b, scaled entry by entry;
    a longer sum goes through :func:`_t_combine`.
    """
    n = len(a)
    if n == 0:
        return ()
    k = len(a[0])
    if k != len(b):
        raise ValueError(f"shape mismatch: {n}x{k} @ {len(b)}x?")
    m = len(b[0]) if k else 0
    zero = (T_ZERO,) * m
    bnz = [None] * k

    def nonzeros(t):
        nz = bnz[t]
        if nz is None:
            nz = bnz[t] = [(j, e) for j, e in enumerate(b[t]) if e[0] or e[1]]
        return nz

    out = []
    for arow in a:
        terms = [(t, f) for t, f in enumerate(arow) if f[0] or f[1]]
        if len(terms) > 1:
            out.append(_t_combine([(f, nonzeros(t)) for t, f in terms], m))
        elif not terms:
            out.append(zero)
        else:
            t, f = terms[0]
            if f == T_ONE:
                out.append(tuple(b[t]))
                continue
            row = list(zero)
            for j, e in nonzeros(t):
                row[j] = t_mul(f, e)
            out.append(tuple(row))
    return tuple(out)


def t_rref(tm) -> tuple[TMat, list[int]]:
    """Canonical reduced row echelon form of a sequence of triple-rows.

    Returns ``(reduced_rows, pivot_cols)`` with only the nonzero rows kept:
    leading entries are 1 and pivot columns are cleared above and below.
    """
    rows, pivots, _, _ = _t_eliminate(tm)
    return rows, pivots


def _t_eliminate(tm) -> tuple[TMat, list[int], list[Triple], int]:
    """Gauss--Jordan elimination behind :func:`t_rref`.

    Returns the reduced rows and pivot columns, each pivot entry as it was
    found before its row was scaled to 1, and the number of row swaps.
    """
    if not tm:
        return (), [], [], 0
    work = [list(r) for r in tm]
    nrows = len(work)
    ncols = len(work[0])
    pivots = []
    found = []
    swaps = 0
    rank = 0
    for col in range(ncols):
        pr = -1
        for r in range(rank, nrows):
            e = work[r][col]
            if e[0] != 0 or e[1] != 0:
                pr = r
                break
        if pr < 0:
            continue
        if pr != rank:
            work[rank], work[pr] = work[pr], work[rank]
            swaps += 1
        prow = work[rank]
        piv = prow[col]
        found.append(piv)
        if piv != T_ONE:
            pinv = t_inv(piv)
            for j in range(col, ncols):
                e = prow[j]
                if e[0] != 0 or e[1] != 0:
                    prow[j] = t_mul(e, pinv)
        for r in range(nrows):
            if r == rank:
                continue
            row = work[r]
            f = row[col]
            if f[0] == 0 and f[1] == 0:
                continue
            row[col] = T_ZERO
            for j in range(col + 1, ncols):
                e = prow[j]
                if e[0] != 0 or e[1] != 0:
                    row[j] = t_sub_mul(row[j], f, e)
        pivots.append(col)
        rank += 1
        if rank == nrows:
            break
    return tuple(tuple(r) for r in work[:rank]), pivots, found, swaps


def t_is_zero_mat(tm: TMat) -> bool:
    """Whether every row equals the zero row (see :func:`t_zero_row`)."""
    return not tm or tm.count(t_zero_row(len(tm[0]))) == len(tm)


def t_kernel(tm: TMat, ncols: int) -> list[TVec]:
    """Canonical (RREF) basis of the right null space, in pivot order.

    One elimination, with the columns in reverse order: its free columns
    are then the leftmost ones, and the null vector of free column f has
    a 1 at f, zeros at the other free columns and its other nonzeros at
    pivot columns right of f (a reversed row's entries lie right of its
    pivot).  Taken in order of f these vectors are already reduced, with
    pivot f, so the span needs no second elimination.
    """
    rows, pivots = t_rref(tuple(r[::-1] for r in tm))
    last = ncols - 1
    pivset = set(pivots)
    basis = []
    for free in range(ncols):
        col = last - free
        if col in pivset:
            continue
        v = [T_ZERO] * ncols
        v[free] = T_ONE
        for row, p in zip(rows, pivots):
            e = row[col]
            if e[0] or e[1]:
                v[last - p] = t_neg(e)
        basis.append(tuple(v))
    return basis


def t_hstack(a: TMat, b: TMat) -> TMat:
    return tuple(ra + rb for ra, rb in zip(a, b))


# ---------------------------------------------------------------------------
# Mat
# ---------------------------------------------------------------------------

def _coerce_row(row) -> tuple[Triple, ...]:
    out = []
    for x in row:
        if isinstance(x, tuple) and len(x) == 3 and isinstance(x[0], int):
            out.append(t_norm(*x))
        else:
            out.append(as_scalar(x).triple)
    return tuple(out)


class Mat:
    """Immutable exact matrix.  Entries coerce from int/Fraction/GR.

    It keeps the powers that :meth:`ladder` climbs; ``==`` and ``hash``
    read only ``t`` and ``shape``.
    """

    __slots__ = ("t", "shape", "_higher")

    def __init__(self, rows: Iterable[Iterable]):
        t = tuple(_coerce_row(r) for r in rows)
        widths = {len(r) for r in t}
        if len(widths) > 1:
            raise ValueError("ragged rows")
        self.t = t
        self.shape = (len(t), widths.pop() if widths else 0)

    @classmethod
    def from_triples(cls, tm: TMat, ncols: int | None = None) -> "Mat":
        self = object.__new__(cls)
        self.t = tm
        self.shape = (len(tm), len(tm[0]) if tm else (ncols or 0))
        return self

    @classmethod
    def identity(cls, n: int) -> "Mat":
        return cls.from_triples(t_identity(n))

    @classmethod
    def zeros(cls, m: int, n: int) -> "Mat":
        self = object.__new__(cls)
        self.t = t_zeros(m, n)
        self.shape = (m, n)
        return self

    @classmethod
    def from_columns(cls, cols: Sequence[Sequence]) -> "Mat":
        if not cols:
            raise ValueError("from_columns needs at least one column")
        return cls(cols).transpose()

    @property
    def nrows(self) -> int:
        return self.shape[0]

    @property
    def ncols(self) -> int:
        return self.shape[1]

    def __getitem__(self, ij) -> GaussianRational:
        i, j = ij
        return GR.from_triple(self.t[i][j])

    def col(self, j) -> tuple[GaussianRational, ...]:
        return tuple(GR.from_triple(r[j]) for r in self.t)

    def columns(self) -> list[tuple[GaussianRational, ...]]:
        return [self.col(j) for j in range(self.ncols)]

    # -- algebra -------------------------------------------------------

    def _check_same_shape(self, other):
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch: {self.shape} vs {other.shape}")

    def __add__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        self._check_same_shape(other)
        return Mat.from_triples(t_add_mat(self.t, other.t), self.ncols)

    def __sub__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        self._check_same_shape(other)
        return Mat.from_triples(t_sub_mat(self.t, other.t), self.ncols)

    def __neg__(self):
        return Mat.from_triples(t_neg_mat(self.t), self.ncols)

    def __mul__(self, c):
        try:
            trip = as_scalar(c).triple
        except TypeError:
            return NotImplemented
        return Mat.from_triples(t_scale(self.t, trip), self.ncols)

    __rmul__ = __mul__

    def __matmul__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        if self.ncols != other.nrows:
            raise ValueError(f"shape mismatch: {self.shape} @ {other.shape}")
        if not self.ncols:
            return Mat.zeros(self.nrows, other.ncols)
        return Mat.from_triples(t_matmul(self.t, other.t), other.ncols)

    def transpose(self) -> "Mat":
        if not self.nrows:
            return Mat.zeros(self.ncols, 0)
        return Mat.from_triples(t_transpose(self.t), self.nrows)

    def conj(self) -> "Mat":
        return Mat.from_triples(t_conj_mat(self.t), self.ncols)

    def conj_transpose(self) -> "Mat":
        return self.conj().transpose()

    def pow(self, k: int) -> "Mat":
        if self.nrows != self.ncols:
            raise ValueError("pow of non-square matrix")
        if k < 0:
            raise ValueError("negative power")
        out = t_identity(self.nrows)
        base = self.t
        while k:
            if k & 1:
                out = t_matmul(out, base)
            base = t_matmul(base, base) if k > 1 else base
            k >>= 1
        return Mat.from_triples(out, self.nrows)

    def ladder(self) -> tuple["Mat", ...]:
        """(I, N, N^2, ...) up to the first zero power, or to N^m for an
        m x m N.  Climbed on the first call and kept; the kept part starts
        at N^2, so a matrix holds no reference to itself."""
        try:
            higher = self._higher
        except AttributeError:
            if not self.is_square():
                raise ValueError(f"no powers of a matrix of shape "
                                 f"{self.shape}") from None
            power, climbed = self, []
            while len(climbed) + 1 < self.nrows and not power.is_zero():
                power = power @ self
                climbed.append(power)
            higher = self._higher = tuple(climbed)
        if not self.nrows:
            return (Mat.identity(0),)
        return (Mat.identity(self.nrows), self, *higher)

    def pow_is_zero(self, k: int) -> bool:
        """Whether N^k = 0, read off :meth:`ladder`: the ladder ends in 0
        within k + 1 entries."""
        powers = self.ladder()
        return len(powers) <= k + 1 and powers[-1].is_zero()

    # -- predicates ----------------------------------------------------

    def is_zero(self) -> bool:
        return t_is_zero_mat(self.t)

    def is_real(self) -> bool:
        return all(e[1] == 0 for row in self.t for e in row)

    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def __eq__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        return self.shape == other.shape and self.t == other.t

    def __hash__(self):
        return hash((self.shape, self.t))

    # -- elimination-based operations ---------------------------------

    def rank(self) -> int:
        return len(t_rref(self.t)[1])

    def kernel(self) -> list[tuple[GaussianRational, ...]]:
        """Canonical basis for the right null space, as column vectors."""
        return [tuple(GR.from_triple(e) for e in v)
                for v in t_kernel(self.t, self.ncols)]

    def inverse(self) -> "Mat":
        if self.nrows != self.ncols:
            raise ValueError("inverse of non-square matrix")
        n = self.nrows
        aug = t_hstack(self.t, t_identity(n))
        rows, pivots = t_rref(aug)
        if pivots != list(range(n)):
            raise ZeroDivisionError("matrix is singular")
        return Mat.from_triples(tuple(r[n:] for r in rows), n)

    def det(self) -> GaussianRational:
        if self.nrows != self.ncols:
            raise ValueError("det of non-square matrix")
        _, pivots, found, swaps = _t_eliminate(self.t)
        if len(pivots) < self.nrows:
            return GR(0)
        acc = T_ONE
        for piv in found:
            acc = t_mul(acc, piv)
        return GR.from_triple(t_neg(acc) if swaps % 2 else acc)

    def solve(self, b) -> tuple[GaussianRational, ...] | None:
        """One solution of ``self @ x = b`` or None if inconsistent.

        Intended for full-column-rank systems (then the solution is the
        unique one); free variables, if any, are set to zero.  A ``b``
        whose length is not the number of rows raises ValueError.
        """
        tb = _coerce_row(b)
        if len(tb) != self.nrows:
            raise ValueError(f"right-hand side of length {len(tb)} for "
                             f"{self.nrows} equations")
        aug = t_hstack(self.t, tuple((e,) for e in tb))
        rows, pivots = t_rref(aug)
        if self.ncols in pivots:
            return None
        x = [T_ZERO] * self.ncols
        for i, p in enumerate(pivots):
            x[p] = rows[i][self.ncols]
        return tuple(GR.from_triple(e) for e in x)

    # -- display -------------------------------------------------------

    def __repr__(self):
        return f"Mat({self.nrows}x{self.ncols})"

    def __str__(self):
        lines = []
        for row in self.t:
            lines.append("[" + ", ".join(str(GR.from_triple(e)) for e in row) + "]")
        return "[" + ",\n ".join(lines) + "]"


def combine(coefficients: Sequence, mats: Sequence[Mat]) -> Mat:
    """sum_i c_i A_i, as one :func:`t_matmul` of the coefficient row with
    the matrices flattened row by row, one to a row."""
    if not mats or len(coefficients) != len(mats):
        raise ValueError(f"{len(coefficients)} coefficients for "
                         f"{len(mats)} matrices")
    nrows, ncols = shape = mats[0].shape
    if any(a.shape != shape for a in mats):
        raise ValueError("matrices of mixed shapes")
    (flat,) = t_matmul((tuple(as_scalar(c).triple for c in coefficients),),
                       tuple(tuple(chain.from_iterable(a.t)) for a in mats))
    return Mat.from_triples(tuple(flat[i * ncols:(i + 1) * ncols]
                                  for i in range(nrows)), ncols)
