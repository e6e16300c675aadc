"""Filtrations, bigradings, and pure polarized Hodge structures.

Conventions.  A decreasing filtration ``F`` is given by steps at integer
indices; between listed indices it takes the value at the next listed index
up, below its support it is the whole space and above it is zero.  An
increasing filtration ``W`` is dual: value at the largest listed index not
above the query, zero below the support, everything above it.

``W.shift(s)`` is the filtration with ``W.shift(s)_j = W_{j+s}``.  Where
a filtration changes is decided once, by ``jumps()``; the loops over its
indices walk that list, so the listed indices set no work.

The weight filtration of a nilpotent endomorphism is produced by a
recursion and then *re-verified* against its two defining properties on
every call, each where the recursion does not give it already, so a bug in
the recursion cannot slip through silently.  Those
properties determine W(N) uniquely (Deligne, Weil II, 1.6.1), so a given
W is compared with W(N) by checking them on W
(:func:`weight_filtration_defect`) rather than by building W(N) again.
Both read the powers of N off :meth:`~hodgelim.matrices.Mat.ladder`,
which N climbs once and keeps.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Mapping

from .errors import VerificationError
from .forms import BilForm, hermitian_positive_definite
from .matrices import Mat, TVec, t_conj_mat, t_transpose
from .reports import Report
from .scalars import T_I, T_ONE, t_mul, t_neg
from .subspaces import Subspace, direct_sum_equals, kernel


class _Filtration:
    """Exhaustive filtration of C^n by steps at integer indices.

    The subclasses fix the direction: ``decreasing`` says whether the whole
    space lies below the support (F^j) or above it (W_j).
    """

    __slots__ = ("steps", "keys", "ambient")
    decreasing: bool

    def __init__(self, steps: Mapping[int, Subspace]):
        if not steps:
            raise ValueError("a filtration needs at least one step")
        ambients = {s.ambient for s in steps.values()}
        if len(ambients) != 1:
            raise ValueError("filtration steps in different ambient spaces")
        keys = sorted(steps)
        for a, b in zip(keys, keys[1:]):
            lo, hi = ((steps[b], steps[a]) if self.decreasing
                      else (steps[a], steps[b]))
            if not lo <= hi:
                raise ValueError(f"steps at {a} and {b} are not nested")
        self.steps = {k: steps[k] for k in keys}
        self.keys = keys
        self.ambient = ambients.pop()

    def _derived(self, steps: dict[int, Subspace]):
        """A filtration of this type on ``steps``, taken without the
        nesting check.  ``steps`` holds this filtration's steps, in key
        order, moved by one index shift, conjugation or linear map, and
        each of these keeps a nested chain nested."""
        out = object.__new__(type(self))
        out.steps = steps
        out.keys = list(steps)
        out.ambient = next(iter(steps.values())).ambient
        return out

    def at(self, j: int) -> Subspace:
        keys = self.keys
        if j < keys[0] or j > keys[-1]:
            whole = (j < keys[0]) == self.decreasing
            return (Subspace.full if whole else Subspace.zero)(self.ambient)
        i = (bisect_left(keys, j) if self.decreasing
             else bisect_right(keys, j) - 1)
        return self.steps[keys[i]]

    def support(self) -> list[int]:
        return list(self.keys)

    def jumps(self) -> list[int]:
        """The indices of the nonzero graded pieces, in increasing order:
        the p with F^p != F^(p+1), or the l with W_l != W_(l-1).  These are
        the listed indices whose step differs from the next one in (for W,
        the one below), and the index past the end where the filtration
        becomes the whole space, unless the step listed there is full."""
        keys, dims = self.keys, [s.dim for s in self.steps.values()]
        if self.decreasing:
            out = [k for k, d, e in zip(keys, dims, dims[1:] + [0]) if d != e]
            return out if dims[0] == self.ambient else [keys[0] - 1, *out]
        out = [k for k, d, e in zip(keys, dims, [0, *dims]) if d != e]
        return out if dims[-1] == self.ambient else [*out, keys[-1] + 1]

    def lowered_by(self, ops, k: int, levels=None) -> bool:
        """Whether each X in ``ops`` has X F^p ⊆ F^(p-k), or X W_l ⊆
        W_(l-k), at every index, checked at the jumps or at ``levels``:
        F^p = F^j and F^(j-k) ⊆ F^(p-k) at the next jump j up, W_l = W_j and
        W_(j-k) ⊆ W_(l-k) at the next jump j down, past them the step is 0,
        and a whole target needs no check."""
        for j in self.jumps() if levels is None else levels:
            target = self.at(j - k)
            if not target.is_full():
                step = self.at(j)
                for x in ops:
                    if not step.sends_into(x, target):
                        return False
        return True

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        jumps = self.jumps()
        return (self.ambient == other.ambient and jumps == other.jumps()
                and all(self.at(j) == other.at(j) for j in jumps))

    def conj(self):
        return self._derived({k: s.conj() for k, s in self.steps.items()})

    def is_conj_stable(self) -> bool:
        return all(s.is_conj_stable() for s in self.steps.values())

    def map_by(self, g: Mat):
        return self._derived({k: s.map_by(g) for k, s in self.steps.items()})

    def __repr__(self):
        dims = ", ".join(f"{k}:{s.dim}" for k, s in self.steps.items())
        return f"{type(self).__name__}({dims})"


class DecFiltration(_Filtration):
    """A decreasing exhaustive filtration F^j of C^n."""

    __slots__ = ()
    decreasing = True


class IncFiltration(_Filtration):
    """An increasing exhaustive filtration W_j of C^n."""

    __slots__ = ()
    decreasing = False

    def shift(self, s: int) -> "IncFiltration":
        """The filtration j -> W_{j+s}."""
        return self._derived({k - s: v for k, v in self.steps.items()})


def weight_filtration(n: Mat) -> IncFiltration:
    """The monodromy weight filtration of a nilpotent matrix, centered at 0.

    Built from the top down, W_{d-1} = C^n when N^d = 0, by
    W_l = ker N^(l+1) + N W_{l+2}, whose kernel term is 0 for l < 0.
    Both terms split along a Jordan basis, and on a string v, Nv, ...,
    N^(m-1)v, where N^j v has weight m-1-2j, N W_{l+2} is spanned by the
    vectors of weight <= l but v, and ker N^(l+1) by the last l+1, which
    take in v just when its weight m-1 is <= l and otherwise have weights
    <= l.  Each level is one elimination of the two spanning sets.  W is
    then checked against the properties that characterize it (see
    :func:`weight_filtration_defect`): N W_l ⊆ W_{l-2}, which the
    construction gives at every level but the one above W's zero steps,
    so it is checked there alone, and N^l induces an isomorphism
    gr_l -> gr_{-l}.
    """
    if not n.is_square():
        raise ValueError("weight filtration of a non-square matrix")
    dim = n.nrows
    powers = n.ladder()
    if not powers[-1].is_zero():
        raise ValueError("matrix is not nilpotent")
    d = max(len(powers) - 1, 1)  # on C^0, I = 0 and W still has level 0
    top = d - 1
    whole = Subspace.full(dim)
    columns = t_transpose(n.t)  # they span N C^n = im N
    steps = {top: whole}
    for l in range(top - 1, -top - 1, -1):
        above = steps.get(l + 2, whole)
        pushed = columns if above.is_full() else above.image_rows(n)
        kept = kernel(powers[l + 1]).rows if l >= 0 else ()
        steps[l] = Subspace.from_triples(kept + pushed, dim)
    w = IncFiltration(steps)
    # W_l is spanned with N W_{l+2} from l = -top up, and is whole from
    # top up, so N W_l ⊆ W_{l-2} holds but at l = 1 - top, where the
    # target W_{-1-top} is 0 (and below it, where W_l ⊆ W_{1-top})
    if not w.at(1 - top).sends_into(n, Subspace.zero(dim)):
        defect = "N does not lower the level by two"
    else:
        defect = _graded_defect(w, n)
    if defect is not None:
        raise VerificationError(f"weight filtration: {defect}")
    return w


def weight_filtration_defect(w: IncFiltration, n: Mat) -> str | None:
    """Why W is not the weight filtration of N centered at 0, or None.

    W(N) is the unique finite exhaustive increasing filtration with
    N W_l ⊆ W_{l-2} and N^l : gr_l ≅ gr_{-l} for every l >= 1 (Deligne,
    Weil II, Publ. Math. IHÉS 52 (1980), 1.6.1), so a candidate passes
    exactly when it equals W(N) and none needs to be built.  N^n = 0 on
    C^n, so W(N) has W_{-n} = 0 and W_{n-1} = C^n.  N W_l ⊆ W_{l-2} is
    checked for l from -n to W's last jump (its first full level), and at
    most n; level l takes the step and a smaller target from the largest
    jump j <= l, or from -n if j < -n.  gr_l and gr_{-l} are compared at
    l = |j| for the jumps j of W with 0 < |j| < n: at any other l both are
    0, and N^l W_l lies in W_{-l} = W_{-l-1} once N lowers W by two.
    N^l is read off N's :meth:`~hodgelim.matrices.Mat.ladder`.
    """
    if n.shape != (w.ambient, w.ambient):
        raise ValueError(f"N of shape {n.shape} does not act on the "
                         f"filtered space of dimension {w.ambient}")
    dim = w.ambient
    jumps = w.jumps()
    levels = ({max(j, -dim) for j in jumps if j <= dim}
              if jumps and jumps[-1] >= -dim else ())
    if not w.lowered_by((n,), 2, levels):
        return "N does not lower the level by two"
    return _graded_defect(w, n)


def _graded_defect(w: IncFiltration, n: Mat) -> str | None:
    """Why N^l does not map gr_l onto gr_{-l} for every l >= 1, or None,
    for an N that lowers W by two: the second half of
    :func:`weight_filtration_defect`."""
    dim = w.ambient
    if not (w.at(-dim).is_zero() and w.at(dim - 1).is_full()):
        return "graded dimensions are not symmetric"
    graded = sorted({abs(j) for j in w.jumps() if 0 < abs(j) < dim})
    powers = n.ladder() if graded else ()
    for l in graded:
        wl, wl1 = w.at(l), w.at(l - 1)
        wm, wm1 = w.at(-l), w.at(-l - 1)
        if wl.dim - wl1.dim != wm.dim - wm1.dim:
            return "graded dimensions are not symmetric"
        # N^l W_l + W_{-l-1} from one elimination of both spanning sets
        pushed = Subspace.from_triples(
            wl.image_rows(powers[min(l, len(powers) - 1)]) + wm1.rows, dim)
        if pushed != wm:
            return "N^l not surjective onto the opposite graded piece"
    return None


# ---------------------------------------------------------------------------
# bigradings and pure Hodge structures
# ---------------------------------------------------------------------------

class Bigrading:
    """A direct-sum decomposition indexed by pairs (p, q)."""

    __slots__ = ("pieces", "ambient")

    def __init__(self, pieces: Mapping[tuple[int, int], Subspace],
                 total: Subspace | None = None):
        pieces = {pq: s for pq, s in pieces.items() if not s.is_zero()}
        if not pieces:
            raise ValueError("empty bigrading")
        ambients = {s.ambient for s in pieces.values()}
        if len(ambients) != 1:
            raise ValueError("bigrading pieces in different ambient spaces")
        ambient = ambients.pop()
        if total is None:
            total = Subspace.full(ambient)
        parts = [pieces[pq] for pq in sorted(pieces)]
        if not direct_sum_equals(parts, total):
            raise VerificationError("bigrading pieces do not decompose the "
                                    "total space")
        self.pieces = {pq: pieces[pq] for pq in sorted(pieces)}
        self.ambient = ambient

    def piece(self, p: int, q: int) -> Subspace:
        return self.pieces.get((p, q), Subspace.zero(self.ambient))

    def dims(self) -> dict[tuple[int, int], int]:
        return {pq: s.dim for pq, s in self.pieces.items()}

    def support(self) -> list[tuple[int, int]]:
        return list(self.pieces)

    def sum_where(self, test) -> Subspace:
        """Sum of the pieces whose index (p, q) passes ``test(p, q)``."""
        return Subspace.from_triples(
            [r for (p, q), s in self.pieces.items() if test(p, q)
             for r in s.rows], self.ambient)

    def row(self, a: int) -> Subspace:
        """Sum of the pieces with first index a."""
        return self.sum_where(lambda p, q: p == a)

    def __eq__(self, other):
        if not isinstance(other, Bigrading):
            return NotImplemented
        return self.ambient == other.ambient and self.pieces == other.pieces


class HodgeStructure:
    """A pure Hodge structure of some weight on C^n (standard real form)."""

    __slots__ = ("weight", "bigrading")

    def __init__(self, weight: int, bigrading: Bigrading):
        for p, q in bigrading.support():
            if p + q != weight:
                raise ValueError(f"piece ({p},{q}) has the wrong weight")
        for (p, q), s in bigrading.pieces.items():
            if s.conj() != bigrading.piece(q, p):
                raise VerificationError(
                    f"conjugate of piece ({p},{q}) is not piece ({q},{p})")
        self.weight = weight
        self.bigrading = bigrading

    def hodge_numbers(self) -> dict[tuple[int, int], int]:
        return self.bigrading.dims()

    def __repr__(self):
        h = ", ".join(f"h{pq}={d}" for pq, d in sorted(self.hodge_numbers().items()))
        return f"HodgeStructure(weight {self.weight}, {h})"


def hs_from_filtration(f: DecFiltration, weight: int) -> HodgeStructure:
    """Recover the Hodge decomposition H^{p,q} = F^p ∩ conj(F^q).

    Raises VerificationError when F does not define a weight-``weight``
    Hodge structure (pieces fail to span or to be conjugate-symmetric).
    p and q stop at F's last jump j1, past which F is 0.  Up to its first
    jump j0 F is whole, so each p in [weight - j0, j0] gives the whole
    space as a piece; two of them cannot decompose it, so the walk stops
    at the second.
    """
    jumps = f.jumps()
    fbar = f.conj()
    pieces = {}
    walk = ()
    if jumps:
        j0, j1 = jumps[0], jumps[-1]
        walk = range(weight - j1,
                     weight - j0 + 2 if weight - j0 < j0 else j1 + 1)
    for p in walk:
        q = weight - p
        h = f.at(p) & fbar.at(q)
        if not h.is_zero():
            pieces[(p, q)] = h
    if not pieces:
        raise VerificationError("no Hodge pieces found")
    try:
        bigr = Bigrading(pieces)
    except VerificationError as e:
        raise VerificationError(f"filtration is not a weight-{weight} "
                                f"Hodge filtration: {e}") from None
    return HodgeStructure(weight, bigr)


_I_POWERS = (T_ONE, T_I, t_neg(T_ONE), t_neg(T_I))


def _hodge_basis(pieces) -> tuple[list[TVec], list[TVec]]:
    """The rows b of the pieces ((p, q), S), in order, and their images
    C b = i^(p-q) b under the Weil operator."""
    basis, weil = [], []
    for (p, q), s in pieces:
        c = _I_POWERS[(p - q) % 4]
        for v in s.rows:
            basis.append(v)
            weil.append(tuple(t_mul(c, e) for e in v))
    return basis, weil


def polarization_gram(hs: HodgeStructure, q: BilForm) -> Mat:
    """Gram matrix of (u, v) -> Q(C u, conj v) in the piecewise Hodge basis."""
    basis, weil = _hodge_basis(hs.bigrading.pieces.items())
    return q.gram_rows(weil, t_conj_mat(basis))


def first_relation_holds(f: DecFiltration, weight: int, q: BilForm) -> bool:
    """Whether Q(F^a, F^(k-a+1)) = 0 for every a, with k the weight.
    It is asked at F's jumps a: at the next jump j up, F^j = F^a and
    F^(k-j+1) ⊇ F^(k-a+1)."""
    return all(q.orthogonal(f.at(a), f.at(weight - a + 1))
               for a in f.jumps())


def verify_phs(f: DecFiltration, weight: int, q: BilForm) -> Report:
    """Check that (F, Q) is a polarized Hodge structure of the given weight."""
    rep = Report(f"polarized Hodge structure (weight {weight})")
    rep.add("form parity matches weight", q.parity == weight % 2,
            parity=q.parity)
    rep.add("form is real", q.is_real())
    if q.dim != f.ambient:
        rep.add("form and filtration dimensions agree", False,
                form=q.dim)
        return rep
    try:
        hs = hs_from_filtration(f, weight)
    except VerificationError as e:
        rep.add("Hodge decomposition", False, reason=str(e))
        return rep
    rep.add("Hodge decomposition", True, dims=hs.hodge_numbers())
    rep.data["hodge_numbers"] = {f"{p},{qq}": d
                                 for (p, qq), d in hs.hodge_numbers().items()}
    rep.add("F^a orthogonal to F^(k-a+1)", first_relation_holds(f, weight, q))
    rep.add("Q(C u, conj v) positive definite",
            hermitian_positive_definite(polarization_gram(hs, q)))
    return rep

