"""Filtrations, bigradings, and pure polarized Hodge structures.

Conventions.  A decreasing filtration ``F`` is given by steps at integer
indices; between listed indices it takes the value at the next listed index
up, below its support it is the whole space and above it is zero.  An
increasing filtration ``W`` is dual: value at the largest listed index not
above the query, zero below the support, everything above it.

``shift(W, s)`` is the filtration with ``shift(W, s)_j = W_{j+s}``.

The weight filtration of a nilpotent endomorphism is produced by a closed
formula and then *re-verified* against its two defining properties on every
call, so a bug in the formula cannot slip through silently.
"""
from __future__ import annotations

from typing import Mapping

from .endo import maps_into, solve_in_span
from .errors import VerificationError
from .forms import BilForm, hermitian_positive_definite
from .matrices import Mat
from .reports import Report
from .scalars import I as IMAG
from .subspaces import Subspace, direct_sum_equals, image, kernel


def _validate_steps(steps: Mapping[int, Subspace], decreasing: bool):
    if not steps:
        raise ValueError("a filtration needs at least one step")
    ambients = {s.ambient for s in steps.values()}
    if len(ambients) != 1:
        raise ValueError("filtration steps in different ambient spaces")
    keys = sorted(steps)
    for a, b in zip(keys, keys[1:]):
        lo, hi = (steps[b], steps[a]) if decreasing else (steps[a], steps[b])
        if not lo <= hi:
            raise ValueError(f"steps at {a} and {b} are not nested")
    return keys, ambients.pop()


class DecFiltration:
    """A decreasing exhaustive filtration F^j of C^n."""

    __slots__ = ("steps", "keys", "ambient")

    def __init__(self, steps: Mapping[int, Subspace]):
        keys, ambient = _validate_steps(steps, decreasing=True)
        self.steps = {k: steps[k] for k in keys}
        self.keys = keys
        self.ambient = ambient

    def at(self, j: int) -> Subspace:
        if j > self.keys[-1]:
            return Subspace.zero(self.ambient)
        if j < self.keys[0]:
            return Subspace.full(self.ambient)
        for k in self.keys:
            if k >= j:
                return self.steps[k]
        raise AssertionError

    def support(self) -> list[int]:
        return list(self.keys)

    def __eq__(self, other):
        if not isinstance(other, DecFiltration):
            return NotImplemented
        if self.ambient != other.ambient:
            return False
        probes = set(self.keys) | set(other.keys)
        probes |= {min(probes) - 1, max(probes) + 1}
        return all(self.at(j) == other.at(j) for j in probes)

    def conj(self) -> "DecFiltration":
        return DecFiltration({k: s.conj() for k, s in self.steps.items()})

    def is_conj_stable(self) -> bool:
        return all(s.is_conj_stable() for s in self.steps.values())

    def map_by(self, g: Mat) -> "DecFiltration":
        return DecFiltration({k: s.map_by(g) for k, s in self.steps.items()})

    def __repr__(self):
        dims = ", ".join(f"{k}:{s.dim}" for k, s in self.steps.items())
        return f"DecFiltration({dims})"


class IncFiltration:
    """An increasing exhaustive filtration W_j of C^n."""

    __slots__ = ("steps", "keys", "ambient")

    def __init__(self, steps: Mapping[int, Subspace]):
        keys, ambient = _validate_steps(steps, decreasing=False)
        self.steps = {k: steps[k] for k in keys}
        self.keys = keys
        self.ambient = ambient

    def at(self, j: int) -> Subspace:
        if j < self.keys[0]:
            return Subspace.zero(self.ambient)
        if j > self.keys[-1]:
            return Subspace.full(self.ambient)
        for k in reversed(self.keys):
            if k <= j:
                return self.steps[k]
        raise AssertionError

    def support(self) -> list[int]:
        return list(self.keys)

    def shift(self, s: int) -> "IncFiltration":
        """The filtration j -> W_{j+s}."""
        return IncFiltration({k - s: v for k, v in self.steps.items()})

    def __eq__(self, other):
        if not isinstance(other, IncFiltration):
            return NotImplemented
        if self.ambient != other.ambient:
            return False
        probes = set(self.keys) | set(other.keys)
        probes |= {min(probes) - 1, max(probes) + 1}
        return all(self.at(j) == other.at(j) for j in probes)

    def conj(self) -> "IncFiltration":
        return IncFiltration({k: s.conj() for k, s in self.steps.items()})

    def is_conj_stable(self) -> bool:
        return all(s.is_conj_stable() for s in self.steps.values())

    def map_by(self, g: Mat) -> "IncFiltration":
        return IncFiltration({k: s.map_by(g) for k, s in self.steps.items()})

    def __repr__(self):
        dims = ", ".join(f"{k}:{s.dim}" for k, s in self.steps.items())
        return f"IncFiltration({dims})"


def shift_filtration(w: IncFiltration, s: int) -> IncFiltration:
    return w.shift(s)


def weight_filtration(n: Mat) -> IncFiltration:
    """The monodromy weight filtration of a nilpotent matrix, centered at 0.

    Built by the closed formula W_l = sum_i (ker N^(l+i+1) ∩ im N^i) and
    then checked against the two properties that characterize it:
    N W_l ⊆ W_{l-2}, and N^l induces an isomorphism gr_l -> gr_{-l}.
    """
    if not n.is_square():
        raise ValueError("weight filtration of a non-square matrix")
    dim = n.nrows
    powers = [Mat.identity(dim)]
    d = None
    for t in range(1, dim + 2):
        powers.append(powers[-1] @ n)
        if powers[-1].is_zero():
            d = t
            break
    if d is None:
        raise ValueError("matrix is not nilpotent")
    k0 = d - 1
    kernels = {t: kernel(powers[t]) for t in range(1, d)}
    kernels[d] = Subspace.full(dim)
    images = {i: image(powers[i]) for i in range(1, d)}
    images[0] = Subspace.full(dim)

    steps = {}
    for l in range(-k0, k0 + 1):
        acc = Subspace.zero(dim)
        for i in range(0, d):
            t = l + i + 1
            if t <= 0:
                continue
            term = images[i] if t >= d else (kernels[t] & images[i])
            acc = acc + term
        steps[l] = acc
    w = IncFiltration(steps)

    # self-check: the defining properties of the weight filtration
    for l in range(-k0, k0 + 1):
        if not w.at(l).map_by(n) <= w.at(l - 2):
            raise VerificationError("weight filtration: N does not lower "
                                    "the level by two")
    for l in range(1, k0 + 1):
        wl, wl1 = w.at(l), w.at(l - 1)
        wm, wm1 = w.at(-l), w.at(-l - 1)
        if wl.dim - wl1.dim != wm.dim - wm1.dim:
            raise VerificationError("weight filtration: graded dimensions "
                                    "are not symmetric")
        pushed = wl.map_by(powers[l]) + wm1
        if pushed != wm:
            raise VerificationError("weight filtration: N^l not surjective "
                                    "onto the opposite graded piece")
    return w


# ---------------------------------------------------------------------------
# bigradings and pure Hodge structures
# ---------------------------------------------------------------------------

class Bigrading:
    """A direct-sum decomposition indexed by pairs (p, q)."""

    __slots__ = ("pieces", "ambient", "total")

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
        self.total = total

    def piece(self, p: int, q: int) -> Subspace:
        return self.pieces.get((p, q), Subspace.zero(self.ambient))

    def dims(self) -> dict[tuple[int, int], int]:
        return {pq: s.dim for pq, s in self.pieces.items()}

    def support(self) -> list[tuple[int, int]]:
        return list(self.pieces)

    def row(self, a: int) -> Subspace:
        """Sum of the pieces with first index a."""
        acc = Subspace.zero(self.ambient)
        for (p, _), s in self.pieces.items():
            if p == a:
                acc = acc + s
        return acc

    def weight_sums(self) -> IncFiltration:
        """W_l = sum of pieces with p + q <= l."""
        levels = sorted({p + q for p, q in self.pieces})
        steps = {}
        acc = Subspace.zero(self.ambient)
        idx = 0
        flat = sorted(self.pieces.items(), key=lambda kv: kv[0][0] + kv[0][1])
        for l in levels:
            while idx < len(flat) and sum(flat[idx][0]) <= l:
                acc = acc + flat[idx][1]
                idx += 1
            steps[l] = acc
        return IncFiltration(steps)

    def first_index_sums(self) -> DecFiltration:
        """F^a = sum of pieces with p >= a."""
        indices = sorted({p for p, _ in self.pieces})
        steps = {}
        for a in indices:
            acc = Subspace.zero(self.ambient)
            for (p, _), s in self.pieces.items():
                if p >= a:
                    acc = acc + s
            steps[a] = acc
        return DecFiltration(steps)

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

    @property
    def ambient(self) -> int:
        return self.bigrading.ambient

    def hodge_numbers(self) -> dict[tuple[int, int], int]:
        return self.bigrading.dims()

    def piece(self, p: int, q: int) -> Subspace:
        return self.bigrading.piece(p, q)

    def filtration(self) -> DecFiltration:
        return self.bigrading.first_index_sums()

    def __repr__(self):
        h = ", ".join(f"h{pq}={d}" for pq, d in sorted(self.hodge_numbers().items()))
        return f"HodgeStructure(weight {self.weight}, {h})"


def hs_from_filtration(f: DecFiltration, weight: int) -> HodgeStructure:
    """Recover the Hodge decomposition H^{p,q} = F^p ∩ conj(F^q).

    Raises VerificationError when F does not define a weight-``weight``
    Hodge structure (pieces fail to span or to be conjugate-symmetric).
    """
    smax = f.support()[-1]
    fbar = f.conj()
    pieces = {}
    for p in range(weight - smax, smax + 1):
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


def weil_operator(hs: HodgeStructure) -> Mat:
    """The operator acting as i^(p-q) on each Hodge piece."""
    cols = []
    diag = []
    for (p, q), s in hs.bigrading.pieces.items():
        for v in s.basis_vectors():
            cols.append(v)
            diag.append(IMAG ** ((p - q) % 4))
    b = Mat.from_columns(cols)
    d = Mat([[diag[i] if i == j else 0 for j in range(len(diag))]
             for i in range(len(diag))])
    return b @ d @ b.inverse()


def polarization_gram(hs: HodgeStructure, q: BilForm) -> Mat:
    """Gram matrix of (u, v) -> Q(C u, conj v) in the piecewise Hodge basis."""
    basis = []
    weil = []
    for (p, qq), s in hs.bigrading.pieces.items():
        for v in s.basis_vectors():
            basis.append(v)
            weil.append(IMAG ** ((p - qq) % 4))
    m = q.matrix
    bmat = Mat.from_columns(basis)
    conj_b = bmat.conj()
    cw = Mat.from_columns([[weil[j] * x for x in bmat.col(j)]
                           for j in range(len(basis))])
    return cw.transpose() @ m @ conj_b


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

    smax = f.support()[-1]
    ortho = True
    for a in range(weight + 1 - smax, smax + 1):
        fa, fb = f.at(a), f.at(weight - a + 1)
        if fa.is_zero() or fb.is_zero():
            continue
        if not q.orthogonal(fa, fb):
            ortho = False
            break
    rep.add("F^a orthogonal to F^(k-a+1)", ortho)

    gram = polarization_gram(hs, q)
    rep.add("Q(C u, conj v) positive definite",
            hermitian_positive_definite(gram))
    return rep


def operator_filtration(f: DecFiltration, algebra: Subspace) -> DecFiltration:
    """Degree filtration induced on a space of operators.

    Step a is {X in algebra : X F^p ⊆ F^(p+a) for all p}.  The bottom
    listed step equals the whole input algebra (the filtration saturates
    there); queries below the listed support fall back to the generic
    "whole ambient" semantics, which for operator spaces means all of
    End(V), so stay within the listed support.
    """
    n = f.ambient
    if algebra.ambient != n * n:
        raise ValueError("algebra is not a space of operators on the "
                         "filtered space")
    smin, smax = f.keys[0], f.keys[-1]
    probes = list(range(smin - 1, smax + 1))
    bases = {p: f.at(p) for p in probes}
    steps = {}
    for a in range((smin - 1) - smax, (smax - smin) + 2):
        steps[a] = solve_in_span(algebra, n, maps_into(
            [(v, f.at(p + a)) for p in probes for v in bases[p].rows], n))
    return DecFiltration(steps)
