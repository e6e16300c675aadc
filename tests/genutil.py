"""Shared generators for randomized structure tests.

A "split" mixed Hodge structure is assembled from standard-basis pieces:
each type (p, p) takes one real coordinate, each pair (p, q)/(q, p) with
p > q takes two (spanning u = x + iy and its conjugate).  The canonical
bigrading of such a structure is known by construction, and transporting
everything by a real invertible matrix must transport the bigrading the
same way — that gives an oracle with no circularity.
"""
import random
from collections import Counter

from hodgelim.errors import VerificationError
from hodgelim.filtrations import (Bigrading, DecFiltration, HodgeStructure,
                                  IncFiltration)
from hodgelim.forms import BilForm
from hodgelim.matrices import Mat
from hodgelim.mixed import graded_filtration, graded_piece
from hodgelim.reports import Report
from hodgelim.scalars import GR, I
from hodgelim.subspaces import Subspace

PIECE_POOL = [(0, 0), (1, 0), (1, 1), (2, 0), (2, 1), (2, 2), (3, 1), (3, 2)]


def make_split_mhs(rng: random.Random, max_real_dim: int = 8):
    """Random split MHS: returns (W, F, pieces) with known bigrading."""
    chosen = []
    total = 0
    while True:
        p, q = rng.choice(PIECE_POOL)
        cost = 1 if p == q else 2
        if total + cost > max_real_dim:
            if total > 0:
                break
            continue
        chosen.append((p, q))
        total += cost
        if total >= max_real_dim or (total >= 2 and rng.random() < 0.3):
            break
    n = total
    vectors = {}  # (p, q) -> list of vectors
    idx = 0

    def basis(i):
        return tuple(GR(1) if j == i else GR(0) for j in range(n))

    for (p, q) in chosen:
        if p == q:
            vectors.setdefault((p, p), []).append(basis(idx))
            idx += 1
        else:
            x, y = basis(idx), basis(idx + 1)
            u = tuple(a + I * b for a, b in zip(x, y))
            ubar = tuple(a - I * b for a, b in zip(x, y))
            vectors.setdefault((p, q), []).append(u)
            vectors.setdefault((q, p), []).append(ubar)
            idx += 2

    pieces = {pq: Subspace.span(vs, n) for pq, vs in vectors.items()}
    weights = sorted({p + q for p, q in vectors})
    wsteps = {}
    for l in weights:
        vs = [v for (p, q), lst in vectors.items() if p + q <= l for v in lst]
        wsteps[l] = Subspace.span(vs, n)
    fsteps = {}
    for a in range(0, max(p for p, _ in vectors) + 2):
        vs = [v for (p, q), lst in vectors.items() if p >= a for v in lst]
        fsteps[a] = Subspace.span(vs, n)
    return IncFiltration(wsteps), DecFiltration(fsteps), pieces


def move(g: Mat, *things) -> list:
    """``things`` in the coordinates x' = g x, in the order given.

    A form with matrix M gets the matrix g^-T M g^-1, an operator X becomes
    g X g^-1, and a subspace or a filtration its image under g.
    """
    gi = g.inverse()

    def moved(x):
        if isinstance(x, BilForm):
            return BilForm(gi.transpose() @ x.matrix @ gi, x.parity)
        if isinstance(x, Mat):
            return g @ x @ gi
        return x.map_by(g)
    return [moved(x) for x in things]


def transport_mhs(w, f, pieces, g: Mat):
    """Push a split MHS forward along an invertible matrix."""
    w2, f2, *moved = move(g, w, f, *pieces.values())
    return w2, f2, dict(zip(pieces, moved))


def random_real_invertible(n: int, rng: random.Random) -> Mat:
    while True:
        m = Mat([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
        try:
            m.inverse()
            return m
        except ZeroDivisionError:
            continue


def count_calls(monkeypatch, methods) -> Counter:
    """Count the calls of each (class, name) in ``methods`` by name."""
    calls = Counter()
    for cls, name in methods:
        real = getattr(cls, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(cls, name, counted)
    return calls


# ---------------------------------------------------------------------------
# reference mixed Hodge checks
# ---------------------------------------------------------------------------
# The earlier implementations, which walk each filtration's listed indices
# and build the graded route of ``verify_mhs`` whatever the splitting's
# outcome: oracles for the package's checks.

def weil_operator(hs: HodgeStructure) -> Mat:
    """The Weil operator C of a Hodge structure: i^(p-q) on H^{p,q}."""
    n = hs.bigrading.ambient
    basis, images = [], []
    for (p, q), s in hs.bigrading.pieces.items():
        piece = Mat.from_triples(s.rows, n)
        basis += piece.t
        images += (piece * (GR(1), I, GR(-1), -I)[(p - q) % 4]).t
    return (Mat.from_triples(tuple(images), n).transpose()
            @ Mat.from_triples(tuple(basis), n).transpose().inverse())


def ref_hs_from_filtration(f, weight):
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


def ref_deligne_bigrading(w, f):
    if w.ambient != f.ambient:
        raise ValueError("filtration ambient mismatch")
    fbar = f.conj()
    jumps = f.jumps()
    wmin = w.keys[0]
    pieces = {}
    for p in jumps:
        for q in jumps:
            l = p + q
            if w.at(l).is_zero():
                continue
            right = fbar.at(q) & w.at(l)
            i = 1
            while l - i - 1 >= wmin and q - i >= jumps[0]:
                right = right + (fbar.at(q - i) & w.at(l - i - 1))
                i += 1
            piece = (f.at(p) & w.at(l)) & right
            if not piece.is_zero():
                pieces[(p, q)] = piece
    if not pieces:
        raise VerificationError("no bigrading pieces found")
    try:
        bigr = Bigrading(pieces)
    except VerificationError:
        raise VerificationError(
            "(W, F) is not a mixed Hodge structure: canonical pieces do "
            "not decompose the space") from None
    # W and F rebuilt as whole filtrations, by partial sums of the pieces
    sums_w = IncFiltration({l: bigr.sum_where(lambda p, q: p + q <= l)
                            for l in {p + q for p, q in bigr.pieces}})
    if sums_w != w:
        raise VerificationError("canonical pieces do not rebuild W")
    sums_f = DecFiltration({a: bigr.sum_where(lambda p, q: p >= a)
                            for a in {p for p, _ in bigr.pieces}})
    if sums_f != f:
        raise VerificationError("canonical pieces do not rebuild F")
    for (p, q), s in bigr.pieces.items():
        lower = bigr.sum_where(lambda a, b: a < p and b < q)
        mirror = bigr.piece(q, p).conj()
        if not (s <= mirror + lower and mirror <= s + lower):
            raise VerificationError(
                f"piece ({p},{q}) not conjugate to ({q},{p}) modulo "
                "lower-index pieces")
    return bigr


def ref_verify_mhs(w, f):
    rep = Report("mixed Hodge structure")
    if w.ambient != f.ambient:
        rep.add("filtrations live on the same space", False)
        return rep
    real = rep.add("W is defined over R", w.is_conj_stable())
    bigr = None
    try:
        bigr = ref_deligne_bigrading(w, f)
        rep.add("canonical bigrading", True, dims=bigr.dims())
        rep.data["bigrading_dims"] = {f"{p},{q}": d
                                      for (p, q), d in bigr.dims().items()}
    except VerificationError as e:
        rep.add("canonical bigrading", False, reason=str(e))
    if not real:
        rep.add("graded pieces are pure Hodge structures", False,
                reason="W not conjugation-stable")
        return rep
    graded_ok = True
    graded_dims = {}
    reason = None
    for l in (*w.keys, w.keys[-1] + 1):
        quot = graded_piece(w, l)
        if quot.dim == 0:
            continue
        try:
            fl = graded_filtration(w, f, l)
            hs = ref_hs_from_filtration(fl, l)
        except VerificationError as e:
            graded_ok = False
            reason = f"gr_{l}: {e}"
            break
        for (p, q), d in hs.hodge_numbers().items():
            graded_dims[(p, q)] = d
    if reason:
        rep.add("graded pieces are pure Hodge structures", False,
                reason=reason)
    else:
        rep.add("graded pieces are pure Hodge structures", graded_ok,
                dims=graded_dims)
    if bigr is not None and graded_ok:
        rep.add("graded Hodge numbers match the bigrading",
                graded_dims == bigr.dims())
    return rep
