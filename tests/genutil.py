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

from hodgelim.filtrations import DecFiltration, IncFiltration
from hodgelim.forms import BilForm
from hodgelim.matrices import Mat
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
