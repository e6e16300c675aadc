"""Constructions with certified dimensions.

Everything here is assembled from *strings*: cyclic chains for a nilpotent
shift, each carrying its own pairing.  A real chain R(p) has a top piece
of type (p, p); a complex chain C(p, q) with p > q contributes conjugate
pieces (p-c, q-c) and (q-c, p-c) down its length.  The string model keeps
the complex basis, the pairing, the filtration and the standard shift in
one place, and completes block prescriptions of pure degree into honest
infinitesimal isometries (each block forces a partner block through the
pairing).

On top of the model: the maximal-family builders for weight 2, the
Hodge--Tate orbits and their symmetric enlargements, the closed-form
dimension bounds, and the weight-2 catalog of rank (3, 3) examples.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import VerificationError
from .filtrations import DecFiltration
from .forms import BilForm, in_isometry_algebra
from .matrices import Mat
from .orbits import IVI, NilpotentCone, NilpotentOrbit
from .scalars import GR, I
from .subspaces import Subspace


def _ipow(m: int) -> GR:
    return (GR(1), I, GR(-1), -I)[m % 4]


# ---------------------------------------------------------------------------
# string models
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Entry:
    """One complex basis vector: its real coordinates and its type."""

    index: int
    vec: tuple
    p: int
    q: int
    string: int
    level: int


class StringModel:
    """A polarized weight-k space built from shift strings.

    ``specs`` is a sequence of ("R", p) and ("C", p, q) items (p > q for C).
    Real coordinates are allocated string by string; the complex basis
    enumerates each R chain top to bottom, then each C chain's u-vectors
    followed by their conjugates.  Piece membership order follows the
    spec order, which the builders below rely on.
    """

    def __init__(self, weight: int, specs):
        self.weight = weight
        self.specs = tuple(tuple(s) for s in specs)
        entries: list[_Entry] = []
        dim = 0
        for spec in self.specs:
            if spec[0] == "R":
                dim += 2 * spec[1] - weight + 1
            elif spec[0] == "C":
                p, q = spec[1], spec[2]
                if p <= q:
                    raise ValueError("C strings need p > q")
                dim += 2 * (p + q - weight + 1)
            else:
                raise ValueError(f"unknown string kind {spec[0]!r}")
        if dim == 0:
            raise ValueError("empty string model")
        self.dim = dim

        def unit(i):
            return tuple(GR(1) if j == i else GR(0) for j in range(dim))

        base = 0
        for s_idx, spec in enumerate(self.specs):
            if spec[0] == "R":
                p = spec[1]
                length = 2 * p - weight
                if length < 0:
                    raise ValueError("string sticks out below the weight")
                for c in range(length + 1):
                    entries.append(_Entry(len(entries), unit(base + c),
                                          p - c, p - c, s_idx, c))
                base += length + 1
            else:
                p, q = spec[1], spec[2]
                length = p + q - weight
                if length < 0:
                    raise ValueError("string sticks out below the weight")
                for c in range(length + 1):
                    x, y = unit(base + 2 * c), unit(base + 2 * c + 1)
                    u = tuple(a + I * b for a, b in zip(x, y))
                    entries.append(_Entry(len(entries), u,
                                          p - c, q - c, s_idx, c))
                for c in range(length + 1):
                    x, y = unit(base + 2 * c), unit(base + 2 * c + 1)
                    ubar = tuple(a - I * b for a, b in zip(x, y))
                    entries.append(_Entry(len(entries), ubar,
                                          q - c, p - c, s_idx, c))
                base += 2 * (length + 1)
        self.entries = entries
        self.members: dict[tuple[int, int], list[int]] = {}
        for e in entries:
            self.members.setdefault((e.p, e.q), []).append(e.index)

        self.basis = Mat.from_columns([e.vec for e in entries])
        self._basis_inv = self.basis.inverse()
        self._gram = self._build_gram()
        m = self._basis_inv.transpose() @ self._gram @ self._basis_inv
        if not m.is_real():
            raise VerificationError("string pairing did not close over R")
        self.form = BilForm(m, parity=weight % 2)
        self.n_std = self._build_shift()
        self.filtration = self._build_filtration()

    # -- assembly ----------------------------------------------------------

    def _build_gram(self) -> Mat:
        g = [[GR(0)] * self.dim for _ in range(self.dim)]
        per_string: dict[int, list[_Entry]] = {}
        for e in self.entries:
            per_string.setdefault(e.string, []).append(e)
        for s_idx, spec in enumerate(self.specs):
            es = per_string[s_idx]
            if spec[0] == "R":
                length = len(es) - 1
                for e in es:
                    partner = es[length - e.level]
                    g[e.index][partner.index] = GR((-1) ** e.level)
            else:
                p, q = spec[1], spec[2]
                half = len(es) // 2
                us, ubars = es[:half], es[half:]
                length = half - 1
                for c in range(half):
                    g[us[c].index][ubars[length - c].index] = \
                        GR((-1) ** c) * _ipow(q - p)
                    g[ubars[c].index][us[length - c].index] = \
                        GR((-1) ** c) * _ipow(p - q)
        return Mat(g)

    def _build_shift(self) -> Mat:
        rows = [[GR(0)] * self.dim for _ in range(self.dim)]
        base = 0
        for spec in self.specs:
            if spec[0] == "R":
                length = 2 * spec[1] - self.weight
                for c in range(length):
                    rows[base + c + 1][base + c] = GR(1)
                base += length + 1
            else:
                length = spec[1] + spec[2] - self.weight
                for c in range(length):
                    rows[base + 2 * c + 2][base + 2 * c] = GR(1)
                    rows[base + 2 * c + 3][base + 2 * c + 1] = GR(1)
                base += 2 * (length + 1)
        return Mat(rows)

    def _build_filtration(self) -> DecFiltration:
        firsts = sorted({e.p for e in self.entries})
        steps = {}
        for a in firsts:
            vecs = [e.vec for e in self.entries if e.p >= a]
            steps[a] = Subspace.span(vecs, self.dim)
        return DecFiltration(steps)

    # -- queries -----------------------------------------------------------

    def piece(self, p: int, q: int) -> Subspace:
        ids = self.members.get((p, q), [])
        return Subspace.span([self.entries[i].vec for i in ids], self.dim)

    def piece_dim(self, p: int, q: int) -> int:
        return len(self.members.get((p, q), []))

    def gram_block(self, left: tuple[int, int],
                   right: tuple[int, int]) -> Mat:
        li = self.members.get(left, [])
        ri = self.members.get(right, [])
        return Mat([[self._gram[i, j] for j in ri] for i in li]) \
            if li and ri else Mat.zeros(len(li), len(ri))

    def dims(self) -> dict[tuple[int, int], int]:
        return {pq: len(ids) for pq, ids in sorted(self.members.items())}

    # -- pure-degree elements with forced partner blocks -------------------

    def element(self, degree: tuple[int, int], blocks) -> Mat:
        """Complete block data of pure degree into an isometry element.

        ``blocks`` maps a source piece (p, q) to its block matrix (rows
        indexed by the target piece (p+a, q+b), columns by the source).
        The pairing couples each block with one partner block on the dual
        pieces; partners are computed here and must not conflict with
        anything the caller supplied.  Self-paired blocks are checked.
        """
        a, b = degree
        k = self.weight
        resolved: dict[tuple[int, int], Mat] = {}

        def as_block(src, raw):
            tgt = (src[0] + a, src[1] + b)
            rows, cols = self.piece_dim(*tgt), self.piece_dim(*src)
            m = raw if isinstance(raw, Mat) else Mat(raw)
            if m.shape != (rows, cols):
                raise ValueError(
                    f"block at {src} has shape {m.shape}, needs "
                    f"({rows}, {cols})")
            return m

        given = {tuple(src): as_block(src, raw)
                 for src, raw in blocks.items()}
        for src, beta in given.items():
            if src in resolved:
                if resolved[src] != beta:
                    raise ValueError(f"conflicting blocks at {src}")
                continue
            resolved[src] = beta
            tgt = (src[0] + a, src[1] + b)
            partner_src = (k - src[0] - a, k - src[1] - b)
            partner_tgt = (k - src[0], k - src[1])
            if self.piece_dim(*partner_src) == 0:
                continue
            p_pair = self.gram_block(tgt, partner_src)
            r_pair = self.gram_block(src, partner_tgt)
            if partner_src == src:
                lhs = beta.transpose() @ p_pair + r_pair @ beta
                if not lhs.is_zero():
                    raise ValueError(
                        f"self-paired block at {src} violates the pairing")
                continue
            forced = -(r_pair.inverse() @ beta.transpose() @ p_pair)
            prior = given.get(partner_src)
            if prior is not None and prior != forced:
                raise ValueError(
                    f"block given at {partner_src} conflicts with the "
                    f"partner forced by {src}")
            resolved[partner_src] = forced

        xc = [[GR(0)] * self.dim for _ in range(self.dim)]
        for src, beta in resolved.items():
            tgt = (src[0] + a, src[1] + b)
            for ti, ei in enumerate(self.members.get(tgt, [])):
                for si, ej in enumerate(self.members[src]):
                    xc[ei][ej] = beta[ti, si]
        x = self.basis @ Mat(xc) @ self._basis_inv
        if not in_isometry_algebra(x, self.form):
            raise VerificationError(
                "level operator does not preserve the form infinitesimally")
        return x


def _unit_block(rows: int, cols: int, i: int, j: int) -> Mat:
    m = [[0] * cols for _ in range(rows)]
    m[i][j] = 1
    return Mat(m)


def _column_block(column, cols: int, j: int) -> Mat:
    return Mat([[column[i] if jj == j else 0 for jj in range(cols)]
                for i in range(len(column))])


# ---------------------------------------------------------------------------
# dimension tables
# ---------------------------------------------------------------------------

class DimTable:
    """Prescribed piece dimensions for a limit bigrading of given weight.

    The table must be symmetric under (p, q) -> (q, p) (realness) and
    (p, q) -> (k - q, k - p) (the pairing); ``complete`` fills an orbit
    from one representative.  ``strings`` decomposes a valid table into
    shift strings, which is exactly realizability.
    """

    def __init__(self, weight: int, entries):
        self.weight = weight
        self.entries = {tuple(pq): int(v) for pq, v in entries.items()
                        if int(v) != 0}
        for pq, v in self.entries.items():
            if v < 0:
                raise ValueError(f"negative dimension at {pq}")

    def _orbit(self, p, q):
        k = self.weight
        return {(p, q), (q, p), (k - q, k - p), (k - p, k - q)}

    def complete(self) -> "DimTable":
        out = dict(self.entries)
        for (p, q), v in self.entries.items():
            for pq in self._orbit(p, q):
                if out.setdefault(pq, v) != v:
                    raise ValueError(
                        f"symmetry conflict between {(p, q)} and {pq}")
        return DimTable(self.weight, out)

    def hodge_numbers(self) -> dict[int, int]:
        """Row sums h^p = sum_b j^{p,b} of the completed table."""
        done = self.complete()
        out: dict[int, int] = {}
        for (p, _), v in done.entries.items():
            out[p] = out.get(p, 0) + v
        return out

    def total_dim(self) -> int:
        return sum(self.complete().entries.values())

    def strings(self):
        """Decompose into string specs; fails if the table is unrealizable."""
        done = self.complete().entries
        specs = []
        tops = sorted((pq for pq in done
                       if pq[0] >= pq[1] and pq[0] + pq[1] >= self.weight),
                      reverse=True)
        for (p, q) in tops:
            count = done.get((p, q), 0) - done.get((p + 1, q + 1), 0)
            if count < 0:
                raise VerificationError(
                    f"piece ({p},{q}) smaller than ({p + 1},{q + 1}): "
                    "no string decomposition")
            kind = ("R", p) if p == q else ("C", p, q)
            specs.extend([kind] * count)
        rebuilt: dict[tuple[int, int], int] = {}
        for spec in specs:
            if spec[0] == "R":
                p = spec[1]
                for c in range(2 * p - self.weight + 1):
                    pc = (p - c, p - c)
                    rebuilt[pc] = rebuilt.get(pc, 0) + 1
            else:
                p, q = spec[1], spec[2]
                for c in range(p + q - self.weight + 1):
                    for pc in ((p - c, q - c), (q - c, p - c)):
                        rebuilt[pc] = rebuilt.get(pc, 0) + 1
        if rebuilt != done:
            raise VerificationError("table is not a union of strings")
        return specs

    def model(self) -> StringModel:
        return StringModel(self.weight, self.strings())


# ---------------------------------------------------------------------------
# weight-2 maximal families
# ---------------------------------------------------------------------------

def cktm_bound_k2(h20: int, h11: int) -> int:
    """Largest dimension of an abelian horizontal family in weight two."""
    if h20 < 1 or h11 < 1:
        raise ValueError("Hodge numbers must be positive")
    if h20 == 1:
        return h11
    if h11 % 2:
        return h20 * (h11 - 1) // 2 + 1
    return h20 * h11 // 2


def build_max_ivi_k2(h20: int, h11: int) -> IVI:
    """A family attaining cktm_bound_k2, with its cone.

    The shape of the construction depends on the parity of h11 and on
    which of h11/2 and h20 is larger; every branch returns a family whose
    dimension is exactly the bound, verified downstream.
    """
    if h20 < 1 or h11 < 1:
        raise ValueError("Hodge numbers must be positive")

    if h20 == 1 and h11 == 1:
        # rigid pure case: one C(2,0) string plus a point of type (1,1)
        model = StringModel(2, [("C", 2, 0), ("R", 1)])
        phi = model.element((-1, 1), {(2, 0): [[1]]})
        orbit = NilpotentOrbit(2, model.form, model.filtration,
                               NilpotentCone(()))
        return IVI(orbit, (phi,))

    if h20 == 1:
        # one C(2,1) string, h11 - 2 points of type (1,1)
        s = h11 - 2
        model = StringModel(2, [("C", 2, 1)] + [("R", 1)] * s)
        family = [model.n_std,
                  model.element((-1, 1), {(2, 1): [[1]]})]
        for w in range(s):
            family.append(model.element(
                (-1, 0), {(2, 1): _unit_block(s, 1, w, 0)}))
        cone = NilpotentCone((model.n_std,))
        return IVI(NilpotentOrbit(2, model.form, model.filtration, cone),
                   tuple(family))

    m = (h11 - 1) // 2 if h11 % 2 else h11 // 2
    if h11 % 2 and m < h20:
        # h11 odd, small: m long strings, h20 - m short ones, one point
        model = StringModel(2, [("C", 2, 1)] * m
                            + [("C", 2, 0)] * (h20 - m) + [("R", 1)])
        family = _hom_into_long_ends(model, m, h20 - m)
        family.append(model.element(
            (-1, 1), {(2, 0): _unit_block(1, h20 - m, 0, 0)}))
        cone = NilpotentCone((model.n_std,))
        return IVI(NilpotentOrbit(2, model.form, model.filtration, cone),
                   tuple(family))
    if h11 % 2:
        # h11 odd, large: h20 long strings, s points; isotropic targets
        s = h11 - 2 * h20
        model = StringModel(2, [("C", 2, 1)] * h20 + [("R", 1)] * s)
        family = _hom_into_long_ends(model, h20, 0)
        family.extend(_hom_into_isotropic(model, h20, s, skip_first=True))
        family.append(model.element(
            (-1, 0), {(2, 1): _unit_block(s, h20, 0, 0)}))
        cone = NilpotentCone((model.n_std,))
        return IVI(NilpotentOrbit(2, model.form, model.filtration, cone),
                   tuple(family))
    if m <= h20:
        # h11 even, small: no (1,1) points at all
        model = StringModel(2, [("C", 2, 1)] * m + [("C", 2, 0)] * (h20 - m))
        family = _hom_into_long_ends(model, m, h20 - m)
        cone = NilpotentCone((model.n_std,))
        return IVI(NilpotentOrbit(2, model.form, model.filtration, cone),
                   tuple(family))
    # h11 even, large: pair up all the points
    s = h11 - 2 * h20
    model = StringModel(2, [("C", 2, 1)] * h20 + [("R", 1)] * s)
    family = _hom_into_long_ends(model, h20, 0)
    family.extend(_hom_into_isotropic(model, h20, s, skip_first=False))
    cone = NilpotentCone((model.n_std,))
    return IVI(NilpotentOrbit(2, model.form, model.filtration, cone),
               tuple(family))


def _hom_into_long_ends(model: StringModel, m: int, short: int) -> list[Mat]:
    """Degree (-1,-1) maps onto the (1,0) ends, from both string kinds."""
    family = []
    for i in range(m):
        for j in range(m):
            family.append(model.element(
                (-1, -1), {(2, 1): _unit_block(m, m, i, j)}))
    for i in range(m):
        for j in range(short):
            family.append(model.element(
                (-1, 0), {(2, 0): _unit_block(m, short, i, j)}))
    return family


def _hom_into_isotropic(model: StringModel, sources: int, s: int,
                        skip_first: bool) -> list[Mat]:
    """Maps from the (2,1) tops into an isotropic part of the points."""
    start = 1 if skip_first else 0
    kvecs = []
    for lo in range(start, s - 1, 2):
        kvecs.append(tuple(GR(1) if i == lo else
                           (I if i == lo + 1 else GR(0)) for i in range(s)))
    family = []
    for kv in kvecs:
        for j in range(sources):
            family.append(model.element(
                (-1, 0), {(2, 1): _column_block(kv, sources, j)}))
    return family


# ---------------------------------------------------------------------------
# Hodge--Tate orbits and symmetric families
# ---------------------------------------------------------------------------

def hodge_tate_orbit(k: int, n: int) -> NilpotentOrbit:
    """n independent full-length strings, in level-grouped coordinates.

    V = L_0 + ... + L_k with dim L_c = n; the form pairs L_c with L_{k-c}
    by (-1)^c, the filtration is F^a = L_0 + ... + L_{k-a}, and the cone
    is generated by the simultaneous shift L_c -> L_{c+1}.
    """
    if k < 1 or n < 1:
        raise ValueError("need k >= 1 and n >= 1")
    dim = n * (k + 1)
    q = [[0] * dim for _ in range(dim)]
    for c in range(k + 1):
        sign = (-1) ** c
        for i in range(n):
            q[c * n + i][(k - c) * n + i] = sign
    shift = [[0] * dim for _ in range(dim)]
    for c in range(k):
        for i in range(n):
            shift[(c + 1) * n + i][c * n + i] = 1
    steps = {}
    for a in range(0, k + 1):
        vecs = []
        for c in range(0, k - a + 1):
            for i in range(n):
                vecs.append(tuple(GR(1) if j == c * n + i else GR(0)
                                  for j in range(dim)))
        steps[a] = Subspace.span(vecs, dim)
    return NilpotentOrbit(k, BilForm(Mat(q), parity=k % 2),
                          DecFiltration(steps),
                          NilpotentCone((Mat(shift),)))


def level_operator_k2(n: int, a: Mat) -> Mat:
    """The horizontal operator with level maps (A, A^T) on a weight-2
    Hodge--Tate space: the pairing forces the second map to be the
    transpose of the first."""
    if a.shape != (n, n):
        raise ValueError("level map must be n x n")
    dim = 3 * n
    rows = [[GR(0)] * dim for _ in range(dim)]
    for i in range(n):
        for j in range(n):
            rows[n + i][j] = a[i, j]
            rows[2 * n + i][n + j] = a[j, i]
    return Mat(rows)


def diagonal_cone_orbit(d: int) -> NilpotentOrbit:
    """Weight-2 Hodge--Tate space on 2d strings, cone = the 2d projections.

    The cone spans the diagonal level maps; its centralizer among the
    horizontal operators is again the diagonals, so no abelian family
    containing this cone can exceed dimension 2d.
    """
    if d < 1:
        raise ValueError("need d >= 1")
    n = 2 * d
    base = hodge_tate_orbit(2, n)
    gens = []
    for a in range(n):
        e = Mat([[1 if (i == a and j == a) else 0 for j in range(n)]
                 for i in range(n)])
        gens.append(level_operator_k2(n, e))
    return NilpotentOrbit(2, base.form, base.filtration,
                          NilpotentCone(tuple(gens)))


def symmetric_family_ivi(d: int) -> IVI:
    """The d(d+1)/2 + 1 dimensional abelian family on 2d strings.

    Level maps A = a*I + [[iB, B], [B, -iB]] with B symmetric d x d; the
    products of two bracket terms vanish identically, so the family is
    abelian, and it contains the identity level map (the standard cone).
    """
    if d < 1:
        raise ValueError("need d >= 1")
    n = 2 * d
    base = hodge_tate_orbit(2, n)
    family = [base.cone.generators[0]]  # the identity level map
    for r in range(d):
        for c in range(r, d):
            b = [[GR(0)] * d for _ in range(d)]
            b[r][c] = GR(1)
            b[c][r] = GR(1)
            blk = [[GR(0)] * n for _ in range(n)]
            for i in range(d):
                for j in range(d):
                    blk[i][j] = I * b[i][j]
                    blk[i][d + j] = b[i][j]
                    blk[d + i][j] = b[i][j]
                    blk[d + i][d + j] = -I * b[i][j]
            family.append(level_operator_k2(n, Mat(blk)))
    return IVI(NilpotentOrbit(2, base.form, base.filtration, base.cone),
               tuple(family))


def max_dim_symmetric(n: int) -> int:
    """Best abelian-family dimension over all weight-2 Hodge--Tate orbits
    on n strings."""
    if n < 1:
        raise ValueError("need n >= 1")
    if n == 1:
        return 1
    alpha, beta = divmod(n, 2)
    return alpha * (alpha + 1) // 2 + beta + 1


def carlson_toledo_bound(n: int) -> int:
    """Classical rank bound for commuting symmetric systems; the family
    maximum exceeds it by exactly one for n > 1."""
    if n < 1:
        raise ValueError("need n >= 1")
    if n == 1:
        return 0
    alpha, beta = divmod(n, 2)
    return alpha * (alpha + 1) // 2 + beta


# ---------------------------------------------------------------------------
# the weight-2 catalog with Hodge numbers (3, 3)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CatalogRow:
    """One row: a limit type, its cones, a witness family, and the maximum."""

    label: str
    table: DimTable
    cones: tuple[NilpotentCone, ...]
    witness: IVI
    expected_max: int

    @property
    def orbit(self) -> NilpotentOrbit:
        return self.witness.orbit


def _row_pure() -> CatalogRow:
    # three short strings and three points; no nilpotent directions at all
    model = StringModel(2, [("C", 2, 0)] * 3 + [("R", 1)] * 3)
    kappa = (GR(1), I, GR(0))
    family = [model.element((-1, 1), {(2, 0): _column_block(kappa, 3, j)})
              for j in range(3)]
    family.append(model.element(
        (-1, 1), {(2, 0): _column_block((GR(0), GR(0), GR(1)), 3, 0)}))
    orbit = NilpotentOrbit(2, model.form, model.filtration,
                           NilpotentCone(()))
    return CatalogRow(
        "pure (no long strings)",
        DimTable(2, {(2, 0): 3, (1, 1): 3}),
        (NilpotentCone(()),),
        IVI(orbit, tuple(family)), 4)


def _row_one_long() -> CatalogRow:
    ivi = build_max_ivi_k2(3, 3)
    return CatalogRow(
        "one long string",
        DimTable(2, {(2, 1): 1, (2, 0): 2, (1, 1): 1}),
        (ivi.orbit.cone,), ivi, 4)


def _row_top_string() -> CatalogRow:
    # one full string, two short ones, two extra points
    model = StringModel(2, [("R", 2), ("C", 2, 0), ("C", 2, 0),
                            ("R", 1), ("R", 1)])

    def nx(x):
        return model.element((-1, -1), {(2, 2): _column_block(x, 1, 0)})

    w1, w2, w3 = (1, 0, 0), (0, 1, 0), (0, 0, 1)
    family = [nx(w1), nx(w2), nx(w3)]
    cones = (NilpotentCone((nx(w1),)),
             NilpotentCone((nx(w1), nx((1, 1, 0)))),
             NilpotentCone((nx(w1), nx((1, 1, 0)), nx((1, 0, 1)))))
    orbit = NilpotentOrbit(2, model.form, model.filtration, cones[-1])
    return CatalogRow(
        "full string with short companions",
        DimTable(2, {(2, 2): 1, (2, 0): 2, (1, 1): 3}),
        cones, IVI(orbit, tuple(family)), 3)


def _row_mixed_lengths() -> CatalogRow:
    # one string of every length
    model = StringModel(2, [("R", 2), ("C", 2, 1), ("C", 2, 0)])
    n1 = model.element((-1, -1), {(2, 2): [[1]]})
    n2 = model.element((-1, -1), {(2, 1): [[1]]})
    psi = model.element((-1, 1), {(2, 1): [[1]]})
    cones = (NilpotentCone((n1 + n2,)), NilpotentCone((n1, n2)))
    orbit = NilpotentOrbit(2, model.form, model.filtration, cones[-1])
    return CatalogRow(
        "one string of every length",
        DimTable(2, {(2, 2): 1, (2, 1): 1, (2, 0): 1, (1, 1): 1}),
        cones, IVI(orbit, (n1, n2, psi)), 3)


def _row_two_full() -> CatalogRow:
    # two full strings, one short, one point
    model = StringModel(2, [("R", 2), ("R", 2), ("C", 2, 0), ("R", 1)])

    def nb(c1, c2):
        cols = Mat([[c1[i], c2[i]] for i in range(3)])
        return model.element((-1, -1), {(2, 2): cols})

    w1, w2, w3 = (1, 0, 0), (0, 1, 0), (0, 0, 1)
    z = (0, 0, 0)
    b1, b2, b3 = nb(w1, z), nb(z, w2), nb((1, 0, 1), z)
    cones = (NilpotentCone((nb(w1, w2),)),
             NilpotentCone((b1, b2)),
             NilpotentCone((b1, b2, b3)))
    orbit = NilpotentOrbit(2, model.form, model.filtration, cones[-1])
    return CatalogRow(
        "two full strings",
        DimTable(2, {(2, 2): 2, (2, 0): 1, (1, 1): 3}),
        cones, IVI(orbit, (b1, b2, b3)), 3)


def _row_three_full() -> CatalogRow:
    base = hodge_tate_orbit(2, 3)
    ident = base.cone.generators[0]
    d = Mat([[1, 0, 0], [0, 2, 0], [0, 0, 3]])
    nd = level_operator_k2(3, d)
    nd2 = level_operator_k2(3, d @ d)
    cones = (NilpotentCone((ident,)), NilpotentCone((ident, nd)),
             NilpotentCone((ident, nd, nd2)))
    diag = tuple(level_operator_k2(
        3, Mat([[1 if (i == a and j == a) else 0 for j in range(3)]
                for i in range(3)])) for a in range(3))
    orbit = NilpotentOrbit(2, base.form, base.filtration, cones[-1])
    return CatalogRow(
        "three full strings",
        DimTable(2, {(2, 2): 3, (1, 1): 3}),
        cones, IVI(orbit, diag), 3)


def table1_catalog() -> list[CatalogRow]:
    """The six weight-2 limit types with Hodge numbers (3, 3)."""
    return [_row_pure(), _row_one_long(), _row_top_string(),
            _row_mixed_lengths(), _row_two_full(), _row_three_full()]
