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

from dataclasses import dataclass, replace

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
    """One complex basis vector: its real coordinates and its index p."""

    vec: tuple
    p: int


def _string_levels(weight: int, spec) -> list[tuple[int, int, int, int]]:
    """Validate one string spec and list (half, level, p, q) down its length.

    A real chain R(p) has the one half 0.  A complex chain C(p, q) lists
    its u-vectors as half 0 and then their conjugates as half 1.
    """
    if spec[0] == "R":
        p = q = spec[1]
    elif spec[0] == "C":
        p, q = spec[1], spec[2]
        if p <= q:
            raise ValueError("C strings need p > q")
    else:
        raise ValueError(f"unknown string kind {spec[0]!r}")
    length = p + q - weight
    if length < 0:
        raise ValueError("string sticks out below the weight")
    return [(half, c) + ((p - c, q - c) if half == 0 else (q - c, p - c))
            for half in range(1 if p == q else 2) for c in range(length + 1)]


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
        levels = [lv for spec in specs for lv in _string_levels(weight, spec)]
        dim = self.dim = len(levels)
        if dim == 0:
            raise ValueError("empty string model")

        # A string of ``width`` real coordinates per level (1 for R, 2 for
        # C) owns as many coordinates as complex basis vectors, from its
        # first index ``base`` on.  Level c of a half pairs with level
        # length - c of the conjugate half by (-1)^c i^(q-p), and the
        # standard shift moves each level to the next.
        zero, one = GR(0), GR(1)
        gram = [[zero] * dim for _ in range(dim)]
        shift = [[zero] * dim for _ in range(dim)]
        self.entries: list[_Entry] = []
        self.members: dict[tuple[int, int], list[int]] = {}
        for i, (half, c, p, q) in enumerate(levels):
            if not (half or c):
                base, length, width = i, p + q - weight, 1 if p == q else 2
            x = base + width * c
            vec = [zero] * dim
            vec[x] = one
            if width == 2:
                vec[x + 1] = -I if half else I
            self.entries.append(_Entry(tuple(vec), p))
            self.members.setdefault((p, q), []).append(i)
            partner = base + (width - 1 - half) * (length + 1) + length - c
            gram[i][partner] = GR((-1) ** c) * _ipow(q - p)
            if c < length:
                for t in range(x, x + width):
                    shift[t + width][t] = one

        self.basis = Mat.from_columns([e.vec for e in self.entries])
        self._basis_inv = self.basis.inverse()
        self._gram = Mat(gram)
        self._gram_inv = self._gram.inverse()
        m = self._basis_inv.transpose() @ self._gram @ self._basis_inv
        if not m.is_real():
            raise VerificationError("string pairing did not close over R")
        self.form = BilForm(m, parity=weight % 2)
        self.n_std = Mat(shift)
        self.filtration = DecFiltration({
            a: Subspace.span([e.vec for e in self.entries if e.p >= a], dim)
            for a in {e.p for e in self.entries}})

    def orbit(self, cone: NilpotentCone) -> NilpotentOrbit:
        """The nilpotent orbit of ``cone`` on this model's limit data."""
        return NilpotentOrbit(self.weight, self.form, self.filtration, cone)

    # -- queries -----------------------------------------------------------

    def piece_dim(self, p: int, q: int) -> int:
        return len(self.members.get((p, q), []))

    # -- pure-degree elements with forced partner blocks -------------------

    def element(self, degree: tuple[int, int], blocks) -> Mat:
        """Complete block data of pure degree into an isometry element.

        ``blocks`` maps a source piece (p, q) to its block matrix (rows
        indexed by the target piece (p+a, q+b), columns by the source).
        In the complex basis an isometry element X is its adjoint
        -G^-1 X^T G, G the Gram matrix, which moves the block at source
        (p, q) to the partner source (k-p-a, k-q-b).  So the given blocks
        Y take the adjoint's columns at the sources not given; where a
        given source's partner is given too, or is itself, Y must agree.
        """
        a, b = degree
        y = [[GR(0)] * self.dim for _ in range(self.dim)]
        given: dict[tuple[int, int], list[int]] = {}
        for src, raw in blocks.items():
            src = tuple(src)
            tgt = (src[0] + a, src[1] + b)
            rows, cols = self.piece_dim(*tgt), self.piece_dim(*src)
            m = raw if isinstance(raw, Mat) else Mat(raw)
            if m.shape != (rows, cols):
                raise ValueError(
                    f"block at {src} has shape {m.shape}, needs "
                    f"({rows}, {cols})")
            given[src] = self.members.get(src, [])
            for ti, ei in enumerate(self.members.get(tgt, [])):
                for si, ej in enumerate(given[src]):
                    y[ei][ej] = m[ti, si]
        y = Mat(y)
        adj = -(self._gram_inv @ y.transpose() @ self._gram)
        for src in given:
            partner = (self.weight - src[0] - a, self.weight - src[1] - b)
            if partner in given and any(
                    y.col(j) != adj.col(j) for j in given[partner]):
                raise ValueError(
                    f"self-paired block at {src} violates the pairing"
                    if partner == src else
                    f"block given at {partner} conflicts with the "
                    f"partner forced by {src}")
        kept = {j for cols in given.values() for j in cols}
        xc = Mat.from_triples(tuple(
            tuple(yr[j] if j in kept else ar[j] for j in range(self.dim))
            for yr, ar in zip(y.t, adj.t)))
        x = self.basis @ xc @ self._basis_inv
        if not in_isometry_algebra(x, self.form):
            raise VerificationError(
                "level operator does not preserve the form infinitesimally")
        return x


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
            for _, _, p, q in _string_levels(self.weight, spec):
                rebuilt[p, q] = rebuilt.get((p, q), 0) + 1
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
        return IVI(model.orbit(NilpotentCone(())), (phi,))

    if h20 == 1:
        # one C(2,1) string, h11 - 2 points of type (1,1)
        model = StringModel(2, [("C", 2, 1)] + [("R", 1)] * (h11 - 2))
        family = [model.n_std,
                  model.element((-1, 1), {(2, 1): [[1]]})]
        family += [model.element((-1, 0), {(2, 1): _column_block(e, 1, 0)})
                   for e in Mat.identity(h11 - 2).columns()]
    else:
        m, odd = divmod(h11, 2)
        if m < h20:
            # small h11: m long strings, h20 - m short ones, odd points
            short = h20 - m
            model = StringModel(2, [("C", 2, 1)] * m + [("C", 2, 0)] * short
                                + [("R", 1)] * odd)
            family = _hom_into_long_ends(model, m, short)
            if odd:
                family.append(model.element(
                    (-1, 1), {(2, 0): _column_block((1,), short, 0)}))
        else:
            # large h11: h20 long strings, s points; isotropic targets
            s = h11 - 2 * h20
            model = StringModel(2, [("C", 2, 1)] * h20 + [("R", 1)] * s)
            family = _hom_into_long_ends(model, h20, 0)
            family += _hom_into_isotropic(model, h20, s, skip_first=bool(odd))
            if odd:
                family.append(model.element(
                    (-1, 0),
                    {(2, 1): _column_block(Mat.identity(s).col(0), h20, 0)}))
    return IVI(model.orbit(NilpotentCone((model.n_std,))), tuple(family))


def _hom_into_long_ends(model: StringModel, m: int, short: int) -> list[Mat]:
    """Degree (-1,-1) maps onto the (1,0) ends, from both string kinds."""
    ends = Mat.identity(m).columns()
    family = [model.element((-1, -1), {(2, 1): _column_block(e, m, j)})
              for e in ends for j in range(m)]
    family += [model.element((-1, 0), {(2, 0): _column_block(e, short, j)})
               for e in ends for j in range(short)]
    return family


def _hom_into_isotropic(model: StringModel, sources: int, s: int,
                        skip_first: bool) -> list[Mat]:
    """Maps from the (2,1) tops into an isotropic part of the points."""
    kvecs = [tuple(GR(1) if i == lo else (I if i == lo + 1 else GR(0))
                   for i in range(s))
             for lo in range(int(skip_first), s - 1, 2)]
    return [model.element((-1, 0), {(2, 1): _column_block(kv, sources, j)})
            for kv in kvecs for j in range(sources)]


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
    return replace(hodge_tate_orbit(2, n),
                   cone=NilpotentCone(_diagonal_level_maps(n)))


def _diagonal_level_maps(n: int) -> tuple[Mat, ...]:
    """The n level operators whose level maps project onto one string."""
    return tuple(level_operator_k2(n, Mat([[int(i == j == a) for j in range(n)]
                                           for i in range(n)]))
                 for a in range(n))


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
            # B is the symmetric unit matrix at (r, c) and (c, r)
            blk = [[GR(0)] * n for _ in range(n)]
            for i, j in ((r, c), (c, r)):
                blk[i][j], blk[i][d + j] = I, GR(1)
                blk[d + i][j], blk[d + i][d + j] = GR(1), -I
            family.append(level_operator_k2(n, Mat(blk)))
    return IVI(base, tuple(family))


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
    maximum exceeds it by exactly one."""
    return max_dim_symmetric(n) - 1


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
    cone = NilpotentCone(())
    return CatalogRow(
        "pure (no long strings)",
        DimTable(2, {(2, 0): 3, (1, 1): 3}),
        (cone,), IVI(model.orbit(cone), tuple(family)), 4)


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
    return CatalogRow(
        "full string with short companions",
        DimTable(2, {(2, 2): 1, (2, 0): 2, (1, 1): 3}),
        cones, IVI(model.orbit(cones[-1]), tuple(family)), 3)


def _row_mixed_lengths() -> CatalogRow:
    # one string of every length
    model = StringModel(2, [("R", 2), ("C", 2, 1), ("C", 2, 0)])
    n1 = model.element((-1, -1), {(2, 2): [[1]]})
    n2 = model.element((-1, -1), {(2, 1): [[1]]})
    psi = model.element((-1, 1), {(2, 1): [[1]]})
    cones = (NilpotentCone((n1 + n2,)), NilpotentCone((n1, n2)))
    return CatalogRow(
        "one string of every length",
        DimTable(2, {(2, 2): 1, (2, 1): 1, (2, 0): 1, (1, 1): 1}),
        cones, IVI(model.orbit(cones[-1]), (n1, n2, psi)), 3)


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
    return CatalogRow(
        "two full strings",
        DimTable(2, {(2, 2): 2, (2, 0): 1, (1, 1): 3}),
        cones, IVI(model.orbit(cones[-1]), (b1, b2, b3)), 3)


def _row_three_full() -> CatalogRow:
    base = hodge_tate_orbit(2, 3)
    ident = base.cone.generators[0]
    d = Mat([[1, 0, 0], [0, 2, 0], [0, 0, 3]])
    nd = level_operator_k2(3, d)
    nd2 = level_operator_k2(3, d @ d)
    cones = (NilpotentCone((ident,)), NilpotentCone((ident, nd)),
             NilpotentCone((ident, nd, nd2)))
    return CatalogRow(
        "three full strings",
        DimTable(2, {(2, 2): 3, (1, 1): 3}),
        cones, IVI(replace(base, cone=cones[-1]), _diagonal_level_maps(3)), 3)


def table1_catalog() -> list[CatalogRow]:
    """The six weight-2 limit types with Hodge numbers (3, 3)."""
    return [_row_pure(), _row_one_long(), _row_top_string(),
            _row_mixed_lengths(), _row_two_full(), _row_three_full()]
