"""Mixed Hodge structures: splittings, graded checks, limit polarizations.

The canonical bigrading is produced by a closed formula and checked
against structural postconditions.  Once it has passed, those
postconditions prove that F induces a pure Hodge structure on every
W-graded piece, with the bigrading's Hodge numbers, so ``verify_mhs``
reads the graded route off the splitting.  Only when the splitting fails
does it build the graded quotients and the pure structures on them, to
say which piece is not pure.  Once ``verify_mhs`` has passed,
``verify_pmhs`` reads the polarization of the primitive parts off the
pieces of the verified splitting and builds no graded piece of its own.
"""
from __future__ import annotations

from .endo import maps_into, row_nonzeros, solve_in_span
from .errors import VerificationError
from .forms import (BilForm, hermitian_positive_definite, in_isometry_algebra,
                    is_hermitian)
from .filtrations import (Bigrading, DecFiltration, IncFiltration,
                          _hodge_basis, first_relation_holds,
                          hs_from_filtration, weight_filtration_defect)
from .matrices import (Mat, TVec, t_conj_mat, t_is_zero_mat, t_matmul,
                       t_transpose)
from .reports import Report
from .scalars import T_ZERO, t_add, t_mul, t_sub
from .subspaces import Quotient, Subspace


def deligne_bigrading(w: IncFiltration, f: DecFiltration) -> Bigrading:
    """The canonical bigrading I^{p,q} of a mixed Hodge structure (W, F).

    I^{p,q} = F^p ∩ W_{p+q} ∩ (conj(F^q) ∩ W_{p+q}
                                + sum_{i>=1} conj(F^{q-i}) ∩ W_{p+q-i-1}).

    p and q run over F's jumps (:meth:`~hodgelim.filtrations._Filtration.
    jumps`), the implicit one below F's first listed index included: F^p
    = F^{p+1} elsewhere, so I^{p,q} ⊆ F^{p+1} there and it is 0.  Each
    meet F^a ∩ W_l and conj(F^a) ∩ W_l is computed at most once per call;
    the (p, q) loop reuses them.  The lower sum stops at the first i with
    conj(F^{q-i}) the whole space (q - i at F's first jump): W is
    increasing, so every later term lies inside that one, or at W's
    first jump, below which W is 0.  So neither W's nor F's listed
    indices set the work, only where they jump.

    Postconditions checked on every call: the pieces are independent and
    span, they rebuild W and F by partial sums, and I^{p,q} is conjugate
    to I^{q,p} modulo the lower-index pieces.  A failure of any of these
    raises VerificationError — which is exactly what happens when (W, F)
    is not a mixed Hodge structure.  Each piece lies in F^p ∩ W_{p+q} and
    the pieces are independent, so those with p + q <= l sum to W_l exactly
    when their dimensions add up to dim W_l (likewise F^a), compared where
    either side can change: at the jumps and the piece indices.  Conjugate
    symmetry, s ⊆ mirror + lower and mirror ⊆ s + lower, is one equality.

    :func:`verify_mhs` derives its graded route from these four
    postconditions and builds no graded quotient once they hold, so each
    of them carries that proof: none may go, not even one that no known
    input reaches, unless the graded quotients are built again.
    """
    if w.ambient != f.ambient:
        raise ValueError("filtration ambient mismatch")
    fbar = f.conj()
    jumps, wjumps = f.jumps(), w.jumps()
    meets: dict[tuple[bool, int, int], Subspace] = {}

    def meet(conj: bool, a: int, l: int) -> Subspace:
        """F^a ∩ W_l, or conj(F^a) ∩ W_l, computed once per call."""
        key = (conj, a, l)
        s = meets.get(key)
        if s is None:
            s = meets[key] = (fbar if conj else f).at(a) & w.at(l)
        return s

    pieces = {}
    for p in jumps:
        for q in jumps:
            l = p + q
            if w.at(l).is_zero():
                continue
            right = meet(True, q, l)
            i = 1
            while l - i - 1 >= wjumps[0] and q - i >= jumps[0]:
                right = right + meet(True, q - i, l - i - 1)
                i += 1
            piece = meet(False, p, l) & right
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
    dims = bigr.dims()
    if any(sum(d for (p, q), d in dims.items() if p + q <= l) != w.at(l).dim
           for l in {*wjumps, *(p + q for p, q in dims)}):
        raise VerificationError("canonical pieces do not rebuild W")
    if any(sum(d for (p, _), d in dims.items() if p >= a) != f.at(a).dim
           for a in {*jumps, *(p for p, _ in dims)}):
        raise VerificationError("canonical pieces do not rebuild F")
    # conjugation symmetry modulo lower-order pieces
    for (p, q), s in bigr.pieces.items():
        lower = bigr.sum_where(lambda a, b: a < p and b < q)
        if s + lower != bigr.piece(q, p).conj() + lower:
            raise VerificationError(
                f"piece ({p},{q}) not conjugate to ({q},{p}) modulo "
                "lower-index pieces")
    return bigr


def graded_piece(w: IncFiltration, l: int) -> Quotient:
    return Quotient(w.at(l - 1), w.at(l))


def graded_filtration(w: IncFiltration, f: DecFiltration,
                      l: int) -> DecFiltration:
    """The filtration induced by F on gr^W_l, in quotient coordinates.

    Its steps are listed at F's jumps: between them F, and so the induced
    filtration, keeps the value at the next jump up.
    """
    q = graded_piece(w, l)
    steps = {}
    for p in f.jumps():
        inter = f.at(p) & w.at(l)
        steps[p] = Subspace.from_triples(
            [q.project_triples(v) for v in inter.rows], q.dim)
    return DecFiltration(steps)


def _splitting(w: IncFiltration,
               f: DecFiltration) -> Bigrading | VerificationError:
    """The outcome of ``deligne_bigrading(w, f)``: the splitting or the
    error it raised."""
    try:
        return deligne_bigrading(w, f)
    except VerificationError as e:
        return e


def verify_mhs(w: IncFiltration, f: DecFiltration) -> Report:
    """Check that (W, F) is a mixed Hodge structure over R.

    Route one: the canonical bigrading exists with all its postconditions.
    Route two: F induces a pure Hodge structure of weight l on every
    graded piece gr^W_l, with the bigrading's Hodge numbers.

    Once W is real and the splitting has passed, route two follows from
    route one.  Each piece I^{p,q} lies in F^p ∩ W_l, l = p + q; the
    pieces decompose V, those with p + q <= l span W_l and those with
    first index >= p span F^p.  So F^p ∩ W_l is the sum of the pieces in
    both, and the pieces of level l map isomorphically onto gr^W_l, where
    the images of I^{p',l-p'} with p' >= p span the induced F^p.  The
    mirror condition puts conj I^{p,q} in I^{q,p} + W_{l-2}, so on gr^W_l,
    whose conjugation W's reality defines, the image of I^{p,q} is
    conjugate to that of I^{q,p}, and the induced conj F^q is spanned by
    the images with second index >= q.  Hence F^p ∩ conj F^q on gr^W_l
    is the image of I^{p,q}: gr^W_l is pure of weight l with h^{p,q} =
    dim I^{p,q}.  The dims are listed by (p + q, p), level by level, as
    the graded quotients list them.  Only a failed splitting leaves the
    graded quotients to be built, to name the piece that is not pure.
    """
    if w.ambient != f.ambient:
        rep = Report("mixed Hodge structure")
        rep.add("filtrations live on the same space", False)
        return rep
    return _mhs_rest(w, f, _splitting(w, f))


def _mhs_rest(w: IncFiltration, f: DecFiltration,
              bigr: Bigrading | VerificationError) -> Report:
    """:func:`verify_mhs`'s report of (W, F) on one space, given ``bigr``,
    which it trusts as the outcome of :func:`_splitting`, postconditions
    included: an orbit's limit has it already."""
    rep = Report("mixed Hodge structure")
    real = rep.add("W is defined over R", w.is_conj_stable())
    if isinstance(bigr, VerificationError):
        rep.add("canonical bigrading", False, reason=str(bigr))
        bigr = None
    else:
        rep.add("canonical bigrading", True, dims=bigr.dims())
        rep.data["bigrading_dims"] = {f"{p},{q}": d
                                      for (p, q), d in bigr.dims().items()}

    if not real:
        rep.add("graded pieces are pure Hodge structures", False,
                reason="W not conjugation-stable")
        return rep
    if bigr is not None:
        by_level = sorted(bigr.dims().items(),
                          key=lambda item: (sum(item[0]), item[0][0]))
        rep.add("graded pieces are pure Hodge structures", True,
                dims=dict(by_level))
        rep.add("graded Hodge numbers match the bigrading", True)
        return rep

    graded_dims = {}
    for l in w.jumps():
        try:
            hs = hs_from_filtration(graded_filtration(w, f, l), l)
        except VerificationError as e:
            rep.add("graded pieces are pure Hodge structures", False,
                    reason=f"gr_{l}: {e}")
            return rep
        graded_dims.update(hs.hodge_numbers())
    rep.add("graded pieces are pure Hodge structures", True,
            dims=graded_dims)
    return rep


# ---------------------------------------------------------------------------
# induced structure on operator algebras
# ---------------------------------------------------------------------------

def lie_bigrading(vb: Bigrading, algebra: Subspace) -> Bigrading:
    """Bigrading induced on a subalgebra of End(V) by a bigrading of V.

    Piece (a, b) is {X in algebra : X I^{p,q} ⊆ I^{p+a, q+b} for all p, q}.
    Raises VerificationError when the pieces fail to decompose the algebra
    (then the algebra is not compatible with the bigrading).
    """
    n = vb.ambient
    if algebra.ambient != n * n:
        raise ValueError("algebra is not a space of operators on V")
    if algebra.is_zero():
        raise ValueError("cannot bigrade the zero algebra")
    support = vb.support()
    ps = [p for p, _ in support]
    qs = [q for _, q in support]
    pieces = {}
    for a in range(min(ps) - max(ps), max(ps) - min(ps) + 1):
        for b in range(min(qs) - max(qs), max(qs) - min(qs) + 1):
            conditions = maps_into(
                [(v, vb.piece(p + a, q + b))
                 for (p, q), s in vb.pieces.items() for v in s.rows], n)
            piece = solve_in_span(algebra, n, conditions)
            if not piece.is_zero():
                pieces[(a, b)] = piece
    if not pieces:
        raise VerificationError(
            "operator algebra has no pure-degree elements")
    try:
        return Bigrading(pieces, total=algebra)
    except VerificationError:
        raise VerificationError(
            "operator algebra is not compatible with the bigrading") from None


def filtration_lowering(vb: Bigrading, algebra: Subspace,
                        degree: int = -1) -> Subspace:
    """Single-kernel computation of the degree-``degree`` horizontal part.

    Equals the sum over b of the (degree, b) pieces of
    :func:`lie_bigrading` — the conditions X I^{p,q} ⊆ ⊕_q' I^{p+degree,q'}
    kill every component with a different first index — but costs one
    linear solve instead of a full bigrading.  The equality is exercised
    in the test suite.
    """
    n = vb.ambient
    targets = {p: vb.row(p + degree) for p in {p for p, _ in vb.pieces}}
    return solve_in_span(algebra, n, maps_into(
        [(v, targets[p]) for (p, _), s in vb.pieces.items() for v in s.rows],
        n))


def horizontal_part(vb: Bigrading, q: BilForm, weight: int) -> Subspace:
    """The horizontal part g^{-1,*} of the isometry algebra of ``q``.

    Equals ``filtration_lowering(vb, isometry_algebra(q), -1)`` but needs
    no solve.  Let V_p be the sum of the pieces I^{p,*}.  The splitting
    must be compatible with the form, Q(V_a, V_b) = 0 unless a + b =
    ``weight``: this holds for the Deligne splitting of a polarized limit
    (Cattani--Kaplan--Schmid, Ann. Math. 123 (1986)) and is the first
    Riemann relation for a pure structure.  It is checked block by block
    on the Gram matrix of the pieces and raises VerificationError when it
    fails, since only it licenses what follows.

    For vectors a, v let X_{a,v} = a Q(v, .) - e v Q(a, .), with e = +1
    for a symmetric Q and -1 for an antisymmetric one; every X_{a,v} is an
    infinitesimal isometry.  With a in V_s, v in V_t and s + t =
    weight - 1, compatibility makes X_{a,v} map V_{s+1} to V_s, V_{t+1}
    to V_t and every other V_p to 0, and Q pairs V_{s+1} perfectly with
    V_t.  In a basis adapted to the V_p, X has only the blocks X_{p-1,p},
    and the isometry condition ties block (s, s+1) to block (t, t+1): the
    first is free and fixes the second, or for s = t (odd weight) it is
    C^-1 S with S symmetric.  So the X_{a,v}, over basis vectors a of V_s
    and v of V_t with s <= t (and a before v when s = t), are a basis of
    g^{-1,*}.
    """
    n = q.dim
    if vb.ambient != n:
        raise ValueError(f"the bigrading lives in dimension {vb.ambient}, "
                         f"the form in dimension {n}")
    blocks: dict[int, list[TVec]] = {}
    for (p, _), piece in vb.pieces.items():
        blocks.setdefault(p, []).extend(piece.rows)
    # row i of pairing[p] is Q(blocks[p][i], .)
    pairing = {p: t_matmul(rows, q.matrix.t) for p, rows in blocks.items()}
    for a, qa in pairing.items():
        for b, rows in blocks.items():
            if a + b != weight and not t_is_zero_mat(
                    t_matmul(qa, t_transpose(rows))):
                raise VerificationError(
                    f"the splitting is not compatible with the form: "
                    f"Q(I^{{{a},*}}, I^{{{b},*}}) != 0 and "
                    f"{a} + {b} != {weight}")

    pairs = {p: [(row_nonzeros(r), row_nonzeros(qr))
                 for r, qr in zip(blocks[p], pairing[p])] for p in blocks}
    combine = t_sub if q.parity == 0 else t_add
    vecs = []
    for s, left in pairs.items():
        t = weight - 1 - s
        if t < s or t not in pairs:
            continue
        for i, (a, qa) in enumerate(left):
            for v, qv in pairs[t][i:] if t == s else pairs[t]:
                x = [T_ZERO] * (n * n)
                for r, e in a:
                    for c, f in qv:
                        x[r * n + c] = t_mul(e, f)
                for r, e in v:
                    for c, f in qa:
                        x[r * n + c] = combine(x[r * n + c], t_mul(e, f))
                vecs.append(tuple(x))
    return Subspace.from_triples(vecs, n * n)


# ---------------------------------------------------------------------------
# polarized limit structures
# ---------------------------------------------------------------------------

def _n_check_names(weight: int) -> tuple[str, ...]:
    """The names of the checks :func:`verify_pmhs` makes on N alone, in
    report order: N is real, N^(weight+1) = 0, N is an infinitesimal
    isometry, N lowers F by one, and W is W(N) recentered."""
    return ("N is real", f"N^{weight + 1} = 0",
            "N preserves the form infinitesimally", "N lowers F by one",
            "W is the recentered weight filtration of N")


def verify_pmhs(weight: int, q: BilForm, w: IncFiltration, f: DecFiltration,
                n: Mat) -> Report:
    """Check that (W, F, N) is a polarized limit structure of pure origin.

    W must be the weight filtration of N recentered at ``weight``, which
    is checked on W itself by the properties that determine W(N) uniquely
    (:func:`~hodgelim.filtrations.weight_filtration_defect`); (W, F)
    must be a mixed Hodge structure; and on the primitive part of each
    graded piece gr_{weight+l} the form Q(C u, N^l conj v) must be positive
    definite Hermitian.  The form is well defined on gr, so it is taken on
    the lift by the Deligne splitting: the pieces I^{p,q} ∩ ker N^{l+1}
    with p + q = weight + l, on which C is i^(p-q) (Deligne, Publ. IHES
    40 (1971); Cattani--Kaplan--Schmid, Ann. Math. 123 (1986)).
    The splitting is built once and read by the mixed Hodge checks.
    N^(l+1) W_{weight+l} ⊆ W_{weight-l-2} needs no check: the primitive
    parts are read only once W is W(N) recentered, and N lowers W(N) by
    two.

    The checks on N alone, named by :func:`_n_check_names`, come first;
    :func:`_pmhs_rest` makes the others, and
    :func:`~hodgelim.orbits.verify_orbit`, which has certified N's
    checks already, calls it alone.
    """
    if weight < 0:
        raise ValueError(f"a polarized limit structure has weight >= 0, "
                         f"got weight {weight}")
    if n.shape != q.matrix.shape:
        raise ValueError(f"N of shape {n.shape} does not act on the "
                         f"space of the form, of shape {q.matrix.shape}")
    for name, filt in (("W", w), ("F", f)):
        if filt.ambient != q.dim:
            raise ValueError(f"{name} lives in dimension {filt.ambient}, "
                             f"the form in dimension {q.dim}")
    rep = Report(f"polarized limit structure (weight {weight})")
    real, nilpotent, isometry, lowers, recentered = _n_check_names(weight)
    rep.add(real, n.is_real())
    nilp = rep.add(nilpotent, n.pow_is_zero(weight + 1))
    rep.add(isometry, in_isometry_algebra(n, q))
    rep.add(lowers, f.lowered_by((n,), 1))
    if not nilp:
        return rep
    rep.add(recentered, weight_filtration_defect(w.shift(weight), n) is None)
    return _pmhs_rest(rep, weight, q, w, f, n, _splitting(w, f))


def _pmhs_rest(rep: Report, weight: int, q: BilForm, w: IncFiltration,
               f: DecFiltration, n: Mat,
               bigrading: Bigrading | VerificationError) -> Report:
    """The checks of :func:`verify_pmhs` past those on N alone, added to
    ``rep``, which holds N's; the positivity of the primitive pieces is
    read only when every check in ``rep`` has passed.  Takes the
    arguments :func:`verify_pmhs` has checked.  ``bigrading`` is the
    outcome of :func:`_splitting`, which :func:`_mhs_rest` trusts.  A
    splitting that N does not map by type (-1, -1) raises
    VerificationError."""
    rep.add("form parity matches weight", q.parity == weight % 2)
    rep.add("form is real", q.is_real())
    rep.add("F^a orthogonal to F^(k-a+1)", first_relation_holds(f, weight, q))

    rep.extend(_mhs_rest(w, f, bigrading), prefix="mhs: ")
    if not rep.ok:
        return rep

    # N is now a morphism of mixed Hodge structures of type (-1, -1); only
    # this check licenses reading gr, its primitive part and C off I^{a,b}
    for (a, b), piece in bigrading.pieces.items():
        if not piece.sends_into(n, bigrading.piece(a - 1, b - 1)):
            raise VerificationError(
                f"N does not map I^{{{a},{b}}} into I^{{{a - 1},{b - 1}}}: "
                "the bigrading is not the Deligne splitting of (W, F)")
    prim_dims = {}
    reason = None
    powers = n.ladder()
    for l in sorted({a + b - weight for a, b in bigrading.pieces
                     if a + b >= weight}):
        # N^l is nonzero on a level with pieces, so powers[l + 1] exists
        right, left = _hodge_basis(
            (pq, s.where_zero(s.image_rows(powers[l + 1])))
            for pq, s in bigrading.pieces.items() if sum(pq) == weight + l)
        prim_dims[weight + l] = len(right)
        if not right:
            continue
        gram = q.gram_rows(left, t_matmul(t_conj_mat(right),
                                          powers[l].transpose().t))
        if not is_hermitian(gram):
            reason = f"primitive form at level {l} not Hermitian"
            break
        if not hermitian_positive_definite(gram):
            reason = f"primitive form at level {l} not positive"
            break
    if reason:
        rep.add("primitive pieces are positive", False, reason=reason)
    else:
        rep.add("primitive pieces are positive", True, dims=prim_dims)
    rep.data["primitive_dims"] = {str(k): v for k, v in prim_dims.items()}
    return rep
