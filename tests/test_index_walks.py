"""The walks over a filtration's jumps against the loops they replaced.

Each ``ref_*`` function is the earlier implementation, kept here as an
oracle: it walked a filtration's listed indices, or the range between its
first and last listed index (clamped to ±dim for W), instead of its
jumps.  On seeded and hypothesis-drawn filtrations with repeated steps,
far-listed zero and full steps, omitted end steps, W listed beyond ±dim
and ambient 0, the package gives the same return values, raised messages
and reports.  The one input class on which the old defect check read its
listed indices, not its values, is pinned by hand below.
"""
import random

from hypothesis import given, settings, strategies as st

from genutil import make_split_mhs, random_real_invertible, transport_mhs
from hodgelim.builders import (build_max_ivi_k2, hodge_tate_orbit,
                               symmetric_family_ivi, table1_catalog)
from hodgelim.errors import VerificationError
from hodgelim.filtrations import (Bigrading, DecFiltration, HodgeStructure,
                                  IncFiltration, first_relation_holds,
                                  hs_from_filtration, weight_filtration,
                                  weight_filtration_defect)
from hodgelim.forms import BilForm
from hodgelim.matrices import Mat
from hodgelim.mixed import (deligne_bigrading, graded_filtration,
                            graded_piece, verify_mhs)
from hodgelim.reports import Report
from hodgelim.scalars import I
from hodgelim.subspaces import Subspace

LOWERS = "N does not lower the level by two"
ASYMMETRIC = "graded dimensions are not symmetric"


# ---------------------------------------------------------------------------
# the earlier loops
# ---------------------------------------------------------------------------

def ref_weight_filtration_defect(w, n, powers=None):
    if n.shape != (w.ambient, w.ambient):
        raise ValueError(f"N of shape {n.shape} does not act on the "
                         f"filtered space of dimension {w.ambient}")
    dim = w.ambient
    lo, hi = w.keys[0], w.keys[-1]
    if not w.at(hi).is_full():
        hi += 1
    lo, hi = max(lo, -dim), min(hi, dim)
    for l in range(lo, hi + 1):
        if not w.at(l).map_by(n) <= w.at(l - 2):
            return LOWERS
    if not (w.at(-dim).is_zero() and w.at(dim - 1).is_full()):
        return ASYMMETRIC
    powers = list(powers) if powers else [Mat.identity(dim)]
    for l in range(1, min(max(hi, -lo) + 1, dim)):
        wl, wl1 = w.at(l), w.at(l - 1)
        wm, wm1 = w.at(-l), w.at(-l - 1)
        if wl.dim - wl1.dim != wm.dim - wm1.dim:
            return ASYMMETRIC
        while len(powers) <= l:
            powers.append(powers[-1] @ n)
        pushed = wl.map_by(powers[l]) + wm1
        if pushed != wm:
            return "N^l not surjective onto the opposite graded piece"
    return None


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


def ref_first_relation_holds(f, weight, q):
    top = f.keys[-1]
    return all(q.orthogonal(f.at(a), f.at(weight - a + 1))
               for a in range(weight + 1 - top, top + 1))


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


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

FAR = (1000, 100_000)


def outcome(fn, *args, key=lambda value: value):
    """What ``fn(*args)`` returns, through ``key``, or what it raises."""
    try:
        return "returns", key(fn(*args))
    except (ValueError, VerificationError) as e:
        return type(e).__name__, str(e)


def canonical(s: Subspace):
    return s.rows, s.pivots


def hs_key(hs):
    pieces = hs.bigrading.pieces
    return hs.weight, {pq: canonical(s) for pq, s in pieces.items()}


def random_basis(n, rng, real):
    while True:
        rows = [[rng.randint(-2, 2) + (0 if real else rng.randint(-1, 1) * I)
                 for _ in range(n)] for _ in range(n)]
        if not n or Mat(rows).rank() == n:
            return rows


def key_pool(n, far):
    return list(range(-2 * n - 4, 2 * n + 5)) + [s * x for x in far
                                                 for s in (-1, 1)]


def listed_chain(rng, cls, n, far=FAR, real=True):
    """Spans of leading rows of a random basis, nested in the direction of
    ``cls`` and listed at sorted random keys.  Steps repeat, the end steps
    are zero, full or neither, and keys may lie far out or beyond ±n."""
    basis = random_basis(n, rng, real)
    count = rng.randint(1, 5)
    dims = sorted(rng.randint(0, n) for _ in range(count))
    if cls is DecFiltration:
        dims.reverse()
    keys = sorted(rng.sample(key_pool(n, far), count))
    return cls({k: Subspace.span(basis[:d], n) for k, d in zip(keys, dims)})


def same_values(a, b):
    probes = {j + d for j in (*a.keys, *b.keys) for d in (-1, 0, 1)}
    return all(a.at(j) == b.at(j) for j in probes)


def relisted(filt, rng, far=FAR):
    """The same filtration with extra listed steps, some far out, and an
    end step left out now and then where that leaves it unchanged."""
    extra = rng.sample(key_pool(filt.ambient, far), rng.randint(0, 3))
    steps = {k: filt.at(k) for k in sorted({*filt.keys, *extra})}
    for end in (0, -1):
        if len(steps) > 1 and rng.random() < 0.5:
            fewer = dict(steps)
            del fewer[list(steps)[end]]
            if same_values(type(filt)(fewer), filt):
                steps = fewer
    out = type(filt)(steps)
    assert same_values(out, filt)
    return out


def random_operator(rng, n):
    """Nilpotent (strictly lower triangular, moved by a random basis) or
    not, zero now and then."""
    mode = rng.choice(["nilpotent", "nilpotent", "any", "zero"])
    if mode == "zero" or not n:
        return Mat.zeros(n, n)
    if mode == "any":
        return Mat([[rng.randint(-1, 1) for _ in range(n)] for _ in range(n)])
    low = Mat([[rng.randint(-1, 1) if j < i else 0 for j in range(n)]
               for i in range(n)])
    g = random_real_invertible(n, rng)
    return g @ low @ g.inverse()


def stock_orbits():
    orbits = [hodge_tate_orbit(k, s) for k in (1, 2, 3) for s in (1, 2)]
    orbits += [build_max_ivi_k2(1, 1).orbit, build_max_ivi_k2(2, 1).orbit,
               symmetric_family_ivi(1).orbit]
    orbits += [row.witness.orbit for row in table1_catalog()]
    return orbits


STOCK = stock_orbits()


def random_form(rng, n):
    if not n:
        return BilForm(Mat.zeros(0, 0), 0)
    parity = rng.choice([0, 1]) if n % 2 == 0 else 0
    if parity == 0:
        m = Mat([[(-1) ** i if i == j else 0 for j in range(n)]
                 for i in range(n)])
    else:
        h = n // 2
        m = Mat([[1 if j == i + h else -1 if i == j + h else 0
                  for j in range(n)] for i in range(n)])
    g = random_real_invertible(n, rng)
    return BilForm(g.transpose() @ m @ g, parity)


# ---------------------------------------------------------------------------
# the defect of a candidate weight filtration
# ---------------------------------------------------------------------------

def first_full_only(w: IncFiltration) -> IncFiltration:
    """W without the listed steps above its first full one."""
    top = next((k for k in w.keys if w.steps[k].is_full()), w.keys[-1])
    return IncFiltration({k: s for k, s in w.steps.items() if k <= top})


def defect_case(rng):
    """W and N: a random chain, or W(N') listed every way and shifted now
    and then, with N', a multiple or power of it, 0 or anything."""
    n = rng.randint(0, 4)
    op = random_operator(rng, n)
    if n and op.pow(n).is_zero() and rng.random() < 0.7:
        w = weight_filtration(op).shift(
            rng.choice([0, 0, 0, 1, -1, n, -n, n + 2, -n - 2]))
        op = rng.choice([op, op, op * 2, op @ op, Mat.zeros(n, n),
                         random_operator(rng, n)])
        return relisted(w, rng), op
    return listed_chain(rng, IncFiltration, n), op


def check_defect(w, n):
    got = outcome(weight_filtration_defect, w, n)
    # W whose first full level lies below -n, with a full step listed at
    # -n or above: the old loop ran up to that listed step and so gave
    # equal filtrations different messages
    listed_past = (w.ambient and w.at(-w.ambient - 1).is_full()
                   and w.keys[-1] >= -w.ambient)
    if not listed_past:
        assert got == outcome(ref_weight_filtration_defect, w, n)
    assert got == outcome(ref_weight_filtration_defect, first_full_only(w), n)
    return got


def test_weight_filtration_defect_matches_the_listed_walk_on_a_sweep():
    seen = set()
    for seed in range(300):
        w, n = defect_case(random.Random(seed))
        seen.add(check_defect(w, n))
    assert seen >= {("returns", None), ("returns", LOWERS),
                    ("returns", ASYMMETRIC), ("returns", "N^l not "
                    "surjective onto the opposite graded piece")}


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.integers(0, 2 ** 32))
def test_weight_filtration_defect_matches_the_listed_walk(seed):
    check_defect(*defect_case(random.Random(seed)))


def test_defect_on_stock_limits_listed_every_way():
    rng = random.Random("stock defect")
    for o in (o for o in STOCK if o.cone.r):
        w, n = o.limit_weight_filtration().shift(o.weight), o.cone.barycenter()
        for _ in range(3):
            assert check_defect(relisted(w, rng), n) == ("returns", None)
            check_defect(relisted(w.shift(rng.choice([-1, 1, 9])), rng), n)


def test_a_w_whole_below_minus_n_gets_one_message_however_listed():
    # C^2 with W whole from -3 on: W_{-2} != 0, so W is not W(N); the old
    # loop asked N W_{-2} ⊆ W_{-4} only when a step was listed at -2 or
    # above, and then said N does not lower W, otherwise that the graded
    # dimensions are not symmetric
    n = Mat([[0, 0], [1, 0]])
    full = Subspace.full(2)
    low, padded = IncFiltration({-3: full}), IncFiltration({-3: full, 5: full})
    assert low == padded
    assert ref_weight_filtration_defect(low, n) == ASYMMETRIC
    assert ref_weight_filtration_defect(padded, n) == LOWERS
    assert weight_filtration_defect(low, n) == ASYMMETRIC
    assert weight_filtration_defect(padded, n) == ASYMMETRIC


def test_defect_on_ambient_zero():
    zero = Mat.zeros(0, 0)
    for steps in ({0: Subspace.zero(0)}, {-5: Subspace.zero(0),
                                           FAR[1]: Subspace.full(0)}):
        w = IncFiltration(steps)
        assert w.jumps() == []
        assert (outcome(weight_filtration_defect, w, zero)
                == outcome(ref_weight_filtration_defect, w, zero)
                == ("returns", None))
        assert (outcome(weight_filtration_defect, w, Mat.zeros(1, 1))
                == outcome(ref_weight_filtration_defect, w, Mat.zeros(1, 1)))


# ---------------------------------------------------------------------------
# pure Hodge structures
# ---------------------------------------------------------------------------

def pure_case(rng):
    """A filtration and a weight: a random chain (rarely Hodge), or the
    filtration induced on a graded piece of a split mixed structure."""
    if rng.random() < 0.5:
        n = rng.randint(0, 4)
        f = listed_chain(rng, DecFiltration, n, far=FAR[:1],
                         real=rng.random() < 0.3)
        return f, rng.randint(-1, 4)
    w, f, _ = make_split_mhs(rng, 6)
    l = rng.choice(w.jumps())
    return relisted(graded_filtration(w, f, l), rng, FAR[:1]), l


def check_pure_near_and_far(rng):
    """``pure_case``, then F at a weight drawn from far below twice its
    first jump up to past twice its last one."""
    f, weight = pure_case(rng)
    check_pure(f, weight)
    jumps = f.jumps()
    if jumps:
        check_pure(f, rng.randint(2 * jumps[0] - 25, 2 * jumps[-1] + 3))


def check_pure(f, weight, q=None):
    assert (outcome(hs_from_filtration, f, weight, key=hs_key)
            == outcome(ref_hs_from_filtration, f, weight, key=hs_key))
    q = q or random_form(random.Random(weight), f.ambient)
    assert (first_relation_holds(f, weight, q)
            == ref_first_relation_holds(f, weight, q))


def test_pure_walks_match_the_listed_walks_on_a_sweep():
    for seed in range(150):
        check_pure_near_and_far(random.Random(seed))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.integers(0, 2 ** 32))
def test_pure_walks_match_the_listed_walks(seed):
    check_pure_near_and_far(random.Random(seed))


def test_first_relation_on_stock_filtrations_listed_every_way():
    rng = random.Random("stock first relation")
    for o in STOCK:
        for _ in range(3):
            check_pure(relisted(o.filtration, rng, FAR[:1]), o.weight,
                       o.form)
    for ambient in (0, 3):
        f = DecFiltration({0: Subspace.full(ambient),
                           7: Subspace.zero(ambient)})
        check_pure(f, 1, random_form(rng, ambient))


# ---------------------------------------------------------------------------
# the graded route of verify_mhs
# ---------------------------------------------------------------------------

def mhs_case(rng):
    mode = rng.choice(["split", "split", "stock", "chains"])
    if mode == "split":
        w, f, pieces = make_split_mhs(rng, 6)
        g = random_real_invertible(f.ambient, rng)
        w, f, _ = transport_mhs(w, f, pieces, g)
    elif mode == "stock":
        o = rng.choice(STOCK)
        w, f = o.limit_weight_filtration(), o.filtration
    else:
        # jumps far out cost time, not coverage: hs_from_filtration on
        # gr^W_l walks from l - j to j, for j the last jump of F
        n = rng.randint(0, 4)
        w = listed_chain(rng, IncFiltration, n, (60,),
                         real=rng.random() < 0.8)
        f = listed_chain(rng, DecFiltration, n, (60,), real=False)
        return w, f
    return relisted(w, rng), relisted(f, rng)


def check_mhs(w, f):
    assert verify_mhs(w, f).to_dict() == ref_verify_mhs(w, f).to_dict()


def test_verify_mhs_matches_the_listed_walk_on_a_sweep():
    for seed in range(120):
        check_mhs(*mhs_case(random.Random(seed)))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.integers(0, 2 ** 32))
def test_verify_mhs_matches_the_listed_walk(seed):
    check_mhs(*mhs_case(random.Random(seed)))


def test_deligne_bigrading_matches_the_listed_lower_bound():
    for seed in range(120):
        w, f = mhs_case(random.Random(seed))
        assert (outcome(deligne_bigrading, w, f, key=lambda b: b.pieces)
                == outcome(ref_deligne_bigrading, w, f,
                           key=lambda b: b.pieces))
