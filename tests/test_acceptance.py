"""End-to-end acceptance suite: one test per shipped guarantee.

Each criterion is asserted exactly as stated, with zero numeric
tolerance — everything here is exact arithmetic.  One clause fails, with
a message describing the cause:

* criterion 2: the randomized search, at the stated parameters, finds a
  certified four-dimensional family on the mixed-length catalog row, so
  the catalog's recorded maximum of 3 for that row is wrong (see
  test_mixed_length_row_admits_a_wider_family and
  test_mixed_length_rank_two_cone_caps_families_at_four in
  test_builders.py).

Criterion 8 checks the sign pattern that holds in each weight: negating
the cone breaks primitive positivity in odd weight only, since in even
weight the level-alternating sign involution is an isometry carrying the
stock orbit onto the negated one; negating the form breaks it in every
weight.
"""
import random

from hodgelim.builders import (StringModel, build_max_ivi_k2, cktm_bound_k2,
                               diagonal_cone_orbit, hodge_tate_orbit,
                               level_operator_k2, max_dim_symmetric,
                               symmetric_family_ivi, table1_catalog)
from hodgelim.filtrations import weight_filtration
from hodgelim.forms import BilForm
from hodgelim.matrices import Mat
from hodgelim.mixed import deligne_bigrading
from hodgelim.orbits import (IVI, NilpotentCone, NilpotentOrbit, PolyMap,
                             a_infinity, check_integrability, integrate_ivi,
                             verify_ivi, verify_orbit)
from hodgelim.scalars import GR, I
from hodgelim.search import SearchConfig, greedy_max_abelian
from hodgelim.subspaces import Subspace, direct_sum_equals

from genutil import make_split_mhs, random_real_invertible, transport_mhs

SEARCH = SearchConfig(restarts=200, seed=0)
GRID = [(h20, h11) for h20 in range(1, 5) for h11 in range(1, 7)]


def _wider_mixed_length_family() -> IVI:
    # the certified dimension-4 branch over the mixed-length row's cones
    row = table1_catalog()[3]
    model = StringModel(2, [("R", 2), ("C", 2, 1), ("C", 2, 0)])
    n1 = model.element((-1, -1), {(2, 2): [[1]]})
    n2 = model.element((-1, -1), {(2, 1): [[1]]})
    chi1 = model.element((-1, -2), {(2, 2): [[I]]})
    chi2 = model.element((-1, 0), {(2, 0): [[1]]})
    return IVI(row.orbit, (n1, n2, chi1, chi2))


def _suite_ivis() -> list[tuple[str, IVI]]:
    """Every abelian family the suite constructs by name."""
    out = [(f"cktm({h20},{h11})", build_max_ivi_k2(h20, h11))
           for h20, h11 in GRID]
    out += [(f"catalog: {row.label}", row.witness)
            for row in table1_catalog()]
    out += [(f"symmetric d={d}", symmetric_family_ivi(d)) for d in (1, 2, 3)]
    out.append(("wider mixed-length family", _wider_mixed_length_family()))
    return out


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def test_criterion_1_cktm_grid():
    """24 weight-2 families hit the closed-form bound exactly."""
    failures = []
    for h20, h11 in GRID:
        ivi = build_max_ivi_k2(h20, h11)
        rep = verify_ivi(ivi)
        bound = cktm_bound_k2(h20, h11)
        if not rep.ok or ivi.dim != bound:
            failures.append((h20, h11, ivi.dim, bound, rep.failed()))
    assert not failures, f"grid mismatches: {failures}"


def test_criterion_2_catalog_maxima_and_search():
    """Catalog maxima, witnesses, and the never-exceed search clause."""
    rows = table1_catalog()
    assert [r.expected_max for r in rows] == [4, 4, 3, 3, 3, 3]
    for row in rows:
        rep = verify_ivi(row.witness)
        assert rep.ok, (row.label, rep.pretty())
        assert row.witness.dim == row.expected_max, row.label

    excesses = []
    for row in rows:
        for cone in row.cones:
            target = NilpotentOrbit(row.orbit.weight, row.orbit.form,
                                    row.orbit.filtration, cone)
            res = greedy_max_abelian(target, SEARCH)
            if res.best_dim > row.expected_max:
                excesses.append((row.label, cone.r, res.best_dim,
                                 res.certified))
    assert not excesses, (
        f"search (restarts=200, seed=0) exceeds a recorded maximum: "
        f"{excesses}.  The mixed-length row admits a certified abelian "
        f"family of dimension 4 containing both of its cones, so its "
        f"recorded maximum 3 is not an upper bound — see "
        f"test_mixed_length_row_admits_a_wider_family in test_builders.py.")


def test_criterion_3_symmetric_dimensions():
    """Closed-form maxima over n full strings, by formula and by search."""
    assert [max_dim_symmetric(n) for n in range(1, 7)] == [1, 2, 3, 4, 5, 7]
    for d in (1, 2, 3):
        ivi = symmetric_family_ivi(d)
        assert verify_ivi(ivi).ok, f"d={d}"
        assert ivi.dim == d * (d + 1) // 2 + 1 == max_dim_symmetric(2 * d)
    for n in (3, 5):
        res = greedy_max_abelian(hodge_tate_orbit(2, n), SEARCH)
        assert res.best_dim == max_dim_symmetric(n), \
            f"n={n}: search found {res.best_dim}"
        assert res.certified, f"n={n}: no maximality certificate"


def test_criterion_4_orbit_dependence():
    """The maximum depends on the cone, not just on the limit structure."""
    diag = diagonal_cone_orbit(3)
    sym = symmetric_family_ivi(3)
    assert diag.filtration == sym.orbit.filtration
    assert diag.form.matrix == sym.orbit.form.matrix
    assert (diag.limit_weight_filtration()
            == sym.orbit.limit_weight_filtration())
    res = greedy_max_abelian(diag, SEARCH)
    assert res.best_dim == 6 and res.certified
    assert verify_ivi(sym).ok and sym.dim == 7


def test_criterion_5_integration_round_trip():
    """Every family integrates, commutes, and is recovered exactly."""
    failures = []
    for label, ivi in _suite_ivis():
        pm = integrate_ivi(ivi)
        rep = check_integrability(pm)
        recovered = a_infinity(pm)
        if not rep.ok:
            failures.append((label, "not integrable"))
        elif recovered != ivi.span():
            failures.append((label, "span not recovered"))
    assert not failures, failures


def _random_nilpotent(rng: random.Random) -> Mat:
    n = rng.randint(2, 6)
    upper = [[GR(rng.randint(-3, 3)) / GR(rng.choice((1, 1, 2, 3)))
              if j > i else GR(0)
              for j in range(n)] for i in range(n)]
    g = random_real_invertible(n, rng)
    return g @ Mat(upper) @ g.inverse()


def _weight_filtration_properties(m: Mat) -> list[str]:
    bad = []
    w = weight_filtration(m)
    top = w.support()[-1]
    for l in w.support():
        if not w.at(l).map_by(m) <= w.at(l - 2):
            bad.append(f"N W_{l} not inside W_{l - 2}")
    for l in range(1, top + 1):
        up = w.at(l).dim - w.at(l - 1).dim
        down = w.at(-l).dim - w.at(-l - 1).dim
        if up != down:
            bad.append(f"gr_{l} and gr_{-l} dims differ")
        elif w.at(l).map_by(m.pow(l)) + w.at(-l - 1) != w.at(-l):
            bad.append(f"N^{l} not onto gr_{-l}")
    return bad


def test_criterion_6_weight_filtration_properties():
    """Defining properties of W(N) plus basis-change equivariance."""
    rng = random.Random(600)
    failures = []
    mats = [_random_nilpotent(rng) for _ in range(100)]
    for i, m in enumerate(mats):
        for problem in _weight_filtration_properties(m):
            failures.append((i, problem))
    for i, m in enumerate(mats[:20]):
        g = random_real_invertible(m.nrows, rng)
        w = weight_filtration(m)
        wc = weight_filtration(g @ m @ g.inverse())
        for l in w.support():
            if wc.at(l) != w.at(l).map_by(g):
                failures.append((i, f"not equivariant at level {l}"))
    assert not failures, failures


def _bigrading_checks(label: str, w, f, failures: list) -> None:
    n = f.ambient
    bigr = deligne_bigrading(w, f)
    pieces = bigr.pieces
    if not direct_sum_equals(list(pieces.values()), Subspace.full(n)):
        failures.append((label, "pieces are not a direct sum"))
        return
    for l in w.support():
        total = Subspace.zero(n)
        for (p, q), s in pieces.items():
            if p + q <= l:
                total = total + s
        if total != w.at(l):
            failures.append((label, f"W_{l} not split"))
    for a in f.keys:
        total = Subspace.zero(n)
        for (p, q), s in pieces.items():
            if p >= a:
                total = total + s
        if total != f.at(a):
            failures.append((label, f"F^{a} not split"))
    for (p, q), s in pieces.items():
        mirror = pieces.get((q, p), Subspace.zero(n)).conj()
        lower = Subspace.zero(n)
        for (p2, q2), s2 in pieces.items():
            if p2 < p and q2 < q:
                lower = lower + s2
        if not (s <= mirror + lower and mirror <= s + lower):
            failures.append((label, f"({p},{q}) congruence fails"))


def test_criterion_7_deligne_splitting():
    """The canonical bigrading splits every constructed mixed structure."""
    failures = []
    orbits = [(f"hodge-tate({k},{n})", hodge_tate_orbit(k, n))
              for k in (1, 2, 3) for n in (1, 2, 3, 4)]
    orbits += [(f"diag-cone d={d}", diagonal_cone_orbit(d)) for d in (1, 2, 3)]
    orbits += [(f"catalog: {row.label}", row.orbit)
               for row in table1_catalog()]
    orbits += [(f"cktm({h20},{h11})", build_max_ivi_k2(h20, h11).orbit)
               for h20, h11 in ((1, 1), (2, 3), (4, 6))]
    orbits += [(f"symmetric d={d}", symmetric_family_ivi(d).orbit)
               for d in (1, 2, 3)]
    for label, orbit in orbits:
        _bigrading_checks(label, orbit.limit_weight_filtration(),
                          orbit.filtration, failures)
    rng = random.Random(700)
    for i in range(50):
        w, f, pieces = make_split_mhs(rng)
        g = random_real_invertible(f.ambient, rng)
        w2, f2, _ = transport_mhs(w, f, pieces, g)
        _bigrading_checks(f"split #{i}", w2, f2, failures)
    assert not failures, failures


def _level_signs(k: int, n: int) -> Mat:
    """eps = (-1)^c on L_c, in the level-grouped coordinates of
    hodge_tate_orbit(k, n)."""
    dim = n * (k + 1)
    return Mat([[(-1) ** (i // n) if i == j else 0 for j in range(dim)]
                for i in range(dim)])


def test_criterion_8_orbit_verification_pattern():
    """Stock orbits verify; sign and commutation mutants are caught.

    Negating N multiplies Q(., N^l .) by (-1)^l.  In odd weight the
    negated cone must fail primitive positivity.  In even weight it must
    verify, and eps = (-1)^c on L_c must explain why: eps is an isometry
    of Q, fixes every F^a and carries N to -N.  The negated form -Q must
    fail primitive positivity in every weight.
    """
    cases = [(k, n) for k in (1, 2, 3) for n in (1, 2, 3, 4)]
    for k, n in cases:
        assert verify_orbit(hodge_tate_orbit(k, n)).ok, (k, n)

    for k, n in cases:
        if n < 2:
            continue
        o = hodge_tate_orbit(k, n)
        g = o.cone.generators[0]
        bad = NilpotentOrbit(o.weight, o.form, o.filtration,
                             NilpotentCone((g, g.transpose())))
        rep = verify_orbit(bad)
        assert not rep.ok and "generators commute pairwise" in rep.failed(), \
            (k, n)

    positivity = "limit: primitive pieces are positive"
    failures = []
    for k, n in cases:
        o = hodge_tate_orbit(k, n)
        q, shift = o.form.matrix, o.cone.generators[0]
        neg = NilpotentOrbit(o.weight, o.form, o.filtration,
                             NilpotentCone(tuple(-g for g
                                                 in o.cone.generators)))
        rep = verify_orbit(neg)
        if k % 2:
            if rep.ok or positivity not in rep.failed():
                failures.append((k, n, "negated cone", rep.failed()))
        else:
            eps = _level_signs(k, n)
            if not rep.ok:
                failures.append((k, n, "negated cone", rep.failed()))
            if eps.transpose() @ q @ eps != q:
                failures.append((k, n, "eps is not an isometry of Q"))
            if o.filtration.map_by(eps) != o.filtration:
                failures.append((k, n, "eps moves some F^a"))
            if eps @ shift @ eps.inverse() != -shift:
                failures.append((k, n, "eps does not carry N to -N"))
        neg_form = NilpotentOrbit(o.weight, BilForm(-q, parity=o.form.parity),
                                  o.filtration, o.cone)
        rep = verify_orbit(neg_form)
        if rep.ok or positivity not in rep.failed():
            failures.append((k, n, "negated form", rep.failed()))
    assert not failures, failures


def test_criterion_9_integrability_control():
    """Non-commuting coefficients are rejected; integrated maps never are."""
    n = hodge_tate_orbit(2, 2).cone.generators[0]
    b = level_operator_k2(2, Mat([[0, 1], [0, 0]]))  # [n, b] != 0
    bad = PolyMap(("z1", "t1"), (n, b))
    assert not check_integrability(bad).ok
    for label, ivi in _suite_ivis():
        assert check_integrability(integrate_ivi(ivi)).ok, label


# ---------------------------------------------------------------------------
# pins of the behavior behind criteria 2 and 8
# ---------------------------------------------------------------------------

def test_negated_cone_verifies_in_even_weight():
    # the sign pattern criterion 8 asserts, in brief: the negated cone
    # fails in odd weight and verifies in even weight, where
    # diag((-1)^level) is an isometry carrying the stock orbit onto it
    for k in (1, 2, 3):
        o = hodge_tate_orbit(k, 2)
        neg = NilpotentOrbit(o.weight, o.form, o.filtration,
                             NilpotentCone(tuple(-g for g
                                                 in o.cone.generators)))
        assert verify_orbit(neg).ok == (k % 2 == 0)


def test_search_finds_the_wider_family_at_stated_parameters():
    # the data behind the criterion-2 failure: on the mixed-length row
    # both cones reach a certified dimension 4 at restarts=200, seed=0
    row = table1_catalog()[3]
    for cone in row.cones:
        target = NilpotentOrbit(row.orbit.weight, row.orbit.form,
                                row.orbit.filtration, cone)
        res = greedy_max_abelian(target, SEARCH)
        assert res.best_dim == 4 and res.certified
        assert verify_ivi(IVI(target, tuple(res.best))).ok
