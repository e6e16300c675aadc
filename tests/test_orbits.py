import gc
import weakref
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest

from genutil import count_calls
from hodgelim import filtrations, forms, matrices, mixed, orbits
from hodgelim.builders import (build_max_ivi_k2, diagonal_cone_orbit,
                               hodge_tate_orbit, level_operator_k2,
                               symmetric_family_ivi, table1_catalog)
from hodgelim.endo import isometry_algebra, span_basis_mats
from hodgelim.errors import VerificationError
from hodgelim.filtrations import DecFiltration
from hodgelim.matrices import Mat
from hodgelim.orbits import (IVI, NilpotentCone, NilpotentOrbit, PolyMap,
                             _interior_samples, a_infinity,
                             check_integrability,
                             integrate_ivi, limit_context, verify_ivi,
                             verify_maximality, verify_orbit)
from hodgelim.scalars import GR, I, as_scalar


def ht_orbit(k=2, n=2):
    return hodge_tate_orbit(k, n)


# ---------------------------------------------------------------------------
# cones and orbits
# ---------------------------------------------------------------------------

def dense_element(cone, coefficients):
    """The element as a dense sum of scaled generators."""
    acc = Mat.zeros(*cone.generators[0].shape)
    for c, g in zip(coefficients, cone.generators):
        acc = acc + g * as_scalar(c)
    return acc


def stock_cones():
    cones = [build_max_ivi_k2(h20, h11).orbit.cone
             for h20 in range(1, 5) for h11 in range(1, 7)]
    cones += [cone for row in table1_catalog() for cone in row.cones]
    cones += [symmetric_family_ivi(d).orbit.cone for d in (1, 2, 3)]
    cones += [diagonal_cone_orbit(d).cone for d in (1, 2, 3)]
    cones += [hodge_tate_orbit(k, n).cone for k in (1, 2, 3) for n in (1, 2)]
    return [c for c in cones if c.r]


COEFFICIENTS = (1, 3, -2, Fraction(1, 3), Fraction(-5, 2), GR(1, 1), I, 0)


def test_cone_elements_match_the_dense_sum():
    for cone in stock_cones():
        r = cone.r
        draws = [[1] * r, [0] * r, [-1] * r]
        draws += [[COEFFICIENTS[(i + s) % len(COEFFICIENTS)]
                   for i in range(r)] for s in range(len(COEFFICIENTS))]
        for coefficients in draws:
            got = cone.element(coefficients)
            assert got == dense_element(cone, coefficients)
            assert got.shape == cone.generators[0].shape
            assert all(isinstance(row, tuple) for row in got.t)


def test_cone_elements():
    o = diagonal_cone_orbit(1)
    c = o.cone
    assert c.r == 2
    assert c.barycenter() == c.element([1, 1])
    assert c.element([2, 0]) == c.generators[0] * GR(2)
    with pytest.raises(ValueError):
        c.element([1])
    with pytest.raises(ValueError):
        NilpotentCone(()).element([])


def test_orbit_verification_passes_on_shift_strings():
    for k in (1, 2, 3):
        for n in (1, 2):
            rep = verify_orbit(ht_orbit(k, n))
            assert rep.ok, (k, n, rep.pretty())


def test_interior_samples_are_distinct_past_five_generators():
    for r in range(6, 10):
        samples = _interior_samples(r)
        assert len(samples) == 32 and len(set(samples)) == 32, r
        assert all(len(s) == r and min(s) >= 1 for s in samples)
    rep = verify_orbit(diagonal_cone_orbit(3))
    assert rep.ok, rep.pretty()
    sampled = [c for c in rep.checks if "samples" in c.detail]
    assert [c.detail["samples"] for c in sampled] == [32]


def test_orbit_verification_needs_a_generator():
    o = ht_orbit()
    empty = NilpotentOrbit(o.weight, o.form, o.filtration, NilpotentCone(()))
    with pytest.raises(ValueError):
        verify_orbit(empty)


def test_negative_weight_needs_an_empty_cone():
    o = ht_orbit(2, 2)
    for weight in (-1, -2):
        with pytest.raises(ValueError, match=f"got weight {weight}$"):
            NilpotentOrbit(weight, o.form, o.filtration, o.cone)
    # a pure structure of negative weight is legitimate
    pure = NilpotentOrbit(-2, o.form, o.filtration, NilpotentCone(()))
    assert pure.weight == -2


def test_non_commuting_cone_rejected():
    o = ht_orbit(2, 2)
    sym = level_operator_k2(2, Mat([[0, 1], [1, 0]]))
    e11 = level_operator_k2(2, Mat([[1, 0], [0, 0]]))
    bad = NilpotentOrbit(2, o.form, o.filtration, NilpotentCone((e11, sym)))
    rep = verify_orbit(bad)
    assert not rep.ok
    assert "generators commute pairwise" in rep.failed()


def test_complex_generator_rejected():
    o = ht_orbit(2, 1)
    bad = NilpotentOrbit(2, o.form, o.filtration,
                         NilpotentCone((o.cone.generators[0] * I,)))
    rep = verify_orbit(bad)
    assert not rep.ok
    assert "generators are real" in rep.failed()


def test_a_large_weight_costs_no_more_products(monkeypatch):
    # N^(k+1) = 0 is tested on powers that stop at the dimension, so a
    # non-nilpotent generator is rejected with as many products at weight
    # 2^20 as at weight 16; climbing to N^(k+1) takes 127 s at 2^20
    o = ht_orbit(2, 1)
    real = matrices.t_matmul
    products = Counter()

    def counted(a, b):
        products[weight] += 1
        return real(a, b)
    monkeypatch.setattr(matrices, "t_matmul", counted)
    reports = {}
    for weight in (16, 2 ** 20):
        # a fresh generator: a matrix keeps the powers it has climbed
        g = Mat([[1, Fraction(1, 2), 0], [Fraction(1, 3), 1, 0], [0, 0, 2]])
        reports[weight] = verify_orbit(
            NilpotentOrbit(weight, o.form, o.filtration, NilpotentCone((g,))))
    small, large = reports[16], reports[2 ** 20]
    assert "generators satisfy N^17 = 0" in small.failed()
    assert small.title.replace("16", str(2 ** 20)) == large.title
    assert ([(c.ok, c.detail) for c in small.checks]
            == [(c.ok, c.detail) for c in large.checks])
    assert [c.name.replace("17", str(2 ** 20 + 1)) for c in small.checks] \
        == [c.name for c in large.checks]
    assert small.data == large.data
    assert products[16] == products[2 ** 20] > 0


@pytest.mark.parametrize("make", [lambda: hodge_tate_orbit(2, 2),
                                  lambda: symmetric_family_ivi(3).orbit])
def test_verify_orbit_climbs_each_ladder_once(make, monkeypatch):
    # the generator, which is the barycenter of a one-generator cone (the
    # first interior sample, whose ladder W and the limit check read
    # too), and the second sample
    orbit = make()
    real = Mat.ladder
    climbed = []

    def counted(self):
        if not hasattr(self, "_higher"):
            climbed.append(self)
        return real(self)
    monkeypatch.setattr(Mat, "ladder", counted)
    assert verify_orbit(orbit).ok
    assert len(climbed) <= 2
    assert len({id(m) for m in climbed}) == len(climbed)
    assert any(m is orbit.barycenter for m in climbed)


def weight_jump_orbit(top=1):
    # diag(top,0) and diag(-1,1) level maps commute and are nilpotent, but
    # the sum degenerates: with top = 1 the barycenter has rank-1 top map,
    # other interior points rank 2; with top = 2 the barycenter has rank 2
    # and the sample (1, 2) rank 1
    o = ht_orbit(2, 2)
    n1 = level_operator_k2(2, Mat([[top, 0], [0, 0]]))
    n2 = level_operator_k2(2, Mat([[-1, 0], [0, 1]]))
    return NilpotentOrbit(2, o.form, o.filtration, NilpotentCone((n1, n2)))


def test_weight_jump_in_cone_interior_detected():
    rep = verify_orbit(weight_jump_orbit())
    assert not rep.ok
    assert "weight filtration constant on the sampled interior" in rep.failed()


def test_weight_jump_is_detected_with_a_limit_context():
    # a degenerate barycenter has no limit structure to build
    with pytest.raises(VerificationError):
        limit_context(weight_jump_orbit())
    # a generic barycenter has one; the jump elsewhere is still seen
    bad = weight_jump_orbit(top=2)
    limit_context(bad)
    fresh = weight_jump_orbit(top=2)
    assert fresh == bad and fresh is not bad
    rep = verify_orbit(bad)
    assert rep.to_dict() == verify_orbit(fresh).to_dict()
    assert rep.failed() == [
        "weight filtration constant on the sampled interior"]
    assert (verify_ivi(IVI(bad, bad.cone.generators)).to_dict()
            == verify_ivi(IVI(weight_jump_orbit(top=2),
                              bad.cone.generators)).to_dict())


def test_a_limit_build_that_raises_is_not_kept():
    orbit = weight_jump_orbit()
    for _ in range(2):
        with pytest.raises(VerificationError):
            limit_context(orbit)
    assert ("weight filtration constant on the sampled interior"
            in verify_orbit(orbit).failed())


def test_an_orbit_and_its_limit_are_freed_by_reference_counting():
    orbit = symmetric_family_ivi(1).orbit
    limit_context(orbit)
    verify_orbit(orbit)
    ref = weakref.ref(orbit)
    gc.collect()
    gc.disable()
    try:
        del orbit
        assert ref() is None
        # nor does a part of the limit, a kept ladder included, make a
        # cycle that only the cycle collector would free
        assert gc.collect() == 0
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# families
# ---------------------------------------------------------------------------

def _context_suite():
    out = [build_max_ivi_k2(h20, h11)
           for h20 in range(1, 5) for h11 in range(1, 7)]
    out += [row.witness for row in table1_catalog()]
    out += [symmetric_family_ivi(d) for d in (1, 2, 3)]
    return out


def test_limit_context_reuse_leaves_reports_unchanged():
    suite = _context_suite()
    assert len(suite) == 33
    for ivi in suite:
        limit_context(ivi.orbit)
        # replace builds an equal orbit that has built nothing yet
        plain = verify_ivi(IVI(replace(ivi.orbit), ivi.family))
        assert plain.ok, plain.pretty()
        assert verify_ivi(ivi).to_dict() == plain.to_dict()
        if ivi.orbit.cone.r:
            assert (verify_orbit(ivi.orbit).to_dict()
                    == verify_orbit(replace(ivi.orbit)).to_dict())


@pytest.mark.parametrize("make", [lambda: symmetric_family_ivi(2),
                                  lambda: build_max_ivi_k2(3, 3)])
def test_limit_parts_are_built_once_per_orbit(make, monkeypatch):
    ivi = make()
    calls = Counter()

    def count(module, name):
        real = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)

    count(orbits, "weight_filtration")
    count(orbits, "deligne_bigrading")
    count(mixed, "deligne_bigrading")
    once = {"weight_filtration": 1, "deligne_bigrading": 1}
    assert verify_ivi(ivi).ok
    assert calls == once
    assert verify_maximality(ivi).ok
    assert limit_context(ivi.orbit) is ivi.orbit
    assert calls == once
    # the memo is no field: an equal orbit builds its own
    again = replace(ivi.orbit)
    assert again == ivi.orbit
    assert all(getattr(again, part) is not getattr(ivi.orbit, part)
               for part in ("w", "bigrading", "horizontal"))
    # a one-generator cone's barycenter is the generator the orbits share
    assert again.barycenter is again.cone.generators[0]
    assert calls == {"weight_filtration": 2, "deligne_bigrading": 2}


def shifted_f_orbit():
    """hodge_tate_orbit(2, 2) with each step of F moved up one index: the
    generator still lowers F by one, but (W, F) is no mixed Hodge
    structure."""
    o = ht_orbit(2, 2)
    return replace(o, filtration=DecFiltration(
        {a + 1: s for a, s in o.filtration.steps.items()}))


def test_a_failing_splitting_is_built_once_per_verification(monkeypatch):
    o = shifted_f_orbit()
    n, w, f = o.barycenter, o.w, o.filtration
    with pytest.raises(VerificationError):
        mixed.deligne_bigrading(w, f)
    calls = count_calls(monkeypatch, [(orbits, "deligne_bigrading"),
                                      (mixed, "deligne_bigrading")])
    runs = [(lambda: verify_orbit(o), "limit: mhs: canonical bigrading"),
            (lambda: mixed.verify_pmhs(2, o.form, w, f, n),
             "mhs: canonical bigrading"),
            (lambda: mixed.verify_mhs(w, f), "canonical bigrading")]
    for run, failed in runs:
        calls.clear()
        assert failed in run().failed()
        assert calls == {"deligne_bigrading": 1}


@pytest.mark.parametrize("make, splits", [
    (lambda: ht_orbit(2, 2), True), (lambda: diagonal_cone_orbit(2), True),
    (shifted_f_orbit, False)])
def test_the_graded_route_runs_only_when_the_splitting_fails(make, splits,
                                                             monkeypatch):
    o = make()
    n, w, f = o.barycenter, o.w, o.filtration
    calls = count_calls(monkeypatch, [(mixed, "graded_filtration"),
                                      (mixed, "hs_from_filtration")])
    for run in (lambda: verify_orbit(o),
                lambda: mixed.verify_pmhs(o.weight, o.form, w, f, n),
                lambda: mixed.verify_mhs(w, f)):
        calls.clear()
        assert run().ok == splits
        if splits:
            assert calls == {}
        else:
            # gr_0 is read, and fails
            assert calls == {"graded_filtration": 1,
                             "hs_from_filtration": 1}


def test_limit_n_checks_are_not_made_again_for_the_barycenter(monkeypatch):
    isometry, defect, graded = [], [], []
    real_isometry = forms.in_isometry_algebra
    real_defect = filtrations.weight_filtration_defect
    real_graded = filtrations._graded_defect
    for module in (orbits, mixed):
        monkeypatch.setattr(module, "in_isometry_algebra",
                            lambda x, q: isometry.append(x)
                            or real_isometry(x, q))
    for module in (orbits, mixed, filtrations):
        monkeypatch.setattr(module, "weight_filtration_defect",
                            lambda w, x: defect.append(x)
                            or real_defect(w, x))
    monkeypatch.setattr(filtrations, "_graded_defect",
                        lambda w, x: graded.append(x) or real_graded(w, x))
    row = table1_catalog()[5]
    for o, ok in ((ht_orbit(2, 2), True), (diagonal_cone_orbit(2), True),
                  (replace(row.orbit, cone=row.cones[-1]), True),
                  (shifted_f_orbit(), False)):
        o = replace(o)  # a fresh orbit, whose W is not built yet
        isometry.clear()
        defect.clear()
        graded.clear()
        rep = verify_orbit(o)
        assert rep.ok == ok
        k = o.weight
        assert [(c.name, c.ok) for c in rep.checks
                if c.name.startswith("limit: ")][:5] == [
            ("limit: N is real", True), (f"limit: N^{k + 1} = 0", True),
            ("limit: N preserves the form infinitesimally", True),
            ("limit: N lowers F by one", True),
            ("limit: W is the recentered weight filtration of N", True)]
        # one isometry check per generator, and the one graded check
        # weight_filtration makes on the W it builds
        n = o.barycenter
        assert len(isometry) == o.cone.r
        assert sum(x == n for x in isometry) == (o.cone.r == 1)
        assert sum(x == n for x in defect) == 0
        assert sum(x == n for x in graded) == 1


def transversality_cone() -> NilpotentOrbit:
    """The cone (N, X) on hodge_tate_orbit(2, 2), X the real antisymmetric
    isometry L_0 -> L_2 of the canonical basis of the isometry algebra.
    X commutes with N and is nilpotent, but X F^2 = L_2 does not lie in
    F^1 = L_0 + L_1: X lowers F by two."""
    o = ht_orbit(2, 2)
    block = [m for m in span_basis_mats(isometry_algebra(o.form), 6)
             if all(m.t[r][c] == (0, 0, 1) for r in range(6)
                    for c in range(6) if r < 4 or c > 1)]
    assert len(block) == 1
    x = block[0]
    assert x == Mat([[0] * 6] * 4 + [[0, 1, 0, 0, 0, 0],
                                     [-1, 0, 0, 0, 0, 0]])
    return replace(o, cone=NilpotentCone(o.cone.generators + (x,)))


def test_a_generator_lowering_f_by_two_fails_transversality():
    rep = verify_orbit(transversality_cone())
    assert rep.failed() == ["generators lower the filtration by one"]
    assert [c.name for c in rep.checks][-1] == \
        "generators lower the filtration by one"


def test_family_verification_and_dimension():
    ivi = symmetric_family_ivi(2)
    rep = verify_ivi(ivi)
    assert rep.ok, rep.pretty()
    assert rep.data["dim"] == 4


def test_family_must_contain_cone():
    o = ht_orbit(2, 2)
    e22 = level_operator_k2(2, Mat([[0, 0], [0, 1]]))
    rep = verify_ivi(IVI(o, (e22,)))  # cone is the full shift, not in span
    assert not rep.ok
    assert "cone lies inside the family" in rep.failed()


def test_family_must_be_horizontal():
    # an antisymmetric level map is not an infinitesimal isometry at all
    o = hodge_tate_orbit(1, 2)
    anti = Mat([[0, 0, 0, 0], [0, 0, 0, 0], [0, 1, 0, 0], [-1, 0, 0, 0]])
    rep = verify_ivi(IVI(o, (o.cone.generators[0], anti)))
    assert not rep.ok
    assert "family is horizontal of degree -1" in rep.failed()


def test_family_must_commute():
    o = ht_orbit(2, 2)
    a = level_operator_k2(2, Mat([[0, 1], [0, 0]]))
    b = level_operator_k2(2, Mat([[0, 0], [1, 0]]))
    rep = verify_ivi(IVI(o, (o.cone.generators[0], a, b)))
    assert not rep.ok
    assert "family commutes pairwise" in rep.failed()


def test_maximality_certificate():
    d = diagonal_cone_orbit(2)
    fam = IVI(d, d.cone.generators)
    rep = verify_maximality(fam)
    assert rep.ok and rep.data == {"dim": 4, "centralizer_dim": 4}
    assert verify_maximality(fam).ok
    # the bare shift on two shifted strings is centralized by every level map
    o = ht_orbit(2, 2)
    small = IVI(o, o.cone.generators)
    rep = verify_maximality(small)
    assert not rep.ok
    assert rep.data["dim"] == 1 and rep.data["centralizer_dim"] > 1


# ---------------------------------------------------------------------------
# period maps
# ---------------------------------------------------------------------------

def test_polymap_partials_and_equality():
    # the partial derivative in a variable is its constant coefficient
    a, b, zero = Mat([[0, 1], [0, 0]]), Mat([[0, 0], [1, 0]]), Mat.zeros(2, 2)
    pm = PolyMap(("x", "y", "w"), (a, b, zero))
    assert pm.coefficients == (a, b, zero)
    assert pm.shape == (2, 2)
    assert pm.coefficient("x") == a and pm.coefficient("y") == b
    assert pm.coefficient("w") == zero
    assert pm == PolyMap(["x", "y", "w"], [a, b, zero])
    assert pm != PolyMap(("x", "y", "w"), (b, a, zero))
    with pytest.raises(ValueError):
        pm.coefficient("z")


def test_integration_round_trip():
    ivi = symmetric_family_ivi(2)
    pm = integrate_ivi(ivi)
    assert pm.variables[0] == "z1"
    assert len(pm.variables) == 4  # one cone direction + three others
    assert check_integrability(pm).ok
    assert a_infinity(pm) == ivi.span()


def test_integrability_negative_control():
    a, b = Mat([[0, 1], [0, 0]]), Mat([[0, 0], [1, 0]])
    assert a @ b != b @ a
    pm = PolyMap(("u", "v"), (a, b))
    rep = check_integrability(pm)
    assert not rep.ok


def test_polymap_rejects_malformed_maps():
    a, row = Mat([[0, 1], [0, 0]]), Mat([[0, 1]])
    for variables, coefficients, message in [
            (("z", "z"), (a, a), "duplicate variable names"),
            (("z", "t"), (a,), "1 coefficients for 2 variables"),
            (("z",), (a, a), "2 coefficients for 1 variables"),
            (("z", "t"), (a, row), "coefficient matrices of mixed shapes"),
            ((), (), "a period map needs at least one term")]:
        with pytest.raises(ValueError, match=message):
            PolyMap(variables, coefficients)
    # a non-square map of one shape is a period map
    assert PolyMap(("z", "t"), (row, row)).shape == (1, 2)


def test_cktm_family_round_trip():
    ivi = build_max_ivi_k2(2, 3)
    pm = integrate_ivi(ivi)
    assert check_integrability(pm).ok
    assert a_infinity(pm) == ivi.span()
    assert len(pm.variables) == ivi.dim  # one z plus dim-1 t's
