import json

import pytest

from hodgelim.builders import hodge_tate_orbit, symmetric_family_ivi
from hodgelim.errors import FormatError
from hodgelim.filtrations import weight_filtration
from hodgelim.io import (dec_filtration_from_json, dec_filtration_to_json,
                         dump_text, hs_from_json, hs_to_json,
                         inc_filtration_from_json, inc_filtration_to_json,
                         ivi_from_json, ivi_to_json, load_file,
                         matrix_from_json, matrix_to_json, mhs_from_json,
                         mhs_to_json, orbit_from_json, orbit_to_json,
                         pmhs_from_json, pmhs_to_json, polymap_from_json,
                         polymap_to_json, scalar_from_json, scalar_to_json,
                         subspace_from_json, subspace_to_json)
from hodgelim.orbits import IVI, PolyMap, integrate_ivi
from hodgelim.scalars import GR, I
from hodgelim.subspaces import Subspace


# ---------------------------------------------------------------------------
# scalars
# ---------------------------------------------------------------------------

def test_scalar_round_trips():
    for text in ["0", "7", "-3", "2/5", "-11/4"]:
        x = GR.parse(text)
        assert scalar_to_json(x) == text
        assert scalar_from_json(text) == x
    z = GR.parse("1/2") + GR(3) * I
    out = scalar_to_json(z)
    assert out == {"re": "1/2", "im": "3"}
    assert scalar_from_json(out) == z


def test_scalar_canonical_output():
    assert scalar_to_json(GR.parse("2/4")) == "1/2"
    assert scalar_from_json("2/4") == GR.parse("1/2")
    assert scalar_from_json(5) == GR(5)
    assert scalar_from_json({"im": "1"}) == I
    assert scalar_from_json({"re": 2}) == GR(2)


@pytest.mark.parametrize("bad", [
    True, 1.5, None, [1], "1/0", "x", {"re": "1", "imaginary": "2"},
    {"re": True},
])
def test_scalar_rejects(bad):
    with pytest.raises(FormatError):
        scalar_from_json(bad)


# ---------------------------------------------------------------------------
# matrices and subspaces
# ---------------------------------------------------------------------------

def test_matrix_round_trip():
    from hodgelim.matrices import Mat
    m = Mat([[GR(1), GR.parse("-2/3")], [I, GR(0)]])
    out = matrix_to_json(m)
    assert out[0] == ["1", "-2/3"]
    assert out[1][0] == {"re": "0", "im": "1"}
    assert matrix_from_json(out) == m


@pytest.mark.parametrize("bad", [
    [], {}, [[]], [["1"], []], [["1", "2"], ["3"]], ["1"],
])
def test_matrix_rejects(bad):
    with pytest.raises(FormatError):
        matrix_from_json(bad)


def test_subspace_round_trip():
    s = Subspace.span([(GR(2), GR(4), GR(0)), (GR(0), GR(0), I)], 3)
    out = subspace_to_json(s)
    assert subspace_from_json(out, 3) == s
    with pytest.raises(FormatError):
        subspace_from_json(out, 4)


# ---------------------------------------------------------------------------
# filtrations
# ---------------------------------------------------------------------------

def test_dec_filtration_round_trip():
    f = hodge_tate_orbit(2, 1).filtration
    out = dec_filtration_to_json(f)
    assert set(out) == {"0", "1", "2"}
    assert dec_filtration_from_json(out) == f


def test_inc_filtration_round_trip():
    n = hodge_tate_orbit(2, 1).cone.generators[0]
    w = weight_filtration(n)
    out = inc_filtration_to_json(w)
    assert inc_filtration_from_json(out) == w


def test_filtration_ambient_inference():
    # empty steps are fine as long as one vector fixes the dimension
    f = dec_filtration_from_json({"0": [["1", "0"]], "1": []})
    assert f.ambient == 2
    assert f.at(1).dim == 0
    with pytest.raises(FormatError):
        dec_filtration_from_json({"0": [], "1": []})


@pytest.mark.parametrize("bad", [
    [], {}, {"x": [["1"]]}, {"0": "nope"},
    {"01": [["1"]], "1": [["1"]]},
])
def test_filtration_rejects(bad):
    with pytest.raises(FormatError):
        dec_filtration_from_json(bad)


def test_filtration_must_be_nested():
    # two incomparable lines cannot form a decreasing filtration
    bad = {"0": [["1", "0"]], "1": [["0", "1"]]}
    with pytest.raises(FormatError):
        dec_filtration_from_json(bad)


# ---------------------------------------------------------------------------
# compound files
# ---------------------------------------------------------------------------

def test_hs_round_trip():
    o = hodge_tate_orbit(1, 2)
    out = hs_to_json(o.weight, o.form, o.filtration)
    weight, q, f = hs_from_json(out)
    assert (weight, q.matrix, f) == (o.weight, o.form.matrix, o.filtration)


def test_mhs_round_trip():
    o = hodge_tate_orbit(2, 1)
    w = weight_filtration(o.cone.generators[0])
    out = mhs_to_json(w, o.filtration)
    w2, f2 = mhs_from_json(out)
    assert (w2, f2) == (w, o.filtration)


def test_pmhs_round_trip():
    o = hodge_tate_orbit(2, 1)
    n = o.cone.generators[0]
    w = weight_filtration(n)
    out = pmhs_to_json(o.weight, o.form, w, o.filtration, n)
    weight, q, w2, f2, n2 = pmhs_from_json(out)
    assert weight == o.weight and q.matrix == o.form.matrix
    assert (w2, f2, n2) == (w, o.filtration, n)


def test_dimension_mismatch_rejected():
    o = hodge_tate_orbit(1, 1)
    big = hodge_tate_orbit(1, 2)
    out = hs_to_json(o.weight, o.form, o.filtration)
    out["F"] = dec_filtration_to_json(big.filtration)
    with pytest.raises(FormatError):
        hs_from_json(out)


@pytest.mark.parametrize("drop", ["weight", "form", "F"])
def test_hs_missing_keys(drop):
    o = hodge_tate_orbit(1, 1)
    out = hs_to_json(o.weight, o.form, o.filtration)
    del out[drop]
    with pytest.raises(FormatError):
        hs_from_json(out)


@pytest.mark.parametrize("weight", ["2", True, 2.0, None])
def test_weight_must_be_integer(weight):
    o = hodge_tate_orbit(2, 1)
    out = hs_to_json(o.weight, o.form, o.filtration)
    out["weight"] = weight
    with pytest.raises(FormatError):
        hs_from_json(out)


def test_orbit_round_trip():
    o = hodge_tate_orbit(2, 2)
    out = orbit_to_json(o)
    o2 = orbit_from_json(out)
    assert o2.weight == o.weight
    assert o2.form.matrix == o.form.matrix
    assert o2.filtration == o.filtration
    assert o2.cone.generators == o.cone.generators


def test_ivi_round_trip():
    ivi = symmetric_family_ivi(2)
    out = ivi_to_json(ivi)
    ivi2 = ivi_from_json(out)
    assert ivi2.family == ivi.family
    assert ivi2.orbit.filtration == ivi.orbit.filtration
    assert ivi2.span() == ivi.span()


def test_ivi_needs_a_basis():
    ivi = symmetric_family_ivi(1)
    out = ivi_to_json(ivi)
    for bad in (None, [], "basis"):
        broken = dict(out)
        if bad is None:
            del broken["abelian_basis"]
        else:
            broken["abelian_basis"] = bad
        with pytest.raises(FormatError):
            ivi_from_json(broken)


# ---------------------------------------------------------------------------
# period maps
# ---------------------------------------------------------------------------

def test_polymap_round_trip():
    pm = integrate_ivi(symmetric_family_ivi(2))
    out = polymap_to_json(pm)
    assert len(out["z_part"]) == 1 and len(out["t_linear"]) == 3
    pm2 = polymap_from_json(out)
    assert pm2.variables == pm.variables
    assert pm2.terms == pm.terms


def test_polymap_higher_terms():
    # period maps are linear: a written file keeps the key, always empty
    out = polymap_to_json(integrate_ivi(symmetric_family_ivi(1)))
    assert out["higher"] == []
    del out["higher"]
    assert polymap_from_json(out).variables == ("z1", "t1")


def test_polymap_variable_order_pinned():
    from hodgelim.matrices import Mat
    m = Mat([[GR(1)]])
    with pytest.raises(FormatError):
        polymap_to_json(PolyMap(("t1", "z1"), {(1, 0): m}))


@pytest.mark.parametrize("higher", [
    [{"matrix": [["1"]]}],
    [{"monomial": {"q1": 2}, "matrix": [["1"]]}],
    [{"monomial": {"z1": -1}, "matrix": [["1"]]}],
    [{"monomial": {"z1": True}, "matrix": [["1"]]}],
    [{"monomial": {"z1": 1}, "matrix": [["1"]]}],
    [{"monomial": {"z1": 2}, "matrix": [["1"]]}],
])
def test_polymap_rejects_bad_higher(higher):
    out = {"z_part": [[["0"]]], "t_linear": [], "higher": higher}
    out["z_part"] = [[["1"]]]
    with pytest.raises(FormatError):
        polymap_from_json(out)


def test_polymap_needs_variables():
    with pytest.raises(FormatError):
        polymap_from_json({"z_part": [], "t_linear": []})


# ---------------------------------------------------------------------------
# files
# ---------------------------------------------------------------------------

def test_load_file_errors(tmp_path):
    with pytest.raises(FormatError):
        load_file(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(FormatError):
        load_file(str(bad))


def test_load_and_dump(tmp_path):
    ivi = symmetric_family_ivi(1)
    path = tmp_path / "fam.json"
    path.write_text(dump_text(ivi_to_json(ivi)), encoding="utf-8")
    data = load_file(str(path))
    assert ivi_from_json(data).family == ivi.family


def test_dump_text_is_canonical():
    text = dump_text({"b": 1, "a": [2]})
    assert text == '{\n  "a": [\n    2\n  ],\n  "b": 1\n}\n'
    assert json.loads(text) == {"a": [2], "b": 1}
