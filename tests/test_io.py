import json

import pytest
from hypothesis import given, settings, strategies as st

from hodgelim import io
from hodgelim.builders import (build_max_ivi_k2, diagonal_cone_orbit,
                               hodge_tate_orbit, symmetric_family_ivi,
                               table1_catalog)
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
from hodgelim.matrices import Mat
from hodgelim.mixed import deligne_bigrading
from hodgelim.orbits import IVI, NilpotentOrbit, PolyMap, integrate_ivi
from hodgelim.scalars import GR, I, t_norm
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
# the triple reader against the GR path it replaced
# ---------------------------------------------------------------------------

def gr_path(obj) -> GR:
    """Each literal to a GR by GR.parse, complex parts joined by GR
    arithmetic: the reader before it produced triples directly."""
    def rational(x) -> GR:
        if isinstance(x, bool):
            raise FormatError("booleans are not scalars")
        if isinstance(x, int):
            return GR(x)
        if isinstance(x, str):
            try:
                return GR.parse(x)
            except ValueError as exc:
                raise FormatError(str(exc)) from None
        raise FormatError(f"expected a rational, got {type(x).__name__}")

    if isinstance(obj, dict):
        unknown = set(obj) - {"re", "im"}
        if unknown:
            raise FormatError(f"unknown scalar keys {sorted(unknown)}")
        return rational(obj.get("re", 0)) + rational(obj.get("im", 0)) * I
    return rational(obj)


def outcome(read, obj):
    try:
        return "value", read(obj)
    except FormatError as exc:
        return "error", str(exc)


def assert_reads_like_gr_path(obj):
    expected = outcome(lambda x: gr_path(x).triple, obj)
    assert outcome(io._triple_from_json, obj) == expected, obj
    assert outcome(lambda x: scalar_from_json(x).triple, obj) == expected, obj


LITERALS = [
    "0", "-0", "+0", "7", "+7", "-3", "007", "-007/0010", "2/4", "-11/4",
    " 5 ", "\t-2/3\n", "1/ 2", "1 /2", "- 1", "++1", "+-1",
    "\u0663", "\u0661/\u0662", "\uff11\uff12", "\u0967\u0966/\u0969",
    "1/\u0662", "1_0", "1/0", "1/-2", "1/+2", "1/02", "", " ", "/", "1/",
    "/2", "1.5", "1e3", "0x10", "i", "1/2/3", "\u00b2",
]
SCALARS = LITERALS + [
    0, -12, 10 ** 30, 1.5, 2.0, float("nan"), True, False, None, [], ["1"],
    {}, {"re": "1/2"}, {"im": "-3"}, {"re": "2/6", "im": 4},
    {"re": "1", "im": "1", "x": "0"}, {"real": "1"}, {"re": True},
    {"im": None}, {"re": 1.5}, {"re": {"re": "1"}}, {"im": ["1"]},
    {"re": "1/0"}, {"re": "\u0663", "im": "-\u0661/\u0664"},
]


@pytest.mark.parametrize("obj", SCALARS, ids=repr)
def test_reader_matches_gr_path(obj):
    assert_reads_like_gr_path(obj)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(st.one_of(
    st.text(alphabet="0123456789+-/ _.\t\u0663\u0669\uff10\uff15\u0967",
            max_size=8),
    st.text(max_size=6),
    st.integers(),
    st.dictionaries(st.sampled_from(["re", "im", "x"]),
                    st.one_of(st.text("0123456789-/", max_size=4),
                              st.integers(-5, 5), st.booleans()),
                    max_size=3)))
def test_reader_matches_gr_path_on_drawn_input(obj):
    assert_reads_like_gr_path(obj)


@pytest.mark.parametrize("bad", ["1/0", "x", "1_0", "", {"re": "1/-2"}])
def test_a_bad_literal_fails_every_time(bad):
    # the literal memo keeps parsed literals only: a failure is raised afresh
    for _ in range(2):
        with pytest.raises(FormatError):
            scalar_from_json(bad)
        with pytest.raises(FormatError):
            matrix_from_json([[bad]])


def stock_constructions():
    data = [ivi_to_json(build_max_ivi_k2(h20, h11))
            for h20 in range(1, 5) for h11 in range(1, 7)]
    for row in table1_catalog():
        data.append(ivi_to_json(row.witness))
        o = row.orbit
        data += [orbit_to_json(NilpotentOrbit(o.weight, o.form,
                                              o.filtration, cone))
                 for cone in row.cones]
    data += [ivi_to_json(symmetric_family_ivi(d)) for d in (1, 2, 3)]
    data += [orbit_to_json(diagonal_cone_orbit(d)) for d in (1, 2, 3)]
    data += [orbit_to_json(hodge_tate_orbit(k, n))
             for k in (1, 2, 3) for n in (1, 2, 3)]
    return data


def test_stock_files_read_like_the_gr_path():
    for data in stock_constructions():
        mats = [data["form"], *data["nilpotents"],
                *data.get("abelian_basis", [])]
        for raw in mats:
            old = Mat([[gr_path(e) for e in row] for row in raw])
            assert matrix_from_json(raw).t == old.t
        ambient = len(data["form"])
        for vecs in data["F"].values():
            old = Subspace.span([[gr_path(e) for e in v] for v in vecs],
                                ambient)
            new = subspace_from_json(vecs, ambient)
            assert (new.rows, new.pivots) == (old.rows, old.pivots)


# ---------------------------------------------------------------------------
# the triple writers against the GR path they replaced
# ---------------------------------------------------------------------------

def gr_scalar_to_json(x: GR):
    """One GR per entry, complex parts through Fraction: the writers
    before they wrote straight from triples."""
    if x.is_real():
        return str(x)
    return {"re": str(x.re), "im": str(x.im)}


def gr_matrix_to_json(m: Mat) -> list:
    return [[gr_scalar_to_json(m[i, j]) for j in range(m.ncols)]
            for i in range(m.nrows)]


def gr_subspace_to_json(s: Subspace) -> list:
    return [[gr_scalar_to_json(GR.from_triple(e)) for e in row]
            for row in s.rows]


def written_stock_files():
    limit = build_max_ivi_k2(2, 3).orbit
    return dump_text([
        *stock_constructions(),
        io.bigrading_to_json(deligne_bigrading(
            limit.limit_weight_filtration(), limit.filtration)),
        io.polymap_to_json(integrate_ivi(symmetric_family_ivi(2))),
    ])


def test_stock_files_write_like_the_gr_path(monkeypatch):
    new = written_stock_files()
    monkeypatch.setattr(io, "matrix_to_json", gr_matrix_to_json)
    monkeypatch.setattr(io, "subspace_to_json", gr_subspace_to_json)
    assert written_stock_files() == new


drawn_triples = st.builds(
    t_norm, st.integers(-60, 60),
    st.one_of(st.just(0), st.integers(-9, 9)), st.integers(1, 12))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 4).flatmap(lambda n: st.lists(
    st.lists(drawn_triples, min_size=n, max_size=n), min_size=1,
    max_size=4)))
def test_writers_match_the_gr_path_on_drawn_entries(rows):
    tm = tuple(tuple(r) for r in rows)
    m = Mat.from_triples(tm)
    assert matrix_to_json(m) == gr_matrix_to_json(m)
    s = Subspace.from_triples(tm, m.ncols)
    assert subspace_to_json(s) == gr_subspace_to_json(s)
    for e in tm[0]:
        x = GR.from_triple(e)
        assert scalar_to_json(x) == gr_scalar_to_json(x)
        if x.is_real():
            assert scalar_to_json(x.re) == gr_scalar_to_json(x)


# ---------------------------------------------------------------------------
# the literal memo and the row fast path
# ---------------------------------------------------------------------------

CACHED = ["1", "-2/3", "0", "7/2"]


def read_in_cached_row(obj):
    """obj read as one entry of a matrix row and of a vector whose other
    entries are literals already in the memo; both readers must agree."""
    matrix_from_json([CACHED])  # the literals are in the memo now
    assert all(text in io._LITERALS for text in CACHED)
    row = CACHED[:2] + [obj] + CACHED[2:]
    as_matrix = outcome(lambda r: matrix_from_json([r]).t[0], row)
    assert outcome(lambda r: io._vector_from_json(r, len(r)),
                   row) == as_matrix
    return as_matrix


@pytest.mark.parametrize("obj", SCALARS, ids=repr)
def test_an_entry_reads_alike_among_cached_literals(obj):
    kind, expected = outcome(lambda x: gr_path(x).triple, obj)
    got = read_in_cached_row(obj)
    if kind == "error":
        assert got == ("error", expected)
    else:
        assert got == ("value", tuple(
            GR.parse(t).triple for t in CACHED[:2]) + (expected,) + tuple(
            GR.parse(t).triple for t in CACHED[2:]))


@pytest.mark.parametrize("bad", [
    True, False, 1.5, 2.0, "1/0", {"re": "1", "x": "0"},
    {"re": "1", "im": {"re": "1"}}, {"re": {"im": "2"}}, None, ["1"],
], ids=repr)
def test_a_bad_entry_among_cached_literals_is_rejected(bad):
    with pytest.raises(FormatError) as alone:
        scalar_from_json(bad)
    assert read_in_cached_row(bad) == ("error", str(alone.value))


def test_a_row_of_cached_literals_and_dicts_reads_entry_by_entry():
    matrix_from_json([CACHED])
    assert matrix_from_json([["1", {"re": "1", "im": "-1"}, "0"]]).t == (
        ((1, 0, 1), (1, -1, 1), (0, 0, 1)),)


def test_the_memo_holds_only_parsed_literals():
    for bad in ["1/0", "x", "1_0", "", "1.5", "\u0663"]:
        with pytest.raises(FormatError):
            matrix_from_json([CACHED + [bad]])
        assert bad not in io._LITERALS
    for text, t in io._LITERALS.items():
        assert type(text) is str and t == GR.parse(text).triple


def test_the_memo_never_grows_past_its_bound():
    bound = io._LITERALS_MAX
    for i in range(bound + 50):
        assert scalar_from_json(f"{i}/7").triple == t_norm(i, 0, 7)
        assert len(io._LITERALS) <= bound
    row = [f"-{i}/3" for i in range(bound + 50)]
    assert matrix_from_json([row]).t[0] == tuple(
        t_norm(-i, 0, 3) for i in range(bound + 50))
    assert len(io._LITERALS) <= bound


# ---------------------------------------------------------------------------
# matrices and subspaces
# ---------------------------------------------------------------------------

def test_matrix_round_trip():
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
    assert pm2.coefficients == pm.coefficients


def test_polymap_higher_terms():
    # period maps are linear: a written file keeps the key, always empty
    out = polymap_to_json(integrate_ivi(symmetric_family_ivi(1)))
    assert out["higher"] == []
    del out["higher"]
    assert polymap_from_json(out).variables == ("z1", "t1")


def test_polymap_variable_order_pinned():
    m = Mat([[GR(1)]])
    with pytest.raises(FormatError):
        polymap_to_json(PolyMap(("t1", "z1"), (m, m)))


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
