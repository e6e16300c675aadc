import hashlib
from collections import Counter

import pytest

from hodgelim import io
from hodgelim.builders import (DimTable, StringModel, build_max_ivi_k2,
                               carlson_toledo_bound, cktm_bound_k2,
                               diagonal_cone_orbit, hodge_tate_orbit,
                               level_operator_k2, max_dim_symmetric,
                               symmetric_family_ivi, table1_catalog)
from hodgelim.endo import centralizer_in, pairwise_commuting, span_basis_mats
from hodgelim.errors import VerificationError
from hodgelim.filtrations import verify_phs
from hodgelim.forms import in_isometry_algebra
from hodgelim.matrices import Mat
from hodgelim.orbits import (IVI, NilpotentOrbit, limit_context, verify_ivi,
                             verify_maximality, verify_orbit)
from hodgelim.scalars import GR, I


# ---------------------------------------------------------------------------
# string models
# ---------------------------------------------------------------------------

def piece_dims(m: StringModel) -> dict:
    return {pq: len(ids) for pq, ids in m.members.items()}


def hodge_numbers(t: DimTable) -> Counter:
    """Row sums h^p = sum_b j^{p,b} of the completed table."""
    out = Counter()
    for (p, _), v in t.complete().entries.items():
        out[p] += v
    return out


def test_single_real_string():
    m = StringModel(2, [("R", 2)])
    assert m.dim == 3
    assert piece_dims(m) == {(2, 2): 1, (1, 1): 1, (0, 0): 1}
    # e_c pairs with e_{l-c} by (-1)^c, in the standard basis
    assert m.form.matrix == Mat([[0, 0, 1], [0, -1, 0], [1, 0, 0]])
    assert m.n_std.is_real()
    assert in_isometry_algebra(m.n_std, m.form)


def test_complex_string_dimensions():
    m = StringModel(2, [("C", 2, 0)])
    assert m.dim == 2
    assert piece_dims(m) == {(2, 0): 1, (0, 2): 1}
    assert m.form.parity == 0
    long = StringModel(3, [("C", 2, 1)])
    assert piece_dims(long) == {(2, 1): 1, (1, 2): 1}


def test_model_rejects_bad_specs():
    with pytest.raises(ValueError):
        StringModel(2, [("C", 1, 1)])
    with pytest.raises(ValueError):
        StringModel(2, [("R", 0)])
    with pytest.raises(ValueError):
        StringModel(2, [])
    with pytest.raises(ValueError):
        StringModel(2, [("Q", 1)])


def test_model_defines_a_limit_structure():
    # pure case: every string of full length gives a plain Hodge structure
    m = StringModel(2, [("C", 2, 0), ("R", 1)])
    rep = verify_phs(m.filtration, 2, m.form)
    assert rep.ok, rep.pretty()


# ---------------------------------------------------------------------------
# element completion
# ---------------------------------------------------------------------------

def test_element_forces_the_partner_block():
    m = StringModel(2, [("C", 2, 1), ("R", 1)])
    psi = m.element((-1, 1), {(2, 1): [[1]]})
    # given block: u_0 of the long string goes to its conjugate
    u0, ubar0 = m.entries[0], m.entries[2]
    assert (psi @ Mat.from_columns([u0.vec])).col(0) == ubar0.vec
    # the pairing forces u_1 -> ubar_1 with coefficient exactly +1:
    # Q(ubar_0, u_1) = i and Q(u_0, ubar_1) = -i must cancel
    u1, ubar1 = m.entries[1], m.entries[3]
    assert (psi @ Mat.from_columns([u1.vec])).col(0) == ubar1.vec
    assert in_isometry_algebra(psi, m.form)


def test_element_rejects_partner_conflict():
    m = StringModel(2, [("C", 2, 1), ("R", 1)])
    with pytest.raises(ValueError):
        m.element((-1, 1), {(2, 1): [[1]], (1, 0): [[5]]})
    # the correct partner may be supplied redundantly
    psi = m.element((-1, 1), {(2, 1): [[1]], (1, 0): [[1]]})
    assert psi == m.element((-1, 1), {(2, 1): [[1]]})


def test_element_checks_self_paired_blocks():
    m = StringModel(2, [("R", 2), ("R", 1), ("R", 1)])
    good = [[0, -1, 0], [-1, 0, 0], [0, 0, 0]]
    x = m.element((0, 0), {(1, 1): good})
    assert in_isometry_algebra(x, m.form)
    with pytest.raises(ValueError):
        m.element((0, 0), {(1, 1): [[1, 0, 0], [0, 1, 0], [0, 0, 1]]})


def test_element_rejects_wrong_shape():
    m = StringModel(2, [("C", 2, 1), ("R", 1)])
    with pytest.raises(ValueError):
        m.element((-1, 1), {(2, 1): [[1], [2]]})


# ---------------------------------------------------------------------------
# dimension tables
# ---------------------------------------------------------------------------

def test_table_completion():
    t = DimTable(2, {(2, 0): 1}).complete()
    assert t.entries == {(2, 0): 1, (0, 2): 1}
    with pytest.raises(ValueError):
        DimTable(2, {(2, 0): 1, (0, 2): 2}).complete()
    with pytest.raises(ValueError):
        DimTable(2, {(1, 1): -1})


def test_hodge_numbers_row_sums():
    # completing (2,1) adds its conjugate and both pairing partners
    t = DimTable(2, {(2, 2): 1, (1, 1): 1, (2, 1): 1})
    assert hodge_numbers(t) == {2: 2, 1: 3, 0: 2}
    assert sum(t.complete().entries.values()) == 7


def test_string_decomposition_round_trip():
    t = DimTable(2, {(2, 2): 3, (1, 1): 3})
    assert t.strings() == [("R", 2)] * 3
    mixed = DimTable(2, {(2, 2): 1, (1, 1): 1, (2, 1): 1, (2, 0): 1})
    specs = mixed.strings()
    assert specs == [("R", 2), ("C", 2, 1), ("C", 2, 0)]
    assert piece_dims(mixed.model()) == mixed.complete().entries


def test_unrealizable_table_rejected():
    # a (2,2) piece with no (1,1) below it cannot come from strings
    with pytest.raises(VerificationError):
        DimTable(2, {(2, 2): 1}).strings()
    with pytest.raises(VerificationError):
        DimTable(2, {(1, 1): 1, (2, 2): 2}).strings()


# ---------------------------------------------------------------------------
# weight-2 maximal families
# ---------------------------------------------------------------------------

def test_bound_values():
    assert cktm_bound_k2(1, 1) == 1
    assert cktm_bound_k2(1, 5) == 5
    assert cktm_bound_k2(2, 2) == 2
    assert cktm_bound_k2(2, 3) == 3
    assert cktm_bound_k2(2, 5) == 5
    assert cktm_bound_k2(3, 4) == 6
    assert cktm_bound_k2(4, 6) == 12
    with pytest.raises(ValueError):
        cktm_bound_k2(0, 3)


@pytest.mark.parametrize("h20,h11", [
    (1, 1),   # rigid pure case
    (1, 4),   # single long string plus points
    (2, 3),   # odd h11, fewer long strings than h20
    (2, 5),   # odd h11, isotropic pairs among the points
    (2, 4),   # even h11, no points
    (2, 6),   # even h11, points paired off
])
def test_built_family_attains_the_bound(h20, h11):
    ivi = build_max_ivi_k2(h20, h11)
    rep = verify_ivi(ivi)
    assert rep.ok, (h20, h11, rep.pretty())
    assert rep.data["dim"] == cktm_bound_k2(h20, h11)
    f = ivi.orbit.filtration
    assert f.at(2).dim == h20 and f.at(1).dim == h20 + h11


# ---------------------------------------------------------------------------
# Hodge--Tate spaces
# ---------------------------------------------------------------------------

def test_hodge_tate_layout():
    o = hodge_tate_orbit(2, 1)
    assert o.form.matrix == Mat([[0, 0, 1], [0, -1, 0], [1, 0, 0]])
    assert o.cone.generators[0] == Mat([[0, 0, 0], [1, 0, 0], [0, 1, 0]])
    assert [o.filtration.at(a).dim for a in (0, 1, 2)] == [3, 2, 1]
    assert verify_orbit(o).ok


def test_level_operator_transposes_the_second_block():
    a = Mat([[1, 2], [3, 4]])
    x = level_operator_k2(2, a)
    o = hodge_tate_orbit(2, 2)
    assert in_isometry_algebra(x, o.form)
    assert x[2, 0] == GR(1) and x[3, 1] == GR(4)
    assert x[4, 2] == GR(1) and x[4, 3] == GR(3)  # transposed
    with pytest.raises(ValueError):
        level_operator_k2(3, a)


def test_diagonal_cone_certified_maximum():
    d = diagonal_cone_orbit(1)
    assert verify_orbit(d).ok
    fam = symmetric_family_ivi(1)
    assert verify_ivi(fam).ok
    assert fam.dim == 2 == max_dim_symmetric(2)


def test_symmetric_family_dimension_formula():
    assert [max_dim_symmetric(n) for n in range(1, 7)] == [1, 2, 3, 4, 5, 7]
    assert [carlson_toledo_bound(n) for n in range(1, 7)] == [0, 1, 2, 3, 4, 6]
    for d in (1, 2, 3):
        fam = symmetric_family_ivi(d)
        assert fam.dim == d * (d + 1) // 2 + 1 == max_dim_symmetric(2 * d)
        assert verify_ivi(fam).ok


# ---------------------------------------------------------------------------
# the weight-2 catalog at Hodge numbers (3, 3)
# ---------------------------------------------------------------------------

def test_catalog_shape():
    rows = table1_catalog()
    assert [r.expected_max for r in rows] == [4, 4, 3, 3, 3, 3]
    assert [len(r.cones) for r in rows] == [1, 1, 3, 2, 3, 3]
    assert [r.cones[0].r for r in rows] == [0, 1, 1, 1, 1, 1]
    for row in rows:
        assert sum(row.table.complete().entries.values()) == 9
        assert hodge_numbers(row.table) == {2: 3, 1: 3, 0: 3}


def test_catalog_witnesses_verify_and_are_maximal():
    for row in table1_catalog():
        rep = verify_ivi(row.witness)
        assert rep.ok, (row.label, rep.pretty())
        assert rep.data["dim"] == row.expected_max
        mrep = verify_maximality(row.witness)
        assert mrep.ok, (row.label, mrep.pretty())


def test_catalog_cones_are_orbits():
    for row in table1_catalog():
        for cone in row.cones:
            if cone.r == 0:
                continue
            orbit = row.witness.orbit
            rep = verify_orbit(type(orbit)(orbit.weight, orbit.form,
                                           orbit.filtration, cone))
            assert rep.ok, (row.label, cone.r, rep.pretty())


def test_catalog_tables_decompose():
    labels = [r.label for r in table1_catalog()]
    assert len(set(labels)) == 6
    for row in table1_catalog():
        specs = row.table.strings()
        model = StringModel(2, specs)
        assert piece_dims(model) == row.table.complete().entries


def test_mixed_length_row_admits_a_wider_family():
    # The mixed-length catalog row records max 3, but its limit structure
    # carries a second maximal-abelian branch of dimension 4: two extra
    # directions of degrees (-1, -2) and (-1, 0) commute with both shifts
    # and with each other.  The recorded witness sits on the other branch.
    row = table1_catalog()[3]
    model = StringModel(2, [("R", 2), ("C", 2, 1), ("C", 2, 0)])
    n1 = model.element((-1, -1), {(2, 2): [[1]]})
    n2 = model.element((-1, -1), {(2, 1): [[1]]})
    chi1 = model.element((-1, -2), {(2, 2): [[I]]})
    chi2 = model.element((-1, 0), {(2, 0): [[1]]})
    wide = IVI(row.orbit, (n1, n2, chi1, chi2))
    assert wide.dim == 4
    rep = verify_ivi(wide)
    assert rep.ok, rep.pretty()
    cert = verify_maximality(wide)
    assert cert.ok and cert.data["dim"] == 4
    assert cert.data["centralizer_dim"] == 4


def test_mixed_length_rank_two_cone_caps_families_at_four():
    # Every abelian family over the cone (n1, n2) lies in the centralizer
    # of n1 and n2 in the horizontal part.  That centralizer has dimension
    # 5 and is not abelian, so no family over this cone exceeds dimension
    # 4, and the family above attains it.  Over the rank-1 cone n1 + n2
    # the centralizer has dimension 6, and this argument gives only 5.
    row = table1_catalog()[3]
    ctx = limit_context(row.orbit)
    n = row.orbit.ambient
    assert ctx.horizontal.dim == 9
    rank1, rank2 = row.cones
    assert rank2 == row.orbit.cone and rank2.r == 2
    z = centralizer_in(ctx.horizontal, list(rank2.generators), n)
    assert z.dim == 5
    assert not pairwise_commuting(span_basis_mats(z, n))
    assert centralizer_in(ctx.horizontal, list(rank1.generators), n).dim == 6


# SHA-256 of the io JSON of every stock construction, recorded before the
# string models were rebuilt from one walk over the strings.
PINNED_CONSTRUCTIONS = ("16c7b8934dee03695bd470df99cea501"
                        "0cc6bbe580253061eda834daaa395b35")


def test_stock_constructions_are_pinned():
    data = [io.ivi_to_json(build_max_ivi_k2(h20, h11))
            for h20 in range(1, 5) for h11 in range(1, 7)]
    for row in table1_catalog():
        data.append(io.ivi_to_json(row.witness))
        o = row.orbit
        data += [io.orbit_to_json(NilpotentOrbit(o.weight, o.form,
                                                 o.filtration, cone))
                 for cone in row.cones]
    data += [io.ivi_to_json(symmetric_family_ivi(d)) for d in (1, 2, 3)]
    data += [io.orbit_to_json(diagonal_cone_orbit(d)) for d in (1, 2, 3)]
    data += [io.orbit_to_json(hodge_tate_orbit(k, n))
             for k in (1, 2, 3) for n in (1, 2, 3)]
    digest = hashlib.sha256(io.dump_text(data).encode("utf-8")).hexdigest()
    assert digest == PINNED_CONSTRUCTIONS
