"""Limits that are not R-split.

A limit (W, F) is R-split when its Deligne splitting has I^{q,p} =
conj(I^{p,q}).  The stock limits all are, and a limit of a degenerating
family in general is not (Cattani--Kaplan--Schmid, Ann. Math. 123 (1986),
§2).  Two exact sources of limits that are not:

- the faces of a cone: for a proper face J of the generators, the orbit
  of the N_j in J on exp(i Σ_{j∉J} N_j) F;
- a twist: e^{iX} F for X real of type (-2, -2) that commutes with the
  cone, which leaves the polarization by N in place.
"""
import itertools
from fractions import Fraction
from math import factorial

from genutil import move, ref_verify_mhs
from hodgelim import io
from hodgelim.builders import (build_max_ivi_k2, diagonal_cone_orbit,
                               hodge_tate_orbit, symmetric_family_ivi,
                               table1_catalog)
from hodgelim.filtrations import DecFiltration
from hodgelim.matrices import Mat, combine
from hodgelim.mixed import verify_mhs
from hodgelim.orbits import (IVI, NilpotentCone, NilpotentOrbit,
                             verify_ivi, verify_maximality, verify_orbit)
from hodgelim.scalars import GR, I

I_POWERS = (GR(1), I, GR(-1), -I)


def exp_i(m: Mat) -> Mat:
    """e^{iM} of a nilpotent M, summed off its ladder (I, M, M², ...)."""
    powers = m.ladder()
    return combine([I_POWERS[k % 4] * Fraction(1, factorial(k))
                    for k in range(len(powers))], powers)


def r_split(orbit: NilpotentOrbit) -> bool:
    bigr = orbit.bigrading
    return all(bigr.piece(q, p) == s.conj()
               for (p, q), s in bigr.pieces.items())


def multi_generator_orbits() -> list[NilpotentOrbit]:
    """Every catalog cone with r >= 2, and the diagonal cones on 2 and 4
    strings."""
    out = [NilpotentOrbit(row.orbit.weight, row.orbit.form,
                          row.orbit.filtration, cone)
           for row in table1_catalog() for cone in row.cones if cone.r >= 2]
    return out + [diagonal_cone_orbit(1), diagonal_cone_orbit(2)]


def faces(orbit: NilpotentOrbit):
    """The orbit of each proper face J, on exp(i Σ_{j∉J} N_j) F."""
    gens = orbit.cone.generators
    for size in range(1, len(gens)):
        for face in itertools.combinations(range(len(gens)), size):
            rest = [g for j, g in enumerate(gens) if j not in face]
            f = orbit.filtration.map_by(exp_i(combine([1] * len(rest), rest)))
            yield NilpotentOrbit(orbit.weight, orbit.form, f, NilpotentCone(
                tuple(gens[j] for j in face)))


def test_exp_i_sums_a_finite_series():
    n = hodge_tate_orbit(2, 1).cone.generators[0]
    half = Fraction(1, 2)
    assert exp_i(n) == Mat([[1, 0, 0], [I, 1, 0], [-half, I, 1]])


def test_every_face_is_a_nilpotent_orbit_and_some_are_not_split():
    orbits = multi_generator_orbits()
    assert [o.cone.r for o in orbits] == [2, 3, 2, 2, 3, 2, 3, 2, 4]
    face_orbits = [face for o in orbits for face in faces(o)]
    assert len(face_orbits) == 42
    failing = [verify_orbit(face).failed() for face in face_orbits]
    assert failing == [[]] * 42
    assert sum(not r_split(face) for face in face_orbits) == 20
    # the cones themselves keep their split limits
    assert all(r_split(o) for o in orbits)


def twisted(ivi: IVI) -> IVI:
    """The IVI moved by e^{iX} = I + iX, X: L_0 -> L_2 antisymmetric on a
    weight-2 Hodge--Tate space.  X is an infinitesimal isometry with
    X² = 0 that kills L_1 + L_2 and maps into L_2, so it commutes with
    every level operator, and the move changes only F."""
    orbit = ivi.orbit
    n = orbit.ambient // 3
    rows = [[0] * orbit.ambient for _ in range(orbit.ambient)]
    for i in range(n):
        for j in range(n):
            rows[2 * n + i][j] = j - i
    g = Mat.identity(orbit.ambient) + Mat(rows) * I
    form, f, *moved = move(g, orbit.form, orbit.filtration,
                           *orbit.cone.generators, *ivi.family)
    r = orbit.cone.r
    return IVI(NilpotentOrbit(orbit.weight, form, f,
                              NilpotentCone(tuple(moved[:r]))),
               tuple(moved[r:]))


def test_a_twist_keeps_every_report():
    ht = hodge_tate_orbit(2, 2)
    for ivi in (IVI(ht, ht.cone.generators), symmetric_family_ivi(2),
                symmetric_family_ivi(3)):
        twist = twisted(ivi)
        assert twist.orbit.filtration != ivi.orbit.filtration
        assert r_split(ivi.orbit) and not r_split(twist.orbit)
        for check in (verify_ivi, verify_maximality):
            assert check(twist).to_dict() == check(ivi).to_dict()
        assert verify_ivi(twist).ok


def stock_orbits() -> list[NilpotentOrbit]:
    out = [NilpotentOrbit(row.orbit.weight, row.orbit.form,
                          row.orbit.filtration, cone)
           for row in table1_catalog() for cone in row.cones]
    out += [hodge_tate_orbit(k, n) for k in (1, 2, 3) for n in (1, 2, 3)]
    out += [build_max_ivi_k2(h20, h11).orbit
            for h20, h11 in ((1, 1), (1, 2), (2, 1), (2, 3), (3, 4))]
    out += [symmetric_family_ivi(d).orbit for d in (1, 2, 3)]
    return out + [diagonal_cone_orbit(d) for d in (1, 2, 3)]


def test_the_graded_route_is_read_off_the_splitting():
    limits = stock_orbits() + [face for o in multi_generator_orbits()
                               for face in faces(o)]
    assert len(limits) == 75
    failing = 0
    for o in limits:
        # and F moved up one index, where the splitting fails
        moved = DecFiltration({a + 1: s
                               for a, s in o.filtration.steps.items()})
        for f in (o.filtration, moved):
            got = verify_mhs(o.w, f)
            assert io.dump_text(got.to_dict()) == io.dump_text(
                ref_verify_mhs(o.w, f).to_dict())
            assert got.ok == (f is o.filtration)
            failing += "canonical bigrading" in got.failed()
    assert failing == 75
