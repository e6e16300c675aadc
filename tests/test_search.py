import random

import pytest

from hodgelim import io
from hodgelim.builders import (diagonal_cone_orbit, hodge_tate_orbit,
                               max_dim_symmetric, table1_catalog)
from hodgelim.cli import main
from hodgelim.endo import SpanCoordinates, centralizer_in, span_basis_mats
from hodgelim.matrices import Mat, t_matmul
from hodgelim.orbits import (IVI, NilpotentCone, NilpotentOrbit,
                             limit_context, verify_ivi, verify_orbit)
from hodgelim.search import (COEFFICIENTS, SearchConfig,
                             greedy_max_abelian)
from hodgelim.subspaces import Subspace


def test_search_is_deterministic():
    o = hodge_tate_orbit(2, 2)
    cfg = SearchConfig(restarts=12, seed="det")
    a = greedy_max_abelian(o, cfg)
    b = greedy_max_abelian(o, cfg)
    assert a.restart_dims == b.restart_dims
    assert a.best == b.best
    other = greedy_max_abelian(o, SearchConfig(restarts=12, seed="det2"))
    assert other.best_dim == a.best_dim  # maximum is stable across seeds


@pytest.mark.parametrize("n", [1, 2, 3])
def test_search_attains_the_known_maximum(n):
    o = hodge_tate_orbit(2, n)
    res = greedy_max_abelian(o, SearchConfig(restarts=40, seed=7))
    assert res.certified
    assert res.best_dim == max_dim_symmetric(n)
    fam = IVI(o, tuple(res.best))
    assert verify_ivi(fam).ok


def test_search_result_is_a_valid_family():
    d = diagonal_cone_orbit(1)
    res = greedy_max_abelian(d, SearchConfig(restarts=10, seed=1))
    assert res.certified
    assert res.best_dim == 2  # the diagonal cone itself is already maximal
    assert verify_ivi(IVI(d, tuple(res.best))).ok


def test_search_from_a_pointed_start():
    # row 1 of the catalog has an empty cone: search the whole horizontal
    # part.  The dimension-4 families there are degenerate, so random
    # growth reliably lands on locally-maximal dimension-3 families; the
    # search certifies an upper bound and the witness supplies attainment.
    row = table1_catalog()[0]
    assert row.witness.orbit.cone.r == 0
    res = greedy_max_abelian(row.witness, SearchConfig(restarts=25, seed=3))
    assert res.certified
    assert res.best_dim <= row.expected_max
    assert res.best_dim >= 3


def test_search_never_beats_a_certified_row():
    row = table1_catalog()[2]
    res = greedy_max_abelian(row.witness.orbit,
                             SearchConfig(restarts=30, seed=11))
    assert res.certified
    assert res.best_dim <= row.expected_max
    assert max(res.restart_dims) <= row.expected_max


def test_max_steps_truncates_growth():
    o = hodge_tate_orbit(2, 3)
    res = greedy_max_abelian(o, SearchConfig(restarts=5, seed=0, max_steps=1))
    assert not res.certified
    assert res.best_dim <= 2  # the cone plus at most one adjoined direction


def test_search_rejects_non_orbit_input():
    with pytest.raises(TypeError):
        greedy_max_abelian([1, 2, 3])


def test_search_rejects_a_cone_that_is_not_horizontal(capsys, tmp_path):
    # Y maps L_0 to L_2 by an antisymmetric matrix: it commutes with N and
    # preserves the form, but lowers the filtration by two, so N + Y is
    # not horizontal
    o = hodge_tate_orbit(2, 2)
    (n,) = o.cone.generators
    rows = [[0] * 6 for _ in range(6)]
    rows[4][1], rows[5][0] = 1, -1
    y = Mat(rows)
    assert n @ y == y @ n
    bad = NilpotentOrbit(o.weight, o.form, o.filtration,
                         NilpotentCone((n, n + y)))
    report = verify_orbit(bad)
    assert report.failed() == ["generators lower the filtration by one"]
    with pytest.raises(ValueError, match="^cone span is not horizontal$"):
        greedy_max_abelian(bad)
    path = tmp_path / "cone.json"
    path.write_text(io.dump_text(io.orbit_to_json(bad)), encoding="utf-8")
    assert main(["search", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: cone span is not horizontal\n"


@pytest.mark.parametrize("kwargs", [
    {"restarts": 0}, {"restarts": -1}, {"max_steps": -1}])
def test_config_rejects_bad_counts(kwargs):
    with pytest.raises(ValueError):
        SearchConfig(**kwargs)


def test_config_accepts_the_smallest_counts():
    cfg = SearchConfig(restarts=1, max_steps=0)
    assert (cfg.restarts, cfg.max_steps) == (1, 0)


# ---------------------------------------------------------------------------
# the step that solves on the complement against the whole-z loop
# ---------------------------------------------------------------------------

def whole_z_greedy(orbit: NilpotentOrbit, config: SearchConfig):
    """The greedy loop with each step's centralizer taken over the whole of
    z, the loop the complement solve replaced: the oracle."""
    n = orbit.ambient
    hor = limit_context(orbit).horizontal
    gens = list(orbit.cone.generators)
    z_base = centralizer_in(hor, gens, n) if gens else hor
    coordinates = SpanCoordinates(z_base, n)
    m = z_base.dim
    base_coords = Subspace.from_triples(
        [tuple(r[p] for p in z_base.pivots)
         for r in orbit.cone.span(n).rows], m)
    best, best_certified, restart_dims = None, False, []
    for restart in range(config.restarts):
        rng = random.Random(f"{config.seed}:{restart}")
        current, z, steps = base_coords, Subspace.full(m), 0
        while True:
            comp = current.complement_in(z)
            certified = comp.dim == 0
            if certified or (config.max_steps is not None
                             and steps >= config.max_steps):
                break
            steps += 1
            coeffs = [rng.choice(COEFFICIENTS) for _ in range(comp.dim)]
            while all(c.is_zero() for c in coeffs):
                coeffs = [rng.choice(COEFFICIENTS) for _ in range(comp.dim)]
            x = t_matmul((tuple(c.triple for c in coeffs),), comp.rows)[0]
            current = current + Subspace.from_triples((x,), m)
            z = coordinates.centralizer(z, x)
        restart_dims.append(current.dim)
        if best is None or current.dim > best.dim:
            best, best_certified = current, certified
    return restart_dims, span_basis_mats(z_base.lift(best), n), best_certified


def oracle_orbits() -> dict[str, NilpotentOrbit]:
    """Every catalog cone on its row, and hodge_tate_orbit(2, 4)."""
    orbits = {"ht4": hodge_tate_orbit(2, 4)}
    for i, row in enumerate(table1_catalog()):
        o = row.orbit
        for j, cone in enumerate(row.cones):
            orbits[f"row{i}.cone{j}"] = NilpotentOrbit(
                o.weight, o.form, o.filtration, cone)
    return orbits


ORACLE_ORBITS = oracle_orbits()


@pytest.mark.parametrize("label", sorted(ORACLE_ORBITS))
def test_complement_steps_match_the_whole_z_loop(label):
    orbit = ORACLE_ORBITS[label]
    for seed in range(3):
        for max_steps in (None, 1, 0):
            config = SearchConfig(restarts=10, seed=seed,
                                  max_steps=max_steps)
            res = greedy_max_abelian(orbit, config)
            assert ((res.restart_dims, res.best, res.certified)
                    == whole_z_greedy(orbit, config)), (seed, max_steps)
