import pytest

from hodgelim.builders import (diagonal_cone_orbit, hodge_tate_orbit,
                               max_dim_symmetric, table1_catalog)
from hodgelim.orbits import IVI, limit_context, verify_ivi
from hodgelim.search import SearchConfig, greedy_max_abelian


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
    assert "certified maximal" in res.summary()


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
    ctx = limit_context(row.witness.orbit)
    res = greedy_max_abelian(row.witness.orbit,
                             SearchConfig(restarts=30, seed=11), context=ctx)
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


@pytest.mark.parametrize("kwargs", [
    {"restarts": 0}, {"restarts": -1}, {"max_steps": -1}])
def test_config_rejects_bad_counts(kwargs):
    with pytest.raises(ValueError):
        SearchConfig(**kwargs)


def test_config_accepts_the_smallest_counts():
    cfg = SearchConfig(restarts=1, max_steps=0)
    assert (cfg.restarts, cfg.max_steps) == (1, 0)
