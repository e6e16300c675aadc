import random

import pytest
from hypothesis import given, settings, strategies as st

from genutil import count_calls, move, weil_operator
from hodgelim.builders import (build_max_ivi_k2, diagonal_cone_orbit,
                               hodge_tate_orbit, symmetric_family_ivi,
                               table1_catalog)
from hodgelim.errors import VerificationError
from hodgelim.filtrations import (Bigrading, DecFiltration, IncFiltration,
                                  hs_from_filtration, verify_phs,
                                  weight_filtration, weight_filtration_defect)
from hodgelim.forms import BilForm
from hodgelim.matrices import Mat
from hodgelim.scalars import GR, I
from hodgelim.subspaces import Subspace, kernel


def jordan_nilpotent(sizes):
    """Block-diagonal nilpotent with lower-shift blocks of the given sizes."""
    n = sum(sizes)
    rows = [[0] * n for _ in range(n)]
    off = 0
    for s in sizes:
        for c in range(s - 1):
            rows[off + c + 1][off + c] = 1
        off += s
    return Mat(rows)


def jordan_weight_dim(sizes, l):
    """Independent count of dim W_l for a direct sum of shift blocks.

    A single block of size s contributes min(max((s + l + 1) // 2, 0), s);
    blocks are independent, so contributions add.
    """
    total = 0
    for s in sizes:
        total += min(max((s + l + 1) // 2, 0), s)
    return total


def random_invertible(n, rng):
    while True:
        m = Mat([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
        try:
            m.inverse()
            return m
        except ZeroDivisionError:
            continue


# ---------------------------------------------------------------------------
# filtration semantics
# ---------------------------------------------------------------------------

def test_decreasing_filtration_interpolates():
    f = DecFiltration({0: Subspace.full(2), 2: Subspace.span([(1, 0)], 2)})
    assert f.at(-5).dim == 2
    assert f.at(0).dim == 2
    assert f.at(1).dim == 1   # smallest listed index >= 1 is 2
    assert f.at(2).dim == 1
    assert f.at(3).dim == 0


def test_increasing_filtration_interpolates():
    w = IncFiltration({0: Subspace.span([(0, 1)], 2), 2: Subspace.full(2)})
    assert w.at(-1).dim == 0
    assert w.at(0).dim == 1
    assert w.at(1).dim == 1   # largest listed index <= 1 is 0
    assert w.at(2).dim == 2
    assert w.at(7).dim == 2


def test_filtration_equality_ignores_redundant_steps():
    a = DecFiltration({0: Subspace.full(2), 1: Subspace.span([(1, 0)], 2)})
    b = DecFiltration({0: Subspace.full(2), 1: Subspace.span([(1, 0)], 2),
                       -3: Subspace.full(2)})
    assert a == b


def test_filtration_equality_is_strict_by_direction():
    steps = {0: Subspace.span([(1, 0)], 2), 1: Subspace.span([(1, 0)], 2)}
    assert DecFiltration(steps) == DecFiltration(dict(steps))
    assert IncFiltration(steps) == IncFiltration(dict(steps))
    assert DecFiltration(steps) != IncFiltration(steps)
    assert IncFiltration(steps) != DecFiltration(steps)
    # on C^0 both directions take the same value everywhere
    point = {0: Subspace.zero(0)}
    assert DecFiltration(point) != IncFiltration(point)


def test_filtration_rejects_non_nested_steps():
    with pytest.raises(ValueError):
        DecFiltration({0: Subspace.span([(1, 0)], 2),
                       1: Subspace.span([(0, 1)], 2)})
    with pytest.raises(ValueError):
        IncFiltration({0: Subspace.full(2), 1: Subspace.span([(1, 0)], 2)})


def test_shift_relabels_indices():
    w = IncFiltration({-1: Subspace.span([(0, 1)], 2), 1: Subspace.full(2)})
    s = w.shift(-1)
    assert [s.at(j).dim for j in (0, 1, 2)] == [1, 1, 2]
    for j in range(-3, 4):
        assert s.at(j) == w.at(j - 1)


def test_jumps_are_the_nonzero_graded_indices():
    e1 = Subspace.span([(1, 0)], 2)
    full, zero = Subspace.full(2), Subspace.zero(2)
    cases = [({0: full, 2: e1}, [0, 2]),
             ({1: e1}, [0, 1]),
             ({0: full, 1: e1, 100: zero, -50: full}, [0, 1]),
             ({3: full}, [3]),
             ({0: zero}, [-1])]
    for steps, jumps in cases:
        f = DecFiltration(steps)
        assert f.jumps() == jumps
        assert jumps == [p for p in range(-60, 110) if f.at(p) != f.at(p + 1)]
    inc_cases = [({0: e1, 2: full}, [0, 2]),
                 ({1: e1}, [1, 2]),
                 ({-50: zero, 0: e1, 1: e1, 100: full}, [0, 100]),
                 ({3: full}, [3]),
                 ({0: zero}, [1]),
                 ({-9: zero, 0: e1, 1: e1, 2: full, 80: full}, [0, 2])]
    for steps, jumps in inc_cases:
        w = IncFiltration(steps)
        assert w.jumps() == jumps
        assert jumps == [l for l in range(-60, 110) if w.at(l) != w.at(l - 1)]
    for cls in (DecFiltration, IncFiltration):
        assert cls({0: Subspace.zero(0)}).jumps() == []
        assert cls({-5: Subspace.zero(0), 9: Subspace.full(0)}).jumps() == []


def test_jumps_of_every_stock_filtration_are_where_it_changes():
    for filt in builder_filtrations():
        side = 1 if isinstance(filt, DecFiltration) else -1
        probes = range(filt.keys[0] - 3, filt.keys[-1] + 4)
        assert filt.jumps() == [j for j in probes
                                if filt.at(j) != filt.at(j + side)]


def test_verify_phs_far_zero_step_of_f_adds_no_work(monkeypatch):
    # weight 1 on C^2: H^{1,0} spanned by (1, i), H^{0,1} by (1, -i)
    q = BilForm(Mat([[0, 1], [-1, 0]]), parity=1)
    f = DecFiltration({0: Subspace.full(2), 1: Subspace.span([(1, I)], 2)})
    plain = verify_phs(f, 1, q)
    assert plain.ok
    calls = count_calls(monkeypatch, [(Subspace, "__and__"),
                                      (BilForm, "gram_rows")])
    counts = []
    for far in (1000, 100_000):
        padded = DecFiltration({**f.steps, far: Subspace.zero(2)})
        calls.clear()
        assert verify_phs(padded, 1, q).to_dict() == plain.to_dict()
        counts.append(dict(calls))
    assert counts[0] == counts[1]


def test_verify_phs_far_weight_adds_no_work(monkeypatch):
    # F is whole up to its first jump 0, so at weight k every p in [k, 0]
    # gives a whole piece; the walk stops at the second, p = k + 1
    q = BilForm(Mat([[0, 1], [-1, 0]]), parity=1)
    f = DecFiltration({0: Subspace.full(2), 1: Subspace.span([(1, I)], 2)})
    calls = count_calls(monkeypatch, [(Subspace, "__and__")])
    seen = []
    for weight in (-999, -99_999):
        calls.clear()
        rep = verify_phs(f, weight, q).to_dict()
        seen.append((str(rep).replace(str(weight), "k"), dict(calls)))
    assert seen[0] == seen[1]
    assert "do not decompose the total space" in seen[0][0]


def builder_filtrations():
    """F and the limit W of every stock orbit."""
    orbits = [build_max_ivi_k2(h20, h11).orbit
              for h20 in range(1, 5) for h11 in range(1, 7)]
    orbits += [row.witness.orbit for row in table1_catalog()]
    orbits += [symmetric_family_ivi(d).orbit for d in (1, 2, 3)]
    orbits += [diagonal_cone_orbit(d) for d in (1, 2, 3)]
    orbits += [hodge_tate_orbit(k, n) for k in (1, 2, 3) for n in (1, 2, 3)]
    return [filt for o in orbits
            for filt in (o.filtration, o.limit_weight_filtration())]


def same_filtration(a, b):
    return (type(a) is type(b) and a.ambient == b.ambient
            and a.keys == b.keys == list(a.steps) and a.steps == b.steps)


def test_derived_filtrations_equal_the_checked_constructor():
    rng = random.Random(0)
    for filt in builder_filtrations():
        checked = type(filt)
        n = filt.ambient
        maps = [random_invertible(n, rng), Mat.zeros(n, n),
                Mat([[rng.randint(-2, 2) for _ in range(n)]
                     for _ in range(n + 1)])]
        assert same_filtration(filt.conj(), checked(
            {k: s.conj() for k, s in filt.steps.items()}))
        for g in maps:
            assert same_filtration(filt.map_by(g), checked(
                {k: s.map_by(g) for k, s in filt.steps.items()}))
        if checked is IncFiltration:
            for shift in (-3, 0, 2):
                assert same_filtration(filt.shift(shift), IncFiltration(
                    {k - shift: s for k, s in filt.steps.items()}))


def test_the_public_constructor_still_checks_nesting():
    f = hodge_tate_orbit(2, 2).filtration
    # the steps of a decreasing filtration do not nest the other way up
    with pytest.raises(ValueError, match="not nested"):
        IncFiltration(f.steps)
    swapped = {k: f.steps[j] for k, j in zip(f.keys, reversed(f.keys))}
    with pytest.raises(ValueError, match="not nested"):
        DecFiltration(swapped)
    assert IncFiltration(swapped).conj() == IncFiltration(
        {k: s.conj() for k, s in swapped.items()})


# ---------------------------------------------------------------------------
# weight filtrations of nilpotent operators
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("sizes", [(2,), (3,), (2, 3), (1, 4), (1, 1, 2),
                                   (4,), (3, 3)])
def test_weight_filtration_matches_block_count(sizes):
    n = jordan_nilpotent(sizes)
    w = weight_filtration(n)
    k0 = max(sizes) - 1
    for l in range(-k0 - 1, k0 + 2):
        assert w.at(l).dim == jordan_weight_dim(sizes, l), (sizes, l)


def test_weight_filtration_equivariant_under_conjugation():
    rng = random.Random("weight-equivariance")
    for trial in range(8):
        sizes = rng.choice([(2, 3), (3,), (1, 2, 2), (4, 1)])
        n = jordan_nilpotent(sizes)
        g = random_invertible(sum(sizes), rng)
        moved = weight_filtration(*move(g, n))
        base = weight_filtration(n)
        for l in base.support():
            assert moved.at(l) == base.at(l).map_by(g)


def test_weight_filtration_steps_by_two():
    n = jordan_nilpotent((3, 2))
    w = weight_filtration(n)
    for l in range(-3, 4):
        assert w.at(l).map_by(n) <= w.at(l - 2)


def test_weight_filtration_rejects_non_nilpotent():
    with pytest.raises(ValueError):
        weight_filtration(Mat([[1, 0], [0, 0]]))


def test_zero_operator_weight_filtration_is_a_single_jump():
    w = weight_filtration(Mat.zeros(3, 3))
    assert w.at(-1).dim == 0 and w.at(0).dim == 3


def partitions(n, largest=None):
    """The partitions of n as non-increasing tuples."""
    largest = n if largest is None else largest
    if n == 0:
        return [()]
    return [(k,) + rest for k in range(min(n, largest), 0, -1)
            for rest in partitions(n - k, k)]


def closed_formula_w(n: Mat) -> dict[int, Subspace]:
    """W_l = sum_i (ker N^(l+i+1) ∩ im N^i) for l in [-k, k], N^(k+1) = 0
    and N^k != 0, each term built by intersection."""
    dim = n.nrows
    powers = n.ladder()
    d = max(len(powers) - 1, 1)
    steps = {}
    for l in range(1 - d, d):
        acc = Subspace.zero(dim)
        for i in range(max(0, -l), d):
            t = min(l + i + 1, d)
            acc = acc + (kernel(powers[t])
                         & Subspace.full(dim).map_by(powers[i]))
        steps[l] = acc
    return steps


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from([lam for dim in range(1, 8)
                        for lam in partitions(dim)]),
       st.integers(0, 10**6), st.booleans())
def test_weight_filtration_equals_the_closed_formula(lam, seed, dense):
    g = (random_invertible(sum(lam), random.Random(seed)) if dense
         else Mat.identity(sum(lam)))
    n, = move(g, jordan_nilpotent(lam))
    assert weight_filtration(n).steps == closed_formula_w(n)


@st.composite
def nilpotent_pairs(draw):
    """Two nilpotents M, N on C^2 up to C^7.

    N is a Jordan matrix in the canonical or a seeded dense basis.  M has
    the same W as N by construction (N itself, a multiple, N + N^2) or is
    drawn freely (another Jordan type in N's basis, N's type in another
    basis), so both outcomes of W(M) == W(N) occur.
    """
    dim = draw(st.integers(2, 7))
    types = partitions(dim)
    lam = draw(st.sampled_from(types))
    seeds = draw(st.tuples(st.integers(0, 10**6), st.integers(0, 10**6)))
    dense = draw(st.booleans())
    bases = [random_invertible(dim, random.Random(seed)) if dense
             else Mat.identity(dim) for seed in seeds]
    g = bases[0]
    n, = move(g, jordan_nilpotent(lam))
    mode = draw(st.sampled_from(
        ["other type", "other basis", "same", "scaled", "unipotent twist"]))
    if mode == "same":
        m = n
    elif mode == "scaled":
        m = n * draw(st.sampled_from([2, -1, GR(1, 3), I]))
    elif mode == "unipotent twist":
        m = n + n @ n
    elif mode == "other type":
        m, = move(g, jordan_nilpotent(draw(st.sampled_from(types))))
    else:
        m, = move(random_invertible(dim, random.Random(seeds[1] + 1)),
                  jordan_nilpotent(lam))
    return m, n


@settings(max_examples=200, deadline=None, derandomize=True)
@given(nilpotent_pairs())
def test_weight_filtration_defect_detects_exactly_a_different_w(pair):
    """Deligne's uniqueness: W(M) passes N's defining properties iff
    W(M) = W(N)."""
    m, n = pair
    wm = weight_filtration(m)
    defect = weight_filtration_defect(wm, n)
    assert (defect is None) == (wm == weight_filtration(n))


def test_weight_filtration_defect_on_every_pair_of_jordan_types():
    for dim in range(1, 8):
        ws = {lam: weight_filtration(jordan_nilpotent(lam))
              for lam in partitions(dim)}
        for lam, wl in ws.items():
            n = jordan_nilpotent(lam)
            for mu, wm in ws.items():
                assert ((weight_filtration_defect(wm, n) is None)
                        == (wm == wl)), (lam, mu)


def test_weight_filtration_defect_reads_past_a_proper_top_step():
    # N = 0 has W = one full step at 0; a line at 0 is full only at 1,
    # which makes gr_1 nonzero against gr_{-1} = 0
    line = IncFiltration({0: Subspace.span([(1, 0)], 2)})
    assert weight_filtration_defect(line, Mat.zeros(2, 2)) == (
        "graded dimensions are not symmetric")
    assert weight_filtration_defect(weight_filtration(Mat.zeros(2, 2)),
                                    Mat.zeros(2, 2)) is None
    with pytest.raises(ValueError, match="does not act"):
        weight_filtration_defect(line, Mat.zeros(3, 3))


def test_weight_filtration_defect_names_each_property():
    n = jordan_nilpotent((3,))
    w = weight_filtration(n)
    assert weight_filtration_defect(w, Mat.identity(3)) == (
        "N does not lower the level by two")
    assert weight_filtration_defect(w.shift(1), n) == (
        "graded dimensions are not symmetric")
    # e0 -> e1 alone lowers W(N) by two, but its square is 0 and cannot
    # carry gr_2 onto gr_{-2}
    flat = Mat([[0, 0, 0], [1, 0, 0], [0, 0, 0]])
    assert weight_filtration_defect(w, flat) == (
        "N^l not surjective onto the opposite graded piece")


# ---------------------------------------------------------------------------
# pure Hodge structures
# ---------------------------------------------------------------------------

def weight_one_example():
    f = DecFiltration({0: Subspace.full(2),
                       1: Subspace.span([(-I, GR(1))], 2)})
    q = BilForm(Mat([[0, 1], [-1, 0]]), parity=1)
    return f, q


def test_weight_one_example_is_polarized():
    f, q = weight_one_example()
    rep = verify_phs(f, 1, q)
    assert rep.ok, rep.pretty()


def test_weight_one_positivity_value():
    # h(v, v) = Q(Cv, conj v) with v spanning the (1,0) part
    f, q = weight_one_example()
    hs = hs_from_filtration(f, 1)
    c = weil_operator(hs)
    v = (-I, GR(1))
    assert q((c @ Mat([[x] for x in v])).col(0),
             [x.conj() for x in v]) == GR(2)


def test_sign_flip_breaks_positivity():
    f, _ = weight_one_example()
    q = BilForm(Mat([[0, -1], [1, 0]]), parity=1)
    rep = verify_phs(f, 1, q)
    assert not rep.ok


def test_wrong_weight_fails():
    f, q = weight_one_example()
    assert not verify_phs(f, 2, q).ok


def test_non_hodge_filtration_rejected():
    # F^1 spanned by a real vector: F^1 + conj(F^1) cannot fill the plane
    f = DecFiltration({0: Subspace.full(2), 1: Subspace.span([(1, 0)], 2)})
    with pytest.raises(VerificationError):
        hs_from_filtration(f, 1)


def test_weil_operator_squares_to_parity():
    f, _ = weight_one_example()
    hs = hs_from_filtration(f, 1)
    c = weil_operator(hs)
    assert c @ c == Mat([[-1, 0], [0, -1]])
    assert c.is_real()  # i^{p-q} is real iff p-q even; here C swaps factors


def test_bigrading_requires_independent_pieces():
    s = Subspace.span([(1, 0)], 2)
    with pytest.raises(VerificationError):
        Bigrading({(0, 0): s, (1, 1): s})
    with pytest.raises(VerificationError):
        Bigrading({(0, 0): s})  # does not span

