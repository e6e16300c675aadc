import hashlib
import random
from dataclasses import replace

import pytest

from genutil import (count_calls, make_split_mhs, move,
                     random_real_invertible, transport_mhs, weil_operator)
from hodgelim import mixed
from hodgelim.builders import (StringModel, build_max_ivi_k2,
                               diagonal_cone_orbit, hodge_tate_orbit,
                               symmetric_family_ivi, table1_catalog)
from hodgelim.endo import isometry_algebra, operator_span
from hodgelim.errors import VerificationError
from hodgelim.filtrations import (Bigrading, DecFiltration, IncFiltration,
                                  hs_from_filtration, weight_filtration)
from hodgelim.forms import BilForm, hermitian_positive_definite, is_hermitian
from hodgelim.matrices import Mat, t_conj_mat, t_matmul
from hodgelim.mixed import (deligne_bigrading, filtration_lowering,
                            graded_filtration, graded_piece, horizontal_part,
                            lie_bigrading, verify_mhs, verify_pmhs)
from hodgelim.orbits import NilpotentCone
from hodgelim.reports import Report
from hodgelim.scalars import GR, I
from hodgelim.subspaces import Subspace, kernel


def weight_one_limit():
    n = Mat([[0, 0], [1, 0]])
    q = BilForm(Mat([[0, 1], [-1, 0]]), parity=1)
    w = weight_filtration(n).shift(-1)
    f = DecFiltration({0: Subspace.full(2), 1: Subspace.span([(1, 0)], 2)})
    return n, q, w, f


def weight_two_string():
    n = Mat([[0, 0, 0], [1, 0, 0], [0, 1, 0]])
    q = BilForm(Mat([[0, 0, 1], [0, -1, 0], [1, 0, 0]]), parity=0)
    w = weight_filtration(n).shift(-2)
    f = DecFiltration({0: Subspace.full(3),
                       1: Subspace.span([(1, 0, 0), (0, 1, 0)], 3),
                       2: Subspace.span([(1, 0, 0)], 3)})
    return n, q, w, f


def pure_weight_one():
    """N = 0 on a polarized weight-1 Hodge structure: W is one jump."""
    q = BilForm(Mat([[0, 1], [-1, 0]]), parity=1)
    w = IncFiltration({1: Subspace.full(2)})
    f = DecFiltration({0: Subspace.full(2),
                       1: Subspace.span([(GR(1), I)], 2)})
    return Mat.zeros(2, 2), q, w, f


# ---------------------------------------------------------------------------
# canonical bigrading
# ---------------------------------------------------------------------------

def test_bigrading_of_split_structure_is_the_split():
    rng = random.Random("split-identity")
    for _ in range(12):
        w, f, pieces = make_split_mhs(rng)
        bigr = deligne_bigrading(w, f)
        assert bigr.pieces == pieces


def test_bigrading_transports_along_real_maps():
    rng = random.Random("split-transport")
    for _ in range(10):
        w, f, pieces = make_split_mhs(rng)
        g = random_real_invertible(w.ambient, rng)
        w2, f2, expected = transport_mhs(w, f, pieces, g)
        bigr = deligne_bigrading(w2, f2)
        assert bigr.pieces == expected


def test_bigrading_of_nilpotent_limit():
    _, _, w, f = weight_one_limit()
    assert deligne_bigrading(w, f).dims() == {(0, 0): 1, (1, 1): 1}
    _, _, w2, f2 = weight_two_string()
    assert deligne_bigrading(w2, f2).dims() == {(0, 0): 1, (1, 1): 1,
                                                (2, 2): 1}


# SHA-256 of the Deligne pieces of every stock limit structure and of a few
# moved into seeded dense rational bases, recorded before each meet
# F^a ∩ W_l was computed once per call and intersections took one
# elimination.
PINNED_BIGRADINGS = ("e41c55500406d3fed6e90dfe68294f6e"
                     "508d6b57fb0159aeb6d3a246fdf18c0e")


def stock_limits():
    orbits = [build_max_ivi_k2(h20, h11).orbit
              for h20 in range(1, 5) for h11 in range(1, 7)]
    orbits += [row.orbit for row in table1_catalog()]
    orbits += [symmetric_family_ivi(d).orbit for d in (1, 2, 3)]
    orbits += [diagonal_cone_orbit(d) for d in (1, 2, 3)]
    orbits += [hodge_tate_orbit(k, n) for k in (1, 2, 3) for n in (1, 2, 3)]
    return [(o.limit_weight_filtration(), o.filtration) for o in orbits]


def dense_rational_move(n: int, rng: random.Random) -> Mat:
    pool = (GR(-2), GR(-1), GR(0), GR(1), GR(2), GR(1) / 2, GR(-1) / 2)
    while True:
        g = Mat([[rng.choice(pool) for _ in range(n)] for _ in range(n)])
        if g.rank() == n:
            return g


def test_bigrading_pieces_are_pinned():
    limits = stock_limits()
    rng = random.Random("deligne-pin")
    moved = []
    for w, f in (limits[7], limits[24], limits[-2]):
        g = dense_rational_move(w.ambient, rng)
        moved.append(tuple(move(g, w, f)))
    text = []
    for w, f in limits + moved:
        for (p, q), piece in sorted(deligne_bigrading(w, f).pieces.items()):
            text.append(f"{p},{q}:{piece.pivots}:{piece.rows}")
    digest = hashlib.sha256("\n".join(text).encode("utf-8")).hexdigest()
    assert digest == PINNED_BIGRADINGS


def test_bigrading_rejects_incompatible_pair():
    # F jumps by 2 on a weight-1 graded piece: not a mixed Hodge structure
    w = IncFiltration({1: Subspace.full(2)})
    f = DecFiltration({0: Subspace.full(2), 2: Subspace.span([(1, 0)], 2)})
    with pytest.raises(VerificationError):
        deligne_bigrading(w, f)


def test_verify_mhs_routes_agree():
    rng = random.Random("mhs-routes")
    for _ in range(6):
        w, f, _ = make_split_mhs(rng)
        rep = verify_mhs(w, f)
        assert rep.ok, rep.pretty()


def test_verify_mhs_flags_real_filtration_on_odd_weight():
    # gr_1 would need a weight-1 structure, impossible with F^1 a real line
    w = IncFiltration({1: Subspace.full(2)})
    f = DecFiltration({0: Subspace.full(2), 1: Subspace.span([(1, 0)], 2)})
    rep = verify_mhs(w, f)
    assert not rep.ok


def test_verify_mhs_requires_real_weight_filtration():
    w = IncFiltration({0: Subspace.span([(GR(1), I)], 2),
                       2: Subspace.full(2)})
    f = DecFiltration({0: Subspace.full(2)})
    rep = verify_mhs(w, f)
    assert not rep.ok


def test_graded_filtration_in_quotient_coordinates():
    _, _, w, f = weight_two_string()
    fl = graded_filtration(w, f, 2)
    assert [fl.at(p).dim for p in (0, 1, 2)] == [1, 1, 0]


# ---------------------------------------------------------------------------
# induced bigrading on the isometry algebra
# ---------------------------------------------------------------------------

def test_lie_bigrading_of_symplectic_algebra():
    _, q, w, f = weight_one_limit()
    vb = deligne_bigrading(w, f)
    lb = lie_bigrading(vb, isometry_algebra(q))
    assert lb.dims() == {(-1, -1): 1, (0, 0): 1, (1, 1): 1}


def test_lie_bigrading_of_orthogonal_string_algebra():
    # so(2,1): lowering, split torus, raising; a pure (-2,-2) map would
    # pair the two ends of the string with themselves and cannot be an
    # infinitesimal isometry of a symmetric form
    _, q, w, f = weight_two_string()
    vb = deligne_bigrading(w, f)
    lb = lie_bigrading(vb, isometry_algebra(q))
    assert lb.dims() == {(-1, -1): 1, (0, 0): 1, (1, 1): 1}


def test_lie_bigrading_rejects_incompatible_algebra():
    _, q, w, f = weight_one_limit()
    vb = deligne_bigrading(w, f)
    # span of (lowering + identity): not a sum of pure-degree pieces
    mixed_op = operator_span([Mat([[1, 0], [1, 1]])], 2)
    with pytest.raises(VerificationError):
        lie_bigrading(vb, mixed_op)


def test_horizontal_part_shortcut_matches_bigrading():
    for maker, weight in ((weight_one_limit, 1), (weight_two_string, 2)):
        _, q, w, f = maker()
        vb = deligne_bigrading(w, f)
        g = isometry_algebra(q)
        lb = lie_bigrading(vb, g)
        assert filtration_lowering(vb, g, -1) == lb.row(-1)
        assert filtration_lowering(vb, g, -2) == lb.row(-2)
        assert horizontal_part(vb, q, weight) == lb.row(-1)


def test_negative_rows_of_the_operator_bigrading():
    _, q, w, f = weight_two_string()
    vb = deligne_bigrading(w, f)
    lb = lie_bigrading(vb, isometry_algebra(q))
    negative = lb.sum_where(lambda a, b: a < 0)
    assert negative == lb.row(-1)
    assert negative.dim == 1


# ---------------------------------------------------------------------------
# polarized limit structures
# ---------------------------------------------------------------------------

def test_weight_one_limit_is_polarized():
    n, q, w, f = weight_one_limit()
    rep = verify_pmhs(1, q, w, f, n)
    assert rep.ok, rep.pretty()


def test_weight_two_string_is_polarized():
    n, q, w, f = weight_two_string()
    rep = verify_pmhs(2, q, w, f, n)
    assert rep.ok, rep.pretty()


def test_negated_nilpotent_fails_in_odd_weight():
    n, q, w, f = weight_one_limit()
    rep = verify_pmhs(1, q, w, f, -n)
    assert not rep.ok
    assert rep.failed() == ["primitive pieces are positive"]


def test_negated_nilpotent_passes_in_even_weight():
    # For even weight the primitive pairings see N through even powers only,
    # so the sign change is absorbed; this pins the phenomenon down.
    n, q, w, f = weight_two_string()
    rep = verify_pmhs(2, q, w, f, -n)
    assert rep.ok


def test_wrong_weight_filtration_detected():
    n, q, _, f = weight_one_limit()
    unshifted = weight_filtration(n)
    rep = verify_pmhs(1, q, unshifted, f, n)
    assert not rep.ok
    assert "W is the recentered weight filtration of N" in rep.failed()


def _top_step_cut(w):
    """W with its top listed step replaced by the proper step below it.

    For a one-step W the replacement is a line, so the filtration becomes
    full only one level past its listed top.
    """
    steps = dict(w.steps)
    top = w.keys[-1]
    below = w.at(top - 1)
    steps[top] = (below if not below.is_zero()
                  else Subspace.span([(1,) + (0,) * (w.ambient - 1)],
                                     w.ambient))
    return IncFiltration(steps)


@pytest.mark.parametrize("maker, weight, mutation", [
    (weight_one_limit, 1, "shifted"), (weight_one_limit, 1, "N^2"),
    (weight_one_limit, 1, "top cut"), (weight_two_string, 2, "shifted"),
    (weight_two_string, 2, "N^2"), (weight_two_string, 2, "top cut"),
    (pure_weight_one, 1, "top cut")])
def test_recentered_weight_filtration_check_catches_wrong_w(maker, weight,
                                                            mutation):
    n, q, w, f = maker()
    assert verify_pmhs(weight, q, w, f, n).ok
    if mutation == "shifted":
        bad = w.shift(1)
    elif mutation == "N^2":
        bad = weight_filtration(n @ n).shift(-weight)
    else:
        bad = _top_step_cut(w)
    assert bad != w
    failed = verify_pmhs(weight, q, bad, f, n).failed()
    # the only failing check of the limit structure itself; the mixed
    # Hodge route then fails on the same W
    assert failed[0] == "W is the recentered weight filtration of N"
    assert all(c.startswith("mhs: ") for c in failed[1:]), failed


def test_non_infinitesimal_isometry_detected():
    # e0 -> e1, e1 -> 2e2 is nilpotent with the same weight filtration but
    # scales the two halves of the pairing differently
    _, q, w, f = weight_two_string()
    bad = Mat([[0, 0, 0], [1, 0, 0], [0, 2, 0]])
    rep = verify_pmhs(2, q, w, f, bad)
    assert not rep.ok
    assert "N preserves the form infinitesimally" in rep.failed()


def test_non_nilpotent_detected():
    _, q, w, f = weight_one_limit()
    rep = verify_pmhs(1, q, w, f, Mat([[1, 0], [0, 1]]))
    assert not rep.ok
    assert "N^2 = 0" in rep.failed()


@pytest.mark.parametrize("weight", [-1, -2, -5])
def test_negative_weight_is_rejected_by_name(weight):
    n, q, w, f = weight_two_string()
    with pytest.raises(ValueError, match=f"got weight {weight}$"):
        verify_pmhs(weight, q, w, f, n)


def test_nilpotent_of_the_wrong_size_is_rejected_by_shape():
    n, _, w, f = weight_one_limit()
    _, q, _, _ = weight_two_string()
    with pytest.raises(ValueError, match=r"\(2, 2\).*\(3, 3\)"):
        verify_pmhs(2, q, w, f, n)
    with pytest.raises(ValueError, match=r"\(2, 3\).*\(3, 3\)"):
        verify_pmhs(2, q, w, f, Mat([[0, 0, 0], [1, 0, 0]]))


@pytest.mark.parametrize("which", ["W", "F"])
def test_filtration_of_the_wrong_size_is_rejected_by_dimension(which):
    n, q, w, f = weight_two_string()
    _, _, w_other, f_other = weight_one_limit()
    if which == "W":
        w = w_other
    else:
        f = f_other
    with pytest.raises(ValueError,
                       match=f"^{which} lives in dimension 2, .* dimension 3$"):
        verify_pmhs(2, q, w, f, n)


# ---------------------------------------------------------------------------
# primitive positivity on the Deligne pieces against the graded quotients
# ---------------------------------------------------------------------------

def quotient_positivity(weight, q, w, f, n):
    """The positivity check through the graded quotients gr_{weight+l}.

    Each gr is a Quotient with its own Hodge structure and Weil operator;
    the primitive part is the kernel of the induced N^{l+1}, and its
    vectors are lifted through the complement.  Returns the check's
    verdict, its reason and the primitive dimensions.
    """
    prim_dims = {}
    for l in range(0, w.keys[-1] - weight + 1):
        top = graded_piece(w, weight + l)
        if top.dim == 0:
            continue
        bottom = graded_piece(w, weight - l - 2)
        npl1 = n.pow(l + 1)
        if not w.at(weight + l).map_by(npl1) <= w.at(weight - l - 2):
            return (False, f"N^{l + 1} does not shift W by 2l+2 at level {l}",
                    prim_dims)
        prim = kernel(top.induced_matrix(npl1, bottom))
        prim_dims[weight + l] = prim.dim
        if prim.is_zero():
            continue
        hs = hs_from_filtration(graded_filtration(w, f, weight + l),
                                weight + l)
        weil = weil_operator(hs).transpose().t
        lifts = top.complement.rows  # coordinates times these rows
        gram = q.gram_rows(
            t_matmul(t_matmul(prim.rows, weil), lifts),
            t_matmul(t_conj_mat(t_matmul(prim.rows, lifts)),
                     n.pow(l).transpose().t))
        if not is_hermitian(gram):
            return (False, f"primitive form at level {l} not Hermitian",
                    prim_dims)
        if not hermitian_positive_definite(gram):
            return (False, f"primitive form at level {l} not positive",
                    prim_dims)
    return True, None, prim_dims


def sweep_orbits():
    """Hodge-Tate, CKTM and catalog cones, and string models of weight 1-4."""
    orbits = [hodge_tate_orbit(k, n) for k in (1, 2, 3) for n in (1, 2, 3)]
    orbits += [build_max_ivi_k2(h20, h11).orbit
               for h20 in (1, 2, 3) for h11 in (1, 2, 3, 4)]
    orbits += [replace(row.orbit, cone=cone) for row in table1_catalog()
               for cone in row.cones]
    orbits.append(diagonal_cone_orbit(2))
    for k, specs in ((1, [("R", 1), ("C", 1, 0)]),
                     (2, [("R", 2), ("C", 2, 1), ("R", 1)]),
                     (3, [("R", 3), ("C", 3, 1), ("C", 3, 0)]),
                     (4, [("R", 3), ("C", 4, 2)])):
        model = StringModel(k, specs)
        orbits.append(model.orbit(NilpotentCone((model.n_std,))))
    return [o for o in orbits if o.cone.r]


def sweep_limits():
    """(weight, Q, W, F, N) of each sweep orbit at its barycenter, with N
    negated, the form negated, N doubled, and moved into a seeded dense
    basis with N kept and negated."""
    rng = random.Random("pmhs-sweep")
    for o in sweep_orbits():
        k, q, w, f = (o.weight, o.form, o.limit_weight_filtration(),
                      o.filtration)
        n = o.cone.barycenter()
        yield k, q, w, f, n
        yield k, q, w, f, -n
        yield k, BilForm(-q.matrix, q.parity), w, f, n
        yield k, q, w, f, n * 2
        q2, w2, f2, n2 = move(dense_rational_move(o.ambient, rng), q, w, f, n)
        yield k, q2, w2, f2, n2
        yield k, q2, w2, f2, -n2


def given_splitting(k, q, w, f, n, bigrading=None):
    """``verify_pmhs``'s report with its checks past those on N alone
    made by ``_pmhs_rest`` on a splitting handed in: ``bigrading``, or
    ``deligne_bigrading(w, f)`` when it is None."""
    head = Report(f"polarized limit structure (weight {k})")
    for check in verify_pmhs(k, q, w, f, n).checks[:5]:
        head.checks.append(check)
    assert [c.name for c in head.checks] == list(mixed._n_check_names(k))
    if bigrading is None:
        bigrading = deligne_bigrading(w, f)
    return mixed._pmhs_rest(head, k, q, w, f, n, bigrading)


def test_positivity_on_the_pieces_matches_the_graded_quotients():
    failures = set()
    count = 0
    for k, q, w, f, n in sweep_limits():
        rep = verify_pmhs(k, q, w, f, n)
        check = rep.checks[-1]
        assert check.name == "primitive pieces are positive", rep.pretty()
        ok, reason, dims = quotient_positivity(k, q, w, f, n)
        assert check.ok == ok
        assert check.detail == ({"dims": dims} if ok else {"reason": reason})
        assert rep.data["primitive_dims"] == {str(d): v
                                              for d, v in dims.items()}
        assert given_splitting(k, q, w, f, n).to_dict() == rep.to_dict()
        if not ok:
            failures.add(reason)
        count += 1
    assert count == 222
    assert failures == {f"primitive form at level {l} not positive"
                        for l in range(4)}


def test_positivity_builds_no_graded_piece_of_its_own(monkeypatch):
    n, q, w, f = weight_two_string()
    built = []
    real = mixed.graded_piece
    monkeypatch.setattr(mixed, "graded_piece",
                        lambda w, l: built.append(l) or real(w, l))
    verify_mhs(w, f)
    by_verify_mhs = list(built)
    built.clear()
    assert verify_pmhs(2, q, w, f, n).ok
    assert built == by_verify_mhs


def test_bigrading_that_n_does_not_map_by_type_is_rejected():
    n, q, w, f = weight_two_string()
    assert given_splitting(2, q, w, f, n).ok
    # N e0 = e1 and N e1 = e2; e0 + e1 spans a complement of W_1 in W_2
    # too, but N takes it to e1 + e2, outside I^{1,1}
    wrong = Bigrading({(2, 2): Subspace.span([(1, 1, 0)], 3),
                       (1, 1): Subspace.span([(0, 1, 0)], 3),
                       (0, 0): Subspace.span([(0, 0, 1)], 3)})
    assert mixed._mhs_rest(w, f, wrong).ok
    with pytest.raises(VerificationError, match=r"I\^\{2,2\} into I\^\{1,1\}"):
        given_splitting(2, q, w, f, n, wrong)


def test_verify_mhs_takes_no_splitting_to_trust():
    # F^1 = <e0> is no Hodge structure of weight 0 on W_0 = C^2, though
    # the splitting C^2 = I^{0,0} would pass every check if it were trusted
    w = IncFiltration({0: Subspace.full(2)})
    f = DecFiltration({0: Subspace.full(2), 1: Subspace.span([(1, 0)], 2)})
    fake = Bigrading({(0, 0): Subspace.full(2)})
    assert not verify_mhs(w, f).ok
    with pytest.raises(TypeError):
        verify_mhs(w, f, fake)
    assert mixed._mhs_rest(w, f, fake).ok


def hodge_tate_limit():
    o = hodge_tate_orbit(3, 2)
    return (o.cone.barycenter(), o.form, o.limit_weight_filtration(),
            o.filtration)


@pytest.mark.parametrize("maker, weight", [
    (weight_one_limit, 1), (weight_two_string, 2), (pure_weight_one, 1),
    (hodge_tate_limit, 3)])
@pytest.mark.parametrize("sign", [1, -1])
def test_listed_zero_and_full_steps_leave_the_pmhs_report_unchanged(
        maker, weight, sign):
    n, q, w, f = maker()
    n = n * sign
    # the same W, listing a zero step below 0 and a full step above
    # 2 * weight: the positivity loop then walks levels past N^(weight+1)
    # that have no pieces
    padded = IncFiltration({**w.steps, -2: Subspace.zero(w.ambient),
                            2 * weight + 3: Subspace.full(w.ambient)})
    assert padded == w and padded.keys != w.keys
    plain = verify_pmhs(weight, q, w, f, n)
    assert verify_pmhs(weight, q, padded, f, n).to_dict() == plain.to_dict()


def without_top_step(w: IncFiltration) -> IncFiltration:
    """The same W with its full top step left implicit."""
    top = w.keys[-1]
    assert w.at(top).is_full() and not w.at(top - 1).is_full()
    implicit = IncFiltration({k: s for k, s in w.steps.items() if k < top})
    assert implicit == w and implicit.keys != w.keys
    return implicit


def test_an_implicit_top_step_of_w_gets_the_listed_verdict():
    # e0 of type (0, 0), e1 + i e2 and e1 - i e2 of types (1, 0), (0, 1)
    w = IncFiltration({0: Subspace.span([(1, 0, 0)], 3),
                       1: Subspace.full(3)})
    f = DecFiltration({0: Subspace.full(3),
                       1: Subspace.span([(0, 1, I)], 3)})
    listed = verify_mhs(w, f)
    assert listed.ok
    assert verify_mhs(without_top_step(w), f).to_dict() == listed.to_dict()


@pytest.mark.parametrize("sign", [1, -1])
def test_an_implicit_top_step_of_w_gets_the_listed_pmhs_verdict(sign):
    o = hodge_tate_orbit(2, 1)
    n, w, f = o.cone.barycenter(), o.limit_weight_filtration(), o.filtration
    q = BilForm(o.form.matrix * sign, o.form.parity)
    listed = verify_pmhs(2, q, w, f, n)
    implicit = verify_pmhs(2, q, without_top_step(w), f, n)
    assert implicit.to_dict() == listed.to_dict()
    # the negated form fails on the top primitive level, whichever W
    assert listed.ok == (sign == 1)
    if sign == -1:
        assert implicit.failed() == ["primitive pieces are positive"]


def test_far_listed_steps_of_w_add_no_work(monkeypatch):
    o = hodge_tate_orbit(2, 1)
    n, q, w, f = (o.cone.barycenter(), o.form, o.limit_weight_filtration(),
                  o.filtration)
    plain = verify_pmhs(2, q, w, f, n).to_dict()
    calls = count_calls(monkeypatch, [(Subspace, "complement_in"),
                                      (Subspace, "__and__")])
    counts = []
    for far in (1000, 100_000):
        padded = IncFiltration({**w.steps, -far: Subspace.zero(3),
                                far: Subspace.full(3)})
        calls.clear()
        assert verify_pmhs(2, q, padded, f, n).to_dict() == plain
        counts.append(dict(calls))
    assert counts[0] == counts[1]


def without_bottom_step(f: DecFiltration) -> DecFiltration:
    """The same F with its full bottom step left implicit."""
    bottom = f.keys[0]
    assert f.at(bottom).is_full() and not f.at(bottom + 1).is_full()
    implicit = DecFiltration({k: s for k, s in f.steps.items()
                              if k > bottom})
    assert implicit == f and implicit.keys != f.keys
    return implicit


def test_an_implicit_bottom_step_of_f_gets_the_listed_verdict():
    # weight 1: C^2 = I^{1,0} + I^{0,1}, spanned by (1, i) and (1, -i)
    w = IncFiltration({1: Subspace.full(2)})
    f = DecFiltration({0: Subspace.full(2),
                       1: Subspace.span([(1, I)], 2)})
    listed = verify_mhs(w, f)
    assert listed.ok
    assert verify_mhs(w, without_bottom_step(f)).to_dict() == listed.to_dict()


@pytest.mark.parametrize("sign", [1, -1])
def test_an_implicit_bottom_step_of_f_gets_the_listed_pmhs_verdict(sign):
    o = hodge_tate_orbit(2, 1)
    n, w, f = o.cone.barycenter(), o.limit_weight_filtration(), o.filtration
    q = BilForm(o.form.matrix * sign, o.form.parity)
    listed = verify_pmhs(2, q, w, f, n)
    implicit = verify_pmhs(2, q, w, without_bottom_step(f), n)
    assert implicit.to_dict() == listed.to_dict()
    assert listed.ok == (sign == 1)
    assert deligne_bigrading(w, without_bottom_step(f)) == deligne_bigrading(
        w, f)


def test_far_listed_steps_of_f_add_no_work(monkeypatch):
    o = hodge_tate_orbit(2, 1)
    n, q, w, f = (o.cone.barycenter(), o.form, o.limit_weight_filtration(),
                  o.filtration)
    plain = verify_pmhs(2, q, w, f, n).to_dict()
    # first_relation_holds asks Q(F^a, F^(k-a+1)) = 0 through gram_rows
    calls = count_calls(monkeypatch, [(Subspace, "__and__"),
                                      (BilForm, "gram_rows")])
    counts = []
    for far in (0, 20, 40):
        padded = f if not far else DecFiltration(
            {**f.steps, -far: Subspace.full(3), far: Subspace.zero(3)})
        calls.clear()
        assert verify_pmhs(2, q, w, padded, n).to_dict() == plain
        counts.append(dict(calls))
    assert counts[0] == counts[1] == counts[2]
