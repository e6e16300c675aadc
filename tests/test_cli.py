import copy
import hashlib
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from hodgelim import io
from hodgelim.builders import (build_max_ivi_k2, hodge_tate_orbit,
                               level_operator_k2, symmetric_family_ivi,
                               table1_catalog)
from hodgelim.cli import build_parser, main
from hodgelim.filtrations import DecFiltration, weight_filtration
from hodgelim.forms import BilForm
from hodgelim.matrices import Mat
from hodgelim.orbits import IVI, NilpotentCone, NilpotentOrbit
from hodgelim.scalars import I
from hodgelim.subspaces import Subspace

from genutil import make_split_mhs


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(io.dump_text(data), encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("argv, expected", [
    (["bound", "cktm", "--h20", "2", "--h11", "3"], "3"),
    (["bound", "cktm", "--h20", "4", "--h11", "6"], "12"),
    (["bound", "symmetric", "--n", "6"], "7"),
    (["bound", "ct", "--n", "3"], "2"),
])
def test_bound_prints_bare_integer(capsys, argv, expected):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out == expected + "\n"


# ---------------------------------------------------------------------------
# build -> verify round trips
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("build_argv, kind", [
    (["build", "cktm", "--h20", "1", "--h11", "2"], "ivi"),
    (["build", "hodge-tate", "--k", "2", "--n", "2"], "orbit"),
    (["build", "sym-family", "--d", "2"], "ivi"),
    (["build", "diag-cone", "--d", "2"], "orbit"),
])
def test_build_then_verify(capsys, tmp_path, build_argv, kind):
    path = str(tmp_path / "obj.json")
    code, out, _ = run(capsys, *build_argv, "--out", path)
    assert code == 0 and out == ""
    code, out, _ = run(capsys, "verify", kind, path)
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_build_without_out_prints_object(capsys):
    code, out, _ = run(capsys, "build", "hodge-tate", "--k", "1", "--n", "1")
    assert code == 0
    data = json.loads(out)
    assert set(data) == {"weight", "form", "F", "nilpotents"}


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------

def test_failing_verification_exits_1(capsys, tmp_path):
    o = hodge_tate_orbit(1, 2)
    anti = Mat([[0, 0, 0, 0], [0, 0, 0, 0], [0, 1, 0, 0], [-1, 0, 0, 0]])
    bad = IVI(o, (o.cone.generators[0], anti))
    path = write(tmp_path, "bad.json", io.ivi_to_json(bad))
    code, out, _ = run(capsys, "verify", "ivi", path)
    assert code == 1
    report = json.loads(out)
    assert report["ok"] is False


def test_missing_file_exits_2(capsys, tmp_path):
    code, out, err = run(capsys, "verify", "hs", str(tmp_path / "no.json"))
    assert code == 2 and out == ""
    assert "error:" in err


def test_invalid_json_exits_2(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{oops", encoding="utf-8")
    code, _, err = run(capsys, "verify", "orbit", str(path))
    assert code == 2 and "error:" in err


def test_overlong_integer_literal_exits_2_naming_the_file(capsys, tmp_path):
    path = tmp_path / "long.json"
    path.write_text('{"N": [[0, 0], [' + "9" * 5000 + ', 0]]}',
                    encoding="utf-8")
    code, out, err = run(capsys, "wfilt", str(path))
    assert code == 2 and out == ""
    assert err.startswith(f"error: {path} ")
    assert "set_int_max_str_digits" not in err


def test_deeply_nested_json_exits_2_naming_the_file(capsys, tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    code, out, err = run(capsys, "wfilt", str(path))
    assert code == 2 and out == ""
    assert err.startswith(f"error: {path} nests ")


def test_wrong_shape_exits_2(capsys, tmp_path):
    path = write(tmp_path, "thin.json", {"weight": 2})
    code, _, err = run(capsys, "verify", "hs", path)
    assert code == 2 and "missing keys" in err


def rekeyed_orbit_run(capsys, tmp_path, old, new):
    """Verify hodge_tate_orbit(5, 1) with F's index ``old`` written as
    ``new``; F^5 and F^3 differ from their neighbours, so a misread index
    changes the answer."""
    data = io.orbit_to_json(hodge_tate_orbit(5, 1))
    data["F"] = {new if j == old else j: vecs
                 for j, vecs in data["F"].items()}
    return run(capsys, "verify", "orbit", write(tmp_path, "f.json", data))


@pytest.mark.parametrize("old, new", [("5", "1_0"), ("3", "\u0663")])
def test_filtration_index_outside_the_integer_grammar_exits_2(
        capsys, tmp_path, old, new):
    # int() reads "1_0" as 10 and the Arabic-Indic digit three as 3
    code, out, err = rekeyed_orbit_run(capsys, tmp_path, old, new)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "bad filtration index" in err


@pytest.mark.parametrize("old, new", [("5", " 5"), ("5", "+5"),
                                      ("3", "3\n")])
def test_filtration_index_reads_like_an_integer_scalar(
        capsys, tmp_path, old, new):
    expected = rekeyed_orbit_run(capsys, tmp_path, old, old)
    assert expected[0] == 0
    assert rekeyed_orbit_run(capsys, tmp_path, old, new) == expected


@pytest.mark.parametrize("argv", [["verify", "orbit"], ["verify", "ivi"],
                                  ["verify", "pmhs"], ["integrate"]])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_negative_weight_exits_2_naming_it(capsys, tmp_path, argv, k):
    o = hodge_tate_orbit(k, 2)
    if argv[-1] == "orbit":
        data = io.orbit_to_json(o)
    elif argv[-1] == "pmhs":
        data = io.pmhs_to_json(k, o.form, o.limit_weight_filtration(),
                               o.filtration, o.cone.barycenter())
    else:
        data = io.ivi_to_json(IVI(o, o.cone.generators))
    data["weight"] = -k  # same parity, so the form still parses
    code, out, err = run(capsys, *argv, write(tmp_path, "neg.json", data))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.endswith(f"got weight {-k}\n")


def test_the_weight_in_a_file_does_not_set_the_work(monkeypatch, capsys,
                                                    tmp_path):
    # the powers of N and the levels of W checked stop at the dimension
    calls = []
    product = Mat.__matmul__

    def counted(a, b):
        calls.append(None)
        return product(a, b)

    monkeypatch.setattr(Mat, "__matmul__", counted)
    o = hodge_tate_orbit(2, 1)
    data = io.pmhs_to_json(o.weight, o.form, o.limit_weight_filtration(),
                           o.filtration, o.cone.barycenter())
    data["weight"] = 2000  # same parity, so the form still parses
    calls.clear()
    code, _, _ = run(capsys, "verify", "pmhs",
                     write(tmp_path, "pmhs.json", data))
    assert code == 1 and len(calls) <= 2 * o.ambient
    counts = []
    for weight in (2000, 200_000):
        data = io.orbit_to_json(o)
        data["weight"] = weight
        calls.clear()
        code, _, _ = run(capsys, "verify", "orbit",
                         write(tmp_path, "orbit.json", data))
        counts.append((code, len(calls)))
    assert counts[0] == counts[1] and counts[0][0] == 1


def test_pmhs_file_without_the_full_top_step_of_w_verifies(capsys, tmp_path):
    # W is the whole space above its last listed index, so leaving out
    # the full top step writes the same W
    o = hodge_tate_orbit(2, 1)
    data = io.pmhs_to_json(o.weight, o.form, o.limit_weight_filtration(),
                           o.filtration, o.cone.barycenter())
    top = max(data["W"], key=int)
    outputs = []
    for w in (data["W"], {k: s for k, s in data["W"].items() if k != top}):
        code, out, _ = run(capsys, "verify", "pmhs",
                           write(tmp_path, "pmhs.json", {**data, "W": w}))
        outputs.append((code, out))
    assert outputs[0] == outputs[1] and outputs[0][0] == 0


def pure_weight_minus_one_family():
    # the Tate twist of an elliptic curve's H^1 with its one horizontal
    # direction: a pure structure of weight -1, legitimately negative
    q = BilForm(Mat([[0, 1], [-1, 0]]), parity=1)
    f = DecFiltration({-1: Subspace.full(2), 0: Subspace.span([(1, I)], 2)})
    o = NilpotentOrbit(-1, q, f, NilpotentCone(()))
    x = Mat([[1, -I], [-I, -1]])
    return IVI(o, (x,))


def test_pure_family_of_negative_weight_verifies(capsys, tmp_path):
    path = write(tmp_path, "pure.json",
                 io.ivi_to_json(pure_weight_minus_one_family()))
    code, out, _ = run(capsys, "verify", "ivi", path)
    assert code == 0 and json.loads(out)["ok"] is True
    code, out, _ = run(capsys, "integrate", path)
    assert code == 0 and json.loads(out)["integrability"]["ok"] is True


# ---------------------------------------------------------------------------
# mutated files
# ---------------------------------------------------------------------------

def stock_files():
    o = hodge_tate_orbit(2, 1)
    w, n = o.limit_weight_filtration(), o.cone.barycenter()
    pure = pure_weight_minus_one_family().orbit
    return {"hs": io.hs_to_json(pure.weight, pure.form, pure.filtration),
            "mhs": io.mhs_to_json(w, o.filtration),
            "pmhs": io.pmhs_to_json(o.weight, o.form, w, o.filtration, n),
            "orbit": io.orbit_to_json(o),
            "ivi": io.ivi_to_json(symmetric_family_ivi(1))}


STOCK = stock_files()
BIG_INT = "<5000-digit integer>"  # spliced into the text after dumping
REPLACEMENTS = [None, True, 0, -3, 1.5, "x", "1/0", [], {}, [[]],
                "9" * 5000, BIG_INT]


@st.composite
def mutated_files(draw):
    kind = draw(st.sampled_from(sorted(STOCK)))
    data = copy.deepcopy(STOCK[kind])
    for _ in range(draw(st.integers(1, 3))):
        parent, key, node = None, None, data
        for _ in range(draw(st.integers(1, 6))):
            if not (isinstance(node, (dict, list)) and node):
                break
            keys = sorted(node) if isinstance(node, dict) else range(len(node))
            parent, key = node, draw(st.sampled_from(keys))
            node = node[key]
        op = draw(st.sampled_from(["drop", "ragged", "weight", "replace"]))
        if op == "drop" and parent is not None:
            del parent[key]
        elif (op == "ragged" and isinstance(node, list) and node
              and all(isinstance(row, list) for row in node)):
            row = node[draw(st.integers(0, len(node) - 1))]
            if row and draw(st.booleans()):
                row.pop()
            else:
                row.append("1")
        elif op == "weight" and isinstance(data, dict):
            data["weight"] = draw(st.integers(-6, -1))
        else:
            new = copy.deepcopy(draw(st.sampled_from(REPLACEMENTS)))
            if parent is None:
                data = new
            else:
                parent[key] = new
    return kind, data


@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(mutated_files())
def test_mutated_files_exit_cleanly(tmp_path, case):
    kind, data = case
    path = tmp_path / "mutant.json"
    text = io.dump_text(data).replace(json.dumps(BIG_INT), "9" * 5000)
    path.write_text(text, encoding="utf-8")
    for argv in (["verify", kind, str(path)], ["integrate", str(path)]):
        err = StringIO()
        with redirect_stdout(StringIO()), redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2), argv
        if code == 2:
            assert err.getvalue().startswith("error: "), argv


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# one parser for every call
# ---------------------------------------------------------------------------

def test_the_parser_is_built_once():
    assert build_parser() is build_parser()


def test_calls_on_the_shared_parser_match_calls_on_a_fresh_one(capsys,
                                                               tmp_path):
    orbit = write(tmp_path, "orbit.json",
                  io.orbit_to_json(hodge_tate_orbit(2, 3)))
    family = write(tmp_path, "family.json",
                   io.ivi_to_json(symmetric_family_ivi(1)))
    target = tmp_path / "out.json"
    calls = [
        ["search", orbit, "--restarts", "4", "--max-steps", "1"],
        ["search", orbit, "--restarts", "4"],
        ["integrate", family, "--out", str(target)],
        ["integrate", family],
        ["build", "hodge-tate", "--k", "2", "--n", "1", "--out", str(target)],
        ["build", "cktm", "--h20", "1", "--h11", "2"],
    ]
    bad = ["search", orbit, "--max-steps", "many"]

    def call(argv):
        code, out, _ = run(capsys, *argv)
        if not target.exists():
            return code, out, None
        written = target.read_text(encoding="utf-8")
        target.unlink()
        return code, out, written

    first = []
    for argv in calls:
        build_parser.cache_clear()
        first.append(call(argv))
    # each pair's outputs differ, so a flag that leaked into the next call
    # would show
    assert first[0][1] != first[1][1]
    assert first[2][1] != first[3][1] and first[3][2] is None
    assert first[4][1] == "" and first[5][1] != ""

    build_parser.cache_clear()
    for k in [0, 1, 2, 3, 4, 5, 5, 4, 3, 2, 1, 0]:
        with pytest.raises(SystemExit) as exc:
            main(bad)
        assert exc.value.code == 2
        capsys.readouterr()
        assert call(calls[k]) == first[k], calls[k]


# ---------------------------------------------------------------------------
# wfilt
# ---------------------------------------------------------------------------

def test_wfilt_output_matches_library(capsys, tmp_path):
    n = Mat([[0, 0], [1, 0]])
    path = write(tmp_path, "n.json", {"N": io.matrix_to_json(n)})
    code, out, _ = run(capsys, "wfilt", path)
    assert code == 0
    data = json.loads(out)
    w = weight_filtration(n)
    assert data["ok"] is True
    assert data["dims"] == {str(j): w.at(j).dim for j in w.support()}
    assert io.inc_filtration_from_json(data["W"]) == w


def test_wfilt_accepts_bare_matrix(capsys, tmp_path):
    path = write(tmp_path, "n.json", io.matrix_to_json(Mat([[0, 0], [1, 0]])))
    code, out, _ = run(capsys, "wfilt", path)
    assert code == 0 and json.loads(out)["ok"] is True


def test_wfilt_rejects_non_nilpotent(capsys, tmp_path):
    path = write(tmp_path, "id.json", {"N": [["1", "0"], ["0", "1"]]})
    code, out, _ = run(capsys, "wfilt", path)
    assert code == 1
    data = json.loads(out)
    assert data["ok"] is False and "error" in data


@pytest.mark.parametrize("rows", [[[0, 1, 0], [0, 0, 1]],
                                  [[0, 1], [0, 0], [0, 0]]])
def test_wfilt_of_a_non_square_matrix_exits_2(capsys, tmp_path, rows):
    path = write(tmp_path, "thin.json", {"N": rows})
    code, out, err = run(capsys, "wfilt", path)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "square" in err


@pytest.mark.parametrize("entry", ["\u0663", "1/2\u0663"])
def test_a_non_ascii_digit_in_a_file_exits_2(capsys, tmp_path, entry):
    path = write(tmp_path, "digit.json", {"N": [["0", entry], ["0", "0"]]})
    code, out, err = run(capsys, "wfilt", path)
    assert (code, out) == (2, "")
    assert err.startswith("error: ")


def with_entry(kind, key, value):
    data = copy.deepcopy(STOCK[kind])
    data[key] = value
    return data


@pytest.mark.parametrize("argv, data, message", [
    (["verify", "mhs"], {"W": {"0": [["1", "0"], ["0", "1"]]},
                         "F": {"0": [["1", "0", "0"]]}},
     "W and F dimensions differ"),
    (["verify", "pmhs"], with_entry("pmhs", "N", [["0", "0"], ["0", "0"]]),
     "form, filtrations and N dimensions differ"),
    (["verify", "orbit"], with_entry("orbit", "nilpotents", {}),
     "nilpotents must be an array of matrices"),
    (["wfilt"], {"M": [["0"]]}, 'wfilt input needs an "N" matrix'),
], ids=["mhs", "pmhs", "orbit", "wfilt"])
def test_malformed_input_exits_2_with_its_message(capsys, tmp_path, argv,
                                                  data, message):
    path = write(tmp_path, "bad.json", data)
    code, out, err = run(capsys, *argv, path)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_a_file_that_is_not_utf8_exits_2_naming_it(capsys, tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes('{"N": [["\u00e9"]]}'.encode("latin-1"))
    code, out, err = run(capsys, "wfilt", str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {path} is not UTF-8 text: ")


def test_n_lowering_f_by_two_fails_transversality(capsys, tmp_path):
    # N + X on hodge_tate_orbit(2, 2), X: L_0 -> L_2 antisymmetric; X is
    # an isometry commuting with N, and (N + X) F^2 = L_1 + L_2 is not in
    # F^1 = L_0 + L_1
    o = hodge_tate_orbit(2, 2)
    n = o.cone.generators[0]
    x = Mat([[0] * 6] * 4 + [[0, 1, 0, 0, 0, 0], [-1, 0, 0, 0, 0, 0]])
    w = o.limit_weight_filtration()
    path = write(tmp_path, "pmhs.json", io.pmhs_to_json(
        o.weight, o.form, w, o.filtration, n + x))
    code, out, _ = run(capsys, "verify", "pmhs", path)
    assert code == 1
    report = json.loads(out)
    assert [c["name"] for c in report["checks"] if not c["ok"]] == [
        "N lowers F by one"]


# ---------------------------------------------------------------------------
# deligne
# ---------------------------------------------------------------------------

def test_deligne_matches_split_construction(capsys, tmp_path):
    w, f, pieces = make_split_mhs(random.Random(3))
    path = write(tmp_path, "mhs.json", io.mhs_to_json(w, f))
    code, out, _ = run(capsys, "deligne", path)
    assert code == 0
    data = json.loads(out)
    assert data["ok"] is True
    assert data["dims"] == {f"{p},{q}": s.dim for (p, q), s in pieces.items()}


def test_deligne_rejects_incompatible_pair(capsys, tmp_path):
    # F jumps by 2 on a weight-1 graded piece
    payload = {"W": {"1": [["1", "0"], ["0", "1"]]},
               "F": {"0": [["1", "0"], ["0", "1"]], "2": [["1", "0"]]}}
    path = write(tmp_path, "notmhs.json", payload)
    code, out, _ = run(capsys, "deligne", path)
    assert code == 1
    assert json.loads(out)["ok"] is False


# ---------------------------------------------------------------------------
# integrate
# ---------------------------------------------------------------------------

def test_integrate_combined_output(capsys, tmp_path):
    run(capsys, "build", "sym-family", "--d", "1",
        "--out", str(tmp_path / "fam.json"))
    code, out, _ = run(capsys, "integrate", str(tmp_path / "fam.json"))
    assert code == 0
    data = json.loads(out)
    assert set(data) == {"period_map", "integrability"}
    assert data["integrability"]["ok"] is True
    pm = io.polymap_from_json(data["period_map"])
    assert pm.variables == ("z1", "t1")


def test_integrate_with_out_file(capsys, tmp_path):
    fam = str(tmp_path / "fam.json")
    pm_path = str(tmp_path / "pm.json")
    run(capsys, "build", "sym-family", "--d", "2", "--out", fam)
    code, out, _ = run(capsys, "integrate", fam, "--out", pm_path)
    assert code == 0
    assert json.loads(out)["ok"] is True
    pm = io.polymap_from_json(io.load_file(pm_path))
    assert pm.variables == ("z1", "t1", "t2", "t3")


def non_abelian_family():
    o = hodge_tate_orbit(2, 2)
    a = level_operator_k2(2, Mat([[0, 1], [0, 0]]))
    b = level_operator_k2(2, Mat([[0, 0], [1, 0]]))
    return IVI(o, (o.cone.generators[0], a, b))


def test_integrate_non_abelian_exits_1(capsys, tmp_path):
    path = write(tmp_path, "nonab.json", io.ivi_to_json(non_abelian_family()))
    code, out, _ = run(capsys, "integrate", path)
    assert code == 1
    assert json.loads(out)["integrability"]["ok"] is False


# SHA-256 over the exit code and standard output of ``integrate`` on the
# stock families and one non-abelian family, recorded while period maps
# were still general matrix polynomials.
PINNED_INTEGRATE = ("593d9df3943fdf61489d922e095224ab"
                    "560bf3552a53a3254021d71aea8982a1")


def test_integrate_outputs_are_pinned(capsys, tmp_path):
    families = [build_max_ivi_k2(h20, h11)
                for h20 in range(1, 5) for h11 in range(1, 7)]
    families += [row.witness for row in table1_catalog()]
    families += [symmetric_family_ivi(d) for d in (1, 2, 3)]
    families.append(non_abelian_family())
    digest = hashlib.sha256()
    for i, ivi in enumerate(families):
        path = write(tmp_path, f"fam{i}.json", io.ivi_to_json(ivi))
        code, out, _ = run(capsys, "integrate", path)
        digest.update(f"{code}\n{out}".encode("utf-8"))
    assert digest.hexdigest() == PINNED_INTEGRATE


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------

def test_search_output_and_determinism(capsys, tmp_path):
    path = str(tmp_path / "orbit.json")
    run(capsys, "build", "diag-cone", "--d", "1", "--out", path)
    code, out1, _ = run(capsys, "search", path, "--restarts", "8",
                        "--seed", "1")
    assert code == 0
    data = json.loads(out1)
    assert set(data) == {"best_dim", "certified", "restart_dims",
                         "abelian_basis", "family_ok"}
    assert data["family_ok"] is True
    assert len(data["restart_dims"]) == 8
    _, out2, _ = run(capsys, "search", path, "--restarts", "8", "--seed", "1")
    assert out1 == out2


def test_search_max_steps_drops_certificate(capsys, tmp_path):
    path = str(tmp_path / "orbit.json")
    run(capsys, "build", "hodge-tate", "--k", "2", "--n", "3", "--out", path)
    _, out, _ = run(capsys, "search", path, "--restarts", "4",
                    "--seed", "0", "--max-steps", "0")
    data = json.loads(out)
    assert data["certified"] is False
    assert data["best_dim"] == 1  # the cone generator alone


@pytest.mark.parametrize("flags", [
    ["--restarts", "0"],
    ["--restarts", "-2"],
    ["--max-steps", "-1"],
])
def test_search_rejects_bad_counts_with_exit_2(capsys, tmp_path, flags):
    path = str(tmp_path / "orbit.json")
    run(capsys, "build", "diag-cone", "--d", "1", "--out", path)
    code, out, err = run(capsys, "search", path, *flags)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and flags[0][2:].replace("-", "_") in err
    assert "Traceback" not in err


@pytest.mark.parametrize("restarts", ["0", "-1"])
def test_catalog_search_rejects_bad_restarts_with_exit_2(capsys, restarts):
    code, out, err = run(capsys, "catalog", "table1", "--search",
                         "--restarts", restarts)
    assert code == 2
    assert out == ""
    assert err.startswith("error: restarts must be at least 1")


# SHA-256 of the standard output, recorded with the dense-matrix solver that
# preceded the sparse operator-space solves.  Any change in a restart
# dimension, a search basis or the report text changes the digest.
PINNED_STDOUT = {
    "search": (0, "1f445f961974ac8e53e519818998762c"
                  "cb02bb97596c07e29d0690a73da7f3e9"),
    "catalog": (1, "c35116aeec81813036d15c57c0118fea"
                   "940b810e5cde3e515796fa63ccbc5e16"),
}

# SHA-256 of the standard output of two more searches, recorded with the
# flattened-operator search loop that preceded the search in centralizer
# coordinates: a larger Hodge-Tate orbit, and a family file whose cone is
# the start of the search.
PINNED_SEARCH = {
    "ht7": (0, "9623068d58551714e3e5fad905597e7d"
               "8523fea3d4f499f1cb07a907e336ce18"),
    "row0-ivi": (0, "535ae1d04e0e2c026199f1b353f811d4"
                    "9ae4cc94d8e4e545618cc1462a801510"),
}


@pytest.mark.parametrize("command", sorted(PINNED_STDOUT))
def test_seeded_search_output_is_pinned(capsys, tmp_path, command):
    if command == "search":
        path = str(tmp_path / "orbit.json")
        run(capsys, "build", "hodge-tate", "--k", "2", "--n", "5",
            "--out", path)
        argv = ["search", path]
    else:
        argv = ["catalog", "table1", "--search"]
    code, out, _ = run(capsys, *argv, "--restarts", "20", "--seed", "0")
    digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
    assert (code, digest) == PINNED_STDOUT[command]


@pytest.mark.parametrize("name, restarts", [("ht7", "3"), ("row0-ivi", "5")])
def test_more_seeded_searches_are_pinned(capsys, tmp_path, name, restarts):
    if name == "ht7":
        path = str(tmp_path / "orbit.json")
        run(capsys, "build", "hodge-tate", "--k", "2", "--n", "7",
            "--out", path)
    else:
        path = write(tmp_path, "family.json",
                     io.ivi_to_json(table1_catalog()[0].witness))
    code, out, _ = run(capsys, "search", path, "--restarts", restarts,
                       "--seed", "0")
    digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
    assert (code, digest) == PINNED_SEARCH[name]


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------

def test_catalog_table(capsys):
    code, out, _ = run(capsys, "catalog", "table1")
    assert code == 0
    data = json.loads(out)
    assert data["ok"] is True
    rows = data["rows"]
    assert [r["expected_max"] for r in rows] == [4, 4, 3, 3, 3, 3]
    assert all(r["witness_ok"] for r in rows)
    assert all(r["witness_dim"] == r["expected_max"] for r in rows)
    assert [len(r["cone_ranks"]) for r in rows] == [1, 1, 3, 2, 3, 3]


def test_catalog_with_search(capsys):
    code, out, _ = run(capsys, "catalog", "table1", "--search",
                       "--restarts", "5", "--seed", "0")
    data = json.loads(out)
    assert code == (0 if data["ok"] else 1)
    for row in data["rows"]:
        assert len(row["search"]) == len(row["cone_ranks"])
        for entry in row["search"]:
            assert set(entry) == {"cone_rank", "dim", "certified", "exceeds"}
            assert entry["exceeds"] == (entry["dim"] > row["expected_max"])
