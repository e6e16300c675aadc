"""Reading and writing the JSON data files.

Scalars are written as "a/b" (or "a") strings, complex values as
{"re": "a/b", "im": "c/d"}; matrices are row-major arrays of scalars;
filtrations map step indices to lists of spanning vectors.  Compound
files bundle these under fixed keys:

* Hodge structure      {"weight", "form", "F"}
* mixed structure      {"W", "F"}
* polarized mixed      {"weight", "form", "F", "W", "N"}
* orbit                {"weight", "form", "F", "nilpotents"}
* family               orbit keys plus {"abelian_basis"}
* period map           {"z_part", "t_linear", "higher"}

A period map is linear, so ``higher`` is always empty; the key is kept so
that files written before stay readable.  Writers emit it as ``[]`` and
readers reject anything else.

Readers raise FormatError on anything malformed; writers always emit
the canonical grammar (reduced fractions, positive denominators).
"""
from __future__ import annotations

import json
import re
from math import gcd, isfinite
from typing import Any

from .errors import FormatError
from .filtrations import DecFiltration, IncFiltration
from .forms import BilForm
from .matrices import Mat
from .orbits import IVI, NilpotentCone, NilpotentOrbit, PolyMap
from .scalars import GR, Triple, t_norm
from .subspaces import Subspace

__all__ = [
    "scalar_to_json", "scalar_from_json",
    "matrix_to_json", "matrix_from_json",
    "subspace_to_json", "subspace_from_json",
    "dec_filtration_to_json", "dec_filtration_from_json",
    "inc_filtration_to_json", "inc_filtration_from_json",
    "bigrading_to_json",
    "hs_to_json", "hs_from_json", "mhs_to_json", "mhs_from_json",
    "pmhs_to_json", "pmhs_from_json",
    "orbit_to_json", "orbit_from_json", "ivi_to_json", "ivi_from_json",
    "polymap_to_json", "polymap_from_json",
    "load_file", "dump_text",
]


# ---------------------------------------------------------------------------
# scalars and matrices
# ---------------------------------------------------------------------------

def _fraction_text(a: int, d: int) -> str:
    """The text of a/d in lowest terms, as str(Fraction(a, d)) gives it."""
    g = gcd(a, d)
    if g > 1:
        a //= g
        d //= g
    return f"{a}" if d == 1 else f"{a}/{d}"


def _triple_to_json(t: Triple) -> str | dict:
    a, b, d = t
    if not b:
        return f"{a}" if d == 1 else f"{a}/{d}"
    return {"re": _fraction_text(a, d), "im": _fraction_text(b, d)}


def scalar_to_json(x) -> str | dict:
    return _triple_to_json((x if isinstance(x, GR) else GR(x)).triple)


# Literal text -> its normalized triple, and (_COMPLEX, re, im) for the
# texts of a complex entry -> its triple.  Only str keys and pairs of str
# that parsed go in: True == 1 and 1.0 == 1 as dict keys, and neither may
# read as a scalar; no entry of a file is a tuple holding _COMPLEX, so no
# entry reads as a complex key.  When full it is emptied, so it never
# holds more than _LITERALS_MAX.
_COMPLEX = object()
_LITERALS: dict[str | tuple, Triple] = {}
_LITERALS_MAX = 4096


def _remember(key: str | tuple, t: Triple) -> None:
    if len(_LITERALS) >= _LITERALS_MAX:
        _LITERALS.clear()
    _LITERALS[key] = t


def _rational(obj) -> Triple:
    if isinstance(obj, str):
        t = _LITERALS.get(obj)
        if t is None:
            try:
                t = GR.parse(obj).triple
            except ValueError as exc:
                raise FormatError(str(exc)) from None
            _remember(obj, t)
        return t
    if isinstance(obj, bool):
        raise FormatError("booleans are not scalars")
    if isinstance(obj, int):
        return (obj, 0, 1)
    raise FormatError(f"expected a rational, got {type(obj).__name__}")


def _triple_from_json(obj) -> Triple:
    if isinstance(obj, dict):
        re_part, im_part = obj.get("re", 0), obj.get("im", 0)
        # both parts str and nothing else: a pair that may be remembered
        pair = (_COMPLEX, re_part, im_part) if (
            len(obj) == 2 and isinstance(re_part, str)
            and isinstance(im_part, str)) else None
        t = _LITERALS.get(pair) if pair else None
        if t is None:
            unknown = set(obj) - {"re", "im"}
            if unknown:
                raise FormatError(f"unknown scalar keys {sorted(unknown)}")
            a, _, d = _rational(re_part)
            b, _, e = _rational(im_part)
            t = t_norm(a * e, b * d, d * e)
            if pair:
                _remember(pair, t)
        return t
    return _rational(obj)


def scalar_from_json(obj) -> GR:
    return GR.from_triple(_triple_from_json(obj))


def _row_from_json(row: list) -> tuple:
    """The triples of a list of scalars.  A row of literals already read
    is looked up in one pass; anything else (a new literal, a number, a
    dict, a bad entry) makes the row go through :func:`_triple_from_json`,
    which reads and remembers it or raises FormatError."""
    try:
        return tuple(map(_LITERALS.__getitem__, row))
    except (KeyError, TypeError):
        return tuple(map(_triple_from_json, row))


def matrix_to_json(m: Mat) -> list:
    return [[_triple_to_json(e) for e in row] for row in m.t]


def matrix_from_json(obj) -> Mat:
    if not isinstance(obj, list) or not obj:
        raise FormatError("a matrix is a non-empty array of rows")
    rows = []
    for row in obj:
        if not isinstance(row, list) or not row:
            raise FormatError("matrix rows are non-empty arrays")
        if len(row) != len(obj[0]):
            raise FormatError("matrix rows have different lengths")
        rows.append(_row_from_json(row))
    return Mat.from_triples(tuple(rows))


def _vector_from_json(obj, ambient: int) -> tuple:
    if not isinstance(obj, list):
        raise FormatError("a vector is an array of scalars")
    if len(obj) != ambient:
        raise FormatError(
            f"vector of length {len(obj)} in a dimension-{ambient} space")
    return _row_from_json(obj)


# ---------------------------------------------------------------------------
# subspaces, filtrations, bigradings
# ---------------------------------------------------------------------------

def subspace_to_json(s: Subspace) -> list:
    return [[_triple_to_json(e) for e in row] for row in s.rows]


def subspace_from_json(obj, ambient: int) -> Subspace:
    if not isinstance(obj, list):
        raise FormatError("a subspace is an array of spanning vectors")
    return Subspace.from_triples(
        [_vector_from_json(v, ambient) for v in obj], ambient)


def _steps_to_json(steps: dict[int, Subspace]) -> dict:
    return {str(j): subspace_to_json(s) for j, s in steps.items()}


_INDEX_RE = re.compile(r"[+-]?[0-9]+")  # as the scalar grammar's integers


def _steps_from_json(obj) -> dict[int, Subspace]:
    if not isinstance(obj, dict) or not obj:
        raise FormatError("a filtration is a non-empty index -> vectors map")
    raw: dict[int, Any] = {}
    ambient = None
    for key, vecs in obj.items():
        try:
            j = int(_INDEX_RE.fullmatch(str(key).strip())[0])
        except (TypeError, ValueError):  # no match, or too many digits
            raise FormatError(f"bad filtration index {key!r}") from None
        if j in raw:
            raise FormatError(f"duplicate filtration index {j}")
        if not isinstance(vecs, list):
            raise FormatError("filtration steps are arrays of vectors")
        raw[j] = vecs
        for v in vecs:
            if isinstance(v, list) and v:
                ambient = ambient or len(v)
    if ambient is None:
        raise FormatError("cannot infer the dimension: every step is empty")
    return {j: subspace_from_json(vecs, ambient) for j, vecs in raw.items()}


def dec_filtration_to_json(f: DecFiltration) -> dict:
    return _steps_to_json(f.steps)


def dec_filtration_from_json(obj) -> DecFiltration:
    try:
        return DecFiltration(_steps_from_json(obj))
    except ValueError as exc:
        raise FormatError(f"bad decreasing filtration: {exc}") from None


def inc_filtration_to_json(w: IncFiltration) -> dict:
    return _steps_to_json(w.steps)


def inc_filtration_from_json(obj) -> IncFiltration:
    try:
        return IncFiltration(_steps_from_json(obj))
    except ValueError as exc:
        raise FormatError(f"bad increasing filtration: {exc}") from None


def bigrading_to_json(bigr) -> dict:
    return {f"{p},{q}": subspace_to_json(s)
            for (p, q), s in bigr.pieces.items()}


# ---------------------------------------------------------------------------
# compound files
# ---------------------------------------------------------------------------

def _require(obj, *keys) -> None:
    if not isinstance(obj, dict):
        raise FormatError("expected a JSON object")
    missing = [k for k in keys if k not in obj]
    if missing:
        raise FormatError(f"missing keys: {', '.join(missing)}")


def _weight_from_json(obj) -> int:
    w = obj["weight"]
    if isinstance(w, bool) or not isinstance(w, int):
        raise FormatError("weight must be an integer")
    return w


def _form_from_json(obj, weight: int) -> BilForm:
    m = matrix_from_json(obj["form"])
    try:
        return BilForm(m, parity=weight % 2)
    except ValueError as exc:
        raise FormatError(f"bad form: {exc}") from None


def hs_to_json(weight: int, q: BilForm, f: DecFiltration) -> dict:
    return {"weight": weight, "form": matrix_to_json(q.matrix),
            "F": dec_filtration_to_json(f)}


def hs_from_json(obj) -> tuple[int, BilForm, DecFiltration]:
    _require(obj, "weight", "form", "F")
    weight = _weight_from_json(obj)
    q = _form_from_json(obj, weight)
    f = dec_filtration_from_json(obj["F"])
    if f.ambient != q.dim:
        raise FormatError("form and filtration dimensions differ")
    return weight, q, f


def mhs_to_json(w: IncFiltration, f: DecFiltration) -> dict:
    return {"W": inc_filtration_to_json(w), "F": dec_filtration_to_json(f)}


def mhs_from_json(obj) -> tuple[IncFiltration, DecFiltration]:
    _require(obj, "W", "F")
    w = inc_filtration_from_json(obj["W"])
    f = dec_filtration_from_json(obj["F"])
    if w.ambient != f.ambient:
        raise FormatError("W and F dimensions differ")
    return w, f


def pmhs_to_json(weight: int, q: BilForm, w: IncFiltration,
                 f: DecFiltration, n: Mat) -> dict:
    return {"weight": weight, "form": matrix_to_json(q.matrix),
            "F": dec_filtration_to_json(f),
            "W": inc_filtration_to_json(w), "N": matrix_to_json(n)}


def pmhs_from_json(obj) -> tuple[int, BilForm, IncFiltration,
                                 DecFiltration, Mat]:
    _require(obj, "weight", "form", "F", "W", "N")
    weight = _weight_from_json(obj)
    q = _form_from_json(obj, weight)
    w = inc_filtration_from_json(obj["W"])
    f = dec_filtration_from_json(obj["F"])
    n = matrix_from_json(obj["N"])
    dims = {q.dim, w.ambient, f.ambient, n.nrows, n.ncols}
    if len(dims) != 1:
        raise FormatError("form, filtrations and N dimensions differ")
    return weight, q, w, f, n


def orbit_to_json(orbit: NilpotentOrbit) -> dict:
    return {"weight": orbit.weight,
            "form": matrix_to_json(orbit.form.matrix),
            "F": dec_filtration_to_json(orbit.filtration),
            "nilpotents": [matrix_to_json(g)
                           for g in orbit.cone.generators]}


def orbit_from_json(obj) -> NilpotentOrbit:
    _require(obj, "weight", "form", "F", "nilpotents")
    weight = _weight_from_json(obj)
    q = _form_from_json(obj, weight)
    f = dec_filtration_from_json(obj["F"])
    gens = obj["nilpotents"]
    if not isinstance(gens, list):
        raise FormatError("nilpotents must be an array of matrices")
    cone = NilpotentCone(tuple(matrix_from_json(g) for g in gens))
    try:
        return NilpotentOrbit(weight, q, f, cone)
    except ValueError as exc:
        raise FormatError(str(exc)) from None


def ivi_to_json(ivi: IVI) -> dict:
    out = orbit_to_json(ivi.orbit)
    out["abelian_basis"] = [matrix_to_json(m) for m in ivi.family]
    return out


def ivi_from_json(obj) -> IVI:
    _require(obj, "abelian_basis")
    orbit = orbit_from_json(obj)
    basis = obj["abelian_basis"]
    if not isinstance(basis, list) or not basis:
        raise FormatError("abelian_basis must be a non-empty matrix array")
    try:
        return IVI(orbit, tuple(matrix_from_json(m) for m in basis))
    except ValueError as exc:
        raise FormatError(str(exc)) from None


# ---------------------------------------------------------------------------
# period maps
# ---------------------------------------------------------------------------

def polymap_to_json(pm: PolyMap) -> dict:
    z_vars = [v for v in pm.variables if v.startswith("z")]
    t_vars = [v for v in pm.variables if v.startswith("t")]
    if tuple(z_vars + t_vars) != pm.variables:
        raise FormatError(
            "period-map files need z* variables followed by t* variables")
    return {"z_part": [matrix_to_json(pm.coefficient(v)) for v in z_vars],
            "t_linear": [matrix_to_json(pm.coefficient(v)) for v in t_vars],
            "higher": []}


def polymap_from_json(obj) -> PolyMap:
    _require(obj, "z_part", "t_linear")
    z_part, t_linear = obj["z_part"], obj["t_linear"]
    if not isinstance(z_part, list) or not isinstance(t_linear, list):
        raise FormatError("z_part and t_linear must be matrix arrays")
    if obj.get("higher", []) != []:
        raise FormatError("period maps are linear: higher must be empty")
    names = tuple(f"z{i + 1}" for i in range(len(z_part))) + tuple(
        f"t{i + 1}" for i in range(len(t_linear)))
    mats = [matrix_from_json(raw) for raw in z_part + t_linear]
    try:
        return PolyMap(names, mats)
    except ValueError as exc:
        raise FormatError(str(exc)) from None


# ---------------------------------------------------------------------------
# file helpers
# ---------------------------------------------------------------------------

def load_file(path: str) -> Any:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path} is not valid JSON: {exc}") from None
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path} is not UTF-8 text: {exc}") from None
    except ValueError:
        # what json raises past Python's limit on integer string conversion
        raise FormatError(f"{path} holds an integer literal with more "
                          f"digits than Python converts") from None
    except RecursionError:
        raise FormatError(f"{path} nests arrays or objects deeper than "
                          f"the JSON parser follows") from None


_STRING = json.encoder.encode_basestring_ascii
_CONSTANTS = {None: "null", True: "true", False: "false"}
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _dump(obj, indent: str, out: list) -> None:
    """Append the text of ``obj`` to ``out`` as ``json.dumps`` with
    ``sort_keys=True, indent=2`` writes it, ``indent`` being the indent
    of the line it starts on."""
    if isinstance(obj, str):
        out.append(_STRING(obj))
    elif obj is None or obj is True or obj is False:
        out.append(_CONSTANTS[obj])
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    elif isinstance(obj, float):
        out.append(float.__repr__(obj) if isfinite(obj)
                   else _NONFINITE[float.__repr__(obj)])
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        inner = indent + "  "
        sep = ",\n" + inner
        out.append("[\n" + inner)
        if all(isinstance(x, str) for x in obj):
            out.append(sep.join(map(_STRING, obj)))
        else:
            for i, x in enumerate(obj):
                if i:
                    out.append(sep)
                _dump(x, inner, out)
        out.append("\n" + indent + "]")
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = indent + "  "
        out.append("{\n" + inner)
        for i, key in enumerate(sorted(obj)):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not "
                                f"{type(key).__name__}")
            if i:
                out.append(",\n" + inner)
            out.append(_STRING(key) + ": ")
            _dump(obj[key], inner, out)
        out.append("\n" + indent + "}")
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not "
                        f"JSON serializable")


def dump_text(data: Any) -> str:
    """The JSON text of ``data`` with keys sorted and an indent of two, as
    ``json.dumps(data, sort_keys=True, indent=2)`` gives it, and a final
    newline.  ``data`` is built of str, int, float, bool, None, lists,
    tuples and dicts with str keys."""
    out: list[str] = []
    _dump(data, "", out)
    out.append("\n")
    return "".join(out)
