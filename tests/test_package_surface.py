"""The package carries no import it does not use, no public function
nobody in it calls unless it says why, no attribute it stores and never
reads unless it says why, and one ladder of powers.

The checks read the sources with ``ast`` and import nothing.  A public
``def`` (a module-level function or a method whose name does not start
with ``_``) counts as used when its name appears as a Name, an Attribute
or an import alias anywhere in ``src/hodgelim`` outside its own body and
outside ``__init__.py``, whose re-exports call nothing, and nothing else
in ``src/hodgelim`` is named the same: no second def or class,
assignment target, loop variable or parameter.  A name that is bound
more than once proves nothing by appearing, since it may stand for the
other binding.  A public def that is not proven used must be listed, in
``CALLERS`` with a function of the package that calls it, or in
``KEEP`` with a reason whose form the test checks; a new one fails the
test until it gets a unique name, a caller or a reason, and a listed one
that becomes proven used or goes away must leave its list.
"""
import ast
import re
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "hodgelim"

README = "README"
ACCEPTANCE = "acceptance"
TRACER = "perfbench/tracer.py"
WORKLOADS = "perfbench/workloads.py"

# public defs nothing in the package calls, each with the reason it stays,
# in one of four forms that test_every_kept_definition_has_a_checkable_reason
# checks: README (named in backticks in README.md), "ROADMAP item N" (an
# open item that will call it), a path outside src/ and tests/ whose text
# names it, or acceptance (tests/test_acceptance.py names it)
KEEP = {
    "endo.isometry_algebra": TRACER,
    "orbits.limit_context": TRACER,
    "forms.signature": WORKLOADS,
    "io.scalar_to_json": README,
    "io.scalar_from_json": README,
    "io.hs_to_json": README,
    "io.mhs_to_json": README,
    "io.pmhs_to_json": README,
    "io.polymap_from_json": README,
    "matrices.Mat.pow": ACCEPTANCE,
    "matrices.Mat.kernel": README,
    "matrices.Mat.det": README,
    "matrices.Mat.solve": README,
    "mixed.lie_bigrading": "ROADMAP item 11",
    "mixed.filtration_lowering": TRACER,
    "orbits.NilpotentOrbit.limit_weight_filtration": WORKLOADS,
    "orbits.verify_maximality": WORKLOADS,
    "orbits.a_infinity": ACCEPTANCE,
    "orbits.IVI.dim": ACCEPTANCE,
    "builders.DimTable.model": "ROADMAP item 10",
    "filtrations._Filtration.map_by": WORKLOADS,
    "reports.Report.pretty": ACCEPTANCE,
    "reports.Report.failed": ACCEPTANCE,
    "scalars.GaussianRational.re": README,
    "scalars.GaussianRational.im": README,
    "scalars.GaussianRational.is_real": README,
    "scalars.GaussianRational.conj": README,
    "scalars.GaussianRational.inverse": README,
    "subspaces.Quotient.induced_matrix": "ROADMAP item 14",
}


# public defs whose name is bound more than once, each with a function of
# the package that calls it
CALLERS = {
    "builders.CatalogRow.orbit": "cli._cmd_catalog",
    "builders.StringModel.element": "builders._row_pure",
    "builders.StringModel.orbit": "builders.build_max_ivi_k2",
    "filtrations.Bigrading.dims": "filtrations.HodgeStructure.hodge_numbers",
    "filtrations.Bigrading.piece": "mixed.deligne_bigrading",
    "filtrations.Bigrading.row": "mixed.filtration_lowering",
    "filtrations.Bigrading.support": "filtrations.HodgeStructure.__init__",
    "filtrations.IncFiltration.shift": "orbits.verify_orbit",
    "filtrations._Filtration.conj": "filtrations.hs_from_filtration",
    "filtrations._Filtration.is_conj_stable": "mixed._mhs_rest",
    "filtrations._Filtration.jumps": "filtrations.hs_from_filtration",
    "filtrations._Filtration.support": "orbits.verify_orbit",
    "forms.BilForm.dim": "endo.isometry_algebra",
    "forms.BilForm.gram": "forms.BilForm.orthogonal",
    "forms.BilForm.is_real": "filtrations.verify_phs",
    "matrices.Mat.col": "builders.build_max_ivi_k2",
    "matrices.Mat.columns": "builders._hom_into_long_ends",
    "matrices.Mat.conj": "matrices.Mat.conj_transpose",
    "matrices.Mat.from_triples": "endo.as_mat",
    "matrices.Mat.inverse": "builders.StringModel.__init__",
    "matrices.Mat.is_real": "forms.BilForm.is_real",
    "matrices.Mat.is_zero": "filtrations.weight_filtration",
    "matrices.Mat.ncols": "cli._cmd_wfilt",
    "matrices.Mat.nrows": "filtrations.weight_filtration",
    "matrices.Mat.rank": "forms.BilForm.__init__",
    "matrices.combine": "orbits.NilpotentCone.element",
    "orbits.IVI.span": "orbits.verify_maximality",
    "orbits.NilpotentCone.barycenter": "orbits.NilpotentOrbit.barycenter",
    "orbits.NilpotentCone.element": "orbits.NilpotentCone.barycenter",
    "orbits.NilpotentCone.r": "orbits.verify_orbit",
    "orbits.NilpotentCone.span": "orbits.verify_ivi",
    "orbits.NilpotentOrbit.ambient": "orbits.verify_ivi",
    "orbits.NilpotentOrbit.barycenter": "orbits.verify_orbit",
    "orbits.NilpotentOrbit.bigrading": "orbits.verify_orbit",
    "orbits.NilpotentOrbit.horizontal": "orbits.verify_ivi",
    "orbits.NilpotentOrbit.w": "orbits.verify_orbit",
    "reports.Report.add": "orbits.verify_orbit",
    "reports.Report.ok": "orbits.verify_orbit",
    "scalars.GaussianRational.is_zero": "search.greedy_max_abelian",
    "subspaces.Quotient.dim": "mixed.graded_filtration",
    "subspaces.Subspace.conj": "filtrations._Filtration.conj",
    "subspaces.Subspace.dim": "subspaces.Subspace.where_zero",
    "subspaces.Subspace.from_triples": "endo.operator_span",
    "subspaces.Subspace.is_conj_stable":
        "filtrations._Filtration.is_conj_stable",
    "subspaces.Subspace.is_zero": "subspaces.Subspace.__and__",
    "subspaces.Subspace.map_by": "filtrations._Filtration.map_by",
    "subspaces.Subspace.span": "builders.hodge_tate_orbit",
    "subspaces.Subspace.zero": "filtrations.weight_filtration",
    "subspaces.kernel": "subspaces.Subspace.where_zero",
}


# attributes a class stores that no code in the package reads, each with
# the reason it stays
UNREAD = {}


def sources():
    paths = sorted(PACKAGE.glob("*.py"))
    assert paths, f"no sources found under {PACKAGE}"
    return {p.stem: ast.parse(p.read_text("utf-8"), str(p)) for p in paths}


def names_in(node) -> Counter:
    """How often each name appears as a Name, an Attribute or an alias."""
    seen = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            seen[n.id] += 1
        elif isinstance(n, ast.Attribute):
            seen[n.attr] += 1
        elif isinstance(n, ast.alias):
            seen[(n.asname or n.name).split(".")[0]] += 1
    return seen


def bound_names(node) -> Counter:
    """How often each name is bound: by a def or class, an assignment,
    loop or other store target, or a parameter."""
    seen = Counter()
    for n in ast.walk(node):
        if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef,
                          ast.ClassDef)):
            seen[n.name] += 1
        elif isinstance(n, ast.arg):
            seen[n.arg] += 1
        elif isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store):
            seen[n.id] += 1
        elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Store):
            seen[n.attr] += 1
    return seen


def all_defs(module: str, tree: ast.Module):
    """(qualified name, def node) for the functions and methods."""
    for node in tree.body:
        in_class = isinstance(node, ast.ClassDef)
        prefix = f"{module}.{node.name}." if in_class else f"{module}."
        for d in node.body if in_class else [node]:
            if isinstance(d, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield prefix + d.name, d


def public_defs(module: str, tree: ast.Module):
    """(qualified name, def node) for the public functions and methods."""
    return ((qual, d) for qual, d in all_defs(module, tree)
            if not d.name.startswith("_"))


def test_no_module_imports_a_name_it_never_uses():
    unused = []
    for module, tree in sources().items():
        if module == "__init__":
            continue  # its imports are the package's re-exports
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in ast.walk(tree):
            if (isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"):
                unused += [f"{module}:{node.lineno} {a.asname or a.name}"
                           for a in node.names
                           if (a.asname or a.name).split(".")[0] not in used]
    assert not unused, f"imported but never used: {unused}"


def test_every_uncalled_public_definition_says_why_it_stays():
    trees = sources()
    everywhere = sum((names_in(t) for module, t in trees.items()
                      if module != "__init__"), Counter())
    bound = sum((bound_names(t) for t in trees.values()), Counter())
    unproven = {qual for module, tree in trees.items()
                for qual, d in public_defs(module, tree)
                if bound[d.name] > 1
                or everywhere[d.name] - names_in(d)[d.name] <= 0}
    assert not KEEP.keys() & CALLERS.keys()
    assert unproven - KEEP.keys() - CALLERS.keys() == set(), \
        "public definitions the package is not seen to use; delete them, " \
        "name a caller in CALLERS or give a reason in KEEP"
    assert (KEEP.keys() | CALLERS.keys()) - unproven == set(), \
        "KEEP or CALLERS lists definitions that are gone or proven used"


def reason_holds(qual: str, reason: str) -> bool:
    """Whether ``reason`` takes one of KEEP's four forms for ``qual``."""
    name = qual.rsplit(".", 1)[1]
    if reason == README:
        spans = re.findall(r"`([^`\n]+)`", (ROOT / "README.md").read_text())
        return any(re.fullmatch(rf"([\w.]+\.)?{name}(\(\))?", s)
                   for s in spans)
    if re.fullmatch(r"ROADMAP item [1-9][0-9]*", reason):
        return True
    if reason == ACCEPTANCE:
        path = ROOT / "tests" / "test_acceptance.py"
    else:
        path = (ROOT / reason).resolve()
        if (ROOT not in path.parents
                or path.relative_to(ROOT).parts[0] in ("src", "tests")):
            return False
    return (path.is_file()
            and re.search(rf"\b{name}\b", path.read_text()) is not None)


def test_every_kept_definition_has_a_checkable_reason():
    wrong = [f"{qual}: {reason}" for qual, reason in KEEP.items()
             if not reason_holds(qual, reason)]
    assert not wrong, f"KEEP reasons of no checkable form: {wrong}"


@pytest.mark.parametrize("qual,reason", [
    ("m.Mat.kernel", "documented in the README"),
    ("m.no_such_name", README),
    ("m.f", "ROADMAP item 11 and its successors"),
    ("m.f", "ROADMAP item 0"),
    ("m.no_such_name", TRACER),
    ("m.no_such_name", ACCEPTANCE),
    ("subspaces.kernel", "src/hodgelim/mixed.py"),
    ("genutil.move", "tests/genutil.py"),
    ("m.signature", "perfbench/no_such_file.py"),
    ("m.signature", "perfbench/../src/hodgelim/forms.py"),
])
def test_a_reason_of_no_form_is_refused(qual, reason):
    assert not reason_holds(qual, reason)


def test_every_listed_caller_names_its_callee():
    defs = {qual: d for module, tree in sources().items()
            for qual, d in all_defs(module, tree)}
    wrong = [f"{callee} <- {caller}" for callee, caller in CALLERS.items()
             if caller == callee or caller not in defs
             or not names_in(defs[caller])[callee.rsplit(".", 1)[1]]]
    assert not wrong, f"listed callers that do not name the callee: {wrong}"


def is_dataclass(node: ast.ClassDef) -> bool:
    return any(isinstance(d, ast.Name) and d.id == "dataclass"
               or isinstance(d, ast.Call) and isinstance(d.func, ast.Name)
               and d.func.id == "dataclass" for d in node.decorator_list)


def stored_attributes(module: str, tree: ast.Module):
    """(qualified name, attribute) for what each class stores: a
    ``self.x =`` target in a method, an entry in ``__slots__``, or an
    annotated field of a dataclass."""
    for node in tree.body:
        if not isinstance(node, ast.ClassDef):
            continue
        stored = set()
        for item in node.body:
            if (isinstance(item, ast.AnnAssign) and is_dataclass(node)
                    and isinstance(item.target, ast.Name)):
                stored.add(item.target.id)
            elif (isinstance(item, ast.Assign)
                  and any(isinstance(t, ast.Name) and t.id == "__slots__"
                          for t in item.targets)):
                stored |= {c.value for c in ast.walk(item.value)
                           if isinstance(c, ast.Constant)}
            elif isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                stored |= {t.attr for t in ast.walk(item)
                           if isinstance(t, ast.Attribute)
                           and isinstance(t.ctx, ast.Store)
                           and isinstance(t.value, ast.Name)
                           and t.value.id == "self"}
        yield from ((f"{module}.{node.name}.{a}", a) for a in sorted(stored))


def test_every_stored_attribute_is_read():
    # an attribute counts as read when some ``.x`` in the package loads it
    trees = sources()
    read = {n.attr for t in trees.values() for n in ast.walk(t)
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
    stored = dict(attr for module, tree in trees.items()
                  for attr in stored_attributes(module, tree))
    unread = {qual for qual, attr in stored.items() if attr not in read}
    assert unread - UNREAD.keys() == set(), \
        "attributes stored and never read; delete them or give a reason " \
        "in UNREAD"
    assert UNREAD.keys() - unread == set(), \
        "UNREAD lists attributes that are gone or read"


def test_powers_climb_only_the_bounded_ladder():
    # Mat.ladder stops at the dimension; a .pow(k) outside matrices
    # would climb to whatever k an input file gives
    calls = [f"{module}:{node.lineno}"
             for module, tree in sources().items() if module != "matrices"
             for node in ast.walk(tree)
             if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Attribute)
             and node.func.attr == "pow"]
    assert not calls, f"powers outside Mat.ladder: {calls}"
