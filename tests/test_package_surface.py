"""The package carries no import it does not use, no public function
nobody in it calls unless it says why, and one ladder of powers.

Both checks read the sources with ``ast`` and import nothing.  A public
``def`` (a module-level function or a method whose name does not start
with ``_``) counts as used when its name appears as a Name, an Attribute
or an import alias anywhere in ``src/hodgelim`` outside its own body.
The ones that are not must be listed in ``KEEP`` with the reason they
stay; a new one fails the test until it gets a caller or a reason, and a
listed one that gains a caller or goes away must leave the list.
"""
import ast
from collections import Counter
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "hodgelim"

JSON = "the JSON file format: a reader or writer listed in io.__all__"
PERFBENCH = "perfbench/tracer.py wraps it by name in TARGETS"

KEEP = {
    "endo.isometry_algebra": PERFBENCH,
    "filtrations.weil_operator":
        "builds the Weil operator behind the verify_pmhs oracle in the tests",
    "forms.signature": "perfbench wraps it and its dense workload calls it",
    "io.scalar_to_json": JSON,
    "io.scalar_from_json": JSON,
    "io.hs_to_json": JSON,
    "io.mhs_to_json": JSON,
    "io.pmhs_to_json": JSON,
    "io.polymap_from_json": JSON,
    "matrices.Mat.mv": "applies a matrix to a vector of any scalar type",
    "matrices.Mat.pow": "the public power of a matrix, and the oracle the "
                        "tests check nilpotent_powers against",
    "matrices.Mat.det": "the exact determinants the open-cone "
                        "certificates need",
    "matrices.Mat.solve": "documented in the README as part of Mat",
    "mixed.lie_bigrading": "the bigrading on End(V) that graded reduction "
                           "of the search starts from",
    "mixed.filtration_lowering": PERFBENCH,
    "orbits.NilpotentOrbit.limit_weight_filtration":
        "perfbench/workloads.py and benchmarks/bench_kernels.py call it",
    "orbits.verify_maximality": "the maximality certificate; perfbench's "
                                "certify workload calls it",
    "orbits.collapse_cone": "one positive combination for a whole cone, "
                            "the paper's one-variable orbit",
    "orbits.PolyMap.evaluate": "the integrated period map at a point",
    "orbits.a_infinity": "recovers the family from its period map, as "
                         "acceptance criterion 5 asks",
    "reports.Report.pretty": "a report as text, for failure messages",
    "search.SearchResult.summary": "a search result as one line of text",
    "subspaces.Subspace.contains": "membership of one vector",
    "subspaces.Subspace.basis_vectors":
        "the canonical basis as Gaussian-rational vectors",
    "subspaces.Quotient.project_coords":
        "coordinates of a class in the complement basis",
    "subspaces.Quotient.induced_matrix":
        "the matrix an operator induces on a quotient, for determinants",
}


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


def public_defs(module: str, tree: ast.Module):
    """(qualified name, def node) for the public functions and methods."""
    for node in tree.body:
        in_class = isinstance(node, ast.ClassDef)
        prefix = f"{module}.{node.name}." if in_class else f"{module}."
        for d in node.body if in_class else [node]:
            if (isinstance(d, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not d.name.startswith("_")):
                yield prefix + d.name, d


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
    everywhere = sum((names_in(t) for t in trees.values()), Counter())
    uncalled = {qual for module, tree in trees.items()
                for qual, d in public_defs(module, tree)
                if everywhere[d.name] - names_in(d)[d.name] <= 0}
    assert uncalled - KEEP.keys() == set(), \
        "public definitions nothing in the package uses; delete them or " \
        "give a reason in KEEP"
    assert KEEP.keys() - uncalled == set(), \
        "KEEP lists definitions that are gone or now have a caller"


def test_powers_climb_only_the_bounded_ladder():
    # filtrations.nilpotent_powers stops at the dimension; a .pow(k)
    # outside matrices would climb to whatever k an input file gives
    calls = [f"{module}:{node.lineno}"
             for module, tree in sources().items() if module != "matrices"
             for node in ast.walk(tree)
             if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Attribute)
             and node.func.attr == "pow"]
    assert not calls, f"powers outside nilpotent_powers: {calls}"
