"""The library must not guard results with ``assert``: ``python -O`` strips
those statements, so an invariant has to raise VerificationError (or
another package error) instead."""
import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "hodgelim"


def test_library_has_no_assert_statements():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources, f"no sources found under {PACKAGE}"
    offenders = [f"{path.name}:{node.lineno}"
                 for path in sources
                 for node in ast.walk(ast.parse(path.read_text("utf-8"),
                                                str(path)))
                 if isinstance(node, ast.Assert)]
    assert not offenders, f"assert statements in the library: {offenders}"
