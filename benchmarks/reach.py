#!/usr/bin/env python3
"""List the lines of ``src/hodgelim`` that a pytest selection never runs.

    python3 benchmarks/reach.py tests/test_matrices.py
    python3 benchmarks/reach.py tests -k verify -q

The arguments go to ``pytest.main``, which runs in this process under a
``sys.settrace`` line tracer that follows only frames whose code lies in
``src/hodgelim``.  The lines a file's compiled code lists (``co_lines``
over its code objects) are its executable lines; every one that never
ran is printed under its file, with its source text, a ``raise``
statement marked ``!``.  Run it in a fresh process: a module imported
before the tracer starts never shows its module-level lines as run.  The
exit code is pytest's.
"""
import ast
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "hodgelim")


def executable_lines(code) -> set[int]:
    """The line numbers of ``code`` and of the code objects it holds."""
    lines = {line for _, _, line in code.co_lines() if line}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= executable_lines(const)
    return lines


def trace(args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """Run pytest on ``args``; return its exit code and the lines run,
    keyed by the real path of each file of the package."""
    ran: dict[str, set[int]] = {}

    def local(frame, event, _arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def start(frame, _event, _arg):
        path = frame.f_code.co_filename
        if path.startswith(PACKAGE):
            ran.setdefault(path, set())
            return local

    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.settrace(start)
    try:
        code = pytest.main(args)
    finally:
        sys.settrace(None)
    return int(code), {os.path.realpath(p): ls for p, ls in ran.items()}


def main(argv: list[str]) -> int:
    code, ran = trace(argv)
    for name in sorted(n for n in os.listdir(PACKAGE) if n.endswith(".py")):
        path = os.path.realpath(os.path.join(PACKAGE, name))
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        raises = {n.lineno for n in ast.walk(ast.parse(text))
                  if isinstance(n, ast.Raise)}
        lines = executable_lines(compile(text, path, "exec"))
        missed = sorted(lines - ran.get(path, set()))
        source = text.splitlines()
        print(f"src/hodgelim/{name}: {len(missed)} of {len(lines)} "
              f"executable lines never run")
        for line in missed:
            mark = "!" if line in raises else " "
            print(f"  {line:5d} {mark} {source[line - 1].strip()}")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
