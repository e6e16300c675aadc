"""A smoke run of ``benchmarks/reach.py`` on one small test file."""
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_reach_lists_the_lines_a_selection_never_runs():
    # a fresh process, so the package's module-level lines are traced too
    out = subprocess.run(
        [sys.executable, os.path.join(ROOT, "benchmarks", "reach.py"),
         "tests/test_matrices.py", "-q", "-p", "no:cacheprovider"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stdout + out.stderr
    listed = out.stdout.split("src/hodgelim/matrices.py: ", 1)[1]
    listed = listed.split("src/hodgelim/", 1)[0]
    # the file's tests never invert a non-square matrix, but solve
    assert '! raise ValueError("inverse of non-square matrix")' in listed
    assert "tb = _coerce_row(b)" not in listed
    assert "src/hodgelim/cli.py: " in out.stdout
    # co_lines gives some generated code line 0, which is no source line
    assert "\n      0 " not in out.stdout
