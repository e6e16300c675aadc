#!/usr/bin/env python3
"""Time the exact kernels: matrix product and reduced row echelon form.

Both run on seeded random Gaussian-rational matrices; the row reduction
gets a rank-deficient input so it has real clearing work to do.  Next to
them, the two subspace kernels the verifiers lean on run on the sparse
barycenter N of ``hodge_tate_orbit(2, 7)``: ``Subspace.map_by`` of the
whole space (im N) and ``t_reduce`` of N's columns against im N.  Then
``limit_context(hodge_tate_orbit(2, n))`` for n = 9, 12, 16: W, the
Deligne splitting and the horizontal part at growing dimension;
``weight_filtration_defect`` of the limit W of the CKTM grid, the
catalog's cones and those three orbits against a fresh copy of each
barycenter, so that its powers are climbed in the timing; the
greedy search on ``hodge_tate_orbit(2, 9)`` with 10 restarts, on
``hodge_tate_orbit(2, 5)`` with 200 and on ``hodge_tate_orbit(2, 12)``
with 3, at seed 0 and with the orbit's limit structure built beforehand,
so only the search is timed (best of 3), and ``SpanCoordinates`` of the
search's z_base (the horizontal part's centralizer of the cone) for
n = 9 and 12, the structure constants a search computes once.  The
search of ``catalog table1 --search`` follows: all 13 cones of the
table, each on a fresh orbit that builds its own limit structure, at 200
restarts and seed 0 (best of 3).  The
lattice in a dense basis follows: ``Subspace.__and__`` of two random
complex subspaces of C^size that share a third of their dimension, and of
F^1 and W_2 of the ``hodge_tate_orbit(2, 7)`` limit moved by a seeded
dense real rational matrix, then ``deligne_bigrading`` and
``verify_pmhs`` of that moved limit.  ``verify_maximality`` of
``symmetric_family_ivi(3)`` times the operator-space solves behind a
certificate, and ``verify_ivi`` followed by ``verify_maximality``, the two
verifiers sharing one limit structure.  An orbit keeps its limit
structure once built, and a matrix its powers, so those timings run on
a fresh equal orbit, and ``verify_pmhs`` on a fresh N, each time.
Last, the fixed costs of a command: reading
``symmetric_family_ivi(3)``'s JSON and ``build_max_ivi_k2(4, 6)``'s with
``io.ivi_from_json``, 50 in-process ``cli.main`` calls of ``bound cktm``,
and ``pairwise_commuting`` on ``symmetric_family_ivi(3)`` and on the
family that the seed-0, 3-restart search finds on
``hodge_tate_orbit(2, 7)``, where the products are dense enough that the
arithmetic, not the fixed cost, sets the time.

    python3 benchmarks/bench_kernels.py
    python3 benchmarks/bench_kernels.py --size 48 --repeats 7
"""
from __future__ import annotations

import argparse
import contextlib
import io as _stdio
import os
import random
import sys
import time
from dataclasses import replace

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from hodgelim import cli, io  # noqa: E402
from hodgelim.builders import (build_max_ivi_k2,  # noqa: E402
                               hodge_tate_orbit, symmetric_family_ivi,
                               table1_catalog)
from hodgelim.endo import (SpanCoordinates, centralizer_in,  # noqa: E402
                           pairwise_commuting)
from hodgelim.filtrations import weight_filtration_defect  # noqa: E402
from hodgelim.forms import BilForm  # noqa: E402
from hodgelim.matrices import Mat, t_matmul, t_rref, t_transpose  # noqa: E402
from hodgelim.mixed import deligne_bigrading, verify_pmhs  # noqa: E402
from hodgelim.orbits import (IVI, NilpotentCone, limit_context,  # noqa: E402
                             verify_ivi, verify_maximality)
from hodgelim.scalars import t_add, t_norm  # noqa: E402
from hodgelim.search import SearchConfig, greedy_max_abelian  # noqa: E402
from hodgelim.subspaces import Subspace, t_reduce  # noqa: E402


def _triple(rng: random.Random) -> tuple[int, int, int]:
    a = rng.randint(-9, 9)
    b = rng.randint(-3, 3) if rng.random() < 0.3 else 0
    return t_norm(a, b, rng.randint(1, 9))


def random_matrix(rng: random.Random, rows: int, cols: int) -> tuple:
    return tuple(tuple(_triple(rng) for _ in range(cols))
                 for _ in range(rows))


def rank_deficient(rng: random.Random, rows: int, cols: int) -> tuple:
    # start independent-ish, then append sums of earlier rows so the
    # elimination has real clearing work to do
    base = list(random_matrix(rng, rows, cols))
    for _ in range(rows // 3):
        i, j = rng.randrange(rows), rng.randrange(rows)
        base.append(tuple(t_add(x, y) for x, y in zip(base[i], base[j])))
    rng.shuffle(base)
    return tuple(base)


def dense_real(rng: random.Random, n: int) -> tuple:
    """A seeded invertible n x n matrix of small real rationals."""
    pool = ((-2, 0, 1), (-1, 0, 1), (0, 0, 1), (1, 0, 1), (2, 0, 1),
            (1, 0, 2), (-1, 0, 2))
    while True:
        g = tuple(tuple(rng.choice(pool) for _ in range(n)) for _ in range(n))
        if len(t_rref(g)[1]) == n:
            return g


def best_fresh(repeats: int, make, fn) -> float:
    """Best time of fn(make()), with make() run outside the timing."""
    best = float("inf")
    for _ in range(repeats):
        arg = make()
        t0 = time.perf_counter()
        fn(arg)
        best = min(best, time.perf_counter() - t0)
    return best


def best_of(repeats: int, fn, *args) -> float:
    return best_fresh(repeats, lambda: args, lambda a: fn(*a))


def fresh_copy(m: Mat) -> Mat:
    """An equal matrix that has climbed no powers yet."""
    return Mat.from_triples(m.t, m.ncols)


def fresh_ivi(ivi: IVI) -> IVI:
    """An equal family on an equal orbit that has built no limit and
    climbed no powers yet."""
    cone = NilpotentCone(tuple(map(fresh_copy, ivi.orbit.cone.generators)))
    return IVI(replace(ivi.orbit, cone=cone), ivi.family)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--size", type=int, default=32,
                    help="matrix edge length (default 32)")
    ap.add_argument("--repeats", type=int, default=5,
                    help="take the best of this many runs (default 5)")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    size = args.size
    rng = random.Random(args.seed)
    a = random_matrix(rng, size, size)
    b = random_matrix(rng, size, size)
    r = rank_deficient(rng, size, size + size // 2)
    print(f"{size}x{size} matmul, rref on {len(r)}x{size + size // 2} "
          f"(best of {args.repeats}):")
    print(f"  matmul  {best_of(args.repeats, t_matmul, a, b) * 1e3:8.2f} ms")
    print(f"  rref    {best_of(args.repeats, t_rref, r) * 1e3:8.2f} ms")

    n = hodge_tate_orbit(2, 7).cone.barycenter()
    whole = Subspace.full(n.ncols)
    im = whole.map_by(n)
    cols = t_transpose(n.t)
    nnz = sum(1 for row in n.t for e in row if e[0] or e[1])
    calls = 100
    print(f"hodge_tate_orbit(2, 7) barycenter N, {n.nrows}x{n.ncols} with "
          f"{nnz} nonzeros, im N of dim {im.dim} "
          f"(best of {args.repeats}, {calls} calls each):")

    def map_whole():
        for _ in range(calls):
            whole.map_by(n)

    def reduce_cols():
        for _ in range(calls):
            for v in cols:
                t_reduce(v, im.rows, im.pivots)

    print(f"  map_by  {best_of(args.repeats, map_whole) * 1e6 / calls:8.1f} "
          f"us  (C^{n.ncols} onto im N)")
    print(f"  reduce  {best_of(args.repeats, reduce_cols) * 1e6 / calls:8.1f} "
          f"us  ({len(cols)} columns of N against im N)")

    print(f"limit_context(hodge_tate_orbit(2, n)) (best of {args.repeats}):")
    for strings in (9, 12, 16):
        orbit = hodge_tate_orbit(2, strings)
        t = best_fresh(args.repeats, lambda: replace(orbit), limit_context)
        print(f"  n = {strings:2d}  {t * 1e3:8.1f} ms"
              f"  (ambient {orbit.ambient}, horizontal part of dim "
              f"{limit_context(orbit).horizontal.dim})")

    stock = {
        "CKTM grid": [build_max_ivi_k2(h20, h11).orbit
                      for h20 in range(1, 5) for h11 in range(1, 7)],
        "catalog cones": [replace(row.witness.orbit, cone=cone)
                          for row in table1_catalog() for cone in row.cones],
        "hodge_tate_orbit(2, n), n = 9, 12, 16": [
            hodge_tate_orbit(2, strings) for strings in (9, 12, 16)]}
    print(f"weight_filtration_defect of each stock limit's W against its "
          f"barycenter (best of {args.repeats}):")
    for label, orbits in stock.items():
        cases = [(o.limit_weight_filtration().shift(o.weight),
                  o.cone.barycenter()) for o in orbits if o.cone.r]

        def defects(fresh):
            for w, n in fresh:
                weight_filtration_defect(w, n)

        # a matrix keeps the powers it has climbed
        t = best_fresh(args.repeats,
                       lambda: [(w, fresh_copy(n)) for w, n in cases],
                       defects)
        print(f"  {label:38s} {t * 1e3:8.2f} ms  ({len(cases)} limits)")

    print("greedy_max_abelian(hodge_tate_orbit(2, n)), seed 0 (best of 3):")
    for strings, restarts in ((9, 10), (5, 200), (12, 3)):
        orbit = hodge_tate_orbit(2, strings)
        limit_context(orbit)
        config = SearchConfig(restarts=restarts, seed=0)
        t = best_of(3, greedy_max_abelian, orbit, config)
        print(f"  n = {strings:2d}, {restarts:3d} restarts {t * 1e3:8.1f} ms")
    print(f"SpanCoordinates of the search's z_base (best of {args.repeats}):")
    for strings in (9, 12):
        orbit = hodge_tate_orbit(2, strings)
        n = orbit.ambient
        z_base = centralizer_in(limit_context(orbit).horizontal,
                                list(orbit.cone.generators), n)
        t = best_of(args.repeats, SpanCoordinates, z_base, n)
        print(f"  n = {strings:2d}  {t * 1e3:8.1f} ms  (z_base of dim "
              f"{z_base.dim}, brackets of rank "
              f"{SpanCoordinates(z_base, n).rank})")
    cones = [replace(row.witness.orbit, cone=cone)
             for row in table1_catalog() for cone in row.cones]
    config = SearchConfig(restarts=200, seed=0)

    def search_all(orbits):
        for orbit in orbits:
            greedy_max_abelian(orbit, config)

    t = best_fresh(3, lambda: [replace(o) for o in cones], search_all)
    print(f"catalog table1 search, {len(cones)} cones on fresh orbits, "
          f"200 restarts, seed 0 (best of 3):  {t * 1e3:8.1f} ms")

    dim = size // 2
    common = random_matrix(rng, size // 6, size)
    meet_a = Subspace.from_triples(
        common + random_matrix(rng, dim - len(common), size), size)
    meet_b = Subspace.from_triples(
        common + random_matrix(rng, dim - len(common), size), size)
    orbit = hodge_tate_orbit(2, 7)
    g = Mat.from_triples(dense_real(rng, orbit.ambient))
    w = orbit.limit_weight_filtration()
    moved_w = w.map_by(g)
    moved_f = orbit.filtration.map_by(g)
    f1, w2 = moved_f.at(1), moved_w.at(2)
    reps = args.repeats
    print(f"the lattice in a dense basis (best of {reps}):")
    print(f"  intersect {best_of(reps, meet_a.__and__, meet_b) * 1e3:8.2f} ms"
          f"  (two random dim-{meet_a.dim} subspaces of C^{size}, meeting "
          f"in dim {(meet_a & meet_b).dim})")
    print(f"  intersect {best_of(reps, f1.__and__, w2) * 1e3:8.2f} ms"
          f"  (F^1 and W_2 of the moved hodge_tate_orbit(2, 7) limit, "
          f"dims {f1.dim} and {w2.dim} in C^{orbit.ambient})")
    print(f"  deligne   "
          f"{best_of(reps, deligne_bigrading, moved_w, moved_f) * 1e3:8.2f}"
          f" ms  (the moved hodge_tate_orbit(2, 7) limit)")
    gi = g.inverse()
    moved_q = BilForm(gi.transpose() @ orbit.form.matrix @ gi,
                      orbit.form.parity)
    moved_n = g @ orbit.cone.barycenter() @ gi
    pmhs = best_fresh(reps, lambda: fresh_copy(moved_n),
                      lambda n: verify_pmhs(orbit.weight, moved_q, moved_w,
                                            moved_f, n))
    print(f"  verify_pmhs {pmhs * 1e3:6.2f} ms  (the same moved limit)")

    ivi = symmetric_family_ivi(3)

    def both(family):
        verify_ivi(family)
        verify_maximality(family)

    alone = best_fresh(reps, lambda: fresh_ivi(ivi), verify_maximality)
    shared = best_fresh(reps, lambda: fresh_ivi(ivi), both)
    print(f"symmetric_family_ivi(3), a fresh orbit each time "
          f"(best of {reps}):")
    print(f"  verify_maximality             {alone * 1e3:8.2f} ms")
    print(f"  verify_ivi, verify_maximality {shared * 1e3:8.2f} ms"
          f"  (one limit structure)")
    data = io.ivi_to_json(ivi)
    size = len(io.dump_text(data))
    bound = ["bound", "cktm", "--h20", "2", "--h11", "3"]

    def bound_calls():
        with contextlib.redirect_stdout(_stdio.StringIO()):
            for _ in range(50):
                cli.main(bound)

    m = ivi.family[0]
    cktm = io.ivi_to_json(build_max_ivi_k2(4, 6))
    found = greedy_max_abelian(hodge_tate_orbit(2, 7),
                               SearchConfig(restarts=3, seed=0)).best
    print(f"fixed costs of a command (best of {args.repeats}):")
    print(f"  ivi_from_json      "
          f"{best_of(args.repeats, io.ivi_from_json, data) * 1e3:8.2f} ms"
          f"  (symmetric_family_ivi(3), {size} bytes of JSON)")
    print(f"  ivi_from_json      "
          f"{best_of(args.repeats, io.ivi_from_json, cktm) * 1e3:8.2f} ms"
          f"  (build_max_ivi_k2(4, 6), {len(io.dump_text(cktm))} bytes "
          f"of JSON)")
    print(f"  cli.main           "
          f"{best_of(args.repeats, bound_calls) * 1e3:8.2f} ms"
          f"  (50 calls of {' '.join(bound)})")
    print(f"  pairwise_commuting "
          f"{best_of(args.repeats, pairwise_commuting, ivi.family) * 1e3:8.2f}"
          f" ms  ({len(ivi.family)} operators of size {m.nrows})")
    print(f"  pairwise_commuting "
          f"{best_of(args.repeats, pairwise_commuting, found) * 1e3:8.2f}"
          f" ms  (hodge_tate_orbit(2, 7) search result, seed 0, 3 "
          f"restarts: {len(found)} operators of size {found[0].nrows})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
