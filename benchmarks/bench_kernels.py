#!/usr/bin/env python3
"""Time the exact kernels: matrix product and reduced row echelon form.

Both run on seeded random Gaussian-rational matrices; the row reduction
gets a rank-deficient input so it has real clearing work to do.

    python3 benchmarks/bench_kernels.py
    python3 benchmarks/bench_kernels.py --size 48 --repeats 7
"""
from __future__ import annotations

import argparse
import os
import random
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from hodgelim.matrices import t_matmul, t_rref  # noqa: E402
from hodgelim.scalars import t_add, t_norm  # noqa: E402


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


def best_of(repeats: int, fn, *args) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best


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
    return 0


if __name__ == "__main__":
    sys.exit(main())
