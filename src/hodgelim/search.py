"""Randomized greedy search for maximal abelian horizontal families.

Every abelian family over the cone lies in z_base, the cone's centralizer
in the horizontal part, which the search reads off the orbit
(:attr:`~hodgelim.orbits.NilpotentOrbit.horizontal`).  The search puts
z_base in its own coordinates (:class:`~hodgelim.endo.SpanCoordinates`):
a vector of z_base is its entries at z_base's pivot columns, a length-m
coordinate vector, and the brackets of z_base are stored as sparse
structure constants in the D-dimensional span of those brackets.

Each restart grows the cone span one direction at a time and carries
only comp, a canonical complement of the family F in its centralizer:
draw a random combination x of comp and adjoin it.  F commutes with x,
so x's centralizer in F + comp is F plus x's centralizer in comp: each
step solves on comp alone, one product of its basis with x's bracket
matrix, then a kernel on D conditions instead of n², and a step whose
conditions all vanish eliminates nothing.  That part holds x and
vanishes at F's pivot columns, so its residuals against x alone are the
next comp, row for row.  The loop runs on coordinate vectors.
Projection onto the pivot columns commutes with RREF, complements and
sums, so the draws and the canonical bases are those of the flattened
operators; the best restart's family, the cone span plus its draws, is
formed and lifted back once at the end.  The loop ends exactly when the
family equals its centralizer, so every restart terminates with a
certificate of maximality.  Runs are deterministic for a given seed:
restart i uses its own stream seeded by "seed:i", and the centralizer of
the cone span and its structure constants are computed once.
"""
from __future__ import annotations

import random
from dataclasses import dataclass

from .endo import SpanCoordinates, centralizer_in, span_basis_mats
from .matrices import Mat, t_matmul
from .orbits import IVI, NilpotentOrbit
from .scalars import GR, I
from .subspaces import Subspace

# the coefficients a random draw picks from
COEFFICIENTS = (GR(0), GR(1), GR(-1), GR(2), I, GR(1) + I)


@dataclass(frozen=True)
class SearchConfig:
    restarts: int = 200
    seed: int | str = 0
    max_steps: int | None = None

    def __post_init__(self):
        if self.restarts < 1:
            raise ValueError(
                f"restarts must be at least 1, not {self.restarts}")
        if self.max_steps is not None and self.max_steps < 0:
            raise ValueError(
                f"max_steps must be None or at least 0, not {self.max_steps}")


@dataclass
class SearchResult:
    best: list[Mat]
    best_dim: int
    certified: bool
    restart_dims: list[int]


def greedy_max_abelian(orbit_like,
                       config: SearchConfig | None = None) -> SearchResult:
    """Grow the cone span into maximal abelian families, keeping the best.

    Accepts an orbit or a full family (whose cone is then the start).
    A restart carries only the complement of its family in the family's
    centralizer, and the best family is formed once, at the end.  The
    result's ``certified`` flag reports whether the best family equals
    its centralizer in the horizontal part — by construction it always
    does, but the flag is re-derived from the final state, not assumed.

    The search works in the horizontal part of the orbit's own limit
    structure and raises ValueError when the cone span does not lie in it.
    """
    config = config or SearchConfig()
    if isinstance(orbit_like, IVI):
        orbit = orbit_like.orbit
    elif isinstance(orbit_like, NilpotentOrbit):
        orbit = orbit_like
    else:
        raise TypeError("search needs an orbit or a family")
    horizontal = orbit.horizontal
    n = orbit.ambient
    base = orbit.cone.span(n)
    if not base <= horizontal:
        raise ValueError("cone span is not horizontal")
    z_base = centralizer_in(horizontal, list(orbit.cone.generators), n) \
        if orbit.cone.r else horizontal

    coordinates = SpanCoordinates(z_base, n)
    m = z_base.dim

    base_coords = Subspace.from_triples(
        [tuple(r[p] for p in z_base.pivots) for r in base.rows], m)
    start = base_coords.complement_in(Subspace.full(m))
    best, best_dim, best_certified = [], -1, False
    restart_dims: list[int] = []
    limit = config.max_steps
    for restart in range(config.restarts):
        rng = random.Random(f"{config.seed}:{restart}")
        comp, drawn = start, []
        while comp.dim and (limit is None or len(drawn) < limit):
            coeffs = [rng.choice(COEFFICIENTS) for _ in range(comp.dim)]
            while all(c.is_zero() for c in coeffs):
                coeffs = [rng.choice(COEFFICIENTS) for _ in range(comp.dim)]
            x = t_matmul((tuple(c.triple for c in coeffs),), comp.rows)[0]
            drawn.append(x)
            # x's centralizer in comp holds x and vanishes at the family's
            # pivots: its residuals against x are the next complement
            comp = Subspace.from_triples((x,), m).complement_in(
                centralizer_in(comp, [x], coordinates))
        dim = base_coords.dim + len(drawn)
        restart_dims.append(dim)
        if dim > best_dim:
            best, best_dim, best_certified = drawn, dim, comp.dim == 0
    family = Subspace.from_triples(base_coords.rows + tuple(best), m)
    return SearchResult(span_basis_mats(z_base.lift(family), n),
                        best_dim, best_certified, restart_dims)
