"""Randomized greedy search for maximal abelian horizontal families.

Every abelian family over the cone lies in z_base, the cone's centralizer
in the horizontal part.  The search puts z_base in its own coordinates
(:class:`~hodgelim.endo.SpanCoordinates`): a vector of z_base is its
entries at z_base's pivot columns, a length-m coordinate vector, and the
brackets of z_base are stored as sparse structure constants in the
D-dimensional span of those brackets.

Each restart grows the cone span one direction at a time: draw a random
combination x from the complement of the current family inside its own
centralizer z, adjoin it, intersect z with the centralizer of x, repeat.
The family commutes with x, so x's centralizer in z is the family plus
x's centralizer in the complement: each step solves on the complement
alone, one product of its basis with x's bracket matrix, then a kernel
on D conditions instead of n², and a step whose conditions all vanish
keeps z and eliminates nothing.  The whole loop runs on coordinate
vectors.  Projection onto the pivot columns commutes with RREF,
complements and sums, so the draws and the canonical bases are those of
the flattened operators; the best family is lifted back once at the
end.  The loop ends exactly when the family equals its centralizer, so
every restart terminates with a certificate of maximality.  Runs are
deterministic for a given seed: restart i uses its own stream seeded by
"seed:i", and the centralizer of the cone span and its structure
constants are computed once.
"""
from __future__ import annotations

import random
from dataclasses import dataclass

from .endo import SpanCoordinates, centralizer_in, span_basis_mats
from .filtrations import weight_filtration_defect
from .matrices import Mat, t_matmul
from .orbits import IVI, NilpotentOrbit, limit_context
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
    config: SearchConfig

    def summary(self) -> str:
        lo, hi = min(self.restart_dims), max(self.restart_dims)
        return (f"best {self.best_dim} "
                f"({'certified maximal' if self.certified else 'uncertified'}"
                f"; {len(self.restart_dims)} restarts, dims {lo}..{hi})")


def _check_search_context(context, orbit: NilpotentOrbit) -> None:
    """Refuse a limit context whose horizontal part is not the orbit's.

    The horizontal part is fixed by the weight, the form, F and W.  So a
    context serves when it is the orbit's, or when these agree and W is
    the recentered weight filtration of the orbit's barycenter, checked by
    the properties that fix W(N) (N = 0 for an empty cone: the trivial W).
    """
    other = context.orbit
    if other is orbit or other == orbit:
        return
    n = orbit.ambient
    for datum in ("weight", "form", "filtration"):
        if getattr(other, datum) != getattr(orbit, datum):
            raise ValueError(f"the limit context has another {datum}")
    bary = orbit.cone.barycenter() if orbit.cone.r else Mat.zeros(n, n)
    if weight_filtration_defect(context.w.shift(orbit.weight),
                                bary) is not None:
        raise ValueError("the limit context has another weight filtration")


def greedy_max_abelian(orbit_like, config: SearchConfig | None = None,
                       context=None) -> SearchResult:
    """Grow the cone span into maximal abelian families, keeping the best.

    Accepts an orbit or a full family (whose cone is then the start).
    The result's ``certified`` flag reports whether the best family equals
    its centralizer in the horizontal part — by construction it always
    does, but the flag is re-derived from the final state, not assumed.

    ``context`` is a :func:`~hodgelim.orbits.limit_context` the caller has
    already.  It may belong to another orbit with the same limit structure
    (the cones of one catalog row share theirs), and raises ValueError
    otherwise (see :func:`_check_search_context`).
    """
    config = config or SearchConfig()
    if isinstance(orbit_like, IVI):
        orbit = orbit_like.orbit
    elif isinstance(orbit_like, NilpotentOrbit):
        orbit = orbit_like
    else:
        raise TypeError("search needs an orbit or a family")
    if context is not None:
        _check_search_context(context, orbit)
    ctx = context or limit_context(orbit)
    n = orbit.ambient
    base = orbit.cone.span(n)
    if not base <= ctx.horizontal:
        raise ValueError("cone span is not horizontal")
    z_base = centralizer_in(ctx.horizontal, list(orbit.cone.generators), n) \
        if orbit.cone.r else ctx.horizontal

    coordinates = SpanCoordinates(z_base, n)
    m = z_base.dim

    base_coords = Subspace.from_triples(
        [tuple(r[p] for p in z_base.pivots) for r in base.rows], m)
    best: Subspace | None = None
    best_certified = False
    restart_dims: list[int] = []
    for restart in range(config.restarts):
        rng = random.Random(f"{config.seed}:{restart}")
        current = base_coords
        z = Subspace.full(m)
        steps = 0
        while True:
            comp = current.complement_in(z)
            if comp.dim == 0:
                certified = True
                break
            if config.max_steps is not None and steps >= config.max_steps:
                certified = False
                break
            steps += 1
            coeffs = [rng.choice(COEFFICIENTS) for _ in range(comp.dim)]
            while all(c.is_zero() for c in coeffs):
                coeffs = [rng.choice(COEFFICIENTS) for _ in range(comp.dim)]
            x = t_matmul((tuple(c.triple for c in coeffs),), comp.rows)[0]
            current = current + Subspace.from_triples((x,), m)
            # z = current' + comp with current' (the family before x) in
            # the centralizer of x, so x's centralizer in z is current
            # plus its centralizer in comp, which contains x
            part = centralizer_in(comp, [x], coordinates)
            if part.dim < comp.dim:
                z = current + part
        restart_dims.append(current.dim)
        if best is None or current.dim > best.dim:
            best = current
            best_certified = certified
    return SearchResult(span_basis_mats(z_base.lift(best), n),
                        best.dim, best_certified, restart_dims, config)
