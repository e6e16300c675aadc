"""Nilpotent orbits at infinity and their abelian enlargements.

A cone of commuting real nilpotents together with a Hodge-type filtration
describes a degenerating family; the limit carries a mixed Hodge structure
polarized on primitive graded pieces.  An orbit owns that limit: its W,
Deligne bigrading and horizontal part are built on first read and kept
on the orbit.  An IVI (infinitesimal variation of Hodge structure at
infinity) enlarges the cone to an abelian subspace of the horizontal
part of the isometry algebra.  This module verifies both notions,
integrates an IVI into a linear period map (the exponent of its
nilpotent orbit, stored as one coefficient matrix per variable), and
certifies maximality by a centralizer computation.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from .endo import (centralizer_in, noncommuting_pair, operator_span,
                   pairwise_commuting, span_basis_mats)
from .errors import VerificationError
from .filtrations import (Bigrading, DecFiltration, IncFiltration,
                          verify_phs, weight_filtration,
                          weight_filtration_defect)
from .forms import BilForm, in_isometry_algebra
from .matrices import Mat, combine
from .mixed import (_n_check_names, _pmhs_rest, deligne_bigrading,
                    horizontal_part)
from .reports import Report
from .subspaces import Subspace


@dataclass(frozen=True)
class NilpotentCone:
    """A finite set of commuting real nilpotent generators (possibly empty)."""

    generators: tuple[Mat, ...]

    def __post_init__(self):
        gens = tuple(self.generators)
        object.__setattr__(self, "generators", gens)
        dims = {g.nrows for g in gens} | {g.ncols for g in gens}
        if len(dims) > 1:
            raise ValueError("cone generators of mixed sizes")

    @property
    def r(self) -> int:
        return len(self.generators)

    def span(self, n: int) -> Subspace:
        return operator_span(self.generators, n)

    def element(self, coefficients: Sequence) -> Mat:
        """sum_i c_i N_i."""
        if self.r == 0:
            raise ValueError("the empty cone has no elements")
        return combine(coefficients, self.generators)

    def barycenter(self) -> Mat:
        """sum_i N_i; a lone generator is its own barycenter, and keeps
        the powers it has climbed."""
        if self.r == 1:
            return self.generators[0]
        return self.element([1] * self.r)


@dataclass(frozen=True)
class NilpotentOrbit:
    """Limit data: weight, polarization form, filtration and a cone."""

    weight: int
    form: BilForm
    filtration: DecFiltration
    cone: NilpotentCone

    def __post_init__(self):
        # k < 0 leaves no N with N^(k+1) = 0; a pure k < 0 is legitimate
        if self.weight < 0 and self.cone.r:
            raise ValueError(f"a nilpotent orbit has weight >= 0, "
                             f"got weight {self.weight}")
        n = self.form.dim
        if self.filtration.ambient != n:
            raise ValueError("filtration and form dimensions differ")
        for g in self.cone.generators:
            if g.nrows != n:
                raise ValueError("cone generators do not act on the space")

    @property
    def ambient(self) -> int:
        return self.form.dim

    # the limit structure: each part is built on first read and kept; none
    # is a field, so ``==`` and ``replace`` skip them, and a build that
    # raises is not kept, so it raises again on the next read

    @cached_property
    def barycenter(self) -> Mat:
        """The cone's barycenter, whose W is the limit W."""
        return self.cone.barycenter()

    @cached_property
    def w(self) -> IncFiltration:
        """W(N) of the barycenter recentered at the weight (trivial for an
        empty cone)."""
        if self.cone.r == 0:
            return IncFiltration({self.weight: Subspace.full(self.ambient)})
        return weight_filtration(self.barycenter).shift(-self.weight)

    @cached_property
    def bigrading(self) -> Bigrading:
        """The Deligne splitting of (W, F)."""
        return deligne_bigrading(self.w, self.filtration)

    @cached_property
    def horizontal(self) -> Subspace:
        """The part g^{-1,*} of the isometry algebra, read off the
        splitting by :func:`~hodgelim.mixed.horizontal_part`."""
        return horizontal_part(self.bigrading, self.form, self.weight)

    def limit_weight_filtration(self) -> IncFiltration:
        """W of the generic cone element, recentered at the weight."""
        return self.w


@dataclass(frozen=True)
class IVI:
    """An abelian family of horizontal directions containing the cone."""

    orbit: NilpotentOrbit
    family: tuple[Mat, ...]

    def __post_init__(self):
        object.__setattr__(self, "family", tuple(self.family))
        n = self.orbit.ambient
        for m in self.family:
            if m.nrows != n or m.ncols != n:
                raise ValueError("family matrices do not act on the space")

    @property
    def dim(self) -> int:
        return self.span().dim

    def span(self) -> Subspace:
        return operator_span(self.family, self.orbit.ambient)


def limit_context(orbit: NilpotentOrbit) -> NilpotentOrbit:
    """The orbit, with every part of its limit structure built.

    The verifiers and :func:`~hodgelim.search.greedy_max_abelian` read a
    limit structure only from their own orbit; none takes one from its
    caller.  Raises VerificationError when (W, F) is not a mixed Hodge
    structure, or when its splitting is not compatible with the form
    (Q(I^{a,*}, I^{b,*}) != 0 for some a + b != weight), which a
    polarized limit never is.
    """
    orbit.horizontal  # builds w and the bigrading on the way
    return orbit


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

def _interior_samples(r: int):
    """Deterministic positive sample points in the open cone."""
    samples = [(1,) * r]
    if r <= 5:
        samples.extend(p for p in itertools.product((1, 2), repeat=r)
                       if p != (1,) * r)
    else:
        # coordinate i carries bit i mod 5 of j, so the points are distinct
        samples.extend(tuple(1 + ((j >> (i % 5)) & 1) for i in range(r))
                       for j in range(1, 32))
    return samples


def verify_orbit(orbit: NilpotentOrbit) -> Report:
    """Check the defining conditions of a nilpotent orbit at infinity.

    Needs at least one generator; a pure structure (empty cone) has no
    orbit to verify — use verify_ivi, which handles that case.

    N^(k+1) = 0 is read off each matrix's
    :meth:`~hodgelim.matrices.Mat.ladder`, which stops at the dimension
    whatever k is.  The first interior sample is the orbit's barycenter,
    so its ladder is the one W, the limit check and
    :func:`~hodgelim.mixed.verify_pmhs` read.  Every other interior
    sample N' is compared with W by the properties that determine W(N')
    uniquely (:func:`~hodgelim.filtrations.weight_filtration_defect`), so
    no second W is built.  The limit is checked as
    :func:`~hodgelim.mixed.verify_pmhs` checks it, save that its checks
    on N alone are not made again for the barycenter: each follows from a
    check passed before it, and they are reported as passed.
    """
    if orbit.cone.r == 0:
        raise ValueError("orbit verification needs a nonempty cone")
    rep = Report(f"nilpotent orbit (weight {orbit.weight}, "
                 f"{orbit.cone.r} generators)")
    k = orbit.weight
    gens = orbit.cone.generators
    rep.add("generators are real", all(g.is_real() for g in gens))
    rep.add("generators commute pairwise", pairwise_commuting(gens))
    rep.add(f"generators satisfy N^{k + 1} = 0",
            all(g.pow_is_zero(k + 1) for g in gens))
    rep.add("generators preserve the form infinitesimally",
            all(in_isometry_algebra(g, orbit.form) for g in gens))
    f = orbit.filtration
    rep.add("generators lower the filtration by one", f.lowered_by(gens, 1))
    if not rep.ok:
        return rep

    # the first sample is (1, ..., 1), the barycenter
    elements = [orbit.barycenter] + [
        orbit.cone.element(s) for s in _interior_samples(orbit.cone.r)[1:]]
    nilpotent = all(ns.pow_is_zero(k + 1) for ns in elements)
    rep.add(f"interior elements satisfy N^{k + 1} = 0", nilpotent,
            samples=len(elements))
    if not nilpotent:
        return rep
    w = orbit.w
    centered = w.shift(k)
    constant = all(weight_filtration_defect(centered, ns) is None
                   for ns in elements[1:])
    rep.add("weight filtration constant on the sampled interior", constant)
    if not constant:
        return rep

    rep.data["limit_weight_dims"] = {
        str(l): w.at(l).dim for l in w.support()}
    try:
        bigrading = orbit.bigrading
    except VerificationError as e:
        bigrading = e  # the mhs checks report it, and build no second one
    # verify_pmhs's checks on N alone hold for the barycenter: reality,
    # the isometry condition and lowering F are linear and every generator
    # has passed them, N^(k+1) = 0 is the first interior sample, and W is
    # weight_filtration of the barycenter, which checked its defect
    limit = Report(f"polarized limit structure (weight {k})")
    for name in _n_check_names(k):
        limit.add(name, True)
    rep.extend(_pmhs_rest(limit, k, orbit.form, w, f, elements[0],
                          bigrading), prefix="limit: ")
    return rep


def verify_ivi(ivi: IVI) -> Report:
    """Check an abelian family at infinity, cone included.

    The orbit's limit structure, built by :func:`verify_orbit`, also gives
    the horizontal part.
    """
    orbit = ivi.orbit
    rep = Report(f"family at infinity (dim {len(ivi.family)})")
    if orbit.cone.r > 0:
        rep.extend(verify_orbit(orbit), prefix="orbit: ")
    else:
        rep.extend(verify_phs(orbit.filtration, orbit.weight, orbit.form),
                   prefix="pure: ")
    if not rep.ok:
        return rep

    n = orbit.ambient
    span = ivi.span()
    rep.add("family is linearly independent",
            span.dim == len(ivi.family), dim=span.dim)
    rep.add("family commutes pairwise", pairwise_commuting(ivi.family))
    if orbit.cone.r:
        rep.add("cone lies inside the family",
                orbit.cone.span(n) <= span)
    horizontal = orbit.horizontal
    rep.add("family is horizontal of degree -1", span <= horizontal,
            horizontal_dim=horizontal.dim)
    rep.data["dim"] = span.dim
    return rep


def verify_maximality(ivi: IVI) -> Report:
    """Certify that the family is maximal abelian in the horizontal part.

    The family is maximal abelian iff it equals its own centralizer there:
    any element of the centralizer outside the family would extend it.
    The horizontal part is the orbit's limit one, so an orbit whose limit
    is not a mixed Hodge structure, or whose splitting is not compatible
    with the form, raises VerificationError.
    """
    horizontal = ivi.orbit.horizontal
    span = ivi.span()
    rep = Report("maximality in the horizontal part")
    if not span <= horizontal:
        rep.add("family is horizontal", False)
        return rep
    z = centralizer_in(horizontal, list(ivi.family), ivi.orbit.ambient)
    rep.add("family equals its centralizer", z == span,
            dim=span.dim, centralizer_dim=z.dim)
    rep.data["dim"] = span.dim
    rep.data["centralizer_dim"] = z.dim
    return rep


# ---------------------------------------------------------------------------
# period maps
# ---------------------------------------------------------------------------

class PolyMap:
    """A linear matrix-valued map Σ_v v·A_v in named variables.

    This is the exponent Σ z_j N_j + Σ t_k A_k of the nilpotent orbit
    exp(Σ z_j N_j + Σ t_k A_k)·F of an integrated family.
    ``coefficients`` holds A_v, one matrix per variable in variable order.
    """

    __slots__ = ("variables", "coefficients", "shape")

    def __init__(self, variables: Sequence[str],
                 coefficients: Sequence[Mat]):
        self.variables = tuple(variables)
        self.coefficients = tuple(coefficients)
        if len(set(self.variables)) != len(self.variables):
            raise ValueError("duplicate variable names")
        if len(self.coefficients) != len(self.variables):
            raise ValueError(f"{len(self.coefficients)} coefficients for "
                             f"{len(self.variables)} variables")
        if not self.coefficients:
            raise ValueError("a period map needs at least one term")
        self.shape = self.coefficients[0].shape
        if any(a.shape != self.shape for a in self.coefficients):
            raise ValueError("coefficient matrices of mixed shapes")

    def coefficient(self, var: str) -> Mat:
        """The constant partial derivative in ``var``."""
        if var not in self.variables:
            raise ValueError(f"unknown variable {var!r}")
        return self.coefficients[self.variables.index(var)]

    def __eq__(self, other):
        return (isinstance(other, PolyMap)
                and self.variables == other.variables
                and self.coefficients == other.coefficients)


def integrate_ivi(ivi: IVI) -> PolyMap:
    """The degree-one period map of the family.

    Cone generators get variables z1..zr; a canonical basis of a complement
    of the cone span inside the family gets t1..tm.  The result has
    commuting partial derivatives because the family is abelian.
    """
    orbit = ivi.orbit
    n = orbit.ambient
    span = ivi.span()
    cone_span = orbit.cone.span(n)
    if not cone_span <= span:
        raise ValueError("cone does not lie inside the family")
    rest = cone_span.complement_in(span)
    mats = list(orbit.cone.generators) + span_basis_mats(rest, n)
    if not mats:
        raise ValueError("cannot integrate an empty family")
    names = tuple(f"z{j + 1}" for j in range(orbit.cone.r)) + tuple(
        f"t{j + 1}" for j in range(rest.dim))
    return PolyMap(names, mats)


def check_integrability(pm: PolyMap) -> Report:
    """Do the partial derivatives, the coefficients, commute pairwise?

    Their commutators are constant: a failure's monomial is always 0.
    """
    rep = Report("integrability")
    names = pm.variables
    pair = noncommuting_pair(pm.coefficients)
    if pair is None:
        rep.add("partial derivatives commute", True,
                pairs=len(names) * (len(names) - 1) // 2)
    else:
        i, j = pair
        rep.add("partial derivatives commute", False,
                pair=f"({names[i]}, {names[j]})",
                monomial=str((0,) * len(names)))
    return rep


def a_infinity(pm: PolyMap) -> Subspace:
    """Span of the coefficients — recovers the family."""
    rows, cols = pm.shape
    if rows != cols:
        raise ValueError("period map is not square-matrix valued")
    return operator_span(pm.coefficients, rows)
