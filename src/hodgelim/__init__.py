"""hodgelim: exact asymptotic Hodge theory toolkit.

Verification and construction of polarized (mixed) Hodge structures,
weight filtrations of nilpotent endomorphisms, commuting nilpotent cones
with their abelian enlargements, and a randomized search for maximal
abelian subalgebras — all in exact Gaussian-rational arithmetic.
"""
from .scalars import GaussianRational, GR, I, ONE, ZERO
from .matrices import Mat
from .subspaces import Subspace, Quotient, kernel
from .errors import FormatError, HodgelimError, VerificationError

__version__ = "0.1.0"
