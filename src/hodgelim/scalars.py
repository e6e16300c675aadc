"""Exact Gaussian-rational scalars.

The whole library computes over Q(i).  A scalar is stored as a normalized
integer triple ``(a, b, d)`` representing ``(a + b*i) / d`` with ``d > 0``
and ``gcd(a, b, d) == 1``.  Keeping the three integers together (instead of
a pair of ``Fraction``s) roughly halves the work in the row-reduction inner
loops, which dominate everything else here.

Plain tuples of the same shape ("triples") are used as the raw data format
of the computational kernels; :class:`GaussianRational` is the user-facing
wrapper.
"""
from __future__ import annotations

import re as _re
from fractions import Fraction
from math import gcd

Triple = tuple[int, int, int]

T_ZERO: Triple = (0, 0, 1)
T_ONE: Triple = (1, 0, 1)
T_I: Triple = (0, 1, 1)


def t_norm(a: int, b: int, d: int) -> Triple:
    """Normalize a raw (a, b, d) integer triple."""
    if d == 1:
        return (a, b, 1)
    if d == 0:
        raise ZeroDivisionError("scalar with zero denominator")
    if d < 0:
        a, b, d = -a, -b, -d
    g = gcd(a, b, d)
    if g > 1:
        a //= g
        b //= g
        d //= g
    return (a, b, d)


def t_add(x: Triple, y: Triple) -> Triple:
    a1, b1, d1 = x
    a2, b2, d2 = y
    return t_norm(a1 * d2 + a2 * d1, b1 * d2 + b2 * d1, d1 * d2)


def t_sub(x: Triple, y: Triple) -> Triple:
    a1, b1, d1 = x
    a2, b2, d2 = y
    return t_norm(a1 * d2 - a2 * d1, b1 * d2 - b2 * d1, d1 * d2)


def t_mul(x: Triple, y: Triple) -> Triple:
    a1, b1, d1 = x
    a2, b2, d2 = y
    return t_norm(a1 * a2 - b1 * b2, a1 * b2 + a2 * b1, d1 * d2)


def t_neg(x: Triple) -> Triple:
    return (-x[0], -x[1], x[2])


def t_conj(x: Triple) -> Triple:
    return (x[0], -x[1], x[2])


def t_inv(x: Triple) -> Triple:
    a, b, d = x
    n = a * a + b * b
    if n == 0:
        raise ZeroDivisionError("inverse of zero scalar")
    return t_norm(d * a, -d * b, n)


def t_div(x: Triple, y: Triple) -> Triple:
    return t_mul(x, t_inv(y))


def t_is_zero(x: Triple) -> bool:
    return x[0] == 0 and x[1] == 0


_RAT_RE = _re.compile(r"^([+-]?\d+)(?:/([1-9]\d*))?$")


class GaussianRational:
    """An element of Q(i), stored exactly.

    Supports mixed arithmetic with ``int`` and ``Fraction``.  ``re`` and
    ``im`` return ``Fraction``s.  Instances are immutable and hashable.
    """

    __slots__ = ("_t",)

    def __init__(self, re=0, im=0):
        if isinstance(re, GaussianRational) and im == 0:
            self._t = re._t
            return
        re = Fraction(re)
        im = Fraction(im)
        d = re.denominator * im.denominator
        self._t = t_norm(re.numerator * im.denominator,
                         im.numerator * re.denominator, d)

    @classmethod
    def from_triple(cls, t: Triple) -> "GaussianRational":
        """Wrap an already-normalized kernel triple (no checks)."""
        self = object.__new__(cls)
        self._t = t
        return self

    @classmethod
    def parse(cls, text: str) -> "GaussianRational":
        """Parse the scalar grammar used in data files: "a" or "a/b"."""
        m = _RAT_RE.match(text.strip())
        if not m:
            raise ValueError(f"bad rational literal: {text!r}")
        num = int(m.group(1))
        den = int(m.group(2)) if m.group(2) else 1
        return cls.from_triple(t_norm(num, 0, den))

    # -- accessors -----------------------------------------------------

    @property
    def triple(self) -> Triple:
        return self._t

    @property
    def re(self) -> Fraction:
        a, _, d = self._t
        return Fraction(a, d)

    @property
    def im(self) -> Fraction:
        _, b, d = self._t
        return Fraction(b, d)

    def is_zero(self) -> bool:
        return self._t[0] == 0 and self._t[1] == 0

    def is_real(self) -> bool:
        return self._t[1] == 0

    def conj(self) -> "GaussianRational":
        a, b, d = self._t
        return GaussianRational.from_triple((a, -b, d))

    def inverse(self) -> "GaussianRational":
        return GaussianRational.from_triple(t_inv(self._t))

    # -- arithmetic ----------------------------------------------------

    @staticmethod
    def _coerce(other):
        if isinstance(other, GaussianRational):
            return other._t
        if isinstance(other, int):
            return (other, 0, 1)
        if isinstance(other, Fraction):
            return (other.numerator, 0, other.denominator)
        return None

    def __add__(self, other):
        t = self._coerce(other)
        if t is None:
            return NotImplemented
        return GaussianRational.from_triple(t_add(self._t, t))

    __radd__ = __add__

    def __sub__(self, other):
        t = self._coerce(other)
        if t is None:
            return NotImplemented
        return GaussianRational.from_triple(t_sub(self._t, t))

    def __rsub__(self, other):
        t = self._coerce(other)
        if t is None:
            return NotImplemented
        return GaussianRational.from_triple(t_sub(t, self._t))

    def __mul__(self, other):
        t = self._coerce(other)
        if t is None:
            return NotImplemented
        return GaussianRational.from_triple(t_mul(self._t, t))

    __rmul__ = __mul__

    def __truediv__(self, other):
        t = self._coerce(other)
        if t is None:
            return NotImplemented
        return GaussianRational.from_triple(t_div(self._t, t))

    def __rtruediv__(self, other):
        t = self._coerce(other)
        if t is None:
            return NotImplemented
        return GaussianRational.from_triple(t_div(t, self._t))

    def __neg__(self):
        return GaussianRational.from_triple(t_neg(self._t))

    def __pos__(self):
        return self

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        out = T_ONE
        base = self._t
        while n:
            if n & 1:
                out = t_mul(out, base)
            base = t_mul(base, base)
            n >>= 1
        return GaussianRational.from_triple(out)

    # -- comparisons ---------------------------------------------------

    def __eq__(self, other):
        t = self._coerce(other)
        if t is None:
            return NotImplemented
        return self._t == t

    def __hash__(self):
        a, b, d = self._t
        if b == 0:
            return hash(Fraction(a, d))
        return hash(self._t)

    def __bool__(self):
        return not self.is_zero()

    # -- display -------------------------------------------------------

    def __repr__(self):
        return f"GaussianRational({str(self)!r})"

    def __str__(self):
        a, b, d = self._t
        if b == 0:
            return f"{a}" if d == 1 else f"{a}/{d}"
        if a == 0:
            num = f"{b}i"
        else:
            num = f"{a}{'+' if b >= 0 else '-'}{abs(b)}i"
        return num if d == 1 else f"({num})/{d}"


GR = GaussianRational  # short alias used throughout the package

ZERO = GR.from_triple(T_ZERO)
ONE = GR.from_triple(T_ONE)
I = GR.from_triple(T_I)


def as_scalar(x) -> GaussianRational:
    """Coerce int/Fraction/GaussianRational to a GaussianRational."""
    if isinstance(x, GaussianRational):
        return x
    if isinstance(x, (int, Fraction)):
        return GaussianRational(x)
    raise TypeError(f"cannot interpret {type(x).__name__} as a scalar")
