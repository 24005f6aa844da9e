"""Exact arithmetic in the real quadratic field Q(sqrt5).

Every exact coefficient in the toolkit is a `Scalar`, a value (p + q*sqrt5)/d
held as one integer triple with gcd(p, q, d) = 1 and d > 0, so equal values
have equal triples.  This is the smallest field containing the icosahedral
(H3/H4) root data; all other supported reflection groups only need q = 0.
Values are immutable, hashable and picklable, so they can be shared freely
between workers.
"""

from __future__ import annotations

from fractions import Fraction
from functools import total_ordering
from math import gcd, sqrt
from typing import Sequence

from .errors import UsageError

_SQRT5_FLOAT = sqrt(5.0)


@total_ordering
class Scalar:
    """Element (p + q*sqrt5)/d of Q(sqrt5), held as its normalized `triple`;
    Scalar(a, b) is a + b*sqrt5 for exact rational parts a and b."""

    __slots__ = ("triple",)

    def __new__(cls, a=0, b=0):
        (na, da), (nb, db) = _ratio(a), _ratio(b)
        return _make(na * db, nb * da, da * db)

    def __setattr__(self, name, value):
        raise AttributeError("Scalar is immutable")

    def __reduce__(self):
        return (_make, self.triple)

    @staticmethod
    def from_triple(p: int, q: int, d: int) -> "Scalar":
        """The value (p + q*sqrt5)/d of ints p, q and d, normalized."""
        if not d:
            raise ZeroDivisionError("zero denominator in Q(sqrt5)")
        g = gcd(p, q, d) if d > 0 else -gcd(p, q, d)
        s = object.__new__(Scalar)
        _set_triple(s, (p // g, q // g, d // g))
        return s

    a = property(lambda self: Fraction(self.triple[0], self.triple[2]), doc="Rational part.")
    b = property(lambda self: Fraction(self.triple[1], self.triple[2]), doc="sqrt5 coefficient.")

    # -- ring / field operations ------------------------------------------

    def __add__(self, other, sign: int = 1):
        p, q, d = self.triple
        r, s, e = _coerce(other).triple
        return _make(p * e + sign * r * d, q * e + sign * s * d, d * e)

    __radd__ = __add__

    def __neg__(self):
        p, q, d = self.triple
        return _make(-p, -q, d)

    def __sub__(self, other):
        return self.__add__(other, -1)

    def __rsub__(self, other):
        return _coerce(other) - self

    def __mul__(self, other):
        p, q, d = self.triple
        r, s, e = _coerce(other).triple
        return _make(p * r + 5 * q * s, p * s + q * r, d * e)

    __rmul__ = __mul__

    def inverse(self) -> "Scalar":
        # d/(p+q*sqrt5) = d(p-q*sqrt5)/(p^2-5q^2); the norm vanishes only at
        # 0 because sqrt5 is irrational.
        p, q, d = self.triple
        norm = p * p - 5 * q * q
        if norm == 0:
            raise ZeroDivisionError("inverse of zero in Q(sqrt5)")
        return _make(d * p, -d * q, norm)

    def __truediv__(self, other):
        return self * _coerce(other).inverse()

    def __rtruediv__(self, other):
        return _coerce(other) * self.inverse()

    def __pow__(self, k: int):
        if not isinstance(k, int):
            raise UsageError("Scalar exponent must be an integer")
        if k < 0:
            return self.inverse() ** (-k)
        out, base = ONE, self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- predicates and order ---------------------------------------------

    def is_zero(self) -> bool:
        return self.triple == (0, 0, 1)  # the normalized zero

    def sign(self) -> int:
        """Exact sign of the real value (p + q*sqrt5)/d, d > 0."""
        p, q, _ = self.triple
        sp, sq = (p > 0) - (p < 0), (q > 0) - (q < 0)
        if sp * sq >= 0:
            return sp or sq
        # opposite signs: the larger of p^2 and 5q^2 decides
        return sp if p * p > 5 * q * q else sq

    def __eq__(self, other):
        if isinstance(other, (Scalar, int, Fraction)):
            return self.triple == _coerce(other).triple
        return NotImplemented

    def __hash__(self):
        p, q, d = self.triple  # a rational value hashes as the equal int or Fraction
        return hash(self.triple) if q else hash(p if d == 1 else Fraction(p, d))

    def __lt__(self, other):
        return (self - other).sign() < 0

    def __abs__(self):
        return -self if self.sign() < 0 else self

    def __bool__(self):
        return not self.is_zero()

    # -- conversion ---------------------------------------------------------

    def __float__(self):
        # int true division rounds correctly, as float(Fraction) does
        p, q, d = self.triple
        return p / d + (q / d) * _SQRT5_FLOAT

    def __repr__(self):
        return f"Scalar({self.a}, {self.b})" if self.triple[1] else f"Scalar({self.a})"

    def to_strings(self) -> tuple[str, str]:
        """Serialized form: ("n/m", "n/m") for the a and b parts in lowest terms."""
        p, q, d = self.triple
        g, h = gcd(p, d), gcd(q, d)
        return (f"{p // g}/{d // g}", f"{q // h}/{d // h}")

    @staticmethod
    def from_strings(a: str, b: str) -> "Scalar":
        return Scalar(a, b)


_set_triple = Scalar.triple.__set__  # bypasses the raising __setattr__
_make = Scalar.from_triple


def _ratio(x) -> tuple[int, int]:
    """Numerator and denominator of an int, a Fraction or a string "n/m"."""
    if isinstance(x, str):
        n, _, m = x.partition("/")
        return int(n), int(m or 1)
    if not isinstance(x, (int, Fraction)):
        raise UsageError(f"a Scalar part must be exact, not {type(x).__name__}")
    return int(x.numerator), int(x.denominator)


def _coerce(x) -> Scalar:
    if type(x) is Scalar:
        return x
    if isinstance(x, (int, Fraction)):
        return Scalar(x)
    raise UsageError(f"cannot coerce {type(x).__name__} into Q(sqrt5)")


ZERO = Scalar(0)
ONE = Scalar(1)
SQRT5 = Scalar(0, 1)
# golden ratio (1+sqrt5)/2 and its inverse companion (sqrt5-1)/2
PHI = Scalar(Fraction(1, 2), Fraction(1, 2))
PSI = Scalar(Fraction(-1, 2), Fraction(1, 2))
HALF = Scalar(Fraction(1, 2))


# -- small exact linear algebra (plumbing shared by root-system code) -------


def vec_dot(u: Sequence[Scalar], v: Sequence[Scalar]) -> Scalar:
    if len(u) != len(v):
        raise UsageError("dot product of different lengths")
    return sum((a * b for a, b in zip(u, v) if a and b), ZERO)


def mat_vec(m: Sequence[Sequence[Scalar]], v: Sequence[Scalar]) -> tuple[Scalar, ...]:
    return tuple(vec_dot(row, v) for row in m)


def solve_linear(a, b) -> list[list[Scalar]] | None:
    """Solve the square exact system a X = b for every column of b at once.

    One Gauss-Jordan elimination on [a | b] that skips zero entries; b and
    the returned X are lists of rows.  None if a is singular.
    """
    n = len(a)
    m = [list(row) + list(bi) for row, bi in zip(a, b)]
    for col in range(n):
        piv = next((r for r in range(col, n) if not m[r][col].is_zero()), None)
        if piv is None:
            return None
        m[col], m[piv] = m[piv], m[col]
        inv = m[col][col].inverse()
        m[col] = [x * inv if x else x for x in m[col]]
        for r in range(n):
            if r != col and not m[r][col].is_zero():
                f = m[r][col]
                m[r] = [x - f * y if y else x for x, y in zip(m[r], m[col])]
    return [row[n:] for row in m]
