"""Exact arithmetic in the real quadratic field Q(sqrt5).

Every exact coefficient in the toolkit is a `Scalar`: a value a + b*sqrt(5)
with `Fraction` components.  This is the smallest field containing the
icosahedral (H3/H4) root data; all other supported reflection groups only
need b = 0.  Values are immutable and hashable, so they can be shared freely
between workers.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from .errors import UsageError

_SQRT5_FLOAT = math.sqrt(5.0)


class Scalar:
    """Element a + b*sqrt(5) of Q(sqrt5), with exact rational a and b."""

    __slots__ = ("a", "b")

    def __init__(self, a=0, b=0):
        # Fraction normalizes to lowest terms with positive denominator.
        object.__setattr__(self, "a", a if type(a) is Fraction else Fraction(a))
        object.__setattr__(self, "b", b if type(b) is Fraction else Fraction(b))

    def __setattr__(self, name, value):
        raise AttributeError("Scalar is immutable")

    # -- ring / field operations ------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        return Scalar(self.a + other.a, self.b + other.b)

    __radd__ = __add__

    def __neg__(self):
        return Scalar(-self.a, -self.b)

    def __sub__(self, other):
        other = _coerce(other)
        return Scalar(self.a - other.a, self.b - other.b)

    def __rsub__(self, other):
        return _coerce(other) - self

    def __mul__(self, other):
        other = _coerce(other)
        return Scalar(
            self.a * other.a + 5 * self.b * other.b,
            self.a * other.b + self.b * other.a,
        )

    __rmul__ = __mul__

    def inverse(self) -> "Scalar":
        # 1/(a+b*sqrt5) = (a-b*sqrt5)/(a^2-5b^2); the norm vanishes only at 0
        # because sqrt5 is irrational.
        norm = self.a * self.a - 5 * self.b * self.b
        if norm == 0:
            raise ZeroDivisionError("inverse of zero in Q(sqrt5)")
        return Scalar(self.a / norm, -self.b / norm)

    def __truediv__(self, other):
        return self * _coerce(other).inverse()

    def __rtruediv__(self, other):
        return _coerce(other) * self.inverse()

    def __pow__(self, k: int):
        if not isinstance(k, int):
            raise UsageError("Scalar exponent must be an integer")
        if k < 0:
            return self.inverse() ** (-k)
        out = ONE
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- predicates and order ---------------------------------------------

    def is_zero(self) -> bool:
        return not self.a and not self.b

    def sign(self) -> int:
        """Exact sign of the real value a + b*sqrt5."""
        a, b = self.a, self.b
        if b == 0:
            return (a > 0) - (a < 0)
        if a == 0:
            return 1 if b > 0 else -1
        if a > 0 and b > 0:
            return 1
        if a < 0 and b < 0:
            return -1
        # opposite signs: compare a^2 with 5 b^2
        if a > 0:  # b < 0
            return 1 if a * a > 5 * b * b else -1
        return 1 if a * a < 5 * b * b else -1

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, Scalar)):
            other = _coerce(other)
            return self.a == other.a and self.b == other.b
        return NotImplemented

    def __hash__(self):
        return hash((self.a, self.b))

    def __lt__(self, other):
        return (self - _coerce(other)).sign() < 0

    def __le__(self, other):
        return (self - _coerce(other)).sign() <= 0

    def __gt__(self, other):
        return (self - _coerce(other)).sign() > 0

    def __ge__(self, other):
        return (self - _coerce(other)).sign() >= 0

    def __abs__(self):
        return -self if self.sign() < 0 else self

    def __bool__(self):
        return not self.is_zero()

    # -- conversion ---------------------------------------------------------

    def __float__(self):
        return float(self.a) + float(self.b) * _SQRT5_FLOAT

    def __repr__(self):
        if not self.b:
            return f"Scalar({self.a})"
        return f"Scalar({self.a}, {self.b})"

    def to_strings(self) -> tuple[str, str]:
        """Serialized form: ("p/q", "p/q") for the a and b parts."""
        return (_frac_str(self.a), _frac_str(self.b))

    @staticmethod
    def from_strings(a: str, b: str) -> "Scalar":
        return Scalar(Fraction(a), Fraction(b))


def _coerce(x) -> Scalar:
    if isinstance(x, Scalar):
        return x
    if isinstance(x, (int, Fraction)):
        return Scalar(x)
    raise UsageError(f"cannot coerce {type(x).__name__} into Q(sqrt5)")


def _frac_str(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


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
    out = ZERO
    for a, b in zip(u, v):
        if a and b:
            out = out + a * b
    return out


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
