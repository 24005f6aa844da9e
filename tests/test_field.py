"""Exact scalar arithmetic in Q(sqrt5)."""

import copy
import math
import pickle
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chevalley.errors import UsageError
from chevalley.field import (
    ONE,
    PHI,
    PSI,
    SQRT5,
    ZERO,
    Scalar,
    solve_linear,
    vec_dot,
)


def random_scalar(rng):
    return Scalar(
        Fraction(int(rng.integers(-30, 31)), int(rng.integers(1, 12))),
        Fraction(int(rng.integers(-30, 31)), int(rng.integers(1, 12))),
    )


def test_lowest_terms_and_equality():
    assert Scalar(Fraction(2, 4)) == Scalar(Fraction(1, 2))
    assert Scalar(2, 3) == Scalar(2, 3)
    assert Scalar(2, 3) != Scalar(2, 4)
    assert hash(Scalar(Fraction(2, 4))) == hash(Scalar(Fraction(1, 2)))


def test_field_axioms_random_round_trips(rng):
    for _ in range(200):
        a, b, c = (random_scalar(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + ZERO == a and a * ONE == a
        assert a - a == ZERO
        if not a.is_zero():
            assert a * a.inverse() == ONE
            assert (b / a) * a == b


def test_sqrt5_squares_to_five():
    assert SQRT5 * SQRT5 == Scalar(5)


def test_golden_ratio_identities():
    # phi^2 = phi + 1 and phi * (phi - 1) = 1
    assert PHI * PHI == PHI + ONE
    assert PHI * PSI == ONE
    assert abs(float(PHI) - (1 + math.sqrt(5)) / 2) < 1e-15


def test_sign_all_quadrants():
    assert Scalar(2, -1).sign() == -1       # 2 - sqrt5 < 0
    assert Scalar(3, -1).sign() == 1        # 3 - sqrt5 > 0
    assert Scalar(-2, 1).sign() == 1        # sqrt5 - 2 > 0
    assert Scalar(-3, 1).sign() == -1       # sqrt5 - 3 < 0
    assert Scalar(0).sign() == 0
    assert (Scalar(2, -1) < Scalar(0)) and (Scalar(-2, 1) > Scalar(0))


def test_sign_matches_float(rng):
    for _ in range(300):
        s = random_scalar(rng)
        f = float(s)
        if abs(f) > 1e-9:
            assert s.sign() == (1 if f > 0 else -1)


def test_serialization_strings():
    s = Scalar(Fraction(-3, 7), Fraction(5, 2))
    a, b = s.to_strings()
    assert (a, b) == ("-3/7", "5/2")
    assert Scalar.from_strings(a, b) == s


def test_coercion_errors():
    with pytest.raises(UsageError):
        Scalar(1) + 1.5  # floats are never silently coerced


def test_exact_linear_solve_and_rank():
    a = [[Scalar(2), Scalar(1)], [Scalar(1), Scalar(1)]]
    x = solve_linear(a, [[Scalar(3)], [Scalar(2)]])
    assert x == [[Scalar(1)], [Scalar(1)]]
    # several right-hand sides in one elimination: the solution and a^-1
    x = solve_linear(a, [[Scalar(3), ONE, ZERO], [Scalar(2), ZERO, ONE]])
    assert x == [[Scalar(1), ONE, Scalar(-1)], [Scalar(1), Scalar(-1), Scalar(2)]]
    # a rank-1 matrix is singular whether or not b lies in its column span
    singular = [[Scalar(1), Scalar(2)], [Scalar(2), Scalar(4)]]
    assert solve_linear(singular, [[Scalar(1)], [Scalar(1)]]) is None
    assert solve_linear(singular, [[Scalar(1)], [Scalar(2)]]) is None
    # span membership from coordinates: in the basis (1, 2), (0, 1) a vector
    # lies on the line through (1, 2) exactly when its second coordinate is 0
    basis = [[ONE, ZERO], [Scalar(2), ONE]]  # basis vectors as columns
    coeff = solve_linear(basis, [[Scalar(2), ONE], [Scalar(4), ZERO]])
    assert coeff[1][0].is_zero() and not coeff[1][1].is_zero()
    assert vec_dot([PHI, ONE], [ONE, PSI]) == PHI + PSI


def test_constructor_rejects_floats():
    """Floats are never silently coerced, in a part or in an operand."""
    for parts in [(0.1,), (1, 0.5), (Fraction(1, 2), 1.0), (np.float64(2.0),), (np.float32(2.0),)]:
        with pytest.raises(UsageError):
            Scalar(*parts)
    # ints, Fractions and "n/m" strings are the exact parts
    assert Scalar("-3/6", "2") == Scalar(Fraction(-1, 2), 2)
    assert Scalar(True) == ONE


def test_hash_agrees_with_equality_across_numeric_types():
    """A rational Scalar is equal to the int or Fraction of its value, so it
    must hash like it: set and dict lookups work in both directions."""
    pairs = [(Scalar(2), 2), (Scalar(-3), -3), (ZERO, 0), (ONE, True),
             (Scalar(Fraction(1, 2)), Fraction(1, 2)), (Scalar(Fraction(-14, 6)), Fraction(-7, 3)),
             (Scalar(5), Fraction(5)), (Scalar(2 ** 70), 2 ** 70)]
    for s, x in pairs:
        assert s == x and hash(s) == hash(x)
        assert s in {x} and x in {s}
        assert {x: "v"}[s] == "v" and {s: "v"}[x] == "v"
    assert SQRT5 not in {0, 5, Fraction(1, 5)} and PHI not in {Fraction(1, 2)}
    assert len({Scalar(2), 2, Fraction(2), Scalar(Fraction(4, 2))}) == 1


def test_exact_values_pickle_and_deepcopy():
    for s in [ZERO, ONE, PHI, PSI, Scalar(Fraction(-3, 7), Fraction(5, 2)), Scalar(2 ** 80, -1)]:
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            t = pickle.loads(pickle.dumps(s, protocol))
            assert type(t) is Scalar and t == s and t.triple == s.triple
        assert copy.deepcopy(s) == s and copy.copy(s) == s
        with pytest.raises(AttributeError):
            pickle.loads(pickle.dumps(s)).triple = (1, 0, 1)


class Ref:
    """Reference a + b*sqrt5 held as two Fractions, each op spelled out on
    the parts."""

    def __init__(self, a, b=0):
        self.a, self.b = Fraction(a), Fraction(b)

    def __add__(self, o):
        return Ref(self.a + o.a, self.b + o.b)

    def __sub__(self, o):
        return Ref(self.a - o.a, self.b - o.b)

    def __mul__(self, o):
        return Ref(self.a * o.a + 5 * self.b * o.b, self.a * o.b + self.b * o.a)

    def inverse(self):
        norm = self.a * self.a - 5 * self.b * self.b
        return Ref(self.a / norm, -self.b / norm)

    def sign(self):
        a, b = self.a, self.b
        if b == 0 or a == 0 or (a > 0) == (b > 0):
            return (a > 0) - (a < 0) if a else (b > 0) - (b < 0)
        bigger_a = a * a > 5 * b * b
        return (1 if a > 0 else -1) if bigger_a else (1 if b > 0 else -1)

    def __float__(self):
        return float(self.a) + float(self.b) * math.sqrt(5.0)

    def strings(self):
        return tuple(f"{f.numerator}/{f.denominator}" for f in (self.a, self.b))


def _matches(s, r):
    """s equals the reference r, on a normalized triple."""
    p, q, d = s.triple
    assert d > 0 and math.gcd(p, q, d) == 1
    assert (s.a, s.b) == (r.a, r.b)
    return True


parts = st.fractions(min_value=-10 ** 6, max_value=10 ** 6, max_denominator=10 ** 4)
# (p, q) near p^2 = 5 q^2, where the sign is hardest to read
pell = st.sampled_from([(2, 1), (9, 4), (38, 17), (161, 72), (682, 305), (2889, 1292)])
ref_pairs = st.one_of(
    st.tuples(parts, parts),
    st.tuples(parts, st.just(Fraction(0))),
    st.tuples(st.just(Fraction(0)), parts),
    st.builds(lambda pq, s, t, k: (Fraction(s * pq[0], k), Fraction(t * pq[1], k)),
              pell, st.sampled_from([1, -1]), st.sampled_from([1, -1]), st.integers(1, 99)),
)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(ref_pairs, ref_pairs, st.integers(-3, 6))
def test_triple_matches_two_fraction_reference(xy, uv, k):
    (a, b), (c, d) = xy, uv
    x, y, rx, ry = Scalar(a, b), Scalar(c, d), Ref(a, b), Ref(c, d)
    assert _matches(x, rx) and _matches(y, ry)
    assert _matches(x + y, rx + ry) and _matches(x - y, rx - ry) and _matches(-x, Ref(0) - rx)
    assert _matches(x * y, rx * ry)
    assert (x == y) == ((rx.a, rx.b) == (ry.a, ry.b))
    if not y.is_zero():
        assert _matches(y.inverse(), ry.inverse()) and _matches(x / y, rx * ry.inverse())
    if k >= 0 or not x.is_zero():
        rp = Ref(1)
        for _ in range(abs(k)):
            rp = rp * rx
        assert _matches(x ** k, rp if k >= 0 else rp.inverse())
    # sign and order
    assert x.sign() == rx.sign()
    diff = (rx - ry).sign()
    assert ((x < y), (x <= y), (x > y), (x >= y)) == (diff < 0, diff <= 0, diff > 0, diff >= 0)
    assert _matches(abs(x), rx if rx.sign() >= 0 else Ref(0) - rx)
    # float bit for bit, strings, and the hash of a rational value
    assert float(x).hex() == float(rx).hex()
    assert x.to_strings() == rx.strings()
    assert Scalar.from_strings(*x.to_strings()) == x
    if b == 0:
        assert hash(x) == hash(a) and x == a
