"""Exact scalar arithmetic in Q(sqrt5)."""

import math
from fractions import Fraction

import pytest

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
