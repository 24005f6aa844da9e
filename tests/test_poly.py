"""Sparse polynomial arithmetic, differentiation, substitution, determinants."""

import copy
import json
import pickle
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chevalley.errors import UsageError
from chevalley.field import ONE, PHI, Scalar
from chevalley.poly import (
    MAX_DEGREE,
    CompiledPoly,
    PolyMatrix,
    SparsePoly,
    power_table,
    product,
)

X = SparsePoly.variable


def brute_force_mul(p, q):
    """Independent term-convolution oracle for products."""
    out = {}
    for e1, c1 in p.terms.items():
        for e2, c2 in q.terms.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, Scalar(0)) + c1 * c2
    return SparsePoly(p.nvars, out)


def test_difference_of_squares():
    x1, x2 = X(2, 0), X(2, 1)
    assert (x1 + x2) * (x1 - x2) == x1 * x1 - x2 * x2


def test_add_zero_identity():
    p = X(2, 0) * X(2, 1) + SparsePoly.const(2, 3)
    assert p + SparsePoly.zero(2) == p
    assert SparsePoly.zero(2) + p == p


def test_product_expansion_against_convolution_oracle(rng):
    # the worked case: (x1^2+x2^2) * (x1^2 x2^2) = x1^4 x2^2 + x1^2 x2^4
    p = SparsePoly(2, {(2, 0): ONE, (0, 2): ONE})
    q = SparsePoly(2, {(2, 2): ONE})
    expected = SparsePoly(2, {(4, 2): ONE, (2, 4): ONE})
    assert p * q == expected
    assert brute_force_mul(p, q) == expected
    # random products agree with the oracle
    for _ in range(30):
        a = _random_poly(rng, 3)
        b = _random_poly(rng, 3)
        assert a * b == brute_force_mul(a, b)


def _dyadic_point(rng, nvars, lo=-2, hi=2):
    """A random point with coordinates k/64 in [lo, hi], as exact Scalars and
    as the floats that hold them exactly."""
    ks = rng.integers(lo * 64, hi * 64 + 1, size=nvars)
    return [Scalar(Fraction(int(k), 64)) for k in ks], ks / 64.0


def _abs_terms(p, x):
    """Sum of |c_i m_i(x)| over the terms of p: the scale of the rounding
    error of any float evaluation at x."""
    return sum(abs(float(c)) * float(np.prod(np.abs(x) ** np.array(e)))
               for e, c in p.terms.items())


def _random_poly(rng, nvars, nterms=5, maxdeg=3):
    terms = {}
    for _ in range(nterms):
        e = tuple(int(rng.integers(0, maxdeg + 1)) for _ in range(nvars))
        terms[e] = Scalar(int(rng.integers(-5, 6)), int(rng.integers(-2, 3)))
    return SparsePoly(nvars, terms)


def test_mismatched_nvars_is_usage_error():
    with pytest.raises(UsageError):
        X(2, 0) + X(3, 0)
    with pytest.raises(UsageError):
        X(2, 0) * X(3, 0)
    with pytest.raises(UsageError):
        product(2, [X(2, 0), X(3, 0)])


def test_diff_simple_cases():
    p = SparsePoly(2, {(2, 1): ONE})  # x1^2 x2
    assert p.gradient() == (SparsePoly(2, {(1, 1): Scalar(2)}), SparsePoly(2, {(2, 0): ONE}))
    assert SparsePoly(2, {(3, 0): ONE}).gradient()[1].is_zero()
    assert SparsePoly.zero(3).gradient() == (SparsePoly.zero(3),) * 3


def test_diff_matches_central_finite_differences(rng):
    """Exact central differences at rational points approach the exact
    derivative to O(h^2), and the compiled derivative matches it in floats."""
    # degree-6 dihedral-style polynomial in 2 vars
    p = SparsePoly(2, {(6, 0): ONE, (4, 2): Scalar(-15), (2, 4): Scalar(15), (0, 6): -ONE})
    dp = p.gradient()
    h = Scalar(Fraction(1, 10 ** 6))
    for _ in range(10):
        xq, xf = _dyadic_point(rng, 2, -1, 1)
        for i in range(2):
            step = [h if j == i else Scalar(0) for j in range(2)]
            plus = p.eval_exact([a + b for a, b in zip(xq, step)])
            minus = p.eval_exact([a - b for a, b in zip(xq, step)])
            fd = (plus - minus) / (h * 2)
            val = dp[i].eval_exact(xq)
            assert abs(float(fd - val)) <= 1e-8 * max(1.0, abs(float(val)))
            got = CompiledPoly([dp[i]])(xf)[0]
            assert abs(got - float(val)) <= 1e-14 * _abs_terms(dp[i], xf)


def test_eval_exact_and_float():
    p = SparsePoly(2, {(2, 0): ONE, (0, 2): ONE})
    assert p.eval_exact([Scalar(3), Scalar(4)]) == Scalar(25)
    assert CompiledPoly([p])([3.0, 4.0])[0] == 25.0
    # value at 0 is the constant term
    q = p + SparsePoly.const(2, Scalar(7))
    assert q.eval_exact([Scalar(0), Scalar(0)]) == Scalar(7)
    assert CompiledPoly([q])([0.0, 0.0])[0] == 7.0
    # golden ratio: phi^2 = (3+sqrt5)/2 exactly
    sq = SparsePoly(1, {(2,): ONE})
    assert sq.eval_exact([PHI]) == Scalar(Fraction(3, 2), Fraction(1, 2))
    assert PHI * PHI == Scalar(Fraction(3, 2), Fraction(1, 2))


def test_linear_substitute_identity_and_swap():
    p = _random_poly(np.random.default_rng(3), 2)
    ident = [[ONE, Scalar(0)], [Scalar(0), ONE]]
    assert p.substitute_linear(ident) == p
    swap = [[Scalar(0), ONE], [ONE, Scalar(0)]]
    sym = SparsePoly(2, {(2, 2): ONE})
    assert sym.substitute_linear(swap) == sym
    # reflection across the hyperplane of e1 - e2 swaps the coordinates
    from chevalley.coxeter import _reflection_exact

    w = _reflection_exact((ONE, -ONE))
    assert X(2, 0).substitute_linear(w) == X(2, 1)


def test_chain_rule_commutation(rng):
    """d(p o M)/dx_i == sum_j M[j][i] (dp/dx_j) o M, exactly."""
    from chevalley.coxeter import _reflection_exact

    w = _reflection_exact((ONE, -ONE, Scalar(0)))
    for _ in range(10):
        p = _random_poly(rng, 3)
        sub = p.substitute_linear(w)
        for i in range(3):
            lhs = sub.gradient()[i]
            rhs = SparsePoly.zero(3)
            for j, dp in enumerate(p.gradient()):
                if not w[j][i].is_zero():
                    rhs = rhs + dp.substitute_linear(w).scale(w[j][i])
            assert lhs == rhs


def test_det_identity_and_hand_case():
    ident = PolyMatrix([[SparsePoly.const(2, 1), SparsePoly.zero(2)],
                        [SparsePoly.zero(2), SparsePoly.const(2, 1)]])
    assert ident.det() == SparsePoly.const(2, 1)
    m = PolyMatrix([
        [SparsePoly(2, {(1, 0): Scalar(2)}), SparsePoly(2, {(0, 1): Scalar(2)})],
        [SparsePoly(2, {(1, 2): Scalar(2)}), SparsePoly(2, {(2, 1): Scalar(2)})],
    ])
    expected = SparsePoly(2, {(3, 1): Scalar(4), (1, 3): Scalar(-4)})
    assert m.det() == expected


def test_det_newton_vandermonde_oracle():
    """Jacobian of the 3-variable power sums equals 6 * Vandermonde."""
    rows = []
    for k in range(1, 4):
        rows.append([
            SparsePoly(3, {tuple(k - 1 if j == i else 0 for j in range(3)): Scalar(k)})
            for i in range(3)
        ])
    det = PolyMatrix(rows).det()
    x1, x2, x3 = (X(3, i) for i in range(3))
    vandermonde = (x2 - x1) * (x3 - x1) * (x3 - x2)
    assert det == vandermonde.scale(Scalar(6))


def test_det_numeric_agreement(rng):
    """The symbolic determinant agrees with the determinant of the entry
    values: exactly at rational points, and in floats with every entry on
    one compiled table."""
    polys = [[_random_poly(rng, 3, nterms=3, maxdeg=2) for _ in range(3)] for _ in range(3)]
    m = PolyMatrix(polys)
    d = m.det()
    entries = CompiledPoly([p for row in polys for p in row])
    for _ in range(50):
        xq, xf = _dyadic_point(rng, 3, -1, 1)
        v = [[p.eval_exact(xq) for p in row] for row in polys]
        leibniz = (v[0][0] * (v[1][1] * v[2][2] - v[1][2] * v[2][1])
                   - v[0][1] * (v[1][0] * v[2][2] - v[1][2] * v[2][0])
                   + v[0][2] * (v[1][0] * v[2][1] - v[1][1] * v[2][0]))
        assert d.eval_exact(xq) == leibniz
        num = np.linalg.det(entries(xf).reshape(3, 3))
        assert abs(CompiledPoly([d])(xf)[0] - num) <= 1e-9 * max(1.0, abs(num))


def test_det_errors():
    with pytest.raises(UsageError):
        PolyMatrix([[SparsePoly.zero(1)], [SparsePoly.zero(1)]]).det()


def test_serialization_round_trip(rng):
    def round_trip(p):
        return SparsePoly.from_json_dict(json.loads(json.dumps(p.to_json_dict())))

    for _ in range(20):
        p = _random_poly(rng, 4)
        assert round_trip(p) == p
    # canonical graded-lex order: leading term first, deterministic bytes
    p = SparsePoly(2, {(0, 2): ONE, (1, 0): ONE, (2, 0): ONE})
    es = [tuple(t["e"]) for t in p.to_json_dict()["terms"]]
    assert es == [(2, 0), (0, 2), (1, 0)]
    assert json.dumps(p.to_json_dict()) == json.dumps(round_trip(p).to_json_dict())


def test_polynomials_and_matrices_pickle_and_deepcopy(rng):
    for p in [_random_poly(rng, 3), SparsePoly.zero(2), (X(2, 0) + SparsePoly.const(2, PHI)) ** 3]:
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            q = pickle.loads(pickle.dumps(p, protocol))
            assert q == p and q.nvars == p.nvars and q.canonical_terms() == p.canonical_terms()
        assert copy.deepcopy(p) == p
        with pytest.raises(AttributeError):
            pickle.loads(pickle.dumps(p)).terms = {}
    m = PolyMatrix([[X(2, 0), SparsePoly.const(2, PHI)], [X(2, 1), X(2, 0) * X(2, 1)]])
    for other in (pickle.loads(pickle.dumps(m)), copy.deepcopy(m)):
        assert other.entries == m.entries and other.det() == m.det()


def test_eval_product_homomorphism_random_points(rng):
    """eval(p*q, x) == eval(p, x) * eval(q, x) exactly in Scalar arithmetic."""
    for _ in range(100):
        p = _random_poly(rng, 2, nterms=3)
        q = _random_poly(rng, 2, nterms=3)
        x = [Scalar(int(rng.integers(-3, 4)), int(rng.integers(-1, 2))) for _ in range(2)]
        assert (p * q).eval_exact(x) == p.eval_exact(x) * q.eval_exact(x)


def test_compiled_batch_evaluation(rng):
    """Batched values against exact values at rational points, to a few
    units of rounding of the terms' magnitudes."""
    p = _random_poly(rng, 3)
    points = [_dyadic_point(rng, 3) for _ in range(40)]
    vals = CompiledPoly([p])(np.array([xf for _, xf in points]))[:, 0]
    for i, (xq, xf) in enumerate(points):
        exact = float(p.eval_exact(xq))
        assert abs(vals[i] - exact) <= 1e-14 * max(1.0, _abs_terms(p, xf))


def test_compiled_table_of_several_polynomials(rng):
    polys = [_random_poly(rng, 3), SparsePoly.zero(3), _random_poly(rng, 3)]
    table = CompiledPoly(polys)
    pts = rng.uniform(-2, 2, size=(70, 3))
    vals = table(pts)
    assert vals.shape == (70, 3)
    for q, p in enumerate(polys):
        assert np.array_equal(vals[:, q], CompiledPoly([p])(pts)[:, 0])
    assert np.array_equal(table(pts, (0,)), vals[:, :1])
    assert table(pts[0]).shape == (3,)
    assert table(np.zeros((0, 3))).shape == (0, 3)
    with pytest.raises(UsageError):
        table(np.zeros((2, 4)))
    with pytest.raises(UsageError):
        CompiledPoly([])


# -- the integer kernel against per-term Scalar arithmetic ------------------------

def ref_sum(p, q, sign=1):
    out = dict(p.terms)
    for e, c in q.terms.items():
        out[e] = out.get(e, Scalar(0)) + c * sign
    return SparsePoly(p.nvars, out)


def ref_pow(p, k):
    out = SparsePoly.const(p.nvars, 1)
    for _ in range(k):
        out = brute_force_mul(out, p)
    return out


def ref_substitute(p, m):
    n = p.nvars
    rows = [SparsePoly(n, {tuple(int(k == j) for k in range(n)): c for j, c in enumerate(r)})
            for r in m]
    out = SparsePoly.zero(n)
    for e, c in p.terms.items():
        term = SparsePoly.const(n, c)
        for i, k in enumerate(e):
            term = brute_force_mul(term, ref_pow(rows[i], k))
        out = ref_sum(out, term)
    return out


def ref_det(m):
    """Leibniz expansion along the first row."""
    n = len(m)
    if n == 1:
        return m[0][0]
    out = SparsePoly.zero(m[0][0].nvars)
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in m[1:]]
        out = ref_sum(out, brute_force_mul(m[0][j], ref_det(minor)), -1 if j % 2 else 1)
    return out


# a + b*sqrt5 with negative and fractional parts, b != 0 included
scalars = st.builds(
    lambda a, da, b, db: Scalar(Fraction(a, da), Fraction(b, db)),
    st.integers(-12, 12), st.integers(1, 6), st.integers(-4, 4), st.integers(1, 4),
)


def polys(nvars, max_terms=5):
    return st.dictionaries(st.tuples(*[st.integers(0, 3)] * nvars), scalars,
                           max_size=max_terms).map(lambda t: SparsePoly(nvars, t))


@st.composite
def poly_pairs(draw):
    """Two polys in 1-4 variables; q sometimes carries -p's terms so that
    sums cancel, partly or to zero."""
    n = draw(st.integers(1, 4))
    p, q = draw(polys(n)), draw(polys(n))
    if draw(st.booleans()):
        q = SparsePoly(n, {**q.terms, **{e: -c for e, c in p.terms.items()}})
    if draw(st.booleans()):
        q = SparsePoly(n, {e: -c for e, c in p.terms.items()})
    return p, q


@settings(max_examples=150, deadline=None, derandomize=True)
@given(poly_pairs(), scalars, st.integers(0, 4))
def test_kernel_arithmetic_matches_scalar_reference(pq, c, k):
    p, q = pq
    assert p + q == ref_sum(p, q)
    assert p - q == ref_sum(p, q, -1)
    assert (p - p).is_zero() and (p + p.scale(-1)).is_zero()
    assert p * q == brute_force_mul(p, q)
    assert product(p.nvars, [p, q, p]) == brute_force_mul(brute_force_mul(p, q), p)
    assert product(p.nvars, []) == SparsePoly.const(p.nvars, 1)
    assert p.scale(c) == SparsePoly(p.nvars, {e: c * v for e, v in p.terms.items()})
    assert p.scale(0).is_zero() and p.scale(Scalar(0)).is_zero()
    assert p ** k == ref_pow(p, k)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.data())
def test_kernel_substitution_and_det_match_scalar_reference(data):
    n = data.draw(st.integers(1, 4))
    p = data.draw(polys(n))
    m = data.draw(st.lists(st.lists(scalars | st.just(Scalar(0)), min_size=n, max_size=n),
                           min_size=n, max_size=n))
    assert p.substitute_linear(m) == ref_substitute(p, m)
    size = data.draw(st.sampled_from([2, 3]))
    entries = [[data.draw(polys(n, 3)) for _ in range(size)] for _ in range(size)]
    assert PolyMatrix(entries).det() == ref_det(entries)


def test_kernel_exponent_overflow_is_usage_error():
    x, y = X(2, 0), X(2, 1)
    assert (x ** 40000 * x ** (MAX_DEGREE - 40000)).terms == {(MAX_DEGREE, 0): ONE}
    with pytest.raises(UsageError):
        x ** 40000 * x ** 40000
    with pytest.raises(UsageError):
        x ** MAX_DEGREE * y
    with pytest.raises(UsageError):
        y ** (MAX_DEGREE + 1)
    with pytest.raises(UsageError):
        product(2, [x ** 40000, x ** 40000])
    with pytest.raises(UsageError):
        SparsePoly(2, {(MAX_DEGREE + 1, 0): ONE}) + x
    with pytest.raises(UsageError):
        PolyMatrix([[x ** 40000, y], [y, x ** 40000]]).det()


def test_power_table_entries_do_not_depend_on_its_length(rng):
    """x^p is the same float whatever the table's top degree: this is what
    lets one table of a batch feed the P, J and Hessian tables."""
    x = rng.normal(size=(4096, 6)) * np.exp(rng.uniform(-20, 20, size=(4096, 6)))
    x[:8] = [0.0, -0.0, 1.0, -1.0, 0.5, -2.0]
    full = power_table(x, 30)
    assert full.shape == (4096, 6, 31)
    for d in range(31):
        assert np.array_equal(power_table(x, d), full[..., :d + 1])


def test_compiled_row_subsets_match_single_tables(rng):
    """Any row subset, in any order and with repeats, gives each row's
    single-polynomial values bit for bit, over only the monomials it uses;
    a row outside the table is a usage error."""
    polys = [_random_poly(rng, 3), _random_poly(rng, 3), SparsePoly.zero(3),
             _random_poly(rng, 3), SparsePoly.const(3, ONE)]
    table = CompiledPoly(polys)
    pts = rng.uniform(-2, 2, size=(130, 3))
    single = [CompiledPoly([p])(pts)[:, 0] for p in polys]
    subsets = [(), (2,), (4, 0), (3, 1, 0), (1, 1, 4, 2, 3, 0)]
    subsets += [tuple(rng.permutation(5)[:size]) for size in range(1, 6)]
    for rows in subsets:
        vals = table(pts, rows)
        assert vals.shape == (130, len(rows))
        for col, i in enumerate(rows):
            assert np.array_equal(vals[:, col], single[i])
        used = {e for i in rows for e in polys[i].terms}
        assert table.row_set(rows)[1].shape == (3, len(used))
    for rows in ((5,), (0, -1), ((0, 1),)):
        with pytest.raises(UsageError):
            table(pts, rows)
