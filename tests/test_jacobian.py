"""Jacobian factorization, minors and rank on strata."""

from fractions import Fraction

import numpy as np
import pytest

from chevalley.errors import CheckFailure, UsageError
from chevalley.field import ONE, Scalar
from chevalley.invariants import InvariantBasis
from chevalley.jacobian import (
    _batched_minor_max,
    det_vanishing_calibration,
    jacobian_matrix,
    numeric_rank,
    verify_det_factorization,
    verify_stratum_rank,
    wall_form_product,
)
from chevalley.poly import SparsePoly


def test_b2_jacobian_closed_form(basis_cache):
    jm = jacobian_matrix(basis_cache("B2"))
    assert jm[0, 0] == SparsePoly(2, {(1, 0): Scalar(2)})
    assert jm[0, 1] == SparsePoly(2, {(0, 1): Scalar(2)})
    assert jm[1, 0] == SparsePoly(2, {(1, 2): Scalar(2)})
    assert jm[1, 1] == SparsePoly(2, {(2, 1): Scalar(2)})


def test_newton_jacobian_rows(basis_cache):
    jm = jacobian_matrix(basis_cache("A3"))
    assert jm[0, 0] == SparsePoly.const(3, 1)
    assert jm[1, 1] == SparsePoly(3, {(0, 1, 0): Scalar(2)})
    assert jm[2, 2] == SparsePoly(3, {(0, 0, 2): Scalar(3)})


def test_row_degrees_follow_homogeneity(basis_cache):
    b = basis_cache("F4")
    jm = jacobian_matrix(b)
    for i, k in enumerate(b.degrees):
        for j in range(b.nvars):
            e = jm[i, j]
            assert e.is_zero() or e.degree() == k - 1


@pytest.mark.parametrize("name,c_expected", [("A3", 6.0), ("B2", 4.0)])
def test_pinned_factorization_constants(name, c_expected, basis_cache, rs_cache):
    rep = verify_det_factorization(basis_cache(name), rs_cache(name))
    assert rep.exact
    assert rep.c == c_expected


@pytest.mark.parametrize("name", ["A3", "A4", "A5", "A6", "B2", "B3", "B4", "D4", "D5", "D6", "G2", "I2:5", "H3", "F4"])
def test_factorization_exact_everywhere(name, basis_cache, rs_cache):
    rep = verify_det_factorization(basis_cache(name), rs_cache(name))
    assert rep.exact and rep.residual == 0.0 and rep.c != 0.0
    # deg det J equals the reflection count
    assert rep.det_degree == sum(k - 1 for k in basis_cache(name).degrees)


def test_factorization_flags_broken_basis(basis_cache, rs_cache):
    b = basis_cache("B2")
    broken = InvariantBasis(
        b.ctype,
        [b.polys[0], b.polys[0] * b.polys[0]],  # degree 4 but dependent
        "test",
    )
    with pytest.raises(CheckFailure):
        verify_det_factorization(broken, rs_cache("B2"))


def test_dihedral_wall_product_matches_float_roots(rs_cache, rng):
    """For float dihedral roots the exact product is the closed form; the
    per-root float product differs from it by one constant only.  The
    closed form is evaluated exactly at rational points."""
    for name in ("G2", "I2:7"):
        rs = rs_cache(name)
        prod = wall_form_product(rs)
        ratios = []
        for _ in range(40):
            ks = rng.integers(-256, 257, size=2)
            x = ks / 128.0
            lam = rs.positive_f @ x
            if np.min(np.abs(lam)) < 1e-3:
                continue
            exact = prod.eval_exact([Scalar(Fraction(int(k), 128)) for k in ks])
            ratios.append(np.prod(lam) / float(exact))
        ratios = np.array(ratios)
        assert np.max(np.abs(ratios - np.median(ratios))) <= 1e-9 * abs(np.median(ratios))


def test_jacobian_minor_examples(basis_cache):
    b = basis_cache("B2")
    jm = jacobian_matrix(b)
    one, zero = Scalar(1), Scalar(0)
    assert jm[0, 0].eval_exact([one, zero]) == Scalar(2)
    # the full minor vanishes on the diagonal wall, exactly and in floats
    assert jm.det().eval_exact([one, one]).is_zero()
    J = b.compiled.J(np.array([[1.0, 0.0], [1.0, 1.0]]))
    assert _batched_minor_max(J[:1], [0], 1)[0] == 2.0
    assert _batched_minor_max(J[1:], [0, 1], 2)[0] < 1e-12
    # every 1x1 minor of the first row, per sample
    assert np.array_equal(_batched_minor_max(J, [0], 1), [2.0, 2.0])


def test_b3_bordering_minor_vanishes_on_one_stratum(basis_cache, rs_cache, strata_cache):
    from chevalley.coxeter import sample_stratum

    b, rs = basis_cache("B3"), rs_cache("B3")
    jm = jacobian_matrix(b)
    s = next(t for t in strata_cache("B3") if t.dim == 1)
    x = sample_stratum(s, 1, 1.0, 5, rs)[0]
    assert _batched_minor_max(b.compiled.J(x[None, :]), [0, 1], 2)[0] <= 1e-10
    # B3 faces are spanned by 0/1 vectors: the rounded direction lies on the
    # face exactly, and there every 2x2 minor of rows 0, 1 is exactly zero
    xq = [Scalar(int(round(v))) for v in x / np.max(np.abs(x))]
    xf = np.array([float(v) for v in xq])
    assert np.allclose(s.basis @ (s.basis.T @ xf), xf) and rs.chamber_contains(xf)
    for c0, c1 in ((0, 1), (0, 2), (1, 2)):
        v = [[jm[i, j].eval_exact(xq) for j in (c0, c1)] for i in (0, 1)]
        assert (v[0][0] * v[1][1] - v[0][1] * v[1][0]).is_zero()


def test_b2_wall_stratum_rank_closed_form(basis_cache, rs_cache, strata_cache):
    b, rs = basis_cache("B2"), rs_cache("B2")
    s = next(t for t in strata_cache("B2") if t.dim == 1 and 1 in t.walls)
    rep = verify_stratum_rank(b, rs, s, samples=50, seed=2, tol=1e-9)
    assert rep.passed
    assert all(r == 1 for r in rep.ranks)
    # on that wall x2=0 the 1x1 minor is 2*x1 = 2 at unit samples, which the
    # gradient scale (also 2) normalizes to exactly 1
    assert abs(rep.min_leading_minor - 1.0) < 1e-9
    assert not rep.leading_degenerate


@pytest.mark.parametrize("name", ["B2", "B3", "A3", "D4", "G2"])
def test_stratum_rank_small_types(name, basis_cache, rs_cache, strata_cache):
    b, rs = basis_cache(name), rs_cache(name)
    for s in strata_cache(name):
        if s.dim < 1:
            continue
        rep = verify_stratum_rank(b, rs, s, samples=40, seed=9, tol=1e-9)
        assert rep.passed, rep.to_dict()


def test_chamber_interior_rank_is_full(basis_cache, rs_cache, rng):
    for name in ("B3", "H3"):
        b, rs = basis_cache(name), rs_cache(name)
        X = np.array([rs.to_chamber(rng.normal(size=rs.n)) for _ in range(50)])
        X = X[np.min(X @ rs.simple_unit_f.T, axis=1) > 0.05]
        X /= np.linalg.norm(X, axis=1, keepdims=True)
        J = b.compiled.J(X)
        assert np.all(numeric_rank(J) == rs.n)


def test_d4_antisymmetry_exact(basis_cache):
    """Flipping the sign of the last coordinate negates the product
    invariant and fixes the elementary ones, exactly."""
    b = basis_cache("D4")
    flip = [[ONE if i == j else Scalar(0) for j in range(4)] for i in range(4)]
    flip[3][3] = -ONE
    prod_poly = SparsePoly(4, {(1, 1, 1, 1): ONE})
    for p in b.polys:
        sub = p.substitute_linear(flip)
        if p == prod_poly:
            assert sub == -p
        else:
            assert sub == p


def test_det_vanishing_two_sided(basis_cache, rs_cache):
    for name in ("B3", "H3"):
        cal = det_vanishing_calibration(basis_cache(name), rs_cache(name),
                                        n_points=10_000, seed=4)
        assert cal["ratio_spread"] <= 1e-8
        assert cal["n_near_wall"] > 0 and cal["n_det_small"] > 0
        assert cal["det_near_wall_max"] <= cal["det_near_wall_bound"]
        assert cal["small_det_form_ok"]


def test_stratum_rank_rejects_k0(basis_cache, rs_cache, strata_cache):
    s = next(t for t in strata_cache("B2") if t.dim == 0)
    with pytest.raises(UsageError):
        verify_stratum_rank(basis_cache("B2"), rs_cache("B2"), s)


def test_stratum_rank_h4(basis_cache, rs_cache, strata_cache):
    """The rank-k property holds on every H4 face as well; the degree-30
    system is exercised purely numerically."""
    b, rs = basis_cache("H4"), rs_cache("H4")
    for s in strata_cache("H4"):
        if s.dim < 1:
            continue
        rep = verify_stratum_rank(b, rs, s, samples=60, seed=3, tol=1e-9)
        assert rep.passed and not rep.leading_degenerate, rep.to_dict()
