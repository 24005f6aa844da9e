"""Jacobian factorization, minors and rank on strata."""

from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from chevalley.errors import CheckFailure, UsageError
from chevalley.field import ONE, ZERO, Scalar, vec_dot
from chevalley import jacobian
from chevalley.invariants import (
    CompiledBasis,
    InvariantBasis,
    basic_invariants,
)
from chevalley.jacobian import (
    _minor_table,
    calibration_passed,
    det_vanishing_calibration,
    verify_det_factorization,
    verify_stratum_rank,
    wall_form_product,
)
from chevalley.poly import PolyMatrix, SparsePoly


def test_b2_jacobian_closed_form(basis_cache):
    jm = PolyMatrix(basis_cache("B2").gradients)
    assert jm[0, 0] == SparsePoly(2, {(1, 0): Scalar(2)})
    assert jm[0, 1] == SparsePoly(2, {(0, 1): Scalar(2)})
    assert jm[1, 0] == SparsePoly(2, {(1, 2): Scalar(2)})
    assert jm[1, 1] == SparsePoly(2, {(2, 1): Scalar(2)})


def test_newton_jacobian_rows(basis_cache):
    jm = PolyMatrix(basis_cache("A3").gradients)
    assert jm[0, 0] == SparsePoly.const(3, 1)
    assert jm[1, 1] == SparsePoly(3, {(0, 1, 0): Scalar(2)})
    assert jm[2, 2] == SparsePoly(3, {(0, 0, 2): Scalar(3)})


def test_row_degrees_follow_homogeneity(basis_cache):
    b = basis_cache("F4")
    jm = PolyMatrix(b.gradients)
    for i, k in enumerate(b.degrees):
        for j in range(b.nvars):
            e = jm[i, j]
            assert e.is_zero() or e.degree() == k - 1


# c = a + b sqrt5 in det J = c * prod(wall forms); H4's is pinned by the CLI
# test test_h4_jacobian_determinant_is_exact, so it is computed once
PINNED_C = {
    "A1": (2, 0), "A2": (2, 0), "A3": (6, 0), "A4": (24, 0), "A5": (120, 0), "A6": (720, 0),
    "B1": (2, 0), "B2": (4, 0), "B3": (8, 0), "B4": (16, 0),
    "D2": (2, 0), "D3": (-4, 0), "D4": (-8, 0), "D5": (16, 0), "D6": (32, 0),
    "I2:3": (-6, 0), "I2:4": (-32, 0), "I2:5": (-10, 0), "I2:6": (-12, 0), "I2:7": (-14, 0),
    "I2:8": (-16, 0), "I2:9": (-18, 0), "I2:10": (-20, 0), "I2:11": (-22, 0),
    "I2:12": (-24, 0), "G2": (-12, 0), "H3": (0, -48000), "F4": (-2332800, 0),
}


@pytest.mark.parametrize("name,c_expected", [(n, Scalar(*ab)) for n, ab in PINNED_C.items()],
                         ids=lambda v: v if isinstance(v, str) else str(float(v)))
def test_pinned_factorization_constants(name, c_expected, basis_cache, rs_cache):
    rep = verify_det_factorization(basis_cache(name), rs_cache(name))
    assert rep.exact
    assert rep.c_exact == c_expected and rep.c == float(c_expected)


# H4 is checked by the CLI test test_h4_jacobian_determinant_is_exact
@pytest.mark.parametrize("name", ["A3", "A4", "A5", "A6", "B2", "B3", "B4", "D4", "D5", "D6", "G2", "I2:5", "H3", "F4"])
def test_factorization_exact_everywhere(name, basis_cache, rs_cache):
    rep = verify_det_factorization(basis_cache(name), rs_cache(name))
    assert rep.exact and rep.residual == 0.0 and rep.c != 0.0
    # deg det J equals the reflection count
    assert rep.det_degree == sum(k - 1 for k in basis_cache(name).degrees)


def test_gradients_are_differentiated_once(rs_cache, monkeypatch):
    """A basis differentiates each invariant once: the float J and Hessian
    tables and the symbolic Jacobian read one set of exact gradient rows,
    and using them all again differentiates nothing."""
    calls = []
    gradient = SparsePoly.gradient
    monkeypatch.setattr(SparsePoly, "gradient", lambda p: calls.append(p) or gradient(p))
    b, rs = basic_invariants("B3"), rs_cache("B3")
    for _ in range(2):
        b.compiled.hessians(np.ones((2, 3)))
        PolyMatrix(b.gradients)
        verify_det_factorization(b, rs)
        verify_det_factorization(b, rs)
        assert len(calls) == 3 + 3 * 3  # the invariants, then their gradient rows


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
    jm = PolyMatrix(b.gradients)
    one, zero = Scalar(1), Scalar(0)
    assert jm[0, 0].eval_exact([one, zero]) == Scalar(2)
    # the full minor vanishes on the diagonal wall, exactly and in floats
    assert jm.det().eval_exact([one, one]).is_zero()
    J = b.compiled.J(np.array([[1.0, 0.0], [1.0, 1.0]]))
    assert _minor_table(J[:1], [[0]])[0, 0] == 2.0
    assert _minor_table(J[1:], [[0, 1]])[0, 0] < 1e-12
    # every 1x1 minor of the first row, per sample
    assert np.array_equal(_minor_table(J, [[0]])[:, 0], [2.0, 2.0])


def _minor_loop(J, row_sets):
    """Reference for _minor_table: one determinant call per row set and
    column subset, a running maximum over the column subsets."""
    out = np.zeros((J.shape[0], len(row_sets)))
    for t, rows in enumerate(row_sets):
        for cols in combinations(range(J.shape[2]), len(rows)):
            vals = np.abs(np.linalg.det(J[:, list(rows)][:, :, list(cols)]))
            out[:, t] = np.maximum(out[:, t], vals)
    return out


def _all_row_sets(r, size):
    return [list(rows) for rows in combinations(range(r), size)]


def _exact_minor_table(J, row_sets):
    """Max |minor| per sample and row set from exact determinants of
    integer-valued entries (PolyMatrix constants)."""
    out = np.zeros((J.shape[0], len(row_sets)))
    for s in range(J.shape[0]):
        for t, rows in enumerate(row_sets):
            for cols in combinations(range(J.shape[2]), len(rows)):
                M = PolyMatrix([[SparsePoly.const(1, int(J[s, i, j])) for j in cols]
                                for i in rows])
                out[s, t] = max(out[s, t], abs(float(M.det().eval_exact([ONE]))))
    return out


def _forward_error_bound(J, row_sets):
    """4 m eps prod_i |row_i|_1 over the m rows of each set: a bound on the
    rounding of any m x m minor on those rows, by LU or by Laplace."""
    norms = np.abs(J).sum(axis=2)
    return np.stack([4 * len(rows) * np.finfo(float).eps * np.prod(norms[:, list(rows)], axis=1)
                     for rows in row_sets], axis=1)


def test_minor_table_exact_on_small_integers(rng):
    for S, r, n in ((3, 1, 1), (4, 3, 3), (3, 4, 5), (3, 5, 4), (2, 6, 6)):
        J = rng.integers(-3, 4, size=(S, r, n)).astype(float)
        J[0, -1] = J[0, 0]  # a repeated row: every minor through both is 0
        for size in range(1, min(r, n) + 1):
            rows = _all_row_sets(r, size)
            assert np.array_equal(_minor_table(J, rows), _exact_minor_table(J, rows))


def _assert_within_forward_error_of_loop(A):
    """Every size of minor table on A is within the forward-error bound of
    the reference loop (the rounding of the two kernels differs)."""
    r, n = A.shape[1:]
    for size in range(1, min(r, n) + 1):
        rows = _all_row_sets(r, size)
        err = np.abs(_minor_table(A, rows) - _minor_loop(A, rows))
        assert np.all(err <= _forward_error_bound(A, rows))


def test_minor_table_matches_loop_on_random_stacks(rng):
    for S, r, n in ((1, 1, 1), (7, 3, 3), (5, 4, 5), (9, 5, 4), (4, 6, 6)):
        J = rng.normal(size=(S, r, n))
        # rank-deficient copy: rank 2, so every minor of size >= 3 is noise
        low = rng.normal(size=(S, r, 2)) @ rng.normal(size=(S, 2, n))
        for A in (J, low):
            _assert_within_forward_error_of_loop(A)


def test_minor_table_matches_loop_on_d6_faces(basis_cache, rs_cache, strata_cache):
    from chevalley.coxeter import sample_stratum

    b, rs = basis_cache("D6"), rs_cache("D6")
    for k in range(1, 7):
        s = next(t for t in strata_cache("D6") if t.dim == k)
        _assert_within_forward_error_of_loop(b.compiled.J(sample_stratum(s, 20, 1.0, k, rs)))


def test_minor_table_depends_only_on_its_sample(rng, monkeypatch):
    J = rng.normal(size=(11, 4, 4))
    J[3] *= 1e-5  # a sample far from its neighbours' scale
    for size in (2, 3, 4):
        rows = _all_row_sets(4, size)
        whole = _minor_table(J, rows)
        alone = np.concatenate([_minor_table(J[i:i + 1], rows) for i in range(11)])
        order = rng.permutation(11)
        assert np.array_equal(whole, alone)
        assert np.array_equal(_minor_table(J[order], rows), whole[order])
        with monkeypatch.context() as mp:
            # from one sample per chunk up to 6, 10 and 41 (all 11) for sizes 2, 3, 4
            for chunk in (1, 100, 500):
                mp.setattr(jacobian, "CHUNK_VALUES", chunk)
                assert np.array_equal(_minor_table(J, rows), whole)


def test_minor_table_mixed_sizes_match_single_size_tables(rng, monkeypatch):
    """One call on row sets of every size, shuffled together, gives each row
    set the bits of its single-size call, NaN included, at any chunking."""
    for S, r, n in ((6, 4, 4), (5, 5, 4), (4, 6, 6)):
        for J in (rng.normal(size=(S, r, n)), rng.integers(-3, 4, size=(S, r, n)).astype(float)):
            J[1, r - 1, 0] = np.inf  # every row set through row r-1 is NaN at sample 1
            single = {}
            for size in range(1, min(r, n) + 1):
                rows = _all_row_sets(r, size)
                single.update(zip(map(tuple, rows), _minor_table(J, rows).T))
            mixed = [list(rows) for rows in single]
            mixed = [mixed[i] for i in rng.permutation(len(mixed))]
            expected = np.stack([single[tuple(rows)] for rows in mixed], axis=1)
            assert np.array_equal(np.isnan(expected).any(axis=0), [r - 1 in rows for rows in mixed])
            assert np.array_equal(_minor_table(J, mixed), expected, equal_nan=True)
            with monkeypatch.context() as mp:
                for chunk in (1, 100, 500):
                    mp.setattr(jacobian, "CHUNK_VALUES", chunk)
                    assert np.array_equal(_minor_table(J, mixed), expected, equal_nan=True)


def test_minor_table_nan_for_non_finite_entries(basis_cache, rs_cache, strata_cache, monkeypatch):
    J = np.tile(np.eye(3), (4, 1, 1))
    J[1, 2, 0], J[2, 0, 1], J[3, 1, 1] = np.inf, np.nan, -np.inf
    rows = _all_row_sets(3, 2)  # (0, 1), (0, 2), (1, 2)
    table = _minor_table(J, rows)
    assert np.array_equal(np.isnan(table), [[0, 0, 0], [0, 1, 1], [1, 1, 0], [1, 0, 1]])
    assert np.all(table[~np.isnan(table)] == 1.0)
    # a face whose Jacobian overflows at one sample fails there
    b, rs = basis_cache("B3"), rs_cache("B3")
    s = next(t for t in strata_cache("B3") if t.dim == 2)
    J_of = type(b.compiled).J

    def overflowing(self, X, k=None):
        out = J_of(self, X, k)
        if len(X) == 10:
            out[4, 0, 0] = np.inf
        return out

    from chevalley.coxeter import sample_stratum

    X = sample_stratum(s, 10, 1.0, 7, rs)
    monkeypatch.setattr(type(b.compiled), "J", overflowing)
    rep = verify_stratum_rank(b, rs, s, samples=10, seed=7)
    assert not rep.passed and rep.witness == (X[4] / np.linalg.norm(X[4])).tolist()


@pytest.mark.parametrize("name", ["B3", "H3", "A4", "D4", "F4", "H4", "D6"])
def test_stratum_rank_verdicts_match_loop_kernel(name, basis_cache, rs_cache,
                                                  strata_cache, monkeypatch):
    """Every face verdict, row list and witness is the same with the
    reference loop in place of the Laplace table; the minima and maxima
    agree to rounding.  Both kernels round to about eps in normalized units,
    so a leading minimum far below 1 (D6 faces: 1e-7 to 1e-5) is held to
    1e-15 absolute rather than 1e-12 relative.

    Rank <= k holds by invariance, so the verdict reads no SVD rank and no
    minor off the degree-admissible rows: with those checks added back (the
    SVD rank is k, every (k+1)-row minor is below tol) no verdict moves."""
    from chevalley.coxeter import sample_stratum

    b, rs = basis_cache(name), rs_cache(name)
    faces = [s for s in strata_cache(name) if s.dim >= 1]
    scales = b.compiled.gradient_scales
    for seed in (7, 1234):
        new = [verify_stratum_rank(b, rs, s, seed=seed) for s in faces]
        with monkeypatch.context() as mp:
            mp.setattr(jacobian, "_minor_table", _minor_loop)
            ref = [verify_stratum_rank(b, rs, s, seed=seed) for s in faces]
        for s, x, y in zip(faces, new, ref):
            for f in ("passed", "leading_degenerate", "degenerate_rows", "witness"):
                assert getattr(x, f) == getattr(y, f), (x.stratum_id, f)
            assert x.min_leading_minor == pytest.approx(y.min_leading_minor, rel=1e-12, abs=1e-15)
            assert abs(x.max_bordering_minor - y.max_bordering_minor) <= 1e-14
            X = sample_stratum(s, 100, 1.0, seed, rs)
            J = b.compiled.J(X / np.linalg.norm(X, axis=1, keepdims=True))
            rows = _all_row_sets(rs.n, s.dim + 1)
            any_minor = _minor_loop(J, rows) / np.array([np.prod(scales[r]) for r in rows])
            sv = np.linalg.svd(J, compute_uv=False)
            svd_rank = np.sum(sv > 1e-8 * sv[:, :1], axis=1)
            old_verdict = x.passed and np.all(svd_rank == s.dim) and np.all(any_minor <= 1e-9)
            assert x.passed == old_verdict, x.stratum_id


def test_stratum_rank_makes_one_minor_pass_per_face(basis_cache, rs_cache, strata_cache,
                                                    monkeypatch):
    """The leading k-minors are read off the (k+1)-row expansion, so every
    D6 face, the degenerate one included, makes one `_minor_table` call."""
    b, rs = basis_cache("D6"), rs_cache("D6")
    faces = [s for s in strata_cache("D6") if s.dim >= 1]
    calls = []
    table = jacobian._minor_table
    monkeypatch.setattr(jacobian, "_minor_table", lambda J, rows: calls.append(J) or table(J, rows))
    reps = [verify_stratum_rank(b, rs, s, samples=10) for s in faces]
    assert len(calls) == len(faces)
    assert any(rep.leading_degenerate for rep in reps)


def test_minor_table_without_row_sets(basis_cache, rs_cache, strata_cache):
    """k = n: no (k+1)-row set exists, so the table is empty and the
    bordering maximum stays 0."""
    J = np.ones((3, 2, 2))
    assert _minor_table(J, _all_row_sets(2, 3)).shape == (3, 0)
    b, rs = basis_cache("B3"), rs_cache("B3")
    s = next(t for t in strata_cache("B3") if t.dim == 3)
    rep = verify_stratum_rank(b, rs, s, samples=10)
    assert rep.passed and rep.max_bordering_minor == 0.0


def test_gradient_scales_cached_once_per_basis(basis_cache, rs_cache, strata_cache, monkeypatch):
    b0, rs = basis_cache("B3"), rs_cache("B3")
    b = InvariantBasis(b0.ctype, b0.polys, "test")
    calls = []
    J = CompiledBasis.J

    def counting(self, X, k=None):
        calls.append(len(X))
        return J(self, X, k)

    monkeypatch.setattr(CompiledBasis, "J", counting)
    faces = [s for s in strata_cache("B3") if s.dim >= 1]
    for s in faces:
        verify_stratum_rank(b, rs, s, samples=10)
    # one 64-point scale evaluation, then one per face for its samples
    assert calls == [10, 64] + [10] * (len(faces) - 1)
    pts = np.random.default_rng(97531).normal(size=(64, 3))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    fresh = np.max(np.linalg.norm(J(b.compiled, pts), axis=2), axis=0)
    assert np.array_equal(b.compiled.gradient_scales, fresh)


@pytest.mark.parametrize("name", ["A4", "B3", "D6", "F4", "H3"])
def test_wall_form_product_matches_chained_product(name, rs_cache):
    rs = rs_cache(name)
    chained = SparsePoly.const(rs.n, 1)
    for v in rs.positive:
        chained = chained * SparsePoly(rs.n, {
            tuple(int(j == i) for j in range(rs.n)): c for i, c in enumerate(v)})
    assert wall_form_product(rs) == chained


def test_b3_bordering_minor_vanishes_on_one_stratum(basis_cache, rs_cache, strata_cache):
    from chevalley.coxeter import sample_stratum

    b, rs = basis_cache("B3"), rs_cache("B3")
    jm = PolyMatrix(b.gradients)
    s = next(t for t in strata_cache("B3") if t.dim == 1)
    x = sample_stratum(s, 1, 1.0, 5, rs)[0]
    assert _minor_table(b.compiled.J(x[None, :]), [[0, 1]])[0, 0] <= 1e-10
    # B3 faces are spanned by 0/1 vectors: the rounded direction lies on the
    # face exactly, and there every 2x2 minor of rows 0, 1 is exactly zero
    xq = [Scalar(int(round(v))) for v in x / np.max(np.abs(x))]
    xf = np.array([float(v) for v in xq])
    assert np.allclose(s.basis @ (s.basis.T @ xf), xf) and rs.chamber_contains(xf)
    for c0, c1 in ((0, 1), (0, 2), (1, 2)):
        v = [[jm[i, j].eval_exact(xq) for j in (c0, c1)] for i in (0, 1)]
        assert (v[0][0] * v[1][1] - v[0][1] * v[1][0]).is_zero()


SUPPORTED_TYPES = (["A1"] + [f"A{n}" for n in range(2, 7)] + [f"B{n}" for n in range(1, 5)]
                   + [f"D{n}" for n in range(2, 7)] + [f"I2:{p}" for p in range(3, 13)]
                   + ["G2", "H3", "F4", "H4"])


@pytest.mark.parametrize("name", SUPPORTED_TYPES)
def test_gradients_are_orthogonal_to_face_isotropy_roots(name, basis_cache, rs_cache,
                                                        strata_cache):
    """The hinge of rank <= k on a k-face F: each p_i is W-invariant, so its
    gradient at a point of the open face is fixed by F's isotropy group and
    <grad p_i(x), a> = 0 for every isotropy root a.  Checked exactly at
    x = Omega_F (1, ..., k) on every type with exact root data; on the
    float I2(p), in floats at sampled unit points, against unit roots and
    the gradient scales."""
    from chevalley.coxeter import sample_stratum

    b, rs = basis_cache(name), rs_cache(name)
    faces = [s for s in strata_cache(name) if s.dim >= 1 and s.isotropy]
    if rs.exact:
        for s in faces:
            free = [i for i in range(rs.n) if i not in s.walls]
            x = [sum((Scalar(t) * rs.coweights[j][c] for t, j in enumerate(free, 1)), ZERO)
                 for c in range(rs.n)]
            grads = [[g.eval_exact(x) for g in row] for row in b.gradients]
            for a in s.isotropy:
                for row in grads:
                    assert vec_dot(row, rs.positive[a]).is_zero(), (s.stratum_id, a)
        return
    for s in faces:
        X = sample_stratum(s, 100, 1.0, 7, rs)
        X /= np.linalg.norm(X, axis=1, keepdims=True)
        roots = rs.positive_f[list(s.isotropy)]
        roots /= np.linalg.norm(roots, axis=1, keepdims=True)
        dots = b.compiled.J(X) @ roots.T / b.compiled.gradient_scales[:, None]
        assert np.max(np.abs(dots)) <= 1e-12, s.stratum_id


def test_b2_wall_stratum_rank_closed_form(basis_cache, rs_cache, strata_cache):
    b, rs = basis_cache("B2"), rs_cache("B2")
    s = next(t for t in strata_cache("B2") if t.dim == 1 and 1 in t.walls)
    rep = verify_stratum_rank(b, rs, s, samples=50, seed=2, tol=1e-9)
    assert rep.passed
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
        sv = np.linalg.svd(b.compiled.J(X), compute_uv=False)
        assert np.all(np.sum(sv > 1e-8 * sv[:, :1], axis=1) == rs.n)


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
        assert calibration_passed(cal)


def test_rank_one_calibration_runs_on_random_directions(basis_cache, rs_cache):
    """On rank 1 the only wall is the origin, off the unit sphere, so no
    near-wall point is built."""
    cal = det_vanishing_calibration(basis_cache("A1"), rs_cache("A1"), n_points=200, seed=4)
    assert cal["n"] == 200 and cal["n_near_wall"] == 0 and calibration_passed(cal)


def test_calibration_verdict_needs_every_bound():
    edge = {"ratio_spread": 1e-8, "det_near_wall_max": 1.0,
            "det_near_wall_bound": 1.0, "small_det_form_ok": True}
    assert calibration_passed(edge)
    for bad in ({"ratio_spread": 1.1e-8}, {"det_near_wall_max": 1.01},
                {"small_det_form_ok": False}):
        assert not calibration_passed({**edge, **bad})


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
