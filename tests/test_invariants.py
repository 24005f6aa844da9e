"""Invariant systems: closed forms, data files, caching, evaluation."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest

from chevalley import poly
from chevalley.coxeter import (
    _float_mat,
    _reflection_exact,
    build_root_system,
    coxeter_type,
    generate_group,
)
from chevalley.errors import CapabilityError, IntegrityError, UsageError
from chevalley.field import ONE, Scalar
from chevalley.invariants import (
    _PACKAGE_DATA,
    JACOBIAN_POINT,
    InvariantBasis,
    basic_invariants,
    basis_content_hash,
    jacobian_det_at_point,
    load_basis,
    save_basis,
    verify_invariance,
)
from chevalley.poly import SparsePoly


def sum_of_squares(n):
    return SparsePoly(n, {tuple(2 * (j == i) for j in range(n)): ONE for i in range(n)})


def test_degree_tables():
    def table(name):
        t = coxeter_type(name)
        return t.degrees, t.coxeter_number

    assert table("H3") == ((2, 6, 10), 10)
    assert table("F4") == ((2, 6, 8, 12), 12)
    assert table("B2") == ((2, 4), 4)
    assert coxeter_type("H4").degrees == (2, 12, 20, 30)
    assert coxeter_type("A4").degrees == (1, 2, 3, 4)
    assert coxeter_type("D6").degrees == (2, 4, 6, 6, 8, 10)
    # degree table ties to the root count: sum(k_i - 1) = number of reflections
    for name in ("H3", "F4", "B2", "D6", "A4"):
        t = coxeter_type(name)
        rs = build_root_system(t)
        assert sum(d - 1 for d in t.degrees) == len(rs.positive_f)


def test_b2_closed_form(basis_cache):
    b = basis_cache("B2")
    x1sq_x2sq = SparsePoly(2, {(2, 0): ONE, (0, 2): ONE})
    assert b.polys[0] == x1sq_x2sq
    assert b.polys[1] == SparsePoly(2, {(2, 2): ONE})
    assert b.degrees == (2, 4)


def test_g2_closed_form(basis_cache):
    b = basis_cache("G2")
    expected = SparsePoly(2, {
        (6, 0): Scalar(1), (4, 2): Scalar(-15), (2, 4): Scalar(15), (0, 6): Scalar(-1),
    })
    assert b.polys[1] == expected
    assert b.polys[0] == sum_of_squares(2)


def test_d_family_degree_list_and_product(basis_cache):
    for name, n in (("D4", 4), ("D6", 6)):
        b = basis_cache(name)
        assert b.degrees == coxeter_type(name).degrees
        prod_poly = SparsePoly(n, {(1,) * n: ONE})
        assert prod_poly in b.polys
        # tie order: the product invariant comes after the same-degree
        # elementary symmetric
        idx = b.polys.index(prod_poly)
        assert b.degrees[idx - 1] == n and b.polys[idx - 1] != prod_poly


def test_first_invariant_is_squared_norm(basis_cache):
    for name in ("B2", "B3", "D4", "G2", "H3", "F4", "H4", "I2:7"):
        b = basis_cache(name)
        assert b.polys[0] == sum_of_squares(b.nvars)


def test_invariance_exact(basis_cache, rs_cache):
    for name in ("B2", "D4", "A3", "F4"):
        b = basis_cache(name)
        rs = rs_cache(name)
        assert verify_invariance(b, rs)


def test_invariance_exact_full_group_b2(basis_cache, rs_cache):
    g = generate_group(rs_cache("B2"))
    assert len(g) == 8
    assert all(p.substitute_linear(w) == p for w in g for p in basis_cache("B2").polys)


def test_h3_invariance_exact_under_simple_reflections(basis_cache, rs_cache):
    assert verify_invariance(basis_cache("H3"), rs_cache("H3"))


def test_perturbed_basis_is_not_invariant(basis_cache, rs_cache):
    b = basis_cache("B2")
    x1 = SparsePoly.variable(2, 0)
    broken = InvariantBasis(
        b.ctype, [b.polys[0], b.polys[1] + x1 * x1 * x1 * x1], "test"
    )
    assert not verify_invariance(broken, rs_cache("B2"))


def test_invariance_at_points_where_the_root_data_is_float(basis_cache, rs_cache):
    """I2(7) has float root data only, so invariance is checked at seeded
    points: the basis passes and a non-invariant degree-7 term fails."""
    b, rs = basis_cache("I2:7"), rs_cache("I2:7")
    assert not rs.exact and verify_invariance(b, rs)
    x1 = SparsePoly.variable(2, 0)
    broken = InvariantBasis(b.ctype, [b.polys[0], b.polys[1] + x1 ** 7], "test")
    assert not verify_invariance(broken, rs)


def test_chevalley_eval_examples(basis_cache):
    cb = basis_cache("B2").compiled
    X = np.array([[1.0, 1.0], [0.0, 0.0]])
    assert np.array_equal(cb.P(X), [[2.0, 1.0], [0.0, 0.0]])
    assert np.array_equal(cb.P(X[:1], 1), [[2.0]])
    P, _ = cb.evaluate(X[:1], 1)
    assert np.array_equal(P, [[2.0]])
    with pytest.raises(UsageError):
        cb.evaluate(X, 3)


def test_orbit_collapse(basis_cache, rs_cache, rng):
    """P(w x) == P(x) numerically for every group element."""
    for name in ("B3", "H3"):
        b = basis_cache(name)
        rs = rs_cache(name)
        gens = [_float_mat(_reflection_exact(v)) for v in rs.positive]
        X = rng.normal(size=(100, rs.n))
        base = b.compiled.P(X)
        for w in gens:
            moved = b.compiled.P(X @ w.T)
            assert np.max(np.abs(moved - base)) <= 1e-12 * max(1, np.max(np.abs(base)))


def test_chamber_injectivity(basis_cache, rs_cache, rng):
    for name in ("B2", "B3", "H3"):
        b, rs = basis_cache(name), rs_cache(name)
        for _ in range(200):
            x = rs.to_chamber(rng.normal(size=rs.n))
            y = rs.to_chamber(rng.normal(size=rs.n))
            if np.linalg.norm(x - y) < 1e-6:
                continue
            px, py = b.compiled.P(np.stack([x, y]))
            assert np.linalg.norm(px - py) > 1e-9


def test_jacobian_det_at_point_is_exactly_nonzero(basis_cache):
    """The `jacobian-rank` check: det J at the integer point x0 is an exact
    nonzero scalar on every supported type, so x0 lies on no wall."""
    names = (["A1"] + [f"A{n}" for n in range(2, 7)] + [f"B{n}" for n in range(1, 5)]
             + [f"D{n}" for n in range(2, 7)] + [f"I2:{p}" for p in range(3, 13)]
             + ["G2", "H3", "H4", "F4"])
    for name in names:
        b = basis_cache(name)
        point, det = jacobian_det_at_point(b)
        assert point == JACOBIAN_POINT[:b.nvars]
        assert isinstance(det, Scalar) and not det.is_zero(), name


def test_dihedral_average_numeric_invariance(rs_cache, rng):
    """Averaging x^6 over the I2(6) group yields an invariant function.

    The group matrices are floats, so the average is realized pointwise:
    f(x) = mean over w of ((w x)_1)^6, and invariance f(g x) = f(x) is
    checked numerically.
    """
    rs = rs_cache("G2")
    g = generate_group(rs)

    def f(pts):
        return np.mean(np.stack([(pts @ w.T)[:, 0] ** 6 for w in g]), axis=0)

    X = rng.normal(size=(50, 2))
    base = f(X)
    for w in g:
        assert np.allclose(f(X @ w.T), base, rtol=1e-10, atol=1e-12)


def test_cache_round_trip_and_hash_stability(tmp_path, basis_cache):
    b = basis_cache("H3")
    save_basis(b, tmp_path / "H3.json")
    again = load_basis(tmp_path / "H3.json", coxeter_type("H3"))
    assert again.polys == b.polys
    save_basis(again, tmp_path / "again.json")
    assert (tmp_path / "again.json").read_bytes() == (tmp_path / "H3.json").read_bytes()
    for name in ("H3", "F4", "H4"):
        doc = json.loads((_PACKAGE_DATA / f"{name}.json").read_text())
        assert basis_content_hash(doc) == doc["sha256"]


def test_malformed_cache_is_an_integrity_error(malformed_h3):
    with pytest.raises(IntegrityError, match="cannot read"):
        load_basis(malformed_h3, coxeter_type("H3"))


def test_reordered_terms_fail_the_hash(tmp_path, basis_cache):
    """The hash covers the terms as stored: the same polynomial with its
    terms in another order is a different file."""
    doc = json.loads((_PACKAGE_DATA / "H3.json").read_text())
    doc["polys"][1]["terms"].reverse()
    assert SparsePoly.from_json_dict(doc["polys"][1]) == basis_cache("H3").polys[1]
    (tmp_path / "H3.json").write_text(json.dumps(doc))
    with pytest.raises(IntegrityError, match="hash"):
        load_basis(tmp_path / "H3.json", coxeter_type("H3"))


def test_tampered_cache_is_rejected(tmp_path, basis_cache):
    save_basis(basis_cache("H3"), tmp_path / "H3.json")
    doc = json.loads((tmp_path / "H3.json").read_text())
    doc["polys"][1]["terms"][0]["a"] = "9999/1"
    (tmp_path / "H3.json").write_text(json.dumps(doc))
    with pytest.raises(IntegrityError):
        load_basis(tmp_path / "H3.json", coxeter_type("H3"))


def test_h4_loads_from_package_data():
    b = basic_invariants("H4")
    assert b.degrees == (2, 12, 20, 30)
    assert b.provenance.startswith("file:")


@pytest.mark.parametrize("name", ["H3", "F4", "H4"])
def test_averaged_types_require_data_file(name, tmp_path, monkeypatch):
    """With no data file to load, an averaged type is a capability error:
    nothing is built at runtime and the lookup writes no file."""
    import chevalley.invariants as inv

    cache, env = tmp_path / "cache", tmp_path / "env"
    cache.mkdir()
    env.mkdir()
    monkeypatch.setattr(inv, "_PACKAGE_DATA", tmp_path / "nowhere")
    monkeypatch.setenv(inv.CACHE_ENV_VAR, str(env))
    with pytest.raises(CapabilityError, match=name):
        basic_invariants(name, cache_dir=cache)
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["cache", "env"]


def test_h4_numeric_invariance(basis_cache, rs_cache, rng):
    b = basis_cache("H4")
    rs = rs_cache("H4")
    X = rng.normal(size=(20, 4))
    X /= np.linalg.norm(X, axis=1, keepdims=True)
    base = b.compiled.P(X)
    for w in rs.simple_reflections_f:
        moved = b.compiled.P(X @ w.T)
        assert np.allclose(moved, base, rtol=1e-9, atol=1e-12)


def test_cache_env_var_resolution(tmp_path, monkeypatch, basis_cache):
    """CHEVALLEY_CACHE_DIR takes precedence over the package data."""
    import chevalley.invariants as inv

    save_basis(basis_cache("H3"), tmp_path / "H3.json")
    monkeypatch.setenv(inv.CACHE_ENV_VAR, str(tmp_path))
    b = basic_invariants("H3")
    assert b.provenance.startswith("file:")
    # a corrupted file behind the env var is a hard integrity error
    doc = json.loads((tmp_path / "H3.json").read_text())
    doc["sha256"] = "0" * 64
    (tmp_path / "H3.json").write_text(json.dumps(doc))
    with pytest.raises(IntegrityError):
        basic_invariants("H3")


def _per_polynomial_reference(polys, X):
    """The evaluator's contract in plain numpy: x^p = x^(p//2) * x^(p - p//2)
    from x^0 = 1 and x^1 = x, a monomial as the product of its powers in
    variable order, and each value as acc = acc + c * m over the
    polynomial's terms in canonical order, starting from 0."""
    n = X.shape[1]
    top = max((max(e) for p in polys for e in p.terms), default=0)
    powers = [np.ones_like(X), X]
    for p in range(2, top + 1):
        powers.append(powers[p // 2] * powers[p - p // 2])
    cols = []
    for p in polys:
        acc = np.zeros(len(X))
        for e, c in p.canonical_terms():
            mono = powers[e[0]][:, 0]
            for v in range(1, n):
                mono = mono * powers[e[v]][:, v]
            acc = acc + float(c) * mono
        cols.append(acc)
    return np.stack(cols, -1)


def _scalar_diff(p, i):
    """Term-by-term derivative on Scalars, the reference for the kernel's."""
    return SparsePoly(p.nvars, {e[:i] + (e[i] - 1,) + e[i + 1:]: c * Scalar(e[i])
                                for e, c in p.terms.items() if e[i]})


def _exact_terms(p):
    return [(e, c.to_strings()) for e, c in p.canonical_terms()]


@pytest.mark.parametrize("name", [f"A{n}" for n in range(1, 7)] + [f"B{n}" for n in range(1, 5)]
                         + [f"D{n}" for n in range(2, 7)] + [f"I2:{p}" for p in range(3, 13)]
                         + ["H3", "H4", "F4"])
def test_kernel_diff_matches_scalar_reference(name, basis_cache):
    """The gradient rows, and on B3, H3 and F4 the second derivatives,
    equal the term-by-term derivatives coefficient for coefficient."""
    b = basis_cache(name)
    for p, row in zip(b.polys, b.gradients):
        for j, q in enumerate(row):
            assert _exact_terms(q) == _exact_terms(_scalar_diff(p, j))
            if name in ("B3", "H3", "F4"):
                for l in range(b.nvars):
                    assert _exact_terms(q.gradient()[l]) == _exact_terms(_scalar_diff(q, l))


@pytest.mark.parametrize("name", ["H4", "F4", "D6", "I2:7", "A4"])
def test_compiled_basis_matches_per_polynomial_reference(name, basis_cache, rng):
    b = basis_cache(name)
    cb, n, k = b.compiled, b.nvars, len(b.polys)
    grads = [g for p in b.polys for g in p.gradient()]
    hess = [[g.gradient() for g in p.gradient()] for p in b.polys]
    two_chunks = cb._g.chunk_rows(k * n) + 65
    for size in (0, 1, 65, two_chunks):
        X = rng.normal(size=(size, n))
        ref_p = _per_polynomial_reference(b.polys, X)
        ref_j = _per_polynomial_reference(grads, X).reshape(size, k, n)
        assert np.array_equal(cb.P(X), ref_p)
        assert np.array_equal(cb.J(X), ref_j)
        H = cb.hessians(X)
        for i in range(k):
            for j in range(n):
                ref_h = _per_polynomial_reference(hess[i][j], X)
                assert np.array_equal(H[:, i, j, j:], ref_h[:, j:])
                assert np.array_equal(H[:, i, j:, j], ref_h[:, j:])
        P, J, H1 = cb.evaluate(X, hess=True)
        assert np.array_equal(P, ref_p)
        assert np.array_equal(J, ref_j)
        assert np.array_equal(H1, H)


def test_compiled_j_memory(basis_cache, rng):
    """H4's J at 2180 rows, the batch of the certify benchmark's H4
    calibration, traces ~3.9 MiB in chunks whose monomials and gathered
    factor hold CHUNK_VALUES = 2^18 values together, ~5.9 MiB when the
    monomials alone fill 2^18 and ~18 MiB when they fill 2^20."""
    import tracemalloc

    cb = basis_cache("H4").compiled
    X = rng.normal(size=(2180, 4))
    cb.J(X[:1])   # the coefficient matrix is built once, on first use
    tracemalloc.start()
    try:
        J = cb.J(X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert J.shape == (2180, 4, 4) and np.isfinite(J).all()
    assert peak < 5 * 2**20


def test_h4_face_batch_does_not_depend_on_its_chunks(basis_cache, rng, monkeypatch):
    """H4's J on a face batch of 100 rows runs in three chunks and gives
    the bits of one-row chunks and of a single chunk."""
    cb = basis_cache("H4").compiled
    X = rng.normal(size=(100, 4))
    J = cb.J(X)
    assert -(-100 // cb._g.chunk_rows(16)) == 3
    for chunk_values in (1, 2 * 100 * cb._g.ends[16]):
        monkeypatch.setattr(poly, "CHUNK_VALUES", chunk_values)
        assert np.array_equal(cb.J(X), J)


@pytest.mark.parametrize("name", ["H4", "D6", "A4"])
def test_compiled_basis_prefixes_and_symmetry(name, basis_cache, rng):
    b = basis_cache(name)
    cb = b.compiled
    X = rng.normal(size=(40, b.nvars))
    P, J, H = cb.P(X), cb.J(X), cb.hessians(X)
    assert np.array_equal(H, np.swapaxes(H, -1, -2))
    for k in range(1, len(b.polys) + 1):
        assert np.array_equal(cb.P(X, k), P[:, :k])
        assert np.array_equal(cb.J(X, k), J[:, :k])
        assert np.array_equal(cb.hessians(X, k), H[:, :k])


EVERY_TYPE = ["A1", "A2", "A3", "A4", "A5", "B1", "B2", "B3", "B4",
              "D2", "D3", "D4", "D5", "D6", "I2:3", "I2:5", "I2:7", "I2:12",
              "G2", "H3", "F4", "H4"]


@pytest.mark.parametrize("name", EVERY_TYPE)
def test_chunk_rows_fit_the_budget(name, basis_cache):
    """A chunk's two (M, rows) arrays, its monomials and the factor being
    gathered into them, hold at most CHUNK_VALUES values together, with as
    many rows as fit, or the chunk is one row."""
    cb = basis_cache(name).compiled
    for table in (cb._p, cb._g, cb._hess):
        for count, ends in enumerate(table.ends):
            rows = table.chunk_rows(count)
            assert rows == 1 or 2 * ends * rows <= poly.CHUNK_VALUES
            assert ends == 0 or 2 * ends * (rows + 1) > poly.CHUNK_VALUES


@pytest.mark.parametrize("name", EVERY_TYPE)
def test_evaluate_matches_separate_calls(name, basis_cache, rng, monkeypatch):
    """One power table per batch reproduces P, J and the Hessians bit for
    bit, with each table cut into chunks at its own row boundaries."""
    b = basis_cache(name)
    cb = b.compiled
    X = rng.normal(size=(200, b.nvars))
    # default chunks; one-row chunks for every table; 128-row chunks for P
    for chunk_values in (poly.CHUNK_VALUES, 1, 2 * 128 * cb._p.ends[-1]):
        monkeypatch.setattr(poly, "CHUNK_VALUES", chunk_values)
        for size in (0, 1, 2, 65, 200):
            Xs = X[:size]
            for k in range(1, cb.k + 1):
                P, J, H = cb.evaluate(Xs, k, hess=True)
                assert P.shape == (size, k) and J.shape == (size, k, b.nvars)
                assert np.array_equal(P, cb.P(Xs, k))
                assert np.array_equal(J, cb.J(Xs, k))
                assert np.array_equal(H, cb.hessians(Xs, k))
                P2, J2 = cb.evaluate(Xs, k)
                assert np.array_equal(P2, P) and np.array_equal(J2, J)


@pytest.mark.parametrize("name", EVERY_TYPE)
def test_evaluation_does_not_depend_on_batch_position(name, basis_cache, rng, monkeypatch):
    """A row's P, J and Hessians are the same bits batched, row by row, in
    reversed order and with one row per chunk."""
    cb = basis_cache(name).compiled
    X = rng.normal(size=(70, cb.n)) * np.exp(rng.uniform(-3, 3, size=(70, 1)))
    P, J, H = cb.evaluate(X, hess=True)
    assert np.array_equal(cb.P(X), P) and np.array_equal(cb.J(X), J)
    assert np.array_equal(cb.hessians(X), H)
    rows = [cb.evaluate(x[None, :], hess=True) for x in X]
    for got, want in zip(zip(*rows), (P, J, H)):
        assert np.array_equal(np.concatenate(got), want)
    for got, want in zip(cb.evaluate(X[::-1], hess=True), (P, J, H)):
        assert np.array_equal(got[::-1], want)
    monkeypatch.setattr(poly, "CHUNK_VALUES", 1)
    assert cb._hess.chunk_rows(cb.k * cb.n * (cb.n + 1) // 2) == 1
    for got, want in zip(cb.evaluate(X, hess=True), (P, J, H)):
        assert np.array_equal(got, want)


def _gamma(m):
    u = 2.0 ** -53
    return m * u / (1 - m * u)


def _dyadic(v):
    """A float as (a, s) with v = a / 2^s."""
    a, d = float(v).as_integer_ratio()
    return a, d.bit_length() - 1


@pytest.mark.parametrize("name", ["B3", "A4", "D6", "H3", "F4", "H4"])
def test_evaluation_within_recursive_summation_bound(name, basis_cache):
    """Against exact evaluation of the float-coefficient tables: a value of
    T terms of total degree <= d in n variables is off by at most
    gamma_{T+d+n} * sum |c m| (x^p takes p - 1 rounded products, a monomial
    n - 1 more, the coefficient one and the sum T - 1; Higham, Accuracy and
    Stability of Numerical Algorithms, ch. 3-4).  The exact sums are
    integers over one power of two."""
    b = basis_cache(name)
    cb, n = b.compiled, b.nvars
    X = np.random.default_rng(41).normal(size=(40, n))
    points = []  # (powers a_v^p of the numerators over 2^s, s) per point
    for x in X:
        parts = [_dyadic(v) for v in x]
        s = max(t for _, t in parts)
        points.append(([[(a << s - t) ** p for p in range(b.degrees[-1] + 1)]
                        for a, t in parts], s))
    grads = [g for p in b.polys for g in p.gradient()]
    for polys, got in ((b.polys, cb.P(X)), (grads, cb.J(X).reshape(len(X), -1))):
        for q, p in enumerate(polys):
            terms = [(e, *_dyadic(c)) for e, c in p.canonical_terms()]
            bound = Fraction(_gamma(len(terms) + max(p.degree(), 0) + n))
            for (powers, s), value in zip(points, got[:, q]):
                top = max(t + s * sum(e) for e, _, t in terms)
                exact = [c * math.prod(powers[v][e[v]] for v in range(n)) << top - t - s * sum(e)
                         for e, c, t in terms]
                err = abs(Fraction(value) - Fraction(sum(exact), 1 << top))
                assert err <= bound * Fraction(sum(map(abs, exact)), 1 << top)


def test_evaluate_rejects_bad_shapes(basis_cache):
    cb = basis_cache("B3").compiled
    with pytest.raises(UsageError):
        cb.evaluate(np.zeros(3))
    with pytest.raises(UsageError):
        cb.evaluate(np.zeros((2, 4)))
    with pytest.raises(UsageError):
        cb.evaluate(np.zeros((2, 3)), 4)
