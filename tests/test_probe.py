"""Fiber sampling, connectivity, value intervals, Lagrange critical points."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import connected_components
from scipy.spatial import cKDTree

from chevalley.errors import UsageError
from chevalley.probe import (
    FiberSample,
    _project_batch,
    critical_points,
    fiber_connectivity,
    fiber_value_interval,
    random_regular_target,
    sample_fiber,
)


def _fiber_point(b, rs, k, m, x0):
    """One Newton projection onto P_k = m from x0, reflected into the chamber."""
    X, ok = _project_batch(b.compiled, k, m, np.asarray(x0, dtype=float)[None, :])
    assert ok[0]
    return rs.to_chamber(X[0])


def test_project_batch_b2_circle(basis_cache, rs_cache):
    b, rs = basis_cache("B2"), rs_cache("B2")
    x = _fiber_point(b, rs, 1, [1.0], [0.9, 0.1])
    assert abs(np.linalg.norm(x) - 1.0) < 1e-12
    assert rs.chamber_contains(x, tol=1e-12)
    # k = 2: the target (1, 1/4) pins the diagonal point
    x = _fiber_point(b, rs, 2, [1.0, 0.25], [0.6, 0.8])
    assert np.allclose(x, [np.sqrt(0.5), np.sqrt(0.5)], atol=1e-5)


def test_project_batch_norm_constraint(basis_cache, rs_cache, rng):
    """For p1 = |x|^2 any solution satisfies |x| = sqrt(m1)."""
    for name in ("B3", "H3"):
        b, rs = basis_cache(name), rs_cache(name)
        for m1 in (0.5, 2.0):
            x = _fiber_point(b, rs, 1, [m1], rng.normal(size=rs.n))
            assert abs(np.linalg.norm(x) - np.sqrt(m1)) < 1e-10


def test_project_batch_unreachable_target_not_ok(basis_cache):
    """|x|^2 = -1 has no real solution: the convergence mask is False."""
    cb = basis_cache("B2").compiled
    _, ok = _project_batch(cb, 1, [-1.0], np.array([[0.5, 0.1]]))
    assert ok.tolist() == [False]


def test_b2_arc_sample_against_parameterization(basis_cache, rs_cache):
    """The chamber fiber {p1=1} of B2 is the arc angle in [0, pi/4]."""
    b, rs = basis_cache("B2"), rs_cache("B2")
    fs = sample_fiber(b, rs, 1, [1.0], n_points=800, seed=12)
    assert len(fs.points) > 300
    angles = np.arctan2(fs.points[:, 1], fs.points[:, 0])
    assert np.all(angles >= -1e-9) and np.all(angles <= np.pi / 4 + 1e-9)
    assert np.all(np.abs(np.linalg.norm(fs.points, axis=1) - 1.0) < 1e-9)
    # the arc is filled: largest angular gap shrinks well below the arc length
    gaps = np.diff(np.sort(angles))
    assert np.max(gaps, initial=0.0) < 0.05 * (np.pi / 4)
    # endpoints reached (wall points are the extreme values)
    assert np.min(angles) < 1e-3 and np.max(angles) > np.pi / 4 - 1e-3


def test_empty_fiber_for_unreachable_target(basis_cache, rs_cache):
    fs = sample_fiber(basis_cache("B2"), rs_cache("B2"), 1, [-1.0], n_points=50, seed=1)
    assert fs.empty


def test_sample_fiber_reproducible_bytes(basis_cache, rs_cache):
    b, rs = basis_cache("B3"), rs_cache("B3")
    one = sample_fiber(b, rs, 2, [1.0, 0.2], n_points=300, seed=9)
    two = sample_fiber(b, rs, 2, [1.0, 0.2], n_points=300, seed=9)
    assert one.points.tobytes() == two.points.tobytes()
    three = sample_fiber(b, rs, 2, [1.0, 0.2], n_points=300, seed=10)
    assert three.points.tobytes() != one.points.tobytes()


def test_connectivity_single_point_and_clusters(basis_cache):
    b = basis_cache("B2")
    one = FiberSample("B2", 1, np.array([1.0]), np.array([[1.0, 0.0]]), 0, 0.0)
    assert fiber_connectivity(one) == 1
    # two artificial clusters separated by a void
    rng = np.random.default_rng(3)
    a = rng.normal(size=(40, 2)) * 0.01
    c = rng.normal(size=(40, 2)) * 0.01 + 10.0
    two = FiberSample("B2", 1, np.array([1.0]), np.concatenate([a, c]), 0, 0.0)
    assert fiber_connectivity(two, radius=1.0) == 2
    # a chain of points 0.94 apart joins the clusters only transitively
    bridge = np.linspace(0.0, 10.0, 16)[1:-1, None] * np.ones(2)
    pts = np.concatenate([a, c, bridge])[rng.permutation(94)]
    joined = FiberSample("B2", 1, np.array([1.0]), pts, 0, 0.0)
    assert fiber_connectivity(joined, radius=1.0) == 1
    assert fiber_connectivity(joined, radius=0.5) == 16
    empty = FiberSample("B2", 1, np.array([1.0]), np.zeros((0, 2)), 0, 0.0)
    with pytest.raises(UsageError):
        fiber_connectivity(empty)


def test_b2_arc_connectivity(basis_cache, rs_cache):
    fs = sample_fiber(basis_cache("B2"), rs_cache("B2"), 1, [1.0], n_points=500, seed=4)
    assert fiber_connectivity(fs) == 1


def test_b2_critical_points_closed_form(basis_cache, rs_cache, strata_cache):
    """Exactly two critical points on {p1 = 1}: the wall points, with values
    0 and 1/4, multiplier 1/2 at the maximum, and definite projected
    Hessians (+2 and -2)."""
    b, rs = basis_cache("B2"), rs_cache("B2")
    cps = critical_points(b, rs, 1, [1.0], seed=3, strata=strata_cache("B2"))
    assert len(cps) == 2
    lo, hi = cps
    assert abs(lo.value - 0.0) < 1e-10 and abs(hi.value - 0.25) < 1e-10
    assert np.allclose(lo.x, [1.0, 0.0], atol=1e-8)
    assert np.allclose(hi.x, [np.sqrt(0.5), np.sqrt(0.5)], atol=1e-8)
    assert abs(hi.multipliers[0] - 0.5) < 1e-8
    assert abs(lo.multipliers[0]) < 1e-8
    for cp in cps:
        assert cp.stratum_dim == 1 and not cp.anomaly
        assert cp.residual <= 1e-9
        assert np.min(np.abs(cp.hessian_eigs)) > 1e-6
        assert cp.bordering_minor_max <= 1e-8
    assert abs(lo.hessian_eigs[0] - 2.0) < 1e-6
    assert abs(hi.hessian_eigs[0] + 2.0) < 1e-6
    with pytest.raises(UsageError):
        critical_points(b, rs, 1, [1.0, 2.0], seed=3, strata=strata_cache("B2"))


def test_b2_critical_values_bracket_fiber(basis_cache, rs_cache):
    b, rs = basis_cache("B2"), rs_cache("B2")
    fs = sample_fiber(b, rs, 1, [1.0], n_points=1500, seed=5)
    lo, hi, gap = fiber_value_interval(fs, b, 1)
    assert abs(lo - 0.0) < 1e-6 and abs(hi - 0.25) < 1e-6
    assert gap < 0.05


def test_newton_family_critical_points_on_walls(basis_cache, rs_cache, strata_cache):
    """S3 Newton: critical points of p2 on {p1 = c} lie on the diagonal
    walls x_i = x_j (brute-force check over the fiber segment)."""
    b, rs = basis_cache("A3"), rs_cache("A3")
    cps = critical_points(b, rs, 1, [0.9], seed=8, strata=strata_cache("A3"))
    assert cps
    for cp in cps:
        x = cp.x
        gaps = [abs(x[0] - x[1]), abs(x[1] - x[2]), abs(x[0] - x[2])]
        assert min(gaps) < 1e-7
        assert not cp.anomaly
    # brute force on the fiber: where the constrained gradient vanishes
    # p2 on {sum x = c} along directions orthogonal to (1,1,1)
    vals = [cp.value for cp in cps]
    t = np.linspace(-2, 2, 4001)
    u = np.array([1.0, -1.0, 0.0]) / np.sqrt(2)
    base = np.array([0.3, 0.3, 0.3])
    curve = base[None, :] + t[:, None] * u[None, :]
    p2 = np.sum(curve ** 2, axis=1)
    assert abs(np.min(p2) - min(vals)) < 1e-3


def test_fiber_interval_gap_refines(basis_cache, rs_cache):
    b, rs = basis_cache("B3"), rs_cache("B3")
    m = [1.0, 0.25]
    gaps = []
    for n in (400, 800, 1600):
        fs = sample_fiber(b, rs, 2, m, n_points=n, seed=21)
        _, _, gap = fiber_value_interval(fs, b, 2)
        gaps.append(gap)
    assert gaps[-1] <= gaps[0]
    assert gaps[-1] < 0.05


def test_regular_target_margins(basis_cache, rs_cache):
    b, rs = basis_cache("H3"), rs_cache("H3")
    for seed in range(5):
        m, x = random_regular_target(b, rs, 2, seed)
        assert np.min(rs.wall_distances(x)) >= 0.05 * np.linalg.norm(x)
        assert np.allclose(b.compiled.P(x[None, :], 2)[0], m)
    # the H4 chamber is too narrow for the default margin: it is clamped to
    # half the inradius 1/|A^+ 1| of the chamber on the unit sphere
    b, rs = basis_cache("H4"), rs_cache("H4")
    A = rs.simple_unit_f
    inradius = 1.0 / np.linalg.norm(np.linalg.pinv(A) @ np.ones(len(A)))
    assert 0.0390 < inradius < 0.0392
    for k in (1, 2, 3):
        m, x = random_regular_target(b, rs, k, seed=k)
        assert np.min(rs.wall_distances(x)) >= 0.5 * inradius * np.linalg.norm(x)
        assert np.allclose(b.compiled.P(x[None, :], k)[0], m)


def test_critical_point_bordering_minors_vanish(basis_cache, rs_cache, strata_cache):
    for name, k in (("B3", 1), ("B3", 2), ("A4", 2)):
        b, rs = basis_cache(name), rs_cache(name)
        m, _ = random_regular_target(b, rs, k, seed=31)
        cps = critical_points(b, rs, k, m, seed=6, strata=strata_cache(name))
        assert cps, f"no critical points found for {name} k={k}"
        for cp in cps:
            assert cp.bordering_minor_max <= 1e-8
            assert not cp.anomaly, cp.anomaly_reason


def isotropy_components(rs, stratum):
    """Orthonormal bases of the irreducible blocks of the isotropy group.

    Isotropy roots are grouped by the transitive closure of non-orthogonality;
    each group spans one invariant subspace of the isotropy action on the
    normal space of the stratum.
    """
    roots = rs.positive_f[list(stratum.isotropy)]
    if len(roots) == 0:
        return []
    # components are labelled in order of their smallest member
    n_comp, labels = connected_components(np.abs(roots @ roots.T) > 1e-10,
                                          directed=False)
    out = []
    for c in range(n_comp):
        sub = roots[labels == c]
        u, sv, _ = np.linalg.svd(sub.T, full_matrices=False)
        r = int(np.sum(sv > 1e-10 * sv[0]))
        out.append(u[:, :r])
    return out


def test_hessian_block_structure(basis_cache, rs_cache, strata_cache):
    """At a critical point the projected Hessian decomposes over the
    isotropy components, each block definite."""
    b, rs = basis_cache("B3"), rs_cache("B3")
    strata = strata_cache("B3")
    cps = critical_points(b, rs, 1, [1.0], seed=13, strata=strata)
    assert cps
    for cp in cps:
        st = next(s for s in strata if s.stratum_id == cp.stratum_id)
        comps = isotropy_components(rs, st)
        assert comps
        H = b.compiled.hessians(cp.x[None, :], 2)[0]
        Hl = H[1] - cp.multipliers[0] * H[0]
        for V in comps:
            block = V.T @ Hl @ V
            eigs = np.linalg.eigvalsh(block)
            assert np.all(eigs > 1e-6) or np.all(eigs < -1e-6)
        # cross blocks vanish
        for i in range(len(comps)):
            for j in range(i + 1, len(comps)):
                cross = comps[i].T @ Hl @ comps[j]
                assert np.max(np.abs(cross)) < 1e-8


def test_fiber_sample_invariants(basis_cache, rs_cache):
    """Every stored point is inside the chamber with a small residual."""
    b, rs = basis_cache("A4"), rs_cache("A4")
    m, hint = random_regular_target(b, rs, 2, seed=3)
    fs = sample_fiber(b, rs, 2, m, n_points=500, seed=3, x_hint=hint)
    assert not fs.empty
    assert fs.residual_max <= 1e-9 * (1 + np.max(np.abs(m)))
    assert np.all(rs.chamber_contains(fs.points, tol=1e-8))


@pytest.mark.parametrize("name,k,m", [
    ("B3", 1, [1.0]),
    ("B3", 2, [1.0, 0.3]),
    ("A3", 2, [0.5, 1.0]),
    ("A4", 2, [0.5, 1.0]),
])
def test_critical_values_bracket_fiber_interval(name, k, m, basis_cache, rs_cache,
                                                strata_cache, monkeypatch):
    """The sampled value interval endpoints match the extreme critical
    values (from 192 starts) to 1e-6."""
    import chevalley.probe as probe

    b, rs = basis_cache(name), rs_cache(name)
    monkeypatch.setattr(probe, "CRITICAL_MULTISTARTS", 192)
    cps = critical_points(b, rs, k, m, seed=40, strata=strata_cache(name))
    assert cps
    values = [cp.value for cp in cps]
    fs = sample_fiber(b, rs, k, m, n_points=1500, seed=41)
    lo, hi, _ = fiber_value_interval(fs, b, k)
    assert abs(lo - min(values)) < 1e-6
    assert abs(hi - max(values)) < 1e-6


def test_regular_target_is_first_passing_draw(basis_cache, rs_cache, monkeypatch):
    """Drawing in blocks gives the target of drawing all 500 candidates up
    front (the interleaved normal/uniform order), bit for bit.  A margin of
    1.0, set on the module, is clamped to half the inradius; at these seeds
    the first block of 16 has no passing candidate (D6 seed 0: the first
    two blocks)."""
    import chevalley.probe as probe

    cases = [("B3", 2, 0, 0.05), ("B3", 2, 19, 1.0), ("A4", 3, 3, 1.0),
             ("H3", 1, 4, 0.05), ("F4", 2, 3, 1.0), ("H4", 3, 14, 1.0),
             ("D6", 2, 0, 1.0)]
    for name, k, seed, margin in cases:
        b, rs = basis_cache(name), rs_cache(name)
        n = b.nvars
        A = rs.simple_unit_f
        inradius = 1.0 / np.linalg.norm(np.linalg.pinv(A) @ np.ones(len(A)))
        rng = np.random.Generator(np.random.Philox(key=seed))
        X = np.empty((500, n))
        for j in range(500):
            x = rng.normal(size=n)
            X[j] = x / np.linalg.norm(x) * rng.uniform(0.4, 1.0) ** (1.0 / n)
        margin_eff = min(margin, 0.5 * inradius)
        passing = [i for i, x in enumerate(rs.to_chamber(X))
                   if np.min(rs.wall_distances(x)) >= margin_eff * np.linalg.norm(x)]
        assert margin == 0.05 or passing[0] >= 16
        want = rs.to_chamber(X)[passing[0]]
        monkeypatch.setattr(probe, "TARGET_MARGIN", margin)
        m, x = random_regular_target(b, rs, k, seed)
        assert np.array_equal(x, want)
        assert np.array_equal(m, b.compiled.P(want[None, :], k)[0])


def test_critical_points_survive_singular_multiplier_solve(
        basis_cache, rs_cache, strata_cache, monkeypatch):
    """The first solve after projection falls back to pinv: for k >= 2 the
    initial multiplier solve, for k = 1 (a division there) a Newton step."""
    import chevalley.probe as probe

    project, solve = probe._project_batch, np.linalg.solve
    for name, k, m in [("B2", 1, [1.0]), ("B3", 2, [1.0, 0.3])]:
        b, rs = basis_cache(name), rs_cache(name)
        want = critical_points(b, rs, k, m, seed=3, strata=strata_cache(name))
        state = {"projected": False, "raised": False}

        def projected(*args, **kwargs):
            out = project(*args, **kwargs)
            state["projected"] = True
            return out

        def singular_once(a, b_):
            if state["projected"] and not state["raised"]:
                state["raised"] = True
                raise np.linalg.LinAlgError("Singular matrix")
            return solve(a, b_)

        with monkeypatch.context() as mp:
            mp.setattr(probe, "_project_batch", projected)
            mp.setattr(np.linalg, "solve", singular_once)
            got = critical_points(b, rs, k, m, seed=3, strata=strata_cache(name))
        assert state["raised"]
        assert len(got) == len(want) >= 2
        for g, w in zip(got, want):
            assert np.allclose(g.x, w.x, atol=1e-9) and abs(g.value - w.value) < 1e-9


@pytest.mark.parametrize("name,k", [("B3", 2), ("F4", 2), ("A4", 3), ("H3", 2), ("D5", 2)])
def test_critical_points_do_not_depend_on_their_batch(name, k, basis_cache, rs_cache,
                                                      strata_cache, monkeypatch):
    """Each Newton row stops on its own residual, so a point found from the
    first j starts is found bit for bit by the run with 96 starts, whose
    Philox draw begins with those j starts (the `morse` seed-1 targets)."""
    import chevalley.probe as probe

    b, rs, strata = basis_cache(name), rs_cache(name), strata_cache(name)
    m, _ = random_regular_target(b, rs, k, 1 + 17 * k)

    def points(j):
        monkeypatch.setattr(probe, "CRITICAL_MULTISTARTS", j)
        cps = critical_points(b, rs, k, m, seed=1, strata=strata)
        return [(cp.x.tobytes(), cp.multipliers.tobytes(), cp.value) for cp in cps]

    full = set(points(96))
    for j in (1, 2, 3, 4, 8):
        found = points(j)
        assert found and set(found) <= full, j


def test_critical_points_infinite_step_raises_no_warning(basis_cache, rs_cache, strata_cache):
    """D5 k=2 at seed 3 (`chevalley morse --type D5 --seed 3`) meets a Newton
    step of infinite length; that row stops as failed before the step cap
    would divide by the length."""
    b, rs = basis_cache("D5"), rs_cache("D5")
    m, _ = random_regular_target(b, rs, 2, 37)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cps = critical_points(b, rs, 2, m, seed=3, strata=strata_cache("D5"))
    assert cps


def test_newton_steps_only_rows_that_move():
    """Rows are z -> 0 with residual z: a row that passes stops converged
    with no step asked, even where its step would be NaN; a row with a
    non-finite residual, one that runs away and one whose step is NaN stop
    as failed; the row at 1 takes one step and converges."""
    import chevalley.probe as probe

    asked = []

    def system(Za):
        def steps(rows):
            asked.extend(Za[rows, 0].tolist())
            return np.where((Za[rows] == 0) | (Za[rows] == 2), np.nan, Za[rows])
        return Za.copy(), steps

    Z, ok = probe._newton(system, [[0.0], [1.0], [np.inf], [1e3], [2.0]], 1e-12, 10,
                          cap=lambda Za: 1e9, runaway=lambda Za: np.abs(Za[:, 0]) > 100,
                          close_tol=1e-12)
    assert ok.tolist() == [True, True, False, False, False]
    assert Z[:, 0].tolist() == [0.0, 0.0, np.inf, 1e3, 2.0]
    assert sorted(asked) == [1.0, 2.0]


def test_newton_closes_the_rows_its_loop_leaves():
    """Rows are z -> 0 with residual z and half steps, two iterations: the
    row at 1 ends at 0.25, within close_tol, and converges; the row at 4
    ends at 1 and the NaN row stays NaN, so neither does; the closing call
    evaluates those three rows only, never the row at 0 that the loop
    converged."""
    import chevalley.probe as probe

    calls = []

    def system(Za):
        calls.append(Za[:, 0].tolist())
        return Za.copy(), lambda rows: 0.5 * Za[rows]

    Z, ok = probe._newton(system, [[0.0], [1.0], [4.0], [np.nan]], 1e-12, 2,
                          cap=lambda Za: 1e9, runaway=lambda Za: np.zeros(len(Za), bool),
                          close_tol=0.3)
    assert ok.tolist() == [True, True, False, False]
    assert Z[:3, 0].tolist() == [0.0, 0.25, 1.0] and np.isnan(Z[3, 0])
    assert len(calls) == 3 and len(calls[-1]) == 3
    assert calls[-1][:2] == [0.25, 1.0] and np.isnan(calls[-1][2])


def test_newton_asks_no_step_for_a_row_that_stops(basis_cache, rs_cache, strata_cache,
                                                  monkeypatch):
    """A spy on every system of the fiber walk and the Lagrange solve: each
    row handed to the steps has a finite residual above tol and has not run
    away, and rows that pass are never handed over."""
    import chevalley.probe as probe

    newton, handed, active = probe._newton, [0], [0]

    def spy(system, Z, tol, max_iter, cap, runaway, close_tol):
        def spied(Za):
            R, steps = system(Za)
            active[0] += len(Za)

            def spied_steps(rows):
                r = np.max(np.abs(R[rows]), axis=1)
                assert np.all(np.isfinite(r) & (r > tol)) and not np.any(runaway(Za[rows]))
                handed[0] += len(rows)
                return steps(rows)
            return R, spied_steps
        return newton(spied, Z, tol, max_iter, cap, runaway, close_tol)

    monkeypatch.setattr(probe, "_newton", spy)
    b, rs = basis_cache("B3"), rs_cache("B3")
    for k in (1, 2):
        m, _ = random_regular_target(b, rs, k, 11)
        sample_fiber(b, rs, k, m, n_points=200, seed=2)
        critical_points(b, rs, k, m, seed=2, strata=strata_cache("B3"))
    assert 0 < handed[0] < active[0]


# -- the solver loops against the per-call loops they replaced ----------------
# Reference copies of the Newton projection, the tangent projection and the
# extreme-point polish as they were when each of P, J and the Hessians was its
# own evaluator call.  The fused loops must give the same floats.


def _solve_reference(A, b):
    try:
        return np.linalg.solve(A, b)
    except np.linalg.LinAlgError:
        return np.linalg.pinv(A) @ b


def _gram_solve_reference(J, rhs):
    return _solve_reference(J @ np.swapaxes(J, 1, 2) + 1e-300 * np.eye(J.shape[1]),
                            rhs[..., None])


def _project_batch_reference(cb, k, m, X, tol=1e-12, max_iter=60):
    m = np.asarray(m, dtype=float)
    X = np.array(X, dtype=float)
    scale = 1.0 + float(np.max(np.abs(m)))
    active = np.ones(len(X), dtype=bool)
    for _ in range(max_iter):
        if not np.any(active):
            break
        Xa = X[active]
        R = cb.P(Xa, k) - m
        bad = ~np.all(np.isfinite(R), axis=1) | (np.max(np.abs(Xa), axis=1) > 1e8)
        done = np.max(np.abs(R), axis=1) <= tol * scale
        J = cb.J(Xa, k)
        step = np.squeeze(np.swapaxes(J, 1, 2) @ _gram_solve_reference(J, R), axis=-1)
        norms = np.linalg.norm(step, axis=1, keepdims=True)
        cap = 0.5 * (1.0 + np.linalg.norm(Xa, axis=1, keepdims=True))
        step = np.where(norms > cap, step * cap / np.maximum(norms, 1e-300), step)
        move = ~(done | bad)
        Xa[move] -= step[move]
        X[active] = Xa
        idx = np.flatnonzero(active)
        active[idx[done | bad]] = False
    R = cb.P(X, k) - m
    ok = np.all(np.isfinite(R), axis=1) & (np.max(np.abs(R), axis=1) <= 10 * tol * scale)
    return X, ok


def _tangent_directions_reference(cb, k, X, G):
    J = cb.J(X, k)
    alpha = _gram_solve_reference(J, np.einsum("bkn,bn->bk", J, G))
    T = G - np.squeeze(np.swapaxes(J, 1, 2) @ alpha, axis=-1)
    norms = np.linalg.norm(T, axis=1, keepdims=True)
    return T / np.maximum(norms, 1e-300)


def _extend_extremes_reference(cb, k, m, pts, s, cap):
    vals = cb.P(pts, k + 1)[:, k]
    chosen = pts[[int(np.argmin(vals)), int(np.argmax(vals))]].copy()
    signs = np.array([-1.0, 1.0])
    out = [chosen.copy()]
    step = 0.2 * s
    for _ in range(40):
        G = cb.J(chosen, k + 1)[:, k, :]
        T = _tangent_directions_reference(cb, k, chosen, G * signs[:, None])
        cand = chosen + step * T
        cand, ok = _project_batch_reference(cb, k, m, cand, max_iter=25)
        v_old = cb.P(chosen, k + 1)[:, k]
        v_new = cb.P(cand, k + 1)[:, k]
        better = ok & (signs * (v_new - v_old) > 0)
        better &= np.linalg.norm(cand, axis=1) <= cap
        chosen[better] = cand[better]
        if not np.any(better):
            step *= 0.5
            if step < 1e-9 * s:
                break
        out.append(chosen.copy())
    return np.concatenate(out, axis=0)


REFERENCE_TYPES = ["B2", "B3", "A4", "H3"]


def _starts(b, m, size, rng):
    s = float(np.sqrt(m[0])) if b.degrees[0] == 2 else 1.0
    return rng.normal(size=(size, b.nvars)) * s


@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3, 1e-300, 1e300])
def test_gram_solve_matches_reference(scale):
    from chevalley.probe import _gram_solve

    rng = np.random.default_rng(5)
    for k in (1, 2, 3):
        J = rng.normal(size=(300, k, 4)) * scale
        J[:5] = 0.0
        rhs = rng.normal(size=(300, k)) * scale
        assert np.array_equal(_gram_solve(J, rhs), _gram_solve_reference(J, rhs),
                              equal_nan=True)


def test_singular_matrix_leaves_the_other_rows_alone():
    """With one singular matrix in a batch, every other row is its own
    solve bit for bit, as it is in a batch without the singular one, and
    only the singular row gets the pseudo-inverse."""
    from chevalley.probe import _solve

    rng = np.random.default_rng(17)
    A, b = rng.normal(size=(40, 5, 5)), rng.normal(size=(40, 5, 1))
    A[13, :, 2] = 0.0
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(A[13], b[13])
    got = _solve(A, b)
    for i in range(40):
        want = np.linalg.pinv(A[i]) @ b[i] if i == 13 else np.linalg.solve(A[i], b[i])
        assert np.array_equal(got[i], want)
    rest = np.arange(40) != 13
    assert np.array_equal(got[rest], np.linalg.solve(A[rest], b[rest]))


@pytest.mark.parametrize("n", range(1, 7))
def test_first_rows_match_unique(n):
    """The lexsort dedup keeps the first occurrence of each grid row, in
    index order, as sorting np.unique's first indices does."""
    from chevalley.probe import _first_rows

    rng = np.random.default_rng(n)
    grids = [
        rng.integers(-2, 3, size=(500, n)),                   # many repeats
        rng.integers(-2**62, 2**62, size=(500, n)),           # none
        rng.integers(-5, 5, size=(1, n)),
        np.zeros((0, n), dtype=np.int64),
    ]
    grids.append(grids[1][rng.integers(0, 500, size=800)])    # repeats far apart
    for q in grids:
        want = np.sort(np.unique(q, axis=0, return_index=True)[1])
        assert np.array_equal(_first_rows(q), want)


@pytest.mark.parametrize("name", REFERENCE_TYPES)
def test_project_batch_matches_reference_loop(name, basis_cache, rs_cache):
    b, rs = basis_cache(name), rs_cache(name)
    cb = b.compiled
    paths = set()
    for k in range(1, b.nvars + 1):
        for seed in (1, 2, 3):
            m, _ = random_regular_target(b, rs, k, 40 + 7 * seed + k)
            rng = np.random.default_rng(seed)
            X0 = _starts(b, m, 48, rng)
            # 3 iterations leave rows active; 60 converge almost all of them
            for max_iter in (3, 25, 60):
                got = _project_batch(cb, k, m, X0, max_iter=max_iter)
                want = _project_batch_reference(cb, k, m, X0, max_iter=max_iter)
                assert np.array_equal(got[0], want[0], equal_nan=True)
                assert np.array_equal(got[1], want[1])
                paths.add((max_iter, bool(np.all(got[1]))))
            # a batch that converges on every row skips the closing check
            X1, ok = _project_batch(cb, k, m, X0)
            X1 = X1[ok] + 1e-3 * rng.normal(size=X1[ok].shape)
            got = _project_batch(cb, k, m, X1)
            want = _project_batch_reference(cb, k, m, X1)
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
            paths.add(("converged", bool(np.all(got[1]))))
    # rows left active after 3 iterations, and batches that all converge
    assert (3, False) in paths and ("converged", True) in paths


def test_project_batch_far_starts_match_reference(basis_cache, rs_cache):
    """A4 k=1: the first invariant is linear, so a start beyond |x| > 1e8 can
    already solve P_1 = m exactly.  Such a row is `bad` and `done` at once,
    and its verdict must still come from the closing check."""
    b, rs = basis_cache("A4"), rs_cache("A4")
    cb = b.compiled
    rng = np.random.default_rng(9)
    # dyadic entries: the sums below are exact, so the residual is 0
    x0 = np.round(rng.normal(size=4) * 2**20) / 2**20
    m = cb.P(x0[None, :], 1)[0]
    far = x0 + 2.0**30 * np.array([1.0, -1.0, 0.0, 0.0])
    assert cb.P(far[None, :], 1)[0, 0] == m[0]
    batches = [
        np.stack([far, far[::-1]]),                                    # only far rows
        np.concatenate([[far], _starts(b, [1.0], 20, rng)]),           # mixed
        np.concatenate([_starts(b, [1.0], 20, rng) * 1e9, [far]]),     # far, unsolved
        np.concatenate([[far], _starts(b, [1.0], 20, rng), [x0]]),
    ]
    for X0 in batches:
        for max_iter in (1, 60):
            got = _project_batch(cb, 1, m, X0, max_iter=max_iter)
            want = _project_batch_reference(cb, 1, m, X0, max_iter=max_iter)
            assert np.array_equal(got[0], want[0], equal_nan=True)
            assert np.array_equal(got[1], want[1])
    X, ok = _project_batch(cb, 1, m, np.stack([far, x0]))
    assert ok.tolist() == [True, True] and np.array_equal(X[0], far)


@pytest.mark.parametrize("name", REFERENCE_TYPES + ["D4", "F4"])
def test_extend_extremes_matches_reference_loop(name, basis_cache, rs_cache, monkeypatch):
    """The polish projects each chain's candidates at a step and its next 7
    halvings in one batch; it must give the serial loop's rows.  Three
    cases per fiber: the sampler's cap, a cap so tiny that every candidate
    is rejected by it until the step falls below 1e-9 s, and a first step
    300 times the sampler's, whose projections can fail."""
    from chevalley.probe import _extend_extremes, _fiber_scale

    b, rs = basis_cache(name), rs_cache(name)
    cb = b.compiled
    signs = np.array([-1.0, 1.0])
    tried = []

    def spy(*args, project=_project_batch_reference, **kwargs):
        tried.append(project(*args, **kwargs))
        return tried[-1]

    monkeypatch.setitem(globals(), "_project_batch_reference", spy)
    paths = set()
    for k in range(1, b.nvars):
        for seed in (4, 5):
            m, hint = random_regular_target(b, rs, k, 60 + 11 * seed + k)
            s = _fiber_scale(b, m, hint)
            rng = np.random.default_rng(seed)
            X0 = hint + 0.1 * s * rng.normal(size=(40, b.nvars))
            pts, ok = _project_batch(cb, k, m, X0)
            pts = pts[ok]
            for cap, scale in ((2.5, s), (1e-3, s), (2.5, 300 * s)):
                cap *= float(np.linalg.norm(hint))
                tried.clear()
                got = _extend_extremes(cb, k, m, pts, scale, cap)
                want = _extend_extremes_reference(cb, k, m, pts, scale, cap)
                assert np.array_equal(got, want)
                # replay the serial steps: the candidates each one read, and
                # the rows it kept
                rows = got.reshape(-1, 2, b.nvars)
                unmoved = np.zeros(2, dtype=int)    # halvings since a chain moved
                for (cand, ok), (old, new) in zip(tried, zip(rows, rows[1:])):
                    moved = np.any(old != new, axis=1)
                    gain = signs * (cb.P(cand, k + 1)[:, k] - cb.P(old, k + 1)[:, k]) > 0
                    paths.add(("failed projection", bool(np.any(~ok))))
                    paths.add(("cap rejection", bool(np.any(
                        ok & gain & (np.linalg.norm(cand, axis=1) > cap)))))
                    paths.add(("both improve", bool(np.all(moved))))
                    unmoved = np.where(moved, 0, unmoved + (not np.any(moved)))
                    paths.add(("8 candidates read", bool(np.any(unmoved == 8))))
                paths.add(("floor", len(rows) < 41))
    wanted = {"cap rejection", "both improve", "8 candidates read", "floor"}
    # on B2, A4 and H3 the Newton projection of every long step converges
    if name not in ("B2", "A4", "H3"):
        wanted.add("failed projection")
    assert {(path, True) for path in wanted} <= paths


# -- connectivity against the full r-graph --------------------------------------


def _components_reference(pts, radius=None):
    """Components of the r-graph, r = 3 * largest nearest-neighbour distance."""
    from scipy.sparse import coo_matrix

    tree = cKDTree(pts)
    if radius is None:
        radius = 3.0 * float(np.max(tree.query(pts, k=2)[0][:, 1]))
    pairs = tree.query_pairs(radius, output_type="ndarray")
    graph = coo_matrix((np.ones(len(pairs)), (pairs[:, 0], pairs[:, 1])),
                       shape=(len(pts), len(pts)))
    return int(connected_components(graph, directed=False)[0])


def _two_grids(gap, h=0.125, size=6, rng=None):
    """Two size x size grids of pitch h whose nearest points are `gap` apart."""
    g = np.stack(np.meshgrid(np.arange(size), np.arange(size)), -1).reshape(-1, 2) * h
    other = g + np.array([(size - 1) * h + gap, 0.0])
    pts = np.concatenate([g, other])
    if rng is not None:
        pts = pts[rng.permutation(len(pts))]
    return FiberSample("B2", 1, np.array([1.0]), pts, 0, 0.0)


class _CountedTree(cKDTree):
    """A cKDTree that records each query for r-edges across components."""
    queries = []

    def sparse_distance_matrix(self, other, max_distance, *args, **kwargs):
        self.queries.append(max_distance)
        return super().sparse_distance_matrix(other, max_distance, *args, **kwargs)


# pitch 0.125 and dyadic gaps: every distance is exact.  `queries` counts the
# queries for r-edges across components: 0 when the K-nearest graph is connected
@pytest.mark.parametrize("gap,radius,want,queries", [
    (0.0625, None, 1, 0),   # gap < max-NN: the K-nearest graph decides
    (0.25, None, 1, 0),     # max-NN < gap: the corners' 8 nearest cross the gap
    (0.375, None, 1, 1),    # they do not: split there, joined at 3 max-NN
    (0.5, None, 2, 1),      # gap > 3 max-NN
    (0.0625, 0.05, 72, 1),  # an explicit radius below max-NN isolates every point
])
def test_connectivity_matches_full_graph(gap, radius, want, queries, monkeypatch):
    import chevalley.probe as probe

    monkeypatch.setattr(_CountedTree, "queries", [])
    monkeypatch.setattr(probe, "cKDTree", _CountedTree)
    fs = _two_grids(gap, rng=np.random.default_rng(2))
    assert fiber_connectivity(fs, radius) == want
    assert _components_reference(fs.points, radius) == want
    assert len(_CountedTree.queries) == queries


def test_connectivity_matches_full_graph_on_random_clouds():
    rng = np.random.default_rng(8)
    for _ in range(40):
        n = int(rng.integers(2, 200))
        pts = rng.normal(size=(n, 3)) * rng.uniform(0.1, 2.0, size=3)
        pts[: n // 3] += rng.uniform(0, 8)
        fs = FiberSample("B3", 1, np.array([1.0]), pts, 0, 0.0)
        assert fiber_connectivity(fs) == _components_reference(pts)
        r = float(rng.uniform(0.05, 1.0))
        assert fiber_connectivity(fs, r) == _components_reference(pts, r)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(dim=st.integers(2, 5), n=st.integers(2, 300), clusters=st.integers(1, 6),
       duplicates=st.floats(0.0, 0.5), radius=st.sampled_from(["none", "random", "pair"]),
       seed=st.integers(0, 2**32 - 1))
def test_connectivity_matches_full_graph_property(dim, n, clusters, duplicates, radius, seed):
    """Clustered clouds with repeated points in 2-5 D; the radius is the
    default, random, or exactly the distance between two points, so edges
    of length r sit among the K nearest."""
    rng = np.random.default_rng(seed)
    centres = rng.uniform(-4, 4, size=(clusters, dim))
    spread = rng.uniform(0.05, 1.0)
    pts = centres[rng.integers(0, clusters, size=n)] + spread * rng.normal(size=(n, dim))
    copies = rng.random(n) < duplicates
    pts[copies] = pts[rng.integers(0, n, size=np.count_nonzero(copies))]
    r = None
    if radius == "random":
        r = float(rng.uniform(0.0, 2.0))
    elif radius == "pair":
        dist, _ = cKDTree(pts).query(pts, k=min(9, n))
        r = float(dist[rng.integers(0, n), rng.integers(1, dist.shape[1])])
    fs = FiberSample("B3", 1, np.zeros(1), pts, 0, 0.0)
    assert fiber_connectivity(fs, r) == _components_reference(pts, r)


def test_connectivity_memory_on_dense_fiber(basis_cache, rs_cache):
    """Criterion 5's 4000-point A4 k=1 fiber at its seed 3410: the full
    r-graph has 2.5 M pairs and took ~58 MiB of traced memory; the
    K-nearest graph and the cross-component query need a fraction."""
    import tracemalloc

    b, rs = basis_cache("A4"), rs_cache("A4")
    seed = 3000 + 131 * 3 + 17
    m, hint = random_regular_target(b, rs, 1, seed)
    fs = sample_fiber(b, rs, 1, m, n_points=4000, seed=seed, x_hint=hint,
                      radius_cap=2.5 * float(np.linalg.norm(hint)))
    assert len(fs.points) == 4000
    tracemalloc.start()
    try:
        assert fiber_connectivity(fs) == 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
