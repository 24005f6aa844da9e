"""Chamber meshes, image graphs, Whitney ratios, lifts, envelopes."""

import math
import os
import time
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra
from scipy.spatial import cKDTree

from chevalley import regularity
from chevalley.errors import ConvergenceError, UsageError
from chevalley.probe import _rng, fiber_value_interval, random_regular_target, sample_fiber
from chevalley.coxeter import enumerate_strata, sample_stratum
from chevalley.regularity import (
    ENVELOPE_STRATUM_SAMPLES,
    NEAR_BOUNDARY_FRAC,
    RESOLUTION_FLOOR_FACTOR,
    TARGETS_PER_SOURCE,
    ChamberMesh,
    ImageGraph,
    RatioReport,
    _admit_pairs,
    _draw_pairs,
    _empty_interior_cells,
    _ratio_stats,
    build_chamber_mesh,
    build_image_graph,
    envelope_at,
    envelope_functions,
    image_pair_ratio,
    lift_derivatives,
    whitney_ratio,
    whitney_study,
)


def test_mesh_vertices_respect_chamber_and_ball(rs_cache):
    rs = rs_cache("B2")
    mesh = build_chamber_mesh(rs, 2.0, 0.1)
    v = mesh.vertices
    assert np.all(v[:, 0] >= v[:, 1] - 1e-12)
    assert np.all(v[:, 1] >= -1e-12)
    assert np.all(np.linalg.norm(v, axis=1) <= 2.0 + 1e-9)


def test_mesh_vertex_count_tracks_chamber_volume(rs_cache):
    """Count ~ ball volume / (group order * h^n), within a factor of two."""
    rs = rs_cache("B2")
    a, h = 2.0, 0.1
    mesh = build_chamber_mesh(rs, a, h)
    predicted = math.pi * a ** 2 / 8 / h ** 2  # |W| = 8
    assert predicted / 2 <= mesh.size <= 2 * predicted


def test_mesh_pitch_precondition(rs_cache):
    with pytest.raises(UsageError):
        build_chamber_mesh(rs_cache("B2"), 1.0, 0.5)


def test_mesh_rank_one_interval(rs_cache):
    rs = rs_cache("A1")
    mesh = build_chamber_mesh(rs, 1.0, 0.05)
    assert np.all(mesh.vertices >= -1e-12) and np.all(mesh.vertices <= 1 + 1e-12)
    assert mesh.size == 21


LOW_RANK_TYPES = ["A1", "A2", "B2", "G2", "I2:3", "I2:5", "I2:7", "I2:12",
                  "A3", "B3", "D3", "H3"]


@pytest.mark.parametrize("name,h", [
    *[(name, h) for name in LOW_RANK_TYPES for h in (0.25, 0.1)],
    # the whitney benchmark's coarse and fine pitches
    ("B2", 0.04), ("B2", 0.02), ("B3", 0.05), ("B3", 0.025), ("H3", 0.05), ("H3", 0.025),
    ("G2", 0.04), ("G2", 0.02), ("I2:7", 0.04), ("I2:7", 0.02),
    *[(name, 0.25) for name in ("A4", "B4", "D4", "F4", "H4")],
])
def test_chamber_mesh_image_graph_is_connected(name, h, basis_cache, rs_cache):
    """The one connectivity check passes on every rank <= 3 type at
    h = a/4 and a/10, at the benchmark's pitches and on rank 4 at a/4."""
    rs = rs_cache(name)
    mesh = build_chamber_mesh(rs, 1.0, h)
    g = build_image_graph(basis_cache(name), rs, mesh)
    assert g.mesh is mesh and mesh.pitch == h
    assert np.array_equal(mesh.tree.data, mesh.vertices)


def _mesh_reference(rs, a, h):
    """(vertices, edges) of the chamber mesh built from the whole
    (2 floor(a/h) + 1)^n cube at once."""
    n = rs.n
    idx = np.arange(-int(np.floor(a / h + 1e-9)), int(np.floor(a / h + 1e-9)) + 1)
    grid = np.stack(np.meshgrid(*[idx * h] * n, indexing="ij"), axis=-1).reshape(-1, n)
    keep = rs.chamber_contains(grid, tol=1e-12)
    keep &= np.linalg.norm(grid, axis=1) <= a + 1e-12
    base = grid[keep]
    pts = [base]
    walls = rs.simple_unit_f
    dots = base @ walls.T
    for i in range(len(walls)):
        near = (dots[:, i] > 0) & (dots[:, i] <= h)
        if np.any(near):
            pts.append(base[near] - np.outer(dots[near, i], walls[i]))
    for i in range(len(walls)):
        for j in range(i + 1, len(walls)):
            near = (dots[:, i] <= h) & (dots[:, j] <= h)
            if np.any(near):
                A = walls[[i, j]]
                gram_inv = np.linalg.pinv(A @ A.T)
                pts.append(base[near] - (A.T @ (gram_inv @ (A @ base[near].T))).T)
    cand = np.concatenate(pts, axis=0)
    norms = np.linalg.norm(cand, axis=1)
    near_sphere = (norms >= a - h) & (norms > 1e-12)
    if np.any(near_sphere):
        cand = np.concatenate([cand, cand[near_sphere] * (a / norms[near_sphere])[:, None]])
    keep = rs.chamber_contains(cand, tol=1e-12)
    keep &= np.linalg.norm(cand, axis=1) <= a + 1e-12
    cand = cand[keep]
    quant = np.round(cand / (1e-9 * max(a, 1.0))).astype(np.int64)
    _, uniq = np.unique(quant, axis=0, return_index=True)
    verts = cand[np.sort(uniq)]
    verts = verts[np.lexsort(verts.T[::-1])]
    edges = cKDTree(verts).query_pairs(np.sqrt(n) * h * (1 + 1e-9), output_type="ndarray")
    return verts, edges


@pytest.mark.parametrize("name,a,h", [
    ("A1", 1.0, 0.05),
    *[(name, 1.0, h) for name in LOW_RANK_TYPES for h in (0.25, 0.1)],
    # the whitney benchmark's pitches
    *[(name, 1.0, h) for name in ("B2", "G2", "I2:7") for h in (0.04, 0.02)],
    *[(name, 1.0, h) for name in ("B3", "H3") for h in (0.05, 0.025)],
    ("B2", 1.2, 0.06), ("B3", 1.2, 0.06),
    *[(name, 1.0, 0.25) for name in ("A4", "B4", "D4", "F4", "H4")],
    # rank 4 in three blocks of seven slabs
    ("A4", 1.0, 0.1), ("F4", 1.0, 0.1),
])
def test_chamber_mesh_matches_full_cube(name, a, h, rs_cache):
    """Enumerating the cube in blocks of slabs gives the vertices and edges
    of the whole-cube construction byte for byte."""
    rs = rs_cache(name)
    mesh = build_chamber_mesh(rs, a, h)
    verts, edges = _mesh_reference(rs, a, h)
    assert mesh.vertices.tobytes() == verts.tobytes() and mesh.vertices.shape == verts.shape
    assert mesh.edges.tobytes() == edges.tobytes() and mesh.edges.shape == edges.shape


def test_chamber_mesh_memory(rs_cache):
    """B3 at the whitney benchmark's fine pitch: the 81^3 cube alone is
    12.8 MB as float64, and the whole-cube build traced ~33 MiB."""
    import tracemalloc

    rs = rs_cache("B3")
    tracemalloc.start()
    try:
        mesh = build_chamber_mesh(rs, 1.0, 0.025)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert mesh.size == 7801
    assert peak < 8 * 2**20


def test_disconnected_mesh_raises(basis_cache, rs_cache):
    """Two far-apart clusters of a hand-built mesh make the image graph
    disconnected, and building it raises."""
    rs = rs_cache("B2")
    verts = np.array([[0.1, 0.0], [0.15, 0.05], [0.9, 0.1], [0.95, 0.15]])
    mesh = ChamberMesh(verts, np.array([[0, 1], [2, 3]]), 0.05, 1.0, cKDTree(verts))
    with pytest.raises(ConvergenceError, match="image graph is disconnected"):
        build_image_graph(basis_cache("B2"), rs, mesh)


def test_a1_ratio_is_one(basis_cache, rs_cache):
    """The image of [0, a] under x -> x^2 is an interval: ratio exactly 1."""
    b, rs = basis_cache("A1"), rs_cache("A1")
    mesh = build_chamber_mesh(rs, 1.0, 0.02)
    g = build_image_graph(b, rs, mesh)
    rep = whitney_ratio(g, pairs=500, seed=2)
    assert abs(rep.max_ratio - 1.0) <= 1e-3
    assert rep.min_ratio >= 1.0 - 1e-6


def test_b2_boundary_pair_arc_length(basis_cache, rs_cache):
    """Pair (0,0)-(2,1) in image coordinates: the geodesic hugs the boundary
    parabola p2 = p1^2/4; ratio = arc length / chord, via quadrature."""
    b, rs = basis_cache("B2"), rs_cache("B2")
    mesh = build_chamber_mesh(rs, 1.5, 0.02)
    g = build_image_graph(b, rs, mesh)
    ratio = image_pair_ratio(g, [0.0, 0.0], [1.0, 1.0])
    arc, _ = quad(lambda p: math.sqrt(1 + p * p / 4), 0.0, 2.0)
    expected = arc / math.sqrt(5.0)
    assert abs(expected - 1.0266) < 1e-3  # the closed form itself
    assert abs(ratio - expected) <= 0.01


@pytest.mark.parametrize("name,a,h", [("B2", 1.5, 0.02), ("B3", 1.0, 0.08), ("H3", 1.0, 0.08)])
def test_image_pair_ratio_matches_undirected_search(name, a, h, basis_cache, rs_cache):
    """The directed search on the symmetric CSR gives the undirected distance."""
    b, rs = basis_cache(name), rs_cache(name)
    g = build_image_graph(b, rs, build_chamber_mesh(rs, a, h))
    rng = np.random.default_rng(5)
    for _ in range(6):
        i, j = rng.choice(g.size, size=2, replace=False)
        geo = dijkstra(g.graph, directed=False, indices=[i])[0, j]
        want = float(geo) / float(np.linalg.norm(g.image[i] - g.image[j]))
        assert image_pair_ratio(g, g.mesh.vertices[i], g.mesh.vertices[j]) == want


def test_ratios_at_least_one(basis_cache, rs_cache):
    """Graph paths cannot beat the straight image segment."""
    for name in ("B2", "G2"):
        b, rs = basis_cache(name), rs_cache(name)
        mesh = build_chamber_mesh(rs, 1.0, 0.04)
        g = build_image_graph(b, rs, mesh)
        rep = whitney_ratio(g, pairs=1500, seed=8)
        assert rep.min_ratio >= 1.0 - 1e-6


def test_refinement_stability(basis_cache, rs_cache):
    for name, h in (("B2", 0.05), ("B3", 0.06)):
        st = whitney_study(basis_cache(name), rs_cache(name), 1.0, h,
                           pairs=1500, seed=5)
        change = st.refinement[-1]["max_ratio_rel_change"]
        assert change <= 0.05, st.to_dict()
        assert st.passed


def test_study_verdict_reads_each_gate_at_its_edge():
    """A study passes with a finite maximum, no ratio below 1 - 1e-6 and at
    most 5% change under refinement; the verdict is not in the payload."""
    edge = RatioReport(0.05, 10, 1.2, 1.1, 1 - 1e-6, [{"max_ratio_rel_change": 0.05}])
    assert edge.passed and "passed" not in edge.to_dict()
    for bad in (dict(max_ratio=math.inf), dict(min_ratio=1 - 2e-6),
                dict(refinement=[{"max_ratio_rel_change": 0.051}])):
        assert not RatioReport(**{**edge.to_dict(), **bad}).passed


def test_rescaled_radius_consistency(basis_cache, rs_cache):
    """Re-meshing at twice the radius (same pitch) leaves the ratios of the
    original pairs essentially unchanged: the added outer region offers no
    shortcuts."""
    b, rs = basis_cache("B2"), rs_cache("B2")
    mesh1 = build_chamber_mesh(rs, 1.0, 0.04)
    g1 = build_image_graph(b, rs, mesh1)
    s, t = _draw_pairs(g1, 800, 3)
    src, tgt = mesh1.vertices[s], mesh1.vertices[t]
    # keep endpoints clear of the outer sphere: its snapped vertices exist
    # only in the radius-1 mesh
    inner = np.linalg.norm(np.stack([src, tgt]), axis=-1).max(axis=0) <= 1.0 - 2 * 0.04
    rep1 = _ratio_stats(g1, s[inner], t[inner])
    mesh2 = build_chamber_mesh(rs, 2.0, 0.04)
    g2 = build_image_graph(b, rs, mesh2)
    rep2 = _ratio_stats(g2, g2.mesh.tree.query(src[inner])[1], g2.mesh.tree.query(tgt[inner])[1])
    assert abs(rep2.max_ratio - rep1.max_ratio) / rep1.max_ratio <= 0.01


def test_lift_derivatives_b2_walls(basis_cache, rs_cache, strata_cache):
    b, rs = basis_cache("B2"), rs_cache("B2")
    strata = strata_cache("B2")
    # wall x2 = 0: image curve p2 = 0, so dp2/dp1 = 0
    flat = next(s for s in strata if s.dim == 1 and 1 in s.walls)
    X, grads = lift_derivatives(b, rs, flat, samples=25, radius=2.0, seed=3)
    assert np.max(np.abs(grads)) < 1e-12
    # wall x1 = x2: p2 = p1^2/4, so dp2/dp1 = p1/2, equal to 1 at p1 = 2
    diag = next(s for s in strata if s.dim == 1 and 0 in s.walls)
    X, grads = lift_derivatives(b, rs, diag, samples=25, radius=2.0, seed=3)
    p1 = np.sum(X ** 2, axis=1)
    assert np.max(np.abs(grads[:, 0] - p1 / 2)) < 1e-8
    at2 = lift_derivatives(b, rs, diag, points=np.array([[1.0, 1.0]]))[1]
    assert abs(at2[0, 0] - 1.0) < 1e-12


def test_lift_derivatives_bounded_to_origin(basis_cache, rs_cache, strata_cache):
    """Values at |x| = 1e-3 and 1e-6 follow the homogeneous scaling toward
    the continuous extension at the origin, to 1e-4."""
    b, rs = basis_cache("B3"), rs_cache("B3")
    for s in strata_cache("B3"):
        if s.dim != 2:
            continue
        base = s.anchor
        for scale_a, scale_b in ((1e-3, 1e-6),):
            Xa = base[None, :] * scale_a
            Xb = base[None, :] * scale_b
            ga = lift_derivatives(b, rs, s, points=Xa)[1][0]
            gb = lift_derivatives(b, rs, s, points=Xb)[1][0]
            # degrees of p3 minus degrees of p1, p2 are 4 and 2: both positive,
            # so the gradient tends to 0 at the origin
            assert np.all(np.abs(ga) < 1e-4) and np.all(np.abs(gb) < 1e-4)
            # homogeneous prediction: component j scales by t^(deg3 - degj)
            t = scale_b / scale_a
            pred = ga * np.array([t ** (6 - 2), t ** (6 - 4)])
            assert np.max(np.abs(gb - pred)) < 1e-4


def test_lift_derivative_gradients_bounded_on_ball(basis_cache, rs_cache, strata_cache):
    b, rs = basis_cache("H3"), rs_cache("H3")
    for s in strata_cache("H3"):
        if s.dim < 1 or s.dim >= 3:
            continue
        X, grads = lift_derivatives(b, rs, s, samples=60, radius=1.0, seed=5)
        assert np.all(np.isfinite(grads))
        assert np.max(np.abs(grads)) < 1e3


@pytest.mark.parametrize("name,face", [("D5", "d3:w3,4"), ("D6", "d4:w4,5")])
def test_lift_derivatives_raise_where_a_gradient_vanishes_on_the_face(
        name, face, basis_cache, rs_cache, strata_cache):
    """The product invariant x_1...x_n of D_n vanishes to second order where
    x_{n-1} = x_n = 0, so its lift column is rounding noise, ~1e-35 of its
    scale; the system is degenerate and the error names a point of the face."""
    from chevalley.coxeter import stratum_of_point

    b, rs, strata = basis_cache(name), rs_cache(name), strata_cache(name)
    s = next(t for t in strata if t.stratum_id == face)
    with pytest.raises(ConvergenceError, match=f"{face}: the gradient of p_{s.dim}") as err:
        lift_derivatives(b, rs, s, samples=30, seed=5)
    x = np.array([float(v) for v in str(err.value).split("at x = [")[1].rstrip("]").split(",")])
    assert stratum_of_point(rs, strata, x).stratum_id == face


def test_envelopes_b2_closed_form(basis_cache, rs_cache):
    """Envelope over p1 in [0, a^2]: min = 0, max = p1^2/4; the Lipschitz
    constant of the max envelope up to p1 <= 4 is about 2."""
    b, rs = basis_cache("B2"), rs_cache("B2")
    env = envelope_functions(b, rs, 1, a=2.0, h=0.05, cells=50)
    assert env.containment_violations == 0
    centers = 0.5 * (env.cell_edges[0][1:] + env.cell_edges[0][:-1])
    rights = env.cell_edges[0][1:]
    pop = env.counts > 0
    assert np.all(np.abs(env.env_min[pop]) < 5e-3)
    # the cell max lives at the right edge of the cell
    assert np.all(env.env_max[pop] <= rights[pop] ** 2 / 4 + 5e-3)
    assert np.all(env.env_max[pop] >= centers[pop] ** 2 / 4 - 5e-3)
    assert 1.8 <= env.lipschitz_max <= 2.05
    assert env.lipschitz_min < 0.01


def test_envelope_at_matches_fiber_interval(basis_cache, rs_cache):
    for name, k, m in (("B2", 1, [1.0]), ("B3", 1, [1.0]), ("B3", 2, [1.0, 0.25])):
        b, rs = basis_cache(name), rs_cache(name)
        lo_e, hi_e, per = envelope_at(b, rs, k, m)
        fs = sample_fiber(b, rs, k, m, n_points=1500, seed=6)
        lo_f, hi_f, _ = fiber_value_interval(fs, b, k)
        rng_v = hi_f - lo_f
        assert abs(lo_e - lo_f) <= 1e-3 * rng_v
        assert abs(hi_e - hi_f) <= 1e-3 * rng_v


@pytest.mark.parametrize("seed", [17, 4246])
def test_envelope_at_reaches_both_ends_on_d5(seed, basis_cache, rs_cache):
    """D5, k = 4: the fiber is a curve, and the range of p_5 over it has one
    end on the face d4:w2 and the other on d4:w3; `envelope_at` must find
    both, so that its (lo, hi) is the fiber's value interval."""
    b, rs = basis_cache("D5"), rs_cache("D5")
    m, hint = random_regular_target(b, rs, 4, seed)
    lo_e, hi_e, per = envelope_at(b, rs, 4, m)
    assert set(per) == {"d4:w2", "d4:w3"}
    lo_f, hi_f, _ = fiber_value_interval(
        sample_fiber(b, rs, 4, m, n_points=1500, seed=6, x_hint=hint), b, 4)
    assert abs(lo_e - lo_f) <= 1e-3 * (hi_f - lo_f)
    assert abs(hi_e - hi_f) <= 1e-3 * (hi_f - lo_f)


def test_envelope_prism_containment(basis_cache, rs_cache):
    """Every image mesh point sits between the envelopes of its cell."""
    for name in ("B2", "B3"):
        b, rs = basis_cache(name), rs_cache(name)
        env = envelope_functions(b, rs, 1, a=1.0, h=0.06, cells=30)
        assert env.containment_violations == 0
        assert env.empty_interior_cells == 0


def _loop_empty_interior_cells(counts):
    """Reference: per column along the first axis, the empty cells between
    its first and last populated cell."""
    c = counts.reshape(counts.shape[0], -1)
    total = 0
    for col in range(c.shape[1]):
        col_counts = c[:, col]
        pop = np.flatnonzero(col_counts > 0)
        if len(pop) >= 2:
            inside = col_counts[pop[0]:pop[-1] + 1]
            total += int(np.sum(inside == 0))
    return total


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("k", [1, 2, 3])
def test_empty_interior_cells_matches_loop(k, seed):
    rng = np.random.default_rng(seed)
    for _ in range(40):
        shape = tuple(rng.integers(1, 7, size=k))
        counts = rng.integers(0, 3, size=shape) * (rng.random(shape) < rng.random())
        if k > 1:   # an empty column and a column with one populated cell
            counts.reshape(shape[0], -1)[:, 0] = 0
            counts.reshape(shape[0], -1)[:, -1] = 0
            counts.reshape(shape[0], -1)[rng.integers(shape[0]), -1] = 2
        assert _empty_interior_cells(counts) == _loop_empty_interior_cells(counts)
    assert _empty_interior_cells(np.array([0, 1, 0, 0, 3, 0])) == 2
    assert _empty_interior_cells(np.array([[1, 0], [0, 0], [1, 1]])) == 1


@pytest.mark.parametrize("name,k", [("B2", 1), ("B3", 1), ("B3", 2), ("H3", 2)])
def test_envelope_cell_index_matches_loop(name, k, basis_cache, rs_cache):
    """The table equals one rebuilt from the same points with the cell
    index of the per-axis loop idx = idx * cells + bj."""
    b, rs = basis_cache(name), rs_cache(name)
    a, h, cells, seed = 1.0, 0.08, 12, 31
    env = envelope_functions(b, rs, k, a, h=h, cells=cells, seed=seed)
    X = np.concatenate([build_chamber_mesh(rs, a, h).vertices] + [
        sample_stratum(s, ENVELOPE_STRATUM_SAMPLES, a, seed, rs)
        for s in enumerate_strata(rs) if s.dim == k])
    vals = b.compiled.P(X[np.linalg.norm(X, axis=1) <= a + 1e-12], k + 1)
    idx = np.zeros(len(vals), dtype=np.int64)
    for j in range(k):
        bj = np.clip(np.digitize(vals[:, j], env.cell_edges[j]) - 1, 0, cells - 1)
        idx = idx * cells + bj
    env_min = np.full(cells ** k, np.inf)
    env_max = np.full(cells ** k, -np.inf)
    np.minimum.at(env_min, idx, vals[:, k])
    np.maximum.at(env_max, idx, vals[:, k])
    assert np.array_equal(env.counts.ravel(), np.bincount(idx, minlength=cells ** k))
    assert np.array_equal(env.env_min.ravel(), env_min)
    assert np.array_equal(env.env_max.ravel(), env_max)
    assert k == 1 or len(np.unique(idx)) > cells   # both axes vary


# Reference copies of the per-row pair path the whole-array one replaced;
# the new path must reproduce them bit for bit.

def _loop_draw(g, pairs, seed, targets_per_source=TARGETS_PER_SOURCE):
    """(src, tgt) vertex indices: per row, one draw for the source, then
    one for its targets."""
    rng = _rng(seed)
    near_idx = np.flatnonzero(g.near_boundary)
    if len(near_idx) == 0:
        near_idx = np.arange(g.size)
    n_sources = max(1, pairs // targets_per_source)
    n_near = int(round(n_sources * NEAR_BOUNDARY_FRAC))
    src, tgt = [], []
    for s_i in range(n_sources):
        pool = near_idx if s_i < n_near else np.arange(g.size)
        src.append(pool[rng.integers(0, len(pool))])
        tgt.append(pool[rng.integers(0, len(pool), size=targets_per_source)])
    return np.array(src), np.array(tgt)


def _admitted(g, si, ti):
    rows, cols = np.nonzero(_admit_pairs(g, si, ti))
    return si[rows], ti[rows, cols]


def _rowwise_resolution(g, idx):
    res = np.zeros(len(idx))
    for pos, v in enumerate(idx):
        row = g.graph.data[g.graph.indptr[v]:g.graph.indptr[v + 1]]
        res[pos] = float(np.median(row)) if len(row) else 0.0
    return res


def _rowwise_admit(g, src_idx, tgt_idx, floor_factor):
    mask = np.zeros(tgt_idx.shape, dtype=bool)
    for row in range(len(src_idx)):
        t = tgt_idx[row]
        eu = np.linalg.norm(g.image[t] - g.image[src_idx[row]], axis=1)
        floor = floor_factor * np.maximum(
            _rowwise_resolution(g, t),
            _rowwise_resolution(g, np.full(len(t), src_idx[row])),
        )
        mask[row] = eu > np.maximum(floor, 1e-12)
    return mask


def _rowwise_ratios(g, src_idx, tgt_idx, mask):
    ratios, table = [], []
    for lo in range(0, len(src_idx), 128):
        chunk = src_idx[lo:lo + 128]
        dist = dijkstra(g.graph, directed=False, indices=chunk)
        for row in range(len(chunk)):
            t = tgt_idx[lo + row][mask[lo + row]]
            if len(t) == 0:
                continue
            eu = np.linalg.norm(g.image[t] - g.image[chunk[row]], axis=1)
            rr = dist[row, t] / eu
            ratios.append(rr)
            for j in range(len(t)):
                table.append((int(chunk[row]), int(t[j]), float(eu[j]),
                              float(dist[row, t[j]]), float(rr[j])))
    r = np.concatenate(ratios)
    r = r[np.isfinite(r)]
    stats = (len(r), float(np.max(r)), float(np.quantile(r, 0.99)), float(np.min(r)))
    return stats, table


@pytest.fixture(scope="module", params=[("B2", 0.05), ("G2", 0.05), ("B3", 0.08)],
                ids=lambda p: p[0])
def pair_case(request, basis_cache, rs_cache):
    """The type name, an image graph and vertex-index pair rows of five
    targets each, with duplicate sources, source rows without an admitted
    target, and more than 128 distinct admitted sources on B2 and B3 (so the
    Dijkstra chunks split)."""
    name, h = request.param
    rs = rs_cache(name)
    g = build_image_graph(basis_cache(name), rs, build_chamber_mesh(rs, 1.0, h))
    si, ti = _loop_draw(g, 3000, 0, targets_per_source=5)
    return name, g, si, ti


def test_resolution_matches_rowwise_median(pair_case):
    g = pair_case[1]
    assert np.array_equal(g.resolution, _rowwise_resolution(g, np.arange(g.size)))


def test_resolution_of_odd_even_and_empty_rows():
    graph = csr_matrix((np.array([0.3, 0.1, 0.2, 0.4, 0.1, 0.7]),
                        np.array([1, 2, 3, 0, 3, 0]), np.array([0, 3, 5, 5, 6])),
                       shape=(4, 4))
    g = ImageGraph(None, np.zeros((4, 2)), graph, None)
    assert np.array_equal(g.resolution, _rowwise_resolution(g, np.arange(4)))
    assert g.resolution.tolist() == [0.2, 0.25, 0.0, 0.7]


def test_admit_pairs_matches_rowwise(pair_case):
    name, g, si, ti = pair_case
    mask = _admit_pairs(g, si, ti)
    assert np.array_equal(mask, _rowwise_admit(g, si, ti, RESOLUTION_FLOOR_FACTOR))
    assert len(np.unique(si)) < len(si)       # duplicate sources
    assert not np.all(mask.any(axis=1))       # rows without an admitted target
    assert name == "G2" or len(np.unique(si[mask.any(axis=1)])) > 128


def _split_sweeps(monkeypatch, cpus):
    """Split every Dijkstra sweep, however small, over `cpus` usable CPUs."""
    monkeypatch.setattr(regularity, "FORK_MIN_WORK", 0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _check_ratio_stats_match_rowwise(pair_case):
    _, g, si, ti = pair_case
    mask = _admit_pairs(g, si, ti)
    table = []
    rep = _ratio_stats(g, *_admitted(g, si, ti), table=table)
    stats, ref_table = _rowwise_ratios(g, si, ti, mask)
    assert (rep.n_pairs, rep.max_ratio, rep.p99_ratio, rep.min_ratio) == stats
    assert table == ref_table
    assert [type(v) for v in table[0]] == [int, int, float, float, float]


def test_ratio_stats_match_rowwise(pair_case, monkeypatch):
    """The in-process sweep: with one usable CPU nothing is forked, even
    above the split threshold."""
    _split_sweeps(monkeypatch, 1)

    def no_fork():
        raise AssertionError("forked with one usable CPU")

    monkeypatch.setattr(os, "fork", no_fork)
    _check_ratio_stats_match_rowwise(pair_case)


@pytest.mark.parametrize("cpus", [2, 3])
def test_ratio_stats_match_rowwise_split(pair_case, monkeypatch, cpus):
    """Split over forked workers, the distances are bit-identical."""
    _split_sweeps(monkeypatch, cpus)
    _check_ratio_stats_match_rowwise(pair_case)
    _assert_no_child_left()


def test_sweep_forks_at_most_one_worker_per_source(pair_case, monkeypatch):
    """Three sources on eight usable CPUs fork two workers, not seven."""
    _, g, si, ti = pair_case
    s, t = _admitted(g, si, ti)
    pick = np.isin(s, np.unique(s)[:3])
    s, t = s[pick], t[pick]
    want = regularity._pair_geodesics(g.graph, s, t)
    forks, fork = [], os.fork

    def counted():
        forks.append(1)
        return fork()

    _split_sweeps(monkeypatch, 8)
    monkeypatch.setattr(os, "fork", counted)
    got = regularity._pair_geodesics(g.graph, s, t)
    assert len(np.unique(s)) == 3 and 0 < len(forks) <= 2
    assert got.tobytes() == want.tobytes()
    _assert_no_child_left()


@pytest.mark.parametrize("failing", ["children", "parent", "dead"])
def test_failed_sweep_raises_and_reaps_every_child(pair_case, monkeypatch, failing):
    """A worker's exception re-raises in the parent with its own type, a
    worker that dies raises BrokenProcessPool, and a failure in the parent's
    own share raises.  No child outlives the call, and none hangs it."""
    _, g, si, ti = pair_case
    parent, search = os.getpid(), regularity.dijkstra

    def dijkstra(*args, **kwargs):
        if (os.getpid() == parent) == (failing == "parent"):
            if failing == "dead":
                os._exit(1)
            raise MemoryError("injected")
        return search(*args, **kwargs)

    _split_sweeps(monkeypatch, 3)
    monkeypatch.setattr(regularity, "dijkstra", dijkstra)
    start = time.monotonic()
    with pytest.raises(BrokenProcessPool if failing == "dead" else MemoryError):
        _ratio_stats(g, *_admitted(g, si, ti))
    assert time.monotonic() - start < 10
    _assert_no_child_left()


@pytest.fixture(scope="module")
def graph_cache(basis_cache, rs_cache):
    cache = {}

    def get(name, h):
        if (name, h) not in cache:
            rs = rs_cache(name)
            cache[name, h] = build_image_graph(basis_cache(name), rs,
                                               build_chamber_mesh(rs, 1.0, h))
        return cache[name, h]

    return get


@pytest.mark.parametrize("seed", [0, 1, 7, 12345])
@pytest.mark.parametrize("name,h,pairs", [
    ("A1", 0.02, 2000), ("B2", 0.05, 2000), ("G2", 0.05, 2000), ("I2:7", 0.05, 2000),
    ("B3", 0.1, 2000), ("H3", 0.1, 2000), ("B2", 0.05, 30), ("B2", 0.05, 3),
])
def test_draw_pairs_matches_loop(graph_cache, name, h, pairs, seed):
    """One integers block per pool gives the per-source loop's pairs bit for
    bit, in its order; pairs 30 and 3 draw one source, from all vertices."""
    g = graph_cache(name, h)
    s, t = _draw_pairs(g, pairs, seed)
    want_s, want_t = _admitted(g, *_loop_draw(g, pairs, seed))
    assert np.array_equal(s, want_s) and np.array_equal(t, want_t)
    assert s.dtype == t.dtype == np.int64
    assert pairs < 2000 or len(s) > 0


@pytest.mark.parametrize("name,h", [("B2", 0.05), ("G2", 0.05), ("B3", 0.1)])
def test_whitney_study_matches_loop_reference(name, h, basis_cache, rs_cache):
    """The study's report and pair table equal a reference rebuilt from the
    per-source loop, the per-row admission and sweeps, and an explicit
    nearest-vertex snap of every drawn endpoint onto the pitch-h/2 graph."""
    b, rs = basis_cache(name), rs_cache(name)
    table = []
    st = whitney_study(b, rs, 1.0, h, pairs=1500, seed=4, pair_table=table)
    g = build_image_graph(b, rs, build_chamber_mesh(rs, 1.0, h))
    g2 = build_image_graph(b, rs, build_chamber_mesh(rs, 1.0, h / 2))
    # a vertex snaps to itself, so coarse pairs need no snap
    assert np.array_equal(cKDTree(g.mesh.vertices).query(g.mesh.vertices)[1],
                          np.arange(g.size))
    si, ti = _loop_draw(g, 1500, 4)
    mask = _rowwise_admit(g, si, ti, RESOLUTION_FLOOR_FACTOR)
    coarse, ref_table = _rowwise_ratios(g, si, ti, mask)
    tree = cKDTree(g2.mesh.vertices)
    fine, _ = _rowwise_ratios(g2, tree.query(g.mesh.vertices[si])[1],
                              tree.query(g.mesh.vertices[ti])[1], mask)
    assert table == ref_table
    assert (st.n_pairs, st.max_ratio, st.p99_ratio, st.min_ratio) == coarse
    assert st.refinement == [
        {"pitch": g.mesh.pitch, "max_ratio": coarse[1], "p99_ratio": coarse[2],
         "n_pairs": coarse[0]},
        {"pitch": g2.mesh.pitch, "max_ratio": fine[1], "p99_ratio": fine[2],
         "n_pairs": fine[0]},
        {"max_ratio_rel_change": abs(fine[1] - coarse[1]) / coarse[1]},
    ]
