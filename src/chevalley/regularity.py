"""Empirical Whitney 1-regularity of the image of a ball under the
invariant map, plus the boundary-graph machinery it rests on.

Geodesics in the image are measured on a graph: the closed chamber (a
fundamental domain) is meshed, the mesh is pushed through the invariant map,
and edge weights are Euclidean distances between image points.  Graph path
length over straight-line image distance then estimates the geodesic ratio;
the supremum of that ratio over pairs is the quantity whose finiteness is
being certified.  Pairs are vertex indices, drawn with a bias toward the
image boundary, where the cusps live.  Large Dijkstra sweeps run on forked
pool workers (processes: scipy's `dijkstra` holds the GIL) with identical
distances (`_pair_geodesics`): their memory is not in the parent's
ru_maxrss, and a trace of `dijkstra` here sees only the parent's share.

The module also computes the min/max envelope graphs over the base image as
binned tables from mesh data; the exact envelope values at one target are
the k-face critical values of `probe.critical_points`.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field
from functools import cached_property
from multiprocessing import get_context

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, dijkstra
from scipy.spatial import cKDTree

from .coxeter import RootSystem, enumerate_strata, sample_stratum
from .errors import CapabilityError, ConvergenceError, UsageError
from .invariants import InvariantBasis
from .poly import CHUNK_VALUES
from .probe import _first_rows, _rng

MESH_POINT_BUDGET = 8_000_000   # points of the bounding cube
_MESH_BLOCK = 1 << 16            # cube points enumerated at a time


@dataclass
class ChamberMesh:
    vertices: np.ndarray        # (V, n), all in the chamber and the radius ball
    edges: np.ndarray           # (E, 2) int
    pitch: float
    tree: cKDTree               # over `vertices`: the one nearest-vertex index

    @property
    def size(self) -> int:
        return len(self.vertices)


def build_chamber_mesh(rs: RootSystem, a: float, h: float) -> ChamberMesh:
    """Grid points of pitch h inside (chamber) & (ball of radius a), with
    wall, wall-pair and sphere projections snapped on; edges join vertices
    within sqrt(n) * h.  The grid cube is enumerated in its own order, in
    blocks of x0-slabs, never whole, though the point budget counts it.  The
    KD-tree that finds the edges is kept on the mesh for snapping chamber
    points to vertices.  Connectivity is checked once, by `build_image_graph`.
    """
    if h > a / 4 + 1e-12:
        raise UsageError("mesh pitch must satisfy h <= a/4")
    n = rs.n
    # counted in floats before the axis is built, so an inf a / h compares too
    half = np.floor(a / h + 1e-9)
    with np.errstate(over="ignore"):
        cube = (2 * half + 1) ** n
    if cube > MESH_POINT_BUDGET:
        raise CapabilityError("mesh would exceed the desk-scale point budget")
    idx = np.arange(-int(half), int(half) + 1)
    axis, step = idx * h, max(1, _MESH_BLOCK // len(idx) ** (n - 1))
    blocks = []
    for lo in range(0, len(idx), step):
        grid = np.stack(np.meshgrid(axis[lo:lo + step], *[axis] * (n - 1), indexing="ij"),
                        axis=-1).reshape(-1, n)
        keep = rs.chamber_contains(grid, tol=1e-12)
        blocks.append(grid[keep & (np.linalg.norm(grid, axis=1) <= a + 1e-12)])
    base = np.concatenate(blocks)
    pts = [base]

    walls = rs.simple_unit_f
    dots = base @ walls.T
    # single-wall projections
    for i in range(len(walls)):
        near = (dots[:, i] > 0) & (dots[:, i] <= h)
        if np.any(near):
            proj = base[near] - np.outer(dots[near, i], walls[i])
            pts.append(proj)
    # wall-pair projections (edges of the chamber cone)
    for i in range(len(walls)):
        for j in range(i + 1, len(walls)):
            near = (dots[:, i] <= h) & (dots[:, j] <= h)
            if not np.any(near):
                continue
            A = walls[[i, j]]
            # orthogonal projection onto the intersection of both walls
            gram_inv = np.linalg.pinv(A @ A.T)
            proj = base[near] - (A.T @ (gram_inv @ (A @ base[near].T))).T
            pts.append(proj)
    cand = np.concatenate(pts, axis=0)
    # sphere snapping for everything near the outer boundary
    norms = np.linalg.norm(cand, axis=1)
    near_sphere = (norms >= a - h) & (norms > 1e-12)
    if np.any(near_sphere):
        snapped = cand[near_sphere] * (a / norms[near_sphere])[:, None]
        cand = np.concatenate([cand, snapped], axis=0)

    keep = rs.chamber_contains(cand, tol=1e-12)
    keep &= np.linalg.norm(cand, axis=1) <= a + 1e-12
    cand = cand[keep]
    quant = np.round(cand / (1e-9 * max(a, 1.0))).astype(np.int64)
    verts = cand[_first_rows(quant)]
    order = np.lexsort(verts.T[::-1])
    verts = verts[order]

    tree = cKDTree(verts)
    edges = tree.query_pairs(np.sqrt(n) * h * (1 + 1e-9), output_type="ndarray")
    return ChamberMesh(verts, edges, h, tree)


@dataclass
class ImageGraph:
    """A connected chamber mesh pushed through P; `mesh.tree` snaps chamber
    points to its vertices."""
    mesh: ChamberMesh
    image: np.ndarray           # (V, n) full invariant map of every vertex
    graph: csr_matrix           # symmetric weighted adjacency
    near_boundary: np.ndarray   # vertex mask: within 2h of some chamber wall

    @property
    def size(self) -> int:
        return len(self.image)

    @cached_property
    def resolution(self) -> np.ndarray:
        """Local image-space resolution at each vertex: the median incident
        edge length in image coordinates, 0.0 for a vertex without edges.
        (s[lo] + s[hi]) / 2 on the sorted row is what np.median computes."""
        indptr, data = self.graph.indptr, self.graph.data
        deg = np.diff(indptr)
        s = data[np.lexsort((data, np.repeat(np.arange(len(deg)), deg)))]
        has = deg > 0
        lo, hi = (indptr[:-1] + (deg - 1) // 2)[has], (indptr[:-1] + deg // 2)[has]
        res = np.zeros(len(deg))
        res[has] = (s[lo] + s[hi]) / 2
        return res


def build_image_graph(basis: InvariantBasis, rs: RootSystem, mesh: ChamberMesh) -> ImageGraph:
    img = basis.compiled.P(mesh.vertices)
    u, v = mesh.edges[:, 0], mesh.edges[:, 1]
    w = np.linalg.norm(img[u] - img[v], axis=1)
    w = np.maximum(w, 1e-300)  # distinct chamber points have distinct images
    graph = csr_matrix(
        (np.concatenate([w, w]), (np.concatenate([u, v]), np.concatenate([v, u]))),
        shape=(mesh.size, mesh.size),
    )
    ncomp, _ = connected_components(graph, directed=False)
    if ncomp != 1:
        raise ConvergenceError("image graph is disconnected")
    near = np.min(mesh.vertices @ rs.simple_unit_f.T, axis=1) <= 2 * mesh.pitch
    return ImageGraph(mesh, img, graph, near)


@dataclass
class RatioReport:
    pitch: float
    n_pairs: int
    max_ratio: float
    p99_ratio: float
    min_ratio: float
    refinement: list[dict] = field(default_factory=list)

    def to_dict(self) -> dict:
        return asdict(self)

    @property
    def passed(self) -> bool:
        """The verdict on a `whitney_study`: a finite maximum ratio, no ratio
        below 1 (to 1e-6), and a maximum that moves at most 5% relative
        under refinement."""
        return (bool(np.isfinite(self.max_ratio)) and self.min_ratio >= 1 - 1e-6
                and self.refinement[-1]["max_ratio_rel_change"] <= 0.05)


RESOLUTION_FLOOR_FACTOR = 6.0   # admitted pairs: image separation in local edge lengths
NEAR_BOUNDARY_FRAC = 0.5        # share of pair sources within 2h of a chamber wall
TARGETS_PER_SOURCE = 20


def _admit_pairs(g: ImageGraph, src_idx, tgt_idx) -> np.ndarray:
    """Mask of pairs the graph can resolve: image separation above
    RESOLUTION_FLOOR_FACTOR local image edge lengths.  Pairs below that
    floor would only measure discretization noise, not geometry."""
    eu = np.linalg.norm(g.image[tgt_idx] - g.image[src_idx][:, None, :], axis=-1)
    res = g.resolution
    floor = RESOLUTION_FLOOR_FACTOR * np.maximum(res[tgt_idx], res[src_idx][:, None])
    return eu > np.maximum(floor, 1e-12)


def _draw_pairs(g: ImageGraph, pairs: int, seed: int):
    """(s, t): the admitted vertex pairs of g, grouped by source row in draw
    order.  A row (a source, then TARGETS_PER_SOURCE targets) is drawn from
    the near-wall vertices for the first NEAR_BOUNDARY_FRAC of rows, else all."""
    rng = _rng(seed)
    near = np.flatnonzero(g.near_boundary)
    if len(near) == 0:
        near = np.arange(g.size)
    n_sources = max(1, pairs // TARGETS_PER_SOURCE)
    n_near = int(round(n_sources * NEAR_BOUNDARY_FRAC))
    drawn = np.concatenate([
        pool[rng.integers(0, len(pool), size=(rows, 1 + TARGETS_PER_SOURCE))]
        for pool, rows in ((near, n_near), (np.arange(g.size), n_sources - n_near))
    ])
    src, tgt = drawn[:, 0], drawn[:, 1:]
    rows, cols = np.nonzero(_admit_pairs(g, src, tgt))   # row-major
    return src[rows], tgt[rows, cols]


# sweeps of at least this many (distinct sources x stored edges) are split:
# they take 0.2 s or more, a fork of a ~90 MB process 10-30 ms
FORK_MIN_WORK = 10_000_000

_worker_shares = []   # filled in each sweep worker by the pool's initializer


def _sweep(graph: csr_matrix, sources, src, tgt) -> np.ndarray:
    """Graph distance sources[src[i]] -> tgt[i] for every pair: one directed
    search per source (the CSR is symmetric), in blocks of sources whose
    (sources, V) distance array holds at most CHUNK_VALUES values (at least
    one source per block)."""
    out = np.empty(len(src))
    step = max(1, CHUNK_VALUES // graph.shape[0])
    for lo in range(0, len(sources), step):
        dist = dijkstra(graph, directed=True, indices=sources[lo:lo + step])
        sel = (src >= lo) & (src < lo + step)
        out[sel] = dist[src[sel] - lo, tgt[sel]]
    return out


def _sweep_share(k: int) -> np.ndarray:
    return _sweep(*_worker_shares[k])


def _pair_geodesics(graph: csr_matrix, s: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Graph distance s[i] -> t[i] for every pair, by `_sweep`.  scipy
    searches from each source on its own, so a large sweep is split into one
    share per usable CPU, at most one per source, bit-identical.  The parent
    sweeps the first share and a pool of forked processes the others; not
    threads, since `dijkstra` holds the GIL.  The workers inherit the graph at
    fork, unpickled, and a worker's exception re-raises here with its type.
    """
    sources, which = np.unique(s, return_inverse=True)
    # os.sched_getaffinity is Linux-only; elsewhere every sweep stays in-process
    big = len(sources) * graph.nnz >= FORK_MIN_WORK and hasattr(os, "sched_getaffinity")
    workers = min(len(os.sched_getaffinity(0)), len(sources)) if big else 1
    if workers == 1:
        return _sweep(graph, sources, which, t)
    cuts = [len(sources) * k // workers for k in range(workers + 1)]
    pairs = [np.flatnonzero((which >= lo) & (which < hi)) for lo, hi in zip(cuts, cuts[1:])]
    shares = [(graph, sources[lo:hi], which[p] - lo, t[p])
              for lo, hi, p in zip(cuts, cuts[1:], pairs)]
    with ProcessPoolExecutor(workers - 1, mp_context=get_context("fork"),
                             initializer=_worker_shares.extend, initargs=(shares,)) as pool:
        rest = pool.map(_sweep_share, range(1, workers))
        dists = [_sweep(*shares[0]), *rest]
    geo = np.empty(len(s))
    geo[np.concatenate(pairs)] = np.concatenate(dists)
    return geo


def _ratio_stats(g: ImageGraph, s: np.ndarray, t: np.ndarray,
                 table: list | None = None) -> RatioReport:
    """Graph/Euclidean ratios over the vertex pairs (s[i], t[i]) of g.

    When `table` is given, one (source, target, euclid, geodesic, ratio)
    row per pair is appended to it for CSV export.
    """
    if len(s) == 0:
        raise CapabilityError("no pair exceeded the graph's image resolution; "
                              "use a finer pitch (--h) or more pairs (--pairs)")
    geo = _pair_geodesics(g.graph, s, t)
    eu = np.linalg.norm(g.image[t] - g.image[s], axis=1)
    r = geo / eu
    if table is not None:
        table.extend(zip(s.tolist(), t.tolist(), eu.tolist(), geo.tolist(), r.tolist()))
    r = r[np.isfinite(r)]
    if len(r) == 0:
        raise UsageError("no finite pair ratios")
    return RatioReport(
        pitch=g.mesh.pitch,
        n_pairs=int(len(r)),
        max_ratio=float(np.max(r)),
        p99_ratio=float(np.quantile(r, 0.99)),
        min_ratio=float(np.min(r)),
    )


def whitney_study(
    basis: InvariantBasis,
    rs: RootSystem,
    a: float,
    h: float,
    pairs: int = 5000,
    seed: int = 0,
    pair_table: list | None = None,
) -> RatioReport:
    """Ratio statistics at pitch h and h/2 on one fixed pair set.

    The coarse stage takes the ratios on the pitch-h image graph over the
    pairs `_draw_pairs` draws, half of them near a chamber wall, where
    1-regularity is at stake.  They are drawn and admitted once; the
    refinement stage snaps their endpoints to the nearest vertices of the
    pitch-h/2 graph (grid points of the coarse lattice are grid points of
    the fine one), so the stability delta compares like with like rather
    than chasing newly resolvable pairs.  When `pair_table` is given, the
    coarse stage appends one (source, target, euclid, geodesic, ratio) row
    per pair to it.
    """
    # the fine mesh first: it is the one that can exceed the point budget
    g2 = build_image_graph(basis, rs, build_chamber_mesh(rs, a, h / 2))
    g = build_image_graph(basis, rs, build_chamber_mesh(rs, a, h))
    s, t = _draw_pairs(g, pairs, seed)
    reports = [_ratio_stats(g, s, t, table=pair_table),
               _ratio_stats(g2, g2.mesh.tree.query(g.mesh.vertices[s])[1],
                            g2.mesh.tree.query(g.mesh.vertices[t])[1])]
    out = reports[0]
    out.refinement = [
        {"pitch": r.pitch, "max_ratio": r.max_ratio, "p99_ratio": r.p99_ratio,
         "n_pairs": r.n_pairs}
        for r in reports
    ]
    out.refinement.append({
        "max_ratio_rel_change": abs(reports[1].max_ratio - reports[0].max_ratio)
        / reports[0].max_ratio
    })
    return out


# ---------------------------------------------------------------------------
# envelopes over the base image
# ---------------------------------------------------------------------------


ENVELOPE_STRATUM_SAMPLES = 4000


@dataclass
class EnvelopeTable:
    k: int
    cell_edges: list[np.ndarray]
    env_min: np.ndarray
    env_max: np.ndarray
    counts: np.ndarray
    lipschitz_min: float
    lipschitz_max: float
    containment_violations: int
    empty_interior_cells: int

    def to_dict(self) -> dict:
        return {
            "k": self.k,
            "cells": [len(e) - 1 for e in self.cell_edges],
            "populated_cells": int(np.sum(self.counts > 0)),
            "lipschitz_min_envelope": self.lipschitz_min,
            "lipschitz_max_envelope": self.lipschitz_max,
            "containment_violations": self.containment_violations,
            "empty_interior_cells": self.empty_interior_cells,
        }


def envelope_functions(
    basis: InvariantBasis,
    rs: RootSystem,
    k: int,
    a: float,
    h: float,
    cells: int = 40,
    seed: int = 31,
) -> EnvelopeTable:
    """Min/max of p_{k+1} per cell of a grid over the image of the ball
    under P_k, from the points of a pitch-h chamber mesh plus
    ENVELOPE_STRATUM_SAMPLES samples of each k-dim stratum (whose images
    carry the envelope graphs).
    """
    if not 1 <= k < len(basis.polys):
        raise UsageError("envelopes need 1 <= k < n")
    pts = [build_chamber_mesh(rs, a, h).vertices]
    for s in enumerate_strata(rs):
        if s.dim == k:
            pts.append(sample_stratum(s, ENVELOPE_STRATUM_SAMPLES, a, seed, rs))
    X = np.concatenate(pts, axis=0)
    X = X[np.linalg.norm(X, axis=1) <= a + 1e-12]
    vals = basis.compiled.P(X, k + 1)
    base, height = vals[:, :k], vals[:, k]

    edges = []
    for j in range(k):
        lo, hi = float(np.min(base[:, j])), float(np.max(base[:, j]))
        pad = 1e-9 * max(1.0, abs(hi - lo))
        edges.append(np.linspace(lo - pad, hi + pad, cells + 1))
    shape = (cells,) * k
    idx = np.ravel_multi_index(
        [np.clip(np.digitize(base[:, j], edges[j]) - 1, 0, cells - 1) for j in range(k)],
        shape)
    env_min = np.full(cells ** k, np.inf)
    env_max = np.full(cells ** k, -np.inf)
    counts = np.zeros(cells ** k, dtype=np.int64)
    np.minimum.at(env_min, idx, height)
    np.maximum.at(env_max, idx, height)
    np.add.at(counts, idx, 1)

    violations = int(np.sum((height < env_min[idx] - 1e-12) | (height > env_max[idx] + 1e-12)))

    env_min_g = env_min.reshape(shape)
    env_max_g = env_max.reshape(shape)
    counts_g = counts.reshape(shape)
    lip_min = _envelope_lipschitz(env_min_g, counts_g, edges)
    lip_max = _envelope_lipschitz(env_max_g, counts_g, edges)
    empty_interior = _empty_interior_cells(counts_g)
    return EnvelopeTable(
        k, edges, env_min_g, env_max_g, counts_g,
        lip_min, lip_max, violations, empty_interior,
    )


def _envelope_lipschitz(env: np.ndarray, counts: np.ndarray, edges) -> float:
    out = 0.0
    k = env.ndim
    for axis in range(k):
        width = float(edges[axis][1] - edges[axis][0])
        a = np.moveaxis(env, axis, 0)
        c = np.moveaxis(counts, axis, 0)
        both = (c[1:] > 0) & (c[:-1] > 0)
        diffs = np.abs(a[1:][both] - a[:-1][both])
        if len(diffs):
            out = max(out, float(np.max(diffs)) / width)
    return out


def _empty_interior_cells(counts: np.ndarray) -> int:
    """Empty cells with populated cells on both sides along the first axis
    (a cheap interior-resolution warning count)."""
    pop = counts > 0
    below = np.cumsum(pop, axis=0) > 0            # a populated cell at or before
    above = np.cumsum(pop[::-1], axis=0)[::-1] > 0   # ... and one at or after
    return int(np.sum(~pop & below & above))
