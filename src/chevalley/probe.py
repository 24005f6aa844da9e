"""Numerical exploration of invariant fibers inside the closed chamber.

A fiber here is the level set of the first k invariants, intersected with
the fundamental chamber.  Because the invariants are group-invariant, any
point can be reflected into the chamber without leaving the fiber, so the
samplers work in the whole space and reduce at the end.

All heavy paths are batched over numpy arrays: the Newton re-projection,
the tangential random walk and the Lagrange solves all advance hundreds of
points per step.  Randomness comes from a counter-based Philox stream keyed
by the caller's seed, so every output is reproducible byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial import cKDTree

from .coxeter import RootSystem, Stratum, enumerate_strata, stratum_of_point
from .errors import ConvergenceError, UsageError
from .invariants import InvariantBasis
from .jacobian import _minor_table

FIBER_RESIDUAL_TOL = 1e-9     # acceptance residual for stored fiber points
NEWTON_TOL = 1e-12
CRITICAL_RESIDUAL_TOL = 1e-9
HESSIAN_EIG_FLOOR = 1e-6
FIBER_MULTISTARTS = 128      # Newton starts seeding each fiber sample
TARGET_CANDIDATES = 500      # draws before random_regular_target gives up
_NEAREST = 8                 # neighbours per point in the connectivity subgraph


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed))


# ---------------------------------------------------------------------------
# batched Newton projection onto a fiber
# ---------------------------------------------------------------------------


def _solve(A, b):
    """Batched solve of A x = b; the pseudo-inverse for the whole batch
    when some A is singular."""
    try:
        return np.linalg.solve(A, b)
    except np.linalg.LinAlgError:
        return np.linalg.pinv(A) @ b


def _gram_solve(J, rhs):
    """(J J^T + 1e-300 I)^-1 rhs per sample, as a (B, k, 1) array.  For
    k = 1 it is one division, which is what LAPACK's 1x1 solve computes."""
    A = J @ np.swapaxes(J, 1, 2) + 1e-300 * np.eye(J.shape[1])
    if J.shape[1] == 1:
        return rhs[..., None] / A
    return _solve(A, rhs[..., None])


def _project_batch(cb, k, m, X, max_iter=60):
    """Least-squares Newton for P_k(x) = m on a batch of points.

    Returns (X, ok): updated points and a convergence mask.  Non-finite or
    runaway rows are marked failed and left untouched.

    A row that converged in the loop is not moved again and passed a test
    ten times tighter than the closing one, and a row's values do not
    depend on its batch, so the closing evaluation runs on the other rows
    only.
    """
    m = np.asarray(m, dtype=float)
    X = np.array(X, dtype=float)
    scale = 1.0 + float(np.max(np.abs(m)))
    active = np.ones(len(X), dtype=bool)
    converged = np.zeros(len(X), dtype=bool)
    for _ in range(max_iter):
        if not np.any(active):
            break
        Xa = X[active]
        P, J = cb.evaluate(Xa, k)
        R = P - m
        bad = ~np.all(np.isfinite(R), axis=1) | (np.max(np.abs(Xa), axis=1) > 1e8)
        done = np.max(np.abs(R), axis=1) <= NEWTON_TOL * scale
        step = np.squeeze(np.swapaxes(J, 1, 2) @ _gram_solve(J, R), axis=-1)
        # damp oversized steps; the fiber scale is O(sqrt(m1)) for p1=|x|^2
        norms = np.linalg.norm(step, axis=1, keepdims=True)
        cap = 0.5 * (1.0 + np.linalg.norm(Xa, axis=1, keepdims=True))
        step = np.where(norms > cap, step * cap / np.maximum(norms, 1e-300), step)
        move = ~(done | bad)
        Xa[move] -= step[move]
        X[active] = Xa
        idx = np.flatnonzero(active)
        active[idx[done | bad]] = False
        converged[idx[done & ~bad]] = True
    rest = np.flatnonzero(~converged)
    if len(rest):
        R = cb.P(X[rest], k) - m
        converged[rest] = np.all(np.isfinite(R), axis=1) & (
            np.max(np.abs(R), axis=1) <= 10 * NEWTON_TOL * scale
        )
    return X, converged


def _tangent_directions(J, G):
    """Project the directions G onto the tangent space of the fiber, the
    kernel of the Jacobian rows J (B, k, n)."""
    alpha = _gram_solve(J, np.einsum("bkn,bn->bk", J, G))
    T = G - np.squeeze(np.swapaxes(J, 1, 2) @ alpha, axis=-1)
    norms = np.linalg.norm(T, axis=1, keepdims=True)
    return T / np.maximum(norms, 1e-300)


# ---------------------------------------------------------------------------
# fiber sampling
# ---------------------------------------------------------------------------


@dataclass
class FiberSample:
    type_name: str
    k: int
    target: np.ndarray
    points: np.ndarray          # (N, n), all inside the chamber, residual-checked
    seed: int
    residual_max: float

    @property
    def empty(self) -> bool:
        return len(self.points) == 0

    def to_dict(self) -> dict:
        return {
            "type": self.type_name,
            "k": self.k,
            "target": [float(v) for v in self.target],
            "seed": self.seed,
            "residual_max": self.residual_max,
            "n_points": int(len(self.points)),
            "points": [[float(v) for v in row] for row in self.points],
        }


def _fiber_scale(basis: InvariantBasis, m, x_hint) -> float:
    if basis.degrees[0] == 2 and m[0] > 0:
        return float(np.sqrt(m[0]))
    if x_hint is not None:
        return max(float(np.linalg.norm(x_hint)), 1e-6)
    return 1.0


def sample_fiber(
    basis: InvariantBasis,
    rs: RootSystem,
    k: int,
    m,
    n_points: int = 2000,
    seed: int = 0,
    x_hint=None,
    radius_cap: float | None = None,
) -> FiberSample:
    """Multistart solves plus a tangential random walk with re-projection.

    Points are reflected into the closed chamber, deduplicated on a 1e-6
    grid and returned in lexicographic order.  An empty result is a
    legitimate outcome (target outside the image).

    The sample is confined to the ball |x| <= radius_cap (default six times
    the fiber scale).  Fibers of the squared-norm invariant are compact and
    unaffected; for the linear first invariant of the Newton family the cap
    is what makes the sampled value interval well defined, matching the
    ball-restricted image studied everywhere else.
    """
    if not 1 <= k <= len(basis.polys):
        raise UsageError(f"k must be in 1..{len(basis.polys)}")
    m = np.asarray(m, dtype=float)
    if len(m) != k:
        raise UsageError("target length must equal k")
    cb = basis.compiled
    n = basis.nvars
    if basis.degrees[0] == 2 and m[0] < 0:
        return FiberSample(basis.ctype.name, k, m, np.zeros((0, n)), seed, 0.0)

    rng = _rng(seed)
    s = _fiber_scale(basis, m, x_hint)
    X0 = rng.normal(size=(FIBER_MULTISTARTS, n)) * s
    if x_hint is not None:
        X0[0] = np.asarray(x_hint, dtype=float)
    X0, ok = _project_batch(cb, k, m, X0)
    seeds = X0[ok]
    if len(seeds) == 0:
        return FiberSample(basis.ctype.name, k, m, np.zeros((0, n)), seed, 0.0)

    cap = radius_cap if radius_cap is not None else 6.0 * s + 1.0
    seeds = seeds[np.linalg.norm(seeds, axis=1) <= cap]
    if len(seeds) == 0:
        return FiberSample(basis.ctype.name, k, m, np.zeros((0, n)), seed, 0.0)
    walkers = min(256, max(n_points, 8))
    idx = rng.integers(0, len(seeds), size=walkers)
    X = seeds[idx].copy()
    collected = [seeds]
    steps = max(int(np.ceil(1.3 * n_points / walkers)), 4)
    step_len = 0.15 * s
    for _ in range(steps):
        T = _tangent_directions(cb.J(X, k), rng.normal(size=(walkers, n)))
        X = X + step_len * T
        X, ok = _project_batch(cb, k, m, X, max_iter=25)
        runaway = np.linalg.norm(X, axis=1) > cap
        bad = ~ok | runaway
        if np.any(bad):
            repl = rng.integers(0, len(seeds), size=int(np.sum(bad)))
            X[bad] = seeds[repl]
        collected.append(X[ok & ~runaway].copy())
    pts = np.concatenate(collected, axis=0)
    pts = np.concatenate([pts, _extend_extremes(cb, k, m, pts, s, cap)], axis=0)

    # reduce to the chamber and deduplicate deterministically
    pts = rs.to_chamber(pts)
    resid = np.max(np.abs(cb.P(pts, k) - m), axis=1)
    keep = resid <= FIBER_RESIDUAL_TOL * (1.0 + np.max(np.abs(m)))
    keep &= rs.chamber_contains(pts, tol=1e-9 * max(s, 1.0))
    keep &= np.linalg.norm(pts, axis=1) <= cap + 1e-9
    pts = pts[keep]
    if len(pts) == 0:
        return FiberSample(basis.ctype.name, k, m, np.zeros((0, n)), seed, 0.0)
    quant = np.round(pts / (1e-6 * max(s, 1e-6))).astype(np.int64)
    _, uniq = np.unique(quant, axis=0, return_index=True)
    pts = pts[np.sort(uniq)]
    order = np.lexsort(pts.T[::-1])
    pts = pts[order]
    if len(pts) > n_points:
        sel = np.linspace(0, len(pts) - 1, n_points).round().astype(int)
        pts = pts[np.unique(sel)]
    resid = float(np.max(np.abs(cb.P(pts, k) - m)))
    return FiberSample(basis.ctype.name, k, m, pts, seed, resid)


def _extend_extremes(cb, k, m, pts, s, cap):
    """Push the current extreme points of p_{k+1} outward along the fiber.

    Projected-gradient polish so that sampled value intervals reach the
    endpoint critical values (inside the radius cap); returns extra points.
    """
    if k >= cb.k or len(pts) == 0:
        return np.zeros((0, pts.shape[1]))
    vals = cb.P(pts, k + 1)[:, k]
    chosen = pts[[int(np.argmin(vals)), int(np.argmax(vals))]].copy()
    P, J = cb.evaluate(chosen, k + 1)
    signs = np.array([-1.0, 1.0])
    out = [chosen.copy()]
    step = 0.2 * s
    for _ in range(40):
        T = _tangent_directions(np.ascontiguousarray(J[:, :k]), J[:, k, :] * signs[:, None])
        cand = chosen + step * T
        cand, ok = _project_batch(cb, k, m, cand, max_iter=25)
        P_new, J_new = cb.evaluate(cand, k + 1)
        better = ok & (signs * (P_new[:, k] - P[:, k]) > 0)
        better &= np.linalg.norm(cand, axis=1) <= cap
        chosen[better] = cand[better]
        P[better], J[better] = P_new[better], J_new[better]
        if not np.any(better):
            step *= 0.5
            if step < 1e-9 * s:
                break
        out.append(chosen.copy())
    return np.concatenate(out, axis=0)


def fiber_connectivity(fs: FiberSample, radius: float | None = None) -> int:
    """Connected components of the r-neighborhood graph on the sample.

    The default radius is three times the largest nearest-neighbour
    distance.  The r-graph is never built: one K-nearest query gives that
    distance and a subgraph of the r-graph, the edges to the K nearest that
    are strictly shorter than r (so they pass the KD-tree's own <= r test
    on squared distances).  An r-edge joining two of its components has an
    end outside the largest one, so the r-edges at those points, found in
    one query, join exactly the components the r-graph joins.
    """
    pts = fs.points
    if len(pts) == 0:
        raise UsageError("connectivity of an empty sample is undefined")
    if len(pts) == 1:
        return 1
    tree = cKDTree(pts)
    dist, nbr = tree.query(pts, k=min(_NEAREST, len(pts) - 1) + 1)
    if radius is None:
        radius = 3.0 * float(np.max(dist[:, 1]))
    rows, cols = np.nonzero(dist < radius)
    graph = csr_matrix((np.ones(len(rows)), (rows, nbr[rows, cols])), shape=(len(pts),) * 2)
    count, labels = connected_components(graph, directed=False)
    if count == 1:
        return 1
    outside = np.flatnonzero(labels != np.argmax(np.bincount(labels)))
    cross = cKDTree(pts[outside]).sparse_distance_matrix(tree, radius, output_type="ndarray")
    joins = csr_matrix((np.ones(len(cross)), (labels[outside[cross["i"]]], labels[cross["j"]])),
                       shape=(count, count))
    return int(connected_components(joins, directed=False)[0])


def fiber_value_interval(fs: FiberSample, basis: InvariantBasis, k: int):
    """(lo, hi, largest relative gap) of p_{k+1} over the sample."""
    if fs.empty:
        raise UsageError("value interval of an empty sample is undefined")
    vals = np.sort(basis.compiled.P(fs.points, k + 1)[:, k])
    lo, hi = float(vals[0]), float(vals[-1])
    if hi - lo < 1e-14:
        return lo, hi, 0.0
    gap = float(np.max(np.diff(vals)) / (hi - lo))
    return lo, hi, gap


def random_regular_target(
    basis: InvariantBasis, rs: RootSystem, k: int, seed: int,
    radius: float = 1.0, margin: float = 0.05,
):
    """Target m = P_k(x*) for x* sampled in the chamber interior with a
    uniform margin from every wall (generic regular values).

    The margin is relative to |x*| and is clamped to half the chamber's
    inradius on the unit sphere, 1/|sum_j |a_j| w_j| (coweights w_j), so
    that narrow chambers (H4: 0.039) still admit targets.
    """
    norms = np.linalg.norm(rs.simple_f, axis=1)
    inradius = 1.0 / np.linalg.norm(rs.coweights_f[:, :len(norms)] @ norms)
    margin = min(margin, 0.5 * inradius)
    mirrors = rs.positive_f / np.linalg.norm(rs.positive_f, axis=1, keepdims=True)
    rng = _rng(seed)
    for _ in range(TARGET_CANDIDATES):
        x = rng.normal(size=basis.nvars)
        x = x / np.linalg.norm(x) * radius * rng.uniform(0.4, 1.0) ** (1.0 / basis.nvars)
        # reflections keep the distance to the nearest mirror, the least wall
        # distance in the chamber: reduce only what may pass, up to 1e-9 |x|
        if np.min(np.abs(mirrors @ x)) >= (margin - 1e-9) * np.linalg.norm(x):
            x = rs.to_chamber(x)
            if np.min(rs.wall_distances(x)) >= margin * np.linalg.norm(x):
                return basis.compiled.P(x[None, :], k)[0], x
    raise ConvergenceError("could not sample a regular target")


# ---------------------------------------------------------------------------
# Lagrange critical points of p_{k+1} on a fiber
# ---------------------------------------------------------------------------


@dataclass
class CriticalPoint:
    x: np.ndarray
    multipliers: np.ndarray
    value: float
    stratum_id: str | None
    stratum_dim: int
    hessian_eigs: np.ndarray     # eigenvalues of the projected Hessian
    residual: float
    bordering_minor_max: float
    anomaly: bool
    anomaly_reason: str = ""

    def to_dict(self) -> dict:
        return {
            "x": [float(v) for v in self.x],
            "multipliers": [float(v) for v in self.multipliers],
            "value": self.value,
            "stratum": self.stratum_id,
            "stratum_dim": self.stratum_dim,
            "hessian_eigs": [float(v) for v in self.hessian_eigs],
            "residual": self.residual,
            "bordering_minor_max": self.bordering_minor_max,
            "anomaly": self.anomaly,
            **({"anomaly_reason": self.anomaly_reason} if self.anomaly else {}),
        }


def critical_points(
    basis: InvariantBasis,
    rs: RootSystem,
    k: int,
    m,
    multistarts: int = 96,
    seed: int = 0,
    strata: list[Stratum] | None = None,
) -> list[CriticalPoint]:
    """Solve the square Lagrange system {P_k = m} + {grad p_{k+1} = sum mu_j
    grad p_j} by batched Newton multistart.

    Each converged solution is reflected into the chamber (the multipliers
    are reflection-invariant), deduplicated, and classified: the stratum it
    lies on (expected dimension k), the projected-Hessian eigenvalues on the
    fiber tangent space, and the size of the bordering minors.  A solution
    on a stratum of dimension other than k is flagged as an anomaly.
    """
    cb = basis.compiled
    n = basis.nvars
    m = np.asarray(m, dtype=float)
    if not 1 <= k < len(basis.polys):
        raise UsageError("critical points need 1 <= k < n")
    if len(m) != k:
        raise UsageError("target length must equal k")
    if strata is None:
        strata = enumerate_strata(rs)
    rng = _rng(seed)
    s = _fiber_scale(basis, m, None)

    X0 = rng.normal(size=(multistarts, n)) * s
    X0, ok = _project_batch(cb, k, m, X0)
    X = X0[ok]
    if len(X) == 0:
        return []
    # initial multipliers from least squares on the gradient equation
    G = cb.J(X, k + 1)
    Jk = G[:, :k, :]
    mu = _gram_solve(Jk, np.einsum("bkn,bn->bk", Jk, G[:, k, :]))[..., 0]

    Z = np.concatenate([X, mu], axis=1)
    scale = 1.0 + float(np.max(np.abs(m)))
    for _ in range(80):
        X, mu = Z[:, :n], Z[:, n:]
        P, G, H = cb.evaluate(X, k + 1, hess=True)
        Jk, gk1 = G[:, :k, :], G[:, k, :]
        Hl = H[:, k] - np.einsum("bj,bjpq->bpq", mu, H[:, :k])
        R1 = P[:, :k] - m
        R2 = gk1 - np.einsum("bj,bjn->bn", mu, Jk)
        R = np.concatenate([R1, R2], axis=1)
        if float(np.max(np.abs(R), initial=0.0)) <= NEWTON_TOL * scale:
            break
        B = len(Z)
        jac = np.zeros((B, n + k, n + k))
        jac[:, :k, :n] = Jk
        jac[:, k:, :n] = Hl
        jac[:, k:, n:] = -np.swapaxes(Jk, 1, 2)
        step = _solve(jac, R[..., None])[..., 0]
        norms = np.linalg.norm(step, axis=1, keepdims=True)
        cap = 0.5 * s + 0.5
        step = np.where(norms > cap, step * cap / np.maximum(norms, 1e-300), step)
        Z = Z - step
        finite = np.all(np.isfinite(Z), axis=1) & (
            np.linalg.norm(Z[:, :n], axis=1) < 50 * s + 50
        )
        Z = Z[finite]
        if len(Z) == 0:
            return []
    else:
        X, mu = Z[:, :n], Z[:, n:]
        P, G = cb.evaluate(X, k + 1)
    # after a break, P and G are those of the converged batch itself
    R1 = P[:, :k] - m
    R2 = G[:, k, :] - np.einsum("bj,bjn->bn", mu, G[:, :k, :])
    resid = np.maximum(np.max(np.abs(R1), axis=1), np.max(np.abs(R2), axis=1))
    good = resid <= CRITICAL_RESIDUAL_TOL * scale
    X, mu = X[good], mu[good]
    if len(X) == 0:
        return []
    X = rs.to_chamber(X)

    # deduplicate on a relative grid
    quant = np.round(X / (1e-6 * max(s, 1e-6))).astype(np.int64)
    _, uniq = np.unique(quant, axis=0, return_index=True)
    X, mu = X[np.sort(uniq)], mu[np.sort(uniq)]

    P, G, H = cb.evaluate(X, k + 1, hess=True)
    out = [_classify_critical(rs, strata, k, m, *row) for row in zip(X, mu, P, G, H)]
    out.sort(key=lambda cp: (cp.value, tuple(cp.x)))
    return out


def _classify_critical(rs, strata, k, m, x, mu, P, G, H) -> CriticalPoint:
    Jk, gk1 = G[:k], G[k]
    resid = max(
        float(np.max(np.abs(P[:k] - m))),
        float(np.max(np.abs(gk1 - mu @ Jk))),
    )
    value = float(P[k])

    st = stratum_of_point(rs, strata, x)
    sdim = st.dim if st is not None else -1

    # tangent space of the fiber and projected Hessian of the Lagrange function
    Hl = H[k] - np.einsum("j,jpq->pq", mu, H[:k])
    _, sv, vt = np.linalg.svd(Jk)
    rank = int(np.sum(sv > 1e-10 * max(sv[0], 1e-300)))
    T = vt[rank:].T  # (n, n-rank)
    eigs = np.linalg.eigvalsh(T.T @ Hl @ T) if T.shape[1] else np.zeros(0)

    border = float(_minor_table(G[None], [range(k + 1)], k + 1)[0, 0])

    anomaly = False
    reason = ""
    if st is None:
        anomaly, reason = True, "no stratum matches the active walls"
    elif st.dim != k:
        anomaly, reason = True, f"critical point on a stratum of dimension {st.dim} != k={k}"
    elif eigs.size and np.min(np.abs(eigs)) < HESSIAN_EIG_FLOOR:
        anomaly, reason = True, "projected Hessian has a near-zero eigenvalue"
    return CriticalPoint(
        x=x,
        multipliers=mu,
        value=value,
        stratum_id=st.stratum_id if st else None,
        stratum_dim=sdim,
        hessian_eigs=eigs,
        residual=resid,
        bordering_minor_max=border,
        anomaly=anomaly,
        anomaly_reason=reason,
    )
