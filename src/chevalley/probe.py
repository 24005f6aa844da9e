"""Numerical exploration of invariant fibers inside the closed chamber.

A fiber here is the level set of the first k invariants, intersected with
the fundamental chamber.  Because the invariants are group-invariant, any
point can be reflected into the chamber without leaving the fiber, so the
samplers work in the whole space and reduce at the end.

All heavy paths are batched over numpy arrays: the Newton re-projection,
the tangential random walk and the Lagrange solves all advance hundreds of
points per step, through one Newton loop (`_newton`) in which each row
stops on its own residual, so a solution depends on its start alone; so
the extremes polish reads a projected batch of halved steps as Python
scalars, bit for bit its serial search.
Randomness comes from a counter-based Philox stream keyed by the caller's
seed, so every output is reproducible byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial import cKDTree

from .coxeter import RootSystem, Stratum, stratum_of_point
from .errors import ConvergenceError, UsageError
from .invariants import InvariantBasis
from .jacobian import _minor_table

FIBER_RESIDUAL_TOL = 1e-9     # acceptance residual for stored fiber points
NEWTON_TOL = 1e-12
CRITICAL_RESIDUAL_TOL = 1e-9
HESSIAN_EIG_FLOOR = 1e-6
FIBER_MULTISTARTS = 128      # Newton starts seeding each fiber sample
CRITICAL_MULTISTARTS = 96    # Newton starts of each critical-point solve
TARGET_CANDIDATES = 500      # draws before random_regular_target gives up
TARGET_MARGIN = 0.05         # random_regular_target's wall distance over |x*|
_NEAREST = 8                 # neighbours per point in the connectivity subgraph


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed))


# ---------------------------------------------------------------------------
# batched Newton projection onto a fiber
# ---------------------------------------------------------------------------


def _solve(A, b):
    """Batched solve of A x = b.  When some A is singular, each row is
    solved on its own and only the singular ones get the pseudo-inverse, so
    a row's result does not depend on its batch."""
    try:
        return np.linalg.solve(A, b)
    except np.linalg.LinAlgError:
        if A.ndim == 2:
            return np.linalg.pinv(A) @ b
        return np.array([_solve(a, r) for a, r in zip(A, b)])


@lru_cache(maxsize=None)
def _tiny_diagonal(k):
    return np.broadcast_to(1e-300 * np.eye(k), (k, k))    # read-only, so shared


def _gram_solve(J, rhs):
    """(J J^T + 1e-300 I)^-1 rhs per sample, as a (B, k, 1) array.  For
    k = 1 it is one division, which is what LAPACK's 1x1 solve computes."""
    A = J @ np.swapaxes(J, 1, 2) + _tiny_diagonal(J.shape[1])
    if J.shape[1] == 1:
        return rhs[..., None] / A
    return _solve(A, rhs[..., None])


def _least_norm_solve(J, r):   # the least-norm d with J d = r per sample
    return (np.swapaxes(J, 1, 2) @ _gram_solve(J, r))[..., 0]


def _row_max_abs(a):
    """np.max(np.abs(a), axis=1) (NaN on a row with one) by the faster
    reduction over the leading axis of a copy of a^T: a max has no order."""
    return np.maximum.reduce(np.ascontiguousarray(np.abs(a).T))


def _newton(system, Z, tol, max_iter, cap, runaway, close_tol):
    """Batched Newton in which each row stops on its own residual.

    system(Za) gives the residuals R of the active rows Za, a function
    steps(rows) that gives the Newton steps of those rows of Za only, and
    per-row values evaluated with R (an array); cap(Za) gives their largest
    step lengths and runaway(Za) the rows that ran away.  A row stops as
    converged once max|R| <= tol, and as failed when R is not finite or it
    ran away, both with no step asked for it, or when its step length is not
    finite (a step too long to square counts as infinite, silently); it is
    not moved again.  Every other row takes its step, shortened to the cap.

    Returns (Z, converged, last), the verdict on every row: the rows the
    loop did not converge are evaluated once more, and converge if max|R|
    <= close_tol.  A row that converged in the loop passed tol <=
    close_tol, and a row's values do not depend on its batch, so only the
    other rows are evaluated again.  last holds each row's values from its
    last evaluation, at its final Z (None for an empty batch).
    """
    Z = np.array(Z, dtype=float)
    converged = np.zeros(len(Z), dtype=bool)
    idx = np.arange(len(Z))
    last = None
    for _ in range(max_iter):
        if not len(idx):
            break
        Za = Z if len(idx) == len(Z) else Z[idx]
        R, steps, values = system(Za)
        last = np.empty_like(values) if last is None else last    # Za is Z at first
        # the max is NaN when any entry is, so it alone tests finiteness
        r = _row_max_abs(R)
        good = np.isfinite(r) & ~runaway(Za)
        done = r <= tol
        hit = done & good
        converged[idx[hit]] = True
        last[idx[hit]] = values[hit]
        move = np.flatnonzero(good & ~done)
        if not len(move):
            break
        step = steps(move)
        with np.errstate(over="ignore"):
            norms = np.sqrt(np.add.reduce(step * step, axis=1, keepdims=True))
        finite = np.isfinite(norms[:, 0])
        move, step, norms = move[finite], step[finite], norms[finite]
        Zm = Za[move]
        limit = cap(Zm)
        over = norms > limit
        if over.any():
            step = np.where(over, step * limit / np.maximum(norms, 1e-300), step)
        Z[idx[move]] = Zm - step
        idx = idx[move]
    rest = np.flatnonzero(~converged)
    if len(rest):
        R, _, values = system(Z[rest])
        converged[rest] = _row_max_abs(R) <= close_tol
        last = values if last is None else last    # no iteration: rest is every row
        last[rest] = values
    return Z, converged, last


def _project_batch(cb, k, m, X, max_iter=60):
    """Least-squares Newton for P_k(x) = m on a batch of points, on the
    compiled basis cb.  Returns (X, ok, J): updated points, a convergence
    mask and J of P_k at X.  Rows beyond |x_i| > 1e8 are marked failed; a
    row the loop leaves above NEWTON_TOL closes at ten times it.
    """
    m = np.asarray(m, dtype=float)
    scale = 1.0 + float(np.max(np.abs(m)))

    def gauss_newton(Xa):
        P, J = cb.evaluate(Xa, k)
        R = P - m
        return R, lambda rows: _least_norm_solve(J[rows], R[rows]), J

    # damp oversized steps; the fiber scale is O(sqrt(m1)) for p1=|x|^2
    return _newton(
        gauss_newton, X, NEWTON_TOL * scale, max_iter,
        cap=lambda Xa: 0.5 * (1.0 + np.sqrt(np.add.reduce(Xa * Xa, axis=1, keepdims=True))),
        runaway=lambda Xa: _row_max_abs(Xa) > 1e8,
        close_tol=10 * NEWTON_TOL * scale,
    )


def _first_rows(quant):
    """Sorted indices of each distinct row's first occurrence in the integer
    grid quant, as np.unique(axis=0, return_index=True); lexsort is stable."""
    order = np.lexsort(quant.T[::-1])
    q = quant[order]
    first = np.ones(len(q), dtype=bool)
    first[1:] = np.any(q[1:] != q[:-1], axis=1)
    return np.sort(order[first])


def _tangent_directions(J, G):
    """Project the directions G onto the tangent space of the fiber, the
    kernel of the Jacobian rows J (B, k, n)."""
    T = G - _least_norm_solve(J, np.einsum("bkn,bn->bk", J, G))
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
    X0, ok, J0 = _project_batch(cb, k, m, X0)
    cap = radius_cap if radius_cap is not None else 6.0 * s + 1.0
    ok[ok] = np.linalg.norm(X0[ok], axis=1) <= cap
    seeds, seed_J = X0[ok], J0[ok]
    if len(seeds) == 0:
        return FiberSample(basis.ctype.name, k, m, np.zeros((0, n)), seed, 0.0)
    walkers = min(256, max(n_points, 8))
    idx = rng.integers(0, len(seeds), size=walkers)
    X, J = seeds[idx], seed_J[idx]
    collected = [seeds]
    steps = max(int(np.ceil(1.3 * n_points / walkers)), 4)
    step_len = 0.15 * s
    for _ in range(steps):
        T = _tangent_directions(J, rng.normal(size=(walkers, n)))
        X = X + step_len * T
        X, ok, J = _project_batch(cb, k, m, X, max_iter=25)
        bad = ~ok | (np.linalg.norm(X, axis=1) > cap)
        if np.any(bad):
            repl = rng.integers(0, len(seeds), size=int(np.sum(bad)))
            X[bad], J[bad] = seeds[repl], seed_J[repl]
        collected.append(X[~bad])
    pts = np.concatenate(collected, axis=0)
    pts = np.concatenate([pts, _extend_extremes(cb, k, m, pts, s, cap)], axis=0)

    # reduce to the chamber, deduplicate deterministically and select rows
    pts = rs.to_chamber(pts)
    resid = _row_max_abs(cb.P(pts, k) - m)
    keep = resid <= FIBER_RESIDUAL_TOL * (1.0 + np.max(np.abs(m)))
    keep &= rs.chamber_contains(pts, tol=1e-9 * max(s, 1.0))
    keep &= np.linalg.norm(pts, axis=1) <= cap + 1e-9
    sel = np.flatnonzero(keep)
    if len(sel) == 0:
        return FiberSample(basis.ctype.name, k, m, np.zeros((0, n)), seed, 0.0)
    sel = sel[_first_rows(np.round(pts[sel] / (1e-6 * max(s, 1e-6))).astype(np.int64))]
    sel = sel[np.lexsort(pts[sel].T[::-1])]
    if len(sel) > n_points:
        sel = sel[np.unique(np.linspace(0, len(sel) - 1, n_points).round().astype(int))]
    return FiberSample(basis.ctype.name, k, m, pts[sel], seed, float(np.max(resid[sel])))


def _extend_extremes(cb, k, m, pts, s, cap):
    """Push the current extreme points of p_{k+1} outward along the fiber.

    Projected-gradient polish so that sampled value intervals reach the
    endpoint critical values (inside the radius cap); returns extra points.

    A candidate depends only on its chain's point and the step, so when a
    chain moves, its candidates at the step and its next 7 halvings are
    projected in one batch, whose verdicts and p_{k+1} values become
    Python scalars that the serial acceptance then reads in turn.
    """
    if k >= cb.k or len(pts) == 0:
        return np.zeros((0, pts.shape[1]))
    vals = cb.P(pts, k + 1)[:, k]
    chosen = pts[[int(np.argmin(vals)), int(np.argmax(vals))]]
    P, J = cb.evaluate(chosen, k + 1)
    halvings, signs = 0.5 ** np.arange(8), np.array([-1.0, 1.0])
    # per chain: its point, p_{k+1} value and Jacobian rows there, and its
    # candidates as (point, verdict, value, Jacobian rows), read at tried
    point, value, jac = list(chosen), P[:, k].tolist(), list(J)
    found, tried, out, step = [None, None], [8, 8], list(chosen), 0.2 * s
    for _ in range(40):
        fresh = [c for c in (0, 1) if tried[c] == 8]
        if fresh:
            G = np.array([jac[c] for c in fresh])
            T = _tangent_directions(np.ascontiguousarray(G[:, :k]), G[:, k, :] * signs[fresh, None])
            X = np.array([point[c] for c in fresh])[:, None] + step * halvings[:, None] * T[:, None]
            cand, ok, _ = _project_batch(cb, k, m, X.reshape(-1, pts.shape[1]), max_iter=25)
            P_new, J_new = cb.evaluate(cand, k + 1)
            accept = (ok & (np.linalg.norm(cand, axis=1) <= cap)).tolist()
            rows = list(zip(cand, accept, P_new[:, k].tolist(), J_new))
            for j, c in enumerate(fresh):
                found[c], tried[c] = rows[8 * j:8 * j + 8], 0
        moved = False
        for c, sign in enumerate(signs.tolist()):
            x, accepted, v, jx = found[c][tried[c]]
            if accepted and sign * (v - value[c]) > 0:
                point[c], value[c], jac[c], tried[c], moved = x, v, jx, 8, True
        if not moved:
            step *= 0.5
            tried = [t + 1 for t in tried]
            if step < 1e-9 * s:
                break
        out += point
    return np.array(out)


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
    if not 1 <= k < len(basis.polys):
        raise UsageError("the value interval of p_{k+1} needs 1 <= k < n")
    if fs.empty:
        raise UsageError("value interval of an empty sample is undefined")
    vals = np.sort(basis.compiled.P(fs.points, k + 1)[:, k])
    lo, hi = float(vals[0]), float(vals[-1])
    if hi - lo < 1e-14:
        return lo, hi, 0.0
    gap = float(np.max(np.diff(vals)) / (hi - lo))
    return lo, hi, gap


def random_regular_target(basis: InvariantBasis, rs: RootSystem, k: int, seed: int):
    """Target m = P_k(x*) for x* sampled in the chamber interior of the unit
    ball with a uniform margin from every wall (generic regular values).

    The margin, TARGET_MARGIN, is relative to |x*| and is clamped to half the
    chamber's inradius on the unit sphere, 1/|sum_j |a_j| w_j| (coweights
    w_j), so that narrow chambers (H4: 0.039) still admit targets.
    """
    norms = np.linalg.norm(rs.simple_f, axis=1)
    inradius = 1.0 / np.linalg.norm(rs.coweights_f[:, :len(norms)] @ norms)
    margin = min(TARGET_MARGIN, 0.5 * inradius)
    mirrors = rs.positive_f / np.linalg.norm(rs.positive_f, axis=1, keepdims=True)
    rng = _rng(seed)
    for _ in range(TARGET_CANDIDATES):
        x = rng.normal(size=basis.nvars)
        x = x / np.linalg.norm(x) * rng.uniform(0.4, 1.0) ** (1.0 / basis.nvars)
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
    seed: int = 0,
    *,
    strata: list[Stratum],
) -> list[CriticalPoint]:
    """Solve the square Lagrange system {P_k = m} + {grad p_{k+1} = sum mu_j
    grad p_j} by batched Newton multistart from CRITICAL_MULTISTARTS starts.
    Each start is solved on its own, so fewer starts find a subset of the
    points, bit for bit.  `strata` is `enumerate_strata(rs)`.

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
    rng = _rng(seed)
    s = _fiber_scale(basis, m, None)

    X0 = rng.normal(size=(CRITICAL_MULTISTARTS, n)) * s
    X0, ok, _ = _project_batch(cb, k, m, X0)
    X = X0[ok]
    if len(X) == 0:
        return []
    # initial multipliers from least squares on the gradient equation
    G = cb.J(X, k + 1)
    Jk = G[:, :k, :]
    mu = _gram_solve(Jk, np.einsum("bkn,bn->bk", Jk, G[:, k, :]))[..., 0]

    def lagrange(Z):
        """Residuals of the Lagrange system at the rows Z = (x, mu), and
        steps(rows), their Newton steps on the square Jacobian."""
        X, mu = Z[:, :n], Z[:, n:]
        P, G, H = cb.evaluate(X, k + 1, hess=True)
        Jk = G[:, :k, :]
        R = np.concatenate([P[:, :k] - m, G[:, k, :] - np.einsum("bj,bjn->bn", mu, Jk)], axis=1)
        jac = np.zeros((len(Z), n + k, n + k))
        jac[:, :k, :n] = Jk
        jac[:, k:, :n] = H[:, k] - np.einsum("bj,bjpq->bpq", mu, H[:, :k])
        jac[:, k:, n:] = -np.swapaxes(Jk, 1, 2)
        return R, lambda rows: _solve(jac[rows], R[rows, :, None])[..., 0], G

    scale = 1.0 + float(np.max(np.abs(m)))
    Z, good, _ = _newton(
        lagrange, np.concatenate([X, mu], axis=1), NEWTON_TOL * scale, 80,
        cap=lambda Za: 0.5 * s + 0.5,
        runaway=lambda Za: np.linalg.norm(Za[:, :n], axis=1) >= 50 * s + 50,
        close_tol=CRITICAL_RESIDUAL_TOL * scale,
    )
    X, mu = Z[good, :n], Z[good, n:]
    if len(X) == 0:
        return []
    X = rs.to_chamber(X)

    # deduplicate on a relative grid
    quant = np.round(X / (1e-6 * max(s, 1e-6))).astype(np.int64)
    first = _first_rows(quant)
    X, mu = X[first], mu[first]

    P, G, H = cb.evaluate(X, k + 1, hess=True)
    border = _minor_table(G, [range(k + 1)])[:, 0]
    out = [_classify_critical(rs, strata, k, m, *row) for row in zip(X, mu, P, G, H, border)]
    out.sort(key=lambda cp: (cp.value, tuple(cp.x)))
    return out


def _classify_critical(rs, strata, k, m, x, mu, P, G, H, border) -> CriticalPoint:
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

    reasons = []
    if st is None:
        reasons.append("no stratum matches the active walls")
    elif st.dim != k:
        reasons.append(f"critical point on a stratum of dimension {st.dim} != k={k}")
    if eigs.size and np.min(np.abs(eigs)) < HESSIAN_EIG_FLOOR:
        reasons.append("projected Hessian has a near-zero eigenvalue")
    return CriticalPoint(
        x=x,
        multipliers=mu,
        value=value,
        stratum_id=st.stratum_id if st else None,
        stratum_dim=sdim,
        hessian_eigs=eigs,
        residual=resid,
        bordering_minor_max=float(border),
        anomaly=bool(reasons),
        anomaly_reason="; ".join(reasons),
    )
