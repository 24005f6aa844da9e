"""Lift derivatives d p_{k+1} / d p_j along a chamber face, in floats.

Acceptance criterion 7 and the regularity tests read them: they are
bounded on each face, with a continuous extension toward the origin.  They
are the numeric cross-check for exact Lipschitz certificates of the
envelope graphs (ROADMAP item 15).
"""

import numpy as np

from chevalley.coxeter import RootSystem, Stratum, sample_stratum
from chevalley.errors import ConvergenceError, UsageError
from chevalley.invariants import InvariantBasis

LIFT_COLUMN_FLOOR = 1e-9         # scale-free floor of a lift system column


def lift_derivatives(
    basis: InvariantBasis,
    rs: RootSystem,
    stratum: Stratum,
    samples: int = 50,
    radius: float = 1.0,
    seed: int = 23,
    points: np.ndarray | None = None,
):
    """Gradients (d p_{k+1} / d p_j)_{j=1..k} along a dimension-k stratum.

    Solved per sample from the k x k system in the face coordinates t of
    x = Omega_F t; a singular system at an interior sample would contradict
    the rank-k property and raises, as does a gradient that vanishes along
    the face (a column below LIFT_COLUMN_FLOOR of its scale).  Returns
    (points, gradients).
    """
    k = stratum.dim
    if k < 1:
        raise UsageError("lift derivatives need a stratum of dimension >= 1")
    if k >= len(basis.polys):
        raise UsageError("lift derivatives need k < n")
    X = points if points is not None else sample_stratum(
        stratum, samples, radius, seed, rs
    )
    omega = stratum.coweights  # (n, k)
    G = basis.compiled.J(X, k + 1)           # (S, k+1, n)
    M = np.einsum("sjn,nk->sjk", G[:, :k, :], omega)   # (S, k, k): rows j, cols k
    M = np.swapaxes(M, 1, 2)                           # system matrix (grad p_j . omega)
    rhs = np.einsum("sn,nk->sk", G[:, k, :], omega)
    # column j scales like gradient_scales[j] |x|^(deg_j - 1) max|omega column|
    col = np.linalg.norm(M, axis=1, keepdims=True)
    scale = (basis.compiled.gradient_scales[:k] * np.max(np.linalg.norm(omega, axis=0))
             * np.linalg.norm(X, axis=1)[:, None] ** (np.array(basis.degrees[:k]) - 1))
    low = np.argwhere(~(col[:, 0, :] > LIFT_COLUMN_FLOOR * scale))
    if len(low):
        s, j = low[0]
        raise ConvergenceError(
            f"degenerate lift system on stratum {stratum.stratum_id}: the gradient of p_{j + 1}"
            f" has norm {col[s, 0, j]:.2g} at scale {scale[s, j]:.2g}, at x = {X[s].tolist()}"
        )
    Me = M / col
    conds = np.linalg.cond(Me)
    if np.any(conds > 1e12):
        raise ConvergenceError(
            f"singular lift system on stratum {stratum.stratum_id}; "
            "this contradicts the rank-k property"
        )
    grads = np.linalg.solve(Me, rhs[..., None])[..., 0] / col[:, 0, :]
    return X, grads
