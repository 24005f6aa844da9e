"""Basic invariant systems and the polynomial map they define.

Closed forms are used wherever they exist:

  A(n)   Newton power sums sum x_i^k, k = 1..n
  B(n)   elementary symmetric polynomials in the squares
  D(n)   elementary symmetric in squares (degrees 2..2(n-1)) plus prod x_i,
         placed in nondecreasing degree order; at a degree tie the product
         invariant goes after the elementary one
  I2(p)  x^2 + y^2 and Re((x+iy)^p), exact over Q for every p

H3, F4 and H4 have no closed form here.  Their invariants are group
averages, built once by the offline job tools/build_h4_invariants.py and
shipped as JSON data files with a content hash.  This module only loads,
hashes and writes those files; none of the three is built at runtime, and
a missing file is a CapabilityError.
"""

from __future__ import annotations

import hashlib
import json
import os
from functools import cached_property
from itertools import combinations
from pathlib import Path

import numpy as np

from .coxeter import CoxeterType, coxeter_type
from .errors import CapabilityError, CheckFailure, IntegrityError, UsageError
from .field import ONE, Scalar
from .poly import CompiledPoly, SparsePoly, power_table

SCHEMA_VERSION = 1
CACHE_ENV_VAR = "CHEVALLEY_CACHE_DIR"
_PACKAGE_DATA = Path(__file__).parent / "data"

# exact polynomial arithmetic (generator substitution, the Jacobian
# determinant) is affordable up to this Coxeter number, the top degree;
# the degree-30 H4 system is beyond it
EXACT_COXETER_LIMIT = 12
NUMERIC_RANK_REL_TOL = 1e-8  # singular values below this fraction of the top one


class InvariantBasis:
    """An ordered system of basic invariants for one type."""

    def __init__(self, ctype: CoxeterType, polys: list[SparsePoly], provenance: str):
        if len(polys) != ctype.dim:
            raise UsageError("basis size must match the ambient dimension")
        degs = tuple(p.degree() for p in polys)
        if degs != ctype.degrees:
            raise CheckFailure(
                f"{ctype.name}: basis degrees {degs} do not match table {ctype.degrees}"
            )
        self.ctype = ctype
        self.polys = list(polys)
        self.degrees = degs
        self.provenance = provenance
        self._compiled: CompiledBasis | None = None

    @property
    def nvars(self) -> int:
        return self.ctype.dim

    @property
    def compiled(self) -> "CompiledBasis":
        if self._compiled is None:
            self._compiled = CompiledBasis(self)
        return self._compiled

    def __repr__(self):
        return f"InvariantBasis({self.ctype.name}, degrees={self.degrees})"


class CompiledBasis:
    """Batched float evaluation of the invariants, their gradients and
    Hessians.  This is the hot path for fiber sampling and mesh imaging.

    Each of the three is one `CompiledPoly` table: the invariants, the
    gradients flattened by (i, j), and the Hessians' upper triangles
    flattened by (i, j, l >= j), so the first k invariants use a prefix.
    The Hessian table and the gradient scales are built on first use.
    `evaluate` feeds all of them from one power table of the batch."""

    def __init__(self, basis: InvariantBasis):
        self.basis = basis
        self.n = basis.nvars
        self.k = len(basis.polys)
        self._p = CompiledPoly(basis.polys)
        self._grad_polys = [
            [p.diff(j) for j in range(self.n)] for p in basis.polys
        ]
        self._g = CompiledPoly([q for row in self._grad_polys for q in row])

    def P(self, X: np.ndarray, k: int | None = None) -> np.ndarray:
        """Invariant values; X of shape (..., n) -> (..., k)."""
        k = self.k if k is None else k
        return self._p(X, k)

    def J(self, X: np.ndarray, k: int | None = None) -> np.ndarray:
        """Jacobian rows for the first k invariants; (..., n) -> (..., k, n)."""
        k = self.k if k is None else k
        X = np.asarray(X, dtype=float)
        return self._g(X, k * self.n).reshape(X.shape[:-1] + (k, self.n))

    @cached_property
    def gradient_scales(self) -> np.ndarray:
        """Per-invariant gradient magnitude on the unit sphere (fixed seeded
        sample); used to normalize minors into scale-free quantities."""
        rng = np.random.default_rng(97531)
        pts = rng.normal(size=(64, self.n))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        scales = np.max(np.linalg.norm(self.J(pts), axis=2), axis=0)
        scales.flags.writeable = False
        return scales

    @cached_property
    def _hess(self) -> CompiledPoly:
        return CompiledPoly([
            q.diff(l) for row in self._grad_polys
            for j, q in enumerate(row) for l in range(j, self.n)
        ])

    def _symmetric(self, upper: np.ndarray, k: int) -> np.ndarray:
        # (..., k * n(n+1)/2) upper triangles -> (..., k, n, n)
        n = self.n
        upper = upper.reshape(upper.shape[:-1] + (k, n * (n + 1) // 2))
        j, l = np.triu_indices(n)
        out = np.empty(upper.shape[:-1] + (n, n))
        out[..., j, l] = upper
        out[..., l, j] = upper
        return out

    def hessians(self, X: np.ndarray, k: int | None = None) -> np.ndarray:
        """Hessians of the first k invariants; (..., n) -> (..., k, n, n)."""
        k = self.k if k is None else k
        return self._symmetric(self._hess(X, k * (self.n * (self.n + 1) // 2)), k)

    def evaluate(self, X: np.ndarray, k: int | None = None, hess: bool = False):
        """(P, J) or (P, J, H) of the first k invariants at a batch X of shape
        (B, n), from one power table, bit for bit the `P` / `J` / `hessians`
        values of each row, whatever batch holds it."""
        k = self.k if k is None else k
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.n:
            raise UsageError("evaluate needs a batch of shape (B, n)")
        if not 1 <= k <= self.k:
            raise UsageError(f"k must be in 1..{self.k}")
        # the invariants have the top exponent; their derivatives lower ones
        table = power_table(X, self._p.degrees[k])
        P = self._p.from_powers(table, k)
        J = self._g.from_powers(table, k * self.n).reshape(len(X), k, self.n)
        if not hess:
            return P, J
        H = self._hess.from_powers(table, k * (self.n * (self.n + 1) // 2))
        return P, J, self._symmetric(H, k)

    def restrict(self, B: np.ndarray) -> "RestrictedBasis":
        """The invariants on the span of B's columns, in its coordinates."""
        return RestrictedBasis(self, B)


class RestrictedBasis:
    """A compiled basis pulled back along y -> B y, where B is (n, d):
    P(Y) = P(Y B^T) for Y of shape (S, d), and `evaluate` gives it with
    J(Y) = J(Y B^T) B from one power table."""

    def __init__(self, base: CompiledBasis, B: np.ndarray):
        self.base = base
        self.B = np.asarray(B, dtype=float)

    def P(self, Y: np.ndarray, k: int | None = None) -> np.ndarray:
        return self.base.P(Y @ self.B.T, k)

    def evaluate(self, Y: np.ndarray, k: int | None = None):
        P, J = self.base.evaluate(Y @ self.B.T, k)
        return P, np.einsum("bkn,nj->bkj", J, self.B)


def chevalley_eval(basis: InvariantBasis, x, k: int | None = None) -> np.ndarray:
    """P_k(x) = (p_1(x), ..., p_k(x)) as floats."""
    k = len(basis.polys) if k is None else k
    if not 1 <= k <= len(basis.polys):
        raise UsageError(f"k must be in 1..{len(basis.polys)}")
    x = np.asarray(x, dtype=float)
    if x.shape != (basis.nvars,):
        raise UsageError("point has wrong dimension")
    return basis.compiled.P(x[None, :], k)[0]


# ---------------------------------------------------------------------------
# closed-form constructions
# ---------------------------------------------------------------------------


def _power_sums(n: int) -> list[SparsePoly]:
    out = []
    for k in range(1, n + 1):
        terms = {}
        for i in range(n):
            e = [0] * n
            e[i] = k
            terms[tuple(e)] = ONE
        out.append(SparsePoly(n, terms))
    return out


def _elementary_in_squares(n: int, k: int) -> SparsePoly:
    terms = {}
    for subset in combinations(range(n), k):
        e = [0] * n
        for i in subset:
            e[i] = 2
        terms[tuple(e)] = ONE
    return SparsePoly(n, terms)


def _coordinate_product(n: int) -> SparsePoly:
    return SparsePoly(n, {(1,) * n: ONE})


def _d_family_polys(n: int) -> list[SparsePoly]:
    tagged = [(2 * k, _elementary_in_squares(n, k)) for k in range(1, n)]
    tagged.append((n, _coordinate_product(n)))
    # stable sort: at a degree tie the product stays after the elementary one
    tagged.sort(key=lambda t: t[0])
    return [p for _, p in tagged]


def _dihedral_polys(p: int) -> list[SparsePoly]:
    n = 2
    p1 = SparsePoly(n, {(2, 0): ONE, (0, 2): ONE})
    # Re((x+iy)^p) = sum_{j even} C(p,j) (-1)^{j/2} x^{p-j} y^j
    terms = {}
    from math import comb

    for j in range(0, p + 1, 2):
        c = Scalar(comb(p, j) * (-1) ** (j // 2))
        terms[(p - j, j)] = c
    return [p1, SparsePoly(n, terms)]


# ---------------------------------------------------------------------------
# cache files
# ---------------------------------------------------------------------------


def _basis_payload(ctype_name: str, degs, polys) -> dict:
    return {
        "type": ctype_name,
        "degrees": list(degs),
        "polys": [p.to_json_dict() for p in polys],
    }


def basis_content_hash(ctype_name: str, degs, polys) -> str:
    payload = _basis_payload(ctype_name, degs, polys)
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def save_basis(basis: InvariantBasis, path: Path) -> None:
    doc = {
        "schema_version": SCHEMA_VERSION,
        **_basis_payload(basis.ctype.canonical_key, basis.degrees, basis.polys),
        "provenance": basis.provenance,
        "sha256": basis_content_hash(
            basis.ctype.canonical_key, basis.degrees, basis.polys
        ),
    }
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc, indent=1))
    except OSError as exc:
        raise UsageError(f"cannot write invariant basis: {exc}") from exc


def load_basis(path: Path, ctype: CoxeterType) -> InvariantBasis:
    try:
        doc = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise IntegrityError(f"cannot read invariant cache {path}: {exc}") from exc
    polys = [SparsePoly.from_json_dict(d) for d in doc.get("polys", [])]
    expected = basis_content_hash(doc.get("type", ""), doc.get("degrees", []), polys)
    if doc.get("sha256") != expected:
        raise IntegrityError(f"invariant cache {path} failed its hash check")
    if doc.get("type") != ctype.canonical_key:
        raise IntegrityError(
            f"invariant cache {path} is for {doc.get('type')}, wanted {ctype.canonical_key}"
        )
    return InvariantBasis(ctype, polys, f"file:{doc['sha256'][:12]}")


def _cache_candidates(ctype: CoxeterType, cache_dir) -> list[Path]:
    dirs = (cache_dir, os.environ.get(CACHE_ENV_VAR), _PACKAGE_DATA)
    return [Path(d) / f"{ctype.canonical_key}.json" for d in dirs if d]


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------


def basic_invariants(
    t: CoxeterType | str,
    cache_dir: str | Path | None = None,
) -> InvariantBasis:
    """The invariant system for a type; averaged types are loaded from the
    first data file found in cache_dir, $CHEVALLEY_CACHE_DIR or the package
    data, in that order."""
    ctype = coxeter_type(t) if isinstance(t, str) else t
    fam = ctype.family
    if fam == "A":
        return InvariantBasis(ctype, _power_sums(ctype.dim), "closed-form")
    if fam == "B":
        polys = [_elementary_in_squares(ctype.dim, k) for k in range(1, ctype.dim + 1)]
        return InvariantBasis(ctype, polys, "closed-form")
    if fam == "D":
        return InvariantBasis(ctype, _d_family_polys(ctype.dim), "closed-form")
    if fam == "I2":
        return InvariantBasis(ctype, _dihedral_polys(ctype.p), "closed-form")

    for path in _cache_candidates(ctype, cache_dir):
        if path.exists():
            return load_basis(path, ctype)
    raise CapabilityError(
        f"{ctype.name} invariants require the shipped coefficient file "
        "(see tools/build_h4_invariants.py); none was found"
    )


def verify_invariance(basis: InvariantBasis, generators) -> bool:
    """Exact invariance p o w == p for exact generator matrices; float
    generators are checked numerically at seeded random points."""
    if not generators:
        raise UsageError("no generators given")
    if isinstance(generators[0], np.ndarray):
        rng = np.random.default_rng(7)
        pts = rng.normal(size=(24, basis.nvars))
        vals = basis.compiled.P(pts)
        for w in generators:
            moved = basis.compiled.P(pts @ np.asarray(w).T)
            if not np.allclose(moved, vals, rtol=1e-9, atol=1e-9):
                return False
        return True
    for w in generators:
        for p in basis.polys:
            if p.substitute_linear(w) != p:
                return False
    return True


def numeric_jacobian_rank(basis: InvariantBasis, x=None, seed: int = 5) -> int:
    """Rank of the Jacobian at a generic unit-sphere point.

    The system is homogeneous, so the rank is scale-invariant; evaluating on
    the sphere keeps rows of very different degrees comparable."""
    if x is None:
        rng = np.random.default_rng(seed)
        x = rng.normal(size=basis.nvars) + 0.1
    x = np.asarray(x, dtype=float)
    x = x / max(np.linalg.norm(x), 1e-300)
    return int(numeric_rank(basis.compiled.J(x[None, :]))[0])


def numeric_rank(J: np.ndarray) -> np.ndarray:
    """Singular-value rank per sample with a scale-free threshold."""
    sv = np.linalg.svd(J, compute_uv=False)
    top = np.maximum(sv[..., 0], 1e-300)
    return np.sum(sv > NUMERIC_RANK_REL_TOL * top[..., None], axis=-1)
