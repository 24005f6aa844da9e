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

from .coxeter import CoxeterType, RootSystem, coxeter_type
from .errors import CapabilityError, CheckFailure, IntegrityError, UsageError
from .field import ONE, Scalar
from .poly import CompiledPoly, PolyMatrix, SparsePoly

SCHEMA_VERSION = 1
CACHE_ENV_VAR = "CHEVALLEY_CACHE_DIR"
_PACKAGE_DATA = Path(__file__).parent / "data"

# an integer point off every reflecting wall of every supported type; the
# point (1, ..., n) lies on a wall of F4 and of H4
JACOBIAN_POINT = (3, -5, 11, 2, -13, 17)


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

    @property
    def nvars(self) -> int:
        return self.ctype.dim

    @cached_property
    def gradients(self) -> tuple[tuple[SparsePoly, ...], ...]:
        """The exact gradient rows, gradients[i][j] = d p_i / d x_j; the
        float tables and the symbolic Jacobian both read them."""
        return tuple(p.gradient() for p in self.polys)

    @cached_property
    def compiled(self) -> "CompiledBasis":
        return CompiledBasis(self)

    def __repr__(self):
        return f"InvariantBasis({self.ctype.name}, degrees={self.degrees})"


class CompiledBasis:
    """Batched float evaluation of the invariants, their gradients and
    Hessians.  This is the hot path for fiber sampling and mesh imaging.

    Two `CompiledPoly` tables hold them: the invariants and their gradients
    flattened by (i, j), and, built on first Hessian use, the same rows
    followed by the Hessians' upper triangles by (i, j, l >= j).  A call
    reads one row set, built once per k, with one power table, gather pass
    and CSR product."""

    def __init__(self, basis: InvariantBasis):
        self.basis = basis
        self.n = n = basis.nvars
        self.k = len(basis.polys)
        self._table = CompiledPoly(basis.polys + [q for row in basis.gradients for q in row])
        self._p_rows = [tuple(range(k)) for k in range(self.k + 1)]
        self._j_rows = [tuple(range(self.k, self.k + k * n)) for k in range(self.k + 1)]

    def _for_k(self, per_k: list, k: int | None):
        """per_k[k] for the first k invariants, k in 0..n (default n)."""
        if k is not None and not 0 <= k <= self.k:
            raise UsageError(f"k must be in 0..{self.k}")
        return per_k[self.k if k is None else k]

    def P(self, X: np.ndarray, k: int | None = None) -> np.ndarray:
        """Invariant values; X of shape (..., n) -> (..., k)."""
        return self._table(X, self._for_k(self._p_rows, k))

    def J(self, X: np.ndarray, k: int | None = None) -> np.ndarray:
        """Jacobian rows for the first k invariants; (..., n) -> (..., k, n)."""
        rows = self._for_k(self._j_rows, k)
        return self._table(X, rows).reshape(np.shape(X)[:-1] + (len(rows) // self.n, self.n))

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
    def _hess_table(self) -> CompiledPoly:
        return CompiledPoly(self.basis.polys + [q for row in self.basis.gradients for q in row]
                            + [h for row in self.basis.gradients for j, q in enumerate(row)
                               for h in q.gradient()[j:]])

    @cached_property
    def _layouts(self) -> list[tuple]:
        """Per k: the rows of `evaluate` without and with the Hessians, and the
        columns of P, J and the Hessians in its values."""
        n, tri, first = self.n, self.n * (self.n + 1) // 2, self.k * (self.n + 1)
        # entry (j, l) of a Hessian is (min, max) of its row-major upper triangle
        j, l = np.sort(np.indices((n, n)), axis=0)
        return [(p + g, p + g + tuple(range(first, first + k * tri)), np.arange(k),
                 k + np.arange(k * n).reshape(k, n),
                 k * (n + 1) + tri * np.arange(k)[:, None, None] + j * (2 * n - j - 1) // 2 + l)
                for k, (p, g) in enumerate(zip(self._p_rows, self._j_rows))]

    def hessians(self, X: np.ndarray, k: int | None = None) -> np.ndarray:
        """Hessians of the first k invariants at a batch, (B, n) -> (B, k, n, n):
        the last part of `evaluate`."""
        return self.evaluate(X, k, hess=True)[2]

    def evaluate(self, X: np.ndarray, k: int | None = None, hess: bool = False):
        """(P, J) or (P, J, H) of the first k invariants at a batch X of shape
        (B, n), from one row set, bit for bit the `P` / `J` values and a
        Hessian table's of each row, whatever batch holds it."""
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.n:
            raise UsageError("evaluate needs a batch of shape (B, n)")
        rows, hess_rows, p_cols, j_cols, h_cols = self._for_k(self._layouts, k)
        out = self._hess_table(X, hess_rows) if hess else self._table(X, rows)
        # gathers in C order, as separate tables give it: einsum's bits may depend on it
        P, J = out.take(p_cols, axis=1), out.take(j_cols, axis=1)
        return (P, J, out.take(h_cols, axis=1)) if hess else (P, J)


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


def basis_content_hash(doc: dict) -> str:
    """SHA-256 of a data file's `type`, `degrees` and `polys` as stored,
    serialized with sorted keys and no spaces."""
    payload = {key: doc[key] for key in ("type", "degrees", "polys")}
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def save_basis(basis: InvariantBasis, path: Path) -> None:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "type": basis.ctype.canonical_key,
        "degrees": list(basis.degrees),
        "polys": [p.to_json_dict() for p in basis.polys],
        "provenance": basis.provenance,
    }
    doc["sha256"] = basis_content_hash(doc)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc, indent=1))
    except OSError as exc:
        raise UsageError(f"cannot write invariant basis: {exc}") from exc


def load_basis(path: Path, ctype: CoxeterType) -> InvariantBasis:
    """The basis stored at path.  The content hash is checked on the payload
    as read, before any polynomial is parsed; a file that cannot be read or
    parsed, fails its hash or holds another type is an IntegrityError."""
    try:
        doc = json.loads(path.read_text())
        digest = basis_content_hash(doc)
        if doc["sha256"] != digest:
            raise IntegrityError(f"invariant cache {path} failed its hash check")
        if doc["type"] != ctype.canonical_key:
            raise IntegrityError(f"invariant cache {path} is for {doc['type']}, "
                                 f"wanted {ctype.canonical_key}")
        polys = [SparsePoly.from_json_dict(d) for d in doc["polys"]]
    except (OSError, ValueError, LookupError, TypeError, AttributeError, ZeroDivisionError) as exc:
        raise IntegrityError(f"cannot read invariant cache {path}: {exc!r}") from exc
    return InvariantBasis(ctype, polys, f"file:{digest[:12]}")


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


def verify_invariance(basis: InvariantBasis, rs: RootSystem) -> bool:
    """Invariance p o w == p under the simple reflections w of rs: by exact
    substitution where the root data is exact (every type but I2(p),
    p != 4), so True is a proof; otherwise at seeded points."""
    if rs.exact:
        return all(p.substitute_linear(w) == p
                   for w in rs.simple_reflections for p in basis.polys)
    pts = np.random.default_rng(7).normal(size=(24, basis.nvars))
    P, vals = basis.compiled.P, basis.compiled.P(pts)
    return all(np.allclose(P(pts @ w.T), vals, rtol=1e-9, atol=1e-9)
               for w in rs.simple_reflections_f)


def jacobian_det_at_point(basis: InvariantBasis) -> tuple[tuple[int, ...], Scalar]:
    """The point JACOBIAN_POINT[:n] and det J there, exactly.

    det J = c * prod(wall forms) (Steinberg 1960; Humphreys, Reflection
    Groups and Coxeter Groups, 3.13), so a nonzero value proves c != 0, the
    Jacobian criterion for algebraic independence, with no tolerance."""
    n = basis.nvars
    x = JACOBIAN_POINT[:n]
    xs = [Scalar(v) for v in x]
    J = PolyMatrix([[SparsePoly.const(n, g.eval_exact(xs)) for g in row]
                    for row in basis.gradients])
    return x, J.det().eval_exact(xs)
