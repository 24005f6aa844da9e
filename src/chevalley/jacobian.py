"""Jacobian of the invariant map: symbolic determinant factorization,
batched minors, and the rank-k property on chamber strata.

The determinant of the Jacobian of a basic invariant system equals a nonzero
constant times the product of the linear forms of all reflection
hyperplanes.  For exact root systems this identity is verified symbolically;
the constant depends on the normalization of the invariants and the forms,
so it is reported rather than asserted (the spot values c=6 for the Newton
S3 system and c=4 for B2 are fixed by the closed-form bases used here).

For I2(p) with float roots the exact product of the wall forms is still a
rational polynomial: conjugate wall pairs multiply to rational quadratics
and the full product is Im((x+iy)^p) up to a constant.  The symbolic check
runs against that closed form, and the per-root float product is tied to it
numerically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

import numpy as np

from .coxeter import RootSystem, Stratum, sample_stratum
from .errors import CheckFailure, UsageError
from .field import Scalar
from .invariants import InvariantBasis
from .poly import CHUNK_VALUES, CompiledPoly, PolyMatrix, SparsePoly, product


def wall_form_product(rs: RootSystem) -> SparsePoly:
    """Exact product of the positive-root linear forms.

    For inexact dihedral systems the closed form Im((x+iy)^p) is returned;
    it equals the product of the wall forms in the normalization where
    conjugate wall pairs are merged into rational quadratics.
    """
    if rs.exact:
        n = rs.n
        return product(n, [
            SparsePoly(n, {
                tuple(1 if j == i else 0 for j in range(n)): c
                for i, c in enumerate(v)
                if not c.is_zero()
            })
            for v in rs.positive
        ])
    return _dihedral_skew(rs.ctype.p)


def _dihedral_skew(p: int) -> SparsePoly:
    # Im((x+iy)^p) = sum_{j odd} C(p,j) (-1)^{(j-1)/2} x^{p-j} y^j
    terms = {}
    for j in range(1, p + 1, 2):
        terms[(p - j, j)] = Scalar(math.comb(p, j) * (-1) ** ((j - 1) // 2))
    return SparsePoly(2, terms)


@dataclass
class FactorizationReport:
    type_name: str
    exact: bool
    c: float                      # constant as a float, for reporting
    c_exact: Scalar               # exact constant
    det_degree: int
    n_forms: int
    residual: float               # 0.0: the identity is checked exactly
    float_product_ratio_spread: float = 0.0  # inexact roots: per-root vs closed form

    def to_dict(self) -> dict:
        d = {
            "type": self.type_name,
            "exact": self.exact,
            "c": self.c,
            "det_degree": self.det_degree,
            "n_forms": self.n_forms,
            "residual": self.residual,
        }
        a, b = self.c_exact.to_strings()
        d["c_exact"] = {"a": a, "b": b}
        if self.float_product_ratio_spread:
            d["float_product_ratio_spread"] = self.float_product_ratio_spread
        return d


def verify_det_factorization(
    basis: InvariantBasis, rs: RootSystem, seed: int = 3
) -> FactorizationReport:
    """Check det J == c * prod(wall forms) exactly and return the constant.

    c is the ratio of the two leading coefficients, and the identity is one
    comparison of exact polynomials, on every supported type: on H4 the
    symbolic determinant (degree 60, 4259 terms) takes a few seconds.  A
    zero or non-constant ratio raises CheckFailure: it flags an
    invariant-construction bug.
    """
    ct = rs.ctype
    d_expected = ct.n_positive_roots
    det = PolyMatrix(basis.gradients).det()
    if det.is_zero():
        raise CheckFailure(f"{ct.name}: Jacobian determinant is zero")
    if det.degree() != d_expected:
        raise CheckFailure(
            f"{ct.name}: det degree {det.degree()} != reflection count {d_expected}"
        )
    prod = wall_form_product(rs)
    c = det.leading()[1] / prod.leading()[1]
    if det != prod.scale(c):
        raise CheckFailure(f"{ct.name}: det J - c * prod(wall forms) is not identically zero")
    spread = 0.0 if rs.exact else _float_product_spread(rs, prod, seed)
    return FactorizationReport(ct.name, True, float(c), c, det.degree(), d_expected, 0.0, spread)


def _float_product_spread(rs: RootSystem, closed_form: SparsePoly, seed: int) -> float:
    """Max relative spread of prod(<root,x>) / closed_form(x) over random
    regular points; ties the float per-root forms to the exact product."""
    rng = np.random.default_rng(seed)
    points, products = [], []
    while len(points) < 50:
        x = rng.normal(size=rs.n)
        lam = rs.positive_f @ x
        if np.min(np.abs(lam)) < 1e-3:
            continue
        points.append(x)
        products.append(np.prod(lam))
    ratios = np.array(products) / CompiledPoly([closed_form])(np.array(points))[:, 0]
    mid = np.median(ratios)
    return float(np.max(np.abs(ratios - mid) / abs(mid)))


# ---------------------------------------------------------------------------
# minors
# ---------------------------------------------------------------------------


@lru_cache(maxsize=256)
def _laplace_plan(r: int, n: int, rows: tuple[tuple[int, ...], ...]):
    """Gather plan of `_minor_table` for r x n matrices and the row sets
    `rows`, which may have mixed sizes.

    Level m lists the m-minors on every distinct m-row prefix of the row
    sets of at least m rows, over every m-column subset, flattened as
    prefix * C(n, m) + subset.  Term t of a level-m minor is the entry (last
    row, c_t) times the level m-1 minor of the parent prefix without column
    c_t; the level holds both as flat indices of shape (m, minors).  Entries
    index the r * n values of a sample followed by their negatives, so each
    term carries its sign (-1)^(m-1+t).  A row set of m rows is read at
    level m: the level lists those row sets' positions in `rows` and their
    prefixes.  Also returns the (r, len(rows)) row membership mask.
    """
    plan, prefixes = [], {(): 0}
    for m in range(1, max(map(len, rows)) + 1):
        level: dict[tuple, int] = {}
        for row in rows:
            if len(row) >= m:
                level.setdefault(row[:m], len(level))
        cols = list(combinations(range(n), m))
        index = {c: i for i, c in enumerate(combinations(range(n), m - 1))}
        sub = np.array([[index[c[:t] + c[t + 1:]] for t in range(m)] for c in cols])
        parent = np.array([prefixes[p[:-1]] for p in level])[:, None, None]
        last = np.array([p[-1] for p in level])[:, None, None]
        entry = (last * n + np.array(cols)[None]).reshape(-1, m).T
        entry[(m - 1 + np.arange(m)) % 2 == 1] += r * n
        minor = (parent * len(index) + sub[None]).reshape(-1, m).T
        read = [j for j, row in enumerate(rows) if len(row) == m]
        plan.append((entry, minor, np.array(read, dtype=int),
                     np.array([level[rows[j]] for j in read], dtype=int)))
        prefixes = level
    member = np.zeros((r, len(rows)), dtype=bool)
    for j, row in enumerate(rows):
        member[list(row), j] = True
    return plan, member


def _minor_table(J: np.ndarray, row_sets) -> np.ndarray:
    """Max |minor| over all column subsets, per sample and row set.

    J has shape (S, r, n); each entry of row_sets lists the rows of one
    minor, and sizes may be mixed.  All the minors come from one memoized
    Laplace expansion along the last row of each row set (`_laplace_plan`),
    built level by level from 1 x 1 up to the largest size, with samples on
    the inner, contiguous axis; a row set of m rows is read at level m, so a
    row set that is a prefix of a longer one costs nothing extra.  Each
    minor is a signed sum of m products added elementwise in a fixed order,
    the same terms whichever row sets share the call.  So the table is
    exact on small-integer entries, and a minor depends only on its own
    sample and rows, not on the batch, the chunks of samples or the other
    row sets.  A row set with a non-finite entry gets NaN.  Returns shape
    (S, len(row_sets)).
    """
    S, r, n = J.shape
    rows = tuple(tuple(int(i) for i in row) for row in row_sets)
    out = np.zeros((len(rows), S))
    if not rows:
        return out.T
    plan, member = _laplace_plan(r, n, rows)
    # a level's gathered entries, its gathered minors and the previous level
    # hold at most CHUNK_VALUES values each
    step = max(1, CHUNK_VALUES // max(level[0].size for level in plan))
    for lo in range(0, S, step):
        Jc = J[lo:lo + step].reshape(-1, r * n).T
        signed = np.concatenate([Jc, -Jc])
        minors = np.ones((1, Jc.shape[1]))
        with np.errstate(invalid="ignore"):  # non-finite rows are set to NaN below
            for m, (entry, minor, read, prefix) in enumerate(plan, 1):
                terms = signed[entry]
                terms *= minors[minor]
                minors = terms[0]
                for t in range(1, m):
                    minors += terms[t]
                if len(read):
                    table = minors.reshape(-1, math.comb(n, m), Jc.shape[1])[prefix]
                    out[read, lo:lo + step] = np.abs(table).max(axis=1)
    out = out.T
    out[~np.isfinite(J).all(axis=2) @ member] = np.nan
    return out


@dataclass
class StratumRankReport:
    stratum_id: str
    samples: int
    k: int
    min_leading_minor: float      # min over samples of max normalized k-minor
    max_bordering_minor: float    # max normalized (k+1)-minor, first k+1 degrees
    leading_degenerate: bool      # every admissible leading block has an
                                  # identically-zero row on this stratum
    degenerate_rows: list[int]
    passed: bool = False
    witness: list[float] | None = None

    def to_dict(self) -> dict:
        return {
            "stratum": self.stratum_id,
            "samples": self.samples,
            "k": self.k,
            "min_leading_minor": self.min_leading_minor,
            "max_bordering_minor": self.max_bordering_minor,
            "leading_degenerate": self.leading_degenerate,
            "degenerate_rows": self.degenerate_rows,
            "pass": self.passed,
            **({"witness": self.witness} if self.witness else {}),
        }


@lru_cache(maxsize=64)
def _degree_row_options(degs: tuple[int, ...], size: int) -> tuple[tuple[int, ...], ...]:
    """Row subsets whose degree multiset equals the first `size` degrees.

    Equal degrees make the basis order ambiguous there; the rank statement
    allows any representative of the tied block (the row-exchange freedom
    for the D family), so every such subset is admissible.
    """
    target = sorted(degs[:size])
    return tuple(rows for rows in combinations(range(len(degs)), size)
                 if sorted(degs[r] for r in rows) == target)


def verify_stratum_rank(
    basis: InvariantBasis,
    rs: RootSystem,
    stratum: Stratum,
    samples: int = 100,
    seed: int = 7,
    tol: float = 1e-9,
) -> StratumRankReport:
    """Rank-k certificate on a dimension-k stratum.

    At unit-sphere samples of the stratum, with minors normalized by the
    product of per-invariant gradient scales:

      (a) some k x k minor of a leading block (first k degrees, tied rows
          interchangeable) exceeds tol;
      (b) every (k+1) x (k+1) minor over the first k+1 degrees is below tol.

    Rank <= k needs no further samples: a point x of the open face is fixed
    by the face's isotropy group, every p_i is W-invariant, so each gradient
    is fixed by that group and lies in span F, of dimension k (Steinberg,
    Trans. AMS 1964; Humphreys, Reflection Groups and Coxeter Groups, 1.12).

    The minors come from one Laplace-expansion table (`_minor_table`) on
    the live leading row sets and the degree-admissible (k+1)-row sets
    (none when k = n).

    When the first k degrees force a row that vanishes identically on the
    stratum (the D(2m) product invariant on faces where two coordinates are
    pinned to zero), part (a) is vacuous: no generic fiber of the first k
    invariants meets such a stratum.  The report flags this instead of
    failing, with the degenerate rows recorded.
    """
    k = stratum.dim
    if k < 1:
        raise UsageError("rank verification needs a stratum of dimension >= 1")
    n = basis.nvars
    X = sample_stratum(stratum, samples, 1.0, seed, rs)
    X = X / np.linalg.norm(X, axis=1, keepdims=True)
    J = basis.compiled.J(X)  # (S, n_invariants, n)
    scales = basis.compiled.gradient_scales

    row_norms = np.max(np.linalg.norm(J, axis=2), axis=0)  # max over samples
    dead_rows = [i for i in range(n) if row_norms[i] <= 1e-10 * scales[i]]

    live = [rows for rows in _degree_row_options(basis.degrees, k)
            if not any(r in dead_rows for r in rows)]
    degenerate = not live
    bordering = list(_degree_row_options(basis.degrees, k + 1))
    scale = np.concatenate([np.prod(scales[np.array(sets, dtype=int).reshape(-1, size)], axis=1)
                            for sets, size in ((live, k), (bordering, k + 1))])
    table = _minor_table(J, live + bordering) / scale
    lead = table[:, :len(live)].max(axis=1, initial=0.0)
    border = table[:, len(live):].max(axis=1, initial=0.0)

    checks = border <= tol
    if not degenerate:
        checks &= lead > tol
    passed = bool(np.all(checks))
    witness = None
    if not passed:
        bad = int(np.argmin(checks))
        witness = X[bad].tolist()
    return StratumRankReport(
        stratum_id=stratum.stratum_id,
        samples=samples,
        k=k,
        min_leading_minor=float(np.min(lead)),
        max_bordering_minor=float(np.max(border)),
        leading_degenerate=degenerate,
        degenerate_rows=dead_rows,
        passed=passed,
        witness=witness,
    )


def det_vanishing_calibration(
    basis: InvariantBasis, rs: RootSystem, n_points: int = 10_000, seed: int = 13
) -> dict:
    """Two-sided check that det J vanishes exactly on the union of the
    reflection hyperplanes.

    Everything is evaluated at unit-sphere points with unit wall normals, so
    every wall form satisfies |form| <= 1 and the factorization gives clean
    bounds in both directions:

      * |det| / prod|forms| is one constant c (checked to 1e-8 relative);
      * near a wall (min form <= eps): |det| <= c * eps;
      * det small (|det| <= delta): min form <= (delta / c)^(1/d), since the
        minimum is below the geometric mean.

    The sample mixes random directions with points constructed next to the
    walls (offsets down to 1e-8), because random directions alone never come
    close enough to exercise the bounds.
    """
    rng = np.random.default_rng(seed)
    n = rs.n
    X = rng.normal(size=(n_points, n))
    X /= np.linalg.norm(X, axis=1, keepdims=True)
    unit_roots = rs.positive_f / np.linalg.norm(rs.positive_f, axis=1, keepdims=True)
    # constructed near-wall points: project onto a wall, offset by eps
    built = []
    for eps in (1e-8, 1e-7, 1e-6):
        for t in range(len(unit_roots)):
            y = rng.normal(size=n)
            y = y - (y @ unit_roots[t]) * unit_roots[t] + eps * unit_roots[t]
            ny = np.linalg.norm(y)
            if ny > 1e-6:
                built.append(y / ny)
    # rank 1 builds none: the wall is the origin, off the unit sphere
    X = np.concatenate([X, np.reshape(built, (-1, n))], axis=0)

    det = np.abs(np.linalg.det(basis.compiled.J(X)))
    forms = np.abs(X @ unit_roots.T)
    min_form = np.min(forms, axis=1)
    prod_form = np.prod(forms, axis=1)

    # the constant is measured away from the walls, where the determinant is
    # far above float noise; near-wall points feed the bound checks below
    usable = min_form >= 1e-3
    ratio = det[usable] / prod_form[usable]
    c_med = float(np.median(ratio))
    ratio_spread = float(np.max(np.abs(ratio - c_med)) / c_med)

    d = len(unit_roots)
    near_wall = min_form <= 1e-6
    det_near_wall_max = float(np.max(det[near_wall], initial=0.0))
    small_det = det <= 1e-10
    form_bound = (det[small_det] / (0.5 * c_med)) ** (1.0 / d)
    small_det_ok = bool(np.all(min_form[small_det] <= form_bound + 1e-12))
    return {
        "n": int(len(X)),
        "c_median": c_med,
        "ratio_spread": ratio_spread,
        "n_near_wall": int(np.sum(near_wall)),
        "det_near_wall_max": det_near_wall_max,
        "det_near_wall_bound": 1.1 * c_med * 1e-6,
        "n_det_small": int(np.sum(small_det)),
        "small_det_form_ok": small_det_ok,
    }


def calibration_passed(cal: dict) -> bool:
    """The verdict on a `det_vanishing_calibration` result: |det| / prod|forms|
    is one constant to 1e-8 relative, and both vanishing bounds hold."""
    return (cal["ratio_spread"] <= 1e-8
            and cal["det_near_wall_max"] <= cal["det_near_wall_bound"]
            and cal["small_det_form_ok"])
