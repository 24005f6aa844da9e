"""Root systems, reflection groups, fundamental chambers and their strata.

Supported families and their realizations:

  A(n), 2<=n<=6   symmetric group S_n permuting coordinates of R^n (the
                  Newton setting; reducible: the diagonal line is fixed).
                  The chamber is the ascending cone x_1 <= ... <= x_n, so
                  every wall form x_j - x_i (i<j) is nonnegative on it.
  B(n), 1<=n<=4   signed permutations; chamber x_1 >= ... >= x_n >= 0.
  D(n), 2<=n<=6   even signed permutations; chamber
                  x_1 >= ... >= x_{n-1} >= |x_n|.
  I2(p), 3<=p<=12 dihedral group of the regular p-gon acting on R^2; the
                  chamber is the sector 0 <= theta <= pi/p.  G2 is I2(6),
                  A1 is accepted as an alias for the rank-1 sign group B(1).
  H3, H4          icosahedral groups with exact Q(sqrt5) root data.
  F4              the 24-cell symmetry group, rational root data.

Every exact family states only its simple roots.  The positive roots are
their closure under the simple reflections, walked exactly in simple-root
coordinates, and certified on the way: every root has coordinates of one
sign, and there are sum(degree - 1) positive roots.

Root data is exact wherever the ambient field allows it.  For I2(p) with
p != 4 no orthogonal 2x2 realization has all entries in Q(sqrt5) (a rotation
by pi/3 already needs sqrt3), so those roots and matrices are stored as
floats; the dihedral invariants themselves stay exact over Q.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

import numpy as np

from .errors import CapabilityError, CheckFailure, ConvergenceError, UsageError
from .field import (
    HALF,
    ONE,
    PHI,
    PSI,
    ZERO,
    Scalar,
    mat_vec,
    solve_linear,
    vec_dot,
)

M_ONE = -ONE

_FAMILY_BOUNDS = {"A": (2, 6), "B": (1, 4), "D": (2, 6)}
_I2_BOUNDS = (3, 12)
STRATUM_REL_TOL = 1e-7   # wall form of a point, relative to its norm, read as zero
STRATUM_MARGIN = 0.02    # sample_stratum's least unit wall form off the isotropy


@dataclass(frozen=True)
class CoxeterType:
    """A supported reflection-group type with its degree table."""

    family: str                # "A" | "B" | "D" | "I2" | "H3" | "H4" | "F4"
    dim: int                   # ambient dimension
    p: int | None              # dihedral parameter for I2
    name: str                  # display name as parsed ("G2", "A1" keep their alias)
    degrees: tuple[int, ...]

    @property
    def coxeter_number(self) -> int:
        return self.degrees[-1]

    @property
    def order(self) -> int:
        out = 1
        for d in self.degrees:
            out *= d
        return out

    @property
    def n_positive_roots(self) -> int:
        return sum(d - 1 for d in self.degrees)

    @property
    def canonical_key(self) -> str:
        if self.family == "I2":
            return f"I2_{self.p}"
        if self.family in ("A", "B", "D"):
            return f"{self.family}{self.dim}"
        return self.family


def _degrees_for(family: str, dim: int, p: int | None) -> tuple[int, ...]:
    if family == "A":
        return tuple(range(1, dim + 1))
    if family == "B":
        return tuple(2 * i for i in range(1, dim + 1))
    if family == "D":
        degs = [2 * i for i in range(1, dim)] + [dim]
        return tuple(sorted(degs))
    if family == "I2":
        return (2, p)
    if family == "H3":
        return (2, 6, 10)
    if family == "H4":
        return (2, 12, 20, 30)
    if family == "F4":
        return (2, 6, 8, 12)
    raise CapabilityError(f"unsupported family {family!r}")


def coxeter_type(spec: str) -> CoxeterType:
    """Parse a type specifier: A3, B4, D6, I2:7, G2, H3, H4, F4.

    "A1" is accepted as the rank-1 sign-change group (same realization as
    B1: single root e_1, invariant x^2).
    """
    s = spec.strip()
    if s.upper() == "A1":
        return CoxeterType("B", 1, None, "A1", _degrees_for("B", 1, None))
    if s.upper() == "G2":
        return CoxeterType("I2", 2, 6, "G2", _degrees_for("I2", 2, 6))
    if s.upper() in ("H3", "H4", "F4"):
        fam = s.upper()
        dim = int(fam[1])
        return CoxeterType(fam, dim, None, fam, _degrees_for(fam, dim, None))
    if s.upper().startswith("I2"):
        sep = s[2:].lstrip(":").strip() if len(s) > 2 else ""
        if not (sep.isascii() and sep.isdecimal()):
            raise UsageError(f"bad dihedral specifier {spec!r}; expected I2:p")
        p = int(sep)
        lo, hi = _I2_BOUNDS
        if not lo <= p <= hi:
            raise CapabilityError(f"I2(p) supported for {lo}<=p<={hi}, got {p}")
        return CoxeterType("I2", 2, p, f"I2:{p}", _degrees_for("I2", 2, p))
    fam = s[:1].upper()
    if fam in _FAMILY_BOUNDS and s[1:].isascii() and s[1:].isdecimal():
        n = int(s[1:])
        lo, hi = _FAMILY_BOUNDS[fam]
        if not lo <= n <= hi:
            raise CapabilityError(f"{fam}(n) supported for {lo}<=n<={hi}, got {n}")
        return CoxeterType(fam, n, None, f"{fam}{n}", _degrees_for(fam, n, None))
    raise CapabilityError(f"unsupported type specifier {spec!r}")


# ---------------------------------------------------------------------------
# root systems
# ---------------------------------------------------------------------------


def _unit(i: int, n: int) -> tuple[Scalar, ...]:
    return tuple(ONE if j == i else ZERO for j in range(n))


def _neg(v):
    return tuple(-x for x in v)


def _reflection_exact(v):
    """Orthogonal reflection across the hyperplane normal to v, exact."""
    n = len(v)
    norm = vec_dot(v, v)
    inv = norm.inverse()
    two = Scalar(2)
    return tuple(
        tuple(
            (ONE if i == j else ZERO) - two * v[i] * v[j] * inv
            for j in range(n)
        )
        for i in range(n)
    )


def _float_vec(v) -> np.ndarray:
    return np.array([float(x) for x in v], dtype=float)


def _float_mat(m) -> np.ndarray:
    return np.array([[float(x) for x in row] for row in m], dtype=float)


class RootSystem:
    """Positive roots, simple roots and simple reflections for a type.

    Float mirrors of the root data and the simple reflections are
    precomputed since almost all downstream numerics run on them; the exact
    simple reflections are built on first use.  The closure certificate of
    `build_root_system` is the one proof that the reflections permute the
    roots up to sign.  `exact` is False only for I2(p) with p != 4; in that
    case the exact fields are None.  `support[t, i]` says whether
    simple root i has a nonzero coefficient in positive root t.
    `coweights` are the fundamental coweights w_j, <a_i, w_j> = delta_ij,
    then the A family's pad diagonal/n; `coweights_f` holds them as the
    columns of Omega = A^-1 (on the float I2(p), the float inverse).
    """

    def __init__(self, ctype: CoxeterType, simple_exact, positive_exact,
                 simple_f, positive_f, support: np.ndarray, coweights):
        self.ctype = ctype
        self.n = ctype.dim
        self.exact = simple_exact is not None
        self.simple = simple_exact
        self.positive = positive_exact
        self.simple_f = np.asarray(simple_f, dtype=float)
        self.positive_f = np.asarray(positive_f, dtype=float)
        self.support = support
        self.coweights = coweights
        self.coweights_f = (_float_mat(coweights).T if self.exact
                            else np.linalg.inv(self.simple_f))
        self.simple_reflections_f = np.array(
            [self._float_reflection(v) for v in self.simple_f]
        )
        # unit simple roots for chamber distance computations
        self.simple_unit_f = self.simple_f / np.linalg.norm(
            self.simple_f, axis=1, keepdims=True
        )

    @staticmethod
    def _float_reflection(v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        return np.eye(len(v)) - 2.0 * np.outer(v, v) / (v @ v)

    @cached_property
    def simple_reflections(self):
        """Exact reflection of every simple root; None for float types."""
        return [_reflection_exact(v) for v in self.simple] if self.exact else None

    # -- chamber --------------------------------------------------------------

    def chamber_contains(self, x, tol: float = 1e-12):
        """Whether x, one point (n,) or a stack of rows (B, n), lies in the
        closed fundamental chamber: a bool, or a (B,) bool array."""
        x = np.asarray(x, dtype=float)
        if x.ndim not in (1, 2) or x.shape[-1] != self.n:
            raise UsageError("point has wrong dimension")
        inside = np.all(x @ self.simple_f.T >= -tol, axis=-1)
        return bool(inside) if x.ndim == 1 else inside

    def wall_distances(self, x) -> np.ndarray:
        """Signed distances of x to the chamber walls (unit normals)."""
        return self.simple_unit_f @ np.asarray(x, dtype=float)

    def to_chamber(self, x) -> np.ndarray:
        """Reflect x, one point (n,) or a stack of rows (B, n), into the
        closed fundamental chamber.

        Each step reflects every row still outside across its most violated
        wall; this terminates in at most (number of positive roots) steps for
        any finite reflection group, but a generous safety bound is kept for
        float round-off.  The products are stacked matrix-vector products so
        that every row is reduced bit for bit as it would be on its own.
        """
        x = np.asarray(x, dtype=float)
        Y = np.atleast_2d(x).copy()
        max_iter = 10 * max(len(self.positive_f), 1) + 50
        tol = -1e-14 * np.maximum(np.linalg.norm(Y, axis=1), 1.0)
        active = np.arange(len(Y))
        for _ in range(max_iter):
            Ya = Y[active]
            dots = (self.simple_f @ Ya[..., None])[..., 0]
            i = np.argmin(dots, axis=1)
            out = ~(dots[np.arange(len(active)), i] >= tol[active])
            active, i = active[out], i[out]
            if len(active) == 0:
                return Y.reshape(x.shape)
            Y[active] = (self.simple_reflections_f[i] @ Ya[out][..., None])[..., 0]
        raise ConvergenceError("chamber reduction did not terminate")


def _certify_simple_system(simple, count):
    """Exact certificate of a claimed simple system: its positive roots are
    the closure of the simple roots under the simple reflections (every root
    is conjugate to a simple one).  Raises `CheckFailure` unless the simple
    roots are independent, every root has simple coordinates of one sign and
    the closure has `count` positive roots.  Returns the positive roots
    sorted by their float coordinates, their (|positive|, k) bool support
    and the n exact coweights.

    In simple coordinates c, s_i changes only c_i, by -sum_j c_j
    2<a_j, a_i>/<a_i, a_i>; it maps a_i to -a_i and permutes the other
    positive roots.  The coweights w_j are the rows of the inverse of the
    simple roots as columns.  The A family's simple roots span only the
    hyperplane sum(x) = 0, so they are padded with the invariant diagonal,
    whose row is diagonal/n.
    """
    n, k = len(simple[0]), len(simple)
    columns = list(simple) + ([(ONE,) * n] if k < n else [])
    if len(columns) != n:
        raise CheckFailure("simple system has wrong size")
    coweights = solve_linear([[c[i] for c in columns] for i in range(n)],
                             [_unit(i, n) for i in range(n)])
    if coweights is None:
        raise CheckFailure("claimed simple roots are linearly dependent")
    scale = [Scalar(2) / vec_dot(a, a) for a in simple]
    cartan = [[vec_dot(b, a) * t for b in simple] for a, t in zip(simple, scale)]
    coords = [_unit(i, k) for i in range(k)]
    roots, seen = list(simple), set(coords)
    for c, v in zip(coords, roots):  # both grow while they are walked
        for i, (row, a) in enumerate(zip(cartan, simple)):
            if not any(c[:i] + c[i + 1:]):  # s_i a_i = -a_i
                continue
            shift = vec_dot(row, c)
            w = c[:i] + (c[i] - shift,) + c[i + 1:]
            if w in seen:
                continue
            if w[i].sign() < 0:
                raise CheckFailure(f"root {w} has simple coordinates of both signs")
            if len(coords) == count:
                raise CheckFailure(f"reflection closure outgrew {count} positive roots")
            seen.add(w)
            coords.append(w)
            roots.append(tuple(x - shift * y if y else x for x, y in zip(v, a)))
    if len(coords) != count:
        raise CheckFailure(f"reflection closure has {len(coords)} positive roots, "
                           f"the degree table {count}")
    order = sorted(range(count), key=lambda t: tuple(map(float, roots[t])))
    support = np.array([[bool(x) for x in coords[t]] for t in order])
    return [roots[t] for t in order], support, [tuple(row) for row in coweights]


def build_root_system(ctype: CoxeterType | str) -> RootSystem:
    """Construct the root system of a supported type from its stated simple
    roots; the positive roots are their certified reflection closure."""
    if isinstance(ctype, str):
        ctype = coxeter_type(ctype)
    n = ctype.dim
    fam = ctype.family
    chain = [tuple(
        ONE if j == i else (M_ONE if j == i + 1 else ZERO) for j in range(n)
    ) for i in range(n - 1)]  # e_i - e_{i+1}

    if fam == "A":
        simple = [_neg(v) for v in chain]  # e_{i+1} - e_i, ascending chamber
    elif fam == "B":
        simple = chain + [_unit(n - 1, n)]
    elif fam == "D":
        simple = chain + [tuple(ONE if j >= n - 2 else ZERO for j in range(n))]
    elif fam == "F4":
        simple = chain[1:] + [_unit(3, 4), (HALF, -HALF, -HALF, -HALF)]
    elif fam in ("H3", "H4"):
        # diagrams 0 -3- 1 -5- 2 (H3) and 2 -3- 0 -3- 1 -5- 3 (H4)
        h, f, g = HALF, PHI * HALF, PSI * HALF
        simple = ([(-h, -f, g), (-g, h, -f), (f, -g, h)] if fam == "H3" else
                  [(-h, -f, g, ZERO), (-g, h, -f, ZERO), (ZERO, f, h, -g), (f, -g, h, ZERO)])
    elif fam == "I2" and ctype.p == 4:
        simple = [(ONE, M_ONE), (ZERO, ONE)]
    elif fam == "I2":
        return _build_dihedral(ctype)
    else:
        raise CapabilityError(f"unsupported family {fam!r}")

    positive, support, coweights = _certify_simple_system(simple, ctype.n_positive_roots)
    return RootSystem(
        ctype,
        simple,
        positive,
        [_float_vec(v) for v in simple],
        [_float_vec(v) for v in positive],
        support,
        coweights,
    )


def _build_dihedral(ctype: CoxeterType) -> RootSystem:
    """Float I2(p), p != 4: chamber is the sector 0 <= theta <= pi/p.

    Wall forms are (sin g, -cos g) for line angles g = j*pi/p, j=1..p; all of
    them are nonnegative on the sector.  The simple-root support comes from
    one float solve; the roots are unit vectors, and coefficients below 1e-10
    are read as 0.
    """
    p = ctype.p
    angles = [j * math.pi / p for j in range(1, p + 1)]
    positive_f = np.array([[math.sin(g), -math.cos(g)] for g in angles])
    simple_f = np.array([positive_f[0], positive_f[-1]])  # walls theta=pi/p, theta=0
    coeff = np.linalg.solve(simple_f.T, positive_f.T).T
    return RootSystem(ctype, None, None, simple_f, positive_f, np.abs(coeff) >= 1e-10, None)


# ---------------------------------------------------------------------------
# group generation
# ---------------------------------------------------------------------------


def generate_group(rs: RootSystem):
    """All group elements as matrices: exact tuples where the root data is
    exact, float arrays for the inexact I2(p) (closed form).

    Every exact type goes through one closure.  The orbit O of
    {+-e_1, ..., +-e_n} under the simple reflections spans R^n, so W acts
    faithfully on it and each element is the index permutation it induces on
    O; composing with a generator is one gather.  A breadth-first search
    from the identity deduplicates on the images of e_1..e_n, which fix the
    element, and column j of its matrix is the orbit vector e_j maps to.
    The search does no field arithmetic: the matrices share the orbit's
    `Scalar` entries.  The result has size prod(degrees), and a closure
    that grows past it raises `CheckFailure`.
    """
    ctype = rs.ctype
    if not rs.exact:
        return _dihedral_group(ctype.p)
    n, expected = rs.n, ctype.order
    orbit = [_unit(i, n) for i in range(n)] + [_neg(_unit(i, n)) for i in range(n)]
    index = {v: i for i, v in enumerate(orbit)}
    images = [[] for _ in rs.simple_reflections]
    for v in orbit:  # grows while it is walked
        for g, img in zip(rs.simple_reflections, images):
            w = mat_vec(g, v)
            if w not in index:
                if len(orbit) >= 2 * n * expected:
                    raise CheckFailure(
                        f"{ctype.name}: orbit of +-e_i outgrew 2n * {expected}; "
                        "generator data is wrong"
                    )
                index[w] = len(orbit)
                orbit.append(w)
            img.append(index[w])
    gens = np.array(images, dtype=np.int64)
    # an element is fixed by the images of e_1..e_n, its first n entries;
    # they key it as one base-|O| integer
    weights = len(orbit) ** np.arange(n, dtype=np.int64)
    frontier = np.arange(len(orbit), dtype=np.int64)[None, :]
    seen = frontier[:, :n] @ weights
    levels = [frontier]
    while len(frontier):
        cand = frontier[:, gens].reshape(-1, len(orbit))
        keys, first = np.unique(cand[:, :n] @ weights, return_index=True)
        fresh = ~np.isin(keys, seen, assume_unique=True)
        frontier = cand[first[fresh]]
        seen = np.concatenate([seen, keys[fresh]])
        if len(seen) > expected:
            raise CheckFailure(
                f"closure exceeded expected order {expected}; generator data is wrong"
            )
        levels.append(frontier)
    if len(seen) != expected:
        raise CheckFailure(
            f"{ctype.name}: generated {len(seen)} elements, expected {expected}"
        )
    return [
        tuple(zip(*map(orbit.__getitem__, cols)))
        for cols in np.concatenate(levels)[:, :n].tolist()
    ]


def _dihedral_group(p: int):
    out = []
    for k in range(p):
        c, s = math.cos(2 * math.pi * k / p), math.sin(2 * math.pi * k / p)
        out.append(np.array([[c, -s], [s, c]]))
    for j in range(p):
        g = j * math.pi / p
        c, s = math.cos(2 * g), math.sin(2 * g)
        out.append(np.array([[c, s], [s, -c]]))
    return out


# ---------------------------------------------------------------------------
# strata of the closed chamber
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Stratum:
    """A face of the closed chamber: wall subset, face map, isotropy set.

    The face map Omega_F (`coweights`) takes t to the span's point Omega_F t;
    the open face is where t's simple coordinates (all but the A family's
    pad) are positive.  Only `sample_stratum` reads the orthonormal `basis`.
    """

    walls: tuple[int, ...]          # indices into the simple roots
    dim: int
    basis: np.ndarray               # (n, dim), orthonormal columns spanning span(S)
    isotropy: tuple[int, ...]       # positive-root indices vanishing on span(S)
    anchor: np.ndarray              # unit interior direction of the face
    stratum_id: str
    coweights: np.ndarray           # (n, dim) coweights of the non-wall simples, then the pad

    def __repr__(self):
        return f"Stratum({self.stratum_id}, isotropy={len(self.isotropy)})"


def enumerate_strata(rs: RootSystem) -> list[Stratum]:
    """One stratum per wall subset: every subset of the simple roots cuts a
    face of the closed chamber.

    The simple roots are linearly independent, so the face of walls S has
    dimension n - |S|, and the coweights of the other simple roots (with the
    A family's pad) map the t with positive simple coordinates onto its
    relative interior.  The
    anchor points to where every non-wall simple form equals 1 (their
    coweights' sum; the A diagonal's is the pad).  Isotropy is read off
    the simple-root support `rs.support`: a root vanishes on the face of
    walls S exactly when its simple-root coefficients are zero outside S
    (the parabolic subsystem of S).
    """
    n_walls = len(rs.simple_f)
    return [_make_stratum(rs, walls)
            for size in range(n_walls + 1)
            for walls in combinations(range(n_walls), size)]


def _make_stratum(rs: RootSystem, walls) -> Stratum:
    # the non-wall simple roots, then the A family's pad (column n - 1)
    free = [i for i in range(rs.n) if i not in walls]
    omega = rs.coweights_f[:, free]
    # span(S) = null space of the wall normals, which are independent
    if walls:
        basis = np.linalg.svd(rs.simple_f[list(walls)])[2][len(walls):].T
    else:
        basis = np.eye(rs.n)
    n_simple = len(rs.simple_f) - len(walls)
    # Omega_F 1 over the simple coordinates; the pad alone on the A diagonal
    anchor = omega[:, :n_simple or None].sum(axis=1)
    if anchor.any():
        anchor /= np.linalg.norm(anchor)
    # roots vanishing on span(S): their simple-root support lies inside S
    iso = np.flatnonzero(~rs.support[:, free[:n_simple]].any(axis=1)).tolist()
    wall_str = ",".join(str(w) for w in walls) if walls else "-"
    sid = f"d{len(free)}:w{wall_str}"
    return Stratum(tuple(walls), len(free), basis, tuple(iso), anchor, sid, omega)


def sample_stratum(
    s: Stratum,
    count: int,
    radius: float,
    seed: int,
    rs: RootSystem,
) -> np.ndarray:
    """Points in the relative interior of s intersected with the radius ball.

    All isotropy forms vanish to float precision (points are built inside the
    span) and every non-isotropy wall form is at least STRATUM_MARGIN per unit
    norm.  Each sample retries i.i.d. normal jitter around the anchor (0.45,
    times 0.7 per margin failure, at most 60 attempts); its norm is radius *
    U**(1/dim), U uniform on [0.15, 1].  Attempts run in batched rounds, one
    normal block per round for the samples still unplaced, then one uniform
    block for the radii: the rounds fix the Philox draw order that report
    digests depend on, so the output is deterministic in (seed, count), not
    in (seed, index).  A dim-0 face gives `count` zero rows.
    """
    if radius <= 0 or count <= 0:
        raise UsageError("radius and count must be positive")
    if s.dim == 0:
        return np.zeros((count, rs.n))
    rng = np.random.Generator(np.random.Philox(key=seed))
    others = [i for i in range(len(rs.simple_f)) if i not in s.walls]
    a_others = rs.simple_unit_f[others]
    unit = np.empty((count, rs.n))
    jitter, pending = np.full(count, 0.45), np.arange(count)
    for _round in range(60):
        Z = rng.normal(size=(len(pending), s.dim))
        X = s.anchor + (jitter[pending, None] * Z) @ s.basis.T
        nx = np.sqrt(np.einsum("ij,ij->i", X, X))
        ok = nx >= 1e-12
        X /= np.where(ok, nx, 1.0)[:, None]
        low = ok & ((X @ a_others.T).min(axis=1, initial=np.inf) < STRATUM_MARGIN)
        jitter[pending[low]] *= 0.7
        unit[pending[ok & ~low]] = X[ok & ~low]
        pending = pending[low | ~ok]
        if not len(pending):
            break
    else:
        raise CapabilityError(f"could not sample interior of stratum {s.stratum_id}")
    return unit * (radius * rng.uniform(0.15, 1.0, size=count) ** (1.0 / s.dim))[:, None]


def stratum_of_point(rs: RootSystem, strata: list[Stratum], x):
    """The stratum whose wall set matches the wall forms of x that are zero
    to STRATUM_REL_TOL relative to |x|."""
    x = np.asarray(x, dtype=float)
    scale = max(np.linalg.norm(x), 1e-30)
    dots = rs.simple_unit_f @ x
    active = tuple(i for i, d in enumerate(dots) if abs(d) <= STRATUM_REL_TOL * scale)
    for s in strata:
        if s.walls == active:
            return s
    return None

