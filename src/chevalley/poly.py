"""Sparse multivariate polynomials over Q(sqrt5).

A polynomial is a map from exponent tuples to nonzero `Scalar` coefficients.
All arithmetic is exact; canonical term order is graded lexicographic
(total degree first, then exponent tuple, leading term first) so that
serialization and hashing are reproducible.

Products, sums, scaling, powers, gradients, linear substitution and
determinants run on one integer form: the coefficients' `Scalar` triples
(p, q, d) go over a shared denominator d once, a term becomes a pair of
ints (a, b) meaning (a + b*sqrt5)/d under a packed-int exponent, and the
result comes back as normalized triples once, at the end of the operation;
no `Fraction` is built on the way.  A gradient's n partial derivatives
share one form.  Total degrees are limited to MAX_DEGREE.

`eval_exact` evaluates at exact points.  Float evaluation has one path,
`CompiledPoly`, which freezes a list of polynomials into one monomial table
and a sparse coefficient matrix and evaluates it on a batch of points; the
fiber samplers, mesh builders and Jacobian checks all run on it.
"""

from __future__ import annotations

import math
from itertools import combinations
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np
from scipy.sparse import csr_matrix

from .errors import UsageError
from .field import ONE, Scalar, ZERO

Exponent = tuple[int, ...]

# float64 values held by one batched kernel's temporaries (2 MiB, one core's
# L2): the monomials of a CompiledPoly chunk together with the gathered
# factor multiplied into them, a gathered level of the minor table, a block
# of Dijkstra distances.  Chunking never changes a value.
CHUNK_VALUES = 1 << 18


class SparsePoly:
    """Immutable sparse polynomial in `nvars` variables over Q(sqrt5)."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Mapping[Exponent, Scalar] | None = None):
        clean: dict[Exponent, Scalar] = {}
        if terms:
            for e, c in terms.items():
                if not isinstance(c, Scalar):
                    c = Scalar(c)
                if c.is_zero():
                    continue
                if len(e) != nvars or any(x < 0 for x in e):
                    raise UsageError(f"bad exponent {e} for nvars={nvars}")
                clean[tuple(e)] = c
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("SparsePoly is immutable")

    def __reduce__(self):
        return (_raw, (self.nvars, self.terms))

    # -- constructors --------------------------------------------------------

    @staticmethod
    def zero(nvars: int) -> "SparsePoly":
        return SparsePoly(nvars)

    @staticmethod
    def const(nvars: int, c) -> "SparsePoly":
        return SparsePoly(nvars, {(0,) * nvars: c if isinstance(c, Scalar) else Scalar(c)})

    @staticmethod
    def variable(nvars: int, i: int) -> "SparsePoly":
        if not 0 <= i < nvars:
            raise UsageError(f"variable index {i} out of range for nvars={nvars}")
        e = [0] * nvars
        e[i] = 1
        return SparsePoly(nvars, {tuple(e): ONE})

    # -- structure -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max(map(sum, self.terms), default=-1)

    def canonical_terms(self) -> list[tuple[Exponent, Scalar]]:
        """Terms in graded-lex order, leading term first."""
        return sorted(self.terms.items(), key=lambda t: (sum(t[0]), t[0]), reverse=True)

    def leading(self) -> tuple[Exponent, Scalar]:
        if not self.terms:
            raise UsageError("zero polynomial has no leading term")
        return self.canonical_terms()[0]

    def __eq__(self, other):
        if not isinstance(other, SparsePoly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, tuple(self.canonical_terms())))

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for e, c in self.canonical_terms()[:8]:
            mono = "*".join(
                f"x{i}^{p}" if p > 1 else f"x{i}" for i, p in enumerate(e) if p
            )
            parts.append(f"({float(c):.6g}){'*' + mono if mono else ''}")
        tail = " + ..." if len(self.terms) > 8 else ""
        return " + ".join(parts) + tail

    # -- arithmetic ------------------------------------------------------------

    def _check_same_vars(self, other: "SparsePoly"):
        if self.nvars != other.nvars:
            raise UsageError(
                f"nvars mismatch: {self.nvars} vs {other.nvars}"
            )

    def __add__(self, other: "SparsePoly", sign: int = 1) -> "SparsePoly":
        self._check_same_vars(other)
        d, (out, f) = _forms(self, other)
        for e, (a, b) in f.items():
            x, y = out.get(e, (0, 0))
            out[e] = (x + sign * a, y + sign * b)
        return _poly(self.nvars, out, d)

    def __neg__(self) -> "SparsePoly":
        return _raw(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "SparsePoly") -> "SparsePoly":
        return self.__add__(other, -1)

    def __mul__(self, other) -> "SparsePoly":
        if isinstance(other, (int, Scalar)):
            return self.scale(other)
        self._check_same_vars(other)
        _check_degree(self.degree() + other.degree())
        d, (f, g) = _forms(self, other)
        return _poly(self.nvars, _mul_into({}, f, g), d * d)

    __rmul__ = __mul__

    def scale(self, c) -> "SparsePoly":
        ca, cb, dc = (c if isinstance(c, Scalar) else Scalar(c)).triple
        d, (f,) = _forms(self)
        return _poly(self.nvars, {e: (a * ca + 5 * b * cb, a * cb + b * ca)
                                  for e, (a, b) in f.items()}, d * dc)

    def __pow__(self, k: int) -> "SparsePoly":
        if k < 0:
            raise UsageError("negative polynomial power")
        _check_degree(k * max(self.degree(), 0))
        d, (base,) = _forms(self)
        out, dout = _ONE, 1
        while k:
            if k & 1:
                out, dout = _mul_into({}, out, base), dout * d
            k >>= 1
            if k:
                base, d = _mul_into({}, base, base), d * d
        return _poly(self.nvars, out, dout)

    def gradient(self) -> tuple["SparsePoly", ...]:
        """The exact partial derivatives d/dx_0, ..., d/dx_{n-1}, all from
        one integer form."""
        d, (f,) = _forms(self)
        grads = []
        for shift in range(0, FIELD_BITS * self.nvars, FIELD_BITS):
            out = {}
            for e, (a, b) in f.items():
                p = e >> shift & MAX_DEGREE  # the exponent of this variable
                if p:
                    out[e - (1 << shift)] = (a * p, b * p)
            grads.append(_poly(self.nvars, out, d))
        return tuple(grads)

    # -- evaluation --------------------------------------------------------------

    def eval_exact(self, xs: Sequence[Scalar]) -> Scalar:
        if len(xs) != self.nvars:
            raise UsageError("evaluation point has wrong length")
        return sum((math.prod((x ** p for x, p in zip(xs, e) if p), start=c)
                    for e, c in self.terms.items()), ZERO)

    # -- composition with a linear map -------------------------------------------

    def substitute_linear(self, m: Sequence[Sequence[Scalar]]) -> "SparsePoly":
        """Exact composition p(M x), variable i replaced by sum_j M[i][j] x_j
        by `_horner`; so `p.substitute_linear(w) == p` proves invariance under w."""
        n = self.nvars
        if len(m) != n or any(len(row) != n for row in m):
            raise UsageError("substitution matrix must be square of size nvars")
        unit = [tuple(int(k == j) for k in range(n)) for j in range(n)]
        rows = [SparsePoly(n, {unit[j]: c for j, c in enumerate(r)}) for r in m]
        # one denominator d for p and the rows: a term of degree k comes out
        # over d^(k+1) and is lifted to d^(top+1)
        d, (f, *rows) = _forms(self, *rows)
        top = max(self.degree(), 0)
        lift = [d ** (top - sum(e)) for e in self.terms]
        f = {k: (a * s, b * s) for s, (k, (a, b)) in zip(lift, f.items())}
        return _poly(n, _horner(f, [[_ONE, r] for r in rows], 0), d ** (top + 1))

    # -- serialization ------------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "nvars": self.nvars,
            "terms": [
                {"e": list(e), **dict(zip("ab", c.to_strings()))}
                for e, c in self.canonical_terms()
            ],
        }

    @staticmethod
    def from_json_dict(d: dict) -> "SparsePoly":
        terms = {
            tuple(t["e"]): Scalar.from_strings(t["a"], t["b"]) for t in d["terms"]
        }
        return SparsePoly(d["nvars"], terms)


def _raw(nvars: int, terms: dict[Exponent, Scalar]) -> SparsePoly:
    """Internal constructor that trusts `terms` to be clean."""
    p = SparsePoly.__new__(SparsePoly)
    object.__setattr__(p, "nvars", nvars)
    object.__setattr__(p, "terms", terms)
    return p


# -- integer kernel: a form is {packed exponent: (a, b)} over a denominator d
# kept by the caller, each term (a + b*sqrt5)/d * x^e.  e_i sits in bits
# [FIELD_BITS*i, FIELD_BITS*(i+1)), so exponents of a product add as ints;
# total degrees <= MAX_DEGREE keep each field from carrying into the next.

FIELD_BITS = 16
MAX_DEGREE = (1 << FIELD_BITS) - 1
_ONE = MappingProxyType({0: (1, 0)})


def _check_degree(deg: int) -> None:
    if deg > MAX_DEGREE:
        raise UsageError(f"total degree {deg} exceeds the exact kernel's limit {MAX_DEGREE}")


def _forms(*polys: SparsePoly) -> tuple[int, list[dict[int, tuple[int, int]]]]:
    """The polys as forms over the least common denominator of their triples."""
    for p in polys:
        _check_degree(p.degree())
    d = math.lcm(*(c.triple[2] for p in polys for c in p.terms.values()))
    forms = []
    for p in polys:
        f = {}
        for e, c in p.terms.items():
            k = 0
            for x in reversed(e):
                k = (k << FIELD_BITS) | x
            a, b, dc = c.triple
            f[k] = (a * (d // dc), b * (d // dc))
        forms.append(f)
    return d, forms


def _poly(nvars: int, f: dict[int, tuple[int, int]], d: int) -> SparsePoly:
    """The form f over d back as a SparsePoly of normalized Scalars; equal
    coefficients share one Scalar."""
    shifts = range(0, FIELD_BITS * nvars, FIELD_BITS)
    scalars: dict[tuple[int, int], Scalar] = {}
    return _raw(nvars, {
        tuple([k >> s & MAX_DEGREE for s in shifts]):
            scalars.get(v) or scalars.setdefault(v, Scalar.from_triple(*v, d))
        for k, v in f.items() if v[0] or v[1]})


def _mul_into(out: dict, f: dict, g: dict, sign: int = 1) -> dict:
    """out += sign * f * g on forms; the denominators multiply."""
    get = out.get
    gi = list(g.items())
    for e1, (a1, b1) in f.items():
        a1, b1 = sign * a1, sign * b1
        for e2, (a2, b2) in gi:
            e = e1 + e2
            x, y = get(e, (0, 0))
            out[e] = (x + a1 * a2 + 5 * b1 * b2, y + a1 * b2 + b1 * a2)
    return out


def _horner(f: dict, pows: list[list[dict]], i: int) -> dict:
    """f(L) for a form f in the variables i.. and linear forms L_k, pows[k] =
    [1, L_k, ...]: one term c x^e is c prod L_k^e_k, else Horner in x_i over
    f = sum_j x_i^j q_j, each q_j(L) by the same rule on x_(i+1).  A form
    returned is always new, so q_j(L) can take the sum."""
    if len(f) <= 1:
        for k, c in f.items():
            f, k = {0: c}, k >> FIELD_BITS * i
            while k:
                if k & MAX_DEGREE:
                    f = _mul_into({}, f, _power(pows[i], k & MAX_DEGREE))
                k, i = k >> FIELD_BITS, i + 1
        return f
    shift = FIELD_BITS * i
    parts: dict[int, dict] = {}
    for k, v in f.items():
        j = k >> shift & MAX_DEGREE
        parts.setdefault(j, {})[k - (j << shift)] = v
    js = sorted(parts, reverse=True)
    acc = _horner(parts[js[0]], pows, i + 1)
    for hi, j in zip(js, js[1:]):
        acc = _mul_into(_horner(parts[j], pows, i + 1), acc, _power(pows[i], hi - j))
    return _mul_into({}, acc, _power(pows[i], js[-1])) if js[-1] else acc


def _power(pows: list[dict], p: int) -> dict:
    """L^p from pows = [1, L, L^2, ...], extended as far as p."""
    while len(pows) <= p:
        pows.append(_mul_into({}, pows[-1], pows[1]))
    return pows[p]


def product(nvars: int, polys: Sequence[SparsePoly]) -> SparsePoly:
    """Exact product of polys (1 for none), converted to forms and back once;
    zero terms are dropped after every factor so cancellations do not pile up."""
    for p in polys:
        if p.nvars != nvars:
            raise UsageError(f"nvars mismatch: {p.nvars} vs {nvars}")
    _check_degree(sum(max(p.degree(), 0) for p in polys))
    d, forms = _forms(*polys)
    out = _ONE
    for f in forms:
        out = {e: v for e, v in _mul_into({}, out, f).items() if v[0] or v[1]}
    return _poly(nvars, out, d ** len(forms))


class PolyMatrix:
    """Rectangular matrix of SparsePoly entries sharing one variable count."""

    __slots__ = ("rows", "cols", "nvars", "entries")

    def __init__(self, entries: Sequence[Sequence[SparsePoly]]):
        if not entries or not entries[0]:
            raise UsageError("PolyMatrix cannot be empty")
        cols = len(entries[0])
        nvars = entries[0][0].nvars
        for row in entries:
            if len(row) != cols:
                raise UsageError("PolyMatrix rows must have equal length")
            for p in row:
                if p.nvars != nvars:
                    raise UsageError("PolyMatrix entries must share nvars")
        object.__setattr__(self, "rows", len(entries))
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "entries", tuple(tuple(row) for row in entries))

    def __setattr__(self, name, value):
        raise AttributeError("PolyMatrix is immutable")

    def __reduce__(self):
        return (PolyMatrix, (self.entries,))

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def det(self) -> SparsePoly:
        """Exact determinant by Laplace expansion with memoized minors, on
        integer forms: entries over one denominator d, a k-minor over d^k."""
        if self.rows != self.cols:
            raise UsageError("determinant of a non-square PolyMatrix")
        n = self.rows
        _check_degree(sum(max(max(p.degree() for p in row), 0) for row in self.entries))
        d, flat = _forms(*(p for row in self.entries for p in row))
        ent = [flat[i * n:(i + 1) * n] for i in range(n)]
        # minors[S] = minor on the last len(S) rows and the columns S
        minors = {(j,): ent[n - 1][j] for j in range(n)}
        for size in range(2, n + 1):
            row = ent[n - size]
            nxt = {}
            for cols in combinations(range(n), size):
                acc: dict[int, tuple[int, int]] = {}
                for t, j in enumerate(cols):
                    if row[j]:
                        _mul_into(acc, row[j], minors[cols[:t] + cols[t + 1:]], -1 if t % 2 else 1)
                nxt[cols] = {e: v for e, v in acc.items() if v[0] or v[1]}
            minors = nxt
        return _poly(self.nvars, minors[tuple(range(n))], d ** n)


def power_table(x: np.ndarray, degree: int) -> np.ndarray:
    """x_i^0..x_i^degree for the rows of x (B, n), as x^p = x^(p//2) x^(p - p//2):
    shape (B, n, degree + 1), a view of an (n, degree + 1, B) array.  An entry
    does not depend on `degree`, so one table serves every polynomial table."""
    table = np.empty((x.shape[1], degree + 1, len(x)))
    table[:, 0] = 1.0
    if degree:
        table[:, 1] = x.T
    for p in range(2, degree + 1):
        np.multiply(table[:, p // 2], table[:, p - p // 2], out=table[:, p])
    return table.transpose(2, 0, 1)


class CompiledPoly:
    """A list of polynomials frozen into one monomial table for batched float
    evaluation.

    The union of the monomials is numbered in order of first appearance
    (each polynomial's terms in graded-lex order), so the first `count`
    polynomials use only a prefix of the table.  A batch is evaluated in
    chunks of rows, so that the two (M, rows) arrays of a chunk, its
    monomials and the factor being gathered into them, hold at most
    CHUNK_VALUES values together (one row per chunk if 2M exceeds it): the
    monomials are products of power-table entries in variable order, and
    one product with the CSR coefficients (count, M) sums each value left
    to right over its own terms.  So a row's bits depend on that row alone,
    not on its batch, chunk or neighbours, nor on the BLAS thread count.
    """

    __slots__ = ("nvars", "expo", "ends", "degrees", "_csr", "_coef")

    def __init__(self, polys: Sequence[SparsePoly]):
        polys = list(polys)
        if not polys:
            raise UsageError("CompiledPoly needs at least one polynomial")
        self.nvars = polys[0].nvars
        if any(p.nvars != self.nvars for p in polys):
            raise UsageError("CompiledPoly entries must share nvars")
        terms = [p.canonical_terms() for p in polys]
        index: dict[Exponent, int] = {}
        cols = np.array([index.setdefault(e, len(index)) for t in terms for e, _ in t],
                        dtype=np.int32)
        ptr = np.cumsum([0] + [len(t) for t in terms], dtype=np.int32)
        self._csr = (np.array([float(c) for t in terms for _, c in t]), cols, ptr)
        self._coef: dict[int, csr_matrix] = {}  # CSR of the first `count`, built on first use
        # ends[c] monomials and powers up to degrees[c] serve the first c polynomials
        self.ends = [int(cols[:end].max(initial=-1)) + 1 for end in ptr]
        self.expo = np.array(list(index), dtype=np.int64).reshape(len(index), self.nvars)
        self.degrees = [int(self.expo[:end].max(initial=0)) for end in self.ends]

    def __call__(self, x: np.ndarray, count: int | None = None) -> np.ndarray:
        """Values of the first `count` polynomials (default all) at x of
        shape (..., nvars): shape (..., count)."""
        x = np.asarray(x, dtype=float)
        if x.ndim == 0 or x.shape[-1] != self.nvars:
            raise UsageError("evaluation point has wrong length")
        size = len(self.ends) - 1
        count = size if count is None else count
        if not 0 <= count <= size:
            raise UsageError(f"count must be in 0..{size}")
        table = power_table(x.reshape(-1, self.nvars), self.degrees[count])
        return self.from_powers(table, count).reshape(x.shape[:-1] + (count,))

    def from_powers(self, table: np.ndarray, count: int) -> np.ndarray:
        """Values of the first `count` polynomials from a power table of the
        whole batch, (B, nvars, >= degree + 1) as `power_table` builds it:
        shape (B, count), equal bit for bit to `self(x, count)`."""
        if count not in self._coef:
            data, cols, ptr = self._csr
            self._coef[count] = csr_matrix((data[:ptr[count]], cols[:ptr[count]], ptr[:count + 1]),
                                           shape=(count, self.ends[count]))
        expo = self.expo[:self.ends[count]].T
        out = np.empty((len(table), count))
        rows = self.chunk_rows(count)
        for start in range(0, len(table), rows):
            powers = table[start:start + rows].transpose(1, 2, 0)
            mono = powers[0, expo[0]]
            for v in range(1, self.nvars):
                mono *= powers[v, expo[v]]
            out[start:start + rows] = (self._coef[count] @ mono).T
        return out

    def chunk_rows(self, count: int) -> int:
        """Rows per chunk when evaluating the first `count` polynomials: the
        most whose monomials and gathered factor, two (M, rows) arrays, fit
        CHUNK_VALUES together, and at least one."""
        return max(1, CHUNK_VALUES // max(2 * self.ends[count], 1))
