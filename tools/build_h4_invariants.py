#!/usr/bin/env python3
"""Offline construction of the averaged invariant data files (H3, F4, H4).

These three types have no closed-form invariants in the package.  Their
invariants are group averages of power monomials, realized as power sums
over a root orbit: the average of x_1^k over the group equals, up to a
positive factor,

    q_k(x) = sum over the roots v in one orbit of <v, x>^k ,

since e_1 lies in a root orbit for these realizations.  The first invariant
is sum x_i^2 exactly; each higher degree takes the first root-class power
sum that, exactly reduced modulo products of the accepted invariants,
raises the rank of the Jacobian, rescaled by an exact power of two.

The construction lives here and nowhere else: the package only loads,
hash-checks and evaluates the files this job writes (with a content hash)
to src/chevalley/data/.  H4 has degrees 2, 12, 20 and 30, and the H4
result is verified once more, exactly: its degrees, invariance by exact
substitution under the simple reflections, and independence by a nonzero
Jacobian determinant at an integer point.

Run from the repository root:

    python tools/build_h4_invariants.py [--types H3 F4 H4] [--out src/chevalley/data]

The default builds H4 only.  The rebuilt H3 and F4 files are byte-identical
to the shipped ones.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from fractions import Fraction
from itertools import combinations
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from chevalley.coxeter import CoxeterType, RootSystem, build_root_system, coxeter_type
from chevalley.errors import CheckFailure, UsageError
from chevalley.field import ONE, Scalar, vec_dot
from chevalley.invariants import (
    InvariantBasis,
    jacobian_det_at_point,
    save_basis,
    verify_invariance,
)
from chevalley.poly import CompiledPoly, PolyMatrix, SparsePoly


def sum_of_squares(n: int) -> SparsePoly:
    return SparsePoly(n, {tuple(2 if j == i else 0 for j in range(n)): ONE for i in range(n)})


def orbit_power_sum(positive_roots, k: int) -> SparsePoly:
    """sum over the full (+/-) root class of <v, x>^k, for even k.

    Equals 2 * sum over the positive representatives.  This is the Reynolds
    average of x_1^k up to a positive rational factor whenever e_1 belongs
    to the class orbit.
    """
    if k % 2:
        raise UsageError("orbit power sums are used with even degrees only")
    n = len(positive_roots[0])
    acc = SparsePoly.zero(n)
    for v in positive_roots:
        form = SparsePoly(n, {tuple(int(j == i) for j in range(n)): c for i, c in enumerate(v)})
        acc = acc + form ** k
    return acc.scale(Scalar(2))


def _root_classes(rs: RootSystem) -> list[list[tuple[Scalar, ...]]]:
    """Positive roots grouped by exact squared length (one class per orbit
    for the types built here), shortest class first."""
    by_norm: dict = {}
    for v in rs.positive:
        by_norm.setdefault(vec_dot(v, v), []).append(v)
    return [by_norm[key] for key in sorted(by_norm, key=float)]


def _exact_rank_advances(polys: list[SparsePoly], candidate: SparsePoly) -> bool:
    """True iff the Jacobian of polys + [candidate] has full row rank as a
    polynomial matrix (checked by finding one nonvanishing minor)."""
    n = candidate.nvars
    rows = [p.gradient() for p in polys + [candidate]]
    j = len(rows)
    for cols in combinations(range(n), j):
        sub = PolyMatrix([[rows[r][c] for c in cols] for r in range(j)])
        if not sub.det().is_zero():
            return True
    return False


def _normalize_leading(p: SparsePoly) -> SparsePoly:
    """Positive leading sign, then an exact power-of-two rescale that puts
    the gradient of the polynomial at unit scale on the unit sphere.

    The reduced orbit sums of the larger groups are numerically tiny on the
    sphere (their monomial coefficients cancel); without this rescale the
    float Jacobian of H4 looks rank-deficient even though the exact one is
    not.  The scale is measured on a fixed set of seeded unit points, so the
    construction stays deterministic, and the factor is an exact power of
    two, so nothing is lost.
    """
    _, lead = p.leading()
    q = p if lead.sign() > 0 else -p
    n = q.nvars
    rng = np.random.default_rng(424242)
    pts = rng.normal(size=(64, n))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    grads = CompiledPoly(q.gradient())(pts)
    scale = float(np.max(np.linalg.norm(grads, axis=1)))
    if scale <= 0 or not np.isfinite(scale):
        return q
    s = math.floor(math.log2(scale))
    if s > 0:
        q = q.scale(Scalar(Fraction(1, 2 ** s)))
    elif s < 0:
        q = q.scale(Scalar(2 ** (-s)))
    return q


def _degree_products(polys: list[SparsePoly], degs: list[int], target: int):
    """All products of the given invariants with total degree == target."""
    out = []

    def rec(i, remaining, acc):
        if remaining == 0:
            out.append(acc)
            return
        if i == len(polys):
            return
        rec(i + 1, remaining, acc)
        if degs[i] <= remaining:
            rec(i, remaining - degs[i], acc * polys[i])

    rec(0, target, SparsePoly.const(polys[0].nvars, 1))
    return [p for p in out if p.degree() == target]


def _reduce_mod_products(q: SparsePoly, products: list[SparsePoly]) -> SparsePoly:
    """Exact reduction of q modulo the linear span of the given polynomials.

    The products are triangularized by graded-lex leading monomial and q is
    reduced against each pivot.  The orbit power sums of highly symmetric
    root sets are numerically dominated by products of lower invariants
    (the 600-cell case most of all); stripping that span leaves the part
    that actually advances the basis, at O(1) relative magnitude.
    """
    pivots: list[tuple[tuple, SparsePoly]] = []
    for p in products:
        r = p
        for mono, piv in pivots:
            c = r.terms.get(mono)
            if c is not None:
                r = r - piv.scale(c / piv.terms[mono])
        if not r.is_zero():
            pivots.append((r.leading()[0], r))
    for mono, piv in pivots:
        c = q.terms.get(mono)
        if c is not None:
            q = q - piv.scale(c / piv.terms[mono])
    return q


def _build_averaged_basis(ctype: CoxeterType) -> InvariantBasis:
    """H3 / F4 / H4 construction: first invariant is sum x_i^2 exactly;
    each higher degree takes the first root-class power sum that, exactly
    reduced modulo products of the accepted invariants, raises the rank of
    the Jacobian."""
    polys = [sum_of_squares(ctype.dim)]
    classes = _root_classes(build_root_system(ctype))
    for k in ctype.degrees[1:]:
        products = _degree_products(polys, [p.degree() for p in polys], k)
        for cls in classes:
            q = _reduce_mod_products(orbit_power_sum(cls, k), products)
            if not q.is_zero() and _exact_rank_advances(polys, q):
                polys.append(_normalize_leading(q))
                break
        else:
            raise CheckFailure(f"{ctype.name}: no independent invariant of degree {k}")
    return InvariantBasis(ctype, polys, "orbit-sums")


def build_h4() -> InvariantBasis:
    basis = _build_averaged_basis(coxeter_type("H4"))
    for p in basis.polys:
        print(f"  degree {p.degree()}: {len(p.terms)} terms")
    return basis


def verify_h4(basis: InvariantBasis) -> None:
    rs = build_root_system("H4")
    print("  degrees:", basis.degrees)
    assert basis.degrees == (2, 12, 20, 30)
    point, det = jacobian_det_at_point(basis)
    print(f"  exact det J at {point}: {float(det):.6g}")
    assert not det.is_zero(), "H4 candidate invariants are algebraically dependent"
    t0 = time.time()
    ok = verify_invariance(basis, rs)
    print(f"  exact invariance under the simple reflections: {ok} ({time.time() - t0:.1f}s)")
    assert ok, "H4 candidate invariants are not invariant"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default=str(Path(__file__).parent.parent / "src/chevalley/data"))
    ap.add_argument("--types", nargs="+", default=["H4"], choices=["H3", "F4", "H4"])
    args = ap.parse_args()
    out = Path(args.out)
    for name in args.types:
        print(f"building {name} ...")
        t0 = time.time()
        if name == "H4":
            basis = build_h4()
            verify_h4(basis)
        else:
            basis = _build_averaged_basis(coxeter_type(name))
        path = out / f"{name}.json"
        save_basis(basis, path)
        print(f"wrote {path} ({path.stat().st_size} bytes) in {time.time() - t0:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
