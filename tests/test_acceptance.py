"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with `pytest -s tests/test_acceptance.py` to see one PASS/FAIL line per
criterion.  Every expected value is either derived from an independent
oracle inside the test or is a combinatorial fact of the degree tables.
"""

import dataclasses
import math
import time
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad

from chevalley import cli, jacobian
from chevalley.cli import RunConfig, SuiteReport
from chevalley.coxeter import build_root_system, coxeter_type, generate_group
from chevalley.errors import CheckFailure
from chevalley.field import Scalar
from chevalley.invariants import InvariantBasis
from chevalley.jacobian import verify_det_factorization, verify_stratum_rank
from chevalley.poly import SparsePoly
from chevalley.probe import (
    HESSIAN_EIG_FLOOR,
    critical_points,
    fiber_connectivity,
    fiber_value_interval,
    random_regular_target,
    sample_fiber,
)
from chevalley.regularity import (
    _draw_pairs,
    _pair_geodesics,
    _ratio_stats,
    build_chamber_mesh,
    build_image_graph,
    envelope_functions,
    whitney_study,
)

from lift import lift_derivatives


def conclude(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {num} [{status}] {name} {detail}", flush=True)
    assert ok, f"criterion {num} failed: {name} {detail}"


# -- 1: exact Jacobian factorization ----------------------------------------


def test_criterion_1_exact_factorization(basis_cache, rs_cache):
    t0 = time.monotonic()
    constants = {}
    for name in ("A3", "A4", "B2", "B3", "D4", "G2", "H3", "F4"):
        rep = verify_det_factorization(basis_cache(name), rs_cache(name))
        assert rep.exact and rep.residual == 0.0, name
        assert rep.det_degree == sum(k - 1 for k in basis_cache(name).degrees)
        constants[name] = rep.c
    elapsed = time.monotonic() - t0
    ok = constants["A3"] == 6.0 and constants["B2"] == 4.0 and elapsed <= 10
    conclude(1, "exact factorization det J = c * prod(wall forms)", ok,
             f"c(S3)={constants['A3']} c(B2)={constants['B2']} all exact, {elapsed:.1f}s")


def _invariants_checks(basis, rs):
    """The `invariants` suite's checks on a hand-built basis, by name: the
    code path of `chevalley invariants`."""
    cfg = RunConfig(type_spec=rs.ctype.name, command="invariants")
    rep = SuiteReport(cfg)
    cli._suite_invariants(cfg, rep, {"basis": basis, "rs": rs})
    return {c["name"]: c for c in rep.checks}


def test_criterion_1_rejects_a_dependent_basis(basis_cache, rs_cache):
    """B3 with p1^3 in place of p3: invariant, of the right degrees, but
    algebraically dependent, so det J vanishes identically.  `jacobian-rank`
    must fail with an exact zero at x0, and the factorization must raise."""
    b, rs = basis_cache("B3"), rs_cache("B3")
    p1, p2, _ = b.polys
    planted = InvariantBasis(b.ctype, [p1, p2, p1 ** 3], "planted")
    checks = _invariants_checks(planted, rs)
    assert {name: c["status"] for name, c in checks.items()} == {
        "degree-table": "pass", "root-count": "pass", "invariance": "pass",
        "jacobian-rank": "fail"}
    assert checks["jacobian-rank"]["metrics"] == {"point": [3, -5, 11], "det_at_point": 0.0}
    with pytest.raises(CheckFailure, match="zero"):
        verify_det_factorization(planted, rs)


# -- 2: combinatorial consistency for every supported type --------------------


def test_criterion_2_roots_and_orders():
    t0 = time.monotonic()
    names = (["A1"] + [f"A{n}" for n in range(2, 7)] + [f"B{n}" for n in range(1, 5)]
             + [f"D{n}" for n in range(2, 7)] + [f"I2:{p}" for p in range(3, 13)]
             + ["G2", "H3", "H4", "F4"])
    for name in names:
        t = coxeter_type(name)
        rs = build_root_system(t)
        assert len(rs.positive_f) == sum(d - 1 for d in t.degrees), name
        g = generate_group(rs)
        assert len(g) == t.order, name
    rs = build_root_system("H3")
    assert len(rs.positive_f) == 15 and coxeter_type("H3").order == 120
    rs = build_root_system("F4")
    assert len(rs.positive_f) == 24 and coxeter_type("F4").order == 1152
    elapsed = time.monotonic() - t0
    conclude(2, "root counts and group orders for every supported type",
             elapsed <= 15, f"{len(names)} types, {elapsed:.1f}s")


def test_criterion_2_rejects_a_non_invariant_basis(basis_cache, rs_cache):
    """B3 with p2 + x0 in place of p2 (its degree is still 4): the basis is
    not invariant, and exact substitution under the generators must say so."""
    b, rs = basis_cache("B3"), rs_cache("B3")
    p1, p2, p3 = b.polys
    planted = InvariantBasis(b.ctype, [p1, p2 + SparsePoly.variable(3, 0), p3], "planted")
    checks = _invariants_checks(planted, rs)
    assert checks["invariance"] == {"name": "invariance", "status": "fail",
                                    "metrics": {"exact": True}}
    assert checks["jacobian-rank"]["status"] == "pass"


def test_criterion_2_rejects_a_nearly_invariant_h4_basis(basis_cache, rs_cache):
    """H4 with p30 + 2^-40 x0^30 in place of p30: of the right degrees and
    independent, but not invariant.  The bump sits far below a 1e-9 float
    tolerance, so a float check at sample points passes this basis; exact
    substitution under the simple reflections must reject it."""
    b, rs = basis_cache("H4"), rs_cache("H4")
    *rest, p30 = b.polys
    bump = (SparsePoly.variable(4, 0) ** 30).scale(Scalar(Fraction(1, 2 ** 40)))
    planted = InvariantBasis(b.ctype, [*rest, p30 + bump], "planted")
    checks = _invariants_checks(planted, rs)
    assert checks["invariance"] == {"name": "invariance", "status": "fail",
                                    "metrics": {"exact": True}}
    assert checks["jacobian-rank"]["status"] == "pass"


# -- 3: rank on strata for H3, D6, F4 -----------------------------------------


def test_criterion_3_stratum_rank(basis_cache, rs_cache, strata_cache):
    t0 = time.monotonic()
    violations = []
    degenerate = {}
    for name in ("H3", "D6", "F4"):
        b, rs = basis_cache(name), rs_cache(name)
        for s in strata_cache(name):
            if s.dim < 1:
                continue
            rep = verify_stratum_rank(b, rs, s, samples=100, seed=11, tol=1e-9)
            if not rep.passed:
                violations.append((name, rep.to_dict()))
            if rep.leading_degenerate:
                degenerate.setdefault(name, []).append(rep.stratum_id)
    elapsed = time.monotonic() - t0
    # the single admissible degeneracy: the D6 face pinning the last two
    # coordinates to zero, where the product invariant row vanishes
    # identically and no generic fiber of the first four invariants arrives
    ok = (not violations and degenerate.get("H3") is None
          and degenerate.get("F4") is None
          and degenerate.get("D6") == ["d4:w4,5"] and elapsed <= 5)
    conclude(3, "rank-k minors on every stratum of H3, D6, F4", ok,
             f"violations={len(violations)} degenerate={degenerate} {elapsed:.0f}s")


def test_criterion_3_rejects_a_sample_on_a_zero_line(basis_cache, rs_cache, strata_cache,
                                                     monkeypatch):
    """D5's face d2:w0,1,2 holds the line x = (1, 1, 1, 1, 0), where the
    gradients 2x and 4x^3 of the first two invariants are parallel and every
    leading 2-minor is exactly 0: sampled there, the face must fail on (a)."""
    b, rs = basis_cache("D5"), rs_cache("D5")
    s = next(t for t in strata_cache("D5") if t.stratum_id == "d2:w0,1,2")
    monkeypatch.setattr(jacobian, "sample_stratum",
                        lambda s, count, radius, seed, rs: np.tile([1.0, 1, 1, 1, 0], (count, 1)))
    rep = verify_stratum_rank(b, rs, s, samples=100, seed=11, tol=1e-9)
    assert not rep.passed and not rep.leading_degenerate
    assert rep.min_leading_minor == 0.0
    assert rep.witness == [0.5, 0.5, 0.5, 0.5, 0.0]


def test_criterion_3_rejects_a_non_invariant_basis(basis_cache, rs_cache, strata_cache):
    """B3 with p2 + x0^3 x1 in place of p2: the gradient of the new term
    leaves the span of the faces on walls 0 or 1, so rank <= k is false
    there and those five faces must fail on (b), their bordering minor."""
    b, rs = basis_cache("B3"), rs_cache("B3")
    p1, p2, p3 = b.polys
    planted = InvariantBasis(b.ctype, [p1, p2 + SparsePoly(3, {(3, 1, 0): Scalar(1)}), p3],
                             "planted")
    failed = {}
    for s in strata_cache("B3"):
        if s.dim >= 1:
            rep = verify_stratum_rank(planted, rs, s, samples=100, seed=11, tol=1e-9)
            if not rep.passed:
                failed[rep.stratum_id] = rep.max_bordering_minor
    assert sorted(failed) == ["d1:w0,1", "d1:w0,2", "d1:w1,2", "d2:w0", "d2:w1"]
    assert min(failed.values()) > 1e-3


# -- 4: Morse/Lagrange structure ----------------------------------------------


def test_criterion_4_morse(basis_cache, rs_cache, strata_cache):
    b, rs = basis_cache("B2"), rs_cache("B2")
    cps = critical_points(b, rs, 1, [1.0], seed=5, strata=strata_cache("B2"))
    ok = (len(cps) == 2
          and abs(cps[0].value - 0.0) <= 1e-8
          and abs(cps[1].value - 0.25) <= 1e-8
          and abs(cps[1].multipliers[0] - 0.5) <= 1e-8
          and all(cp.stratum_dim == 1 for cp in cps)
          and all(np.min(np.abs(cp.hessian_eigs)) > 1e-6 for cp in cps))
    detail = (f"B2 values=({cps[0].value:.2e},{cps[1].value:.6f}) "
              f"mu={cps[1].multipliers[0]:.8f}")

    anomalies = 0
    fibers = 0
    for name in ("B3", "A4"):
        bb, rr = basis_cache(name), rs_cache(name)
        strata = strata_cache(name)
        n = bb.nvars
        for i in range(20):
            k = 1 + i % (n - 1)
            m, _ = random_regular_target(bb, rr, k, seed=1000 + 7 * i)
            found = critical_points(bb, rr, k, m, seed=17 + i, strata=strata)
            fibers += 1
            anomalies += sum(cp.anomaly for cp in found)
            assert found, f"{name} k={k}: no critical points found"
    ok = ok and anomalies == 0
    conclude(4, "Morse/Lagrange critical points", ok,
             detail + f"; {fibers} random fibers, anomalies={anomalies}")


def _suite_check(suite, cfg, basis, rs, strata):
    """The one check a single-k `morse` or `fiber` suite writes for a given
    basis: the code path of `chevalley morse` / `fiber`."""
    rep = SuiteReport(cfg)
    suite(cfg, rep, {"basis": basis, "rs": rs, "strata": strata})
    (check,) = rep.checks
    return check


def test_criterion_4_rejects_a_degenerate_basis(basis_cache, rs_cache, strata_cache):
    """B2 with p2^2 in place of p2 (degrees (2, 8)): on the fiber |x|^2 = 1
    the points where p2 = 0 are degenerate critical points of p2^2, with a
    zero projected Hessian.  `morse` must flag them.  The degenerate solve
    stops just off the wall, so each is named by the stratum test and by the
    eigenvalue floor; the d1:w0 maximum, value 1/16, stays a Morse point."""
    b, rs = basis_cache("B2"), rs_cache("B2")
    p1, p2 = b.polys
    planted = InvariantBasis(dataclasses.replace(b.ctype, degrees=(2, 8)), [p1, p2 ** 2],
                             "planted")
    cfg = RunConfig(type_spec="B2", command="morse", seed=5, k=1, target=[1.0])
    check = _suite_check(cli._suite_morse, cfg, planted, rs, strata_cache("B2"))
    assert check["name"] == "morse:k=1" and check["status"] == "anomaly"
    anomalies = check["metrics"]["anomalies"]
    assert len(anomalies) == 2 and check["metrics"]["n_critical"] == 3
    for cp in anomalies:
        assert cp["value"] < 1e-20
        assert cp["anomaly_reason"] == ("critical point on a stratum of dimension 2 != k=1; "
                                        "projected Hessian has a near-zero eigenvalue")
        assert max(abs(e) for e in cp["hessian_eigs"]) < HESSIAN_EIG_FLOOR
    assert abs(max(check["metrics"]["values"]) - 1 / 16) < 1e-12


# -- 5: fiber connectivity and interval fibers ---------------------------------


def test_criterion_5_fiber_connectivity(basis_cache, rs_cache):
    t0 = time.monotonic()
    total = {"fibers": 0, "nonempty": 0, "connected": 0}
    gaps = []
    gap_pairs = []  # (gap at N, gap at 2N) on a subset
    for name in ("B3", "A4"):
        b, rs = basis_cache(name), rs_cache(name)
        n = b.nvars
        for k in range(1, n):
            for i in range(100):
                seed = 3000 + 131 * i + 17 * k
                m, hint = random_regular_target(b, rs, k, seed)
                cap = 2.5 * float(np.linalg.norm(hint))
                fs = sample_fiber(b, rs, k, m, n_points=2000, seed=seed,
                                  x_hint=hint, radius_cap=cap)
                total["fibers"] += 1
                if fs.empty:
                    continue
                total["nonempty"] += 1
                if fiber_connectivity(fs) == 1:
                    total["connected"] += 1
                _, _, gap = fiber_value_interval(fs, b, k)
                gaps.append(gap)
                if i < 20:
                    fs2 = sample_fiber(b, rs, k, m, n_points=4000, seed=seed,
                                       x_hint=hint, radius_cap=cap)
                    _, _, gap2 = fiber_value_interval(fs2, b, k)
                    gap_pairs.append((gap, gap2))
    elapsed = time.monotonic() - t0
    frac = total["connected"] / max(total["nonempty"], 1)
    worst_gap = max(gaps)
    med_n = float(np.median([g for g, _ in gap_pairs]))
    med_2n = float(np.median([g2 for _, g2 in gap_pairs]))
    ok = frac >= 0.95 and worst_gap <= 0.05 and med_2n < med_n and elapsed <= 120
    conclude(5, "fiber connectivity and interval refinement", ok,
             f"connected {total['connected']}/{total['nonempty']} "
             f"max_gap={worst_gap:.4f} median gap {med_n:.4f}->{med_2n:.4f} "
             f"({elapsed:.0f}s)")


@pytest.mark.parametrize("seed", range(1, 6))
def test_criterion_5_rejects_a_two_sheet_d4_fiber(basis_cache, rs_cache, strata_cache, seed):
    """The D4 k=2 fiber at m = (0.74121475, 0.18542784) has two components
    in the chamber (ROADMAP item 21): `fiber` must count both."""
    b, rs = basis_cache("D4"), rs_cache("D4")
    cfg = RunConfig(type_spec="D4", command="fiber", seed=seed, k=2,
                    target=[0.74121475, 0.18542784])
    check = _suite_check(cli._suite_fiber, cfg, b, rs, strata_cache("D4"))
    assert check["name"] == "fiber:k=2" and check["status"] == "anomaly"
    assert check["metrics"]["components"] == 2 and check["metrics"]["n_points"] == 1000


def test_criterion_5_rejects_a_sample_with_an_arc_removed(basis_cache, rs_cache):
    """The B2 k=1 fiber is the unit circle's arc in the chamber (polar
    angle 0 to pi/4), one component; with the points at polar angle in
    (0.3, 0.5) removed, a gap far wider than the connectivity radius, the
    sample must read as two."""
    fs = sample_fiber(basis_cache("B2"), rs_cache("B2"), 1, [1.0], n_points=400, seed=3)
    assert fiber_connectivity(fs) == 1
    angle = np.arctan2(fs.points[:, 1], fs.points[:, 0])
    cut = (angle > 0.3) & (angle < 0.5)
    assert 0 < cut.sum() < len(angle)
    assert fiber_connectivity(dataclasses.replace(fs, points=fs.points[~cut])) == 2


# -- 6: Whitney ratios ----------------------------------------------------------


def test_criterion_6_whitney(basis_cache, rs_cache):
    t0 = time.monotonic()
    # A1: the image of x -> x^2 is an interval, ratio 1
    b1, r1 = basis_cache("A1"), rs_cache("A1")
    g1 = build_image_graph(b1, r1, build_chamber_mesh(r1, 1.0, 0.02))
    rep1 = _ratio_stats(g1, *_draw_pairs(g1, 500, 3))
    ok_a1 = abs(rep1.max_ratio - 1.0) <= 1e-3

    # B2 boundary pair: arc length along p2 = p1^2 / 4 by quadrature
    b2, r2 = basis_cache("B2"), rs_cache("B2")
    g2 = build_image_graph(b2, r2, build_chamber_mesh(r2, 1.5, 0.02))
    _, (i, j) = g2.mesh.tree.query([[0.0, 0.0], [1.0, 1.0]])  # snap to mesh vertices
    got = (float(_pair_geodesics(g2.graph, np.array([i]), np.array([j]))[0])
           / float(np.linalg.norm(g2.image[i] - g2.image[j])))
    arc, _ = quad(lambda p: math.sqrt(1 + p * p / 4), 0.0, 2.0)
    expected = arc / math.sqrt(5.0)
    ok_pair = abs(got - expected) <= 0.01 and abs(expected - 1.0266) < 1e-3

    stats = {}
    for name, h in (("B2", 0.04), ("B3", 0.05), ("G2", 0.04),
                    ("I2:7", 0.04), ("H3", 0.05)):
        stats[name] = whitney_study(basis_cache(name), rs_cache(name), 1.0, h,
                                    pairs=5000, seed=7)
    ok_types = all(st.passed for st in stats.values())
    elapsed = time.monotonic() - t0
    detail = (f"A1={rep1.max_ratio:.5f} B2pair={got:.4f}~{expected:.4f} "
              + " ".join(f"{k}:max={st.max_ratio:.3f},"
                         f"d={st.refinement[-1]['max_ratio_rel_change']:.3f}"
                         for k, st in stats.items())
              + f" ({elapsed:.0f}s)")
    conclude(6, "Whitney geodesic/Euclidean ratios",
             ok_a1 and ok_pair and ok_types and elapsed <= 10, detail)


# -- 7: lift derivatives ----------------------------------------------------------


def test_criterion_7_lift_derivatives(basis_cache, rs_cache, strata_cache):
    b, rs = basis_cache("B2"), rs_cache("B2")
    diag = next(s for s in strata_cache("B2") if s.dim == 1 and 0 in s.walls)
    X, grads = lift_derivatives(b, rs, diag, samples=50, radius=2.0, seed=9)
    p1 = np.sum(X ** 2, axis=1)
    err = float(np.max(np.abs(grads[:, 0] - p1 / 2)))
    ok = err <= 1e-8
    # boundedness down to |x| = 1e-6 with homogeneity-limit agreement 1e-4
    anchor = diag.anchor
    g_small = []
    for scale in (1e-3, 1e-6):
        g = lift_derivatives(b, rs, diag, points=anchor[None, :] * scale)[1][0, 0]
        g_small.append(g)
    # dp2/dp1 = p1/2 is homogeneous of degree 2 in x: the limit at 0 is 0
    ok = ok and abs(g_small[0]) <= 1e-4 and abs(g_small[1]) <= 1e-4
    pred = g_small[0] * (1e-6 / 1e-3) ** 2
    ok = ok and abs(g_small[1] - pred) <= 1e-4
    conclude(7, "lift derivatives on strata", ok,
             f"max|dp2/dp1 - p1/2|={err:.2e}, values at 1e-3/1e-6: "
             f"{g_small[0]:.2e}/{g_small[1]:.2e}")


# -- 8: envelopes and prism containment --------------------------------------------


def test_criterion_8_envelopes(basis_cache, rs_cache, strata_cache):
    violations = 0
    matches = []
    for name, ks in (("B2", (1,)), ("B3", (1, 2))):
        b, rs = basis_cache(name), rs_cache(name)
        for k in ks:
            env = envelope_functions(b, rs, k, a=1.2, h=0.06, cells=24)
            violations += env.containment_violations
            m, hint = random_regular_target(b, rs, k, seed=4242 + k)
            # the envelope values at m: critical values of p_{k+1} on k-faces
            vals = [cp.value for cp in critical_points(b, rs, k, m, strata=strata_cache(name))
                    if not cp.anomaly and cp.stratum_dim == k]
            lo_e, hi_e = min(vals), max(vals)
            fs = sample_fiber(b, rs, k, m, n_points=2000, seed=5, x_hint=hint)
            lo_f, hi_f, _ = fiber_value_interval(fs, b, k)
            rng_v = max(hi_f - lo_f, 1e-30)
            matches.append((name, k, abs(lo_e - lo_f) / rng_v,
                            abs(hi_e - hi_f) / rng_v))
    ok = violations == 0 and all(m[2] <= 1e-3 and m[3] <= 1e-3 for m in matches)
    detail = f"containment violations={violations}; " + " ".join(
        f"{n}k{k}:lo_err={lo:.1e},hi_err={hi:.1e}" for n, k, lo, hi in matches
    )
    conclude(8, "envelope tables and prism containment", ok, detail)
