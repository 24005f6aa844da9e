"""The three benchmark workloads: set-up, item lists and correctness gates.

A workload is a fixed cycle of items.  An item is one unit of verification
work that ends in a verdict: it passes, fails its check, or raises.  Every
item seed is derived from the benchmark seed, the cycle number and the
item's position, so one seed always produces the same inputs.

The package is always called through its module attributes
(`probe.sample_fiber`, not an imported name), so that the tracer's
wrappers see every call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from chevalley import coxeter, invariants, jacobian, probe, regularity


@dataclass
class Item:
    label: str
    run: Callable[[], tuple[bool, dict]]   # -> (verdict passed, result payload)


@dataclass
class TypeContext:
    basis: invariants.InvariantBasis
    rs: coxeter.RootSystem
    strata: list | None


def item_seed(seed: int, cycle: int, pos: int) -> int:
    return int(np.random.SeedSequence([seed, cycle, pos]).generate_state(1)[0])


def setup_types(names, strata_for=(), hessians_for=(), compiled_for=()) -> dict:
    """Load bases (with their cache hash check), build root systems,
    enumerate strata and compile the evaluators a workload uses."""
    ctx = {}
    for name in names:
        rs = coxeter.build_root_system(coxeter.coxeter_type(name))
        basis = invariants.basic_invariants(name)
        strata = coxeter.enumerate_strata(rs) if name in strata_for else None
        if name in compiled_for or name in hessians_for:
            cb = basis.compiled
            if name in hessians_for:
                cb.hessians(np.zeros((1, basis.nvars)))
        ctx[name] = TypeContext(basis, rs, strata)
    return ctx


def _finite(*values) -> bool:
    return all(math.isfinite(v) for v in values)


# ---------------------------------------------------------------------------
# fiber: criteria 4 and 5 on B3 and A4
# ---------------------------------------------------------------------------

FIBER_CASES = [("B3", 1), ("B3", 2), ("A4", 1), ("A4", 2), ("A4", 3)]
FIBER_GAP_MAX = 0.05


class Fiber:
    name = "fiber"
    cycle_s = 5.0   # nominal seconds per cycle at the commit that defined the benchmark

    def __init__(self, tiny: bool = False):
        self.n_points = 800 if tiny else 2000

    def setup(self) -> dict:
        names = sorted({name for name, _ in FIBER_CASES})
        return setup_types(names, strata_for=names, hessians_for=names)

    def cycle(self, ctx: dict, seed: int, cycle: int) -> list[Item]:
        # one case per cycle (rotating) also resamples at twice the points
        resample = cycle % len(FIBER_CASES)
        return [
            Item(f"fiber:{name}:k{k}", self._item(ctx[name], k, item_seed(seed, cycle, pos),
                                                  pos == resample))
            for pos, (name, k) in enumerate(FIBER_CASES)
        ]

    def _item(self, tc: TypeContext, k: int, s: int, resample: bool):
        def run():
            b, rs = tc.basis, tc.rs
            m, hint = probe.random_regular_target(b, rs, k, s)
            cap = 2.5 * float(np.linalg.norm(hint))
            fs = probe.sample_fiber(b, rs, k, m, n_points=self.n_points, seed=s,
                                    x_hint=hint, radius_cap=cap)
            if fs.empty:
                return False, {"seed": s, "empty": True}
            components = probe.fiber_connectivity(fs)
            lo, hi, gap = probe.fiber_value_interval(fs, b, k)
            cps = probe.critical_points(b, rs, k, m, seed=s, strata=tc.strata)
            anomalies = sum(cp.anomaly for cp in cps)
            out = {"seed": s, "points": len(fs.points), "components": components,
                   "lo": lo, "hi": hi, "gaps": [gap],
                   "critical_values": [cp.value for cp in cps], "anomalies": anomalies}
            if resample:
                fs2 = probe.sample_fiber(b, rs, k, m, n_points=2 * self.n_points, seed=s,
                                         x_hint=hint, radius_cap=cap)
                out["gaps"].append(probe.fiber_value_interval(fs2, b, k)[2])
            return components == 1 and len(cps) > 0 and anomalies == 0, out

        return run

    def gate(self, records: list[dict]) -> list[str]:
        problems = []
        seen = set()
        for r in records:
            gaps = r["result"].get("gaps", [])
            if gaps:
                seen.add(r["label"])
            if not all(_finite(g) and g <= FIBER_GAP_MAX for g in gaps):
                problems.append(f"{r['id']} {r['label']}: value-interval gap {gaps} "
                                f"> {FIBER_GAP_MAX}")
        for name, k in FIBER_CASES:
            if f"fiber:{name}:k{k}" not in seen:
                problems.append(f"fiber:{name}:k{k}: no value interval was produced")
        return problems


# ---------------------------------------------------------------------------
# whitney: criteria 6 and 8
# ---------------------------------------------------------------------------

WHITNEY_STUDIES = [("B2", 0.04), ("B3", 0.05), ("G2", 0.04), ("I2:7", 0.04), ("H3", 0.05)]
ENVELOPES = [("B2", 1), ("B3", 1), ("B3", 2)]
REFINEMENT_MAX = 0.05
MIN_RATIO_FLOOR = 1 - 1e-6


class Whitney:
    name = "whitney"
    cycle_s = 6.0   # nominal seconds per cycle at the commit that defined the benchmark

    def __init__(self, tiny: bool = False):
        self.pairs = 400 if tiny else 5000
        self.pitch_scale = 2.0 if tiny else 1.0
        self.env_h, self.env_cells = (0.15, 8) if tiny else (0.06, 24)

    def setup(self) -> dict:
        names = [name for name, _ in WHITNEY_STUDIES]
        return setup_types(names, compiled_for=names)

    def cycle(self, ctx: dict, seed: int, cycle: int) -> list[Item]:
        items = []
        for name, h in WHITNEY_STUDIES:
            s = item_seed(seed, cycle, len(items))
            items.append(Item(f"whitney:study:{name}",
                              self._study(ctx[name], h * self.pitch_scale, s)))
        for name, k in ENVELOPES:
            s = item_seed(seed, cycle, len(items))
            items.append(Item(f"whitney:envelope:{name}:k{k}", self._envelope(ctx[name], k, s)))
        return items

    def _study(self, tc: TypeContext, h: float, s: int):
        def run():
            st = regularity.whitney_study(tc.basis, tc.rs, 1.0, h, pairs=self.pairs, seed=s)
            change = st.refinement[-1]["max_ratio_rel_change"]
            out = {"seed": s, "n_pairs": st.n_pairs, "max_ratio": st.max_ratio,
                   "p99_ratio": st.p99_ratio, "min_ratio": st.min_ratio,
                   "refinement_change": change}
            ok = (_finite(st.max_ratio, change) and st.min_ratio >= MIN_RATIO_FLOOR
                  and change <= REFINEMENT_MAX)
            return ok, out

        return run

    def _envelope(self, tc: TypeContext, k: int, s: int):
        def run():
            env = regularity.envelope_functions(tc.basis, tc.rs, k, a=1.2, h=self.env_h,
                                                cells=self.env_cells, seed=s)
            out = {"seed": s, **env.to_dict()}
            return env.containment_violations == 0, out

        return run

    def gate(self, records: list[dict]) -> list[str]:
        # A path in the image graph is never shorter than the straight line,
        # so every ratio is finite and at least 1.  The 0.05 refinement bound
        # is part of the item verdict, not the gate: it is a convergence
        # claim that some pair seeds miss.
        problems = []
        seen = set()
        for r in records:
            res = r["result"]
            if "max_ratio" in res:
                seen.add(r["label"])
                if not (_finite(res["max_ratio"], res["p99_ratio"], res["min_ratio"],
                                res["refinement_change"])
                        and res["min_ratio"] >= MIN_RATIO_FLOOR):
                    problems.append(f"{r['id']} {r['label']}: ratios {res}")
        for name, _ in WHITNEY_STUDIES:
            if f"whitney:study:{name}" not in seen:
                problems.append(f"whitney:study:{name}: no ratio was produced")
        return problems


# ---------------------------------------------------------------------------
# certify: criteria 1-3 and the H4 numeric paths
# ---------------------------------------------------------------------------

DET_TYPES = ["A3", "A4", "B2", "B3", "D4", "G2", "H3", "F4"]
GROUP_TYPES = ["H3", "F4"]
RANK_TYPES = ["H3", "D6", "F4", "H4"]
CALIBRATION_TYPES = ["F4", "H4"]
TARGET_KS = [1, 2, 3]
EXPECTED_C = {"A3": 6.0, "B2": 4.0}
EXPECTED_ORDER = {"H3": 120, "F4": 1152}
# the one face where the product invariant's row vanishes identically
EXPECTED_DEGENERATE = {"H3": [], "D6": ["d4:w4,5"], "F4": [], "H4": []}


class Certify:
    name = "certify"
    cycle_s = 14.0   # nominal seconds per cycle at the commit that defined the benchmark

    def __init__(self, tiny: bool = False):
        if tiny:
            self.det_types, self.group_types = ["A3", "B2", "G2"], ["H3"]
            self.rank_types, self.cal_types = ["H3"], ["F4"]
            self.samples, self.cal_points, self.target_ks = 10, 200, [1]
        else:
            self.det_types, self.group_types = DET_TYPES, GROUP_TYPES
            self.rank_types, self.cal_types = RANK_TYPES, CALIBRATION_TYPES
            self.samples, self.cal_points, self.target_ks = 100, 2000, TARGET_KS

    def setup(self) -> dict:
        numeric = sorted(set(self.rank_types) | set(self.cal_types) | {"H4"})
        names = sorted(set(self.det_types) | set(self.group_types) | set(numeric))
        return setup_types(names, strata_for=self.rank_types, compiled_for=numeric)

    def cycle(self, ctx: dict, seed: int, cycle: int) -> list[Item]:
        specs = [(f"certify:det:{n}", self._det, (ctx[n],)) for n in self.det_types]
        specs += [(f"certify:group:{n}", self._group, (ctx[n],)) for n in self.group_types]
        for n in self.rank_types:
            specs += [(f"certify:rank:{n}:{st.stratum_id}", self._rank, (ctx[n], st))
                      for st in ctx[n].strata if st.dim >= 1]
        specs += [(f"certify:calibration:{n}", self._calibration, (ctx[n],))
                  for n in self.cal_types]
        specs += [(f"certify:target:H4:k{k}", self._target, (ctx["H4"], k))
                  for k in self.target_ks]
        return [Item(label, make(*args, item_seed(seed, cycle, pos)))
                for pos, (label, make, args) in enumerate(specs)]

    @staticmethod
    def _det(tc: TypeContext, s: int):
        def run():
            rep = jacobian.verify_det_factorization(tc.basis, tc.rs, seed=s)
            ok = (rep.exact and rep.residual == 0.0
                  and rep.det_degree == tc.rs.ctype.n_positive_roots)
            return ok, {"seed": s, **rep.to_dict()}

        return run

    @staticmethod
    def _group(tc: TypeContext, s: int):
        def run():
            order = len(coxeter.generate_group(tc.rs))
            return order == math.prod(tc.rs.ctype.degrees), {"order": order}

        return run

    def _rank(self, tc: TypeContext, stratum, s: int):
        def run():
            rep = jacobian.verify_stratum_rank(tc.basis, tc.rs, stratum, samples=self.samples,
                                               seed=s, tol=1e-9)
            return rep.passed, {"seed": s, **rep.to_dict()}

        return run

    def _calibration(self, tc: TypeContext, s: int):
        def run():
            cal = jacobian.det_vanishing_calibration(tc.basis, tc.rs, n_points=self.cal_points,
                                                     seed=s)
            # the same verdict as `chevalley verify-jacobian`
            ok = (cal["ratio_spread"] <= 1e-8
                  and cal["det_near_wall_max"] <= cal["det_near_wall_bound"]
                  and cal["small_det_form_ok"])
            return ok, {"seed": s, **cal}

        return run

    @staticmethod
    def _target(tc: TypeContext, k: int, s: int):
        def run():
            m, _ = probe.random_regular_target(tc.basis, tc.rs, k, s)
            return True, {"seed": s, "target": [float(v) for v in m]}

        return run

    def gate(self, records: list[dict]) -> list[str]:
        problems = []
        results: dict[str, list[dict]] = {}
        for r in records:
            results.setdefault(r["label"], []).append(r["result"])
        for name, c in EXPECTED_C.items():
            if name not in self.det_types:
                continue
            got = [res.get("c") for res in results.get(f"certify:det:{name}", [])]
            if not got or any(v != c for v in got):
                problems.append(f"c({name}) = {got}, expected exactly {c}")
        for name in self.group_types:
            degrees = coxeter.coxeter_type(name).degrees
            got = [res.get("order") for res in results.get(f"certify:group:{name}", [])]
            want = EXPECTED_ORDER[name]
            if want != math.prod(degrees) or not got or any(v != want for v in got):
                problems.append(f"|{name}| = {got}, expected {want} = prod{degrees}")
        for name in self.rank_types:
            prefix = f"certify:rank:{name}:"
            faces = [label for label in results if label.startswith(prefix)]
            degenerate = sorted({res["stratum"] for label in faces for res in results[label]
                                 if res.get("leading_degenerate")})
            if not faces or degenerate != EXPECTED_DEGENERATE[name]:
                problems.append(f"{name}: degenerate faces {degenerate}, "
                                f"expected {EXPECTED_DEGENERATE[name]}")
        return problems


WORKLOADS = {w.name: w for w in (Fiber, Whitney, Certify)}
