"""Layer spans for the benchmark, recorded from outside the package.

While a `Tracer` is installed, each public entry point listed in `LAYERS`
is replaced by a wrapper that records one span per call: name, start, end,
parent span and the item being verified, plus the work counts that layer
reports (rows evaluated, points, vertices, ...).  `uninstall` puts the
original objects back, so the untraced phase of a run calls the package
exactly as a user would.

Functions are patched in every `chevalley` module that holds a reference to
them (the package imports them by name across modules); methods are
patched on their class.
"""

from __future__ import annotations

import inspect
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from chevalley import coxeter, invariants, jacobian, poly, probe, regularity


def _rows(args, kwargs, result):
    # bound method call: args = (self, X, ...)
    shape = np.shape(args[1] if len(args) > 1 else kwargs["X"])
    return {"rows": int(np.prod(shape[:-1]))}


def _sample_points(args, kwargs, result):
    return {"points": len(result.points)}


def _connectivity_points(args, kwargs, result):
    fs = args[0] if args else kwargs["fs"]
    return {"points": len(fs.points)}


def _found(args, kwargs, result):
    return {"found": len(result)}


def _vertices(args, kwargs, result):
    return {"vertices": result.size}


def _edges(args, kwargs, result):
    return {"edges": len(result.mesh.edges)}


def _sources(args, kwargs, result):
    return {"sources": int(np.size(kwargs.get("indices", 0)))}


_STUDY_SIG = inspect.signature(regularity.whitney_study)


def _admitted(args, kwargs, result):
    bound = _STUDY_SIG.bind(*args, **kwargs)
    bound.apply_defaults()
    return {"admitted": result.n_pairs, "requested": bound.arguments["pairs"]}


# (span name, owner module or class, attribute, counter or None)
LAYERS = [
    ("invariants.basic_invariants", invariants, "basic_invariants", None),
    ("invariants.P", invariants.CompiledBasis, "P", _rows),
    ("invariants.J", invariants.CompiledBasis, "J", _rows),
    ("invariants.hessians", invariants.CompiledBasis, "hessians", _rows),
    ("coxeter.build_root_system", coxeter, "build_root_system", None),
    ("coxeter.enumerate_strata", coxeter, "enumerate_strata", None),
    ("coxeter.to_chamber", coxeter.RootSystem, "to_chamber", None),
    ("coxeter.generate_group", coxeter, "generate_group", None),
    ("poly.PolyMatrix.det", poly.PolyMatrix, "det", None),
    ("jacobian.verify_det_factorization", jacobian, "verify_det_factorization", None),
    ("jacobian.verify_stratum_rank", jacobian, "verify_stratum_rank", None),
    ("jacobian.det_vanishing_calibration", jacobian, "det_vanishing_calibration", None),
    ("probe.random_regular_target", probe, "random_regular_target", None),
    ("probe.sample_fiber", probe, "sample_fiber", _sample_points),
    ("probe.fiber_connectivity", probe, "fiber_connectivity", _connectivity_points),
    ("probe.critical_points", probe, "critical_points", _found),
    ("regularity.build_chamber_mesh", regularity, "build_chamber_mesh", _vertices),
    ("regularity.build_image_graph", regularity, "build_image_graph", _edges),
    # the scipy routine as bound inside regularity, not scipy itself
    ("regularity.dijkstra", regularity, "dijkstra", _sources),
    ("regularity.whitney_study", regularity, "whitney_study", _admitted),
    ("regularity.envelope_functions", regularity, "envelope_functions", None),
]


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    item: str
    start: float = 0.0
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"id": self.id, "name": self.name, "parent": self.parent,
                "item": self.item, "start": self.start, "end": self.end, **self.counts}


class Tracer:
    """In-memory span collector; `item` tags the spans of the current item."""

    def __init__(self):
        self.spans: list[Span] = []
        self.item = "setup"
        self._stack: list[Span] = []
        self._patches: list[tuple[object, str, object]] = []

    def _call(self, name, fn, counter, args, kwargs):
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), name, parent.id if parent else None, self.item)
        self.spans.append(span)
        self._stack.append(span)
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
        if counter is not None:
            span.counts = counter(args, kwargs, result)
        return result

    def _wrap(self, name, fn, counter):
        def traced(*args, **kwargs):
            return self._call(name, fn, counter, args, kwargs)

        return traced

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == "chevalley" or key.startswith("chevalley."))]
        for name, owner, attr, counter in LAYERS:
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, counter)
            if inspect.isclass(owner):
                holders = [owner]
            else:
                holders = [m for m in modules if getattr(m, attr, None) is original]
            for holder in holders:
                self._patches.append((holder, attr, original))
                setattr(holder, attr, wrapper)

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._patches):
            setattr(holder, attr, original)
        self._patches.clear()

    def layer_totals(self, scaled) -> dict[str, dict[str, float]]:
        """Per span name: calls, total_s, self_s and the summed counts.

        `scaled(t0, t1)` converts an interval to the run's time unit.  (No
        traced layer calls itself, so durations never overlap within a
        name.)
        """
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name, *_ in LAYERS}
        durations = [scaled(s.start, s.end) for s in self.spans]
        child_s = [0.0] * len(self.spans)
        for s, d in zip(self.spans, durations):
            if s.parent is not None:
                child_s[s.parent] += d
        for s, d, c in zip(self.spans, durations, child_s):
            agg = out[s.name]
            agg["calls"] += 1
            agg["total_s"] += d
            agg["self_s"] += d - c
            for key, value in s.counts.items():
                agg[key] = agg.get(key, 0) + value
        study = out["regularity.whitney_study"]
        requested = study.pop("requested", 0)
        study["admitted_frac"] = study.pop("admitted", 0) / requested if requested else 0.0
        return out
