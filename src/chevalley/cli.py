"""Command-line orchestration of the verification suites.

Every subcommand runs one family of checks against one group type and emits
a SuiteReport (JSON, CSV or text).  Every random generator is seeded from
the config seed or from a fixed constant (Philox streams in the samplers,
PCG64 in a few numeric checks), so a fixed config reproduces its report
byte for byte (the wall-clock runtime field aside).

Exit codes: 0 all checks passed; 1 a check failed or an anomaly was found;
2 usage or capability error; 3 cache integrity error; 4 convergence error.
Under `all` a suite the type does not support is one `unsupported` check
named after its subcommand, one that raises CheckFailure one `fail` check
(message and witness), and the other suites still run; such a run exits 1
if some check failed or found an anomaly, else 2 if one is unsupported.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import sys
import time
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import __version__
from .coxeter import build_root_system, coxeter_type, enumerate_strata
from .errors import CapabilityError, CheckFailure, ChevalleyError, UsageError
from .invariants import (
    basic_invariants,
    jacobian_det_at_point,
    save_basis,
    verify_invariance,
)
from .jacobian import (
    calibration_passed,
    det_vanishing_calibration,
    verify_det_factorization,
    verify_stratum_rank,
)
from .probe import (
    critical_points,
    fiber_connectivity,
    fiber_value_interval,
    random_regular_target,
    sample_fiber,
)
from .regularity import envelope_functions, whitney_study


SCHEMA_VERSION = 1

EXPLAIN = {
    "invariants": "Constructs a basic invariant system: correct degree table, "
                  "exact invariance under the generators (float, at seeded points, on "
                  "I2(p), p != 4), and a Jacobian determinant exactly nonzero at a fixed "
                  "integer point (algebraic independence). Basic invariants separate "
                  "orbits, so the map is injective on the closed chamber.",
    "verify-jacobian": "The Jacobian determinant of the invariant map equals a "
                       "nonzero constant times the product of the linear forms "
                       "of all reflection hyperplanes, and vanishes exactly on "
                       "their union.",
    "verify-statement": "On every dimension-k face of the fundamental chamber "
                        "the invariant map has rank exactly k. At sampled points "
                        "some k x k minor of the first k rows survives and every "
                        "bordering (k+1) x (k+1) minor vanishes; rank <= k on "
                        "the whole face follows from invariance.",
    "morse": "On a generic fiber of the first k invariants, the next invariant "
             "is a Morse function: its constrained critical points lie on "
             "dimension-k faces, satisfy the multiplier equations, and have a "
             "nondegenerate projected Hessian.",
    "fiber": "Every nonempty fiber of the first k invariants inside the closed "
             "chamber is connected, and the values of the next invariant over "
             "it fill an interval.",
    "whitney": "The image of a closed ball under the invariant map is Whitney "
               "1-regular: the geodesic distance inside the image is bounded by "
               "a constant multiple of the Euclidean distance.",
    "report": "Re-emits a stored suite report in another format.",
    "all": "Runs every verification suite for the type at desk scale.",
}


@dataclass
class RunConfig:
    type_spec: str = "B2"
    command: str = "all"
    seed: int = 1
    radius: float = 1.0
    pitch: float = 0.05
    samples: int = 100
    pairs: int = 2000
    n_points: int = 1000
    k: int | None = None
    target: list[float] | None = None
    cache_dir: str | None = None
    out: str | None = None
    fmt: str = "json"
    pairs_out: str | None = None
    dump_samples: bool = False

    def validate(self):
        for name in ("radius", "pitch"):
            if not 0 < getattr(self, name) < float("inf"):
                raise UsageError(f"config field {name} must be positive and finite")
        for name in ("samples", "pairs", "n_points"):
            if getattr(self, name) <= 0:
                raise UsageError(f"config field {name} must be positive")
        # the counter-based generators take keys below 2**128; derived
        # seeds add small multiples of k to this one
        if not 0 <= self.seed < 2 ** 64:
            raise UsageError("config field seed must be in [0, 2**64)")
        if self.fmt not in ("json", "csv", "text"):
            raise UsageError(f"unknown report format {self.fmt!r}")
        return self

    def content_hash(self) -> str:
        blob = json.dumps(asdict(self), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


@dataclass
class SuiteReport:
    config: RunConfig
    checks: list[dict] = field(default_factory=list)
    runtime_s: float = 0.0

    @property
    def all_passed(self) -> bool:
        return all(c["status"] == "pass" for c in self.checks)

    @property
    def exit_code(self) -> int:
        return _exit_code(self.checks)

    def add(self, name: str, status: str, **metrics):
        self.checks.append({"name": name, "status": status, "metrics": metrics})

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "provenance": {
                "type": self.config.type_spec,
                "command": self.config.command,
                "seed": self.config.seed,
                "version": __version__,
                "config_hash": self.config.content_hash(),
            },
            "checks": self.checks,
            "all_passed": self.all_passed,
            "runtime_s": round(self.runtime_s, 3),
        }


def _exit_code(checks: list[dict]) -> int:
    """0 all passed; 1 a check failed or found an anomaly; 2 every check
    that did not pass is unsupported."""
    statuses = {c["status"] for c in checks} - {"pass"}
    if not statuses:
        return 0
    return 2 if statuses == {"unsupported"} else 1


def emit_report(report: SuiteReport | dict, fmt: str = "json") -> bytes:
    """A report, or a stored report document exactly as it was read."""
    doc = report if isinstance(report, dict) else report.to_dict()
    if fmt == "json":
        return (json.dumps(doc, indent=1, default=_json_default) + "\n").encode()
    if fmt == "csv":
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(["check", "status", "metrics"])
        for c in doc["checks"]:
            w.writerow([c["name"], c["status"],
                        json.dumps(c["metrics"], sort_keys=True, default=_json_default)])
        return buf.getvalue().encode()
    if fmt == "text":
        lines = [
            f"type={doc['provenance']['type']} command={doc['provenance']['command']} "
            f"seed={doc['provenance']['seed']}"
        ]
        for c in doc["checks"]:
            lines.append(f"[{c['status'].upper():7s}] {c['name']}")
        verdict = {0: "ALL PASSED", 1: "FAILURES PRESENT", 2: "UNSUPPORTED CHECKS PRESENT"}
        lines.append(verdict[_exit_code(doc["checks"])])
        return ("\n".join(lines) + "\n").encode()
    raise UsageError(f"unknown report format {fmt!r}")


def _json_default(o):
    if isinstance(o, (np.floating, np.integer)):
        return float(o)
    if isinstance(o, np.ndarray):
        return o.tolist()
    raise TypeError(f"not serializable: {type(o)}")


# ---------------------------------------------------------------------------
# suite pieces
# ---------------------------------------------------------------------------


def _suite_invariants(cfg: RunConfig, rep: SuiteReport, ctx: dict):
    basis, rs = ctx["basis"], ctx["rs"]
    ct = rs.ctype
    ok = basis.degrees == ct.degrees
    rep.add("degree-table", "pass" if ok else "fail",
            degrees=list(basis.degrees), coxeter_number=ct.coxeter_number)
    ok = len(rs.positive_f) == ct.n_positive_roots
    rep.add("root-count", "pass" if ok else "fail",
            roots=len(rs.positive_f), expected=ct.n_positive_roots)
    inv_ok = verify_invariance(basis, rs)
    rep.add("invariance", "pass" if inv_ok else "fail", exact=rs.exact)
    point, det = jacobian_det_at_point(basis)
    rep.add("jacobian-rank", "fail" if det.is_zero() else "pass",
            point=list(point), det_at_point=float(det))

    if cfg.out and cfg.command == "invariants":
        save_basis(basis, Path(cfg.out) / f"{ct.canonical_key}.json")


def _suite_jacobian(cfg: RunConfig, rep: SuiteReport, ctx: dict):
    basis, rs = ctx["basis"], ctx["rs"]
    fac = verify_det_factorization(basis, rs, seed=cfg.seed)
    rep.add("det-factorization", "pass", **fac.to_dict())
    cal = det_vanishing_calibration(basis, rs, n_points=2000, seed=cfg.seed)
    rep.add("det-vanishing-locus", "pass" if calibration_passed(cal) else "fail", **cal)


def _suite_statement(cfg: RunConfig, rep: SuiteReport, ctx: dict):
    basis, rs = ctx["basis"], ctx["rs"]
    strata = [s for s in ctx["strata"] if s.dim >= 1]
    worst = None
    all_ok = True
    for s in strata:
        r = verify_stratum_rank(basis, rs, s, samples=cfg.samples, seed=cfg.seed)
        status = "pass" if r.passed else "anomaly"
        all_ok &= r.passed
        if worst is None or r.max_bordering_minor > worst:
            worst = r.max_bordering_minor
        rep.add(f"stratum-rank:{r.stratum_id}", status, **r.to_dict())
    rep.add("stratum-rank-summary", "pass" if all_ok else "fail",
            strata=len(strata), max_bordering=worst)


def _targets(cfg: RunConfig, ctx: dict, kmax: int, salt: int):
    """(k, m, hint) for cfg.k, else each k in 1..kmax: cfg.target, else a
    regular target drawn with seed cfg.seed + salt * k and its chamber point."""
    for k in [cfg.k] if cfg.k is not None else range(1, kmax + 1):
        if cfg.target is not None:
            yield k, np.asarray(cfg.target, dtype=float), None
        else:
            yield (k, *random_regular_target(ctx["basis"], ctx["rs"], k, cfg.seed + salt * k))


def _suite_morse(cfg: RunConfig, rep: SuiteReport, ctx: dict):
    basis, rs = ctx["basis"], ctx["rs"]
    if basis.nvars == 1:
        raise CapabilityError(f"morse needs 1 <= k < n; {cfg.type_spec} has rank 1")
    for k, m, _ in _targets(cfg, ctx, basis.nvars - 1, 17):
        cps = critical_points(basis, rs, k, m, seed=cfg.seed, strata=ctx["strata"])
        anomalies = [cp for cp in cps if cp.anomaly]
        # a fiber that fixes the degree-2 invariant |x|^2 is compact, so
        # p_{k+1} has a minimum and a maximum on it (the A family's first
        # invariant is linear, and its k = 1 fibers are not)
        need = 2 if 2 in basis.degrees[:k] else 1
        status = "anomaly" if anomalies else ("pass" if len(cps) >= need else "fail")
        extra = {"critical_points": [cp.to_dict() for cp in cps]} if cfg.dump_samples else {}
        rep.add(
            f"morse:k={k}", status,
            k=k, target=[float(v) for v in m], n_critical=len(cps),
            values=[cp.value for cp in cps],
            max_residual=max((cp.residual for cp in cps), default=None),
            max_bordering=max((cp.bordering_minor_max for cp in cps), default=None),
            anomalies=[cp.to_dict() for cp in anomalies],
            **extra,
        )


def _suite_fiber(cfg: RunConfig, rep: SuiteReport, ctx: dict):
    basis, rs = ctx["basis"], ctx["rs"]
    n = basis.nvars
    # k runs over 1..n-1 by default; rank 1 checks its one fiber, k = n = 1
    for k, m, hint in _targets(cfg, ctx, max(n - 1, 1), 29):
        fs = sample_fiber(basis, rs, k, m, n_points=cfg.n_points,
                          seed=cfg.seed, x_hint=hint)
        if fs.empty:
            rep.add(f"fiber:k={k}", "pass", k=k, target=[float(v) for v in m],
                    empty=True)
            continue
        comps = fiber_connectivity(fs)
        lo, hi, gap = fiber_value_interval(fs, basis, k) if k < n else (None, None, None)
        status = "pass" if comps == 1 else "anomaly"
        extra = {"sample": fs.to_dict()} if cfg.dump_samples else {}
        rep.add(f"fiber:k={k}", status, k=k, target=[float(v) for v in m],
                n_points=len(fs.points), components=comps,
                value_interval=[lo, hi], max_rel_gap=gap,
                residual_max=fs.residual_max, **extra)


def _suite_whitney(cfg: RunConfig, rep: SuiteReport, ctx: dict):
    basis, rs = ctx["basis"], ctx["rs"]
    table = [] if cfg.pairs_out else None
    # open the pair table first: an unwritable path fails before the sweeps
    try:
        fh = open(cfg.pairs_out, "w", newline="") if cfg.pairs_out else contextlib.nullcontext()
    except OSError as exc:
        raise UsageError(f"cannot write the pair table: {exc}") from exc
    with fh:
        study = whitney_study(basis, rs, cfg.radius, cfg.pitch,
                              pairs=cfg.pairs, seed=cfg.seed, pair_table=table)
        if cfg.pairs_out:
            csv.writer(fh).writerows([("source", "target", "euclid", "geodesic", "ratio"), *table])
    rep.add("whitney-ratio", "pass" if study.passed else "fail", **study.to_dict())
    # envelopes and the prism containment over the first projection
    if basis.nvars >= 2:
        env = envelope_functions(basis, rs, 1, cfg.radius, h=cfg.pitch)
        ok = env.containment_violations == 0
        rep.add("envelope-containment", "pass" if ok else "fail", **env.to_dict())


# in the order `all` runs them
_SUITES = {
    "invariants": _suite_invariants,
    "verify-jacobian": _suite_jacobian,
    "verify-statement": _suite_statement,
    "morse": _suite_morse,
    "fiber": _suite_fiber,
    "whitney": _suite_whitney,
}


def _check_k_and_target(cfg: RunConfig, n: int):
    """The fiber suite takes k in 1..n, the morse suite (and so `all`) k in
    1..n-1; a target needs k and exactly k finite values.  Other commands
    ignore both."""
    if cfg.command not in ("morse", "fiber", "all"):
        return
    kmax = n if cfg.command == "fiber" else n - 1
    if cfg.k is not None and not 1 <= cfg.k <= kmax:
        raise UsageError(f"{cfg.command} on {cfg.type_spec} needs k in 1..{kmax}, got {cfg.k}")
    if cfg.target is None:
        return
    if cfg.k is None:
        raise UsageError("a target (--m) needs k (--k)")
    if len(cfg.target) != cfg.k:
        raise UsageError(f"target has {len(cfg.target)} values, k is {cfg.k}")
    if not all(abs(v) <= sys.float_info.max for v in cfg.target):
        raise UsageError("target values must be finite")


def run_suite(cfg: RunConfig) -> SuiteReport:
    cfg.validate()
    if cfg.command != "all" and cfg.command not in _SUITES:
        raise UsageError(f"unknown command {cfg.command!r}")
    t0 = time.monotonic()
    rep = SuiteReport(cfg)
    ctype = coxeter_type(cfg.type_spec)
    _check_k_and_target(cfg, ctype.dim)
    basis = basic_invariants(cfg.type_spec, cache_dir=cfg.cache_dir)
    rs = build_root_system(ctype)
    ctx = {"basis": basis, "rs": rs, "strata": enumerate_strata(rs)}
    for name in _SUITES if cfg.command == "all" else [cfg.command]:
        try:
            _SUITES[name](cfg, rep, ctx)
        except (CapabilityError, CheckFailure) as exc:
            if cfg.command != "all":
                raise
            witness = getattr(exc, "witness", None)
            rep.add(name, "fail" if isinstance(exc, CheckFailure) else "unsupported",
                    message=str(exc), **({} if witness is None else {"witness": witness}))
    rep.runtime_s = time.monotonic() - t0
    return rep


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line as a one-line usage error (exit 2)."""

    def error(self, message):
        raise UsageError(message)


def _build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="chevalley",
        description="Verification suites for invariant maps of finite reflection groups.",
    )
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)
    for name in (*_SUITES, "all"):
        # only the flags given reach the namespace; RunConfig holds the defaults
        p = sub.add_parser(name, help=EXPLAIN[name], argument_default=argparse.SUPPRESS)
        p.add_argument("--type", dest="type_spec",
                       help="group type: A3, B2, D6, I2:7, G2, H3, H4, F4")
        p.add_argument("--config", help="JSON config file; flags override it")
        p.add_argument("--seed", type=int)
        p.add_argument("--samples", type=int)
        p.add_argument("--pairs", type=int)
        p.add_argument("--n", type=int, dest="n_points")
        p.add_argument("--k", type=int)
        p.add_argument("--m", type=float, nargs="+", dest="target")
        p.add_argument("--a", type=float, dest="radius")
        p.add_argument("--h", type=float, dest="pitch")
        p.add_argument("--cache-dir", dest="cache_dir")
        p.add_argument("--out", help="write the report (or cache) here")
        p.add_argument("--format", dest="fmt", choices=("json", "csv", "text"))
        p.add_argument("--pairs-out", dest="pairs_out",
                       help="whitney: write a per-pair CSV (euclid, geodesic, ratio)")
        p.add_argument("--dump-samples", action="store_true", dest="dump_samples",
                       help="fiber/morse: embed full sample and critical-point dumps")
        p.add_argument("--explain", action="store_true",
                       help="print the claim this command checks and exit")
    p = sub.add_parser("report", help=EXPLAIN["report"])
    p.add_argument("--in", dest="infile", required=False)
    p.add_argument("--format", default="text", dest="fmt",
                   choices=("json", "csv", "text"))
    p.add_argument("--explain", action="store_true")
    return ap


def _fits_annotation(val, annotation: str) -> bool:
    """Whether a JSON config value fits a RunConfig field annotation such as
    "int", "float", "str | None" or "list[float] | None".  JSON numbers with
    a fraction never fit an int field, and booleans fit only bool fields."""
    kind, _, rest = annotation.partition(" | ")
    if val is None:
        return rest == "None"
    if kind == "list[float]":
        return isinstance(val, list) and all(_fits_annotation(v, "float") for v in val)
    if isinstance(val, bool):
        return kind == "bool"
    return isinstance(val, {"int": int, "float": (int, float), "str": str}.get(kind, ()))


def _config_from_args(args) -> RunConfig:
    base = {}
    if getattr(args, "config", None):
        try:
            base = json.loads(Path(args.config).read_text())
        except (OSError, ValueError) as exc:
            raise UsageError(f"cannot read config file: {exc}") from exc
        if not isinstance(base, dict):
            raise UsageError("config file must hold a JSON object")
        unknown = sorted(set(base) - {f.name for f in fields(RunConfig)})
        if unknown:
            raise UsageError(f"unknown config field(s): {', '.join(map(repr, unknown))}")
        for f in fields(RunConfig):
            if f.name in base and not _fits_annotation(base[f.name], f.type):
                raise UsageError(f"config field {f.name} must be {f.type}, "
                                 f"got {json.dumps(base[f.name])}")
    names = {f.name for f in fields(RunConfig)}
    given = {k: v for k, v in vars(args).items() if k in names}
    return RunConfig(**{**base, **given}).validate()


def _read_report(path: str) -> dict:
    """A stored report document as stored, once it holds what every format
    reads: the provenance's type, command and seed, and a list of checks,
    and any `all_passed` it holds agrees with those checks."""
    try:
        doc = json.loads(Path(path).read_text())
        prov, checks = doc["provenance"], doc["checks"]
        if not (isinstance(prov, dict) and {"type", "command", "seed"} <= prov.keys()):
            raise ValueError("provenance needs a type, a command and a seed")
        if not isinstance(checks, list) or not all(
                isinstance(c, dict) and isinstance(c.get("status"), str)
                and {"name", "metrics"} <= c.keys() for c in checks):
            raise ValueError("checks must be a list, each with a name, a status and metrics")
        if "all_passed" in doc and doc["all_passed"] is not all(
                c["status"] == "pass" for c in checks):
            raise ValueError("all_passed must be true exactly when every check passes")
        return doc
    except (OSError, ValueError, LookupError, TypeError) as exc:
        raise UsageError(
            f"cannot read suite report {path}: {type(exc).__name__}: {exc}"
        ) from exc


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        if getattr(args, "explain", False):
            print(EXPLAIN[args.command])
            return 0
        if args.command == "report":
            if not args.infile:
                raise UsageError("report needs --in <suite-report.json>")
            sys.stdout.write(emit_report(_read_report(args.infile), args.fmt).decode())
            return 0
        cfg = _config_from_args(args)
        to_file = cfg.out and cfg.command != "invariants"
        # open the report first: an unwritable path fails before the suites
        try:
            fh = open(cfg.out, "wb") if to_file else contextlib.nullcontext()
        except OSError as exc:
            raise UsageError(f"cannot write the report: {exc}") from exc
        with fh:
            rep = run_suite(cfg)
            payload = emit_report(rep, cfg.fmt)
            if to_file:
                fh.write(payload)
            else:
                sys.stdout.write(payload.decode())
        return rep.exit_code
    except ChevalleyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
