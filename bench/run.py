"""Benchmark of the chevalley verification toolkit.

    python3 bench/run.py --workload {fiber,whitney,certify} --seed N \
        --seconds S --trace {0,1} [--tiny]

Run from the root of a source checkout.  One run:

1. sets the workload up from scratch at least three times, and until two
   seconds of set-up have passed, and keeps the median as `setup_s`;
2. runs the workload's items one after another (one client, closed loop)
   for round(--seconds / the workload's nominal cycle time) whole cycles,
   and reports throughput, item-time percentiles and peak memory.  Every
   time is scaled to nominal machine speed by `speed.SpeedProbe`;
3. checks the workload's correctness gate over every item;
4. with `--trace 1`, installs the layer spans, sets up once more and replays
   the last cycle traced, then reports the per-layer metrics instead of the
   end-to-end ones.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  Full results, with every
item's verdict and the spans of a traced run, go to `bench/out/`.  See
bench/README.md for the metric definitions.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
# set-up runs at least this often and until this much set-up time has passed
SETUP_MIN_REPEATS = 3
SETUP_MIN_SECONDS = 2.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=["fiber", "whitney", "certify"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="shrink every item (smoke test only; figures are not comparable)")
    return ap.parse_args(argv)


def run_items(items, records, cycle, probe, tracer=None) -> None:
    """Run one cycle's items in order, timing each against the speed probe."""
    for pos, item in enumerate(items):
        item_id = f"{cycle}.{pos}"
        if tracer is not None:
            tracer.item = item_id
        probe.sample_if_due()
        t0 = time.perf_counter()
        try:
            passed, result = item.run()
        except Exception as exc:  # a raising item is a failed item; the run goes on
            passed = False
            result = {"error": type(exc).__name__, "message": str(exc)}
            tb = traceback.format_exc()
        else:
            tb = None
        records.append({"id": item_id, "label": item.label, "start": t0,
                        "end": time.perf_counter(), "peak_rss_mb": peak_rss_mb(),
                        "passed": bool(passed), "result": result,
                        **({"traceback": tb} if tb else {})})


def scale_times(records, probe) -> float:
    """Set each record's `seconds` (nominal) and `wall_s`; returns their sum."""
    probe.sample()
    for r in records:
        r["wall_s"] = r["end"] - r["start"]
        r["seconds"] = probe.scaled(r["start"], r["end"])
    return sum(r["seconds"] for r in records)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def payload_digest(records) -> str:
    """sha256 of the items' verdicts and results, timings stripped."""
    body = [{k: r[k] for k in ("id", "label", "passed", "result")} for r in records]
    return hashlib.sha256(json.dumps(body, sort_keys=True, default=float).encode()).hexdigest()


def tail(times):
    """Highest percentile of item time with at least ten items beyond it."""
    ts = sorted(times)
    n = len(ts)
    idx = n - 11 if n > 10 else n - 1
    return ts[idx], 100.0 * (idx + 1) / n, n - 1 - idx


def git_sha():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    target = ROOT / ".git" / ref[5:]
    if target.is_file():
        return target.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def environment():
    import numpy
    import scipy

    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "chevalley").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            src.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_sha": git_sha(),
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "chevalley" / "__init__.py").is_file():
        print(f"bench: no package source under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    # One BLAS/OpenMP thread: steadier timings, and never more than nproc.
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH_DIR))
    from speed import NOMINAL_S, SpeedProbe
    from workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wl = WORKLOADS[args.workload](tiny=args.tiny)
    out_dir = BENCH_DIR / "out"
    out_dir.mkdir(exist_ok=True)

    probe = SpeedProbe()
    setup_spans = []
    while (len(setup_spans) < SETUP_MIN_REPEATS
           or sum(b - a for a, b in setup_spans) < SETUP_MIN_SECONDS):
        probe.sample()
        t0 = time.perf_counter()
        ctx = wl.setup()
        setup_spans.append((t0, time.perf_counter()))
    probe.sample()
    setup_times = [probe.scaled(a, b) for a, b in setup_spans]

    records = []
    # A fixed number of whole cycles, sized to take --seconds at nominal speed,
    # so every run of one commit does the same amount of work per seed.
    planned = max(1, round(args.seconds / wl.cycle_s))
    cycles = 0
    t_start = time.perf_counter()
    # on a host running at less than half the nominal speed, stop early
    while cycles < planned and (not cycles or time.perf_counter() - t_start < 2 * args.seconds):
        run_items(wl.cycle(ctx, args.seed, cycles), records, cycles, probe)
        cycles += 1
    wall = time.perf_counter() - t_start
    busy = scale_times(records, probe)

    times = [r["seconds"] for r in records]
    failed = sum(not r["passed"] for r in records)
    tail_s, tail_pct, tail_beyond = tail(times)
    end_to_end = {
        "items_per_s": len(records) / busy,
        "item_p50_s": statistics.median(times),
        "item_tail_s": tail_s,
        "fail_frac": failed / len(records),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": peak_rss_mb(),
    }
    problems = wl.gate(records)
    details = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "tiny": args.tiny, "cycles": cycles, "planned_cycles": planned, "wall_s": wall,
        "busy_s": busy,
        "setup_runs_s": setup_times, "setup_runs_wall_s": [b - a for a, b in setup_spans],
        "kernel_s": {"nominal": NOMINAL_S, "median": statistics.median(probe.kernel),
                     "samples": len(probe.kernel)},
        "item_tail": {"percentile": tail_pct, "items": len(times), "beyond": tail_beyond},
        "payload_sha256": payload_digest([r for r in records if r["id"].startswith("0.")]),
        "failed_items": [f"{r['id']} {r['label']}: "
                         + (r["result"].get("error", "verdict fail")) for r in records
                         if not r["passed"]],
        "gate_problems": problems,
        "environment": environment(),
    }

    if args.trace:
        from tracing import Tracer

        last = cycles - 1
        tracer = Tracer()
        tracer.install()
        try:
            traced_ctx = wl.setup()
            traced_records = []
            run_items(wl.cycle(traced_ctx, args.seed, last), traced_records, last, probe, tracer)
        finally:
            tracer.uninstall()
        replay = [r for r in records if r["id"].startswith(f"{last}.")]
        if payload_digest(traced_records) != payload_digest(replay):
            problems.append("traced replay of the last cycle changed its results")
        traced_s = scale_times(traced_records, probe)
        layers = tracer.layer_totals(probe.scaled)
        layers["trace"] = {"overhead_frac": traced_s / sum(r["seconds"] for r in replay) - 1.0}
        wanted = spec["per_layer"]
        values = {}
        for m in wanted:
            layer, field = m["name"].rsplit(".", 1)
            values[m["name"]] = layers[layer].get(field, 0)
        details["traced_cycle"] = last
        with open(out_dir / f"{args.workload}-seed{args.seed}-spans.jsonl", "w") as fh:
            for s in tracer.spans:
                fh.write(json.dumps(s.to_dict()) + "\n")
    else:
        wanted = spec["end_to_end"]
        values = end_to_end

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(f"bench {args.workload} seed={args.seed}: {len(records)} items in {cycles} "
          f"cycles over {wall:.2f} s wall ({busy:.2f} nominal s busy); {failed} failed; gate "
          + ("passed" if not problems else f"FAILED: {problems}"))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    units["fail_frac"] = "ratio"
    for name, value in end_to_end.items():
        note = (f" (p{tail_pct:.1f} of {len(times)} items, {tail_beyond} beyond)"
                if name == "item_tail_s" else "")
        print(f"  {name:<16} {value:.6g} {units[name]}{note}")
    if args.trace:
        for name, metric in metrics.items():
            print(f"  {name:<44} {metric['value']:.6g} {metric['unit']}")

    details["end_to_end"] = end_to_end
    details["records"] = records
    out = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(details, indent=1, default=float))
    print("details " + json.dumps({k: v for k, v in details.items() if k != "records"},
                                  default=float))
    print(json.dumps({"correct": not problems, "attempted": len(records), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
