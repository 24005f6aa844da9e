#!/usr/bin/env python3
"""Run each CSV report of REPORTS under one and two BLAS threads, from the
checkout this file sits in: one line per report on stdout (name, exit code,
sha256 of its CSV and pair CSV), peak RSS and wall time on stderr.  Exits 1,
naming each row whose two runs differ in bytes or whose exit is not the table's."""

import hashlib
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
PAIRS = "pairs.csv"  # written in each run's own directory

# (name, chevalley argv, expected exit code); `--format csv` is appended
REPORTS = [
    ("all:B2", ["all", "--type", "B2", "--seed", "1"], 0),
    # a / h is inf: the mesh budget is compared before the axis is built, so
    # whitney is unsupported rather than an OverflowError that takes `all` down
    ("all:B2:h-tiny", ["all", "--type", "B2", "--seed", "1", "--h", "1e-320"], 2),
    # its fine-mesh sweep (92 sources x 190 064 stored edges) crosses FORK_MIN_WORK
    ("all:B3", ["all", "--type", "B3", "--seed", "1", "--pairs-out", PAIRS], 0),  # = whitney's
    ("all:H3", ["all", "--type", "H3", "--seed", "1"], 0),  # exact det over Q(sqrt5)
    ("all:A4", ["all", "--type", "A4", "--seed", "1"], 2),  # whitney unsupported
    ("all:F4", ["all", "--type", "F4", "--seed", "1"], 2),  # whitney unsupported
    ("all:D4", ["all", "--type", "D4", "--seed", "1"], 1),  # morse:k=1 anomaly
    ("all:D5", ["all", "--type", "D5", "--seed", "1"], 1),  # morse anomalies
    ("all:D6", ["all", "--type", "D6", "--seed", "1"], 1),  # morse anomalies
    # a float value depends on its own row only; det-vanishing-locus fails on
    # float noise (ROADMAP item 6), whitney unsupported
    ("all:H4", ["all", "--type", "H4", "--seed", "1"], 1),
    ("all:H3:seed0", ["all", "--type", "H3", "--seed", "0"], 1),  # fiber:k=2 curve split
    ("morse:D5", ["morse", "--type", "D5", "--seed", "1"], 1),  # each Newton row stops alone
    ("morse:H4:seed2", ["morse", "--type", "H4", "--seed", "2"], 1),  # misses a k=3 point
    ("whitney:G2", ["whitney", "--type", "G2", "--seed", "1"], 0),
    ("whitney:I2:7", ["whitney", "--type", "I2:7", "--seed", "1"], 0),
    ("verify-jacobian:F4", ["verify-jacobian", "--type", "F4"], 0),  # an exceptional det
    # the degree-30 data file, invariant by exact substitution
    ("invariants:H4", ["invariants", "--type", "H4"], 0),
    ("invariants:D6", ["invariants", "--type", "D6"], 0),  # the largest classical closures
    ("invariants:A6", ["invariants", "--type", "A6"], 0),
    # the largest face set, tied degrees and one degenerate face
    ("verify-statement:D6", ["verify-statement", "--type", "D6", "--seed", "1"], 0),
    # a face's batch of 100 samples spans three evaluator chunks of H4's J
    ("verify-statement:H4", ["verify-statement", "--type", "H4", "--seed", "1"], 0),
    # a false anomaly of check (a), ROADMAP item 6: d5:w0's leading minor reads 3.99e-10
    ("verify-statement:D6:seed28", ["verify-statement", "--type", "D6", "--seed", "28"], 1),
    ("fiber:A4", ["fiber", "--type", "A4", "--seed", "1"], 0),  # polish batches of 16 rows
    ("fiber:A1", ["fiber", "--type", "A1"], 0),  # the rank-1 fiber runs its check
]


def _run(name, argv, threads):
    """Exit code and digests of one child run in its own directory, bounded at 300 s."""
    env = {**os.environ, "OPENBLAS_NUM_THREADS": str(threads),
           "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    t0 = time.monotonic()
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        with open(tmp / "report.csv", "wb") as out:
            child = subprocess.Popen(["timeout", "300", sys.executable, "-m", "chevalley.cli",
                                      *argv, "--format", "csv"], cwd=tmp, env=env, stdout=out)
        _, status, usage = os.wait4(child.pid, 0)  # peak RSS of the run and its workers
        child.returncode = os.waitstatus_to_exitcode(status)
        print(f"{name} threads={threads} peak_rss={usage.ru_maxrss / 1024:.1f} MiB "
              f"wall={time.monotonic() - t0:.2f} s", file=sys.stderr)
        files = [tmp / "report.csv"] + [tmp / PAIRS] * (PAIRS in argv)
        return child.returncode, [hashlib.sha256(f.read_bytes()).hexdigest() for f in files]


def main() -> int:
    bad = []
    for name, argv, expect in REPORTS:
        runs = [_run(name, argv, threads) for threads in (1, 2)]
        print(name, runs[0][0], *runs[0][1], flush=True)
        if runs[0][1] != runs[1][1] or any(code != expect for code, _ in runs):
            bad.append(f"{name}: table exit {expect}, runs (exit, digests) {runs}")
    for line in bad:
        print("MISMATCH", line, file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
