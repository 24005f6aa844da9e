"""Smoke test of the benchmark at a tiny size.

    python3 -m pytest bench/test_bench.py

Runs every workload shrunk with `--tiny`, checks that each metric named in
BENCHMARK.json (and `fail_frac`) is printed with its unit, and that each
workload's correctness gate runs and rejects a wrong answer.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(workload, trace, cwd=ROOT):
    cmd = SPEC["command"][1:] + ["--workload", workload, "--seed", "3", "--seconds", "0",
                                 "--trace", str(trace), "--tiny"]
    return subprocess.run([sys.executable, *cmd], cwd=cwd, capture_output=True, text=True,
                          timeout=170)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_prints_every_metric_with_unit(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted}
    summary = "\n".join(lines[:-1])
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]} | {"fail_frac": "ratio"}
    for name, unit in units.items():
        assert any(line.split()[:1] == [name] and f" {unit}" in line
                   for line in lines[:-1]), name
    assert "gate passed" in summary
    details = json.loads(next(line for line in lines if line.startswith("details "))[8:])
    assert len(details["payload_sha256"]) == 64
    assert details["environment"]["nproc"] >= 1


def _gate_of(workload):
    sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]
    try:
        from workloads import WORKLOADS as classes
    finally:
        del sys.path[:2]
    return classes[workload](tiny=True).gate


def _record(label, **result):
    return {"id": "0.0", "label": label, "passed": True, "result": result}


def test_gates_reject_wrong_answers():
    fiber = [_record(f"fiber:{n}:k{k}", gaps=[0.01]) for n, k in
             [("B3", 1), ("B3", 2), ("A4", 1), ("A4", 2), ("A4", 3)]]
    gate = _gate_of("fiber")
    assert gate(fiber) == []
    fiber[0]["result"]["gaps"] = [0.2]
    assert gate(fiber)

    good = dict(max_ratio=1.1, p99_ratio=1.05, min_ratio=1.0, refinement_change=0.2)
    whitney = [_record(f"whitney:study:{n}", **good)
               for n in ("B2", "B3", "G2", "I2:7", "H3")]
    gate = _gate_of("whitney")
    assert gate(whitney) == []
    whitney[1]["result"]["min_ratio"] = 0.5
    assert gate(whitney)

    certify = [_record("certify:det:A3", c=6.0), _record("certify:det:B2", c=4.0),
               _record("certify:group:H3", order=120),
               _record("certify:rank:H3:d1:w1,2", stratum="d1:w1,2", leading_degenerate=False)]
    gate = _gate_of("certify")
    assert gate(certify) == []
    certify[0]["result"]["c"] = 5.0
    assert gate(certify)
    assert gate(certify[1:3])  # rank faces missing


def test_fails_without_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench("fiber", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
