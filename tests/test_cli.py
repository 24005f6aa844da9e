"""Command-line orchestration: suites, reports, exit codes, determinism."""

import contextlib
import csv
import dataclasses
import importlib
import io
import json
import math
import os
import re
import time
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chevalley import regularity
from chevalley.coxeter import coxeter_type
from chevalley.cli import (
    EXPLAIN,
    RunConfig,
    SuiteReport,
    emit_report,
    main,
    run_suite,
)
from chevalley.errors import UsageError

FAST_B2 = dict(type_spec="B2", seed=1, samples=40, pairs=400, n_points=300,
               radius=1.0, pitch=0.05)


@pytest.fixture(scope="module")
def b2_report():
    return run_suite(RunConfig(command="all", **FAST_B2))


def test_full_b2_suite_passes(b2_report):
    assert b2_report.all_passed
    names = [c["name"] for c in b2_report.checks]
    assert "det-factorization" in names and "whitney-ratio" in names


def test_b2_report_contains_factorization_constant(b2_report):
    fac = next(c for c in b2_report.checks if c["name"] == "det-factorization")
    assert fac["metrics"]["c"] == 4.0


def test_emit_formats_round_trip(b2_report):
    blob = emit_report(b2_report, "json")
    doc = json.loads(blob)
    assert doc["schema_version"] == 1
    assert doc["all_passed"] is True
    # round trip through the parsed form reproduces the checks
    rep2 = SuiteReport(b2_report.config, checks=doc["checks"],
                       runtime_s=doc["runtime_s"])
    assert json.loads(emit_report(rep2, "json"))["checks"] == doc["checks"]
    text = emit_report(b2_report, "text").decode()
    assert "ALL PASSED" in text
    csv_blob = emit_report(b2_report, "csv").decode()
    assert csv_blob.splitlines()[0] == "check,status,metrics"


def test_empty_report_is_valid():
    rep = SuiteReport(RunConfig())
    doc = json.loads(emit_report(rep, "json"))
    assert doc["checks"] == [] and doc["all_passed"] is True


def test_determinism_excluding_runtime():
    a = run_suite(RunConfig(command="verify-jacobian", **FAST_B2))
    b = run_suite(RunConfig(command="verify-jacobian", **FAST_B2))
    da, db = a.to_dict(), b.to_dict()
    da.pop("runtime_s"), db.pop("runtime_s")
    assert json.dumps(da, default=str) == json.dumps(db, default=str)


def test_invalid_type_exits_2(capsys):
    assert main(["all", "--type", "E8"]) == 2
    assert "error" in capsys.readouterr().err


def test_usage_error_for_bad_config():
    with pytest.raises(UsageError):
        RunConfig(tol_zero=-1.0).validate()
    with pytest.raises(UsageError):
        run_suite(RunConfig(command="nonsense"))


def test_tampered_cache_exits_3(tmp_path, capsys):
    data = Path(__file__).parent.parent / "src" / "chevalley" / "data" / "H3.json"
    doc = json.loads(data.read_text())
    doc["polys"][1]["terms"][0]["a"] = "31337/1"
    (tmp_path / "H3.json").write_text(json.dumps(doc))
    code = main(["invariants", "--type", "H3", "--cache-dir", str(tmp_path)])
    assert code == 3
    assert "hash" in capsys.readouterr().err


def test_malformed_cache_exits_3(malformed_h3, capsys):
    code = main(["invariants", "--type", "H3", "--cache-dir", str(malformed_h3.parent)])
    assert code == 3
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1


def test_explain_covers_every_command(capsys):
    for name in ("invariants", "verify-jacobian", "verify-statement",
                 "morse", "fiber", "whitney", "all"):
        assert main([name, "--explain"]) == 0
        out = capsys.readouterr().out
        assert out.strip() == EXPLAIN[name]
    # each claim is distinct and nonempty
    texts = [EXPLAIN[k] for k in EXPLAIN]
    assert all(texts) and len(set(texts)) == len(texts)


def test_cli_all_b2_exit_zero(tmp_path, capsys):
    code = main([
        "all", "--type", "B2", "--seed", "1", "--samples", "40",
        "--pairs", "400", "--n", "300", "--a", "1.0", "--h", "0.05",
        "--format", "text",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "ALL PASSED" in out


def test_cli_writes_report_and_converts(tmp_path, capsys):
    out = tmp_path / "rep.json"
    code = main([
        "verify-jacobian", "--type", "B2", "--seed", "2", "--tol", "1e-8", "--out", str(out),
    ])
    assert code == 0 and out.exists()
    code = main(["report", "--in", str(out), "--format", "text"])
    assert code == 0
    assert "det-factorization" in capsys.readouterr().out
    # re-emitted as stored: the provenance (config_hash, version) is kept
    assert main(["report", "--in", str(out), "--format", "json"]) == 0
    assert capsys.readouterr().out.encode() == out.read_bytes()


@pytest.mark.parametrize("argv", [
    ["verify-jacobian", "--type", "B2", "--out", "{missing}/r.json"],
    ["all", "--type", "B2", "--out", "{dir}"],
    ["whitney", "--type", "B2", "--h", "0.1", "--pairs", "200",
     "--pairs-out", "{missing}/x.csv"],
    ["invariants", "--type", "B2", "--out", "{file}/sub"],
], ids=["report-in-missing-dir", "report-onto-dir", "pairs-in-missing-dir",
        "basis-under-file"])
def test_unwritable_output_is_a_usage_error(tmp_path, argv, monkeypatch):
    """An output path that cannot be written is a one-line usage error; the
    report is opened before the suites run, and the pair table before the
    Whitney sweeps."""
    def not_run(*args, **kwargs):
        raise AssertionError("the work ran before its output was opened")

    if "--pairs-out" in argv:
        monkeypatch.setattr("chevalley.cli.whitney_study", not_run)
    elif argv[0] != "invariants":
        monkeypatch.setattr("chevalley.cli.run_suite", not_run)
    (tmp_path / "file").write_text("")
    paths = {"missing": tmp_path / "missing", "dir": tmp_path, "file": tmp_path / "file"}
    code, out, err = _run_main([a.format(**paths) for a in argv])
    assert code == 2 and not out
    assert err.startswith("error: ") and len(err.strip().splitlines()) == 1


def test_cli_fiber_and_morse_commands(capsys):
    assert main(["morse", "--type", "B2", "--k", "1", "--m", "1.0"]) == 0
    capsys.readouterr()
    assert main(["fiber", "--type", "B3", "--k", "2", "--seed", "3",
                 "--n", "400"]) == 0
    doc = json.loads(capsys.readouterr().out)
    fib = next(c for c in doc["checks"] if c["name"].startswith("fiber"))
    assert fib["metrics"]["components"] == 1


def test_morse_needs_both_extremes_on_a_compact_fiber(capsys):
    """The B2 fiber |x|^2 = m is a circle, so p_2 has a minimum and a
    maximum on it; a run that finds only one of them fails."""
    assert main(["morse", "--type", "B2", "--k", "1", "--m", "1"]) == 0
    capsys.readouterr()
    assert main(["morse", "--type", "B2", "--k", "1", "--m", "1e10"]) == 1
    doc = json.loads(capsys.readouterr().out)
    check = next(c for c in doc["checks"] if c["name"] == "morse:k=1")
    assert check["status"] == "fail" and check["metrics"]["n_critical"] < 2


def test_h4_jacobian_determinant_is_a_capability_error(capsys):
    """The exact degree-30 determinant is out of reach: exit 2, promptly."""
    t0 = time.monotonic()
    assert main(["verify-jacobian", "--type", "H4"]) == 2
    assert time.monotonic() - t0 < 20
    err = capsys.readouterr().err
    assert "Coxeter number" in err and len(err.strip().splitlines()) == 1


def test_all_records_unsupported_suites_and_exits_2(capsys):
    """Under `all` a capability gap of one suite is one `unsupported` check;
    every other suite still runs and reports what it reports on its own."""
    assert main(["all", "--type", "H4"]) == 2
    checks = json.loads(capsys.readouterr().out)["checks"]
    unsupported = {c["name"]: c["metrics"]["message"]
                   for c in checks if c["status"] == "unsupported"}
    assert sorted(unsupported) == ["verify-jacobian", "whitney"]
    assert "Coxeter number" in unsupported["verify-jacobian"]
    assert "point budget" in unsupported["whitney"]
    single = []
    for command in ("invariants", "verify-statement", "morse", "fiber"):
        rep = run_suite(RunConfig(type_spec="H4", command=command))
        single += json.loads(emit_report(rep))["checks"]
    assert [c for c in checks if c["status"] != "unsupported"] == single
    # a single-suite command keeps its one-line capability error
    assert main(["whitney", "--type", "H4"]) == 2
    err = capsys.readouterr().err
    assert "point budget" in err and len(err.strip().splitlines()) == 1


def test_exit_code_ranks_failures_over_unsupported():
    rep = SuiteReport(RunConfig())
    assert rep.exit_code == 0
    rep.add("a", "pass")
    rep.add("b", "unsupported", message="x")
    assert rep.exit_code == 2
    assert emit_report(rep, "text").decode().endswith("UNSUPPORTED CHECKS PRESENT\n")
    rep.add("c", "anomaly")
    assert rep.exit_code == 1
    assert emit_report(rep, "text").decode().endswith("FAILURES PRESENT\n")


@pytest.mark.parametrize("argv", [
    ["invariants", "--type", "-x"],
    ["invariants", "--type", "B2", "--no-such-flag"],
])
def test_argparse_error_exits_2_with_one_line(capsys, argv):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.strip().splitlines()) == 1


def test_config_file_with_flag_override(tmp_path, capsys):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"type_spec": "B2", "seed": 5, "samples": 30}))
    code = main(["verify-jacobian", "--config", str(cfgfile), "--seed", "9"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["provenance"]["seed"] == 9
    assert doc["provenance"]["type"] == "B2"


def test_flag_equal_to_its_default_overrides_config(tmp_path, capsys):
    """A flag given on the command line wins over the config file even when
    its value is the flag's default; a flag not given leaves the file's."""
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"seed": 5, "samples": 20}))
    argv = ["verify-statement", "--type", "B2", "--config", str(cfgfile)]
    assert main([*argv, "--seed", "1", "--samples", "100"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["provenance"]["seed"] == 1
    assert {c["metrics"]["samples"] for c in doc["checks"][:-1]} == {100}
    assert main([*argv, "--seed", "1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["provenance"]["seed"] == 1
    assert {c["metrics"]["samples"] for c in doc["checks"][:-1]} == {20}


def test_invariants_out_writes_cache(tmp_path, capsys):
    code = main(["invariants", "--type", "B3", "--out", str(tmp_path)])
    assert code == 0
    capsys.readouterr()
    assert (tmp_path / "B3.json").exists()
    from chevalley.invariants import load_basis
    from chevalley.coxeter import coxeter_type

    b = load_basis(tmp_path / "B3.json", coxeter_type("B3"))
    assert b.degrees == (2, 4, 6)


def test_convergence_error_maps_to_exit_4(monkeypatch, capsys):
    import chevalley.cli as cli
    from chevalley.errors import ConvergenceError

    def boom(cfg):
        raise ConvergenceError("solver stalled")

    monkeypatch.setattr(cli, "run_suite", boom)
    assert cli.main(["fiber", "--type", "B2"]) == 4
    assert "stalled" in capsys.readouterr().err


def test_config_file_with_unknown_key_exits_2(tmp_path, capsys):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"type_spec": "B2", "sedd": 5}))
    assert main(["verify-jacobian", "--config", str(cfgfile)]) == 2
    err = capsys.readouterr().err
    assert "sedd" in err and len(err.strip().splitlines()) == 1
    cfgfile.write_text(json.dumps([1, 2]))
    assert main(["verify-jacobian", "--config", str(cfgfile)]) == 2
    assert "object" in capsys.readouterr().err


def test_report_on_non_json_file_exits_2(tmp_path, capsys):
    bad = tmp_path / "rep.json"
    bad.write_text("not json {")
    assert main(["report", "--in", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "JSONDecodeError" in err and len(err.strip().splitlines()) == 1


def test_report_on_missing_file_exits_2(tmp_path, capsys):
    assert main(["report", "--in", str(tmp_path / "absent.json")]) == 2
    err = capsys.readouterr().err
    assert "FileNotFoundError" in err and len(err.strip().splitlines()) == 1


def test_report_without_provenance_exits_2(tmp_path, capsys):
    bad = tmp_path / "rep.json"
    bad.write_text("{}")
    assert main(["report", "--in", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "provenance" in err and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("cfg, field", [
    ({"tol_zero": "x"}, "tol_zero"),
    ({"seed": "x"}, "seed"),
    ({"pairs": 1.5}, "pairs"),
    ({"seed": -1}, "seed"),
    ({"radius": float("nan")}, "radius"),
])
def test_config_value_of_wrong_type_or_range_exits_2(tmp_path, capsys, cfg, field):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps(cfg))
    assert main(["invariants", "--type", "A2", "--config", str(cfgfile)]) == 2
    err = capsys.readouterr().err
    assert field in err and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("argv, needle", [
    (["morse", "--k", "-1"], "k in 1..1"),
    (["morse", "--k", "0"], "k in 1..1"),
    (["morse", "--k", "2"], "k in 1..1"),
    (["fiber", "--k", "0"], "k in 1..2"),
    (["fiber", "--k", "-1"], "k in 1..2"),
    (["all", "--k", "2"], "k in 1..1"),
    (["morse", "--m", "1"], "needs k"),
    (["fiber", "--m", "1"], "needs k"),
    (["morse", "--k", "1", "--m", "1", "2"], "2 values"),
    (["morse", "--m", "nan"], "needs k"),
    (["morse", "--k", "1", "--m", "nan"], "finite"),
    (["fiber", "--k", "1", "--m", "inf"], "finite"),
])
def test_bad_k_or_target_exits_2(capsys, argv, needle):
    assert main([*argv, "--type", "B2", "--n", "50"]) == 2
    err = capsys.readouterr().err
    assert needle in err and len(err.strip().splitlines()) == 1


def test_config_int_for_float_field_is_accepted(tmp_path, capsys):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"radius": 2, "target": [1, 0.5], "k": None}))
    assert main(["invariants", "--type", "A2", "--config", str(cfgfile)]) == 0


_FIELDS = [f.name for f in dataclasses.fields(RunConfig)]
_PATH_FIELDS = ("cache_dir", "out", "pairs_out")
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=6)
    | st.sampled_from(["A2", "B2", "json", "csv", "text", 0, 1, 2 ** 64, 0.5]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=2),
    max_leaves=4,
)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli-fuzz")


@settings(max_examples=200, deadline=2000, derandomize=True)
@given(
    known=st.dictionaries(st.sampled_from(_FIELDS), _JSON, max_size=6),
    unknown=st.dictionaries(st.text(max_size=6).filter(lambda k: k not in _FIELDS),
                            _JSON, max_size=2),
    path_names=st.lists(st.text(alphabet="abc", min_size=1, max_size=3),
                        min_size=3, max_size=3),
)
def test_config_exit_codes_property(fuzz_dir, known, unknown, path_names):
    """Any JSON object as --config: main returns an exit code in 0-4 and
    raises nothing; a usage error is one line.  String paths are kept inside
    a scratch directory."""
    for name, leaf in zip(_PATH_FIELDS, path_names):
        if isinstance(known.get(name), str):
            known[name] = str(fuzz_dir / leaf)
    cfgfile = fuzz_dir / "cfg.json"
    cfgfile.write_text(json.dumps({**known, **unknown}))
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()) as err:
        code = main(["invariants", "--type", "A2", "--config", str(cfgfile)])
    assert isinstance(code, int) and 0 <= code <= 4
    if unknown or code == 2:
        assert code == 2 and len(err.getvalue().strip().splitlines()) == 1


def _argv_float(v: float) -> str:
    """A float as a command-line word: positional digits, so that argparse
    takes a negative value for a number rather than an option."""
    return repr(v) if not math.isfinite(v) else np.format_float_positional(v, trim="0")


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    command=st.sampled_from([["morse"], ["fiber", "--n", "50"]]),
    # valid values are rare among all ints, so they are offered on their own
    k=st.none() | st.sampled_from([1, 2]) | st.integers(),
    # -inf cannot be written after --m: argparse reads "-inf" as an option
    m=st.lists(st.floats().filter(lambda v: v != -math.inf), max_size=3),
)
def test_k_and_target_exit_codes_property(command, k, m):
    """Any --k and --m on morse and fiber: main returns an exit code in 0-4
    and raises nothing; a usage error is one line."""
    argv = [*command, "--type", "B2"]
    if k is not None:
        argv += ["--k", str(k)]
    if m:
        argv += ["--m", *map(_argv_float, m)]
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()) as err:
        code = main(argv)
    assert isinstance(code, int) and 0 <= code <= 4
    if code == 2:
        assert len(err.getvalue().strip().splitlines()) == 1


def test_huge_newton_step_raises_no_warning():
    """B2 k=1 at m = -4.4e151: the Newton steps are too long to square, so
    their rows stop as failed without an overflow warning, and the run
    exits 1 as it does with warnings shown."""
    argv = ["morse", "--type", "B2", "--k", "1", "--m=-4.429815943521092e+151"]
    with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        warnings.simplefilter("error")
        assert main(argv) == 1


_SUPPORTED_TYPES = (["A1"] + [f"A{n}" for n in range(2, 7)]
                    + [f"B{n}" for n in range(1, 5)] + [f"D{n}" for n in range(2, 7)]
                    + [f"I2:{p}" for p in range(3, 13)] + ["G2", "H3", "H4", "F4"])
_NEAR_MISS_TYPES = ["A0", "D1", "I2:2", "I2:", "H2", "B12", "A\u00b2", "I2:\u0663"]


@pytest.mark.parametrize("spec", _NEAR_MISS_TYPES)
def test_near_miss_type_exits_2(capsys, spec):
    assert main(["invariants", "--type", spec]) == 2
    assert len(capsys.readouterr().err.strip().splitlines()) == 1


@settings(max_examples=100, deadline=None, derandomize=True)
@given(spec=st.sampled_from(_SUPPORTED_TYPES) | st.sampled_from(_NEAR_MISS_TYPES)
       | st.text(max_size=6))
def test_type_exit_codes_property(spec):
    """Any --type on invariants: main returns an exit code in 0-4 and raises
    nothing; a usage error is one line."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()) as err:
        code = main(["invariants", "--type", spec])
    assert isinstance(code, int) and 0 <= code <= 4
    if code == 2:
        assert len(err.getvalue().strip().splitlines()) == 1


@pytest.fixture(scope="module")
def invariants_paths(tmp_path_factory):
    """Cache and output paths for generated `invariants` argv: an empty
    directory, a missing one, a plain file, a path under that file and a
    directory holding a tampered H3 cache."""
    root = tmp_path_factory.mktemp("invariants-argv")
    (root / "empty").mkdir()
    (root / "file").write_text("")
    data = Path(__file__).parent.parent / "src" / "chevalley" / "data" / "H3.json"
    doc = json.loads(data.read_text())
    doc["polys"][1]["terms"][0]["a"] = "31337/1"
    (root / "tampered").mkdir()
    (root / "tampered" / "H3.json").write_text(json.dumps(doc))
    return {name: str(root / name)
            for name in ("empty", "missing", "file", "file/sub", "tampered")}


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    spec=st.sampled_from(["A2", "B3", "D4", "I2:5", "G2", "H3"])
    | st.sampled_from(_NEAR_MISS_TYPES) | st.text(max_size=4),
    seed=st.none() | st.integers(-1, 2 ** 64) | st.text(max_size=3),
    fmt=st.none() | st.sampled_from(["json", "csv", "text"]) | st.text(max_size=4),
    cache=st.none() | st.sampled_from(["empty", "missing", "file", "tampered"]),
    out=st.none() | st.sampled_from(["empty", "missing", "file", "file/sub"]),
)
def test_invariants_argv_exit_codes_property(invariants_paths, spec, seed, fmt, cache, out):
    """Generated argv for `invariants`: main exits 0, 2 or 3, raises nothing
    (so prints no traceback) and writes at most one line to stderr."""
    argv = ["invariants", f"--type={spec}"]
    for flag, value in (("--seed", seed), ("--format", fmt)):
        if value is not None:
            argv.append(f"{flag}={value}")
    for flag, name in (("--cache-dir", cache), ("--out", out)):
        if name is not None:
            argv += [flag, invariants_paths[name]]
    code, _, err = _run_main(argv)
    assert code in (0, 2, 3)
    assert len(err.strip().splitlines()) <= 1 and "Traceback" not in err


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    command=st.sampled_from(["verify-statement", "verify-jacobian"]),
    spec=st.sampled_from(["A2", "B2", "G2", "I2:7", "A3", "B3", "H3"]),
    samples=st.integers(1, 40),
    seed=st.integers(0, 2 ** 64 - 1),
)
def test_verify_commands_report_property(command, spec, samples, seed):
    """verify-statement and verify-jacobian on small types, any sample count
    and seed: the exit code is in 0-4, stdout is a JSON report of this run,
    and every status is pass, fail, anomaly or unsupported, in line with the
    exit code."""
    argv = [command, "--type", spec, "--samples", str(samples), "--seed", str(seed)]
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = main(argv)
    assert isinstance(code, int) and 0 <= code <= 4
    doc = json.loads(out.getvalue())
    assert doc["provenance"]["type"] == spec and doc["provenance"]["seed"] == seed
    statuses = {c["status"] for c in doc["checks"]}
    assert doc["checks"] and statuses <= {"pass", "fail", "anomaly", "unsupported"}
    assert (code == 0) == (statuses == {"pass"}) == doc["all_passed"]


def _run_main(argv):
    with contextlib.redirect_stdout(io.StringIO()) as out, \
            contextlib.redirect_stderr(io.StringIO()) as err:
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _without_runtime(run):
    code, out, err = run
    return code, re.sub(r'"runtime_s": [^,}\n]*', "", out), err


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    spec=st.sampled_from(["A2", "B2", "G2", "I2:5", "I2:7", "A3", "B3", "H3"]),
    a=st.floats(0.25, 2.0),
    # a / h: coarse pitches, the first above a/4
    cells=st.sampled_from([3.5, 4, 8, 10]),
    pairs=st.integers(1, 3000),
    seed=st.integers(0, 2 ** 64 - 1),
)
def test_whitney_report_property(spec, a, cells, pairs, seed):
    """whitney on small types, any radius, coarse pitch, pair count and seed:
    the exit code is in 0-4; a pitch above a/4 is a one-line usage error;
    otherwise stdout is a JSON report whose exit code is 0 exactly when every
    check passes.  Splitting every Dijkstra sweep over forked workers leaves
    the report byte-identical apart from runtime_s, and no child behind."""
    argv = ["whitney", "--type", spec, "--a", repr(a), "--h", repr(a / cells),
            "--pairs", str(pairs), "--seed", str(seed)]
    code, out, err = _run_main(argv)
    with mock.patch.object(regularity, "FORK_MIN_WORK", 0), \
            mock.patch.object(os, "sched_getaffinity", return_value={0, 1}):
        split = _run_main(argv)
    assert _without_runtime(split) == _without_runtime((code, out, err))
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert isinstance(code, int) and 0 <= code <= 4
    if cells < 4:
        assert code == 2 and "h <= a/4" in err
    if code == 2:
        assert not out and len(err.strip().splitlines()) == 1
        return
    doc = json.loads(out)
    assert doc["provenance"]["type"] == spec and doc["provenance"]["seed"] == seed
    statuses = {c["status"] for c in doc["checks"]}
    assert doc["checks"] and statuses <= {"pass", "fail", "anomaly", "unsupported"}
    assert (code == 0) == (statuses == {"pass"}) == doc["all_passed"]


def _this_runs_report(code, out, err, cfg: RunConfig) -> dict | None:
    """The run's outcome under the exit-code contract: an error (exit 2-4)
    is one line on stderr and nothing on stdout; otherwise stdout is the JSON
    report of cfg, and all_passed and the exit code agree with its statuses.
    The report, or None after an error."""
    assert isinstance(code, int) and 0 <= code <= 4
    if not out:
        assert code >= 2 and len(err.strip().splitlines()) == 1
        return None
    doc = json.loads(out)
    prov = doc["provenance"]
    assert (prov["type"], prov["command"], prov["seed"], prov["config_hash"]) == (
        cfg.type_spec, cfg.command, cfg.seed, cfg.content_hash())
    statuses = {c["status"] for c in doc["checks"]}
    assert statuses <= {"pass", "fail", "anomaly", "unsupported"}
    assert doc["all_passed"] == (statuses <= {"pass"})
    assert code == (0 if doc["all_passed"] else 2 if statuses - {"pass"} == {"unsupported"}
                    else 1)
    return doc


_SMALL_TYPES = ["A1", "B1", "A2", "B2", "G2", "I2:5", "I2:7", "B3", "H3"]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    spec=st.sampled_from(_SMALL_TYPES),
    n=st.integers(1, 300),
    k=st.none() | st.integers(-1, 4),
    seed=st.integers(0, 2 ** 64 - 1),
)
def test_fiber_n_report_property(spec, n, k, seed):
    """fiber on small types, any point count in 1..300, any k and seed: a k
    outside 1..rank is a one-line usage error; otherwise stdout is this run's
    report, one check per k."""
    argv = ["fiber", "--type", spec, "--n", str(n), "--seed", str(seed)]
    if k is not None:
        argv += ["--k", str(k)]
    code, out, err = _run_main(argv)
    cfg = RunConfig(type_spec=spec, command="fiber", seed=seed, n_points=n, k=k)
    doc = _this_runs_report(code, out, err, cfg)
    rank = coxeter_type(spec).dim
    if k is not None and not 1 <= k <= rank:
        assert code == 2 and "needs k in" in err
        return
    # by default k runs over 1..rank-1, and over k = 1 on rank 1
    ks = [k] if k is not None else range(1, max(rank, 2))
    assert [c["name"] for c in doc["checks"]] == [f"fiber:k={j}" for j in ks]


@settings(max_examples=25, deadline=None, derandomize=True)
@given(spec=st.sampled_from(_SMALL_TYPES), seed=st.integers(0, 2 ** 64 - 1))
def test_all_report_property(spec, seed):
    """all on small types and any seed: stdout is this run's report, and its
    checks cover every suite."""
    code, out, err = _run_main(["all", "--type", spec, "--seed", str(seed)])
    doc = _this_runs_report(code, out, err, RunConfig(type_spec=spec, seed=seed))
    names = {c["name"] for c in doc["checks"]}
    assert {"degree-table", "det-factorization", "det-vanishing-locus",
            "stratum-rank-summary", "whitney-ratio"} <= names


@pytest.mark.parametrize("spec", ["A1", "B1"])
def test_rank_one_morse_is_unsupported(spec, capsys):
    """morse needs 1 <= k < n, so on rank 1 it is a capability error; under
    `all` it is recorded as unsupported while fiber checks its one fiber."""
    assert main(["morse", "--type", spec]) == 2
    assert "rank 1" in capsys.readouterr().err
    assert main(["all", "--type", spec]) == 2
    statuses = {c["name"]: c["status"] for c in json.loads(capsys.readouterr().out)["checks"]}
    assert statuses["morse"] == "unsupported" and statuses["fiber:k=1"] == "pass"


def test_console_script_resolves_to_cli_main():
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10, where pytest depends on tomli
        import tomli as tomllib
    meta = tomllib.loads((Path(__file__).resolve().parents[1] / "pyproject.toml").read_text())
    module, _, attr = meta["project"]["scripts"]["chevalley"].partition(":")
    assert getattr(importlib.import_module(module), attr) is main


def test_whitney_pairs_out_csv(tmp_path, capsys):
    pairs = tmp_path / "pairs.csv"
    code = main(["whitney", "--type", "B2", "--a", "1", "--h", "0.05",
                 "--pairs", "1000", "--seed", "11", "--pairs-out", str(pairs)])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    study = next(c for c in doc["checks"] if c["name"] == "whitney-ratio")
    with open(pairs, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["source", "target", "euclid", "geodesic", "ratio"]
    assert len(rows) - 1 == study["metrics"]["n_pairs"] == 467
    for _, _, euclid, geodesic, ratio in rows[1:]:
        assert float(ratio) == float(geodesic) / float(euclid)
        assert float(ratio) >= 1 - 1e-6


@pytest.mark.parametrize("spec, pitch", [("G2", "0.125"), ("H3", "0.25")])
def test_all_records_whitney_without_admitted_pairs_as_unsupported(spec, pitch):
    """A pitch too coarse for any pair to exceed the graph's image resolution
    is a capability gap: `whitney` alone exits 2 with a one-line hint at the
    flags, and `all` records it as `unsupported` and reports every other
    suite."""
    argv = ["--type", spec, "--a", "1", "--h", pitch, "--pairs", "3000"]
    code, out, err = _run_main(["whitney", *argv])
    assert code == 2 and not out
    assert "--h" in err and "--pairs" in err and len(err.strip().splitlines()) == 1
    code, out, err = _run_main(["all", *argv])
    checks = json.loads(out)["checks"]
    assert code == 2 and not err
    unsupported = [c for c in checks if c["status"] == "unsupported"]
    assert [c["name"] for c in unsupported] == ["whitney"]
    assert "image resolution" in unsupported[0]["metrics"]["message"]
    names = {c["name"] for c in checks}
    assert {"degree-table", "det-factorization", "stratum-rank-summary",
            "morse:k=1", "fiber:k=1"} <= names
    assert all(c["status"] == "pass" for c in checks if c not in unsupported)


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=4), kids,
                                                             max_size=3),
    max_leaves=6,
)
_REPORTS = st.fixed_dictionaries({
    "schema_version": st.just(1),
    "provenance": st.fixed_dictionaries({
        "type": st.sampled_from(_SUPPORTED_TYPES),
        "command": st.sampled_from(sorted(EXPLAIN)),
        "seed": st.integers(0, 2 ** 64 - 1),
        "version": st.just("0.1.0"),
        "config_hash": st.text("0123456789abcdef", min_size=16, max_size=16),
    }),
    "checks": st.lists(st.fixed_dictionaries({
        "name": st.text(max_size=12),
        "status": st.sampled_from(["pass", "fail", "anomaly", "unsupported"]),
        "metrics": st.dictionaries(st.text(max_size=6), _JSON, max_size=3),
    }), max_size=4),
    "runtime_s": st.floats(0, 1e3),
}).map(lambda doc: {**doc, "all_passed": all(c["status"] == "pass" for c in doc["checks"])})


def _stored(doc) -> bytes:
    return (json.dumps(doc, indent=1) + "\n").encode()


@st.composite
def _malformed_reports(draw) -> bytes:
    """Bytes that open an object and mostly are no JSON, JSON that is no
    object, or a report with one required key deleted or given a value of
    the wrong type, or with an `all_passed` other than its checks' verdict."""
    kind = draw(st.sampled_from(["no-json", "no-object", "missing", "wrong-type",
                                 "mismatched"]))
    if kind == "no-json":
        return b"{" + draw(st.binary(max_size=12))
    if kind == "no-object":
        return _stored(draw(_JSON.filter(lambda v: not isinstance(v, dict))))
    doc = draw(_REPORTS)
    if kind == "mismatched":
        verdict = doc["all_passed"]
        doc["all_passed"] = draw(st.just(not verdict) | _JSON.filter(lambda v: v is not verdict))
        return _stored(doc)
    if kind == "missing":
        owners = ([(doc, "provenance"), (doc, "checks")]
                  + [(doc["provenance"], key) for key in ("type", "command", "seed")]
                  + [(c, key) for c in doc["checks"] for key in ("name", "status", "metrics")])
        owner, key = draw(st.sampled_from(owners))
        del owner[key]
        return _stored(doc)
    # the types every format relies on
    slots = ([(doc, "provenance", dict), (doc, "checks", list)]
             + [(doc["checks"], i, dict) for i in range(len(doc["checks"]))]
             + [(c, "status", str) for c in doc["checks"]])
    owner, key, required = draw(st.sampled_from(slots))
    owner[key] = draw(_JSON.filter(lambda v: not isinstance(v, required)))
    return _stored(doc)


@settings(max_examples=50, deadline=None, derandomize=True)
@given(doc=_REPORTS, bad=_malformed_reports())
def test_report_in_property(tmp_path_factory, doc, bad):
    """A stored report re-emits byte for byte as JSON and converts to csv
    and text with exit 0; a malformed file exits 2 with one `error:` line
    and no traceback."""
    path = tmp_path_factory.mktemp("report") / "r.json"
    path.write_bytes(_stored(doc))
    assert _run_main(["report", "--in", str(path), "--format", "json"]) == (
        0, _stored(doc).decode(), "")
    for fmt in ("csv", "text"):
        assert _run_main(["report", "--in", str(path), "--format", fmt])[0] == 0
    path.write_bytes(bad)
    for fmt in ("json", "csv", "text"):
        code, out, err = _run_main(["report", "--in", str(path), "--format", fmt])
        assert code == 2 and not out
        assert err.startswith("error: ") and len(err.splitlines()) == 1
