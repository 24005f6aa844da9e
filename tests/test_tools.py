"""The offline scripts under tools/, which no runtime module imports."""

import ast
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

from chevalley.cli import _build_parser
from chevalley.coxeter import coxeter_type

TOOLS = Path(__file__).parent.parent / "tools"
DATA_DIR = Path(__file__).parent.parent / "src" / "chevalley" / "data"


def _load(path: Path):
    """Load a script as a module without running its main()."""
    spec = importlib.util.spec_from_file_location(path.stem, path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


@pytest.mark.parametrize("path", sorted(TOOLS.glob("*.py")), ids=lambda p: p.name)
def test_tool_imports(path):
    """The script loads without running main(), and every package name it
    imports, including inside its functions, still exists."""
    assert callable(_load(path).main)
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("chevalley"):
            owner = importlib.import_module(node.module)
            for alias in node.names:
                assert hasattr(owner, alias.name), f"{node.module}.{alias.name}"


def test_averaged_data_files_rebuild_byte_identical(tmp_path):
    """The offline job rebuilds the shipped H3 and F4 files byte for byte,
    twice, under two string-hash seeds, so the construction is deterministic.
    H4 takes too long to rebuild here; its shipped file is covered by its
    content hash and by test_h4_loads_from_package_data."""
    for hash_seed in ("0", "1"):
        out = tmp_path / hash_seed
        subprocess.run(
            [sys.executable, str(TOOLS / "build_h4_invariants.py"),
             "--types", "H3", "F4", "--out", str(out)],
            check=True, capture_output=True, env={**os.environ, "PYTHONHASHSEED": hash_seed},
        )
        for name in ("H3", "F4"):
            assert (out / f"{name}.json").read_bytes() == (DATA_DIR / f"{name}.json").read_bytes()


def test_report_table_parses():
    """Every row of the report table is a command line the CLI accepts, on a
    type it supports, with no run."""
    reports = _load(TOOLS / "reports.py")
    assert len({name for name, _, _ in reports.REPORTS}) == len(reports.REPORTS)
    for name, argv, expect in reports.REPORTS:
        args = _build_parser().parse_args([*argv, "--format", "csv"])
        coxeter_type(args.type_spec)
        assert expect in range(5), name


@pytest.mark.parametrize("expect", [0, 1])
def test_report_table_run(expect, monkeypatch, capsys):
    """One row runs under both thread counts: a listing line on stdout, and
    exit 1 naming the row when its exit code is not the table's."""
    reports = _load(TOOLS / "reports.py")
    monkeypatch.setattr(reports, "REPORTS", [("inv", ["invariants", "--type", "B2"], expect)])
    assert reports.main() == expect
    out, err = capsys.readouterr()
    name, code, digest = out.split()
    assert (name, code, len(digest)) == ("inv", "0", 64)
    assert err.count("threads=") == 2
    assert ("MISMATCH inv:" in err) == (expect == 1)
