"""The offline scripts under tools/, which no runtime module imports."""

import ast
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

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
