"""Smoke tests for the offline scripts under tools/, which nothing imports."""

import ast
import importlib
import importlib.util
from pathlib import Path

TOOLS = Path(__file__).parent.parent / "tools"


def test_build_h4_invariants_imports():
    """The script loads without running main(), and every package name it
    imports, including inside its functions, still exists."""
    path = TOOLS / "build_h4_invariants.py"
    spec = importlib.util.spec_from_file_location("build_h4_invariants", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    assert callable(mod.main) and callable(mod.build_h4) and callable(mod.verify_h4)
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("chevalley"):
            owner = importlib.import_module(node.module)
            for alias in node.names:
                assert hasattr(owner, alias.name), f"{node.module}.{alias.name}"
