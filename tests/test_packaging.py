"""The packaging metadata covers what the tests need."""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_test_imports_are_declared():
    # every third-party module imported under tests/ is numpy (the runtime
    # dependency) or is listed in the test extra
    tomllib = pytest.importorskip("tomllib")
    meta = tomllib.loads((ROOT / "pyproject.toml").read_text())
    declared = {re.match(r"[A-Za-z0-9_.-]+", req).group().lower().replace("-", "_")
                for req in meta["project"]["optional-dependencies"]["test"]}
    local = {p.stem for p in (ROOT / "tests").glob("*.py")} | {"bigres"}
    imported = set()
    for path in (ROOT / "tests").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    third_party = imported - set(sys.stdlib_module_names) - local - {"numpy"}
    assert third_party <= declared, sorted(third_party - declared)
