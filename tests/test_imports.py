"""Tests that every module can be imported first and imports at the top."""

from __future__ import annotations

import ast
import subprocess
import sys
from pathlib import Path

import pytest

import boxi

PACKAGE_DIR = Path(boxi.__file__).parent
MODULES = sorted(path.stem for path in PACKAGE_DIR.glob("*.py") if path.stem != "__init__")

# The package's __init__ would import every module in its own order, so the
# package is stood up empty and the module under test is the first one loaded.
_IMPORT_FIRST = """
import importlib, sys, types
package = types.ModuleType("boxi")
package.__path__ = [{directory!r}]
sys.modules["boxi"] = package
importlib.import_module("boxi.{module}")
"""


@pytest.mark.parametrize("module", MODULES)
def test_each_module_imports_first_in_a_fresh_interpreter(module):
    code = _IMPORT_FIRST.format(directory=str(PACKAGE_DIR), module=module)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("module", MODULES)
def test_no_function_imports_a_module(module):
    tree = ast.parse((PACKAGE_DIR / f"{module}.py").read_text(encoding="utf-8"))
    nested = [f"{func.name}:{node.lineno}"
              for func in ast.walk(tree)
              if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
              for node in ast.walk(func) if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert nested == []
