"""Every name a package module imports is used in that module, the
package root imports nothing, and the command line imports no private
name.

An import that only a deleted function read would otherwise outlive it
unnoticed. `__init__.py` holds only `__version__`: each name is imported
from its submodule, so a submodule loads only what it needs.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "levelalg"
MODULES = sorted(PACKAGE.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """The names bound by the imports of `source` that no expression reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {n}: {name}" for name, n in imported.items() if name not in used]


def test_the_check_sees_plain_dotted_aliased_and_annotation_uses():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import numpy as np\n"
        "from math import comb, gcd\n"
        "from typing import Sequence\n"
        "def f(x: Sequence) -> int:\n"
        "    return os.path.sep, np.zeros(comb(3, 2))\n"
    )
    assert unused_imports(source) == ["line 4: gcd"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_imports_a_name_it_never_uses(path):
    assert unused_imports(path.read_text()) == []


def test_the_root_loads_no_module_a_submodule_does_not_need():
    # combinatorics and fields need no numpy; a root re-exporting the
    # package would load every module, numpy included
    code = (
        "import sys, levelalg.combinatorics, levelalg.fields\n"
        "print('numpy' in sys.modules, levelalg.__version__)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout.split()
    assert out[0] == "False"
    assert out[1]


def test_the_cli_imports_no_private_name():
    # the command line runs on the modules' public functions alone
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    names = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    ]
    assert names and [n for n in names if n.split(".")[-1].startswith("_")] == []
