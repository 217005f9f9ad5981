"""Every name a package module imports is used in that module.

`__init__.py` is left out: it imports names to export them. An import
that only a deleted function read would otherwise outlive it unnoticed.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "levelalg"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


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
