"""Static check: every module-level import in the package is used.

Deleting code tends to leave its imports behind, and the project runs no
linter. Package ``__init__.py`` files are checked too: they re-export
nothing, so every name is imported from the module that defines it. A name
used only inside a quoted annotation counts as unused; the package imports
``annotations`` from ``__future__``, so annotations need no quotes.
"""
import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "guidedboost"
MODULES = sorted(PACKAGE.rglob("*.py"))


def _bound_names(node: ast.Import | ast.ImportFrom) -> list[str]:
    if isinstance(node, ast.ImportFrom) and node.module == "__future__":
        return []
    # `import a.b` binds `a`; `import a.b as c` and `from a import b as c` bind `c`
    return [alias.asname or alias.name.split(".")[0] for alias in node.names]


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = [
        name
        for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for name in _bound_names(node)
    ]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_checker_flags_only_unused_names():
    source = (
        "from __future__ import annotations\n"
        "import os\nimport numpy as np\nimport a.b\nfrom x import (y, z as w)\n"
        "def f(v: y) -> np.ndarray:\n    return a.b.c\n"
    )
    assert unused_imports(source) == ["os", "w"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(PACKAGE)))
def test_module_imports_are_used(path):
    assert unused_imports(path.read_text()) == []
