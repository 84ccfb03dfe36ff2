"""The package imports nothing outside the Python standard library."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "qcs_sim"


def test_package_imports_only_the_standard_library():
    """Every absolute import in src/qcs_sim names a stdlib module at its
    top level; relative imports stay inside the package."""
    seen = set()
    for path in sorted(SRC.glob("*.py")):
        for stmt in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(stmt, ast.Import):
                names = [alias.name for alias in stmt.names]
            elif isinstance(stmt, ast.ImportFrom) and stmt.level == 0:
                names = [stmt.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                assert top in sys.stdlib_module_names, (path.name, name)
                seen.add(top)
    assert {"math", "random", "struct"} <= seen  # the walk found the imports


def _module_level_imports(tree: ast.Module):
    """The import statements a module runs at load, if-blocks included."""
    stack = list(tree.body)
    while stack:
        stmt = stack.pop()
        if isinstance(stmt, (ast.Import, ast.ImportFrom)):
            yield stmt
        elif isinstance(stmt, ast.If):
            stack.extend(stmt.body + stmt.orelse)


def test_package_modules_use_every_import():
    """Each module-level import in src/qcs_sim binds a name its module
    reads.  __future__ features are exempt, and so is __init__.py, whose
    imports are the package's public names."""
    unused = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for stmt in _module_level_imports(tree):
            if isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__":
                continue
            for alias in stmt.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in read:
                    unused.append((path.name, name))
    assert unused == []
