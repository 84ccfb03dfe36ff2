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
