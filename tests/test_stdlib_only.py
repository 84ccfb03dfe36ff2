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


def test_engine_imports_no_logging():
    """The simulation writes no text: engine.py imports no logging
    module anywhere, so the DEBUG log can only be rendered from the
    record."""
    imported = set()
    for stmt in ast.walk(ast.parse((SRC / "engine.py").read_text(encoding="utf-8"))):
        if isinstance(stmt, ast.Import):
            imported |= {alias.name.split(".")[0] for alias in stmt.names}
        elif isinstance(stmt, ast.ImportFrom) and stmt.level == 0:
            imported.add(stmt.module.split(".")[0])
    assert "math" in imported  # the walk found the imports
    assert "logging" not in imported


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


#: the trees whose code may use the package's public names
_READERS = (SRC, SRC.parent.parent / "demos", SRC.parent.parent / "perfbench")


def _public_definitions(tree: ast.Module):
    """The public module-level functions, classes and constants of a
    module, and the public methods of its classes."""
    names = []
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            names.append(stmt.name)
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
        if isinstance(stmt, ast.ClassDef):
            names += [f.name for f in stmt.body if isinstance(f, ast.FunctionDef)]
    return [name for name in names if not name.startswith("_")]


def _names_read(tree: ast.AST) -> set[str]:
    """Every name a tree reads: a Name loaded, an attribute, an import
    alias, or a string constant that is an identifier (a name looked up
    with getattr or patched by name)."""
    read = set()
    for n in ast.walk(tree):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            read.add(n.id)
        elif isinstance(n, ast.Attribute):
            read.add(n.attr)
        elif isinstance(n, ast.alias):
            read.add(n.name.split(".")[-1])
        elif isinstance(n, ast.Constant) and isinstance(n.value, str) and n.value.isidentifier():
            read.add(n.value)
    return read


def test_every_public_name_has_a_caller_besides_its_tests():
    """Each public function, class, constant and method of src/qcs_sim
    is read somewhere in the package (not its __init__.py), the demos
    or the benchmark: no public helper whose only caller is its test."""
    read, defined = set(), []
    for root in _READERS:
        for path in sorted(root.glob("*.py")):
            if path.parent == SRC and path.name == "__init__.py":
                continue
            tree = ast.parse(path.read_text(encoding="utf-8"))
            read |= _names_read(tree)
            if root == SRC:
                defined += [(path.name, name) for name in _public_definitions(tree)]
    assert len(defined) > 50  # the walk found the definitions
    assert [(file, name) for file, name in defined if name not in read] == []


#: the one place each record class is built, by (class, function): a
#: ledger row in the EnergyLedger.entries view of the ledger's cells, a
#: broadcast's event in Simulation._broadcast and a point packet's event
#: in Simulation._event
_BUILDERS = {
    "LedgerEntry": {("EnergyLedger", "entries")},
    "PacketEvent": {("Simulation", "_broadcast"), ("Simulation", "_event")},
}


def _scoped_nodes(node: ast.AST, cls: str = "", fn: str = ""):
    """Every node below node, with the names of its enclosing class and
    function ("" where there is none)."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ClassDef):
            scope = child.name, fn
        elif isinstance(child, ast.FunctionDef):
            scope = cls, child.name
        else:
            scope = cls, fn
        yield (child, *scope)
        yield from _scoped_nodes(child, *scope)


def _record_builds(tree: ast.Module) -> list[tuple[str, str, str]]:
    """(record class, enclosing class, enclosing function) of every call
    that builds a record class by name: ``C(...)``, ``C._make(...)`` or
    ``tuple.__new__(C, ...)`` under any alias."""
    found = []
    for node, cls, fn in _scoped_nodes(tree):
        if isinstance(node, ast.Call):
            func = node.func
            named = [func.value if isinstance(func, ast.Attribute) else func]
            named += node.args[:1]
            found.extend((n.id, cls, fn) for n in named
                         if isinstance(n, ast.Name) and n.id in _BUILDERS)
    return found


def test_ledger_rows_and_packet_events_are_built_in_one_place_each():
    """No plane bills or records a transmission with its own copy of the
    ledger's row or the trace's PacketEvent."""
    builders = {name: set() for name in _BUILDERS}
    for path in sorted(SRC.glob("*.py")):
        for name, cls, fn in _record_builds(ast.parse(path.read_text(encoding="utf-8"))):
            builders[name].add((cls, fn))
    assert builders == _BUILDERS


#: the list methods that change a list in place
_LIST_WRITES = {"append", "extend", "insert", "pop", "remove", "clear", "sort", "reverse"}


def _cells_writes(tree: ast.Module) -> list[tuple[str, str, ast.AST]]:
    """(enclosing class, enclosing function, node) of every write to a
    ledger's cells, reached as ``X.cells`` or through a name bound to it
    in the same function: a list method looked up on them, or an
    assignment, augmented assignment or del that targets them or one of
    their items."""
    scoped = list(_scoped_nodes(tree))
    aliases = {(cls, fn, t.id) for node, cls, fn in scoped if isinstance(node, ast.Assign)
               and isinstance(node.value, ast.Attribute) and node.value.attr == "cells"
               for t in node.targets if isinstance(t, ast.Name)}

    def is_cells(node, cls, fn):
        return ((isinstance(node, ast.Attribute) and node.attr == "cells")
                or (isinstance(node, ast.Name) and (cls, fn, node.id) in aliases))

    writes = []
    for node, cls, fn in scoped:
        if isinstance(node, ast.Attribute) and node.attr in _LIST_WRITES:
            targets = [node.value]
        elif isinstance(node, ast.AugAssign):
            targets = [node.target]
        elif isinstance(node, (ast.Assign, ast.Delete)):
            targets = [t for t in node.targets if not isinstance(t, ast.Name)]
        else:
            continue
        targets = [t.value if isinstance(t, ast.Subscript) else t for t in targets]
        if any(is_cells(t, cls, fn) for t in targets):
            writes.append((cls, fn, node))
    return writes


def test_ledger_cells_have_one_row_layout():
    """Only EnergyLedger.debit and Simulation._broadcast write a ledger's
    cells, each by extending them with one row: a tuple of one value per
    LedgerEntry field, in column order."""
    from qcs_sim.energy import LedgerEntry

    sites, rows = set(), []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        parents = {id(child): node for node in ast.walk(tree)
                   for child in ast.iter_child_nodes(node)}
        for cls, fn, node in _cells_writes(tree):
            sites.add((cls, fn))
            call = parents.get(id(node))
            assert (isinstance(node, ast.Attribute) and node.attr == "extend"
                    and isinstance(call, ast.Call) and call.func is node
                    and len(call.args) == 1 and isinstance(call.args[0], ast.Tuple)), (
                path.name, cls, fn, ast.unparse(node))
            rows.append(len(call.args[0].elts))
    assert sites == {("EnergyLedger", "debit"), ("Simulation", "_broadcast")}
    assert rows == [len(LedgerEntry._fields)] * len(rows) and len(rows) >= 3


#: how a line of trace text starts; a generator key such as "init:7"
#: has no space after its colon
_TRACE_LINE_STARTS = ("t=", "init: ", "end: ")


def _trace_text_sites(tree: ast.Module) -> set[tuple[str, str]]:
    """(enclosing class, enclosing function) of every string literal or
    f-string that starts like a line of trace text, leaving out the
    format of a ``log.*(...)`` call, which goes to the log."""
    logged = {
        id(node.args[0]) for node in ast.walk(tree)
        if isinstance(node, ast.Call) and node.args and isinstance(node.func, ast.Attribute)
        and isinstance(node.func.value, ast.Name) and node.func.value.id == "log"
    }
    sites = set()
    for node, cls, fn in _scoped_nodes(tree):
        if id(node) in logged:
            continue
        head = node.values[0] if isinstance(node, ast.JoinedStr) and node.values else node
        if (isinstance(head, ast.Constant) and isinstance(head.value, str)
                and head.value.startswith(_TRACE_LINE_STARTS)):
            sites.add((cls, fn))
    return sites


def test_trace_text_is_written_in_one_place():
    """Every string that starts a line of trace text sits in
    metrics.render_trace or in a module-level line table of metrics.py:
    the simulation records typed facts and no other code formats them."""
    places = set()
    for path in sorted(SRC.glob("*.py")):
        places |= {(path.name, *site)
                   for site in _trace_text_sites(ast.parse(path.read_text(encoding="utf-8")))}
    assert places - {("metrics.py", "", "")} == {("metrics.py", "", "render_trace")}


#: the package modules that each module must not import: the record and
#: the reports never reach the simulation or the command line, and the
#: record never reaches the reports or the number formatter
_NOT_IMPORTED = {"record.py": {"engine", "cli", "metrics", "numtext"},
                 "metrics.py": {"engine", "cli"}}


def _package_imports(tree: ast.Module) -> set[str]:
    """The package modules a module imports anywhere in its code, by name,
    whether relative (``from .engine import X``, ``from . import engine``)
    or absolute (``qcs_sim.engine``)."""
    names = []
    for stmt in ast.walk(tree):
        if isinstance(stmt, ast.Import):
            names += [alias.name for alias in stmt.names]
        elif isinstance(stmt, ast.ImportFrom):
            base = ".".join(filter(None, ("qcs_sim" if stmt.level else "", stmt.module)))
            names += [f"{base}.{alias.name}" for alias in stmt.names]
    return {name.split(".")[1] for name in names if name.startswith("qcs_sim.")}


def test_the_record_and_the_reports_do_not_import_the_simulator():
    """The dependencies run one way: record <- engine, record <- metrics,
    and cli -> engine, metrics."""
    for name, banned in _NOT_IMPORTED.items():
        imported = _package_imports(ast.parse((SRC / name).read_text(encoding="utf-8")))
        assert "energy" in imported  # the walk found the module's imports
        assert not imported & banned, (name, imported & banned)
