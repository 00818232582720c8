"""Checks on the package source itself."""

import ast
import importlib
from pathlib import Path

import coupled_pendula

PACKAGE_DIR = Path(coupled_pendula.__file__).parent


def test_no_runtime_invariant_relies_on_assert():
    # python -O strips assert statements; invariants raise typed errors
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(PACKAGE_DIR.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in the package: {found}"


def _import_time_statements(tree):
    """Import statements that run when the module is imported: everything
    outside function bodies (module level, class bodies, if/try blocks)."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        stack.extend(ast.iter_child_nodes(node))


def _is_scipy(name):
    return name == "scipy" or name.startswith("scipy.")


def test_scipy_not_imported_at_module_level():
    # reduce, spectrum and regions never integrate; scipy loads inside the
    # function that first needs it, so those commands start without it
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(PACKAGE_DIR.glob("*.py"))
             for node in _import_time_statements(ast.parse(path.read_text(), str(path)))
             if (isinstance(node, ast.Import) and any(_is_scipy(a.name) for a in node.names))
             or (isinstance(node, ast.ImportFrom) and node.level == 0
                 and _is_scipy(node.module))]
    assert not found, f"module-level scipy imports in the package: {found}"


def test_exports_resolve():
    # a name deleted from a module must leave its __all__ and the package
    # imports too; the package re-exports only names a module declares
    modules = {path.stem: importlib.import_module(f"coupled_pendula.{path.stem}")
               for path in sorted(PACKAGE_DIR.glob("*.py")) if path.stem != "__init__"}
    stale = [f"{name}.{entry}" for name, module in modules.items()
             for entry in getattr(module, "__all__", ())
             if not hasattr(module, entry)]
    init = ast.parse((PACKAGE_DIR / "__init__.py").read_text())
    undeclared = [f"{node.module}.{alias.name}"
                  for node in ast.walk(init)
                  if isinstance(node, ast.ImportFrom) and node.level == 1
                  for alias in node.names
                  if alias.name not in getattr(modules[node.module], "__all__", ())]
    assert not stale, f"__all__ entries with no attribute: {stale}"
    assert not undeclared, f"package imports missing from their module's __all__: {undeclared}"
