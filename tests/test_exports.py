from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

# every name a module exports must exist: tools that wrap the public API look
# each one up, so a name left behind by a deletion breaks them
MODULES = ("quadrature", "profiles", "logtransform", "moser", "rearrangement", "symmetry", "cli")


@pytest.mark.parametrize("module", ("henon4",) + tuple(f"henon4.{m}" for m in MODULES))
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


def _unused_imports(path):
    """The names a module imports and never references."""
    tree = ast.parse(path.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(name for name in imported if name not in used)


def test_no_module_imports_a_name_it_never_uses():
    # `__init__` imports only to re-export
    package = Path(importlib.import_module("henon4").__file__).parent
    unused = [
        f"{path.stem}.{name}"
        for path in sorted(package.glob("*.py"))
        if path.name != "__init__.py"
        for name in _unused_imports(path)
    ]
    assert unused == []


def _dead_private_names(path):
    """The module-level `_names` (functions, classes, constants) that the
    module never loads."""
    tree = ast.parse(path.read_text())
    defined = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined.update(t.id for t in targets if isinstance(t, ast.Name))
    loaded = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return sorted(n for n in defined if n.startswith("_") and not n.startswith("__") and n not in loaded)


def test_no_module_keeps_a_private_helper_it_never_uses():
    # a deletion that leaves a private helper behind leaves dead code
    package = Path(importlib.import_module("henon4").__file__).parent
    dead = [f"{path.stem}.{name}" for path in sorted(package.glob("*.py")) for name in _dead_private_names(path)]
    assert dead == []


_MUTATING_METHODS = frozenset({
    "append", "extend", "insert", "add", "update", "setdefault", "pop", "popitem",
    "clear", "remove", "discard", "sort", "reverse",
})


def _own_nodes(scope):
    """The nodes of a function or lambda, not those of the scopes nested in it."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)):
            stack.extend(ast.iter_child_nodes(node))


def _module_state_writers(path):
    """The functions and lambdas that store into a subscript of a module-level
    name, or call a mutating method on one."""
    tree = ast.parse(path.read_text())
    module_names = {
        name.id
        for node in tree.body
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        for name in ast.walk(target)
        if isinstance(name, ast.Name)
    }
    writers = set()
    for scope in ast.walk(tree):
        if not isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        nodes = list(_own_nodes(scope))
        declared_global = {name for node in nodes if isinstance(node, ast.Global) for name in node.names}
        local = {arg.arg for arg in ast.walk(scope.args) if isinstance(arg, ast.arg)}
        local |= {n.id for n in nodes if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
        shared = module_names - (local - declared_global)
        for node in nodes:
            if isinstance(node, ast.Subscript) and not isinstance(node.ctx, ast.Load):
                target = node.value
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                target = node.func.value if node.func.attr in _MUTATING_METHODS else None
            else:
                continue
            if isinstance(target, ast.Name) and target.id in shared:
                writers.add(getattr(scope, "name", "<lambda>"))
    return sorted(writers)


def test_no_function_writes_module_state():
    # every operation is pure (README): a module-level cache or table that a
    # function fills makes one call's cost and memory depend on the calls before it
    package = Path(importlib.import_module("henon4").__file__).parent
    writers = [f"{path.stem}.{name}" for path in sorted(package.glob("*.py")) for name in _module_state_writers(path)]
    assert writers == []
