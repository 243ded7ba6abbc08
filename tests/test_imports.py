"""Every module-level import under ``src/`` is used, and every exported name
resolves. Stdlib ``ast`` only, so the guard runs wherever the suite runs."""

import ast
import importlib
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
MODULES = sorted(SRC.rglob("*.py"))


def module_imports(tree):
    """(bound name, line) of each import in the module body, including
    imports nested in module-level ``if``/``try`` blocks."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.If, ast.Try)):
            stack += node.body + node.orelse + getattr(node, "finalbody", [])
            stack += [s for h in getattr(node, "handlers", []) for s in h.body]
        elif isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], alias.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, alias.lineno


def used_names(tree):
    """Names loaded anywhere, names inside string annotations, and the
    entries of ``__all__``."""
    used = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        if (
            isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
        ):
            used.update(ast.literal_eval(node.value))
    for ann in annotations:
        for sub in ast.walk(ann) if ann is not None else ():
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                parsed = ast.parse(sub.value, mode="eval")
                used.update(n.id for n in ast.walk(parsed) if isinstance(n, ast.Name))
    return used


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_no_unused_module_level_import(path):
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    used = used_names(tree)
    unused = [
        f"{path.relative_to(SRC)}:{line}: {name}"
        for name, line in module_imports(tree)
        if name not in used and "# noqa: F401" not in lines[line - 1]
    ]
    assert not unused, unused


@pytest.mark.parametrize("package", ["lgsim", "lgsim.core"])
def test_every_exported_name_resolves(package):
    module = importlib.import_module(package)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing, missing
