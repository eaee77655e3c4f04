"""Every module of the package uses each name it imports and each private name it defines."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "eralign"


def imported_names(tree):
    """The names that the imports of tree bind, except __future__ features."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names |= {alias.asname or alias.name.partition(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names |= {alias.asname or alias.name for alias in node.names}
    return names


def referenced_names(tree):
    """The names that tree reads, counting those inside string annotations."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        annotation = getattr(node, "annotation", None) or getattr(node, "returns", None)
        for sub in ast.walk(annotation) if annotation is not None else ():
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                names |= referenced_names(ast.parse(sub.value, mode="eval"))
    return names


def private_names(tree):
    """The _-prefixed functions, classes and constants that tree defines at module level."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in getattr(node, "targets", None) or [node.target]:
                names |= {sub.id for sub in ast.walk(target) if isinstance(sub, ast.Name)}
    return {name for name in names if name.startswith("_") and not name.startswith("__")}


MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


@pytest.mark.parametrize("module", MODULES)
def test_module_uses_every_name_it_imports(module):
    tree = ast.parse((PACKAGE / module).read_text(encoding="utf-8"))
    assert imported_names(tree) - referenced_names(tree) == set()


@pytest.mark.parametrize("module", MODULES)
def test_module_reads_every_private_name_it_defines(module):
    tree = ast.parse((PACKAGE / module).read_text(encoding="utf-8"))
    assert private_names(tree) - referenced_names(tree) == set()
