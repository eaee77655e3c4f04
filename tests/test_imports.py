"""Every module of the package uses each name it imports."""

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
        if isinstance(node, ast.Name):
            names.add(node.id)
        annotation = getattr(node, "annotation", None) or getattr(node, "returns", None)
        for sub in ast.walk(annotation) if annotation is not None else ():
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                names |= referenced_names(ast.parse(sub.value, mode="eval"))
    return names


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")
                                          if p.name != "__init__.py"))
def test_module_uses_every_name_it_imports(module):
    tree = ast.parse((PACKAGE / module).read_text(encoding="utf-8"))
    assert imported_names(tree) - referenced_names(tree) == set()
