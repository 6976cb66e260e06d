"""No module of the package reaches into another module's private names."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "fockcheck"
MODULES = sorted(PACKAGE.glob("*.py"))


def private_uses(tree: ast.Module) -> list[str]:
    """Underscore names imported from a package module (``from .fock import
    _x``), or read off one imported as a module (``from . import fock``, then
    ``fock._x``)."""
    found, modules = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("fockcheck")):
            for alias in node.names:
                if alias.name.startswith("_"):
                    found.append(f"from {'.' * node.level}{node.module or ''} import {alias.name}")
                elif not node.module or node.module == "fockcheck":
                    modules.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
            and node.attr.startswith("_")
            and not node.attr.startswith("__")
        ):
            found.append(f"{node.value.id}.{node.attr}")
    return found


def test_the_package_has_modules():
    assert {"fock.py", "charged.py", "verify.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_name_crosses_modules(path):
    assert private_uses(ast.parse(path.read_text(), str(path))) == []


@pytest.mark.parametrize(
    "source",
    ["from .fock import _is_canonical", "from . import fock\nfock._is_canonical", "from fockcheck.fock import _x"],
)
def test_a_private_import_is_caught(source):
    assert private_uses(ast.parse(source)) != []
