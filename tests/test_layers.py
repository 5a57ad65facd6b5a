"""Layering: each module of the package imports only the modules below it."""

import ast
from pathlib import Path

import pytest

import gpumux

# lowest layer first
ORDER = ["vm", "config", "channels", "commands", "engine", "audits", "workloads",
         "harness", "cli"]
PACKAGE = Path(gpumux.__file__).parent


def package_imports(path: Path) -> set[str]:
    """The sibling modules named by the relative imports anywhere in a module,
    function bodies included."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                names.add(node.module.split(".")[0])
            else:  # from . import module
                names.update(alias.name for alias in node.names)
    return names


def test_order_names_every_module():
    modules = {p.stem for p in PACKAGE.glob("*.py")} - {"__init__"}
    assert modules == set(ORDER)


@pytest.mark.parametrize("name", ORDER)
def test_module_imports_only_lower_layers(name):
    upward = package_imports(PACKAGE / f"{name}.py") - set(ORDER[:ORDER.index(name)])
    assert not upward, f"{name} imports {sorted(upward)}, which sit above it"
