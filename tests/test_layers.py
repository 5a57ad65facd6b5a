"""Layering: each module of the package imports only the modules below it, and
the start-up path stays free of heavy standard-library modules."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gpumux

# lowest layer first
ORDER = ["vm", "config", "channels", "commands", "engine", "audits", "workloads",
         "harness", "cli"]
PACKAGE = Path(gpumux.__file__).parent


def module_imports(path: Path) -> tuple[set[str], set[str]]:
    """The sibling modules named by the relative imports anywhere in a module,
    function bodies included, and the top-level names of its absolute imports."""
    siblings, absolute = set(), set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                siblings.add(node.module.split(".")[0])
            else:  # from . import module
                siblings.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            absolute.add(node.module.split(".")[0])
        elif isinstance(node, ast.Import):
            absolute.update(alias.name.split(".")[0] for alias in node.names)
    return siblings, absolute


def test_order_names_every_module():
    modules = {p.stem for p in PACKAGE.glob("*.py")} - {"__init__"}
    assert modules == set(ORDER)


@pytest.mark.parametrize("name", ORDER)
def test_module_imports_only_lower_layers(name):
    upward = module_imports(PACKAGE / f"{name}.py")[0] - set(ORDER[:ORDER.index(name)])
    assert not upward, f"{name} imports {sorted(upward)}, which sit above it"


@pytest.mark.parametrize("name", ["__init__"] + ORDER)
def test_module_does_not_import_dataclasses(name):
    assert "dataclasses" not in module_imports(PACKAGE / f"{name}.py")[1]


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # only what the import adds counts: site hooks may load either module first
    script = ("import sys; before = set(sys.modules); import gpumux.cli; "
              "print(*sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))")
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    loaded = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                            text=True, check=True).stdout.split()
    assert loaded == []
