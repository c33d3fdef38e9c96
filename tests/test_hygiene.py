"""What deletions leave behind: an import no code of its module reads, and an
``__all__`` entry that names nothing."""

import ast
import importlib
from pathlib import Path

import pytest

import moe_locality

MODULES = sorted(Path(moe_locality.__file__).parent.glob("*.py"))


def bound_imports(tree: ast.Module) -> dict[str, int]:
    """Each name an import binds in the module -> the line of its import."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                names[alias.asname or alias.name.partition(".")[0]] = node.lineno
    return names


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "__init__.py"],
                         ids=lambda p: p.stem)
def test_every_import_is_used(path):
    # The package's __init__ imports to re-export, so it is not checked.
    tree = ast.parse(path.read_text())
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = {name: line for name, line in bound_imports(tree).items() if name not in read}
    assert not unused, f"{path.name} imports names it never uses: {unused}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_all_entry_resolves(path):
    name = "moe_locality" if path.name == "__init__.py" else f"moe_locality.{path.stem}"
    module = importlib.import_module(name)
    missing = [entry for entry in getattr(module, "__all__", ()) if not hasattr(module, entry)]
    assert not missing, f"{name}.__all__ names what it does not define: {missing}"
