"""What deletions leave behind: an import no code of its module reads, an
``__all__`` entry that names nothing, and a private top-level name that no
code of the package reads."""

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


def private_definitions(tree: ast.Module) -> dict[str, ast.AST]:
    """Each private (one leading underscore) name the module body defines ->
    its defining statement."""
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            found = node.targets if isinstance(node, ast.Assign) else [node.target]
            targets = [n.id for t in found for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        names.update((name, node) for name in targets
                     if name.startswith("_") and not name.startswith("__"))
    return names


def reads(node: ast.AST) -> list[str]:
    """The names ``node`` loads, bare or as an attribute."""
    return [n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_private_name_is_read(path):
    # A read inside the name's own definition (a recursion, a class reading
    # its own attribute) does not count.
    trees = {p: ast.parse(p.read_text()) for p in MODULES}
    tree = trees[path]
    everywhere = [name for p, t in trees.items() if p != path for name in reads(t)]
    unread = []
    for name, node in private_definitions(tree).items():
        outside = [read for stmt in tree.body if stmt is not node for read in reads(stmt)]
        if name not in outside and name not in everywhere:
            unread.append(f"{name} (line {node.lineno})")
    assert not unread, f"{path.name} defines private names nothing reads: {unread}"
