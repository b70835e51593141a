"""Checks on the source tree itself, not on what it computes."""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "vpshell"


def top_level_names(node):
    """The names a module-level statement defines."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
    return [n.id for t in targets if t is not None for n in ast.walk(t) if isinstance(n, ast.Name)]


def references(tree, imports):
    """Names read or taken as attributes in `tree`, and with `imports`
    the names its `from ... import` statements bring in."""
    found = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute):
            found[node.attr] += 1
        elif imports and isinstance(node, ast.ImportFrom):
            found.update(alias.name for alias in node.names)
    return found


def package_modules():
    return [(path, ast.parse(path.read_text(encoding="utf-8")))
            for path in sorted(PACKAGE.glob("*.py"))]


def unread(modules, definitions):
    """The "module.name" of each (module, name, node) definition whose
    name nothing reads beyond the node itself: not src/ (where only
    __init__'s re-exports count as imports), a demo or README."""
    used = Counter()
    for path, tree in modules:
        used += references(tree, imports=path.name == "__init__.py")
    for path in sorted((ROOT / "demos").glob("*.py")):
        used += references(ast.parse(path.read_text(encoding="utf-8")), imports=True)
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    return [f"{module}.{name}" for module, name, node in definitions
            if not (name.startswith("__") and name.endswith("__"))
            and used[name] - references(node, imports=False)[name] <= 0
            and not re.search(rf"\b{re.escape(name)}\b", readme)]


def test_no_dead_helpers():
    # Every top-level def, class or assignment of the package is read
    # somewhere beyond its own definition.  A helper that a refactor
    # left behind fails here.
    modules = package_modules()
    definitions = [(path.stem, name, node) for path, tree in modules
                   for node in tree.body for name in top_level_names(node)]
    assert unread(modules, definitions) == []


def test_no_public_members_read_only_by_tests():
    # Every public method or property of a package class is read beyond
    # its own definition.  One that only tests read belongs in tests/.
    modules = package_modules()
    definitions = [(f"{path.stem}.{cls.name}", node.name, node) for path, tree in modules
                   for cls in tree.body if isinstance(cls, ast.ClassDef)
                   for node in cls.body
                   if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                   and not node.name.startswith("_")]
    assert definitions
    assert unread(modules, definitions) == []
