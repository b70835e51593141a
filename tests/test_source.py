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


def test_no_dead_helpers():
    # Every top-level def, class or assignment of the package is read
    # somewhere beyond its own definition: in src/ (where only
    # __init__'s re-exports count as imports), in a demo, or in README.
    # A helper that a refactor left behind fails here.
    used = Counter()
    definitions = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used += references(tree, imports=path.name == "__init__.py")
        definitions += [(path.stem, name, node) for node in tree.body
                        for name in top_level_names(node)]
    for path in sorted((ROOT / "demos").glob("*.py")):
        used += references(ast.parse(path.read_text(encoding="utf-8")), imports=True)
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    dead = [f"{module}.{name}" for module, name, node in definitions
            if not (name.startswith("__") and name.endswith("__"))
            and used[name] - references(node, imports=False)[name] <= 0
            and not re.search(rf"\b{re.escape(name)}\b", readme)]
    assert dead == []
