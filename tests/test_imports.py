"""Every name a module imports is used in that module, and every private
module-level name is used somewhere in the package.

No linter ships with the project, so these scans are the unused-import
and dead-private-name checks.  __init__.py is skipped by the import
scan: its imports are the package's re-exports.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "eitcool"


def unused_imports(tree):
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # "import a.b" binds "a"
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_scan_flags_an_unused_import():
    tree = ast.parse("import os\nimport numpy as np\nfrom a import b, c\n"
                     "np.zeros(b)\n")
    assert unused_imports(tree) == [(1, "os"), (3, "c")]


def test_no_unused_imports():
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert modules
    found = [f"{p.name}:{line}: {name}" for p in modules
             for line, name in unused_imports(ast.parse(p.read_text()))]
    assert found == []


def private_definitions(tree):
    """(line, name) of each module-level function, class or assignment
    whose name starts with a single underscore."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            names = [n.id for t in targets for n in ast.walk(t)
                     if isinstance(n, ast.Name)]
        else:
            continue
        found += [(node.lineno, name) for name in names
                  if name.startswith("_") and not name.startswith("__")]
    return found


def references(tree):
    """Names a module reads: bare names, attributes and from-imports."""
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            refs.update(alias.name for alias in node.names)
    return refs


def orphaned_private_names(trees):
    """file:line: name of each private definition nothing in trees reads."""
    used = set().union(*(references(t) for t in trees.values()))
    return [f"{name}:{line}: {priv}" for name, tree in sorted(trees.items())
            for line, priv in private_definitions(tree) if priv not in used]


def test_scan_flags_an_orphaned_private_name():
    trees = {"a.py": ast.parse("_X = 1\n_Y = 2\ndef _f():\n    return _X\n"
                               "class _C:\n    pass\n__all__ = []\n"),
             "b.py": ast.parse("from a import _f\nimport a\na._C\n")}
    assert orphaned_private_names(trees) == ["a.py:2: _Y"]


def test_no_orphaned_private_names():
    trees = {p.name: ast.parse(p.read_text())
             for p in sorted(SRC.glob("*.py"))}
    assert orphaned_private_names(trees) == []
