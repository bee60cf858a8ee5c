"""Every name a module imports is used in that module.

No linter ships with the project, so this scan is the unused-import
check.  __init__.py is skipped: its imports are the package's
re-exports.
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
