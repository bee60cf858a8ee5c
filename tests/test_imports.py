"""Every name a module imports is used in that module, every private
module-level name is used somewhere in the package, every public
module-level function or class, and every dataclass field, is read by
the package, the benchmark harness or the acceptance criteria, and no
module reads the environment.

No linter ships with the project, so these scans are the unused-import,
dead-private-name, test-only-code, unread-field and environment-read
checks.  The import scan covers every module, __init__.py included,
so a re-export at the package root fails it.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "eitcool"


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
    modules = sorted(SRC.glob("*.py"))
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


def unread_public_names(trees, readers):
    """file:line: name of each public module-level function or class that
    no tree of readers reads."""
    used = set().union(*(references(t) for t in readers))
    return [f"{name}:{node.lineno}: {node.name}"
            for name, tree in sorted(trees.items()) for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_") and node.name not in used]


def test_scan_flags_an_unread_public_name():
    trees = {"a.py": ast.parse("def f():\n    return g()\ndef g():\n"
                               "    pass\nclass C:\n    pass\n"
                               "def _h():\n    pass\n"),
             "b.py": ast.parse("from a import C\n")}
    assert unread_public_names(trees, trees.values()) == ["a.py:1: f"]


def test_no_test_only_public_names():
    # the tests other than the acceptance criteria do not count, so a
    # name only they reach is flagged
    trees = {p.name: ast.parse(p.read_text())
             for p in sorted(SRC.glob("*.py"))}
    outside = [*sorted((ROOT / "perfbench").rglob("*.py")),
               ROOT / "tests" / "test_acceptance.py"]
    readers = [*trees.values(), *(ast.parse(p.read_text()) for p in outside)]
    assert unread_public_names(trees, readers) == []


def _is_dataclass(node):
    for dec in node.decorator_list:
        dec = dec.func if isinstance(dec, ast.Call) else dec
        if getattr(dec, "id", getattr(dec, "attr", None)) == "dataclass":
            return True
    return False


def unread_dataclass_fields(trees, readers):
    """file:line: Class.field of each annotated field of a @dataclass that
    no tree of readers reads as an attribute."""
    read = {node.attr for t in readers for node in ast.walk(t)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}
    return [f"{name}:{item.lineno}: {cls.name}.{item.target.id}"
            for name, tree in sorted(trees.items())
            for cls in ast.walk(tree)
            if isinstance(cls, ast.ClassDef) and _is_dataclass(cls)
            for item in cls.body
            if isinstance(item, ast.AnnAssign)
            and isinstance(item.target, ast.Name)
            and item.target.id not in read]


def test_scan_flags_an_unread_dataclass_field():
    trees = {"a.py": ast.parse(
        "from dataclasses import dataclass\n"
        "@dataclass\nclass A:\n    x: int\n    y: int = 0\n    z = 1\n"
        "@dataclass(frozen=True)\nclass B:\n    u: int\n"
        "class C:\n    v: int\n"),
        "b.py": ast.parse("def f(a, b):\n    a.y = 2\n    return a.x\n")}
    assert unread_dataclass_fields(trees, trees.values()) == [
        "a.py:5: A.y", "a.py:9: B.u"]


def test_no_dataclass_field_only_tests_read():
    # a field is read when the package, the benchmark harness or the
    # acceptance criteria load it as an attribute
    trees = {p.name: ast.parse(p.read_text())
             for p in sorted(SRC.glob("*.py"))}
    outside = [*sorted((ROOT / "perfbench").rglob("*.py")),
               ROOT / "tests" / "test_acceptance.py"]
    readers = [*trees.values(), *(ast.parse(p.read_text()) for p in outside)]
    assert unread_dataclass_fields(trees, readers) == []


def environment_reads(tree):
    """Line of each os.environ or os.getenv, however os was imported."""
    return sorted({node.lineno for node in ast.walk(tree)
                   if (isinstance(node, ast.Attribute)
                       and node.attr in ("environ", "getenv"))
                   or (isinstance(node, ast.alias)
                       and node.name in ("environ", "getenv"))
                   or (isinstance(node, ast.Name)
                       and node.id in ("environ", "getenv"))})


def test_scan_flags_an_environment_read():
    tree = ast.parse("import os\nfrom os import getenv\nos.cpu_count()\n"
                     "x = os.environ['A']\ny = getenv('B')\n")
    assert environment_reads(tree) == [2, 4, 5]


def test_no_environment_reads():
    # every setting comes in through a config or an argument: the package
    # has no hidden environment knobs
    found = [f"{p.name}:{line}" for p in sorted(SRC.glob("*.py"))
             for line in environment_reads(ast.parse(p.read_text()))]
    assert found == []


def test_lines_fit_79_columns():
    long = [f"{path.relative_to(ROOT)}:{i}"
            for top in (SRC, ROOT / "tests")
            for path in sorted(top.rglob("*"))
            if path.suffix in (".py", ".json")
            for i, line in enumerate(path.read_text().splitlines(), 1)
            if len(line) > 79]
    assert long == []
