"""Every name a module imports is used in it, and every private helper of
the package is used by the package.

The checks read the sources with the standard-library ast module: a name
bound by an import is used when it appears as a name anywhere in the file
(package __init__.py files import to re-export and are exempt), and a
module-level function or class method of src/eiskling whose name starts
with "_" (and does not end with "__") is used when some file of src/ names
it outside the function's own definition.
"""

import ast
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _sources():
    for top in ("src", "tests", "demos"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith(".py") and name != "__init__.py":
                    yield os.path.relpath(os.path.join(dirpath, name), ROOT)


def unused_imports(source):
    """The names an import in source binds that nothing in source reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name != "*":
                    imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_checker_finds_unused_imports():
    source = ("import os\nimport os.path as osp\nfrom math import gcd, lcm\n"
              "print(gcd(osp.sep, 1))\n")
    assert unused_imports(source) == [(1, "os"), (3, "lcm")]


@pytest.mark.parametrize("path", list(_sources()))
def test_no_unused_imports(path):
    with open(os.path.join(ROOT, path)) as fh:
        assert unused_imports(fh.read()) == []


def orphaned_helpers(sources):
    """The module-level functions and the methods of module-level classes
    named "_..." that no source in sources, a dict of path -> text, names
    outside their own definition, as sorted (path, name) pairs."""
    trees = {path: ast.parse(text) for path, text in sources.items()}
    helpers = {}  # name -> [(path, ids of the nodes of its definition)]
    for path, tree in trees.items():
        defs = list(tree.body)
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                defs.extend(node.body)
        for node in defs:
            if (isinstance(node, ast.FunctionDef) and node.name.startswith("_")
                    and not node.name.endswith("__")):
                helpers.setdefault(node.name, []).append(
                    (path, {id(n) for n in ast.walk(node)}))
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            else:
                continue
            for path, inside in helpers.get(name, ()):
                if id(node) not in inside:
                    used.add((path, name))
    return sorted((path, name) for name, defs in helpers.items()
                  for path, _ in defs if (path, name) not in used)


def test_checker_finds_orphaned_helpers():
    sources = {"a.py": ("def _kept(x):\n    return x\n"
                        "def _self_only(n):\n    return _self_only(n - 1)\n"
                        "def _lost():\n    pass\n"
                        "class C:\n"
                        "    def __init__(self):\n        self._used()\n"
                        "    def _used(self):\n        pass\n"
                        "    @staticmethod\n"
                        "    def _unused():\n        pass\n"),
               "b.py": "import a\nprint(a._kept(1))\n"}
    assert orphaned_helpers(sources) == [("a.py", "_lost"),
                                         ("a.py", "_self_only"),
                                         ("a.py", "_unused")]


def test_no_orphaned_private_helpers():
    sources = {}
    for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, "src")):
        for name in filenames:
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                with open(path) as fh:
                    sources[os.path.relpath(path, ROOT)] = fh.read()
    assert orphaned_helpers(sources) == []
