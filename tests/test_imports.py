"""Every name a module imports is used in it, every private helper of the
package is used by the package, every function of the package is reached by
a command, and importing the package loads none of its modules.

The first two checks read the sources with the standard-library ast module:
a name bound by an import is used when it appears as a name anywhere in the
file, and a module-level function or class method of src/eiskling whose
name starts with "_" (and does not end with "__") is used when some file of
src/ names it outside the function's own definition.  The third runs the commands and
demos under sys.setprofile in a fresh interpreter and lists what they never
call.  The last imports the package in a fresh interpreter.
"""

import ast
import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _sources():
    for top in ("src", "tests", "demos"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith(".py"):
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


def _env():
    """The environment of a fresh interpreter that finds src and tests."""
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]
        + ([path] if path else [])))


# Runs every report tests/test_golden.py pins, selftest and the demos in a
# fresh interpreter, so that no cache filled by another test hides a call
# and the calls made while the package is imported count.  Records the code
# object of every Python-level call, then prints, as a JSON list,
# the qualified names of the module-level functions and of the methods of
# module-level classes of eiskling whose code was never run.
REACH_PROBE = """
import contextlib, inspect, io, json, os, pkgutil, runpy, sys, threading

called = set()


def record(frame, event, arg):
    if event == "call":
        called.add(frame.f_code)


sys.setprofile(record)
threading.setprofile(record)
import eiskling.cli
import test_golden

workloads = test_golden.workloads
for name in ("family-p5", "family-r2"):
    (_, text), = workloads.make_inputs(name, 0)
    test_golden.report_digest(text, lambda path: workloads.cli_argv(name, path))
for chi in test_golden.digests["kl-sweep"]:
    test_golden.report_digest(workloads.kl_config(chi),
                              lambda path: workloads.cli_argv("kl-sweep", path))
for name in test_golden.CLI_CASES:
    test_golden.cli_digest(name)
with contextlib.redirect_stdout(io.StringIO()):
    assert eiskling.cli.main(["selftest"]) == 0
    for demo in sorted(test_golden.DEMO_CASES.values()):
        runpy.run_path(os.path.join(test_golden.DEMOS, demo),
                       run_name="__main__")
sys.setprofile(None)
threading.setprofile(None)


def functions(module):
    for name, obj in vars(module).items():
        if inspect.isclass(obj) and obj.__module__ == module.__name__:
            for attr, member in vars(obj).items():
                if isinstance(member, property):
                    member = member.fget
                yield "%s.%s" % (name, attr), getattr(member, "__func__",
                                                      member)
        else:
            yield name, obj


unreached = []
for info in pkgutil.iter_modules(eiskling.__path__):
    module = sys.modules["eiskling." + info.name]
    for name, obj in functions(module):
        obj = inspect.unwrap(obj)
        # functions a dataclass writes have no source file
        if (inspect.isfunction(obj)
                and obj.__code__.co_filename == module.__file__
                and obj.__code__ not in called):
            unreached.append("%s.%s" % (info.name, name))
print(json.dumps(sorted(unreached)))
"""

# what no command, selftest or demo calls, and why it stays
UNREACHED_ALLOWED = {
    "exact_arith.CycNumber.__init__":
        "the constructor from Fraction coefficients that tests and oracles "
        "build values with",
    "exact_arith.CycNumber.__add__":
        "addition, which the ring-axiom tests and the oracles' sums use; "
        "sqrt_minus_d builds its Gauss sums from powers, so no command adds",
    "exact_arith.CycNumber.__radd__":
        "the same addition with a rational on the left",
    "exact_arith.CycNumber.__neg__":
        "negation, which the ring-axiom and reduction tests use; a character "
        "value is one signed power of zeta at its level, so no command "
        "negates",
    "values.ExactValue.__eq__":
        "equality across levels, read by the tests",
    "characters.DirichletChar.__hash__":
        "keeps characters usable as dict keys and set members, consistent "
        "with __eq__",
}


def test_every_function_is_reached_by_a_command():
    """The reports tests/test_golden.py pins, selftest and the demos
    together call every module-level function and every method of a
    module-level class of src/eiskling, apart from the __repr__s, which
    only a reader calls, and UNREACHED_ALLOWED."""
    out = subprocess.run([sys.executable, "-c", REACH_PROBE], env=_env(),
                         cwd=ROOT, capture_output=True, text=True, check=True)
    unreached = set(json.loads(out.stdout.splitlines()[-1]))
    assert sorted(n for n in unreached - set(UNREACHED_ALLOWED)
                  if not n.endswith(".__repr__")) == []
    # an allowance goes once its function is deleted or reached
    assert set(UNREACHED_ALLOWED) <= unreached


def test_importing_the_package_loads_no_module():
    """The package imports none of its modules, so that a command loads
    only the modules it imports."""
    probe = ("import eiskling, sys; "
             "print([m for m in sys.modules if m.startswith('eiskling.')])")
    out = subprocess.run([sys.executable, "-c", probe], env=_env(), cwd=ROOT,
                         capture_output=True, text=True, check=True)
    assert out.stdout == "[]\n"
