"""Stdlib ast checks on the package modules. Every module but __init__ (which
re-exports) uses every name it imports, and no function, class, method or
property is defined only for tests. Every module but fileio leaves file
formats to fileio, where write_csv and write_json are the only text writers,
no module names numpy's SeedSequence in code, and the scenario schema restates
no default of the records and functions that use it. Each name kept only for
tests is still read from outside the package."""

import ast
import inspect
import pathlib
from collections import Counter

import pytest

from fopen_sar import metrics
from test_cli import _wrap_points

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "fopen_sar"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement that no Name node reads."""
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            bound.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(bound - used)


def test_checker_finds_unused_names():
    source = "import os.path\nimport numpy as np\nfrom a import b, c as d\nnp.x(d)\n"
    assert unused_imports(source) == ["b", "os"]
    assert "echo.py" in MODULES


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    assert unused_imports((PACKAGE / module).read_text()) == []


# Names, top-level or Class.method, that only tests read, each a reference form the
# suite compares against.
TEST_ONLY = {
    ("echo.py", "apply_foliage"): "a tracer wrap point and the per-pulse echo reference's F; "
                                  "tests/test_acceptance.py imports it from fopen_sar.echo, "
                                  "so it cannot move to tests/brute_force.py",
    ("foliage.py", "FoliageChannel.realize"):
        "a tracer wrap point and the per-pulse echo reference's F",
    ("metrics.py", "mainlobe_width_3db"): "the main-lobe width acceptance criterion 8 reads",
    ("imaging.py", "rcmc"): "a tracer wrap point that perfbench resolves by name; focus has "
                            "no migration stage",
    ("scenario.py", "tank_scenario"): "the tank scene on any preset, which perfbench's "
                                      "workloads and tools/bit_identity.py build",
}


def _attributes(node) -> Counter:
    """How often each attribute name is read in node."""
    return Counter(n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute))


def unread_definitions(sources: dict) -> list[tuple[str, str]]:
    """(module, name) of each top-level function or class that no module of
    sources reads outside its own definition, and (module, "Class.method") of
    each non-dunder method or property whose name no attribute outside its
    own body reads."""
    trees = {name: ast.parse(src) for name, src in sources.items()}
    reads = {}  # (module, index of top-level statement) -> names read in it
    for name, tree in trees.items():
        for i, stmt in enumerate(tree.body):
            reads[name, i] = {n.id for n in ast.walk(stmt) if isinstance(n, ast.Name)} | set(
                _attributes(stmt))
    attributes = sum(map(_attributes, trees.values()), Counter())
    unread = []
    for name, tree in trees.items():
        for i, stmt in enumerate(tree.body):
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and not any(
                    stmt.name in names for key, names in reads.items() if key != (name, i)):
                unread.append((name, stmt.name))
            for fn in stmt.body if isinstance(stmt, ast.ClassDef) else ():
                if (isinstance(fn, ast.FunctionDef) and not fn.name.startswith("__")
                        and attributes[fn.name] == _attributes(fn)[fn.name]):
                    unread.append((name, f"{stmt.name}.{fn.name}"))
    return unread


def test_checker_finds_unread_definitions():
    sources = {"a.py": "def f():\n    return f()\n\ndef g():\n    pass\n\n"
                       "class C:\n    def __init__(self):\n        pass\n\n"
                       "    def m(self):\n        return self.m()\n\n"
                       "    @property\n    def p(self):\n        return self.n()\n\n"
                       "    def n(self):\n        pass\n",
               "b.py": "from .a import g\nx = g()\ny = mod.C().p\n"}
    assert unread_definitions(sources) == [("a.py", "f"), ("a.py", "C.m")]


def test_every_definition_is_read_in_the_package():
    sources = {m: (PACKAGE / m).read_text() for m in MODULES}
    assert sorted(set(unread_definitions(sources)) - set(TEST_ONLY)) == []
    assert set(TEST_ONLY) <= set(unread_definitions(sources))


def imported_names(source: str) -> set[tuple[str, str]]:
    """(module, name) of each name source imports as `from fopen_sar.<module> import name`."""
    return {(f"{node.module.split('.')[1]}.py", a.name) for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("fopen_sar.")
            for a in node.names}


def wrapped_names(points) -> set[tuple[str, str]]:
    """(module, name) of each tracer wrap point, "Class.method" for a class's."""
    return {(pathlib.Path(inspect.getfile(owner)).name,
             attr if inspect.ismodule(owner) else f"{owner.__name__}.{attr}")
            for owner, attr, *_ in points}


def test_checker_finds_outside_readers():
    source = ("import fopen_sar\nfrom fopen_sar import metrics\n"
              "from fopen_sar.scenario import Scenario, tank_scenario as t\n")
    assert imported_names(source) == {("scenario.py", "Scenario"),
                                      ("scenario.py", "tank_scenario")}
    assert wrapped_names([(metrics, "islr", "g", None), (metrics.Profile, "m", "g", None)]) == {
        ("metrics.py", "islr"), ("metrics.py", "Profile.m")}


def test_every_test_only_name_is_read_outside_the_package():
    # a wrap point of perfbench's tracer, or an import by perfbench, tools or the acceptance
    # tests, keeps each TEST_ONLY name; one that loses its last reader is dead: delete it
    sources = [*(ROOT / "perfbench").glob("*.py"), *(ROOT / "tools").glob("*.py"),
               ROOT / "tests" / "test_acceptance.py"]
    readers = wrapped_names(_wrap_points()).union(*(imported_names(p.read_text())
                                                    for p in sources))
    assert sorted(set(TEST_ONLY) - readers) == []


# What only fileio.py, the home of every file format, may import or name.
FILE_CODE = {"struct", "zlib", "atomic_write", "write_container", "read_container"}


def names_in_code(source: str) -> set[str]:
    """Every identifier source's code imports, binds or reads: imported modules (their
    first and last parts) and names, aliases, and Name and Attribute nodes; not
    strings, docstrings or comments."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            found.add((getattr(node, "module", None) or "").split(".")[0])
            found.update(n for a in node.names
                         for n in (a.name.split(".")[0], a.name.split(".")[-1], a.asname))
        elif isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
    return found - {None, ""}


def file_code(source: str) -> list[str]:
    """The FILE_CODE modules source imports and the FILE_CODE names it binds or reads."""
    return sorted(names_in_code(source) & FILE_CODE)


def test_checker_finds_file_code():
    source = ("import zlib\nfrom struct import pack\nfrom .fileio import atomic_write\n"
              "from . import fileio\nfileio.write_container(p, m, d)\nread_container(p, m)\n"
              "from .fileio import write_fsar\nwrite_fsar(p, d)\n")
    assert file_code(source) == ["atomic_write", "read_container", "struct",
                                 "write_container", "zlib"]


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")
                                          if p.name != "fileio.py"))
def test_file_formats_live_in_fileio(module):
    assert file_code((PACKAGE / module).read_text()) == []


def text_writers(source: str) -> list[str]:
    """The top-level functions of source that call atomic_write in text mode: with no
    mode, or a mode that is not a str literal holding "b"."""
    found = set()
    for fn in ast.parse(source).body:
        for node in ast.walk(fn) if isinstance(fn, ast.FunctionDef) else ():
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "atomic_write":
                modes = node.args[1:] + [k.value for k in node.keywords if k.arg == "mode"]
                if not any(isinstance(m, ast.Constant) and "b" in m.value for m in modes):
                    found.add(fn.name)
    return sorted(found)


def test_checker_finds_text_writers():
    source = "".join(f"def {name}(p, m):\n    with atomic_write({args}) as fh:\n        pass\n"
                     for name, args in (("a", "p"), ("b", "p, 'wb'"), ("c", "p, mode=m"),
                                        ("d", "p, mode='w'"), ("e", "p, mode='wb'")))
    assert text_writers(source) == ["a", "c", "d"]


def test_csv_and_json_are_the_only_text_writers():
    # write_csv writes every CSV table, write_json every report and manifest
    assert text_writers((PACKAGE / "fileio.py").read_text()) == ["write_csv", "write_json"]


def test_checker_finds_names_in_code():
    source = ('"""SeedSequence."""\n# SeedSequence\nimport numpy.random as r\n'
              'from numpy.random import SeedSequence as S\nx = r.SeedSequence(1)\n')
    assert {"SeedSequence", "S", "random", "r", "x"} <= names_in_code(source)
    assert "SeedSequence" not in names_in_code('"""SeedSequence."""\n# SeedSequence\n')


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_no_module_builds_a_seed_sequence(module):
    # rng._philox_keys is the one key derivation; numpy's SeedSequence is the tests' oracle
    assert "SeedSequence" not in names_in_code((PACKAGE / module).read_text())


def stated_defaults(source: str) -> list[str]:
    """"<table>.<key>" of each entry of TARGET, SCHEMA["foliage"] and SCHEMA["processing"]
    in source whose default, the entry's second item, is stated there: anything but a
    name, an attribute, an item of one (AZIMUTH_WINDOWS[0]), or None (no default)."""
    tables = {stmt.targets[0].id: stmt.value for stmt in ast.parse(source).body
              if isinstance(stmt, ast.Assign) and isinstance(stmt.value, ast.Dict)
              and isinstance(stmt.targets[0], ast.Name)}
    schema = {k.value: v for k, v in zip(tables["SCHEMA"].keys, tables["SCHEMA"].values)}
    found = []
    for label, table in (("TARGET", tables["TARGET"]), ("foliage", schema["foliage"]),
                         ("processing", schema["processing"])):
        for key, entry in zip(table.keys, table.values):
            default = entry.elts[1]
            if isinstance(default, ast.Subscript):
                default = default.value
            if not (isinstance(default, (ast.Name, ast.Attribute))
                    or isinstance(default, ast.Constant) and default.value is None):
                found.append(f"{label}.{key.value}")
    return found


def test_checker_finds_stated_defaults():
    source = ('TARGET = {"cell": (int, REQUIRED, 0, None), "rcs": (complex, [1.0, 0.0], 0, 1)}\n'
              'SCHEMA = {"waveform": {"n": (int, 3, 1, None)},\n'
              '          "foliage": {"a": (float, P.a, 0, None), "b": (float, None, 0, 1),\n'
              '                      "c": (float, -0.5, 0, 1), "d": (float, float(4), 0, 1)},\n'
              '          "processing": {"w": (W, W[0], None, None), "x": (W, ("a",)[0], 0, 1),\n'
              '                         "u": (int, UPSAMPLE, 1, None), "s": (int, 3, 1, None)}}\n')
    assert stated_defaults(source) == ["TARGET.rcs", "foliage.c", "foliage.d",
                                       "processing.x", "processing.s"]


def test_scenario_defaults_live_with_their_users():
    # FoliageParams, PointTarget, metrics' UPSAMPLE and SMOOTH_WINDOW and
    # imaging.AZIMUTH_WINDOWS hold these defaults; the schema only reads them
    assert stated_defaults((PACKAGE / "scenario.py").read_text()) == []
