"""Every exported name exists, and so does every layer that the benchmark's
tracer (``perfbench/spans.py``) wraps and every package attribute its
workloads call, so that deleting or moving a function cannot silently break
``perfbench/run.py``.  A module with an ``__all__`` lists in it every
public function and class it defines.  Every function, method and
class the package defines, and every name it assigns at module level, is
used somewhere other than in an import, every field of its dataclasses is
read, and every parameter with a default is passed by some call, so none
is dead.  No module of the package (its ``__init__.py`` re-exports
aside), test or demo imports a name it never reads."""

import ast
import functools
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import a1mod

MODULES = sorted(name for _, name, _ in pkgutil.iter_modules(a1mod.__path__))
ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "perfbench" / "spans.py"
PYPROJECT = ROOT / "pyproject.toml"
FOLDERS = ("src", "tests", "perfbench", "demos")


def _traced_layers():
    # executed from its source text, so nothing is written next to it
    namespace = {"__name__": "perfbench_spans"}
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), namespace)
    return namespace["LAYERS"]


@pytest.mark.parametrize("modname", MODULES)
def test_exported_names_exist(modname):
    mod = importlib.import_module(f"a1mod.{modname}")
    missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert missing == []


@pytest.mark.parametrize("modname", [
    name for name in MODULES
    if hasattr(importlib.import_module(f"a1mod.{name}"), "__all__")])
def test_public_names_are_exported(modname):
    # the converse: a module with an __all__ lists every public function
    # and class it defines
    mod = importlib.import_module(f"a1mod.{modname}")
    tree = ast.parse(Path(mod.__file__).read_text())
    public = [node.name for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("_")]
    assert [n for n in public if n not in mod.__all__] == []


@pytest.mark.parametrize("layer", _traced_layers(), ids=lambda layer: layer[0])
def test_traced_layers_resolve(layer):
    _, modname, attrs, _, _ = layer
    for attr in attrs:
        target = importlib.import_module(f"a1mod.{modname}")
        for part in attr.split("."):
            target = getattr(target, part)
        assert callable(target)


# what perfbench/workloads.py and perfbench/modules.py call on the package
BENCHMARK_CALLS = [
    "structure.localize_q0", "structure.classify", "davismahowald.lift_check",
    "davismahowald.build_dm_complex", "davismahowald.check_dm_exactness",
    "resolution.ext_dims", "resolution.h0_tower_counts", "cli.main", "module",
    "f2linalg.BitMatrix"]


@pytest.mark.parametrize("attr", BENCHMARK_CALLS)
def test_benchmark_calls_resolve(attr):
    first, *rest = attr.split(".")
    target = (importlib.import_module(f"a1mod.{first}") if first in MODULES
              else getattr(a1mod, first))
    for part in rest:
        target = getattr(target, part)
    assert callable(target)


@functools.lru_cache(maxsize=None)
def _trees():
    """(folder, path, syntax tree) for every Python file that may use the
    package."""
    return [(folder, path, ast.parse(path.read_text(), str(path)))
            for folder in FOLDERS
            for path in sorted((ROOT / folder).rglob("*.py"))]


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any((d.func if isinstance(d, ast.Call) else d).id == "dataclass"
               for d in node.decorator_list)


def test_every_definition_is_referenced():
    used = {part for _, _, attrs, _, _ in _traced_layers()
            for attr in attrs for part in attr.split(".")}
    read = set()  # names read as attributes
    defined, fields = [], []
    for folder, path, tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                if not isinstance(node.ctx, ast.Store):  # not a target
                    used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
                if isinstance(node.ctx, ast.Load):
                    read.add(node.attr)
            elif (folder == "src" and isinstance(
                    node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("__")):
                defined.append((f"{path.name}:{node.lineno}", node.name))
                if isinstance(node, ast.ClassDef) and _is_dataclass(node):
                    fields += [(f"{path.name}:{f.lineno}",
                                f"{node.name}.{f.target.id}")
                               for f in node.body
                               if isinstance(f, ast.AnnAssign)]
        # module-level constants and tables
        for node in tree.body if folder == "src" else ():
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                defined += [(f"{path.name}:{node.lineno}", t.id)
                            for t in ast.walk(node)
                            if isinstance(t, ast.Name)
                            and isinstance(t.ctx, ast.Store)
                            and not t.id.startswith("__")]
    assert [d for d in defined if d[1] not in used] == []
    # every dataclass field is read somewhere
    assert [f for f in fields if f[1].split(".")[1] not in read] == []


def test_every_import_is_read():
    unread = []
    for folder, path, tree in _trees():
        if folder == "perfbench" or path.name == "__init__.py":
            continue
        loaded = {node.id for node in ast.walk(tree)
                  if isinstance(node, ast.Name)
                  and not isinstance(node.ctx, ast.Store)}
        unread += [f"{path.name}:{node.lineno} {name}"
                   for node in ast.walk(tree)
                   if isinstance(node, (ast.Import, ast.ImportFrom))
                   and getattr(node, "module", None) != "__future__"
                   for name in (a.asname or a.name.split(".")[0]
                                for a in node.names)
                   if name not in loaded]
    assert unread == []


def _defaulted(tree):
    """(called name, qualified name, parameter, its positional index or
    None) for each parameter with a default; ``self`` and ``cls`` are not
    counted, and a class's ``__init__`` is called by the class's name."""
    def visit(node, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                yield from visit(child, child.name)
            elif isinstance(child, ast.FunctionDef):
                a = child.args
                positional = a.posonlyargs + a.args
                if cls and not any(getattr(d, "id", None) == "staticmethod"
                                   for d in child.decorator_list):
                    positional = positional[1:]
                name = cls if child.name == "__init__" else child.name
                qual = f"{cls}.{child.name}" if cls else child.name
                for i, arg in enumerate(positional):
                    if i >= len(positional) - len(a.defaults):
                        yield name, qual, arg.arg, i
                for arg, default in zip(a.kwonlyargs, a.kw_defaults):
                    if default is not None:
                        yield name, qual, arg.arg, None
                yield from visit(child, None)
            else:
                yield from visit(child, cls)
    return visit(tree, None)


def _passes(call: ast.Call, param: str, index) -> bool:
    if any(isinstance(a, ast.Starred) for a in call.args) or any(
            k.arg is None or k.arg == param for k in call.keywords):
        return True
    return index is not None and index < len(call.args)


def test_every_default_parameter_is_passed():
    calls = {}  # called name -> calls
    for _, _, tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                f = node.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                calls.setdefault(name, []).append(node)
    unpassed = [f"{path.name}:{qual}.{param}"
                for folder, path, tree in _trees() if folder == "src"
                for name, qual, param, index in _defaulted(tree)
                if not any(_passes(c, param, index) for c in calls.get(name, ()))]
    assert unpassed == []


def _toml_table(text, name):
    # read with a regex: Python 3.10 has no tomllib
    body = re.search(rf"^\[{re.escape(name)}\]\n(.*?)(?=^\[|\Z)", text,
                     re.M | re.S).group(1)
    return dict(re.findall(r'^([\w-]+) = "([^"]*)"$', body, re.M))


def test_pyproject_matches_the_package():
    # the version every CLI record prints, and the console script
    text = PYPROJECT.read_text()
    assert _toml_table(text, "project")["version"] == a1mod.__version__
    assert _toml_table(text, "project.scripts") == {"a1mod": "a1mod.cli:main"}
    modname, attr = "a1mod.cli:main".split(":")
    assert callable(getattr(importlib.import_module(modname), attr))
