"""Every exported name exists, and so does every layer that the benchmark's
tracer (``perfbench/spans.py``) wraps, so that deleting a function cannot
silently break ``perfbench/run.py --trace 1``.  Every function, method and
class the package defines, and every name it assigns at module level, is
used somewhere, and every field of its dataclasses is read, so none is
dead."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import a1mod

MODULES = sorted(name for _, name, _ in pkgutil.iter_modules(a1mod.__path__))
ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "perfbench" / "spans.py"


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


@pytest.mark.parametrize("layer", _traced_layers(), ids=lambda layer: layer[0])
def test_traced_layers_resolve(layer):
    _, modname, attrs, _, _ = layer
    for attr in attrs:
        target = importlib.import_module(f"a1mod.{modname}")
        for part in attr.split("."):
            target = getattr(target, part)
        assert callable(target)


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any((d.func if isinstance(d, ast.Call) else d).id == "dataclass"
               for d in node.decorator_list)


def test_every_definition_is_referenced():
    used = {part for _, _, attrs, _, _ in _traced_layers()
            for attr in attrs for part in attr.split(".")}
    read = set()  # names read as attributes
    defined, fields = [], []
    for folder in ("src", "tests", "perfbench", "demos"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            tree = ast.parse(path.read_text(), str(path))
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    if not isinstance(node.ctx, ast.Store):  # not a target
                        used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
                    if isinstance(node.ctx, ast.Load):
                        read.add(node.attr)
                elif isinstance(node, ast.alias):
                    used.update(node.name.split("."))
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
