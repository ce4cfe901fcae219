"""Every exported name exists, and so does every layer that the benchmark's
tracer (``perfbench/spans.py``) wraps, so that deleting a function cannot
silently break ``perfbench/run.py --trace 1``."""

import importlib
import pkgutil
from pathlib import Path

import pytest

import a1mod

MODULES = sorted(name for _, name, _ in pkgutil.iter_modules(a1mod.__path__))
SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


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
