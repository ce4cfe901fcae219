"""Spans around a1mod's layers, installed from outside the package.

``Tracer.install`` replaces each listed function by a wrapper in every a1mod
module namespace that binds it (``module`` as imported into ``structure``,
``davismahowald`` and ``modfile``, say), and each listed method on its
class.  A wrapper records a span (name, start, end, parent) and adds the
call, its self time (span time minus the time of child spans) and, where a
layer defines one, a size computed from the arguments or the result.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from typing import Callable, Dict, List, Optional, Tuple


def _lmfg_unknowns(args, kwargs, result) -> int:
    source, target = args[0], args[1]
    shift = kwargs.get("shift", args[4] if len(args) > 4 else 0)
    return sum(source.dim(k) * target.dim(k + shift)
               for k in source.space.degrees)


# (layer name, module, attributes, metrics, size of one call)
LAYERS: List[Tuple[str, str, Tuple[str, ...], Tuple[str, ...], Optional[Callable]]] = [
    ("f2linalg.mul", "f2linalg", ("BitMatrix.mul",), ("calls", "self_s", "bit_ops"),
     lambda a, k, r: a[0].rows * a[0].cols * a[1].cols),
    ("f2linalg.solve", "f2linalg", ("solve",), ("calls", "self_s", "unknowns"),
     lambda a, k, r: a[0].cols),
    ("f2linalg.kernel", "f2linalg", ("kernel",), ("self_s",), None),
    ("f2linalg.complement", "f2linalg", ("complement",), ("self_s",), None),
    ("f2linalg.span", "f2linalg", ("Subspace.span",), ("self_s",), None),
    ("a1core.module", "a1core", ("module",), ("calls",), None),
    ("a1core.validate", "a1core", ("validate",), ("calls", "self_s"), None),
    ("a1core.compose", "a1core", ("GradedMap.compose",), ("calls",), None),
    ("a1core.tensor", "a1core", ("tensor",), ("self_s", "out_dim"),
     lambda a, k, r: r.space.total_dim()),
    ("a1core.dualize", "a1core", ("dualize",), ("self_s",), None),
    ("a1core.linear_map_from_generators", "a1core",
     ("linear_map_from_generators",), ("calls", "self_s", "unknowns"),
     _lmfg_unknowns),
    ("margolis.margolis_homology", "margolis", ("margolis_homology",),
     ("self_s",), None),
    ("margolis.is_q0_local", "margolis", ("is_q0_local",), ("self_s",), None),
    ("structure.strip_free", "structure", ("strip_free",), ("self_s",), None),
    ("structure.classify", "structure", ("classify",), ("self_s",), None),
    ("structure.localize_q0", "structure", ("localize_q0",), ("self_s",), None),
    ("resolution.minimal_resolution", "resolution", ("minimal_resolution",),
     ("self_s", "generators"), lambda a, k, r: sum(len(st.gens) for st in r)),
    ("resolution.h0_tower_counts", "resolution", ("h0_tower_counts",),
     ("self_s",), None),
    ("davismahowald.d2", "davismahowald", ("d2",), ("self_s",), None),
    ("davismahowald.lift_check", "davismahowald", ("lift_check",), ("self_s",), None),
    ("davismahowald.sq4_solver", "davismahowald", ("sq4_solver",), ("self_s",), None),
    ("davismahowald.build_dm_complex", "davismahowald", ("build_dm_complex",),
     ("self_s",), None),
    ("modfile.parse_module", "modfile", ("parse_module",), ("self_s", "bytes"),
     lambda a, k, r: len(a[0].encode())),
    ("modfile.serialize", "modfile", ("serialize",), ("self_s", "bytes"),
     lambda a, k, r: len(r.encode())),
    ("cli.main", "cli", ("main",), ("self_s",), None),
    ("charts", "charts", ("towers_ascii", "towers_svg", "page_ascii", "page_svg"),
     ("self_s",), None),
]

UNITS = {"calls": "count", "self_s": "s", "bit_ops": "count",
         "unknowns": "count", "out_dim": "count", "generators": "count",
         "bytes": "bytes"}


class Tracer:
    def __init__(self, package):
        self.package = package
        self.layers = [layer for layer, *_ in LAYERS]
        self.calls = [0] * len(LAYERS)
        self.self_s = [0.0] * len(LAYERS)
        self.size = [0] * len(LAYERS)
        # spans, columnwise: layer index, start, end, parent span (-1: none)
        self.span_layer = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("l")
        self.keep_spans = True
        self._stack: List[List] = []       # [span id, child time]
        self._saved: List[Tuple[object, str, object]] = []

    def _wrap(self, idx: int, fn, size):
        stack, clock = self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            start = clock()
            sid = -1
            if self.keep_spans:
                sid = len(self.span_start)
                self.span_layer.append(idx)
                self.span_start.append(start)
                self.span_end.append(0.0)
                self.span_parent.append(stack[-1][0] if stack else -1)
            frame = [sid, 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][1] += dur
                if sid >= 0:
                    self.span_end[sid] = end
                self.calls[idx] += 1
                self.self_s[idx] += dur - frame[1]
            if size is not None:
                self.size[idx] += size(args, kwargs, result)
            return result
        return wrapper

    def install(self) -> None:
        mods = [m for name, m in sys.modules.items()
                if m is not None and (name == "a1mod" or name.startswith("a1mod."))]
        for idx, (_, modname, attrs, _, size) in enumerate(LAYERS):
            home = getattr(self.package, modname)
            for attr in attrs:
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(home, cls_name)
                    raw = cls.__dict__[meth]
                    if isinstance(raw, staticmethod):
                        new = staticmethod(self._wrap(idx, raw.__func__, size))
                    else:
                        new = self._wrap(idx, raw, size)
                    self._saved.append((cls, meth, raw))
                    setattr(cls, meth, new)
                    continue
                orig = getattr(home, attr)
                new = self._wrap(idx, orig, size)
                for mod in mods:
                    for name, val in list(vars(mod).items()):
                        if val is orig:
                            self._saved.append((mod, name, orig))
                            setattr(mod, name, new)

    def uninstall(self) -> None:
        for owner, name, orig in reversed(self._saved):
            setattr(owner, name, orig)
        self._saved.clear()

    def metrics(self, rounds: int) -> Dict[str, Tuple[float, str]]:
        """Published figures per round.  Rounds repeat the same operations,
        so counts and sizes divide exactly; a fraction would show that they
        did not repeat."""
        out = {}
        for i, (layer, _, _, metrics, _) in enumerate(LAYERS):
            totals = {"calls": self.calls[i], "self_s": self.self_s[i]}
            for what in metrics:
                value = totals.get(what, self.size[i]) / rounds
                if what != "self_s" and value.is_integer():
                    value = int(value)
                out[f"{layer}.{what}"] = (value, UNITS[what])
        return out

    def shares(self, rounds: int, round_s: float) -> List[Tuple[float, str]]:
        """Each layer's self time as a share of the round, largest first."""
        out = [(self.self_s[i] / rounds / round_s, layer)
               for i, layer in enumerate(self.layers)]
        out.append((1 - sum(s for s, _ in out), "(outside every span)"))
        return sorted(out, reverse=True)

    def dump(self, path: str) -> None:
        """Write the kept spans, columnwise, as JSON."""
        with open(path, "w") as f:
            json.dump({"layers": self.layers,
                       "layer": self.span_layer.tolist(),
                       "start": self.span_start.tolist(),
                       "end": self.span_end.tolist(),
                       "parent": self.span_parent.tolist()}, f)
