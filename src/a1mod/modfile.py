"""A line-oriented text format for module presentations.

    module <name>
    gen <label> <degree>
    sq1 <label> = 0 | <label> (+ <label>)*
    sq2 <label> = 0 | <label> (+ <label>)*
    truncated_above <degree>
    truncated_below <degree>

'#' starts a comment; blank lines are ignored; undeclared actions are zero.
A repeated target in one sum cancels.  ``truncated_above`` and
``truncated_below`` mark degrees beyond which the presentation is incomplete
(a dual of a truncated module has a lower bound), which narrows the reliable
windows of everything computed from it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .a1core import A1Module, module_from_edges
from .errors import ParseError, RelationViolation

__all__ = ["ModuleFile", "parse", "to_module", "parse_module", "serialize"]


@dataclass
class ModuleFile:
    name: str
    gens: List[Tuple[str, int]]                       # (label, degree)
    sq1: Dict[str, List[str]] = field(default_factory=dict)
    sq2: Dict[str, List[str]] = field(default_factory=dict)
    truncated_above: Optional[int] = None
    truncated_below: Optional[int] = None
    # (source degree, line) of each action declaration
    action_lines: List[Tuple[int, int]] = field(default_factory=list)


def parse(text: str) -> ModuleFile:
    mf: Optional[ModuleFile] = None
    seen_gens: Dict[str, int] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        kw = parts[0]
        if kw == "module":
            if mf is not None:
                raise ParseError(line_no, "duplicate module header")
            if len(parts) != 2:
                raise ParseError(line_no, "expected: module <name>")
            mf = ModuleFile(parts[1], [])
            continue
        if mf is None:
            raise ParseError(line_no, "missing 'module <name>' header")
        if kw == "gen":
            if len(parts) != 3:
                raise ParseError(line_no, "expected: gen <label> <degree>")
            label = parts[1]
            try:
                deg = int(parts[2])
            except ValueError:
                raise ParseError(line_no, f"bad degree {parts[2]!r}")
            if label in seen_gens:
                raise ParseError(line_no, f"duplicate generator {label!r}")
            seen_gens[label] = deg
            mf.gens.append((label, deg))
        elif kw in ("sq1", "sq2"):
            rest = line[len(kw):].strip()
            if "=" not in rest:
                raise ParseError(line_no, f"expected: {kw} <label> = <sum>")
            lhs, rhs = (s.strip() for s in rest.split("=", 1))
            if lhs not in seen_gens:
                raise ParseError(line_no, f"unknown label {lhs!r}")
            table = mf.sq1 if kw == "sq1" else mf.sq2
            if lhs in table:
                raise ParseError(line_no, f"duplicate {kw} declaration for {lhs!r}")
            step = 1 if kw == "sq1" else 2
            targets: List[str] = []
            if rhs != "0":
                for t in (s.strip() for s in rhs.split("+")):
                    if t not in seen_gens:
                        raise ParseError(line_no, f"unknown label {t!r}")
                    if seen_gens[t] != seen_gens[lhs] + step:
                        raise ParseError(
                            line_no,
                            f"degree mismatch: {kw} maps degree {seen_gens[lhs]} "
                            f"to {seen_gens[lhs] + step}, but {t!r} has degree "
                            f"{seen_gens[t]}")
                    targets.append(t)
            table[lhs] = targets
            mf.action_lines.append((seen_gens[lhs], line_no))
        elif kw in ("truncated_above", "truncated_below"):
            if len(parts) != 2:
                raise ParseError(line_no, f"expected: {kw} <degree>")
            try:
                setattr(mf, kw, int(parts[1]))
            except ValueError:
                raise ParseError(line_no, f"bad degree {parts[1]!r}")
        else:
            raise ParseError(line_no, f"unknown keyword {kw!r}")
    if mf is None:
        raise ParseError(1, "missing 'module <name>' header")
    return mf


def to_module(mf: ModuleFile) -> A1Module:
    def edges(table: Dict[str, List[str]]) -> List[Tuple[str, str]]:
        return [(src, t) for src, targets in table.items() for t in targets]

    try:
        return module_from_edges(mf.gens, edges(mf.sq1), edges(mf.sq2),
                                 truncated_above=mf.truncated_above,
                                 truncated_below=mf.truncated_below,
                                 name=mf.name)
    except RelationViolation as e:
        lines = sorted(ln for deg, ln in mf.action_lines
                       if deg in range(e.degree, e.degree + 5))
        raise ParseError(lines[0] if lines else 1,
                         f"{e} (from the action declarations on lines {lines})")


def parse_module(text: str) -> A1Module:
    return to_module(parse(text))


def _safe_labels(m: A1Module) -> Dict[int, List[str]]:
    """Globally unique, whitespace-free labels, preserving originals where
    possible."""
    seen: Dict[str, int] = {}
    out: Dict[int, List[str]] = {}
    for k in m.space.degrees:
        row = []
        for lbl in m.space.labels[k]:
            lbl = "".join(lbl.split()) or "v"
            if lbl in seen:
                seen[lbl] += 1
                lbl = f"{lbl}.{seen[lbl]}"
            seen.setdefault(lbl, 0)
            row.append(lbl)
        out[k] = row
    return out


def serialize(m: A1Module, name: Optional[str] = None) -> str:
    """Emit a module file; parse(serialize(m)) reproduces the presentation."""
    labels = _safe_labels(m)
    lines = [f"module {''.join((name or m.name or 'M').split())}"]
    for k in m.space.degrees:
        for lbl in labels[k]:
            lines.append(f"gen {lbl} {k}")
    for kw, gmap, step in (("sq1", m.sq1, 1), ("sq2", m.sq2, 2)):
        for k in m.space.degrees:
            mat = gmap.mat(k)
            if mat.is_zero():
                continue
            for c in range(mat.cols):
                targets = [labels[k + step][r] for r in range(mat.rows)
                           if mat.get(r, c)]
                if targets:
                    lines.append(f"{kw} {labels[k][c]} = {' + '.join(targets)}")
    for kw in ("truncated_above", "truncated_below"):
        if getattr(m, kw) is not None:
            lines.append(f"{kw} {getattr(m, kw)}")
    return "\n".join(lines) + "\n"
