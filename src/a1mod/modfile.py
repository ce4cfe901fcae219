"""A line-oriented text format for module presentations.

    module <name>
    gen <label> <degree>
    sq1 <label> = 0 | <label> (+ <label>)*
    sq2 <label> = 0 | <label> (+ <label>)*
    truncated_above <degree>
    truncated_below <degree>

'#' starts a comment; blank lines are ignored; undeclared actions are zero.
A repeated target in one sum cancels.  ``truncated_above`` and
``truncated_below``, at most one line each, mark degrees beyond which the
presentation is incomplete (a dual of a truncated module has a lower bound),
which narrows the reliable windows of everything computed from it.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from .a1core import A1Module, module_from_edges
from .errors import ParseError, RelationViolation

__all__ = ["parse_module", "serialize"]


def parse_module(text: str) -> A1Module:
    """The module a file describes; ``ParseError`` names the line at
    fault."""
    name: Optional[str] = None
    degree: Dict[str, int] = {}                  # label -> degree, in order
    edges: Dict[str, List[Tuple[str, str]]] = {"sq1": [], "sq2": []}
    declared: Set[Tuple[str, str]] = set()       # (keyword, source label)
    bounds: Dict[str, int] = {}
    action_lines: List[Tuple[int, int]] = []     # (source degree, line)
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        kw = parts[0]
        if kw == "module":
            if name is not None:
                raise ParseError(line_no, "duplicate module header")
            if len(parts) != 2:
                raise ParseError(line_no, "expected: module <name>")
            name = parts[1]
            continue
        if name is None:
            raise ParseError(line_no, "missing 'module <name>' header")
        if kw == "gen":
            if len(parts) != 3:
                raise ParseError(line_no, "expected: gen <label> <degree>")
            label = parts[1]
            try:
                deg = int(parts[2])
            except ValueError:
                raise ParseError(line_no, f"bad degree {parts[2]!r}")
            if label in degree:
                raise ParseError(line_no, f"duplicate generator {label!r}")
            degree[label] = deg
        elif kw in ("sq1", "sq2"):
            rest = line[len(kw):].strip()
            if "=" not in rest:
                raise ParseError(line_no, f"expected: {kw} <label> = <sum>")
            lhs, rhs = (s.strip() for s in rest.split("=", 1))
            if lhs not in degree:
                raise ParseError(line_no, f"unknown label {lhs!r}")
            if (kw, lhs) in declared:
                raise ParseError(line_no, f"duplicate {kw} declaration for {lhs!r}")
            declared.add((kw, lhs))
            step = 1 if kw == "sq1" else 2
            if rhs != "0":
                for t in (s.strip() for s in rhs.split("+")):
                    if t not in degree:
                        raise ParseError(line_no, f"unknown label {t!r}")
                    if degree[t] != degree[lhs] + step:
                        raise ParseError(
                            line_no,
                            f"degree mismatch: {kw} maps degree {degree[lhs]} "
                            f"to {degree[lhs] + step}, but {t!r} has degree "
                            f"{degree[t]}")
                    edges[kw].append((lhs, t))
            action_lines.append((degree[lhs], line_no))
        elif kw in ("truncated_above", "truncated_below"):
            if len(parts) != 2:
                raise ParseError(line_no, f"expected: {kw} <degree>")
            if kw in bounds:
                raise ParseError(line_no, f"duplicate {kw} line")
            try:
                bounds[kw] = int(parts[1])
            except ValueError:
                raise ParseError(line_no, f"bad degree {parts[1]!r}")
        else:
            raise ParseError(line_no, f"unknown keyword {kw!r}")
    if name is None:
        raise ParseError(1, "missing 'module <name>' header")
    try:
        return module_from_edges(degree.items(), edges["sq1"], edges["sq2"],
                                 name=name, **bounds)
    except RelationViolation as e:
        lines = sorted(ln for deg, ln in action_lines
                       if deg in range(e.degree, e.degree + 5))
        raise ParseError(lines[0] if lines else 1,
                         f"{e} (from the action declarations on lines {lines})")


_SEPARATORS = str.maketrans("+=#", "___")


def _safe_labels(m: A1Module) -> Dict[int, List[str]]:
    """Globally unique labels that the parser reads back as one token:
    without whitespace, '+', '=' or '#', and never "0", which reads as the
    zero sum.  Originals are kept where possible."""
    seen: Dict[str, int] = {}
    out: Dict[int, List[str]] = {}
    for k in m.space.degrees:
        row = []
        for lbl in m.space.labels[k]:
            lbl = "".join(lbl.split()).translate(_SEPARATORS) or "v"
            base = lbl = "v0" if lbl == "0" else lbl
            while lbl in seen:
                seen[base] += 1
                lbl = f"{base}.{seen[base]}"
            seen[lbl] = 0
            row.append(lbl)
        out[k] = row
    return out


def serialize(m: A1Module, name: Optional[str] = None) -> str:
    """Emit a module file; parse_module(serialize(m)) reproduces the
    presentation."""
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
