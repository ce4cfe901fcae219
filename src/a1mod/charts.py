"""ASCII and SVG chart rendering.

Two chart kinds:

* tower charts — stems on the horizontal axis, homological degree s on the
  vertical axis, infinite h0-towers drawn as vertical runs capped with an
  arrowhead;
* spectral-sequence pages — one marker per class, marker shape keyed to the
  filtration sigma, d2 differentials drawn as arrows from (stem, sigma) to
  (stem - 1, sigma + 2).

ASCII output is line-stable; SVG output is well-formed XML.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple
from xml.etree import ElementTree as ET

__all__ = ["towers_ascii", "towers_svg", "page_ascii", "page_svg"]

_TOWER_HEIGHT = 6
_MARKERS = "o#^*%@"  # ascii marker per sigma/2 (cycled)


def _marker(sigma: int) -> str:
    return _MARKERS[(sigma // 2) % len(_MARKERS)]


def _stem_axis(stems: Iterable[int], top: Optional[int] = None) -> range:
    """The stems a chart shows: from the lowest stem or 0, whichever is
    lower, to ``top`` (default: the highest stem; just 0 for no stems)."""
    stems = list(stems) or [0]
    return range(min(0, min(stems)), (max(stems) if top is None else top) + 1)


def _column_width(stems: range) -> int:
    """ASCII columns per stem: 3, or one more than the longest axis label."""
    return max([3] + [len(str(stem)) + 1 for stem in stems])


# ---------------------------------------------------------------------------
# tower charts


def towers_ascii(counts: Dict[int, int], max_stem: int) -> str:
    """Render h0-tower counts per stem; each tower is a vertical run of '|'
    topped with '^'."""
    stems = _stem_axis((s for s, n in counts.items() if n), max_stem)
    # one column per tower, after a blank one
    w = max([_column_width(stems)] + [counts.get(s, 0) + 1 for s in stems])
    grid = [[" "] * (w * len(stems)) for _ in range(_TOWER_HEIGHT)]
    for stem in stems:
        left = w * (stem - stems.start)
        for i in range(counts.get(stem, 0)):
            col = left + 1 + i
            for row in range(1, _TOWER_HEIGHT):
                grid[row][col] = "|"
            grid[0][col] = "^"
    lines = ["".join(row).rstrip() for row in grid]
    lines.append("-" * (w * len(stems)))
    axis = "".join(f"{stem:<{w}d}" for stem in stems).rstrip()
    lines.append(axis)
    lines.append("stem ->")
    return "\n".join(lines) + "\n"


def towers_svg(counts: Dict[int, int], max_stem: int) -> str:
    cell, pad, height = 40, 30, 200
    stems = _stem_axis((s for s, n in counts.items() if n), max_stem)
    w = pad * 2 + cell * len(stems)
    svg = ET.Element("svg", xmlns="http://www.w3.org/2000/svg",
                     width=str(w), height=str(height + 2 * pad))
    ET.SubElement(svg, "line", x1=str(pad), y1=str(height + pad),
                  x2=str(w - pad), y2=str(height + pad), stroke="black")
    for stem in stems:
        x = pad + cell * (stem - stems.start) + cell // 2
        t = ET.SubElement(svg, "text", x=str(x), y=str(height + pad + 18))
        t.set("text-anchor", "middle")
        t.text = str(stem)
        n = counts.get(stem, 0)
        for i in range(n):
            xi = x + (i - (n - 1) / 2) * 8
            y0, y1 = height + pad - 6, pad + 10
            ET.SubElement(svg, "line", x1=str(xi), y1=str(y0),
                          x2=str(xi), y2=str(y1), stroke="black")
            ET.SubElement(
                svg, "polygon",
                points=f"{xi - 4},{y1 + 8} {xi + 4},{y1 + 8} {xi},{y1}",
                fill="black")
    return ET.tostring(svg, encoding="unicode")


# ---------------------------------------------------------------------------
# spectral-sequence pages

Class = Tuple[int, int, str]          # (stem, sigma, label)
Arrow = Tuple[int, int, int, int]     # (stem, sigma) -> (stem', sigma')


def page_ascii(classes: Sequence[Class], arrows: Sequence[Arrow] = ()) -> str:
    """One marker per class at (stem, sigma); marker shape keyed to sigma.
    Arrows are listed below the grid."""
    if not classes:
        return "(empty page)\n"
    stems = _stem_axis(c[0] for c in classes)
    w = _column_width(stems)
    max_sigma = max(c[1] for c in classes)
    rows: List[List[str]] = [[" "] * (w * len(stems))
                             for _ in range(max_sigma + 1)]
    for stem, sigma, _ in classes:
        col = w * (stem - stems.start) + 1
        cur = rows[sigma][col]
        rows[sigma][col] = _marker(sigma) if cur == " " else "+"
    lines = []
    for sigma in range(max_sigma, -1, -1):
        lines.append(f"{sigma:>3d} |" + "".join(rows[sigma]).rstrip())
    lines.append("    +" + "-" * (w * len(stems)))
    axis = "".join(f"{stem:<{w}d}" for stem in stems).rstrip()
    lines.append("     " + axis)
    lines.append("     stem ->   (vertical: sigma)")
    for a, b, c, d in arrows:
        lines.append(f"d2: (stem {a}, sigma {b}) -> (stem {c}, sigma {d})")
    return "\n".join(lines) + "\n"


def page_svg(classes: Sequence[Class], arrows: Sequence[Arrow]) -> str:
    """The page as SVG, on the stem axis of ``page_ascii``."""
    cell, pad = 40, 30
    stems = _stem_axis(c[0] for c in classes)
    max_sigma = max((c[1] for c in classes), default=0)
    w = 2 * pad + cell * len(stems)
    h = 2 * pad + cell * (max_sigma + 1)

    def xy(stem: int, sigma: int) -> Tuple[float, float]:
        return (pad + cell * (stem - stems.start) + cell / 2,
                h - pad - cell * sigma - cell / 2)

    svg = ET.Element("svg", xmlns="http://www.w3.org/2000/svg",
                     width=str(w), height=str(h))
    for stem, sigma, label in classes:
        x, y = xy(stem, sigma)
        shape = (sigma // 2) % 3
        if shape == 0:
            el = ET.SubElement(svg, "circle", cx=str(x), cy=str(y), r="5")
        elif shape == 1:
            el = ET.SubElement(svg, "rect", x=str(x - 5), y=str(y - 5),
                               width="10", height="10")
        else:
            el = ET.SubElement(
                svg, "polygon",
                points=f"{x},{y - 6} {x - 6},{y + 5} {x + 6},{y + 5}")
        el.set("fill", "black")
        tt = ET.SubElement(el, "title")
        tt.text = label
    for a, b, c, d in arrows:
        x0, y0 = xy(a, b)
        x1, y1 = xy(c, d)
        ET.SubElement(svg, "line", x1=str(x0), y1=str(y0),
                      x2=str(x1), y2=str(y1), stroke="red")
        ET.SubElement(
            svg, "polygon",
            points=f"{x1},{y1} {x1 + 8},{y1 + 2} {x1 + 4},{y1 + 8}",
            fill="red")
    for stem in stems:
        t = ET.SubElement(svg, "text", x=str(xy(stem, 0)[0]),
                          y=str(h - pad + 18))
        t.set("text-anchor", "middle")
        t.text = str(stem)
    return ET.tostring(svg, encoding="unicode")
