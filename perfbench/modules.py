"""Module presentations built by the benchmark itself, apart from a1mod.

A ``Spec`` holds a graded module over A(1) as plain data: the dimension of
each degree and, for each basis vector, its image under Sq1 and Sq2 as a
bitmask in the target degree.  The benchmark builds every input from these,
so that its oracles never rest on a1mod's own constructors, and hands them
to a1mod either as ``A1Module`` objects or as ``.mod`` text.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

# The additive basis of A(1) by degree, and left multiplication by the two
# generators (rightmost factor acts first; None is zero).
WORDS: Tuple[Tuple[str, int], ...] = (
    ("1", 0), ("Sq1", 1), ("Sq2", 2), ("Sq1Sq2", 3), ("Sq2Sq1", 3),
    ("Sq1Sq2Sq1", 4), ("Sq2Sq1Sq2", 5), ("Sq2Sq1Sq2Sq1", 6),
)
LEFT = {
    "Sq1": {"1": "Sq1", "Sq2": "Sq1Sq2", "Sq2Sq1": "Sq1Sq2Sq1",
            "Sq2Sq1Sq2": "Sq2Sq1Sq2Sq1"},
    "Sq2": {"1": "Sq2", "Sq1": "Sq2Sq1", "Sq2": "Sq1Sq2Sq1",
            "Sq1Sq2": "Sq2Sq1Sq2", "Sq1Sq2Sq1": "Sq2Sq1Sq2Sq1"},
}
# Poincare series of A(1): number of basis words in each degree.
A1_SERIES = {0: 1, 1: 1, 2: 1, 3: 2, 4: 1, 5: 1, 6: 1}
A0_SERIES = {0: 1, 1: 1}


@dataclass
class Spec:
    dims: Dict[int, int]
    sq1: Dict[int, List[int]] = field(default_factory=dict)
    sq2: Dict[int, List[int]] = field(default_factory=dict)
    cut: Optional[int] = None          # truncated above this degree
    name: str = "M"

    @property
    def lo(self) -> int:
        return min(self.dims)

    def image(self, step: int, k: int, i: int) -> int:
        cols = (self.sq1 if step == 1 else self.sq2).get(k)
        return cols[i] if cols else 0


def _from_edges(cells: List[Tuple[int, str]], edges1, edges2, cut=None,
                name="M") -> Spec:
    """A spec from labelled cells (degree, key) and action edges key -> keys."""
    dims: Dict[int, int] = {}
    pos: Dict[str, Tuple[int, int]] = {}
    for deg, key in cells:
        if cut is not None and deg > cut:
            continue
        pos[key] = (deg, dims.get(deg, 0))
        dims[deg] = dims.get(deg, 0) + 1
    spec = Spec(dims, cut=cut, name=name)
    for table, edges in ((spec.sq1, edges1), (spec.sq2, edges2)):
        for src, tgt in edges:
            if src not in pos or tgt not in pos:
                continue
            sd, si = pos[src]
            cols = table.setdefault(sd, [0] * dims[sd])
            cols[si] ^= 1 << pos[tgt][1]
    return spec


def free(t: int = 0) -> Spec:
    """A(1) on one generator in degree t."""
    cells = [(t + d, w) for w, d in WORDS]
    e1 = [(w, v) for w, v in LEFT["Sq1"].items()]
    e2 = [(w, v) for w, v in LEFT["Sq2"].items()]
    return _from_edges(cells, e1, e2, name="free")


def f2(t: int = 0) -> Spec:
    return Spec({t: 1}, name="F2")


def seagull(n: int, t: int = 0, cut: Optional[int] = None) -> Spec:
    """The length-n seagull from degree t; wings g, Sq2 g, Sq1Sq2 g,
    Sq2Sq1Sq2 g in degrees 4j, 4j+2, 4j+3, 4j+5, linked by
    Sq1 g_j = Sq2Sq1Sq2 g_(j-1).  With ``cut``, degrees above it are
    dropped and the module is marked truncated."""
    cells, e1, e2 = [], [], []
    for j in range(n):
        b = t + 4 * j
        cells += [(b, f"g{j}"), (b + 2, f"a{j}"), (b + 3, f"b{j}"),
                  (b + 5, f"c{j}")]
        e2 += [(f"g{j}", f"a{j}"), (f"b{j}", f"c{j}")]
        e1.append((f"a{j}", f"b{j}"))
        if j:
            e1.append((f"g{j}", f"c{j - 1}"))
    return _from_edges(cells, e1, e2, cut=cut, name="seagull")


def seagull_inf(cut: int, t: int = 0) -> Spec:
    """The infinite seagull from degree t, truncated above ``cut``."""
    return seagull((cut - t) // 4 + 1, t, cut=cut)


def direct_sum(a: Spec, b: Spec) -> Spec:
    cut = min((c for c in (a.cut, b.cut) if c is not None), default=None)
    dims = {k: a.dims.get(k, 0) + b.dims.get(k, 0)
            for k in set(a.dims) | set(b.dims) if cut is None or k <= cut}
    out = Spec(dims, cut=cut, name=f"{a.name}_{b.name}")
    for step, table in ((1, out.sq1), (2, out.sq2)):
        for k in dims:
            if k + step not in dims:
                continue
            na, nb = a.dims.get(k, 0), b.dims.get(k, 0)
            sa = a.dims.get(k + step, 0)
            cols = [a.image(step, k, i) for i in range(na)]
            cols += [b.image(step, k, i) << sa for i in range(nb)]
            if any(cols):
                table[k] = cols
    return out


def tensor(a: Spec, b: Spec) -> Spec:
    """Tensor product with the diagonal (Cartan) action, for untruncated
    factors:  Sq1(x y) = Sq1x y + x Sq1y,  Sq2(x y) = Sq2x y + Sq1x Sq1y + x Sq2y."""
    index: Dict[Tuple[int, int, int, int], int] = {}
    dims: Dict[int, int] = {}
    for p in sorted(a.dims):
        for q in sorted(b.dims):
            for i in range(a.dims[p]):
                for j in range(b.dims[q]):
                    k = p + q
                    index[(p, i, q, j)] = dims.get(k, 0)
                    dims[k] = dims.get(k, 0) + 1

    def pure(pa, va, qb, vb) -> int:
        out = 0
        for i in range(a.dims.get(pa, 0)):
            if va >> i & 1:
                for j in range(b.dims.get(qb, 0)):
                    if vb >> j & 1:
                        out ^= 1 << index[(pa, i, qb, j)]
        return out

    out = Spec(dims, name=f"{a.name}_x_{b.name}")
    for (p, i, q, j), pos in index.items():
        x, y = 1 << i, 1 << j
        s1 = (pure(p + 1, a.image(1, p, i), q, y)
              ^ pure(p, x, q + 1, b.image(1, q, j)))
        s2 = (pure(p + 2, a.image(2, p, i), q, y)
              ^ pure(p + 1, a.image(1, p, i), q + 1, b.image(1, q, j))
              ^ pure(p, x, q + 2, b.image(2, q, j)))
        k = p + q
        for table, val in ((out.sq1, s1), (out.sq2, s2)):
            if val:
                table.setdefault(k, [0] * dims[k])[pos] = val
    return out


def twist(m: Spec, rng: random.Random) -> Spec:
    """The same module in a random basis: in each degree, replace basis
    vector i by e_i + e_j for 3 * dim random pairs.  Columns out of the degree add,
    and coordinates of vectors landing in it transform inversely."""
    sq1 = {k: list(v) for k, v in m.sq1.items()}
    sq2 = {k: list(v) for k, v in m.sq2.items()}
    for k in sorted(m.dims):
        d = m.dims[k]
        if d < 2:
            continue
        for _ in range(3 * d):
            i, j = rng.sample(range(d), 2)
            for table in (sq1, sq2):
                if k in table:
                    table[k][i] ^= table[k][j]
            for table, step in ((sq1, 1), (sq2, 2)):
                for ci, col in enumerate(table.get(k - step, ())):
                    if col >> i & 1:
                        table[k - step][ci] = col ^ (1 << j)
    return Spec(dict(m.dims), sq1, sq2, m.cut, m.name)


def labels(m: Spec) -> Dict[int, List[str]]:
    return {k: [f"x{k}_{i}" for i in range(d)] for k, d in sorted(m.dims.items())}


def to_module(m: Spec, a1mod):
    """The spec as an ``A1Module`` built through a1mod's public constructor."""
    BitMatrix = a1mod.f2linalg.BitMatrix

    def mats(table, step):
        out = {}
        for k, cols in table.items():
            rows = m.dims.get(k + step, 0)
            if rows:
                out[k] = BitMatrix(rows, len(cols), tuple(
                    sum((c >> r & 1) << ci for ci, c in enumerate(cols))
                    for r in range(rows)))
        return out

    return a1mod.module(labels(m), mats(m.sq1, 1), mats(m.sq2, 2),
                        truncated_above=m.cut, name=m.name)


def to_text(m: Spec) -> str:
    """The spec in the ``.mod`` file format."""
    lab = labels(m)
    lines = [f"module {m.name}"]
    for k, row in lab.items():
        lines += [f"gen {s} {k}" for s in row]
    for kw, table, step in (("sq1", m.sq1, 1), ("sq2", m.sq2, 2)):
        for k in sorted(table):
            for i, col in enumerate(table[k]):
                tgt = [lab[k + step][r] for r in range(m.dims.get(k + step, 0))
                       if col >> r & 1]
                if tgt:
                    lines.append(f"{kw} {lab[k][i]} = {' + '.join(tgt)}")
    if m.cut is not None:
        lines.append(f"truncated_above {m.cut}")
    return "\n".join(lines) + "\n"
