"""Minimal free resolutions over the exterior algebra on Sq1 and over the
full Sq1,Sq2 subalgebra, with generator-count charts and tower counting
along fixed stems.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from .a1core import (PRODUCT, WORD_DEGREE, WORDS, A1Module, _require_bottom,
                     apply_word)
from .errors import NotStabilized, TruncationTooTight
from .f2linalg import insert

__all__ = [
    "ResolutionStage", "ExtChart",
    "minimal_resolution", "ext_dims", "h0_tower_counts",
    "tower_base",
]

# The exterior algebra on Sq1 is spanned by the first two words of A(1), and
# its products are those of A(1).
_ALGEBRAS = {"a0": WORDS[:2], "a1": WORDS}


@dataclass
class ResolutionStage:
    s: int
    # the free module's cells (generator index, word) in each degree up to
    # max_t, generators of the degree last
    basis: Dict[int, List[Tuple[int, str]]]
    # differential: value of each generator in the previous stage (or the
    # module itself at s = 0), as (degree, vector)
    d_values: List[Tuple[int, int]]

    @property
    def gens(self) -> List[int]:
        """Generator degrees, ascending."""
        return [k for k, _ in self.d_values]


@dataclass
class ExtChart:
    algebra: str
    max_s: int
    max_t: int
    # dims[(s, t)] = number of stage-s generators in degree t
    dims: Dict[Tuple[int, int], int]

    def dim(self, s: int, t: int) -> int:
        return self.dims.get((s, t), 0)


def minimal_resolution(m: A1Module, algebra: str = "a1",
                       max_s: int = 10, max_t: int = 20) -> List[ResolutionStage]:
    """Minimal resolution by free modules, reliable for internal degrees up
    to ``max_t``.  Generator counts give the dimensions of Ext groups.

    Each stage is built degree by degree.  In degree t its cells w g
    (|w| > 0, g below t) map to w d(g), formed when g becomes a generator:
    ``apply_word`` on the module at s = 0, the product w (g', u) = (g', w u)
    in the previous stage after.  That product is read off ``a1core.PRODUCT``,
    and its bit off a map from each generator's words to the bits of its
    cells, filled in as the cells are filed.  One elimination takes each
    cell's image with the cell's bit above the target's n bits.  Each
    vector the stage must cover (the module, then the previous kernel) that
    it does not reduce to zero becomes a new generator.  The cells' rows
    that it reduces to zero span the kernel in degree t, since the
    generators' values are independent modulo the image of the cells.

    A generator in degree t has cells only in degrees t..t+6, and every
    generator covers a vector, so a stage visits only the degrees up to
    ``max_t`` that hold cover vectors or pending cells w g, lowest first;
    elsewhere it has no cells and adds no kernel.

    Raises ``TruncationTooTight`` for a module truncated below, whose
    bottom the first stage would cover, and for one truncated above below
    ``max_t``.
    """
    if algebra not in _ALGEBRAS:
        raise ValueError(f"unknown algebra {algebra!r}")
    _require_bottom(m, "a resolution")
    if m.truncated_above is not None and m.truncated_above < max_t:
        raise TruncationTooTight(
            f"resolving through degree {max_t} needs the module beyond its "
            f"cutoff {m.truncated_above}")
    words = _ALGEBRAS[algebra][1:]
    # everything in degrees <= max_t is determined by degrees <= max_t
    cover = {k: [1 << i for i in range(m.dim(k))] for k in m.space.degrees}
    stages: List[ResolutionStage] = []
    # where[g][u]: the bit of the cell u g (|u| > 0) in its degree
    where: List[Dict[str, int]] = []
    for s in range(max_s + 1):
        prev = stages[-1] if stages else None
        below, where = where, []  # the previous stage's map, and this one's

        def images(k: int, v: int) -> List[Tuple[str, int]]:
            """The pairs (w, w d(g)) for the generator g with d(g) = v in
            degree k, over the words w of positive degree with w g in
            degrees up to max_t."""
            ws = [w for w in words if k + WORD_DEGREE[w] <= max_t]
            if prev is None:
                return [(w, apply_word(m, w, k, v)[1]) for w in ws]
            terms = []  # d(g) as (bits of the cells u g', u)
            cells = prev.basis[k]
            while v:
                low = v & -v
                g, u = cells[low.bit_length() - 1]
                terms.append((below[g], u))
                v ^= low
            out = []
            for w in ws:
                product, image = PRODUCT[w], 0
                for bits, u in terms:
                    wu = product[u]
                    if wu is not None:
                        image ^= bits[wu]
                out.append((w, image))
            return out

        stage = ResolutionStage(s, {}, [])
        kernel: Dict[int, List[int]] = {}
        # the cells w g in each degree, with their images w d(g)
        pending: Dict[int, List[Tuple[int, str, int]]] = {}
        covered = iter(sorted(k for k in cover if k <= max_t))
        c = next(covered, None)
        while pending or c is not None:
            t = min(pending, default=c)
            if c is not None and c <= t:
                t, c = c, next(covered, None)
            n = m.dim(t) if prev is None else len(prev.basis.get(t, ()))
            mask = (1 << n) - 1
            pivots: Dict[int, int] = {}
            cells: List[Tuple[int, str]] = []
            for gi, w, image in pending.pop(t, ()):
                row = insert(pivots, image | 1 << (n + len(cells)), mask)
                if not row & mask:
                    kernel.setdefault(t, []).append(row >> n)
                where[gi][w] = 1 << len(cells)
                cells.append((gi, w))
            for v in cover.get(t, ()):
                if insert(pivots, v | 1 << (n + len(cells)), mask) & mask:
                    gi = len(stage.d_values)
                    for w, image in images(t, v):
                        pending.setdefault(t + WORD_DEGREE[w], []).append(
                            (gi, w, image))
                    where.append({})
                    cells.append((gi, "1"))
                    stage.d_values.append((t, v))
            if cells:
                stage.basis[t] = cells
        stages.append(stage)
        cover = kernel
    return stages


def ext_dims(m: A1Module, algebra: str = "a1",
             max_s: int = 10, max_t: int = 20) -> ExtChart:
    """Bigraded dimension chart: entry (s, t) counts stage-s generators in
    internal degree t."""
    stages = minimal_resolution(m, algebra, max_s, max_t)
    dims: Dict[Tuple[int, int], int] = {}
    for st in stages:
        for g in st.gens:
            dims[(st.s, g)] = dims.get((st.s, g), 0) + 1
    return ExtChart(algebra, max_s, max_t, dims)


def tower_base(m: A1Module) -> int:
    """The lowest stem ``h0_tower_counts`` reports: the lower of the bottom
    degree and 0."""
    return min(m.lo, 0) if m.lo is not None else 0


def h0_tower_counts(m: A1Module, max_stem: int) -> Dict[int, int]:
    """Number of infinite multiplication-by-h0 towers in each stem from
    ``tower_base(m)`` up to ``max_stem``, read off where the A(1) chart
    dimensions stabilize in s (equal over 4 consecutive s)."""
    base, window = tower_base(m), 4
    offset = 8  # towers are isolated this far above the line s = stem - base
    max_s = max_stem - base + offset + window - 1
    max_t = max_s + max_stem
    chart = ext_dims(m, "a1", max_s, max_t)
    out: Dict[int, int] = {}
    for stem in range(base, max_stem + 1):
        s0 = stem - base + offset
        vals = [chart.dim(s, s + stem) for s in range(s0, s0 + window)]
        if len(set(vals)) != 1:
            raise NotStabilized(stem, vals)
        out[stem] = vals[0]
    return out
