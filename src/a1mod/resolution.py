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
    ``apply_word`` on the module at s = 0, after that one walk over the
    cells (g', u) of d(g) that XORs the bit of each nonzero w u g' into the
    image of w.  The pairs (w, w u) for each word u are read off
    ``a1core.PRODUCT`` once per call, and the bits off a map from each
    generator's words to the bits of its cells, filled in as the cells are
    filed.  One elimination takes each cell's image with the cell's bit
    above the target's n bits.  Each vector the stage must cover (the
    module, then the previous kernel) that it does not reduce to zero
    becomes a new generator.  The cells' rows that it reduces to zero span
    the kernel in degree t, since the generators' values are independent
    modulo the image of the cells.  The cells' images lie in the span of
    the cover vectors, so the scan stops when the pivots reach their count.

    A generator in degree t has cells in each degree t..t+6 up to ``max_t``
    (t..t+1 over A(0)) and in no other, and every generator covers a
    vector.  So a stage visits only the degrees that hold cover vectors or
    pending cells w g: it steps from t to t + 1 while that degree holds
    pending cells, and when it holds none, nothing is pending and the stage
    jumps to the next degree with cover vectors.  Elsewhere it has no cells
    and adds no kernel.

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
    # times[u]: the pairs (i, w u) over the words w = words[i] with w u
    # nonzero; fits[r]: the words of degree <= r, a prefix of the words
    times = {u: [(i, PRODUCT[w][u]) for i, w in enumerate(words)
                 if PRODUCT[w][u] is not None] for u in _ALGEBRAS[algebra]}
    fits = [[w for w in words if WORD_DEGREE[w] <= r]
            for r in range(WORD_DEGREE[words[-1]] + 1)]
    # everything in degrees <= max_t is determined by degrees <= max_t
    cover = {k: [1 << i for i in range(m.dim(k))]
             for k in m.space.degrees if k <= max_t}
    stages: List[ResolutionStage] = []
    # where[g][u]: the bit of the cell u g (|u| > 0) in its degree
    where: List[Dict[str, int]] = []
    for s in range(max_s + 1):
        prev = stages[-1].basis if stages else None
        below, where = where, []  # the previous stage's map, and this one's
        basis: Dict[int, List[Tuple[int, str]]] = {}
        d_values: List[Tuple[int, int]] = []
        kernel: Dict[int, List[int]] = {}
        # the cells w g in each degree, with their images w d(g)
        pending: Dict[int, List[Tuple[int, str, int]]] = {}
        covered = iter(sorted(cover))
        c = t = next(covered, max_t + 1)
        while t <= max_t:
            if t == c:
                c = next(covered, max_t + 1)
            n = m.dim(t) if prev is None else len(prev.get(t, ()))
            mask = (1 << n) - 1
            pivots: Dict[int, int] = {}
            cells: List[Tuple[int, str]] = []
            rows = []
            for gi, w, image in pending.pop(t, ()):
                row = insert(pivots, image | 1 << (n + len(cells)), mask)
                if not row & mask:
                    rows.append(row >> n)
                where[gi][w] = 1 << len(cells)
                cells.append((gi, w))
            if rows:
                kernel[t] = rows
            vectors = cover.get(t, ())
            for v in vectors:
                if len(pivots) == len(vectors):  # the rest are spanned
                    break
                if not insert(pivots, v | 1 << (n + len(cells)), mask) & mask:
                    continue
                fit = fits[min(max_t - t, len(fits) - 1)]
                if prev is None:
                    images = [apply_word(m, w, t, v)[1] for w in fit]
                else:
                    images, terms, x = [0] * len(fit), prev[t], v
                    while x:
                        low = x & -x
                        g, u = terms[low.bit_length() - 1]
                        bits = below[g]
                        for i, wu in times[u]:
                            if i < len(fit):
                                images[i] ^= bits[wu]
                        x ^= low
                gi = len(d_values)
                for w, image in zip(fit, images):
                    k = t + WORD_DEGREE[w]
                    at = pending.get(k)
                    if at is None:
                        pending[k] = [(gi, w, image)]
                    else:
                        at.append((gi, w, image))
                where.append({})
                cells.append((gi, "1"))
                d_values.append((t, v))
            if cells:
                basis[t] = cells
            t += 1
            if t not in pending:  # then nothing is pending at all
                t = c
        stages.append(ResolutionStage(s, basis, d_values))
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
