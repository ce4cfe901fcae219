"""Minimal free resolutions over the exterior algebra on Sq1 and over the
full Sq1,Sq2 subalgebra, with generator-count charts and tower counting
along fixed stems.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

from .a1core import LMUL, WORD_DEGREE, WORDS, A1Module, apply_word
from .errors import NotStabilized, TruncationTooTight
from .f2linalg import BitMatrix, Subspace, complement, kernel

__all__ = [
    "ResolutionStage", "ExtChart",
    "minimal_resolution", "ext_dims", "h0_tower_count", "h0_tower_counts",
]

A0_WORDS: Tuple[str, ...] = ("1", "Sq1")
A0_LMUL = {"Sq1": {"1": "Sq1", "Sq1": None}}

_ALGEBRAS = {
    "a0": (A0_WORDS, A0_LMUL),
    "a1": (WORDS, LMUL),
}


@dataclass
class _FreeModule:
    """A free module on homogeneous generators, with an explicit monomial
    basis (generator index, word) per degree, cut off above ``max_t``.

    Unlike ``a1core.free_module_on`` it is neither validated nor built in
    degrees the resolution never reads, which keeps each stage cheap."""

    words: Tuple[str, ...]
    lmul: Dict[str, Dict[str, Optional[str]]]
    gens: List[int]                     # generator degrees
    max_t: int

    def __post_init__(self):
        self.basis: Dict[int, List[Tuple[int, str]]] = {}
        self.index: Dict[Tuple[int, str], Tuple[int, int]] = {}
        for gi, gd in enumerate(self.gens):
            for w in self.words:
                d = gd + WORD_DEGREE[w]
                if d > self.max_t:
                    continue
                self.basis.setdefault(d, [])
                self.index[(gi, w)] = (d, len(self.basis[d]))
                self.basis[d].append((gi, w))

    def dim(self, k: int) -> int:
        return len(self.basis.get(k, ()))

    def degrees(self) -> List[int]:
        return sorted(self.basis)

    def act(self, sq: str, k: int, v: int) -> int:
        """Left multiplication by a generator of the algebra."""
        out = 0
        table = self.lmul[sq]
        for i, (gi, w) in enumerate(self.basis.get(k, ())):
            if not (v >> i) & 1:
                continue
            tgt = table[w]
            if tgt is None:
                continue
            pos = self.index.get((gi, tgt))
            if pos is not None:
                out ^= 1 << pos[1]
        return out


@dataclass
class ResolutionStage:
    s: int
    gens: List[int]                       # generator degrees, ascending
    free: _FreeModule
    # differential: value of each generator in the previous stage (or the
    # module itself at s = 0), as (degree, vector)
    d_values: List[Tuple[int, int]]


@dataclass
class ExtChart:
    algebra: str
    max_s: int
    max_t: int
    # dims[(s, t)] = number of stage-s generators in degree t
    dims: Dict[Tuple[int, int], int]

    def dim(self, s: int, t: int) -> int:
        return self.dims.get((s, t), 0)


def _differential_matrix(free: _FreeModule,
                         target: Union[A1Module, _FreeModule],
                         d_values: List[Tuple[int, int]], k: int) -> BitMatrix:
    """Matrix of the stage differential in degree k: F_k -> target_k."""
    return BitMatrix.from_columns(
        target.dim(k), [apply_word(target, w, *d_values[gi])[1]
                        for gi, w in free.basis.get(k, ())])


def minimal_resolution(m: A1Module, algebra: str = "a1",
                       max_s: int = 10, max_t: int = 20) -> List[ResolutionStage]:
    """Minimal resolution by free modules, reliable for internal degrees up
    to ``max_t``.  Generator counts give the dimensions of Ext groups."""
    if algebra not in _ALGEBRAS:
        raise ValueError(f"unknown algebra {algebra!r}")
    if m.truncated_above is not None and m.truncated_above < max_t:
        raise TruncationTooTight(
            f"resolving through degree {max_t} needs the module beyond its "
            f"cutoff {m.truncated_above}")
    words, lmul = _ALGEBRAS[algebra]

    stages: List[ResolutionStage] = []
    target: Union[A1Module, _FreeModule] = m
    # current kernel (for s = 0: the whole module), degreewise; everything in
    # degrees <= max_t is determined by degrees <= max_t, so cap there.
    current: Dict[int, Subspace] = {k: Subspace.full(m.dim(k))
                                    for k in m.space.degrees if k <= max_t}

    for s in range(max_s + 1):
        # minimal generators: degree by degree, complement of the action image
        gens: List[int] = []
        d_values: List[Tuple[int, int]] = []
        degs = sorted(current)
        for k in degs:
            if k > max_t:
                continue
            cur = current[k]
            if cur.dim == 0:
                continue
            decomposable: List[int] = []
            for sq, step in (("Sq1", 1), ("Sq2", 2)):
                if sq == "Sq2" and algebra == "a0":
                    continue
                below = current.get(k - step)
                if below is None:
                    continue
                for b in below.basis:
                    v = target.act(sq, k - step, b)
                    if v:
                        decomposable.append(v)
            dec = Subspace.span(decomposable, target.dim(k))
            for g in complement(dec, cur):
                gens.append(k)
                d_values.append((k, g))
        free = _FreeModule(words, lmul, gens, max_t)
        stages.append(ResolutionStage(s, gens, free, d_values))
        if s == max_s:
            break
        # kernel of the differential, degreewise, becomes the next target
        nxt: Dict[int, Subspace] = {}
        for k in free.degrees():
            mat = _differential_matrix(free, target, d_values, k)
            nxt[k] = kernel(mat)
        target = free
        current = nxt
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


def h0_tower_counts(m: A1Module, max_stem: int, window: int = 4,
                    algebra: str = "a1") -> Dict[int, int]:
    """Number of infinite multiplication-by-h0 towers in each stem from
    min(bottom degree, 0) up to ``max_stem``, read off where the chart
    dimensions stabilize in s."""
    base = min(m.lo, 0) if m.lo is not None else 0
    offset = 8  # towers are isolated this far above the line s = stem - base
    max_s = max_stem - base + offset + window - 1
    max_t = max_s + max_stem
    chart = ext_dims(m, algebra, max_s, max_t)
    out: Dict[int, int] = {}
    for stem in range(base, max_stem + 1):
        s0 = stem - base + offset
        vals = [chart.dim(s, s + stem) for s in range(s0, s0 + window)]
        if len(set(vals)) != 1:
            raise NotStabilized(stem, vals)
        out[stem] = vals[0]
    return out


def h0_tower_count(m: A1Module, stem: int, window: int = 4,
                   algebra: str = "a1") -> int:
    return h0_tower_counts(m, stem, window, algebra)[stem]
