"""Reference solvers for ``f2linalg`` and for the closed forms in
``a1core`` and ``davismahowald``.

The linear algebra references share one column-scan elimination, a
different algorithm from the lowest-bit pivot table of ``f2linalg``.  The
module references pack every entry of an unknown graded map into one GF(2)
system and solve it, which is slow but independent of the closed forms'
homological algebra.  ``tensor_reference`` builds the tensor product one
output bit at a time, where ``a1core.tensor`` shifts whole Kronecker
blocks.  ``minimal_resolution_reference`` visits every degree of every
stage and multiplies words factor by factor, where
``resolution.minimal_resolution`` visits only degrees with cells or cover
vectors and reads products off a table.  The tests compare each pair on the
same inputs.
"""

from typing import Dict, List, Optional, Tuple

from a1mod.a1core import (WORD_DEGREE, A1Module, GradedMap, GradedSpace,
                          _bound, _extent, _shifted, _times, _word_matrix,
                          apply_word, module, zero_module)
from a1mod.errors import ShapeMismatch, TruncationTooTight
from a1mod.f2linalg import BitMatrix, insert
from a1mod.resolution import _ALGEBRAS, ResolutionStage


def eliminate(rows: List[int], cols: int) -> Tuple[List[int], List[int]]:
    """Full reduction scanning the columns in order; returns (reduced
    nonzero rows, pivot columns), both in ascending pivot order."""
    pivots: List[int] = []
    out: List[int] = []
    for col in range(cols):
        bit = 1 << col
        pivot_row = None
        for i, r in enumerate(rows):
            if r & bit:
                pivot_row = rows.pop(i)
                break
        if pivot_row is None:
            continue
        rows = [r ^ pivot_row if r & bit else r for r in rows]
        out = [r ^ pivot_row if r & bit else r for r in out]
        out.append(pivot_row)
        pivots.append(col)
    return out, pivots


def span_reference(vectors: List[int], n: int) -> Tuple[int, ...]:
    return tuple(eliminate(list(vectors), n)[0])


def rank_reference(a: BitMatrix) -> int:
    return len(eliminate(list(a.data), a.cols)[1])


def kernel_reference(a: BitMatrix) -> Tuple[int, ...]:
    reduced, pivots = eliminate(list(a.data), a.cols)
    vecs = []
    for f in range(a.cols):
        if f not in pivots:
            v = 1 << f
            for r, p in zip(reduced, pivots):
                if (r >> f) & 1:
                    v |= 1 << p
            vecs.append(v)
    return span_reference(vecs, a.cols)


def solve_reference(a: BitMatrix, b: int) -> Optional[int]:
    """The solution with every free variable zero, or None."""
    n = a.cols
    rows = [a.data[i] | ((b >> i & 1) << n) for i in range(a.rows)]
    reduced, pivots = eliminate(rows, n + 1)
    x = 0
    for r, p in zip(reduced, pivots):
        if p == n:
            return None
        if (r >> n) & 1:
            x |= 1 << p
    return x


def complement_reference(inner: Tuple[int, ...], outer: Tuple[int, ...],
                         n: int) -> List[int]:
    """Each vector of ``outer`` that raises the rank of what precedes it."""
    current = list(inner)
    picked = []
    for v in outer:
        reduced, _ = eliminate(current + [v], n)
        if len(reduced) > len(current):
            current = reduced
            picked.append(v)
    return picked


def _solve_packed(rows: List[int], rhs: List[int], n: int):
    b = 0
    for i, bit in enumerate(rhs):
        b |= bit << i
    return solve_reference(BitMatrix(len(rows), n, tuple(rows)), b)


def linear_map_reference(source: A1Module, target: A1Module,
                         gens: List[Tuple[int, int]],
                         values: List[Tuple[int, int]],
                         shift: int = 0) -> GradedMap:
    """One solution of the commutation and generator-value equations over
    the entries of the map (free entries zero); raises ``ShapeMismatch``
    when there is none."""
    degs = source.space.degrees
    offsets: Dict[int, int] = {}
    n_unknown = 0
    for k in degs:
        offsets[k] = n_unknown
        n_unknown += source.dim(k) * target.dim(k + shift)

    def entry(k: int, row: int, col: int) -> int:
        return offsets[k] + row * source.dim(k) + col

    rows: List[int] = []
    rhs: List[int] = []
    # commute with sq1 and sq2 wherever both sides are defined
    for sq_shift, s_map, t_map in ((1, source.sq1, target.sq1),
                                   (2, source.sq2, target.sq2)):
        for k in degs:
            tk = k + shift
            out_deg = k + sq_shift
            rows_out = target.dim(out_deg + shift)
            if rows_out == 0 and source.dim(out_deg) == 0:
                continue
            if not (target.degree_present(out_deg + shift)
                    and source.degree_present(out_deg)):
                continue
            smat, tmat = s_map.mat(k), t_map.mat(tk)
            for r in range(rows_out):
                for c in range(source.dim(k)):
                    bits = 0
                    # (F o sq)_rc + (sq o F)_rc
                    for j in range(source.dim(out_deg)):
                        if smat.get(j, c):
                            bits ^= 1 << entry(out_deg, r, j)
                    for j in range(target.dim(tk)):
                        if tmat.get(r, j):
                            bits ^= 1 << entry(k, j, c)
                    rows.append(bits)
                    rhs.append(0)
    for (gk, gv), (vk, vv) in zip(gens, values):
        if vk != gk + shift:
            raise ShapeMismatch("generator value in the wrong degree")
        for r in range(target.dim(vk)):
            bits = 0
            for c in range(source.dim(gk)):
                if (gv >> c) & 1:
                    bits ^= 1 << entry(gk, r, c)
            rows.append(bits)
            rhs.append((vv >> r) & 1)
    x = _solve_packed(rows, rhs, n_unknown)
    if x is None:
        raise ShapeMismatch("no action-preserving map with the given values")
    mats = {k: BitMatrix(target.dim(k + shift), source.dim(k), tuple(
        (x >> entry(k, r, 0)) & ((1 << source.dim(k)) - 1)
        for r in range(target.dim(k + shift)))) for k in degs}
    return GradedMap(source.space, target.space, shift, mats)


def sq4_reference(m: A1Module) -> bool:
    """Whether Sq1 S + S Sq1 = Sq2Sq1Sq2 has a solution S of degree 4 on
    every degree whose target lies at or below the truncation cutoff."""
    degs = m.space.degrees
    offsets: Dict[int, int] = {}
    n = 0
    for k in degs:
        if m.dim(k + 4):
            offsets[k] = n
            n += m.dim(k) * m.dim(k + 4)

    def entry(k: int, r: int, c: int) -> int:
        return offsets[k] + r * m.dim(k) + c

    rows: List[int] = []
    rhs: List[int] = []
    for k in degs:
        if m.truncated_above is not None and k + 5 > m.truncated_above:
            continue
        wing = _word_matrix(m, "Sq2Sq1Sq2", k)
        sq1_hi, sq1_lo = m.sq1.mat(k + 4), m.sq1.mat(k)
        for r in range(m.dim(k + 5)):
            for c in range(m.dim(k)):
                bits = 0
                if k in offsets:
                    for j in range(m.dim(k + 4)):
                        if sq1_hi.get(r, j):
                            bits ^= 1 << entry(k, j, c)
                if (k + 1) in offsets:
                    for j in range(m.dim(k + 1)):
                        if sq1_lo.get(j, c):
                            bits ^= 1 << entry(k + 1, r, j)
                rows.append(bits)
                rhs.append(wing.get(r, c))
    return _solve_packed(rows, rhs, n) is not None


def tensor_reference(a: A1Module, b: A1Module) -> A1Module:
    """``a1core.tensor`` cell by cell: each output bit is found through a
    dictionary from (p, i, q, j) to its position and each term through
    ``GradedMap.apply``.  Tensor product with the diagonal action.

    Sq1(x (x) y) = Sq1 x (x) y + x (x) Sq1 y
    Sq2(x (x) y) = Sq2 x (x) y + Sq1 x (x) Sq1 y + x (x) Sq2 y

    Basis order in each degree: source degrees of the left factor ascending,
    then (left index, right index) lexicographic.  Raises
    ``TruncationTooTight`` when one factor is truncated above and the other
    below: their missing degrees pair up in every degree of the product.
    """
    for x, y in ((a, b), (b, a)):
        if x.truncated_above is not None and y.truncated_below is not None:
            raise TruncationTooTight(
                f"tensor of a module truncated above {x.truncated_above} and "
                f"one truncated below {y.truncated_below} has no complete degree")
    (alo, ahi), (blo, bhi) = _extent(a), _extent(b)
    if (None, None) in ((alo, ahi), (blo, bhi)):  # an exact zero factor
        return zero_module()
    # a degree is complete when every factor pair summing to it is
    cut = _bound(_shifted(a.truncated_above, blo),
                 _shifted(b.truncated_above, alo), min)
    floor = _bound(_shifted(a.truncated_below, bhi),
                   _shifted(b.truncated_below, ahi), max)

    # index[(p, i, q, j)] -> position in degree p+q
    labels: Dict[int, List[str]] = {}
    index: Dict[Tuple[int, int, int, int], int] = {}
    for p in a.space.degrees:
        for q in b.space.degrees:
            k = p + q
            if cut is not None and k > cut:
                continue
            labels.setdefault(k, [])
    for k in sorted(labels):
        pos = 0
        for p in a.space.degrees:
            q = k - p
            for i, la in enumerate(a.space.labels.get(p, ())):
                for j, lb in enumerate(b.space.labels.get(q, ())):
                    index[(p, i, q, j)] = pos
                    labels[k].append(f"{la}(x){lb}")
                    pos += 1
    space = GradedSpace(labels)

    def build(shift: int) -> Dict[int, BitMatrix]:
        mats = {}
        for k in space.degrees:
            kt = k + shift
            if space.dim(kt) == 0 or (cut is not None and kt > cut):
                continue
            cols: List[int] = []
            for p in a.space.degrees:
                q = k - p
                for i in range(a.dim(p)):
                    for j in range(b.dim(q)):
                        out = 0
                        terms: List[Tuple[int, int, int, int]] = []
                        if shift == 1:
                            terms = [(p + 1, a.sq1.apply(p, 1 << i), q, 1 << j),
                                     (p, 1 << i, q + 1, b.sq1.apply(q, 1 << j))]
                        else:
                            terms = [(p + 2, a.sq2.apply(p, 1 << i), q, 1 << j),
                                     (p + 1, a.sq1.apply(p, 1 << i),
                                      q + 1, b.sq1.apply(q, 1 << j)),
                                     (p, 1 << i, q + 2, b.sq2.apply(q, 1 << j))]
                        for (pp, va, qq, vb) in terms:
                            if va == 0 or vb == 0:
                                continue
                            for ii in range(a.dim(pp)):
                                if not (va >> ii) & 1:
                                    continue
                                for jj in range(b.dim(qq)):
                                    if (vb >> jj) & 1:
                                        out ^= 1 << index[(pp, ii, qq, jj)]
                        cols.append(out)
            mats[k] = BitMatrix.from_columns(space.dim(kt), cols)
        return mats

    name = f"{a.name}(x){b.name}" if a.name and b.name else ""
    return module(labels, build(1), build(2), truncated_above=cut,
                  truncated_below=floor, name=name)


def minimal_resolution_reference(m: A1Module, algebra: str = "a1",
                                 max_s: int = 10,
                                 max_t: int = 20) -> List[ResolutionStage]:
    """Minimal resolution by free modules, reliable for internal degrees up
    to ``max_t``.  Generator counts give the dimensions of Ext groups.

    Each stage is built degree by degree.  In degree t its cells w g
    (|w| > 0, g below t) map to w d(g): ``apply_word`` on the module at
    s = 0, the product w (g', u) = (g', w u) in the previous stage after.
    One elimination takes each cell's image with the cell's bit above the
    target's n bits.  Each vector the stage must cover (the module, then
    the previous kernel) that it does not reduce to zero becomes a new
    generator.  The cells' rows that it reduces to zero span the kernel in
    degree t, since the generators' values are independent modulo the image
    of the cells.
    """
    if algebra not in _ALGEBRAS:
        raise ValueError(f"unknown algebra {algebra!r}")
    if m.truncated_above is not None and m.truncated_above < max_t:
        raise TruncationTooTight(
            f"resolving through degree {max_t} needs the module beyond its "
            f"cutoff {m.truncated_above}")
    words = _ALGEBRAS[algebra]
    lo = max_t + 1 if m.lo is None else m.lo
    # everything in degrees <= max_t is determined by degrees <= max_t
    cover = {k: [1 << i for i in range(m.dim(k))] for k in m.space.degrees}
    stages: List[ResolutionStage] = []
    for s in range(max_s + 1):
        prev = stages[-1] if stages else None
        if prev is not None:
            index = {k: {c: i for i, c in enumerate(cells)}
                     for k, cells in prev.basis.items()}

        def column(w: str, k: int, v: int) -> int:
            if prev is None:
                return apply_word(m, w, k, v)[1]
            out = 0
            while v:
                low = v & -v
                g, u = prev.basis[k][low.bit_length() - 1]
                wu = _times(w, u)
                if wu is not None:
                    out ^= 1 << index[k + WORD_DEGREE[w]][(g, wu)]
                v ^= low
            return out

        stage = ResolutionStage(s, [], {}, [])
        kernel: Dict[int, List[int]] = {}
        decomposable: Dict[int, List[Tuple[int, str]]] = {}  # the cells w g
        for t in range(lo, max_t + 1):
            cells = decomposable.pop(t, [])
            n = m.dim(t) if prev is None else len(prev.basis.get(t, ()))
            mask = (1 << n) - 1
            pivots: Dict[int, int] = {}
            for j, (gi, w) in enumerate(cells):
                row = column(w, *stage.d_values[gi]) | 1 << (n + j)
                row = insert(pivots, row, mask)
                if not row & mask:
                    kernel.setdefault(t, []).append(row >> n)
            for v in cover.get(t, ()):
                if insert(pivots, v | 1 << (n + len(cells)), mask) & mask:
                    gi = len(stage.gens)
                    for w in words[1:]:
                        decomposable.setdefault(t + WORD_DEGREE[w], []).append(
                            (gi, w))
                    cells.append((gi, "1"))
                    stage.gens.append(t)
                    stage.d_values.append((t, v))
            if cells:
                stage.basis[t] = cells
        stages.append(stage)
        cover = kernel
    return stages
