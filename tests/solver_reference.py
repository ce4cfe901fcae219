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
vectors and reads products off a table.  ``classify_reference`` and
``strip_free_reference`` run one span, kernel, complement or solve per
question, where ``structure.classify`` and ``structure.strip_free`` share one
elimination per degree.  ``_word_matrix`` is a verbatim copy of the word
matrix that ``a1core`` built factor by factor with ``BitMatrix.mul`` before
``a1core._word_rows`` replaced it; the references use it, and the tests
use it as a route to word matrices apart from ``_word_rows``.
``parse_module_reference`` and ``serialize_reference`` are verbatim copies
of the ``.mod`` reader and writer from before they worked once per line
and once per set bit.  The tests compare each pair on the same inputs.
"""

from typing import Dict, List, Optional, Set, Tuple

from a1mod.a1core import (DUAL_WORD, PRODUCT, TOP_WORD, WORD_DEGREE, WORDS,
                          A1Module, GradedMap, GradedSpace, _bound, _extent,
                          _require_bottom, _shifted, apply_word, module,
                          module_from_edges, zero_module)
from a1mod.errors import (NotQ0Local, ParseError, RelationViolation,
                          ShapeMismatch, TruncationTooTight)
from a1mod.f2linalg import (BitMatrix, Subspace, complement, insert, kernel,
                            mul_rows, solve)
from a1mod.margolis import margolis_homology
from a1mod.modfile import _safe_labels
from a1mod.resolution import _ALGEBRAS, ResolutionStage
from a1mod.structure import (BOUNDARY, DecompositionReport, FlockDescriptor,
                             SeagullEntry)


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


def _word_matrix(m: A1Module, word: str, k: int) -> BitMatrix:
    """Matrix of a composite word (rightmost factor first) from degree k."""
    out = None
    for i in range(len(word) - 3, -1, -3):  # rightmost factor first
        sq = m.sq1 if word[i:i + 3] == "Sq1" else m.sq2
        out = sq.mat(k) if out is None else sq.mat(k).mul(out)
        k += sq.shift
    return BitMatrix.identity(m.dim(k)) if out is None else out


def _solve_packed(rows: List[int], rhs: List[int], n: int):
    b = 0
    for i, bit in enumerate(rhs):
        b |= bit << i
    return solve_reference(BitMatrix(len(rows), n, tuple(rows)), b)


def degree_present(m: A1Module, k: int) -> bool:
    """True if degree k of m carries complete information."""
    if m.truncated_above is not None and k > m.truncated_above:
        return False
    if m.truncated_below is not None and k < m.truncated_below:
        return False
    return True


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
            if not (degree_present(target, out_deg + shift)
                    and degree_present(source, out_deg)):
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
    if m.truncated_below is not None:
        raise TruncationTooTight(
            f"a resolution needs the bottom of the module; it is truncated "
            f"below degree {m.truncated_below}")
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
                wu = PRODUCT[w][u]
                if wu is not None:
                    out ^= 1 << index[k + WORD_DEGREE[w]][(g, wu)]
                v ^= low
            return out

        stage = ResolutionStage(s, {}, [])
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
                    gi = len(stage.d_values)
                    for w in words[1:]:
                        decomposable.setdefault(t + WORD_DEGREE[w], []).append(
                            (gi, w))
                    cells.append((gi, "1"))
                    stage.d_values.append((t, v))
            if cells:
                stage.basis[t] = cells
        stages.append(stage)
        cover = kernel
    return stages


def _submodule_restriction(m: A1Module, sub: Dict[int, Subspace]) -> A1Module:
    """The module structure induced on an action-closed graded subspace."""
    labels: Dict[int, List[str]] = {}
    for k, s in sorted(sub.items()):
        if s.dim:
            labels[k] = [f"k{k}_{i}" for i in range(s.dim)]

    def restrict(gmap, step):
        mats = {}
        for k, s in sub.items():
            if s.dim == 0:
                continue
            tgt = sub.get(k + step)
            if tgt is None or tgt.dim == 0:
                continue
            cols = [tgt.coords(gmap.apply(k, b)) for b in s.basis]
            if None in cols:
                raise ShapeMismatch("subspace not closed under the action")
            mats[k] = BitMatrix.from_columns(tgt.dim, cols)
        return mats

    return module(labels, restrict(m.sq1, 1), restrict(m.sq2, 2),
                  truncated_above=m.truncated_above,
                  truncated_below=m.truncated_below, name=m.name)


def free_cells_reference(m: A1Module
                         ) -> Dict[int, Tuple[List[int], BitMatrix]]:
    """``structure._free_cells`` with one ``solve`` per generator.
    Generators of a maximal free summand and their top functionals.

    For each degree k (k <= cutoff - 6 when truncated above) where the top
    composite T = Sq2Sq1Sq2Sq1 is nonzero: generators x_1..x_r complementing
    the kernel of T, and a matrix whose row i is a functional phi_i on
    degree k + 6 with phi_i(T x_j) = delta_ij.
    """
    cells: Dict[int, Tuple[List[int], BitMatrix]] = {}
    cut = m.truncated_above
    for k in m.space.degrees:
        if cut is not None and k > cut - BOUNDARY:
            break
        top = _word_matrix(m, TOP_WORD, k)
        if top.is_zero():
            continue
        gens = complement(kernel(top), Subspace.full(m.dim(k)))
        tops = BitMatrix(len(gens), top.rows,
                         tuple(mul_rows(gens, top.transpose().data)))
        cells[k] = (gens, BitMatrix(len(gens), top.rows, tuple(
            solve(tops, 1 << i) for i in range(len(gens)))))
    return cells


def strip_free_reference(m: A1Module) -> Tuple[A1Module, Dict[int, int]]:
    """``structure.strip_free`` as it was before one elimination per degree:
    one ``solve`` per free generator, one ``kernel`` per degree and one
    ``coords`` per basis vector.  Split off a maximal free summand
    (generated below cutoff - 6 when truncated above) in one pass.

    Returns the complement and the rank of the free part per generator
    degree; the input itself when nothing splits.  The retraction onto the
    cell on x_i in degree k sends y to sum_w phi_i(w^ y) w g, where w^ is
    the dual word of w and phi_i the functional from
    ``free_cells_reference``; it is an A(1)-map because A(1) is a Frobenius
    algebra (Margolis, 1983).  It sends x_i to g and the other generators of
    degree k to 0, so retraction after inclusion is the identity modulo
    decomposables, hence invertible (Nakayama), and M is the free part plus
    the common kernel of the retractions: in degree d, the null space of the
    rows phi_i o w^ over every cell (k, i) and word w with k + |w| = d.
    """
    cells = free_cells_reference(m)
    if not cells:
        return m, {}
    rows: Dict[int, List[int]] = {}
    for k, (_, phis) in cells.items():
        # phi o u = (phi o p) o Sq for each word u = p Sq (Sq acting first):
        # dropping the rightmost factor of a word leaves a word, so seven
        # row products give all eight
        chain = {"1": phis.data}
        for u in WORDS[1:]:
            sq = m.sq1 if u.endswith("Sq1") else m.sq2
            chain[u] = mul_rows(chain[u[:-3] or "1"],
                                sq.mat(k + 6 - WORD_DEGREE[u]).data)
        for w in WORDS:
            d = k + WORD_DEGREE[w]
            if m.dim(d):
                rows.setdefault(d, []).extend(chain[DUAL_WORD[w]])
    sub = {d: kernel(BitMatrix(len(rows.get(d, ())), m.dim(d),
                               tuple(rows.get(d, ()))))
           for d in m.space.degrees}
    return (_submodule_restriction(m, sub),
            {k: len(gens) for k, (gens, _) in cells.items()})


def classify_reference(m: A1Module) -> DecompositionReport:
    """``structure.classify`` as it was before one elimination per degree:
    the Q1 test through ``margolis_homology``, and per degree a span of the
    images, a kernel, two complements and ``GradedMap.apply`` on vectors.
    Decompose a bounded-below Q0-local module into seagulls plus a free
    part, by induction over degrees.

    The induction keeps C, the submodule generated by the seagull and
    unresolved generators chosen so far, and grows it one degree at a time.
    A(1) is generated by Sq1 and Sq2, so every word of positive degree is
    Sq1 or Sq2 times a shorter word; hence the part of C in degree k
    generated below k is

        C_k = span(Sq1 C_(k-1) + Sq2 C_(k-2)),

    and C_(k-1) and C_(k-2) are final once degree k is reached.  The
    generators chosen in degree k then widen C_k.

    Raises NotQ0Local when the module has Q1-homology in the reliable window
    or when the inductive invariants fail outside the truncation boundary,
    and TruncationTooTight for a module truncated below: the induction
    starts at the bottom degree, which such a module does not carry.
    """
    _require_bottom(m, "classification")
    log: List[str] = []
    red, free_ranks = strip_free_reference(m)
    bad = margolis_homology(red, "Q1").nonzero_degrees()
    if bad:
        raise NotQ0Local(bad[0])
    cut = red.truncated_above

    # per seagull: its (degree, vector) generators, its bottom degree first
    seagulls: List[List[Tuple[int, int]]] = []
    residue: List[int] = []
    sub: Dict[int, Tuple[int, ...]] = {}  # degree -> basis of C there

    def unresolved(k: int, note: str, reason: str) -> None:
        """A generator of degree k that joins no seagull: residue in the
        boundary zone below the cutoff, a failed invariant elsewhere."""
        if cut is None or k <= cut - BOUNDARY:
            raise NotQ0Local(k, reason)
        residue.append(k)
        log.append(f"degree {k}: {note} near cutoff")

    for k in red.space.degrees:
        dk = red.dim(k)
        base = Subspace.span(
            [red.sq1.apply(k - 1, v) for v in sub.get(k - 1, ())]
            + [red.sq2.apply(k - 2, v) for v in sub.get(k - 2, ())], dk)
        sub[k] = base.basis
        if cut is not None and k + 1 > cut:
            ker_k = Subspace.full(dk)      # the differential out of k is unseen
        else:
            ker_k = kernel(red.sq1.mat(k))
        base_plus_ker = base.add(ker_k)
        kernel_gens = complement(base, ker_k)
        other_gens = complement(base_plus_ker, Subspace.full(dk))

        lengthened: List[int] = []  # indices of seagulls extended this degree
        new_vectors: List[int] = []

        for b in kernel_gens:
            new_vectors.append(b)
            if ((cut is None or k + 5 <= cut)
                    and apply_word(red, "Sq2Sq1Sq2", k, b)[1]):
                seagulls.append([(k, b)])
                continue
            unresolved(k, "unresolved kernel generator",
                       "kernel class with vanishing Sq2Sq1Sq2")

        if other_gens:  # both systems are fixed until sub[k] grows
            step1 = _step1_system(red, sub, k)
            wing = _word_matrix(red, "Sq2Sq1Sq2", k - 4)
        for b in other_gens:
            ok, b_hat, hit = _adjust_and_match(red, sub[k], step1, wing,
                                               seagulls, k, b)
            if not ok:
                new_vectors.append(b)
                unresolved(k, "unresolved generator",
                           "generator cannot be matched to the flock")
                continue
            # fold in this round's lengthened seagulls, keep only available ones
            avail_hit = []
            for i in hit:
                if i in lengthened:
                    b_hat ^= seagulls[i][-1][1]
                else:
                    avail_hit.append(i)
            if not avail_hit:
                new_vectors.append(b)
                unresolved(k, "no available seagull",
                           "no available seagull to extend")
                continue
            p = min(avail_hit, key=lambda i: seagulls[i][0][0])
            merged: Dict[int, int] = {}
            for i in avail_hit:
                for d, v in seagulls[i]:
                    merged[d] = merged.get(d, 0) ^ v
            seagulls[p] = sorted(merged.items()) + [(k, b_hat)]
            lengthened.append(p)
            new_vectors.append(b_hat)

        if new_vectors:
            sub[k] = Subspace.span(base.basis + tuple(new_vectors), dk).basis

    entries = []
    residue_set = set(residue)
    for gens in seagulls:
        top = gens[-1][0]
        # exact only when the degree where the next generator would have
        # attached was decided cleanly below the boundary zone
        exact = cut is None or (top <= cut - BOUNDARY
                                and top + 4 not in residue_set)
        entries.append(SeagullEntry(gens[0][0], len(gens), exact))
    desc = FlockDescriptor.make(entries, free_ranks.items(), cutoff=cut)
    return DecompositionReport(desc, seagulls, residue, log)


def _step1_system(red, sub, k):
    """Sq1 on the basis of C_k beside Sq2 on that of C_(k-1), as the
    columns of one matrix: the system of step 1 of ``_adjust_and_match``
    in degree k.  It is [Sq1 | Sq2] times the block-diagonal matrix of the
    two bases, one product."""
    dk = red.dim(k)
    ops = BitMatrix(red.dim(k + 1), dk + red.dim(k - 1), tuple(
        x | y << dk for x, y in zip(red.sq1.mat(k).data,
                                    red.sq2.mat(k - 1).data)))
    return ops.mul(BitMatrix.block_diag([
        BitMatrix.from_columns(dk, sub[k]),
        BitMatrix.from_columns(red.dim(k - 1), sub.get(k - 1, ()))]))


def _adjust_and_match(red, a_vecs, step1, wing, seagulls, k, b):
    """Adjust b by an element of the current submodule so that Sq1 b lies
    in the image of Sq2Sq1Sq2 on degree k-4 seagull generators, and
    express it there.  ``a_vecs`` is the submodule's basis in degree k,
    ``step1`` the system of ``_step1_system`` and ``wing`` the matrix of
    Sq2Sq1Sq2 on degree k-4.  Returns (ok, adjusted b, hit seagull
    indices)."""
    dk1 = red.dim(k + 1)
    target = red.sq1.apply(k, b)
    # step 1: write Sq1 b = Sq1 a + Sq2 c with a, c in the submodule
    x = solve(step1, target)
    if x is None:
        return False, b, []
    b_hat = b
    for c, v in enumerate(a_vecs):
        if (x >> c) & 1:
            b_hat ^= v
    # step 2: express Sq1 b_hat through Sq2Sq1Sq2 of degree k-4 generators
    rhs = red.sq1.apply(k, b_hat)
    cand = [i for i, s in enumerate(seagulls)
            if any(d == k - 4 for d, _ in s)]
    ccols = []
    for i in cand:
        gvec = next(v for d, v in seagulls[i] if d == k - 4)
        ccols.append(wing.apply(gvec))
    y = solve(BitMatrix.from_columns(dk1, ccols), rhs)
    if y is None:
        return False, b_hat, []
    hit = [cand[c] for c in range(len(cand)) if (y >> c) & 1]
    return True, b_hat, hit


def parse_module_reference(text: str) -> A1Module:
    """A verbatim copy of ``modfile.parse_module`` as it was when it
    stripped, split and re-stripped each line and looked each label up
    twice; the tests compare the two on serialized and mutated files."""
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


def serialize_reference(m: A1Module, name: Optional[str] = None) -> str:
    """A verbatim copy of ``modfile.serialize`` as it was when it read
    every entry of every matrix with ``BitMatrix.get``; it writes a name
    holding '#' unchanged, which the parser reads as a comment."""
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
