"""Structure theory: seagull modules, splitting off free summands, and the
constructive decomposition of bounded-below Q0-local modules into a flock of
seagulls plus a free part.

A seagull of length n starting in degree a has generators g_{a+4j},
j = 0..n-1; each generator carries the four classes g, Sq2 g, Sq1Sq2 g and
Sq2Sq1Sq2 g, and consecutive generators are linked by
Sq1 g_{a+4j} = Sq2Sq1Sq2 g_{a+4(j-1)}.

Free summands split off in closed form.  A(1) is a Frobenius algebra
(Margolis, *Spectra and the Steenrod Algebra*, 1983), so free modules are
injective and a module map M -> A(1){k} is fixed by one linear functional
phi on M_{k+6}: it sends y to sum_w phi(w^ y) w g, where w^ is the dual
word of w (``a1core.DUAL_WORD``).  ``strip_free`` picks all free generators
and all functionals at once and keeps the common kernel of the retractions.
``strip_free`` and ``classify`` run one elimination per degree on the row
tuples of the structure matrices, and ``classify`` tests Q1-homology by
ranks (``margolis._homology_dims``).  The localized spectral sequence and
``lift_check`` read the persistence pairs of Sq1 + Sq2Sq1Sq2 (``_bars``).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .a1core import (DUAL_WORD, TOP_WORD, WORD_DEGREE, WORDS, A1Module,
                     _require_bottom, _word_rows, module, module_from_edges,
                     tensor)
from .errors import NotQ0Local, ShapeMismatch, TruncationTooTight
from .f2linalg import (BitMatrix, Subspace, canonical, insert, kernel,
                       mul_rows, solve)
from .margolis import _homology_dims

__all__ = [
    "SeagullEntry", "FlockDescriptor", "DecompositionReport",
    "seagull", "seagull_inf", "strip_free", "classify",
    "localize_q0", "default_cutoff",
]

# A seagull is certain only while a further generator could still have been
# detected below the cutoff; within this many degrees of the cutoff, lengths
# are reported as lower bounds.
BOUNDARY = 6


@dataclass(frozen=True, order=True)
class SeagullEntry:
    shift: int        # degree of the bottom generator
    length: int       # number of generators seen
    exact: bool       # False means "at least this long"

    def describe(self) -> str:
        kind = "exact" if self.exact else "at_least"
        return f"seagull(shift={self.shift}, length={self.length}, {kind})"


@dataclass(frozen=True)
class FlockDescriptor:
    seagulls: Tuple[SeagullEntry, ...]          # sorted
    free_ranks: Tuple[Tuple[int, int], ...]     # (degree, rank), sorted
    cutoff: Optional[int] = None

    @staticmethod
    def make(seagulls, free_ranks=(), cutoff=None) -> "FlockDescriptor":
        merged: Dict[int, int] = {}
        for d, r in free_ranks:
            merged[d] = merged.get(d, 0) + r
        return FlockDescriptor(tuple(sorted(seagulls)),
                               tuple(sorted((d, r) for d, r in merged.items()
                                            if r)),
                               cutoff)

    def free_rank_map(self) -> Dict[int, int]:
        return dict(self.free_ranks)


@dataclass
class DecompositionReport:
    descriptor: FlockDescriptor
    witnesses: List[List[Tuple[int, int]]]   # per seagull: (degree, vector) generators
    residue_degrees: List[int]               # unresolved generators near the cutoff
    log: List[str] = field(default_factory=list)


def _seagull_cells(n: int, shift: int):
    """The cells and the Sq1 and Sq2 edges of the length-n seagull."""
    cells: List[Tuple[str, int]] = []
    sq1: List[Tuple[str, str]] = []
    sq2: List[Tuple[str, str]] = []
    for j in range(n):
        base = shift + 4 * j
        g, s2, s12, s212 = (f"{tag}{base}" for tag in
                            ("g", "Sq2g", "Sq1Sq2g", "Sq2Sq1Sq2g"))
        cells += [(g, base), (s2, base + 2), (s12, base + 3), (s212, base + 5)]
        sq1.append((s2, s12))
        sq2 += [(g, s2), (s12, s212)]
        if j > 0:
            sq1.append((g, f"Sq2Sq1Sq2g{base - 4}"))
    return cells, sq1, sq2


def _seagull_name(n: int, shift: int) -> str:
    return f"seagull({n})+{shift}" if shift else f"seagull({n})"


def seagull(n: int, shift: int = 0) -> A1Module:
    """The length-n seagull; 4n-dimensional with one class in each of the
    degrees 4j, 4j+2, 4j+3, 4j+5 for j = 0..n-1."""
    if n < 1:
        raise ValueError("seagull length must be positive")
    return module_from_edges(*_seagull_cells(n, shift),
                             name=_seagull_name(n, shift))


def seagull_inf(cutoff: int, shift: int = 0) -> A1Module:
    """The infinite seagull, truncated above the given cutoff: the cells in
    degrees up to the cutoff of the seagull with a wing starting at every
    shift + 4j up to the cutoff, and the edges between them."""
    if cutoff < shift + 5:
        raise TruncationTooTight("infinite seagull needs at least one full wing")
    wings = (cutoff - shift) // 4 + 1
    cells, sq1, sq2 = _seagull_cells(wings, shift)
    kept = {label for label, deg in cells if deg <= cutoff}
    return module_from_edges(
        [c for c in cells if c[0] in kept],
        [e for e in sq1 if e[1] in kept], [e for e in sq2 if e[1] in kept],
        truncated_above=cutoff, name=_seagull_name(wings, shift))


def _submodule_restriction(m: A1Module, sub: Dict[int, Subspace]) -> A1Module:
    """The module structure induced on an action-closed graded subspace.

    With B_d the matrix whose columns are the canonical basis in degree d,
    a map A restricts to the rows of A B_k at the pivots of B_(k+step),
    since no other basis vector has a bit there; B_(k+step) times them
    must give back A B_k."""
    labels = {k: [f"k{k}_{i}" for i in range(s.dim)]
              for k, s in sorted(sub.items()) if s.dim}
    cols = {k: BitMatrix.from_columns(m.dim(k), s.basis).data
            for k, s in sub.items() if s.dim}

    def restrict(gmap, step):
        mats = {}
        for k, s in sub.items():
            tgt = sub.get(k + step)
            if not s.dim or tgt is None or not tgt.dim:
                continue
            images = mul_rows(gmap.mat(k).data, cols[k])
            rows = [images[(b & -b).bit_length() - 1] for b in tgt.basis]
            if mul_rows(cols[k + step], rows) != images:
                raise ShapeMismatch("subspace not closed under the action")
            mats[k] = BitMatrix(tgt.dim, s.dim, tuple(rows))
        return mats

    return module(labels, restrict(m.sq1, 1), restrict(m.sq2, 2),
                  truncated_above=m.truncated_above,
                  truncated_below=m.truncated_below, name=m.name)


def _free_cells(m: A1Module) -> Dict[int, Tuple[List[int], BitMatrix]]:
    """Generators of a maximal free summand and their top functionals.

    For each degree k (k <= cutoff - 6 when truncated above) where the top
    composite T = Sq2Sq1Sq2Sq1 is nonzero: generators x_1..x_r complementing
    the kernel of T, and a matrix whose row i is a functional phi_i on
    degree k + 6 with phi_i(T x_j) = delta_ij.
    One pivot table gives both: e_c is a generator when column c of T is
    independent of the columns before it, and enters tagged with its index
    i; phi_i sums the pivots of the canonical rows whose tags hold bit i.
    """
    cells: Dict[int, Tuple[List[int], BitMatrix]] = {}
    cut = m.truncated_above
    for k in m.space.degrees:
        if cut is not None and k > cut - BOUNDARY:
            break
        top = _word_rows(m, TOP_WORD, k)
        if top is None or not any(top):
            continue
        n = len(top)
        mask = (1 << n) - 1
        pivots: Dict[int, int] = {}
        gens: List[int] = []
        for c, col in enumerate(BitMatrix.from_columns(m.dim(k), top).data):
            if insert(pivots, col | 1 << (n + len(gens)), mask) & mask:
                gens.append(1 << c)
        reduced = canonical(pivots)
        tags = BitMatrix.from_columns(len(gens), [r >> n for r in reduced])
        phis = mul_rows(tags.data, [r & -r for r in reduced])
        cells[k] = (gens, BitMatrix(len(gens), n, tuple(phis)))
    return cells


def strip_free(m: A1Module) -> Tuple[A1Module, Dict[int, int]]:
    """Split off a maximal free summand (generated below cutoff - 6 when
    truncated above) in one pass, with one elimination per degree.

    Returns the complement and the rank of the free part per generator
    degree; the input itself when nothing splits.  The retraction onto the
    cell on x_i in degree k sends y to sum_w phi_i(w^ y) w g, where w^ is
    the dual word of w and phi_i the functional from ``_free_cells``; it is
    an A(1)-map because A(1) is a Frobenius algebra (Margolis, 1983).  It
    sends x_i to g and the other generators of degree k to 0, so retraction
    after inclusion is the identity modulo decomposables, hence invertible
    (Nakayama), and M is the free part plus the common kernel of the
    retractions: in degree d, the null space of the rows phi_i o w^ over
    every cell (k, i) and word w with k + |w| = d, and all of degree d
    where there are no such rows.
    """
    cells = _free_cells(m)
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
    sub = {d: kernel(BitMatrix(len(rows[d]), m.dim(d), tuple(rows[d])))
           if d in rows else Subspace.full(m.dim(d))
           for d in m.space.degrees}
    return (_submodule_restriction(m, sub),
            {k: len(gens) for k, (gens, _) in cells.items()})


def classify(m: A1Module) -> DecompositionReport:
    """Decompose a bounded-below Q0-local module into seagulls plus a free
    part, by induction over degrees, with one elimination per degree.

    The induction keeps C, the submodule generated by the seagull and
    unresolved generators chosen so far, and grows it one degree at a time.
    A(1) is generated by Sq1 and Sq2, so every word of positive degree is
    Sq1 or Sq2 times a shorter word; hence the part of C in degree k
    generated below k is

        C_k = span(Sq1 C_(k-1) + Sq2 C_(k-2)),

    and C_(k-1) and C_(k-2) are final once degree k is reached.  The
    generators of degree k complete C_k and ker Sq1 to all of degree k, so
    C_k is spanned by the columns of Sq1 from k - 1 and Sq2 from k - 2.
    One pivot table takes those, then the canonical basis of ker Sq1 and
    then the unit vectors; the vectors it files are the generators.

    Raises NotQ0Local when the module has Q1-homology in the reliable window
    or when the inductive invariants fail outside the truncation boundary,
    and TruncationTooTight for a module truncated below: the induction
    starts at the bottom degree, which such a module does not carry.
    """
    _require_bottom(m, "classification")
    log: List[str] = []
    red, free_ranks = strip_free(m)
    for k, d in _homology_dims(red, "Q1"):
        if d:
            raise NotQ0Local(k)
    cut = red.truncated_above

    # per seagull: its (degree, vector) generators, its bottom degree first
    seagulls: List[List[Tuple[int, int]]] = []
    residue: List[int] = []

    def unresolved(k: int, note: str, reason: str) -> None:
        """A generator of degree k that joins no seagull: residue in the
        boundary zone below the cutoff, a failed invariant elsewhere."""
        if cut is None or k <= cut - BOUNDARY:
            raise NotQ0Local(k, reason)
        residue.append(k)
        log.append(f"degree {k}: {note} near cutoff")

    def wing_from(j: int) -> BitMatrix:
        """The matrix of Sq2Sq1Sq2 from degree j."""
        rows = _word_rows(red, "Sq2Sq1Sq2", j)
        return BitMatrix(red.dim(j + 5), red.dim(j),
                         tuple(rows or [0] * red.dim(j + 5)))

    for k in red.space.degrees:
        dk = red.dim(k)
        mask = (1 << dk) - 1
        pivots: Dict[int, int] = {}
        for mat in (red.sq1.mats.get(k - 1), red.sq2.mats.get(k - 2)):
            for col in (mat.transpose().data if mat else ()):
                insert(pivots, col, mask)
        if len(pivots) == dk:  # C_k is all of degree k: no generators
            continue
        base = canonical(pivots)  # the basis of C_k
        units = [1 << i for i in range(dk)]
        sq1 = red.sq1.mat(k)
        # without a matrix, Sq1 vanishes on degree k or lands above the cutoff
        ker_k = kernel(sq1).basis if k in red.sq1.mats else units
        kernel_gens = [v for v in ker_k if insert(pivots, v, mask)]
        other_gens = ([v for v in units if insert(pivots, v, mask)]
                      if len(pivots) < dk else [])

        lengthened: List[int] = []  # indices of seagulls extended this degree

        if kernel_gens:
            wing_k = wing_from(k)
        for b in kernel_gens:
            if (cut is None or k + 5 <= cut) and wing_k.apply(b):
                seagulls.append([(k, b)])
                continue
            unresolved(k, "unresolved kernel generator",
                       "kernel class with vanishing Sq2Sq1Sq2")

        if other_gens:  # Sq1 on C_k's basis beside Sq2 on degree k-1, all in C
            ones = mul_rows(sq1.data, BitMatrix.from_columns(dk, base).data)
            step1 = BitMatrix(sq1.rows, len(base) + red.dim(k - 1), tuple(
                x | y << len(base)
                for x, y in zip(ones, red.sq2.mat(k - 1).data)))
            wing = wing_from(k - 4)
        for b in other_gens:
            # step 1: adjust b by a in C_k so that Sq1 b = Sq1 a + Sq2 c with
            # c in C; step 2: express Sq1 of the result through Sq2Sq1Sq2 of
            # the flock's generators of degree k-4
            x = solve(step1, sq1.apply(b))
            if x is not None:
                b_hat = b ^ mul_rows([x & (1 << len(base)) - 1], base)[0]
                cand = {i: v for i, s in enumerate(seagulls)
                        for d, v in s if d == k - 4}
                y = solve(BitMatrix.from_columns(sq1.rows, [
                    wing.apply(v) for v in cand.values()]), sq1.apply(b_hat))
            if x is None or y is None:
                unresolved(k, "unresolved generator",
                           "generator cannot be matched to the flock")
                continue
            hit = [i for c, i in enumerate(cand) if (y >> c) & 1]
            # fold in this round's lengthened seagulls, keep only available ones
            for i in hit:
                if i in lengthened:
                    b_hat ^= seagulls[i][-1][1]
            avail_hit = [i for i in hit if i not in lengthened]
            if not avail_hit:
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


def _localization_cutoff(m: A1Module, cutoff: Optional[int]) -> Optional[int]:
    """``cutoff``, else ``default_cutoff``; refused for a module truncated
    below, or when it leaves no full wing above the bottom degree."""
    _require_bottom(m, "classification")
    cutoff = default_cutoff(m) if cutoff is None else cutoff
    if m.lo is not None and cutoff - m.lo < 5:
        raise TruncationTooTight("localization cutoff leaves no full wing")
    return cutoff


def localize_q0(m: A1Module, cutoff: Optional[int] = None) -> DecompositionReport:
    """Classify the Q0-localization: tensor with a truncated infinite seagull
    and decompose.  The result carries the effective cutoff."""
    cutoff = _localization_cutoff(m, cutoff)
    return classify(m if m.lo is None else tensor(seagull_inf(cutoff - m.lo), m))


def _bars(m: A1Module) -> Tuple[List[Tuple[int, int]], List[int]]:
    """The persistence pairs of D = Sq1 + W, W = Sq2Sq1Sq2, as (birth, death)
    degrees in ascending death, and the degrees of the unpaired classes.

    D D = 0 and D raises degrees, so (M, D) is filtered by degree
    (Edelsbrunner, Letscher and Zomorodian, 2002).  In the cohomology form
    of the reduction (de Silva, Morozov and Vejdemo-Johansson, 2011) one
    pivot table takes, in ascending degree j, the rows of Sq1 from j - 1
    beside those of W from j - 5, with cells numbered by descending degree:
    a row filed under a cell of degree b is the pair (b, j).  Pairs of gap 5
    count the rank of W on H(M; Q0); a seagull(n) at b gives (b, b + 4n + 1)
    and pairs of gap 1, a free summand only the latter."""
    owner: List[int] = []  # the degree of each cell, by descending degree
    off: Dict[int, int] = {}  # the first cell of each degree
    for k in reversed(m.space.degrees):
        off[k] = len(owner)
        owner += [k] * m.dim(k)
    full = (1 << len(owner)) - 1
    pivots: Dict[int, int] = {}
    pairs: List[Tuple[int, int]] = []
    for j in m.space.degrees:
        one = _word_rows(m, "Sq1", j - 1)
        wing = _word_rows(m, "Sq2Sq1Sq2", j - 5)
        for i in range(m.dim(j)):
            row = insert(pivots, (one[i] << off[j - 1] if one else 0)
                         | (wing[i] << off[j - 5] if wing else 0), full)
            if row:
                pairs.append((owner[(row & -row).bit_length() - 1], j))
    ends = Counter(k for pair in pairs for k in pair)
    return pairs, [k for k in m.space.degrees for _ in range(m.dim(k) - ends[k])]


def default_cutoff(m: A1Module) -> Optional[int]:
    """18 degrees above the module's top (its cutoff when truncated above),
    or None for a module without degrees."""
    if m.lo is None:
        return None
    hi = m.hi if m.truncated_above is None else m.truncated_above
    return max(hi, m.lo) + 18

