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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .a1core import (DUAL_WORD, TOP_WORD, WORD_DEGREE, WORDS, A1Module,
                     _word_matrix, apply_word, direct_sum, free_module, module,
                     module_from_edges, tensor, truncate, zero_module)
from .errors import IncomparableCutoffs, NotQ0Local, ShapeMismatch, TruncationTooTight
from .f2linalg import BitMatrix, Subspace, complement, kernel, mul_rows, solve
from .margolis import is_q0_local

__all__ = [
    "SeagullEntry", "FlockDescriptor", "DecompositionReport",
    "seagull", "seagull_inf", "strip_free", "classify",
    "localize_q0", "stably_equivalent", "realize",
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


def _free_cells(m: A1Module) -> Dict[int, Tuple[List[int], BitMatrix]]:
    """Generators of a maximal free summand and their top functionals.

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


def strip_free(m: A1Module) -> Tuple[A1Module, Dict[int, int]]:
    """Split off a maximal free summand (generated below cutoff - 6 when
    truncated above) in one pass.

    Returns the complement and the rank of the free part per generator
    degree; the input itself when nothing splits.  The retraction onto the
    cell on x_i in degree k sends y to sum_w phi_i(w^ y) w g, where w^ is
    the dual word of w and phi_i the functional from ``_free_cells``; it is
    an A(1)-map because A(1) is a Frobenius algebra (Margolis, 1983).  It
    sends x_i to g and the other generators of degree k to 0, so retraction
    after inclusion is the identity modulo decomposables, hence invertible
    (Nakayama), and M is the free part plus the common kernel of the
    retractions: in degree d, the null space of the rows phi_i o w^ over
    every cell (k, i) and word w with k + |w| = d.
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
    sub = {d: kernel(BitMatrix(len(rows.get(d, ())), m.dim(d),
                               tuple(rows.get(d, ()))))
           for d in m.space.degrees}
    return (_submodule_restriction(m, sub),
            {k: len(gens) for k, (gens, _) in cells.items()})


def _require_bottom(m: A1Module) -> None:
    if m.truncated_below is not None:
        raise TruncationTooTight(
            f"classification needs the bottom of the module; it is truncated "
            f"below degree {m.truncated_below}")


def classify(m: A1Module) -> DecompositionReport:
    """Decompose a bounded-below Q0-local module into seagulls plus a free
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
    _require_bottom(m)
    log: List[str] = []
    red, free_ranks = strip_free(m)
    verdict = is_q0_local(red)
    if not verdict.local:
        raise NotQ0Local(verdict.witness_degree)
    cut = red.truncated_above

    seagulls: List[Dict] = []  # {"gens": [(deg, vec)], "alpha": int}
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
        if dk == 0:
            continue
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
                seagulls.append({"alpha": k, "gens": [(k, b)]})
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
                    b_hat ^= seagulls[i]["gens"][-1][1]
                else:
                    avail_hit.append(i)
            if not avail_hit:
                new_vectors.append(b)
                unresolved(k, "no available seagull",
                           "no available seagull to extend")
                continue
            p = min(avail_hit, key=lambda i: seagulls[i]["alpha"])
            merged: Dict[int, int] = {}
            for i in avail_hit:
                for d, v in seagulls[i]["gens"]:
                    merged[d] = merged.get(d, 0) ^ v
            seagulls[p]["gens"] = sorted(merged.items()) + [(k, b_hat)]
            lengthened.append(p)
            new_vectors.append(b_hat)

        if new_vectors:
            sub[k] = Subspace.span(base.basis + tuple(new_vectors), dk).basis

    entries = []
    witnesses = []
    residue_set = set(residue)
    for s in seagulls:
        top = s["gens"][-1][0]
        # exact only when the degree where the next generator would have
        # attached was decided cleanly below the boundary zone
        exact = cut is None or (top <= cut - BOUNDARY
                                and top + 4 not in residue_set)
        entries.append(SeagullEntry(s["alpha"], len(s["gens"]), exact))
        witnesses.append(s["gens"])
    desc = FlockDescriptor.make(entries, free_ranks.items(), cutoff=cut)
    return DecompositionReport(desc, witnesses, residue, log)


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
            if any(d == k - 4 for d, _ in s["gens"])]
    if rhs == 0:
        # cannot happen for a generator outside ker + submodule
        return False, b_hat, []
    ccols = []
    for i in cand:
        gvec = next(v for d, v in seagulls[i]["gens"] if d == k - 4)
        ccols.append(wing.apply(gvec))
    y = solve(BitMatrix.from_columns(dk1, ccols), rhs)
    if y is None:
        return False, b_hat, []
    hit = [cand[c] for c in range(len(cand)) if (y >> c) & 1]
    return True, b_hat, hit


def localize_q0(m: A1Module, cutoff: Optional[int] = None) -> DecompositionReport:
    """Classify the Q0-localization: tensor with a truncated infinite seagull
    and decompose.  The result carries the effective cutoff."""
    _require_bottom(m)
    if m.lo is None:
        return classify(m)
    if cutoff is None:
        cutoff = default_cutoff(m)
    inf_cut = cutoff - m.lo
    if inf_cut < 5:
        raise TruncationTooTight("localization cutoff leaves no full wing")
    local = tensor(seagull_inf(inf_cut), m)
    return classify(local)


def default_cutoff(m: A1Module) -> int:
    hi = m.hi if m.truncated_above is None else m.truncated_above
    return max(hi + 18, (m.lo or 0) + 18)


def stably_equivalent(a: A1Module, b: A1Module) -> bool:
    """Same flock (free parts ignored).  Entries that are lower bounds are
    only comparable at equal cutoffs."""
    ra = classify(a)
    rb = classify(b)
    return _descriptors_stably_equal(ra.descriptor, rb.descriptor)


def _descriptors_stably_equal(da: FlockDescriptor, db: FlockDescriptor) -> bool:
    open_a = any(not e.exact for e in da.seagulls)
    open_b = any(not e.exact for e in db.seagulls)
    if (open_a or open_b) and da.cutoff != db.cutoff:
        raise IncomparableCutoffs(
            f"open-ended seagulls at different cutoffs: {da.cutoff} vs {db.cutoff}")
    return da.seagulls == db.seagulls


def realize(desc: FlockDescriptor) -> A1Module:
    """A module with the given descriptor: sum of suspended seagulls and free
    cells.  Entries that are lower bounds need a cutoff and become truncated
    infinite seagulls."""
    parts: List[A1Module] = []
    for e in desc.seagulls:
        if e.exact:
            parts.append(seagull(e.length, e.shift))
        else:
            if desc.cutoff is None:
                raise TruncationTooTight("open-ended seagull needs a cutoff")
            parts.append(seagull_inf(desc.cutoff, e.shift))
    for d, r in desc.free_ranks:
        for _ in range(r):
            parts.append(free_module(d))
    out = zero_module()
    for p in parts:
        out = direct_sum(out, p) if out.space.degrees else p
    if desc.cutoff is not None and out.space.degrees:
        out = truncate(out, desc.cutoff)
    return out
