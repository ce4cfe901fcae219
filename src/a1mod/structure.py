"""Structure theory: seagull modules, splitting off free summands, and the
constructive decomposition of bounded-below Q0-local modules into a flock of
seagulls plus a free part.

A seagull of length n starting in degree a has generators g_{a+4j},
j = 0..n-1; each generator carries the four classes g, Sq2 g, Sq1Sq2 g and
Sq2Sq1Sq2 g, and consecutive generators are linked by
Sq1 g_{a+4j} = Sq2Sq1Sq2 g_{a+4(j-1)}.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .a1core import (A1Module, direct_sum, free_module, linear_map_from_generators,
                     module, module_from_edges, submodule_closure, tensor,
                     truncate, zero_module)
from .errors import IncomparableCutoffs, NotQ0Local, ShapeMismatch, TruncationTooTight
from .f2linalg import BitMatrix, Subspace, complement, kernel, solve
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


def seagull(n: int, shift: int = 0) -> A1Module:
    """The length-n seagull; 4n-dimensional with one class in each of the
    degrees 4j, 4j+2, 4j+3, 4j+5 for j = 0..n-1."""
    if n < 1:
        raise ValueError("seagull length must be positive")
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
    return module_from_edges(cells, sq1, sq2, name=f"seagull({n})+{shift}"
                             if shift else f"seagull({n})")


def seagull_inf(cutoff: int, shift: int = 0) -> A1Module:
    """The infinite seagull, truncated above the given cutoff."""
    if cutoff < shift + 5:
        raise TruncationTooTight("infinite seagull needs at least one full wing")
    wings = (cutoff - shift) // 4 + 1
    return truncate(seagull(wings, shift), cutoff)


def _top_composite(m: A1Module, k: int) -> BitMatrix:
    """Matrix of Sq2 Sq1 Sq2 Sq1 from degree k (the top class of a free cell)."""
    return (m.sq2.mat(k + 4).mul(m.sq1.mat(k + 3))
            .mul(m.sq2.mat(k + 1)).mul(m.sq1.mat(k)))


def _wing_composite(m: A1Module, k: int) -> BitMatrix:
    """Matrix of Sq2 Sq1 Sq2 from degree k."""
    return m.sq2.mat(k + 3).mul(m.sq1.mat(k + 2)).mul(m.sq2.mat(k))


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
                  truncated_above=m.truncated_above, name=m.name)


def strip_free(m: A1Module) -> Tuple[A1Module, Dict[int, int]]:
    """Split off free summands until no generator with nonzero top class
    action remains (below cutoff - 6 when truncated).

    Returns the reduced module and the rank of the free part per generator
    degree.  Each split builds an explicit action-preserving retraction onto
    the cyclic free summand and keeps its kernel.
    """
    ranks: Dict[int, int] = {}
    cut = m.truncated_above
    while True:
        found = None
        for k in m.space.degrees:
            if cut is not None and k > cut - BOUNDARY:
                break
            top = _top_composite(m, k)
            if top.is_zero():
                continue
            # any vector with nonzero top-composite generates a free summand
            ker = kernel(top)
            cands = complement(ker, Subspace.full(m.dim(k)))
            found = (k, cands[0])
            break
        if found is None:
            return m, ranks
        k, x = found
        m = _split_off_free(m, k, x)
        ranks[k] = ranks.get(k, 0) + 1


def _split_off_free(m: A1Module, k: int, x: int) -> A1Module:
    # a retraction m -> A(1){k} sending x to the generator, found by solving
    # for an action-preserving map; its kernel is the complement of the cell
    proj = linear_map_from_generators(m, free_module(k), [(k, x)], [(k, 1)],
                                      shift=0)
    sub = {deg: kernel(proj.mat(deg)) for deg in m.space.degrees}
    return _submodule_restriction(m, sub)


def classify(m: A1Module) -> DecompositionReport:
    """Decompose a bounded-below Q0-local module into seagulls plus a free
    part, by induction over degrees.

    Raises NotQ0Local when the module has Q1-homology in the reliable window
    or when the inductive invariants fail outside the truncation boundary.
    """
    log: List[str] = []
    red, free_ranks = strip_free(m)
    verdict = is_q0_local(red)
    if not verdict.local:
        raise NotQ0Local(verdict.witness_degree)
    cut = red.truncated_above

    degrees = red.space.degrees
    seagulls: List[Dict] = []  # {"gens": [(deg, vec)], "alpha": int}
    residue: List[int] = []
    sub: Dict[int, Subspace] = {k: Subspace.zero(red.dim(k)) for k in degrees}

    def in_zone(k: int) -> bool:
        return cut is not None and k > cut - BOUNDARY

    def wing_visible(k: int) -> bool:
        return cut is None or k + 5 <= cut

    def close_over(k: int, vecs: List[int]) -> None:
        grown = submodule_closure(red, {k: vecs})
        for d in degrees:
            if grown[d].dim:
                sub[d] = sub[d].add(grown[d])

    for k in degrees:
        dk = red.dim(k)
        if dk == 0:
            continue
        if cut is not None and k + 1 > cut:
            ker_k = Subspace.full(dk)      # the differential out of k is unseen
        else:
            ker_k = kernel(red.sq1.mat(k))
        base = sub.get(k, Subspace.zero(dk))
        base_plus_ker = base.add(ker_k)
        kernel_gens = complement(base, base_plus_ker)
        other_gens = complement(base_plus_ker, Subspace.full(dk))

        lengthened: List[int] = []  # indices of seagulls extended this degree
        new_vectors: List[int] = []

        for b in kernel_gens:
            new_vectors.append(b)
            if wing_visible(k):
                wing = _wing_composite(red, k).apply(b)
                if wing:
                    seagulls.append({"alpha": k, "gens": [(k, b)]})
                    continue
            if in_zone(k):
                residue.append(k)
                log.append(f"degree {k}: unresolved kernel generator near cutoff")
            else:
                raise NotQ0Local(k, "kernel class with vanishing Sq2Sq1Sq2")

        for b in other_gens:
            ok, b_hat, hit = _adjust_and_match(red, sub, seagulls, lengthened,
                                               k, b)
            if not ok:
                new_vectors.append(b)
                if in_zone(k):
                    residue.append(k)
                    log.append(f"degree {k}: unresolved generator near cutoff")
                    continue
                raise NotQ0Local(k, "generator cannot be matched to the flock")
            # fold in this round's lengthened seagulls, keep only available ones
            avail_hit = []
            for i in hit:
                if i in lengthened:
                    b_hat ^= seagulls[i]["gens"][-1][1]
                else:
                    avail_hit.append(i)
            if not avail_hit:
                new_vectors.append(b)
                if in_zone(k):
                    residue.append(k)
                    log.append(f"degree {k}: no available seagull near cutoff")
                    continue
                raise NotQ0Local(k, "no available seagull to extend")
            p = min(avail_hit, key=lambda i: seagulls[i]["alpha"])
            merged: List[Tuple[int, int]] = []
            degs_present = sorted({d for i in avail_hit
                                   for d, _ in seagulls[i]["gens"]})
            for d in degs_present:
                v = 0
                for i in avail_hit:
                    for dd, vv in seagulls[i]["gens"]:
                        if dd == d:
                            v ^= vv
                merged.append((d, v))
            seagulls[p]["gens"] = merged + [(k, b_hat)]
            lengthened.append(p)
            new_vectors.append(b_hat)

        if new_vectors:
            close_over(k, new_vectors)

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


def _adjust_and_match(red, sub, seagulls, lengthened, k, b):
    """Adjust b by an element of the current submodule so that Sq1 b lies in
    the image of Sq2Sq1Sq2 on degree k-4 seagull generators, and express it
    there.  Returns (ok, adjusted b, hit seagull indices)."""
    dk1 = red.dim(k + 1)
    target = red.sq1.apply(k, b)
    # step 1: write Sq1 b = Sq1 a + Sq2 c with a, c in the submodule
    base_k = sub.get(k)
    base_km1 = sub.get(k - 1, Subspace.zero(red.dim(k - 1)))
    cols: List[int] = []
    a_vecs = list(base_k.basis)
    for v in a_vecs:
        cols.append(red.sq1.apply(k, v))
    c_vecs = list(base_km1.basis)
    for v in c_vecs:
        cols.append(red.sq2.apply(k - 1, v))
    x = solve(BitMatrix.from_columns(dk1, cols), target)
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
    wing = _wing_composite(red, k - 4)
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
