"""Routes that only the tests walk: building a module back from a flock
descriptor (``classify ∘ realize = id``), comparing flocks, splitting a
module over the subalgebra generated by Sq1, Margolis-homology
representatives, the first differential read off the dual module, the
lifting check by ranks of W and by classifying the localization, and the
structural lemmas the classification relies on, written once for every test
that checks them.
"""

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from a1mod.a1core import (A1Module, _word_rows, apply_word, direct_sum,
                          dualize, free_module, tensor, truncate, zero_module)
from a1mod.davismahowald import D2Data, LiftVerdict, d2
from a1mod.errors import A1ModError, TruncationTooTight
from a1mod.f2linalg import (BitMatrix, Subspace, complement, image, kernel,
                            rank, solve)
from a1mod.margolis import (_SHIFT, _op_rows, _reliable_window, is_q0_local,
                            margolis_homology)
from a1mod.structure import (FlockDescriptor, classify, localize_q0, seagull,
                             seagull_inf)


class IncomparableCutoffs(A1ModError):
    """Descriptors with open-ended seagulls cannot be compared across cutoffs."""


@dataclass
class A0Decomposition:
    """Basis split over the subalgebra generated by Sq1: ``pairs`` are
    (degree, b, Sq1 b) spanning free summands, ``trivial`` are
    (degree, representative) classes with no Sq1 in or out."""

    pairs: List[Tuple[int, int, int]]
    trivial: List[Tuple[int, int]]


def a0_decompose(m: A1Module) -> A0Decomposition:
    """Split the underlying Sq1-module into free pairs and trivial classes.

    In each degree, vectors completing ker(Sq1) to the whole degree span free
    summands together with their Sq1-images; the Q0-homology representatives
    (``representatives``) span trivial summands.  The listed vectors
    jointly form a basis of every degree in the Q0 reliable window.
    """
    pairs: List[Tuple[int, int, int]] = []
    hi = _reliable_window(m, "Q0")[1]
    for k in m.space.degrees:
        if hi is not None and k > hi:
            continue
        for b in complement(kernel(m.sq1.mat(k)), Subspace.full(m.dim(k))):
            pairs.append((k, b, m.sq1.apply(k, b)))
    dims = margolis_homology(m, "Q0").dims
    return A0Decomposition(pairs, [(k, r) for k, d in dims.items() if d
                                   for r in representatives(m, "Q0", k)])


def representatives(m: A1Module, op: str, k: int) -> List[int]:
    """A basis of ker op_k modulo im op_(k-shift): cycle representatives of
    H(M; op)_k."""
    shift = _SHIFT[op]

    def matrix(j: int) -> BitMatrix:
        rows = _op_rows(m, op, j) or (0,) * m.dim(j + shift)
        return BitMatrix(m.dim(j + shift), m.dim(j), tuple(rows))

    return complement(image(matrix(k - shift)), kernel(matrix(k)))


def d2_by_dualizing(m: A1Module) -> D2Data:
    """The closed-form differential read off the dual module itself: build
    ``dualize(m)``, take its Q0-homology representatives and apply
    Sq2Sq1Sq2 to each with ``apply_word``, expressing the image in the
    target's representatives modulo boundaries."""
    dual = dualize(m)
    dims = margolis_homology(dual, "Q0").dims
    pairs: List[Tuple[str, str]] = []
    for delta, d in dims.items():
        tgt = delta + 5
        if not d or not dims.get(tgt):
            continue
        tgt_reps = representatives(dual, "Q0", tgt)
        bounds = image(dual.sq1.mat(tgt - 1))
        mat = BitMatrix.from_columns(dual.dim(tgt),
                                     tgt_reps + list(bounds.basis))
        for c, rep in enumerate(representatives(dual, "Q0", delta)):
            _, img = apply_word(dual, "Sq2Sq1Sq2", delta, rep)
            x = solve(mat, img)
            assert x is not None, "differential image is not a cycle"
            pairs += [(f"d{-delta}.{c}*", f"d{-tgt}.{r}*")
                      for r in range(len(tgt_reps)) if x >> r & 1]
    return D2Data([(k, f"d{-k}.{i}*") for k, d in dims.items()
                   for i in range(d)], sorted(pairs))


def wing_rank(m: A1Module, k: int) -> int:
    """The rank of W = Sq2Sq1Sq2 on H(M; Q0) from degree k to k + 5.

    T(z, y) = (Sq1 z, W z + Sq1 y) on M_k + M_(k+4) has a kernel that
    projects onto the cycles z with W z a boundary, each fibre a coset of
    the cycles of degree k + 4.  Those z fall short of the cycles of
    degree k by rank W, so rank W = rank T - rank Sq1_k - rank Sq1_(k+4).
    """
    wing = _word_rows(m, "Sq2Sq1Sq2", k)
    if wing is None:  # W is zero from degree k
        return 0
    n, n4 = m.dim(k), m.dim(k + 4)
    low = _word_rows(m, "Sq1", k) or ()
    up = _word_rows(m, "Sq1", k + 4) or ()
    top = [w ^ u << n for w, u in zip(wing, up)] if up else wing
    return rank([*low, *top], n + n4) - rank(low, n) - rank(up, n4)


def lift_check_by_localizing(m: A1Module,
                             cutoff: Optional[int] = None) -> LiftVerdict:
    """``davismahowald.lift_check`` with its ranks from ``wing_rank`` and its
    finite-summand test run on the classified localization
    (``localize_q0``): the ranks of d2 in the dual degrees that carry
    classes at both ends, and the degree-4 criterion in every degree whose
    wing lands at or below the cutoff."""
    evidence: List[str] = []
    h = margolis_homology(m, "Q0").dual()
    if any(d and h.dims.get(delta + 5) and wing_rank(m, -delta - 5)
           for delta, d in h.dims.items()):
        src, tgt = d2(m).pairs[0]
        evidence.append(f"nonzero differential: {src} -> {tgt}")
        return LiftVerdict("no_lift", evidence)
    evidence.append("closed-form differential vanishes")
    report = localize_q0(m, cutoff)
    finite = [e for e in report.descriptor.seagulls if e.exact]
    if finite:
        evidence.append(f"localization contains a finite summand: "
                        f"{finite[0].describe()}")
        return LiftVerdict("no_lift", evidence)
    evidence.append("no finite seagull in the localized flock")
    if is_q0_local(m):
        evidence.append("module is Q0-local with an open flock")
        return LiftVerdict("lifts", evidence)
    cut = m.truncated_above
    if not all(wing_rank(m, k) == 0 for k in m.space.degrees
               if cut is None or k + 5 <= cut):
        evidence.append("no degree-4 operator satisfies the commutator equation")
        return LiftVerdict("no_lift", evidence)
    evidence.append("degree-4 operator exists; no obstruction found")
    return LiftVerdict("inconclusive", evidence)


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


def _images(m: A1Module, word: str, k: int) -> List[int]:
    """The images under the word of the basis of degree k."""
    return [apply_word(m, word, k, 1 << i)[1] for i in range(m.dim(k))]


def assert_wing_image_lemma(m: A1Module) -> None:
    """im Sq2 ∩ ker Sq1 = im Sq2Sq1Sq2 in every degree of a flock (a sum of
    suspended seagulls; free summands violate it)."""
    for k in m.space.degrees:
        n = m.dim(k)
        sq2_in = Subspace.span(_images(m, "Sq2", k - 2), n)
        ker_sq1 = kernel(m.sq1.mat(k))
        rhs = Subspace.span(_images(m, "Sq2Sq1Sq2", k - 5), n)
        # rhs lies in both and has the dimension of their intersection
        assert all(sq2_in.contains(v) and ker_sq1.contains(v)
                   for v in rhs.basis)
        assert rhs.dim == sq2_in.dim + ker_sq1.dim - sq2_in.add(ker_sq1).dim


def _embed(t: A1Module, a: A1Module, b: A1Module,
           ka: int, va: int, kb: int, vb: int) -> int:
    """va (x) vb as a vector of t = tensor(a, b) in degree ka + kb."""
    out = 0
    k = ka + kb
    for i in range(a.dim(ka)):
        if not (va >> i) & 1:
            continue
        for j in range(b.dim(kb)):
            if not (vb >> j) & 1:
                continue
            lbl = f"{a.space.labels[ka][i]}(x){b.space.labels[kb][j]}"
            out ^= 1 << t.space.labels[k].index(lbl)
    return out


def assert_tensor_functional_symmetry(a: A1Module, b: A1Module) -> None:
    """In a (x) b, Sq2Sq1Sq2 x (x) y and x (x) Sq2Sq1Sq2 y differ by an action
    boundary for all basis vectors x and y, so any functional killing the
    action images agrees on them."""
    t = tensor(a, b)
    boundaries: Dict[int, Subspace] = {}
    for ka in a.space.degrees:
        for kb in b.space.degrees:
            k = ka + kb + 5
            if k not in boundaries:
                boundaries[k] = Subspace.span(
                    _images(t, "Sq1", k - 1) + _images(t, "Sq2", k - 2),
                    t.dim(k))
            for i in range(a.dim(ka)):
                for j in range(b.dim(kb)):
                    _, wa = apply_word(a, "Sq2Sq1Sq2", ka, 1 << i)
                    _, wb = apply_word(b, "Sq2Sq1Sq2", kb, 1 << j)
                    lhs = _embed(t, a, b, ka + 5, wa, kb, 1 << j)
                    rhs = _embed(t, a, b, ka, 1 << i, kb + 5, wb)
                    assert boundaries[k].contains(lhs ^ rhs)
