"""A polynomial coefficient family, two explicit exact complexes, and the
localized algebraic spectral sequence built from them: its first page, the
closed-form first differential, and detectors for whether a Q0-local module
is the localization of an honest bounded-below module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .a1core import (A1Module, GradedMap, _word_matrix, apply_word, dualize,
                     f2, free_module_on, linear_map_from_generators,
                     module_from_edges, tensor)
from .errors import ShapeMismatch
from .f2linalg import BitMatrix, Subspace, complement, image, kernel, solve
from .margolis import is_q0_local, margolis_homology
from .structure import default_cutoff, localize_q0, seagull

__all__ = [
    "NSigma", "DMComplexStage", "InjectiveStage",
    "LocalizedE1", "D2Data", "E3Page", "LocalizedExt", "LiftVerdict", "Sq4Result",
    "build_N", "build_dm_complex", "check_dm_exactness",
    "build_injective", "check_injective_exactness",
    "e1_page", "d2", "e3_page",
    "seagull_localized_ext", "localized_ext", "lift_check", "sq4_solver",
]


# ---------------------------------------------------------------------------
# the coefficient family: polynomial generators in degrees 2 and 3


def _mono_label(i: int, j: int) -> str:
    return f"x2^{i}x3^{j}"


@dataclass
class NSigma:
    sigma: int
    module: A1Module
    monomials: List[Tuple[int, int]]   # (i, j) with i + j = sigma


def build_N(sigma: int) -> NSigma:
    """Degree-sigma polynomials in generators of internal degrees 2 and 3.

    Sq1 x2^i x3^j = x2^{i-1} x3^{j+1}   when i > 0 and j is even,
    Sq2 x2^i x3^j = x2^{i-2} x3^{j+2}   when i > 1 and j = 0 or 1 mod 4,
    both zero otherwise.
    """
    if sigma < 0:
        raise ValueError("negative polynomial degree")
    monomials = [(sigma - j, j) for j in range(sigma + 1)]
    cells = [(_mono_label(i, j), 2 * i + 3 * j) for i, j in monomials]
    sq1 = [(_mono_label(i, j), _mono_label(i - 1, j + 1))
           for i, j in monomials if i > 0 and j % 2 == 0]
    sq2 = [(_mono_label(i, j), _mono_label(i - 2, j + 2))
           for i, j in monomials if i > 1 and j % 4 in (0, 1)]
    return NSigma(sigma, module_from_edges(cells, sq1, sq2, name=f"N({sigma})"),
                  monomials)


# ---------------------------------------------------------------------------
# the Koszul-style exact complex


@dataclass
class DMComplexStage:
    sigma: int
    module: A1Module
    a_gens: List[Tuple[str, int, int]]   # (label, degree, vector)
    b_gens: List[Tuple[str, int, int]]
    boundary: GradedMap                  # to the previous stage (F2 at 0)


def _tensor_vector(t: A1Module, left_label: str, left_deg: int,
                   right_label: str, right_deg: int) -> Tuple[int, int]:
    d = left_deg + right_deg
    lbl = f"{left_label}(x){right_label}"
    idx = t.space.labels[d].index(lbl)
    return d, 1 << idx


def _gen_split(sigma: int) -> Tuple[List[int], List[int]]:
    """Exponents i of the generators 1 (x) x2^i x3^(sigma-i), split into the
    free block and the block carrying the interesting part."""
    a = [sigma - 2 * j for j in range(2 * (sigma // 4))]
    b: List[int] = []
    r = sigma % 4
    if r == 0:
        b = [0]
    elif r == 1:
        b = [1]
    elif r == 2:
        b = [2, 0]
    else:
        a = a + [1]
        b = [3]
    return a, b


def build_dm_complex(max_sigma: int) -> List[DMComplexStage]:
    """Stages T (x) N(sigma) of the exact complex augmenting the length-one
    seagull T, with explicit boundaries defined on the listed generators and
    extended action-linearly."""
    wing = seagull(1)
    bottom_label = wing.space.labels[0][0]
    stages: List[DMComplexStage] = []
    # stage 0: the seagull itself, augmented to F2
    aug = linear_map_from_generators(wing, f2(), [(0, 1)], [(0, 1)], shift=0)
    stages.append(DMComplexStage(0, wing, [], [(bottom_label, 0, 1)], aug))
    prev = wing
    prev_n: Optional[NSigma] = None

    def gen_vec(stage_mod: A1Module, n: Optional[NSigma], i: int, j: int):
        if n is None:  # stage 0: no polynomial factor
            return 0, 1
        d = 2 * i + 3 * j
        return _tensor_vector(stage_mod, bottom_label, 0, _mono_label(i, j), d)

    for sigma in range(1, max_sigma + 1):
        n = build_N(sigma)
        mod = tensor(wing, n.module)
        a_exp, b_exp = _gen_split(sigma)
        gens: List[Tuple[int, int]] = []
        values: List[Tuple[int, int]] = []
        a_gens: List[Tuple[str, int, int]] = []
        b_gens: List[Tuple[str, int, int]] = []

        def target_word(word: str, i: int, j: int) -> Tuple[int, int]:
            d, v = gen_vec(prev, prev_n, i, j)
            return apply_word(prev, word, d, v)

        for i in a_exp:
            j = sigma - i
            d, v = gen_vec(mod, n, i, j)
            a_gens.append((_mono_label(i, j), d, v))
            gens.append((d, v))
            if i % 4 == sigma % 4:
                values.append(gen_vec(prev, prev_n, i - 3, j + 2))
            else:
                values.append((d, 0))
        r = sigma % 4
        for i in b_exp:
            j = sigma - i
            d, v = gen_vec(mod, n, i, j)
            b_gens.append((_mono_label(i, j), d, v))
            gens.append((d, v))
            if r == 0:
                values.append(target_word("Sq1Sq2Sq1Sq2", 3, sigma - 4))
            elif r == 1:
                values.append(target_word("Sq2", 0, sigma - 1))
            elif r == 2:
                if i == 2:
                    values.append(target_word("Sq2", 1, sigma - 2))
                else:
                    values.append(target_word("Sq2Sq2", 1, sigma - 2))
            else:
                td, tv = target_word("Sq2", 2, sigma - 3)
                ed, ev = gen_vec(prev, prev_n, 0, sigma - 1)
                if ed != td:
                    raise ShapeMismatch("boundary terms in different degrees")
                values.append((td, tv ^ ev))
        boundary = linear_map_from_generators(mod, prev, gens, values, shift=0)
        stages.append(DMComplexStage(sigma, mod, a_gens, b_gens, boundary))
        prev, prev_n = mod, n
    return stages


def _exact(maps: List[GradedMap],
           max_t: Optional[int] = None) -> Tuple[bool, bool]:
    """(complex, exact) for maps listed in the order they apply: every
    neighbouring composite vanishes, and in every degree up to max_t of the
    module between two maps the kernel of the later one is the image of the
    earlier one."""
    pairs = list(zip(maps, maps[1:]))
    return (all(b.compose(a).is_zero() for a, b in pairs),
            all(kernel(b.mat(k)) == image(a.mat(k - a.shift))
                for a, b in pairs for k in b.source.degrees
                if max_t is None or k <= max_t))


def check_dm_exactness(stages: List[DMComplexStage], max_t: int) -> Dict[str, bool]:
    """Verify the complex property and exactness at every position that has
    an incoming stage, through internal degree max_t."""
    ok_complex, ok_exact = _exact([st.boundary for st in reversed(stages)],
                                  max_t)
    # the augmentation is onto
    onto = image(stages[0].boundary.mat(0)).dim == 1
    return {"complex": ok_complex, "exact": ok_exact, "onto": onto}


# ---------------------------------------------------------------------------
# the injective (free) resolution with generators in negative degrees


@dataclass
class InjectiveStage:
    s: int
    module: A1Module
    gens: Dict[int, Tuple[int, int]]     # gen degree -> (degree, vector)
    f: GradedMap                         # from the previous stage (F2 at 0)
    r: Tuple[int, int]                   # distinguished element r_s
    t: Tuple[int, int]                   # t_s = Sq1 r_s


def _injective_gen_degrees(s: int) -> List[int]:
    r = s % 4
    if r == 0:
        js = range(s // 2 + 1)
        extra: List[int] = []
    elif r == 1:
        js = range((s - 1) // 2 + 1)
        extra = [-5 - 3 * s]
    elif r == 2:
        js = range((s - 2) // 2 + 1)
        extra = [-4 - 3 * s]
    else:
        js = range((s - 1) // 2 + 1)
        extra = []
    return sorted([-s - 4 * j - 6 for j in js] + extra, reverse=True)


def build_injective(max_s: int) -> List[InjectiveStage]:
    """The free resolution that feeds the localized spectral sequence; stage
    s generators sit in negative degrees -s-4j-6 with boundary-pattern
    extras, and the structure maps are

        f_s(e[k]) = Sq1 e[k-1] + Sq2 e[k-2] + Sq2Sq1 e[k-3] + Sq2Sq1Sq2 e[k-5]

    omitting any absent generators."""
    stages: List[InjectiveStage] = []
    prev: Optional[InjectiveStage] = None
    for s in range(max_s + 1):
        degs = _injective_gen_degrees(s)
        mod = free_module_on([(f"e[{gd}]", gd) for gd in degs])
        gens = {gd: (gd, 1 << mod.space.labels[gd].index(f"e[{gd}]"))
                for gd in degs}
        r_vec = apply_word(mod, "Sq2Sq1Sq2", *gens[-s - 6])
        t_vec = apply_word(mod, "Sq1", *r_vec)
        if prev is None:  # the augmentation F2 -> C_0, 1 -> t_0
            source, gsrcs, gvals = f2(t_vec[0]), [(t_vec[0], 1)], [t_vec]
        else:
            source, gsrcs, gvals = prev.module, [], []
            for k, gv in prev.gens.items():
                acc = 0
                for word, off in (("Sq1", 1), ("Sq2", 2),
                                  ("Sq2Sq1", 3), ("Sq2Sq1Sq2", 5)):
                    if k - off in gens:
                        d, v = apply_word(mod, word, *gens[k - off])
                        if d != k:
                            raise ShapeMismatch("structure map degree error")
                        acc ^= v
                gsrcs.append(gv)
                gvals.append((k, acc))
        # the source is generated by gsrcs, so their values fix the map
        fmap = linear_map_from_generators(source, mod, gsrcs, gvals, shift=0)
        stages.append(InjectiveStage(s, mod, gens, fmap, r_vec, t_vec))
        prev = stages[-1]
    return stages


def check_injective_exactness(stages: List[InjectiveStage]) -> Dict[str, bool]:
    """f o f = 0 from the augmentation 1 -> t_0 on, exactness at every stage
    with an outgoing map, and f_s(r_{s-1}) = t_s."""
    ok_complex, ok_exact = _exact([st.f for st in stages])
    ok_rt = all((prev.r[0], st.f.apply(*prev.r)) == st.t
                for prev, st in zip(stages, stages[1:]))
    return {"complex": ok_complex, "exact": ok_exact, "r_t": ok_rt}


# ---------------------------------------------------------------------------
# the localized spectral sequence: first page, first differential, third page


@dataclass
class LocalizedE1:
    """Columns repeat the dual Q0-homology at every even filtration; each
    class contributes an h0-tower in stem 2*sigma + (original degree)."""

    classes: List[Tuple[int, str]]            # (dual degree, label)
    records: List[Tuple[int, int, str]]       # (sigma, stem, class label)
    reliable: Tuple[Optional[int], Optional[int]]


@dataclass
class D2Data:
    classes: List[Tuple[int, str]]
    mats: Dict[int, BitMatrix]                # dual degree -> matrix into degree+5
    pairs: List[Tuple[str, str]]              # nonzero pairings (source, target)

    def is_zero(self) -> bool:
        return all(m.is_zero() for m in self.mats.values())


@dataclass
class E3Page:
    # families at the first column (no incoming differential) and at the
    # generic even column
    first_column: List[Tuple[int, int]]       # (stem, dim) for sigma = 0
    generic: List[Tuple[int, int]]            # (dual degree, dim) for sigma >= 2


def _dual_homology(dual: A1Module):
    """Q0-homology of an already dualized module, with class labels."""
    h = margolis_homology(dual, "Q0")
    classes: List[Tuple[int, str]] = []
    for k in sorted(h.reps):
        for i in range(len(h.reps[k])):
            classes.append((k, f"d{-k}.{i}*"))
    return h, classes


def e1_page(m: A1Module, max_sigma: int) -> LocalizedE1:
    h, classes = _dual_homology(dualize(m))
    records: List[Tuple[int, int, str]] = []
    for sigma in range(0, max_sigma + 1, 2):
        for (delta, label) in classes:
            records.append((sigma, 2 * sigma - delta, label))
    return LocalizedE1(classes, records, h.reliable)


def d2(m: A1Module) -> D2Data:
    """The closed-form first differential: right multiplication by Sq2Sq1Sq2
    on dual Q0-homology, dropping one stem and raising filtration by two."""
    dual = dualize(m)
    h, classes = _dual_homology(dual)
    mats: Dict[int, BitMatrix] = {}
    pairs: List[Tuple[str, str]] = []
    label_at = {}
    for (delta, lbl) in classes:
        label_at.setdefault(delta, []).append(lbl)
    for delta in sorted(h.reps):
        src_reps = h.reps[delta]
        tgt_delta = delta + 5
        tgt_reps = h.reps.get(tgt_delta, [])
        rows = len(tgt_reps)
        cols_out = [0] * len(src_reps)
        if rows:
            im = image(dual.sq1.mat(tgt_delta - 1))
            mat = BitMatrix.from_columns(dual.dim(tgt_delta),
                                         list(tgt_reps) + list(im.basis))
            for ci, rep in enumerate(src_reps):
                _, img = apply_word(dual, "Sq2Sq1Sq2", delta, rep)
                if img == 0:
                    continue
                x = solve(mat, img)
                if x is None:
                    raise ShapeMismatch("differential image is not a cycle")
                cols_out[ci] = x & ((1 << rows) - 1)
        for c, v in enumerate(cols_out):
            for r in range(rows):
                if (v >> r) & 1:
                    pairs.append((label_at[delta][c], label_at[tgt_delta][r]))
        mats[delta] = BitMatrix.from_columns(rows, cols_out)
    return D2Data(classes, mats, sorted(set(pairs)))


def e3_page(m: A1Module) -> E3Page:
    data = d2(m)
    first: List[Tuple[int, int]] = []
    generic: List[Tuple[int, int]] = []
    for delta in sorted(data.mats):  # the degrees of the dual Q0-homology
        ker_dim = kernel(data.mats[delta]).dim
        src = data.mats.get(delta - 5)  # maps classes at delta-5 into delta
        im_dim = image(src).dim if src is not None and src.rows else 0
        first.append((-delta, ker_dim))
        generic.append((delta, ker_dim - im_dim))
    return E3Page(first, generic)


# ---------------------------------------------------------------------------
# localized Ext answers and lifting detectors


@dataclass
class LocalizedExt:
    stems: Dict[int, int]          # stem -> number of towers
    open_ended: bool               # an unbounded seagull contributed
    cutoff: Optional[int]

    def tower_stems(self) -> List[int]:
        return sorted(k for k, v in self.stems.items() if v)


def seagull_localized_ext(n: Optional[int], shift: int = 0,
                          max_stem: Optional[int] = None) -> List[int]:
    """Stems carrying h0-towers for a length-n seagull (n=None: unbounded)."""
    if n is None:
        if max_stem is None:
            raise ValueError("unbounded seagull needs a stem bound")
        return [shift + 4 * k for k in range(max_stem // 4 + 1)
                if shift + 4 * k <= max_stem]
    return [shift + 4 * k for k in range(n)]


def localized_ext(m: A1Module, max_stem: int,
                  cutoff: Optional[int] = None) -> LocalizedExt:
    """Tower stems of the localized Ext, via classification of the
    localization."""
    if cutoff is None:
        lo = m.lo or 0
        cutoff = max(default_cutoff(m), lo + max_stem + 12)
    report = localize_q0(m, cutoff)
    stems: Dict[int, int] = {}
    open_ended = False
    for e in report.descriptor.seagulls:
        if not e.exact:
            open_ended = True
        for stem in seagull_localized_ext(e.length, e.shift):
            if stem <= max_stem:
                stems[stem] = stems.get(stem, 0) + 1
    return LocalizedExt(stems, open_ended, report.descriptor.cutoff)


@dataclass
class LiftVerdict:
    outcome: str                   # "no_lift" | "lifts" | "inconclusive"
    evidence: List[str]


def lift_check(m: A1Module, cutoff: Optional[int] = None) -> LiftVerdict:
    """Can this module be the localization of a bounded-below module whose
    localized spectral sequence collapses onto it?  Detectors in order:
    a nonzero closed-form differential, a finite seagull in the localized
    flock, an all-open flock for a local module, then the degree-4 operator
    obstruction, which only a truncated module can meet: otherwise the
    operator exists once the differential vanishes."""
    evidence: List[str] = []
    data = d2(m)
    if not data.is_zero():
        src, tgt = data.pairs[0]
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
    if is_q0_local(m).local:
        evidence.append("module is Q0-local with an open flock")
        return LiftVerdict("lifts", evidence)
    # without truncation the operator exists exactly when d2 vanishes, as
    # it has here (W is zero on Q0-homology exactly when right
    # multiplication by W, which is d2, is zero on the dual's), so only a
    # truncated module needs the solver
    truncated = m.truncated_above is not None or m.truncated_below is not None
    if truncated and not sq4_solver(m).feasible:
        evidence.append("no degree-4 operator satisfies the commutator equation")
        return LiftVerdict("no_lift", evidence)
    evidence.append("degree-4 operator exists; no obstruction found")
    return LiftVerdict("inconclusive", evidence)


@dataclass
class Sq4Result:
    feasible: bool
    mats: Optional[Dict[int, BitMatrix]]   # degree k -> matrix into k+4


def sq4_solver(m: A1Module) -> Sq4Result:
    """Look for degreewise maps S: M_k -> M_{k+4} with

        Sq1 S + S Sq1 = Sq2 Sq1 Sq2 = W

    across every degree k with k + 5 at or below the truncation cutoff.
    Infeasibility certifies that no lift exists.

    W commutes with Sq1, so it is a chain map of degree 5 on the complex
    (M, Sq1), and S is a null-homotopy of it.  Over a field one exists
    exactly when W is zero on homology, here Q0-homology (Weibel, An
    Introduction to Homological Algebra, 1994, ch. 1): W must send the
    cycles of degree k into the boundaries of degree k + 5.  Split each
    degree j as boundaries + homology representatives R_j + a complement U_j
    of the cycles; h inverts Sq1 from U_{j-1} onto the boundaries (zero on
    R_j and U_j) and pi projects onto R_j.  Then S = W h + h W pi.
    """
    degs = m.space.degrees
    span = {k + d for k in degs for d in (-1, 0, 4, 5)}  # the degrees read
    cycles = {j: kernel(m.sq1.mat(j)) for j in span}
    bounds = {j: image(m.sq1.mat(j - 1)) for j in span}
    rest = {j: complement(cycles[j], Subspace.full(m.dim(j))) for j in span}
    wing = {j: _word_matrix(m, "Sq2Sq1Sq2", j) for j in span}
    cut = m.truncated_above
    for k in degs:
        if (cut is None or k + 5 <= cut) and not all(
                bounds[k + 5].contains(wing[k].apply(z)) for z in cycles[k].basis):
            return Sq4Result(False, None)

    def contraction(j: int) -> Tuple[BitMatrix, BitMatrix]:
        """h: M_j -> M_{j-1} and pi: M_j -> M_j, read off the coordinates
        in the basis Sq1 U_{j-1}, R_j, U_j of M_j."""
        n, lifts = m.dim(j), rest[j - 1]
        reps = complement(bounds[j], cycles[j])
        basis = BitMatrix.from_columns(
            n, [m.sq1.apply(j - 1, u) for u in lifts] + reps + rest[j])
        coords = BitMatrix.from_columns(  # the inverse of basis
            n, [solve(basis, 1 << c) for c in range(n)]).data
        nb, nr = len(lifts), len(reps)
        h = BitMatrix.from_columns(m.dim(j - 1), lifts).mul(
            BitMatrix(nb, n, coords[:nb]))
        pi = BitMatrix.from_columns(n, reps).mul(
            BitMatrix(nr, n, coords[nb:nb + nr]))
        return h, pi

    hpi = {j: contraction(j) for j in {k + d for k in degs for d in (0, 5)}}
    return Sq4Result(True, {
        k: wing[k - 1].mul(hpi[k][0]).add(
            hpi[k + 5][0].mul(wing[k]).mul(hpi[k][1]))
        for k in degs if m.dim(k + 4)})
