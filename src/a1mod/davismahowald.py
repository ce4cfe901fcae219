"""A polynomial coefficient family, the Koszul-type exact complex built on
it, and the localized algebraic spectral sequence: its first page, the
closed-form first differential, and detectors for whether a Q0-local module
is the localization of an honest bounded-below module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .a1core import (A1Module, GradedMap, _word_rows, apply_word, f2,
                     linear_map_from_generators, module_from_edges, tensor)
from .errors import ShapeMismatch
from .f2linalg import (BitMatrix, Subspace, complement, kernel, mul_rows, rank,
                       solve)
from .margolis import MargolisResult, is_q0_local, margolis_homology
from .structure import default_cutoff, localize_q0, seagull

__all__ = [
    "DMComplexStage",
    "LocalizedE1", "D2Data", "E3Page", "LocalizedExt", "LiftVerdict",
    "build_N", "build_dm_complex", "check_dm_exactness",
    "e1_page", "d2", "e3_page",
    "seagull_localized_ext", "localized_ext", "lift_check", "sq4_solver",
]


# ---------------------------------------------------------------------------
# the coefficient family: polynomial generators in degrees 2 and 3


def _mono_label(i: int, j: int) -> str:
    return f"x2^{i}x3^{j}"


def build_N(sigma: int) -> A1Module:
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
    return module_from_edges(cells, sq1, sq2, name=f"N({sigma})")


# ---------------------------------------------------------------------------
# the Koszul-style exact complex


@dataclass
class DMComplexStage:
    module: A1Module
    a_gens: List[Tuple[str, int, int]]   # (label, degree, vector)
    boundary: GradedMap                  # to the previous stage (F2 at 0)


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


# kept here for the dm_complex bench op; moves with ROADMAP item 6
def build_dm_complex(max_sigma: int) -> List[DMComplexStage]:
    """Stages T (x) N(sigma) of the exact complex augmenting the length-one
    seagull T, with explicit boundaries defined on the listed generators and
    extended action-linearly."""
    wing = seagull(1)
    stages: List[DMComplexStage] = []
    # stage 0: the seagull itself, augmented to F2
    aug = linear_map_from_generators(wing, f2(), [(0, 1)], [(0, 1)])
    stages.append(DMComplexStage(wing, [], aug))
    prev = wing

    def gen_vec(i: int, j: int) -> Tuple[int, int]:
        """The cell bottom of T (x) x2^i x3^j, first in its degree: N(sigma)
        has one cell per degree, and ``tensor`` puts the block of T's bottom
        degree first.  At stage 0 (i = j = 0) it is the bottom of T."""
        return 2 * i + 3 * j, 1

    for sigma in range(1, max_sigma + 1):
        mod = tensor(wing, build_N(sigma))
        a_exp, b_exp = _gen_split(sigma)
        gens: List[Tuple[int, int]] = []
        values: List[Tuple[int, int]] = []
        a_gens: List[Tuple[str, int, int]] = []

        def target_word(word: str, i: int, j: int) -> Tuple[int, int]:
            return apply_word(prev, word, *gen_vec(i, j))

        for i in a_exp:
            j = sigma - i
            d, v = gen_vec(i, j)
            a_gens.append((_mono_label(i, j), d, v))
            gens.append((d, v))
            if i % 4 == sigma % 4:
                values.append(gen_vec(i - 3, j + 2))
            else:
                values.append((d, 0))
        r = sigma % 4
        for i in b_exp:
            j = sigma - i
            gens.append(gen_vec(i, j))
            if r == 0:
                values.append(target_word("Sq1Sq2Sq1Sq2", 3, sigma - 4))
            elif r == 1:
                values.append(target_word("Sq2", 0, sigma - 1))
            elif r == 2:
                if i == 2:
                    values.append(target_word("Sq2", 1, sigma - 2))
                else:
                    values.append(target_word("Sq2Sq2", 1, sigma - 2))
            else:  # both terms lie in degree 3 sigma - 3
                td, tv = target_word("Sq2", 2, sigma - 3)
                values.append((td, tv ^ gen_vec(0, sigma - 1)[1]))
        boundary = linear_map_from_generators(mod, prev, gens, values)
        stages.append(DMComplexStage(mod, a_gens, boundary))
        prev = mod
    return stages


def _exact(maps: List[GradedMap],
           max_t: Optional[int] = None) -> Tuple[bool, bool]:
    """(complex, exact) for maps listed in the order they apply: every
    neighbouring composite vanishes, and in every degree k up to max_t of
    the module Y between two maps a and b, b a vanishes at k and dim Y_k =
    rank b_k + rank a_(k - shift), so the image of a is the kernel of b."""
    pairs = [(a, b, b.compose(a)) for a, b in zip(maps, maps[1:])]
    return (all(ba.is_zero() for _, _, ba in pairs),
            all(ba.mat(k - a.shift).is_zero() and b.source.dim(k) == sum(
                rank(x.data, x.cols) for x in (b.mat(k), a.mat(k - a.shift)))
                for a, b, ba in pairs for k in b.source.degrees
                if max_t is None or k <= max_t))


def check_dm_exactness(stages: List[DMComplexStage], max_t: int) -> Dict[str, bool]:
    """Verify the complex property and exactness at every position that has
    an incoming stage, through internal degree max_t."""
    ok_complex, ok_exact = _exact([st.boundary for st in reversed(stages)],
                                  max_t)
    # the augmentation is onto
    aug = stages[0].boundary.mat(0)
    onto = rank(aug.data, aug.cols) == 1
    return {"complex": ok_complex, "exact": ok_exact, "onto": onto}


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
    pairs: List[Tuple[str, str]]              # nonzero (source, target), sorted

    def is_zero(self) -> bool:
        return not self.pairs


@dataclass
class E3Page:
    # families at the first column (no incoming differential) and at the
    # generic even column
    first_column: List[Tuple[int, int]]       # (stem, dim) for sigma = 0
    generic: List[Tuple[int, int]]            # (dual degree, dim) for sigma >= 2


def _class_label(k: int, i: int) -> str:
    """The label of the i-th dual Q0-homology class in dual degree k."""
    return f"d{-k}.{i}*"


def _wing_rank(m: A1Module, k: int) -> int:
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


def _dual_classes(m: A1Module) -> Tuple[MargolisResult, List[Tuple[int, str]],
                                        Dict[int, int]]:
    """H(DM; Q0) by transposition (``MargolisResult.dual``), its class labels
    and the rank of d2 out of each dual degree delta: the transpose of W on
    H(M; Q0) from -delta - 5 to -delta (``_wing_rank``)."""
    h = margolis_homology(m, "Q0").dual()
    out = {delta: _wing_rank(m, -delta - 5) if d and h.dims.get(delta + 5)
           else 0 for delta, d in h.dims.items()}
    return h, [(k, _class_label(k, i))
               for k, d in h.dims.items() for i in range(d)], out


def _dual_reps(m: A1Module, k: int) -> List[int]:
    """Representatives of H(DM; Q0)_(-k) as functionals on M_k: the dual's
    boundaries are the row space of Sq1 from k and its cycles the kernel of
    the transposed Sq1 from k - 1, the canonical subspaces ``dualize`` has."""
    return complement(Subspace.span(m.sq1.mat(k).data, m.dim(k)),
                      kernel(m.sq1.mat(k - 1).transpose()))


def e1_page(m: A1Module, max_sigma: int) -> LocalizedE1:
    h, classes, _ = _dual_classes(m)
    records: List[Tuple[int, int, str]] = []
    for sigma in range(0, max_sigma + 1, 2):
        for (delta, label) in classes:
            records.append((sigma, 2 * sigma - delta, label))
    return LocalizedE1(classes, records, h.reliable)


def d2(m: A1Module) -> D2Data:
    """The closed-form first differential: right multiplication by
    W = Sq2Sq1Sq2 on dual Q0-homology, dropping one stem and raising
    filtration by two.  A dual class is a functional phi on M_(-delta)
    (``_dual_reps``) and phi W is phi times the rows of W from -delta - 5;
    only the dual degrees where d2 has nonzero rank are visited."""
    _, classes, out = _dual_classes(m)
    pairs: List[Tuple[str, str]] = []
    for delta in [delta for delta, r in out.items() if r]:
        k = -delta - 5  # the target's degree in m
        wing = _word_rows(m, "Sq2Sq1Sq2", k)
        tgt_reps = _dual_reps(m, k)
        bounds = Subspace.span(m.sq1.mat(k).data, m.dim(k)).basis
        mat = BitMatrix.from_columns(m.dim(k), tgt_reps + list(bounds))
        for c, phi in enumerate(_dual_reps(m, -delta)):
            x = solve(mat, mul_rows([phi], wing)[0])
            if x is None:
                raise ShapeMismatch("differential image is not a cycle")
            pairs += [(_class_label(delta, c), _class_label(delta + 5, t))
                      for t in range(len(tgt_reps)) if x >> t & 1]
    return D2Data(classes, sorted(pairs))


def e3_page(m: A1Module) -> E3Page:
    """Kernel and image dimensions of d2 per dual degree, from the ranks of
    ``_dual_classes``."""
    h, _, out = _dual_classes(m)
    return E3Page([(-delta, d - out[delta]) for delta, d in h.dims.items()],
                  [(delta, d - out[delta] - out.get(delta - 5, 0))
                   for delta, d in h.dims.items()])


# ---------------------------------------------------------------------------
# localized Ext answers and lifting detectors


@dataclass
class LocalizedExt:
    stems: Dict[int, int]          # stem -> number of towers
    open_ended: bool               # an unbounded seagull contributed
    cutoff: Optional[int]

    def tower_stems(self) -> List[int]:
        return sorted(k for k, v in self.stems.items() if v)


def seagull_localized_ext(n: int, shift: int) -> List[int]:
    """Stems carrying h0-towers for a length-n seagull."""
    return [shift + 4 * k for k in range(n)]


def localized_ext(m: A1Module, max_stem: int) -> LocalizedExt:
    """Tower stems of the localized Ext, via classification of the
    localization."""
    cutoff = None if m.lo is None else max(default_cutoff(m),
                                           m.lo + max_stem + 12)
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
    obstruction (``sq4_solver``).  The differential is tested by its ranks
    (``_wing_rank``) and named by ``d2`` only when it is nonzero."""
    evidence: List[str] = []
    if any(_dual_classes(m)[2].values()):
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
    if not sq4_solver(m):
        evidence.append("no degree-4 operator satisfies the commutator equation")
        return LiftVerdict("no_lift", evidence)
    evidence.append("degree-4 operator exists; no obstruction found")
    return LiftVerdict("inconclusive", evidence)


def sq4_solver(m: A1Module) -> bool:
    """Whether degreewise maps S: M_k -> M_{k+4} exist with

        Sq1 S + S Sq1 = Sq2 Sq1 Sq2 = W

    across every degree k with k + 5 at or below the truncation cutoff.
    False certifies that no lift exists.

    W commutes with Sq1, so it is a chain map of degree 5 on the complex
    (M, Sq1), and S is a null-homotopy of it.  Over a field one exists
    exactly when W is zero on homology, here Q0-homology (Weibel, An
    Introduction to Homological Algebra, 1994, ch. 1): W must send the
    cycles of degree k into the boundaries of degree k + 5.
    """
    cut = m.truncated_above
    return all(_wing_rank(m, k) == 0 for k in m.space.degrees
               if cut is None or k + 5 <= cut)
