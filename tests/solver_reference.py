"""Reference solvers for the closed forms in ``a1core`` and ``davismahowald``.

Each packs every entry of an unknown graded map into one GF(2) system and
solves it, which is slow but independent of the closed forms' homological
algebra.  The tests compare the two on the same inputs.
"""

from typing import Dict, List, Tuple

from a1mod.a1core import A1Module, GradedMap
from a1mod.errors import ShapeMismatch
from a1mod.f2linalg import BitMatrix, solve
from a1mod.structure import _word_matrix


def _solve_packed(rows: List[int], rhs: List[int], n: int):
    b = 0
    for i, bit in enumerate(rhs):
        b |= bit << i
    return solve(BitMatrix(len(rows), n, tuple(rows)), b)


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
