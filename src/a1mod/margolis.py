"""Homology with respect to the exterior operators Q0 = Sq1 and
Q1 = Sq2 Sq1 + Sq1 Sq2 (degree 3), and the splitting of a module into
free and trivial pieces over the subalgebra generated by Sq1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .a1core import A1Module, _word_rows
from .f2linalg import BitMatrix, Subspace, complement, image, insert, kernel

__all__ = [
    "MargolisResult", "A0Decomposition",
    "margolis_homology", "is_q0_local", "a0_decompose",
]

_SHIFT = {"Q0": 1, "Q1": 3}
_SLACK = {"Q0": 1, "Q1": 5}  # degrees discarded below a truncation cutoff


@dataclass
class MargolisResult:
    op: str                              # "Q0" or "Q1"
    reps: Dict[int, List[int]]           # cycle representatives per degree
    reliable: Tuple[Optional[int], Optional[int]]  # inclusive degree window

    @property
    def dims(self) -> Dict[int, int]:
        """Homology dimension per degree."""
        return {k: len(r) for k, r in self.reps.items()}

    def in_range(self, k: int) -> bool:
        lo, hi = self.reliable
        return (lo is None or k >= lo) and (hi is None or k <= hi)

    def nonzero_degrees(self) -> List[int]:
        return sorted(k for k, r in self.reps.items() if r)


@dataclass
class A0Decomposition:
    """Basis split over the subalgebra generated by Sq1: ``pairs`` are
    (degree, b, Sq1 b) spanning free summands, ``trivial`` are
    (degree, representative) classes with no Sq1 in or out."""

    pairs: List[Tuple[int, int, int]]
    trivial: List[Tuple[int, int]]


def _op_rows(m: A1Module, op: str, k: int) -> Optional[Sequence[int]]:
    """The rows of Q0 = Sq1 or of Q1 = Sq2 Sq1 + Sq1 Sq2 from degree k;
    None when the operator is zero there (``a1core._word_rows``)."""
    if op == "Q0":
        return _word_rows(m, "Sq1", k)
    a, b = _word_rows(m, "Sq2Sq1", k), _word_rows(m, "Sq1Sq2", k)
    if a is None or b is None:
        return b if a is None else a
    return [x ^ y for x, y in zip(a, b)]


def _reliable_window(m: A1Module, op: str) -> Tuple[Optional[int], Optional[int]]:
    cut, floor, slack = m.truncated_above, m.truncated_below, _SLACK[op]
    return (None if floor is None else floor + slack,
            None if cut is None else cut - slack)


def _homology_dims(m: A1Module, op: str) -> Iterator[Tuple[int, int]]:
    """(k, dim H(M; op)_k) for each degree of the reliable window, ascending.

    Q_i Q_i = 0 (Margolis, *Spectra and the Steenrod Algebra*, 1983), so
    the image of op into degree k lies in the kernel of op from k and
    dim H_k = dim M_k - rank op_k - rank op_(k-shift).  In the window
    (k <= cutoff - slack) op op from k - shift reduces to zero by
    Sq1 Sq1 = 0 and Sq2 Sq2 = Sq1 Sq2 Sq1 on degrees that
    ``a1core.validate`` checks.  Each rank is one pivot table over the rows
    of ``_op_rows``, formed once; callers may stop at the first nonzero.
    """
    shift = _SHIFT[op]
    lo, hi = _reliable_window(m, op)
    ranks: Dict[int, int] = {}

    def rank_from(j: int) -> int:
        if j not in ranks:
            pivots: Dict[int, int] = {}
            for row in _op_rows(m, op, j) or ():
                insert(pivots, row, (1 << m.dim(j)) - 1)
            ranks[j] = len(pivots)
        return ranks[j]

    for k in m.space.degrees:
        if (lo is None or k >= lo) and (hi is None or k <= hi):
            yield k, m.dim(k) - rank_from(k) - rank_from(k - shift)


def margolis_homology(m: A1Module, op: str = "Q0") -> MargolisResult:
    """Homology of Q0 or Q1 in each degree of the reliable window.

    The dimensions come from the rank pass ``_homology_dims``; only a
    degree with homology gets representatives, a basis of ker op_k modulo
    im op_(k-shift), and every other degree an empty list.  For the dual
    side pass ``a1core.dualize(m)``; its dimensions agree with those of m
    at negated degrees.
    """
    if op not in _SHIFT:
        raise ValueError(f"unknown operator {op!r}")
    shift = _SHIFT[op]

    def matrix(k: int) -> BitMatrix:
        rows = _op_rows(m, op, k) or (0,) * m.dim(k + shift)
        return BitMatrix(m.dim(k + shift), m.dim(k), tuple(rows))

    reps: Dict[int, List[int]] = {
        k: complement(image(matrix(k - shift)), kernel(matrix(k))) if d else []
        for k, d in _homology_dims(m, op)}
    return MargolisResult(op, reps, _reliable_window(m, op))


def is_q0_local(m: A1Module) -> bool:
    """True when the Q1-homology vanishes across the reliable window, by
    ranks (``_homology_dims``), stopping at the first degree with any."""
    return not any(d for _, d in _homology_dims(m, "Q1"))


def a0_decompose(m: A1Module) -> A0Decomposition:
    """Split the underlying Sq1-module into free pairs and trivial classes.

    In each degree, vectors completing ker(Sq1) to the whole degree span free
    summands together with their Sq1-images; the Q0-homology representatives
    of ``margolis_homology`` span trivial summands.  The listed vectors
    jointly form a basis of every degree in the Q0 reliable window.
    """
    pairs: List[Tuple[int, int, int]] = []
    hi = _reliable_window(m, "Q0")[1]
    for k in m.space.degrees:
        if hi is not None and k > hi:
            continue
        for b in complement(kernel(m.sq1.mat(k)), Subspace.full(m.dim(k))):
            pairs.append((k, b, m.sq1.apply(k, b)))
    reps = margolis_homology(m, "Q0").reps
    return A0Decomposition(pairs, [(k, r) for k, rs in reps.items() for r in rs])
