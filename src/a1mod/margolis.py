"""Homology with respect to the exterior operators Q0 = Sq1 and
Q1 = Sq2 Sq1 + Sq1 Sq2 (degree 3), and the splitting of a module into
free and trivial pieces over the subalgebra generated by Sq1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .a1core import A1Module, GradedMap, _word_matrix
from .f2linalg import Subspace, complement, image, kernel

__all__ = [
    "MargolisResult", "A0Decomposition",
    "q1_map", "margolis_homology", "is_q0_local", "a0_decompose",
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


def q1_map(m: A1Module) -> GradedMap:
    """Q1 = Sq2 Sq1 + Sq1 Sq2, a degree 3 operator with Q1 Q1 = 0."""
    return GradedMap(m.space, m.space, 3, {
        k: _word_matrix(m, "Sq2Sq1", k).add(_word_matrix(m, "Sq1Sq2", k))
        for k in m.space.degrees if m.dim(k + 3)})


def _reliable_window(m: A1Module, op: str) -> Tuple[Optional[int], Optional[int]]:
    lo = None
    hi = None
    if m.truncated_above is not None:
        hi = m.truncated_above - _SLACK[op]
    if m.truncated_below is not None:
        lo = m.truncated_below + _SLACK[op]
    return lo, hi


def margolis_homology(m: A1Module, op: str = "Q0") -> MargolisResult:
    """Degreewise ker/im homology of Q0 or Q1.

    For the dual side pass ``a1core.dualize(m)``; its dimensions agree with
    those of m at negated degrees.
    """
    if op not in _SHIFT:
        raise ValueError(f"unknown operator {op!r}")
    q = m.sq1 if op == "Q0" else q1_map(m)
    shift = _SHIFT[op]
    lo_r, hi_r = _reliable_window(m, op)
    reps: Dict[int, List[int]] = {}
    for k in m.space.degrees:
        if (lo_r is not None and k < lo_r) or (hi_r is not None and k > hi_r):
            continue
        reps[k] = complement(image(q.mat(k - shift)), kernel(q.mat(k)))
    return MargolisResult(op, reps, (lo_r, hi_r))


def is_q0_local(m: A1Module) -> bool:
    """True when the Q1-homology vanishes across the reliable window."""
    return not margolis_homology(m, "Q1").nonzero_degrees()


def a0_decompose(m: A1Module) -> A0Decomposition:
    """Split the underlying Sq1-module into free pairs and trivial classes.

    In each degree, vectors completing ker(Sq1) to the whole degree span free
    summands together with their Sq1-images; the Q0-homology representatives
    of ``margolis_homology`` span trivial summands.  The listed vectors
    jointly form a basis of every degree in its reliable window.
    """
    pairs: List[Tuple[int, int, int]] = []
    for k in m.space.degrees:
        if m.truncated_above is not None and k > m.truncated_above - 1:
            continue
        for b in complement(kernel(m.sq1.mat(k)), Subspace.full(m.dim(k))):
            pairs.append((k, b, m.sq1.apply(k, b)))
    reps = margolis_homology(m, "Q0").reps
    return A0Decomposition(pairs, [(k, r) for k, rs in reps.items() for r in rs])
