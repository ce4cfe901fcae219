"""Exact linear algebra over GF(2) with bit-packed rows.

A vector in F_2^n is an int whose bit i is coordinate i.  A matrix is an
immutable ``BitMatrix`` whose rows are such ints.  All routines are exact;
there is no floating point anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

from .errors import ShapeMismatch

__all__ = [
    "BitMatrix", "Subspace",
    "popcount", "dot",
    "rref", "rank", "solve", "kernel", "image", "preimage",
    "intersect", "complement",
]


def popcount(x: int) -> int:
    return x.bit_count()


def dot(u: int, v: int) -> int:
    """Standard bilinear pairing on F_2^n."""
    return popcount(u & v) & 1


@dataclass(frozen=True)
class BitMatrix:
    """An r-by-c matrix over GF(2); ``data[i]`` packs row i."""

    rows: int
    cols: int
    data: Tuple[int, ...]

    def __post_init__(self):
        if len(self.data) != self.rows:
            raise ShapeMismatch(f"{self.rows} rows declared, {len(self.data)} given")
        mask = (1 << self.cols) - 1
        for r in self.data:
            if r & ~mask:
                raise ShapeMismatch("row has bits beyond declared column count")

    @staticmethod
    def from_rows(rows: List[List[int]], cols: Optional[int] = None) -> "BitMatrix":
        if cols is None:
            cols = len(rows[0]) if rows else 0
        return BitMatrix(len(rows), cols,
                         tuple(sum((b & 1) << j for j, b in enumerate(r))
                               for r in rows))

    @staticmethod
    def from_columns(rows: int, columns: Sequence[int]) -> "BitMatrix":
        """The matrix with ``rows`` rows whose column j is ``columns[j]``."""
        data = [0] * rows
        for j, c in enumerate(columns):
            if c >> rows:
                raise ShapeMismatch(f"column {j} has bits beyond row {rows}")
            while c:
                low = c & -c
                data[low.bit_length() - 1] |= 1 << j
                c ^= low
        return BitMatrix(rows, len(columns), tuple(data))

    @staticmethod
    def zeros(rows: int, cols: int) -> "BitMatrix":
        return BitMatrix(rows, cols, (0,) * rows)

    @staticmethod
    def identity(n: int) -> "BitMatrix":
        return BitMatrix(n, n, tuple(1 << i for i in range(n)))

    def get(self, i: int, j: int) -> int:
        return (self.data[i] >> j) & 1

    def column(self, j: int) -> int:
        v = 0
        for i in range(self.rows):
            v |= ((self.data[i] >> j) & 1) << i
        return v

    def is_zero(self) -> bool:
        return all(r == 0 for r in self.data)

    def apply(self, v: int) -> int:
        """Matrix-vector product: bit i of the result is <row i, v>."""
        out = 0
        for i, r in enumerate(self.data):
            out |= dot(r, v) << i
        return out

    def mul(self, other: "BitMatrix") -> "BitMatrix":
        """self @ other (apply ``other`` first when both act on columns).

        Row i of the product is the XOR of the rows of ``other`` picked by
        the set bits of row i of ``self``: one XOR per set bit of ``self``.
        """
        if self.cols != other.rows:
            raise ShapeMismatch(f"cannot multiply {self.rows}x{self.cols} by "
                                f"{other.rows}x{other.cols}")
        out = []
        for r in self.data:
            acc = 0
            while r:
                low = r & -r
                acc ^= other.data[low.bit_length() - 1]
                r ^= low
            out.append(acc)
        return BitMatrix(self.rows, other.cols, tuple(out))

    def add(self, other: "BitMatrix") -> "BitMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeMismatch("matrix sum of unequal shapes")
        return BitMatrix(self.rows, self.cols,
                         tuple(a ^ b for a, b in zip(self.data, other.data)))

    def transpose(self) -> "BitMatrix":
        return BitMatrix.from_columns(self.cols, self.data)

    def vstack(self, other: "BitMatrix") -> "BitMatrix":
        if self.cols != other.cols:
            raise ShapeMismatch("vstack with unequal column counts")
        return BitMatrix(self.rows + other.rows, self.cols, self.data + other.data)

    def hstack(self, other: "BitMatrix") -> "BitMatrix":
        if self.rows != other.rows:
            raise ShapeMismatch("hstack with unequal row counts")
        return BitMatrix(self.rows, self.cols + other.cols,
                         tuple(a | (b << self.cols)
                               for a, b in zip(self.data, other.data)))

    @staticmethod
    def block_diag(blocks: List["BitMatrix"]) -> "BitMatrix":
        rows: List[int] = []
        col_off = 0
        for b in blocks:
            rows.extend(r << col_off for r in b.data)
            col_off += b.cols
        return BitMatrix(sum(b.rows for b in blocks), col_off, tuple(rows))


def _eliminate(rows: List[int], cols: int) -> Tuple[List[int], List[int]]:
    """In-place full reduction; returns (reduced nonzero rows, pivot columns)."""
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


def rref(m: BitMatrix) -> Tuple[BitMatrix, int]:
    """Canonical reduced row echelon form (zero rows at the bottom) and rank."""
    reduced, pivots = _eliminate(list(m.data), m.cols)
    data = tuple(reduced) + (0,) * (m.rows - len(reduced))
    return BitMatrix(m.rows, m.cols, data), len(pivots)


def rank(m: BitMatrix) -> int:
    return rref(m)[1]


@dataclass(frozen=True)
class Subspace:
    """A subspace of F_2^n, stored as its canonical RREF basis.

    Equality of subspaces is literal equality of the canonical basis.
    """

    ambient_dim: int
    basis: Tuple[int, ...]  # RREF rows, no zero rows

    @staticmethod
    def span(vectors: Iterable[int], ambient_dim: int) -> "Subspace":
        reduced, _ = _eliminate(list(vectors), ambient_dim)
        return Subspace(ambient_dim, tuple(reduced))

    @staticmethod
    def zero(ambient_dim: int) -> "Subspace":
        return Subspace(ambient_dim, ())

    @staticmethod
    def full(ambient_dim: int) -> "Subspace":
        return Subspace.span([1 << i for i in range(ambient_dim)], ambient_dim)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains(self, v: int) -> bool:
        for b in self.basis:
            low = b & -b  # pivot bit (lowest set bit of an RREF row)
            if v & low:
                v ^= b
        return v == 0

    def add(self, other: "Subspace") -> "Subspace":
        if self.ambient_dim != other.ambient_dim:
            raise ShapeMismatch("sum of subspaces of different ambient spaces")
        return Subspace.span(list(self.basis) + list(other.basis), self.ambient_dim)

    def coords(self, v: int) -> Optional[int]:
        """Express v in the canonical basis; bit i multiplies basis[i]."""
        out = 0
        for i, b in enumerate(self.basis):
            low = b & -b
            if v & low:
                v ^= b
                out |= 1 << i
        return out if v == 0 else None

    def as_matrix(self) -> BitMatrix:
        return BitMatrix(len(self.basis), self.ambient_dim, self.basis)


def solve(a: BitMatrix, b: int) -> Optional[int]:
    """One solution x of a x = b, or None.  Deterministic (free vars zero)."""
    n = a.cols
    # Row-reduce the augmented system [A^T rows are unhandy]; work on columns:
    # build rows of [A | b] where row i is (row of A, bit of b).
    rows = [a.data[i] | ((b >> i & 1) << n) for i in range(a.rows)]
    reduced, pivots = _eliminate(rows, n + 1)
    x = 0
    for r, p in zip(reduced, pivots):
        if p == n:
            return None  # pivot in the augmented column: inconsistent
        if (r >> n) & 1:
            x |= 1 << p
    return x


def kernel(a: BitMatrix) -> Subspace:
    """Null space {x : a x = 0} in canonical form."""
    n = a.cols
    reduced, pivots = _eliminate(list(a.data), n)
    pivot_set = set(pivots)
    free_cols = [j for j in range(n) if j not in pivot_set]
    vecs = []
    for f in free_cols:
        v = 1 << f
        for r, p in zip(reduced, pivots):
            if (r >> f) & 1:
                v |= 1 << p
        vecs.append(v)
    return Subspace.span(vecs, n)


def image(a: BitMatrix) -> Subspace:
    """Column space of a, inside F_2^rows."""
    return Subspace.span([a.column(j) for j in range(a.cols)], a.rows)


def _annihilator(s: Subspace) -> BitMatrix:
    """Matrix whose kernel is exactly s (rows span the dual annihilator)."""
    ann = kernel(s.as_matrix())
    return ann.as_matrix()


def preimage(a: BitMatrix, s: Subspace) -> Subspace:
    """{x : a x lies in s}."""
    if s.ambient_dim != a.rows:
        raise ShapeMismatch("preimage target lives in the wrong ambient space")
    c = _annihilator(s)
    return kernel(c.mul(a))


def intersect(s1: Subspace, s2: Subspace) -> Subspace:
    if s1.ambient_dim != s2.ambient_dim:
        raise ShapeMismatch("intersection across different ambient spaces")
    c = _annihilator(s1).vstack(_annihilator(s2))
    return kernel(c)


def complement(inner: Subspace, outer: Subspace) -> List[int]:
    """Vectors extending a basis of ``inner`` to one of ``outer``.

    Deterministic: scans the canonical basis of ``outer`` in order and keeps
    the lexicographically first completion.
    """
    if inner.ambient_dim != outer.ambient_dim:
        raise ShapeMismatch("complement across different ambient spaces")
    current = list(inner.basis)
    picked: List[int] = []
    for v in outer.basis:
        reduced, _ = _eliminate(current + [v], inner.ambient_dim)
        if len(reduced) > len(current):
            current = reduced
            picked.append(v)
    return picked
