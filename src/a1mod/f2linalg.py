"""Exact linear algebra over GF(2) with bit-packed rows.

A vector in F_2^n is an int whose bit i is coordinate i.  A matrix is an
immutable ``BitMatrix`` whose rows are such ints.  All routines are exact;
there is no floating point anywhere.

Every elimination goes through one pivot table: a dict holding each row
under its lowest set bit (Bruner, "Calculation of large Ext modules",
1989).  ``insert`` reduces a new row by the table until its lowest bit is
free and files it there; a row that reduces to zero lies in the span of
the rows inserted before it.  Bits above a ``mask`` are tracked rather than
eliminated: inserting ``v | t << n`` with the mask on the low n bits carries
the tag t through every reduction, so a row that reduces to zero on the
mask names in its tracked bits the combination that vanished.  ``solve``
and the minimal resolution read their answers off such tags.
``canonical`` clears each pivot bit from every other row of the table.
Sorted by pivot, these rows are the reduced echelon basis with lowest-bit
pivots, which depends only on the span: equal subspaces have equal
``Subspace.basis``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .errors import ShapeMismatch

__all__ = [
    "BitMatrix", "Subspace", "mul_rows", "insert", "canonical",
    "rank", "solve", "kernel", "image", "complement",
]


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
    def from_rows(rows: List[List[int]]) -> "BitMatrix":
        return BitMatrix(len(rows), len(rows[0]) if rows else 0,
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

    def is_zero(self) -> bool:
        return all(r == 0 for r in self.data)

    def apply(self, v: int) -> int:
        """Matrix-vector product: bit i is the parity of row i AND v."""
        out = 0
        for i, r in enumerate(self.data):
            out |= ((r & v).bit_count() & 1) << i
        return out

    def mul(self, other: "BitMatrix") -> "BitMatrix":
        """self @ other (apply ``other`` first when both act on columns).

        Row i of the product is the XOR of the rows of ``other`` picked by
        the set bits of row i of ``self``: one XOR per set bit of ``self``.
        """
        if self.cols != other.rows:
            raise ShapeMismatch(f"cannot multiply {self.rows}x{self.cols} by "
                                f"{other.rows}x{other.cols}")
        return BitMatrix(self.rows, other.cols,
                         tuple(mul_rows(self.data, other.data)))

    def add(self, other: "BitMatrix") -> "BitMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeMismatch("matrix sum of unequal shapes")
        return BitMatrix(self.rows, self.cols,
                         tuple(a ^ b for a, b in zip(self.data, other.data)))

    def transpose(self) -> "BitMatrix":
        return BitMatrix.from_columns(self.cols, self.data)

    @staticmethod
    def block_diag(blocks: List["BitMatrix"]) -> "BitMatrix":
        rows: List[int] = []
        col_off = 0
        for b in blocks:
            rows.extend(r << col_off for r in b.data)
            col_off += b.cols
        return BitMatrix(sum(b.rows for b in blocks), col_off, tuple(rows))


def mul_rows(left: Sequence[int], right: Sequence[int]) -> List[int]:
    """The rows of the product of two matrices given by their rows: row i
    is the XOR of the rows of ``right`` picked by the set bits of row i of
    ``left``, one XOR per set bit.  Shapes are the caller's to check."""
    out = []
    for r in left:
        acc = 0
        while r:
            low = r & -r
            acc ^= right[low.bit_length() - 1]
            r ^= low
        out.append(acc)
    return out


def insert(pivots: Dict[int, int], row: int, mask: int) -> int:
    """Reduce ``row`` on the bits of ``mask`` by the pivot rows, each keyed
    by its lowest bit; a row left nonzero there becomes a pivot.  Returns
    the reduced row."""
    while row & mask:
        low = row & -row
        pivot = pivots.get(low)
        if pivot is None:
            pivots[low] = row
            break
        row ^= pivot
    return row


def canonical(pivots: Dict[int, int]) -> List[int]:
    """Clear every pivot bit from the other rows of the table, in place,
    and return the rows in ascending pivot order."""
    keys = sorted(pivots)
    on_pivots = sum(keys)
    for low in reversed(keys):  # rows of higher pivot are already reduced
        row = pivots[low]
        rest = (row & on_pivots) ^ low
        while rest:
            bit = rest & -rest
            row ^= pivots[bit]
            rest ^= bit
        pivots[low] = row
    return [pivots[low] for low in keys]


def rank(m: BitMatrix) -> int:
    return Subspace.span(m.data, m.cols).dim


@dataclass(frozen=True)
class Subspace:
    """A subspace of F_2^n, stored as its canonical RREF basis.

    Equality of subspaces is literal equality of the canonical basis.
    """

    ambient_dim: int
    basis: Tuple[int, ...]  # RREF rows by lowest-bit pivot, no zero rows

    @staticmethod
    def span(vectors: Iterable[int], ambient_dim: int) -> "Subspace":
        mask = (1 << ambient_dim) - 1
        pivots: Dict[int, int] = {}
        for v in vectors:
            insert(pivots, v, mask)
        return Subspace(ambient_dim, tuple(canonical(pivots)))

    @staticmethod
    def full(ambient_dim: int) -> "Subspace":
        return Subspace(ambient_dim, tuple(1 << i for i in range(ambient_dim)))

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains(self, v: int) -> bool:
        return self.coords(v) is not None

    def add(self, other: "Subspace") -> "Subspace":
        if self.ambient_dim != other.ambient_dim:
            raise ShapeMismatch("sum of subspaces of different ambient spaces")
        return Subspace.span(self.basis + other.basis, self.ambient_dim)

    def coords(self, v: int) -> Optional[int]:
        """Express v in the canonical basis; bit i multiplies basis[i]."""
        out = 0
        for i, b in enumerate(self.basis):
            if v & b & -b:  # the pivot bit of b
                v ^= b
                out |= 1 << i
        return out if v == 0 else None


def solve(a: BitMatrix, b: int) -> Optional[int]:
    """One solution x of a x = b, or None.  Deterministic (free vars zero)."""
    n = a.cols
    mask = (1 << n) - 1
    pivots: Dict[int, int] = {}
    for i, r in enumerate(a.data):
        # row i of [A | b]; reduced to the bit of b alone, it reads 0 = 1
        if insert(pivots, r | (b >> i & 1) << n, mask) == 1 << n:
            return None
    return sum(r & -r for r in canonical(pivots) if r >> n)


def kernel(a: BitMatrix) -> Subspace:
    """Null space {x : a x = 0} in canonical form."""
    n = a.cols
    reduced = Subspace.span(a.data, n).basis
    pivot_bits = sum(r & -r for r in reduced)
    vecs = []
    for f in range(n):
        if not pivot_bits >> f & 1:
            # free variable f set to 1 fixes each pivot variable
            vecs.append(sum((r & -r for r in reduced if r >> f & 1), 1 << f))
    return Subspace.span(vecs, n)


def image(a: BitMatrix) -> Subspace:
    """Column space of a, inside F_2^rows."""
    return Subspace.span(a.transpose().data, a.rows)


def complement(inner: Subspace, outer: Subspace) -> List[int]:
    """Vectors extending a basis of ``inner`` to one of ``outer``.

    Deterministic: scans the canonical basis of ``outer`` in order and keeps
    each vector not in the span of ``inner`` and the vectors kept before it.
    """
    if inner.ambient_dim != outer.ambient_dim:
        raise ShapeMismatch("complement across different ambient spaces")
    mask = (1 << inner.ambient_dim) - 1
    pivots = {b & -b: b for b in inner.basis}
    return [v for v in outer.basis if insert(pivots, v, mask)]
