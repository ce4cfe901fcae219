"""The 8-dimensional subalgebra generated by Sq1 and Sq2, and graded modules
over it.

A module is a collection of finite-dimensional GF(2) vector spaces, one per
integer degree, with degree +1 and +2 operators satisfying

    (1) Sq1 Sq1 = 0
    (2) Sq2 Sq2 = Sq1 Sq2 Sq1

Words are written with the rightmost factor acting first, so ``Sq1Sq2``
applied to v is Sq1(Sq2(v)).  A word is ``"1"`` or a string of ``Sq1`` and
``Sq2``; ``_factors`` parses it, once per word, and refuses anything else.
It acts on a module along one of two paths: ``apply_word`` on a vector, and
``_word_rows`` on a whole degree, as the rows of the word's matrix.  Both
read a factor whose structure matrix is absent (``GradedMap`` stores no
block out of or into an empty degree, and none lies above a truncation
cutoff) as zero, so the whole word is zero from that degree:
``apply_word`` returns the zero vector and ``_word_rows`` returns None.

Every presentation built here (free modules, seagulls, the polynomial
family, ``.mod`` files) is a list of labelled basis cells plus Sq1 and Sq2
edges between them, and goes through ``module_from_edges``;
``free_module_on`` gives the free module on any list of generators.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .errors import RelationViolation, ShapeMismatch, TruncationTooTight
from .f2linalg import BitMatrix, Subspace, mul_rows

__all__ = [
    "WORDS", "WORD_DEGREE", "LMUL", "PRODUCT", "TOP_WORD", "DUAL_WORD",
    "GradedSpace", "GradedMap", "A1Module",
    "module", "module_from_edges", "validate", "f2", "free_module",
    "free_module_on", "zero_module",
    "direct_sum", "suspend", "truncate", "tensor", "dualize",
    "apply_word", "linear_map_from_generators",
]

# Additive basis: admissible words, indexed by composition (rightmost first).
WORDS: Tuple[str, ...] = (
    "1", "Sq1", "Sq2", "Sq1Sq2", "Sq2Sq1",
    "Sq1Sq2Sq1", "Sq2Sq1Sq2", "Sq2Sq1Sq2Sq1",
)

WORD_DEGREE: Dict[str, int] = {
    "1": 0, "Sq1": 1, "Sq2": 2, "Sq1Sq2": 3, "Sq2Sq1": 3,
    "Sq1Sq2Sq1": 4, "Sq2Sq1Sq2": 5, "Sq2Sq1Sq2Sq1": 6,
}

# Left multiplication by the generators, reduced by relations (1)-(2).
# None means the product is zero.
LMUL: Dict[str, Dict[str, Optional[str]]] = {
    "Sq1": {
        "1": "Sq1", "Sq1": None, "Sq2": "Sq1Sq2", "Sq1Sq2": None,
        "Sq2Sq1": "Sq1Sq2Sq1", "Sq1Sq2Sq1": None,
        "Sq2Sq1Sq2": "Sq2Sq1Sq2Sq1", "Sq2Sq1Sq2Sq1": None,
    },
    "Sq2": {
        "1": "Sq2", "Sq1": "Sq2Sq1", "Sq2": "Sq1Sq2Sq1",
        "Sq1Sq2": "Sq2Sq1Sq2", "Sq2Sq1": None,
        "Sq1Sq2Sq1": "Sq2Sq1Sq2Sq1", "Sq2Sq1Sq2": None, "Sq2Sq1Sq2Sq1": None,
    },
}

# The top class, in degree 6.
TOP_WORD = WORDS[-1]


def _product() -> Dict[str, Dict[str, Optional[str]]]:
    # u w = g (u' w) for u = g u': u' is shorter, so its row is already there
    table: Dict[str, Dict[str, Optional[str]]] = {"1": {w: w for w in WORDS}}
    for u in WORDS[1:]:
        row = table[u[3:] or "1"]
        table[u] = {w: None if row[w] is None else LMUL[u[:3]][row[w]]
                    for w in WORDS}
    return table


# A(1)'s multiplication on the word basis: PRODUCT[u][w] is the word u w
# (w first), None when the product vanishes.
PRODUCT: Dict[str, Dict[str, Optional[str]]] = _product()


def _dual_words() -> Dict[str, str]:
    # The coefficient of the top class in u w is a nondegenerate pairing
    # (A(1) is a Frobenius algebra), and the words form dual bases under it.
    table = {w: [v for v in WORDS if PRODUCT[v][w] == TOP_WORD] for w in WORDS}
    assert all(len(v) == 1 for v in table.values()), table
    assert len({v[0] for v in table.values()}) == len(WORDS), table
    return {w: v[0] for w, v in table.items()}


# DUAL_WORD[w] is the unique word v with v w equal to the top class: the
# coefficient of w in an element a of A(1) is the top-class coefficient of
# DUAL_WORD[w] a.
DUAL_WORD: Dict[str, str] = _dual_words()


class GradedSpace:
    """A degreewise finite-dimensional GF(2) space with basis labels.  The
    labels are tuples and never change, so the dimensions, the sorted
    degrees (a tuple) and the lowest and highest degree (None when there is
    none) are stored once."""

    def __init__(self, labels: Dict[int, List[str]]):
        self.labels: Dict[int, Tuple[str, ...]] = {
            k: tuple(v) for k, v in labels.items() if v}
        self._dims = {k: len(v) for k, v in self.labels.items()}
        self.degrees: Tuple[int, ...] = tuple(sorted(self.labels))
        self.lo: Optional[int] = self.degrees[0] if self.degrees else None
        self.hi: Optional[int] = self.degrees[-1] if self.degrees else None

    def dim(self, k: int) -> int:
        return self._dims.get(k, 0)

    def total_dim(self) -> int:
        return sum(self._dims.values())

    def dims(self) -> Dict[int, int]:
        return {k: self._dims[k] for k in self.degrees}

    def __eq__(self, other):
        return isinstance(other, GradedSpace) and self.labels == other.labels

    def __repr__(self):
        return f"GradedSpace({self.dims()})"


class GradedMap:
    """A degree-``shift`` linear map between graded spaces.

    ``mats[k]`` sends degree k of the source to degree k + shift of the
    target.  A block out of or into an empty degree is the zero map: it is
    checked for shape and left out.  ``mat`` builds the zero matrix of any
    missing degree once per degree and keeps it apart from ``mats``.
    """

    def __init__(self, source: GradedSpace, target: GradedSpace, shift: int,
                 mats: Dict[int, BitMatrix]):
        self.source = source
        self.target = target
        self.shift = shift
        self.mats: Dict[int, BitMatrix] = {}
        rows, cols = target._dims.get, source._dims.get
        for k, m in mats.items():
            if m.rows != rows(k + shift, 0) or m.cols != cols(k, 0):
                raise ShapeMismatch(
                    f"map at degree {k}: got {m.rows}x{m.cols}, expected "
                    f"{target.dim(k + shift)}x{source.dim(k)}")
            if m.rows and m.cols:
                self.mats[k] = m
        self._zeros: Dict[int, BitMatrix] = {}

    def mat(self, k: int) -> BitMatrix:
        m = self.mats.get(k)
        if m is None:
            m = self._zeros.get(k)
            if m is None:
                m = self._zeros[k] = BitMatrix.zeros(
                    self.target.dim(k + self.shift), self.source.dim(k))
        return m

    def apply(self, k: int, v: int) -> int:
        return self.mat(k).apply(v)

    def compose(self, inner: "GradedMap") -> "GradedMap":
        """self after inner."""
        mats = {}
        for k in inner.source.degrees:
            mats[k] = self.mat(k + inner.shift).mul(inner.mat(k))
        return GradedMap(inner.source, self.target, self.shift + inner.shift, mats)

    def is_zero(self) -> bool:
        return all(m.is_zero() for m in self.mats.values())


@dataclass
class A1Module:
    """A graded module given by its Sq1 and Sq2 maps, kept as they are given.

    ``truncated_above`` records that degrees above the cutoff were discarded;
    action values landing there are absent, like any block into an empty
    degree (``GradedMap``), and consumers must respect the reduced reliable
    range.  ``truncated_below`` is the same bound from below (the dual of a
    module truncated above has one).
    """

    space: GradedSpace
    sq1: GradedMap
    sq2: GradedMap
    truncated_above: Optional[int] = None
    truncated_below: Optional[int] = None
    name: str = ""

    @property
    def lo(self) -> Optional[int]:
        return self.space.lo

    @property
    def hi(self) -> Optional[int]:
        return self.space.hi

    def dim(self, k: int) -> int:
        return self.space.dim(k)


def _require_bottom(m: A1Module, task: str) -> None:
    """Refuse a module truncated below: ``task`` starts at its bottom."""
    if m.truncated_below is not None:
        raise TruncationTooTight(
            f"{task} needs the bottom of the module; it is truncated below "
            f"degree {m.truncated_below}")


def module(labels: Dict[int, List[str]],
           sq1: Dict[int, BitMatrix],
           sq2: Dict[int, BitMatrix],
           truncated_above: Optional[int] = None,
           truncated_below: Optional[int] = None,
           name: str = "") -> A1Module:
    space = GradedSpace(labels)
    m = A1Module(space, GradedMap(space, space, 1, sq1),
                 GradedMap(space, space, 2, sq2),
                 truncated_above=truncated_above,
                 truncated_below=truncated_below, name=name)
    validate(m)
    return m


def module_from_edges(cells: Iterable[Tuple[str, int]],
                      sq1_edges: Iterable[Tuple[str, str]],
                      sq2_edges: Iterable[Tuple[str, str]],
                      **module_kwargs) -> A1Module:
    """The module on labelled basis cells with the action given by edges.

    ``cells`` lists (label, degree) pairs with distinct labels; within a
    degree the basis follows their order.  An edge (source, target) adds the
    target cell to the image of the source cell, so a repeated edge cancels:
    it flips one bit of the target's row, and each matrix is built row by
    row, zero when no edge leaves its degree.  A repeated label, or an edge
    naming an unknown cell, raises ``ShapeMismatch``.  Keyword arguments go
    to ``module``.
    """
    labels: Dict[int, List[str]] = {}
    pos: Dict[str, Tuple[int, int]] = {}
    for label, deg in cells:
        if label in pos:
            raise ShapeMismatch(f"cell label {label!r} is repeated")
        row = labels.setdefault(deg, [])
        pos[label] = (deg, len(row))
        row.append(label)

    def mats(edges: Iterable[Tuple[str, str]], step: int) -> Dict[int, BitMatrix]:
        rows = {d: [0] * len(labels[d + step]) for d in labels
                if d + step in labels}
        for src, tgt in edges:
            at, to = pos.get(src), pos.get(tgt)
            if at is None or to is None:
                raise ShapeMismatch(f"edge {src} -> {tgt} names an unknown "
                                    f"cell {src if at is None else tgt!r}")
            (sd, si), (td, ti) = at, to
            if td != sd + step:
                raise ShapeMismatch(f"edge {src} -> {tgt} must raise the degree "
                                    f"by {step}")
            rows[sd][ti] ^= 1 << si
        return {d: BitMatrix(len(r), len(labels[d]), tuple(r))
                for d, r in rows.items()}

    return module(labels, mats(sq1_edges, 1), mats(sq2_edges, 2), **module_kwargs)


def validate(m: A1Module) -> None:
    """Check the two defining relations on every checkable degree.

    Degree k is checked on the rows of the structure matrices leaving
    degrees k..k+3 (``f2linalg.mul_rows``): the rows of Sq1 Sq1 must all be
    zero, and the rows of Sq2 Sq2 must equal those of Sq1 Sq2 Sq1.  That is
    at most four row products per degree, so the cost is linear in the
    number of degrees; a product with an absent factor is zero and is not
    formed, as in ``_word_rows``.  Sq1 Sq1 is checked before Sq2 Sq2 at each
    degree, lowest degree first; the first failure raises
    ``RelationViolation``.
    """
    # products written out: through _word_rows, validate took 1.5x the CPU
    # time on small modules (26 instead of 17 us per module)
    sq1, sq2 = m.sq1.mats.get, m.sq2.mats.get
    cut = m.truncated_above
    for k in m.space.degrees:
        if cut is None or k + 2 <= cut:
            a, b = sq1(k + 1), sq1(k)
            if a is not None and b is not None and any(mul_rows(a.data, b.data)):
                raise RelationViolation(k, "Sq1 Sq1 = 0")
        if cut is None or k + 4 <= cut:
            a, b = sq2(k + 2), sq2(k)
            lhs = None if a is None or b is None else mul_rows(a.data, b.data)
            a, b, c = sq1(k + 3), sq2(k + 1), sq1(k)
            rhs = (None if None in (a, b, c)
                   else mul_rows(mul_rows(a.data, b.data), c.data))
            if lhs != rhs and (any(lhs or ()) or any(rhs or ())):
                raise RelationViolation(k, "Sq2 Sq2 = Sq1 Sq2 Sq1")


@lru_cache(maxsize=256)
def _factors(word: str) -> Tuple[int, ...]:
    """The degrees of a word's factors, rightmost (acting first) first:
    1 for Sq1, 2 for Sq2, none for ``"1"``.  Raises ``ValueError`` for
    anything that is neither ``"1"`` nor a string of ``Sq1`` and ``Sq2``."""
    if word == "1":
        return ()
    ops = [word[i:i + 3] for i in range(0, len(word), 3)]
    if not ops or any(op not in ("Sq1", "Sq2") for op in ops):
        raise ValueError(f"unknown word {word!r}")
    return tuple(int(op[2]) for op in reversed(ops))


def apply_word(m: A1Module, word: str, k: int, v: int) -> Tuple[int, int]:
    """Apply a composite word (rightmost factor first) to v in degree k.

    Returns (degree, vector).  Factors falling above a truncation cutoff
    yield the zero vector in the nominal degree.  Raises ``ValueError`` for
    a malformed word (``_factors``).
    """
    for step in _factors(word):
        v = (m.sq1 if step == 1 else m.sq2).apply(k, v)
        k += step
    return k, v


def _word_rows(m: A1Module, word: str, k: int) -> Optional[Sequence[int]]:
    """The rows of the matrix of a word from degree k to k + |word|, one
    ``mul_rows`` per factor after the first, and the identity's for
    ``"1"``.  None when a factor has no structure matrix: the word is zero
    from degree k."""
    rows: Optional[Sequence[int]] = None
    for step in _factors(word):
        mat = (m.sq1 if step == 1 else m.sq2).mats.get(k)
        if mat is None:
            return None
        rows = mat.data if rows is None else mul_rows(mat.data, rows)
        k += step
    return [1 << i for i in range(m.dim(k))] if rows is None else rows


def f2(degree: int = 0) -> A1Module:
    """The one-dimensional trivial module concentrated in one degree."""
    return module({degree: ["1"]}, {}, {}, name="F2")


def zero_module() -> A1Module:
    return module({}, {}, {}, name="0")


def free_module_on(gens: Sequence[Tuple[str, int]], name: str = "") -> A1Module:
    """The free module on generators given as (label, degree) pairs.

    Cells are labelled ``<word>*<label>``, the generator itself ``<label>``;
    within a degree they follow the generators, then ``WORDS``, in order.
    """
    def cell(w: str, label: str) -> str:
        return label if w == "1" else f"{w}*{label}"

    cells = [(cell(w, label), deg + WORD_DEGREE[w])
             for label, deg in gens for w in WORDS]
    edges = {sq: [(cell(w, label), cell(LMUL[sq][w], label))
                  for label, _ in gens for w in WORDS if LMUL[sq][w]]
             for sq in LMUL}
    return module_from_edges(cells, edges["Sq1"], edges["Sq2"], name=name)


def free_module(degree: int = 0) -> A1Module:
    """The free module on one generator ``g`` in the given degree."""
    return free_module_on([("g", degree)], name="A(1){g}")


def _bound(a: Optional[int], b: Optional[int], pick) -> Optional[int]:
    """The tighter of two truncation bounds, None meaning no bound."""
    if a is None or b is None:
        return b if a is None else a
    return pick(a, b)


def _shifted(bound: Optional[int], by: int) -> Optional[int]:
    return None if bound is None else bound + by


def direct_sum(a: A1Module, b: A1Module) -> A1Module:
    cut = _bound(a.truncated_above, b.truncated_above, min)
    labels = {k: [f"L.{s}" for s in a.space.labels.get(k, ())] +
              [f"R.{s}" for s in b.space.labels.get(k, ())]
              for k in sorted(set(a.space.degrees) | set(b.space.degrees))
              if cut is None or k <= cut}
    space = GradedSpace(labels)

    def block(shift, ga, gb):
        # the cells of a come first in every degree
        return {k: BitMatrix.block_diag([ga.mat(k), gb.mat(k)])
                for k in space.degrees if space.dim(k + shift)}

    return module(labels, block(1, a.sq1, b.sq1), block(2, a.sq2, b.sq2),
                  truncated_above=cut,
                  truncated_below=_bound(a.truncated_below, b.truncated_below, max),
                  name=f"{a.name}+{b.name}" if a.name and b.name else "")


def suspend(m: A1Module, t: int) -> A1Module:
    labels = {k + t: list(v) for k, v in m.space.labels.items()}
    sq1 = {k + t: mat for k, mat in m.sq1.mats.items()}
    sq2 = {k + t: mat for k, mat in m.sq2.mats.items()}
    return module(labels, sq1, sq2,
                  truncated_above=_shifted(m.truncated_above, t),
                  truncated_below=_shifted(m.truncated_below, t),
                  name=f"S^{t}{m.name}" if m.name else "")


def truncate(m: A1Module, cutoff: int) -> A1Module:
    labels = {k: list(v) for k, v in m.space.labels.items() if k <= cutoff}
    sq1 = {k: mat for k, mat in m.sq1.mats.items() if k + 1 <= cutoff}
    sq2 = {k: mat for k, mat in m.sq2.mats.items() if k + 2 <= cutoff}
    return module(labels, sq1, sq2,
                  truncated_above=_bound(cutoff, m.truncated_above, min),
                  truncated_below=m.truncated_below, name=m.name)


def _extent(m: A1Module) -> Tuple[Optional[int], Optional[int]]:
    """The lowest and highest degree where m may have classes: an empty
    module truncated above c may have them from c + 1 on, one truncated
    below f up to f - 1."""
    if m.lo is not None:
        return m.lo, m.hi
    return _shifted(m.truncated_above, 1), _shifted(m.truncated_below, -1)


def tensor(a: A1Module, b: A1Module) -> A1Module:
    """Tensor product with the diagonal action.

    Sq1(x (x) y) = Sq1 x (x) y + x (x) Sq1 y
    Sq2(x (x) y) = Sq2 x (x) y + Sq1 x (x) Sq1 y + x (x) Sq2 y

    Basis order in each degree: source degrees of the left factor ascending,
    then (left index, right index) lexicographic.  Raises
    ``TruncationTooTight`` when one factor is truncated above and the other
    below: their missing degrees pair up in every degree of the product.
    """
    for x, y in ((a, b), (b, a)):
        if x.truncated_above is not None and y.truncated_below is not None:
            raise TruncationTooTight(
                f"tensor of a module truncated above {x.truncated_above} and "
                f"one truncated below {y.truncated_below} has no complete degree")
    (alo, ahi), (blo, bhi) = _extent(a), _extent(b)
    if (None, None) in ((alo, ahi), (blo, bhi)):  # an exact zero factor
        return zero_module()
    # a degree is complete when every factor pair summing to it is
    cut = _bound(_shifted(a.truncated_above, blo),
                 _shifted(b.truncated_above, alo), min)
    floor = _bound(_shifted(a.truncated_below, bhi),
                   _shifted(b.truncated_below, ahi), max)

    # degree k is a run of blocks a_p (x) b_(k-p), p ascending; the cell
    # (i, j) of block p sits at offset[k][p] + i * dim b_(k-p) + j
    labels: Dict[int, List[str]] = {}
    offset: Dict[int, Dict[int, int]] = {}
    for p in a.space.degrees:
        for q in b.space.degrees:
            k = p + q
            if cut is not None and k > cut:
                continue
            row = labels.setdefault(k, [])
            offset.setdefault(k, {})[p] = len(row)
            row.extend(f"{x}(x){y}" for x in a.space.labels[p]
                       for y in b.space.labels[q])

    # rows[s][p]: the rows of Sq^s into degree p, Sq^0 being the identity
    arows, brows = ([{p: [1 << i for i in range(n)]
                      for p, n in m.space.dims().items()},
                     {p + 1: mat.data for p, mat in m.sq1.mats.items()},
                     {p + 2: mat.data for p, mat in m.sq2.mats.items()}]
                    for m in (a, b))

    def build(shift: int) -> Dict[int, BitMatrix]:
        # Sq^shift(x (x) y) is the sum over the splittings shift = s + t of
        # Sq^s x (x) Sq^t y (Sq1 (x) Sq1 being the middle term of Sq2).
        # Only the terms that act are visited: for each degree p where Sq^s
        # lands in a and each q where Sq^t lands in b, p + q not past the
        # cut, the term sends block p - s of degree p + q - shift into block
        # p of degree p + q as the Kronecker product X (x) Y.  Row i of X,
        # bit c spread to c * cols(Y) past the source block's offset, times
        # a nonzero row j of Y is XORed into the preallocated row (i, j).
        out = {k + shift: [0] * len(labels[k + shift]) for k in labels
               if k + shift in labels}
        for s in range(shift + 1):
            t = shift - s
            for q, y in brows[t].items():
                ys = [(j, r) for j, r in enumerate(y) if r]
                if not ys:
                    continue
                nb, width = len(y), len(brows[0][q - t])
                for p, x in arows[s].items():
                    rows = out.get(p + q)
                    if rows is None:  # past the cut
                        continue
                    at, off = offset[p + q][p], offset[p + q - shift][p - s]
                    for r in x:
                        spread = 0
                        while r:
                            low = r & -r
                            spread |= 1 << (low.bit_length() - 1) * width + off
                            r ^= low
                        if spread:
                            for j, yr in ys:
                                rows[at + j] ^= spread * yr
                        at += nb
        return {k: BitMatrix(len(labels[k + shift]), len(labels[k]),
                             tuple(out[k + shift]))
                for k in sorted(labels) if k + shift in out}

    name = f"{a.name}(x){b.name}" if a.name and b.name else ""
    return module(labels, build(1), build(2), truncated_above=cut,
                  truncated_below=floor, name=name)


def dualize(m: A1Module) -> A1Module:
    """Degreewise dual: degree k of the dual is the dual of degree -k.

    The right action by precomposition transposes the structure matrices,
    and satisfies the same two relations, so the dual is again a valid
    module presentation.
    """
    labels = {-k: [f"{s}*" for s in v] for k, v in m.space.labels.items()}
    sq1 = {k: m.sq1.mat(-k - 1).transpose() for k in sorted(labels)}
    sq2 = {k: m.sq2.mat(-k - 2).transpose() for k in sorted(labels)}

    def negated(bound: Optional[int]) -> Optional[int]:
        return None if bound is None else -bound

    return module(labels, sq1, sq2, truncated_above=negated(m.truncated_below),
                  truncated_below=negated(m.truncated_above),
                  name=f"({m.name})*" if m.name else "")


def linear_map_from_generators(source: A1Module, target: A1Module,
                               gens: List[Tuple[int, int]],
                               values: List[Tuple[int, int]]) -> GradedMap:
    """The action-preserving degree-0 map sending each generator to its
    prescribed value.

    ``gens`` are (degree, vector) in the source; ``values`` the matching
    (degree, vector) in the target, in the same degree.  The generators must
    generate the source: then the map is fixed by w g_i -> w v_i over the
    words w (Margolis, 1983), so in degree k it is
    V_k S_k^+, where S_k holds the columns w g_i and V_k the columns w v_i.
    It exists exactly when ker S_k lies in ker V_k.  Both conditions are read
    off one elimination of the pairs (w g_i, w v_i), whose span is the graph
    of the map.  Raises ``ShapeMismatch`` when either fails.
    """
    pairs: Dict[int, List[int]] = {}  # degree -> w g_i | w v_i << dim
    for (gk, gv), (vk, vv) in zip(gens, values):
        if vk != gk:
            raise ShapeMismatch("generator value in the wrong degree")
        for w in WORDS:
            k, s = apply_word(source, w, gk, gv)
            _, v = apply_word(target, w, vk, vv)
            if s or v:
                pairs.setdefault(k, []).append(s | v << source.dim(k))
    mats = {}
    for k in sorted(set(pairs) | set(source.space.degrees)):
        n = source.dim(k)
        graph = Subspace.span(pairs.get(k, ()), n + target.dim(k)).basis
        if any(r & ((1 << n) - 1) == 0 for r in graph):
            raise ShapeMismatch("no action-preserving map with the given values")
        if len(graph) < n:
            raise ShapeMismatch(f"the generators do not generate the source in "
                                f"degree {k}")
        # the reduced graph has pivots 0..n-1: row i is e_i | F e_i << n
        mats[k] = BitMatrix.from_columns(target.dim(k), [r >> n for r in graph])
    return GradedMap(source.space, target.space, 0, mats)

