"""The 8-dimensional subalgebra generated by Sq1 and Sq2, and graded modules
over it.

A module is a collection of finite-dimensional GF(2) vector spaces, one per
integer degree, with degree +1 and +2 operators satisfying

    (1) Sq1 Sq1 = 0
    (2) Sq2 Sq2 = Sq1 Sq2 Sq1

Words are written with the rightmost factor acting first, so ``Sq1Sq2``
applied to v is Sq1(Sq2(v)).

Every presentation built here (free modules, seagulls, the polynomial
family, ``.mod`` files) is a list of labelled basis cells plus Sq1 and Sq2
edges between them, and goes through ``module_from_edges``;
``free_module_on`` gives the free module on any list of generators.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    """A degreewise finite-dimensional GF(2) space with basis labels."""

    def __init__(self, labels: Dict[int, List[str]]):
        self.labels: Dict[int, Tuple[str, ...]] = {
            k: tuple(v) for k, v in labels.items() if v
        }

    def dim(self, k: int) -> int:
        return len(self.labels.get(k, ()))

    @property
    def degrees(self) -> List[int]:
        return sorted(self.labels)

    @property
    def lo(self) -> Optional[int]:
        ds = self.degrees
        return ds[0] if ds else None

    @property
    def hi(self) -> Optional[int]:
        ds = self.degrees
        return ds[-1] if ds else None

    def total_dim(self) -> int:
        return sum(len(v) for v in self.labels.values())

    def dims(self) -> Dict[int, int]:
        return {k: len(v) for k, v in sorted(self.labels.items())}

    def __eq__(self, other):
        return isinstance(other, GradedSpace) and self.labels == other.labels

    def __repr__(self):
        return f"GradedSpace({self.dims()})"


class GradedMap:
    """A degree-``shift`` linear map between graded spaces.

    ``mats[k]`` sends degree k of the source to degree k + shift of the
    target; missing degrees mean the zero map, whose matrix ``mat`` builds
    once per degree and keeps apart from ``mats``.
    """

    def __init__(self, source: GradedSpace, target: GradedSpace, shift: int,
                 mats: Dict[int, BitMatrix]):
        self.source = source
        self.target = target
        self.shift = shift
        self.mats: Dict[int, BitMatrix] = {}
        for k, m in mats.items():
            if m.rows != target.dim(k + shift) or m.cols != source.dim(k):
                raise ShapeMismatch(
                    f"map at degree {k}: got {m.rows}x{m.cols}, expected "
                    f"{target.dim(k + shift)}x{source.dim(k)}")
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
    """A graded module given by explicit Sq1 and Sq2 matrices.

    ``truncated_above`` records that degrees above the cutoff were discarded;
    action values landing there are simply absent, and consumers must respect
    the reduced reliable range.  ``truncated_below`` is the same bound from
    below (the dual of a module truncated above has one).
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
    m = A1Module(space,
                 GradedMap(space, space, 1, {k: v for k, v in sq1.items()
                                             if space.dim(k) and space.dim(k + 1)}),
                 GradedMap(space, space, 2, {k: v for k, v in sq2.items()
                                             if space.dim(k) and space.dim(k + 2)}),
                 truncated_above=truncated_above,
                 truncated_below=truncated_below, name=name)
    validate(m)
    return m


def module_from_edges(cells: Iterable[Tuple[str, int]],
                      sq1_edges: Iterable[Tuple[str, str]],
                      sq2_edges: Iterable[Tuple[str, str]],
                      **module_kwargs) -> A1Module:
    """The module on labelled basis cells with the action given by edges.

    ``cells`` lists (label, degree) pairs; within a degree the basis follows
    their order.  An edge (source, target) adds the target cell to the image
    of the source cell, so a repeated edge cancels.  Keyword arguments go to
    ``module``.
    """
    labels: Dict[int, List[str]] = {}
    pos: Dict[str, Tuple[int, int]] = {}
    for label, deg in cells:
        row = labels.setdefault(deg, [])
        pos[label] = (deg, len(row))
        row.append(label)

    def mats(edges: Iterable[Tuple[str, str]], step: int) -> Dict[int, BitMatrix]:
        cols = {d: [0] * len(row) for d, row in labels.items()}
        for src, tgt in edges:
            sd, si = pos[src]
            td, ti = pos[tgt]
            if td != sd + step:
                raise ShapeMismatch(f"edge {src} -> {tgt} must raise the degree "
                                    f"by {step}")
            cols[sd][si] ^= 1 << ti
        return {d: BitMatrix.from_columns(len(labels[d + step]), c)
                for d, c in cols.items() if d + step in labels}

    return module(labels, mats(sq1_edges, 1), mats(sq2_edges, 2), **module_kwargs)


def validate(m: A1Module) -> None:
    """Check the two defining relations on every checkable degree.

    Degree k is checked on the rows of the structure matrices leaving
    degrees k..k+3 (``f2linalg.mul_rows``): the rows of Sq1 Sq1 must all be
    zero, and the rows of Sq2 Sq2 must equal those of Sq1 Sq2 Sq1.  That is
    at most four row products per degree, so the cost is linear in the
    number of degrees; a product with an absent factor is zero and is not
    formed.  Sq1 Sq1 is checked before Sq2 Sq2 at each degree, lowest
    degree first; the first failure raises ``RelationViolation``.
    """
    sq1 = {k: mat.data for k, mat in m.sq1.mats.items()}.get
    sq2 = {k: mat.data for k, mat in m.sq2.mats.items()}.get
    cut = m.truncated_above
    for k in m.space.degrees:
        if cut is None or k + 2 <= cut:
            a, b = sq1(k + 1), sq1(k)
            if a is not None and b is not None and any(mul_rows(a, b)):
                raise RelationViolation(k, "Sq1 Sq1 = 0")
        if cut is None or k + 4 <= cut:
            a, b = sq2(k + 2), sq2(k)
            lhs = None if a is None or b is None else mul_rows(a, b)
            a, b, c = sq1(k + 3), sq2(k + 1), sq1(k)
            rhs = None if None in (a, b, c) else mul_rows(mul_rows(a, b), c)
            if lhs != rhs and (any(lhs or ()) or any(rhs or ())):
                raise RelationViolation(k, "Sq2 Sq2 = Sq1 Sq2 Sq1")


def apply_word(m: A1Module, word: str, k: int, v: int) -> Tuple[int, int]:
    """Apply a composite word (rightmost factor first) to v in degree k.

    Returns (degree, vector).  Factors falling above a truncation cutoff
    yield the zero vector in the nominal degree.
    """
    for i in range(len(word) - 3, -1, -3):  # rightmost factor first
        op = word[i:i + 3]
        v = (m.sq1 if op == "Sq1" else m.sq2).apply(k, v)
        k += 1 if op == "Sq1" else 2
    return k, v


def _word_matrix(m: A1Module, word: str, k: int) -> BitMatrix:
    """Matrix of a composite word (rightmost factor first) from degree k."""
    out = None
    for i in range(len(word) - 3, -1, -3):  # rightmost factor first
        sq = m.sq1 if word[i:i + 3] == "Sq1" else m.sq2
        out = sq.mat(k) if out is None else sq.mat(k).mul(out)
        k += sq.shift
    return BitMatrix.identity(m.dim(k)) if out is None else out


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


def _spread(v: int, width: int) -> int:
    """v with bit c moved to bit c * width: times w < 2^width, the bits of
    w land at c * width + j without carries, a Kronecker product row."""
    out = 0
    while v:
        low = v & -v
        out |= 1 << (low.bit_length() - 1) * width
        v ^= low
    return out


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
    space = GradedSpace(labels)

    # rows[s][p]: the rows of Sq^s into degree p, Sq^0 being the identity
    arows, brows = ([{p: [1 << i for i in range(m.dim(p))]
                      for p in m.space.degrees},
                     {p + 1: mat.data for p, mat in m.sq1.mats.items()},
                     {p + 2: mat.data for p, mat in m.sq2.mats.items()}]
                    for m in (a, b))

    def build(shift: int) -> Dict[int, BitMatrix]:
        # Sq^shift(x (x) y) is the sum over the splittings shift = s + t of
        # Sq^s x (x) Sq^t y (Sq1 (x) Sq1 being the middle term of Sq2).  A
        # term sends block p - s of degree k into block p of degree
        # k + shift as the Kronecker product X (x) Y, whose row (i, j) is
        # row i of X with bit c spread to c * cols(Y), times row j of Y.
        splits = [(s, shift - s) for s in range(shift, -1, -1)]
        mats = {}
        for k in space.degrees:
            if k + shift not in offset:
                continue
            src = offset[k]
            out: List[int] = []
            for p in offset[k + shift]:
                q = k + shift - p
                terms = []
                for s, t in splits:
                    x, y = arows[s].get(p), brows[t].get(q)
                    if x is not None and y is not None:
                        width, off = len(brows[0][q - t]), src[p - s]
                        terms.append(([_spread(r, width) << off for r in x], y))
                for i in range(len(arows[0][p])):
                    block = [0] * len(brows[0][q])
                    for xs, ys in terms:
                        if xs[i]:
                            block = [r ^ xs[i] * y for r, y in zip(block, ys)]
                    out.extend(block)
            mats[k] = BitMatrix(len(out), len(labels[k]), tuple(out))
        return mats

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
    sq1 = {}
    sq2 = {}
    for k in sorted(labels):
        if -k - 1 in m.space.labels:
            sq1[k] = m.sq1.mat(-k - 1).transpose()
        if -k - 2 in m.space.labels:
            sq2[k] = m.sq2.mat(-k - 2).transpose()

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
        if n:  # the reduced graph has pivots 0..n-1: row i is e_i | F e_i << n
            mats[k] = BitMatrix.from_columns(target.dim(k),
                                             [r >> n for r in graph])
    return GradedMap(source.space, target.space, 0, mats)

