import copy
import pickle
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from a1mod import f2linalg
from a1mod.errors import ShapeMismatch
from a1mod.f2linalg import (BitMatrix, Subspace, complement, image, kernel,
                            rank, solve)
from solver_reference import (complement_reference, kernel_reference,
                              rank_reference, solve_reference, span_reference)


def rand_matrix(rng, rows, cols):
    return BitMatrix(rows, cols,
                     tuple(rng.getrandbits(cols) for _ in range(rows)))


matrices = st.builds(
    lambda seed, r, c: rand_matrix(random.Random(seed), r, c),
    st.integers(0, 10**6), st.integers(0, 6), st.integers(0, 6))


def test_identity_and_mul():
    i3 = BitMatrix.identity(3)
    m = BitMatrix.from_rows([[1, 0, 1], [0, 1, 1], [1, 1, 0]])
    assert m.mul(i3).data == m.data
    assert i3.mul(m).data == m.data


def test_apply_matches_columns():
    m = BitMatrix.from_rows([[1, 1, 0], [0, 1, 1]])
    assert m.apply(0b001) == 0b01   # first column
    assert m.apply(0b010) == 0b11
    assert m.apply(0b111) == m.apply(0b001) ^ m.apply(0b010) ^ m.apply(0b100)


def test_rank_examples():
    for m, want in ((BitMatrix.zeros(3, 4), 0), (BitMatrix.identity(5), 5),
                    (BitMatrix.from_rows([[1, 1], [1, 1], [0, 0]]), 1)):
        assert rank(m.data, m.cols) == want
    assert rank((), 3) == 0


@given(matrices)
@settings(max_examples=60, deadline=None)
def test_rank_nullity(m):
    assert rank(m.data, m.cols) + kernel(m).dim == m.cols


@given(matrices)
@settings(max_examples=60, deadline=None)
def test_span_idempotent(m):
    s = Subspace.span(m.data, m.cols)
    assert Subspace.span(s.basis, m.cols) == s
    assert s.dim == rank(m.data, m.cols)


@given(st.integers(0, 10**6), st.tuples(st.integers(0, 9), st.integers(0, 9)),
       st.integers(0, 9))
@example(seed=1, shape=(0, 5), rows2=3)
@example(seed=2, shape=(5, 0), rows2=3)
@example(seed=3, shape=(0, 0), rows2=0)
@settings(max_examples=300, deadline=None)
def test_pivot_table_matches_column_scan_reference(seed, shape, rows2):
    rng = random.Random(seed)
    r, n = shape
    # sparse rows too, so that the spans are often proper and overlap
    a = BitMatrix(r, n, tuple(rng.getrandbits(n) & rng.getrandbits(n)
                              if rng.random() < 0.5 else rng.getrandbits(n)
                              for _ in range(r)))
    other = [rng.getrandbits(n) for _ in range(rows2)]
    s1, s2 = Subspace.span(a.data, n), Subspace.span(other, n)
    assert s1.basis == span_reference(list(a.data), n)
    assert s2.basis == span_reference(other, n)
    assert rank(a.data, n) == rank_reference(a)
    assert kernel(a).basis == kernel_reference(a)
    for b in (rng.getrandbits(r), a.apply(rng.getrandbits(n))):
        assert solve(a, b) == solve_reference(a, b)
    assert (complement(s1, s2) ==
            complement_reference(s1.basis, s2.basis, n))
    head = Subspace.span(a.data[:r // 2], n)
    assert (complement(head, s1) ==
            complement_reference(head.basis, s1.basis, n))


@given(matrices, st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_solve_consistent(m, seed):
    x = random.Random(seed).getrandbits(m.cols)
    b = m.apply(x)
    s = solve(m, b)
    assert s is not None and m.apply(s) == b


def test_solve_inconsistent():
    m = BitMatrix.from_rows([[1, 0], [1, 0]])
    assert solve(m, 0b01) is None


@given(matrices)
@settings(max_examples=60, deadline=None)
def test_kernel_vectors_annihilated(m):
    for v in kernel(m).basis:
        assert v and m.apply(v) == 0


@given(matrices)
@settings(max_examples=60, deadline=None)
def test_image_dim(m):
    sp = image(m)
    t = m.transpose()
    assert sp.dim == rank(m.data, m.cols) == rank(t.data, t.cols)
    for j in range(m.cols):
        assert sp.contains(m.apply(1 << j))


def test_subspace_membership_and_coords():
    sp = Subspace.span([0b011, 0b110], 3)
    assert sp.dim == 2
    assert sp.contains(0b101)
    assert not sp.contains(0b001)
    for v in (0b011, 0b110, 0b101, 0):
        coords = sp.coords(v)
        assert coords is not None
        rebuilt = 0
        for i, b in enumerate(sp.basis):
            if (coords >> i) & 1:
                rebuilt ^= b
        assert rebuilt == v
    assert sp.coords(0b001) is None


@given(matrices)
@settings(max_examples=40, deadline=None)
def test_complement(m):
    inner = image(m)
    comp = complement(inner, Subspace.full(m.rows))
    assert inner.dim + len(comp) == m.rows
    total = inner
    for v in comp:
        assert not total.contains(v)
        total = total.add(Subspace.span([v], m.rows))
    assert total.dim == m.rows


def test_rank_is_one_pass(monkeypatch):
    # the number of pivots of one table, with no back-substitution
    rng = random.Random(9)
    a = rand_matrix(rng, 60, 50)

    def refuse(*args):
        raise AssertionError("rank made a canonical reduction")

    monkeypatch.setattr(f2linalg, "canonical", refuse)
    assert rank(a.data, a.cols) == rank_reference(a)
    assert rank(a.data[:20], a.cols) == rank_reference(
        BitMatrix(20, a.cols, a.data[:20]))


def test_complement_is_one_pass(monkeypatch):
    # one reduction per vector of ``outer`` against a table seeded from
    # ``inner``, never a re-elimination of the accumulated basis
    rng = random.Random(8)
    inner = Subspace.span([rng.getrandbits(96) for _ in range(40)], 96)
    outer = Subspace.full(96)
    calls = []
    insert = f2linalg.insert

    def counting(pivots, row, mask):
        calls.append(row)
        return insert(pivots, row, mask)

    def refuse(*args):
        raise AssertionError("complement made a full reduction")

    monkeypatch.setattr(f2linalg, "insert", counting)
    monkeypatch.setattr(f2linalg, "canonical", refuse)
    comp = complement(inner, outer)
    assert len(calls) <= outer.dim
    assert len(comp) == outer.dim - inner.dim


def test_transpose_stack_blockdiag():
    a = BitMatrix.from_rows([[1, 0], [1, 1]])
    b = BitMatrix.from_rows([[0, 1]])
    t = a.transpose()
    assert [[t.get(i, j) for j in range(2)] for i in range(2)] == [[1, 1], [0, 1]]
    bd = BitMatrix.block_diag([a, b])
    assert bd.rows == 3 and bd.cols == 4
    assert bd.get(2, 2) == 0 and bd.get(2, 3) == 1


@given(matrices)
@settings(max_examples=60, deadline=None)
def test_from_columns_round_trips(m):
    cols = [m.apply(1 << j) for j in range(m.cols)]
    assert BitMatrix.from_columns(m.rows, cols) == m
    assert m.transpose().transpose() == m
    assert m.transpose() == BitMatrix.from_columns(m.cols, m.data)


def test_from_columns_shapes():
    assert BitMatrix.from_columns(0, []) == BitMatrix.zeros(0, 0)
    assert BitMatrix.from_columns(3, []) == BitMatrix.zeros(3, 0)
    assert BitMatrix.from_columns(0, [0, 0]) == BitMatrix.zeros(0, 2)
    m = BitMatrix.from_columns(2, [0b01, 0b11, 0b00])
    assert m == BitMatrix.from_rows([[1, 1, 0], [0, 1, 0]])
    with pytest.raises(ShapeMismatch):
        BitMatrix.from_columns(2, [0b100])


def test_add_is_xor():
    a = BitMatrix.from_rows([[1, 0], [1, 1]])
    assert a.add(a).is_zero()


def test_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        BitMatrix.identity(2).mul(BitMatrix.identity(3))
    with pytest.raises(ShapeMismatch):
        BitMatrix(2, 2, (0b111, 0))
    with pytest.raises(ShapeMismatch, match="2 rows declared, 1 given"):
        BitMatrix(2, 2, (0,))
    with pytest.raises(ShapeMismatch, match="unequal shapes"):
        BitMatrix.zeros(2, 2).add(BitMatrix.zeros(2, 3))
    with pytest.raises(ShapeMismatch, match="different ambient"):
        Subspace.full(2).add(Subspace.full(3))
    with pytest.raises(ShapeMismatch, match="different ambient"):
        complement(Subspace.full(2), Subspace.full(3))


def test_value_semantics():
    # what the frozen dataclasses gave: equality only within one type, a
    # hash over the fields, the repr, immutability, copy and pickle
    m, s = BitMatrix(2, 3, (0b101, 0b010)), Subspace(3, (0b001, 0b110))
    for value, same, other, text, fields in (
            (m, BitMatrix(rows=2, cols=3, data=(5, 2)), BitMatrix(2, 3, (5, 3)),
             "BitMatrix(rows=2, cols=3, data=(5, 2))", ("rows", "cols", "data")),
            (s, Subspace(ambient_dim=3, basis=(1, 6)), Subspace(3, (1,)),
             "Subspace(ambient_dim=3, basis=(1, 6))", ("ambient_dim", "basis"))):
        assert value == same and hash(value) == hash(same)
        assert value != other
        assert repr(value) == text
        for clone in (copy.copy(value), copy.deepcopy(value),
                      pickle.loads(pickle.dumps(value))):
            assert type(clone) is type(value) and clone == value
        for field in fields:
            with pytest.raises(AttributeError):
                setattr(value, field, 0)
            with pytest.raises(AttributeError):
                delattr(value, field)
        with pytest.raises(AttributeError):
            value.extra = 0
    assert m != (2, 3, (5, 2)) and s != (3, (1, 6))

    class Sub(BitMatrix):
        __slots__ = ()
    assert Sub(2, 3, (5, 2)) != m and m != Sub(2, 3, (5, 2))
    with pytest.raises(ShapeMismatch, match="2 rows declared, 3 given"):
        BitMatrix(2, 3, (1, 2, 4))
    with pytest.raises(ShapeMismatch, match="bits beyond"):
        BitMatrix(2, 3, (1, 0b1000))
    with pytest.raises(ShapeMismatch, match="bits beyond"):
        BitMatrix(2, 3, (1, -1))


def reference_product(a, b):
    """Entry (i, j) is the parity of sum_k a[i, k] b[k, j], entry by entry."""
    rows = []
    for i in range(a.rows):
        row = 0
        for j in range(b.cols):
            bit = 0
            for k in range(a.cols):
                bit ^= a.get(i, k) & b.get(k, j)
            row |= bit << j
        rows.append(row)
    return BitMatrix(a.rows, b.cols, tuple(rows))


@given(st.integers(0, 10**6), st.lists(st.integers(0, 9), min_size=4, max_size=4))
@settings(max_examples=150, deadline=None)
def test_mul_matches_entrywise_product_and_associates(seed, dims):
    rng = random.Random(seed)
    r, n, c, d = dims
    a, b, e = (rand_matrix(rng, r, n), rand_matrix(rng, n, c),
               rand_matrix(rng, c, d))
    assert a.mul(b) == reference_product(a, b)
    assert a.mul(b).mul(e) == a.mul(b.mul(e))
