import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from a1mod.errors import ShapeMismatch
from a1mod.f2linalg import (BitMatrix, Subspace, complement, image, intersect,
                            kernel, preimage, rank, rref, solve)


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
    assert rank(BitMatrix.zeros(3, 4)) == 0
    assert rank(BitMatrix.identity(5)) == 5
    assert rank(BitMatrix.from_rows([[1, 1], [1, 1], [0, 0]])) == 1


@given(matrices)
@settings(max_examples=60, deadline=None)
def test_rank_nullity(m):
    assert rank(m) + kernel(m).dim == m.cols


@given(matrices)
@settings(max_examples=60, deadline=None)
def test_rref_idempotent(m):
    r, rk = rref(m)
    r2, rk2 = rref(r)
    assert r2.data == r.data and rk2 == rk == rank(m)


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
    assert sp.dim == rank(m) == rank(m.transpose())
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


@given(st.integers(0, 10**6), st.integers(0, 6), st.integers(0, 6),
       st.integers(0, 6))
@settings(max_examples=40, deadline=None)
def test_intersect_and_dimension_formula(seed, rows, ca, cb):
    rng = random.Random(seed)
    sa = image(rand_matrix(rng, rows, ca))
    sb = image(rand_matrix(rng, rows, cb))
    cap = intersect(sa, sb)
    assert cap.dim <= min(sa.dim, sb.dim)
    for v in cap.basis:
        assert sa.contains(v) and sb.contains(v)
    assert sa.dim + sb.dim == cap.dim + sa.add(sb).dim


def test_preimage():
    m = BitMatrix.from_rows([[1, 0, 1], [0, 1, 1]])
    target = Subspace.span([0b01], 2)
    pre = preimage(m, target)
    for v in pre.basis:
        assert target.contains(m.apply(v))
    assert pre.dim == 2


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


def test_transpose_stack_blockdiag():
    a = BitMatrix.from_rows([[1, 0], [1, 1]])
    b = BitMatrix.from_rows([[0, 1]])
    t = a.transpose()
    assert [[t.get(i, j) for j in range(2)] for i in range(2)] == [[1, 1], [0, 1]]
    v = a.vstack(b)
    assert v.rows == 3 and v.cols == 2
    h = a.hstack(a)
    assert h.rows == 2 and h.cols == 4
    bd = BitMatrix.block_diag([a, b])
    assert bd.rows == 3 and bd.cols == 4
    assert bd.get(2, 2) == 0 and bd.get(2, 3) == 1


@given(matrices)
@settings(max_examples=60, deadline=None)
def test_from_columns_round_trips(m):
    cols = [m.column(j) for j in range(m.cols)]
    built = BitMatrix.from_columns(m.rows, cols)
    assert built == m
    for j, c in enumerate(cols):
        assert built.apply(1 << j) == c
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
