import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from a1mod import a1core, structure
from a1mod.a1core import (LMUL, WORD_DEGREE, WORDS, apply_word, direct_sum,
                          dualize, f2, free_module, free_module_on,
                          linear_map_from_generators, module,
                          module_from_edges, submodule_closure, suspend, tensor,
                          truncate, validate)
from a1mod.errors import RelationViolation, ShapeMismatch
from a1mod.f2linalg import BitMatrix, Subspace
from a1mod.margolis import margolis_homology


def test_word_degrees():
    assert [WORD_DEGREE[w] for w in WORDS] == [0, 1, 2, 3, 3, 4, 5, 6]


def test_lmul_relations():
    # Sq1 Sq1 = 0 and Sq2 Sq2 = Sq1 Sq2 Sq1 inside the multiplication table
    assert LMUL["Sq1"]["Sq1"] is None
    assert LMUL["Sq2"]["Sq2"] == "Sq1Sq2Sq1"
    # top class is killed by both generators
    top = "Sq2Sq1Sq2Sq1"
    assert LMUL["Sq1"][top] is None and LMUL["Sq2"][top] is None


def test_free_module_shape():
    a1 = free_module()
    dims = {k: a1.space.dim(k) for k in a1.space.degrees}
    assert dims == {0: 1, 1: 1, 2: 1, 3: 2, 4: 1, 5: 1, 6: 1}
    validate(a1)


def test_module_from_edges_cell_order_and_cancellation():
    m = module_from_edges([("b", 1), ("a", 0), ("c", 1)],
                          [("a", "c"), ("a", "b"), ("a", "b")], [])
    assert m.space.labels == {0: ("a",), 1: ("b", "c")}
    # the repeated edge a -> b cancels; only a -> c is left
    assert m.sq1.mat(0) == BitMatrix.from_columns(2, [0b10])
    assert m.sq2.mat(0).is_zero()
    with pytest.raises(ShapeMismatch):
        module_from_edges([("a", 0), ("b", 2)], [("a", "b")], [])


def test_free_module_on_several_generators():
    m = free_module_on([("x", 0), ("y", 3)], name="F")
    validate(m)
    assert m.name == "F" and m.space.total_dim() == 16
    assert m.space.labels[3] == ("Sq1Sq2*x", "Sq2Sq1*x", "y")
    assert apply_word(m, "Sq2Sq1Sq2Sq1", 3, 0b100) == (9, 0b1)
    one, same = free_module(3, "y"), free_module_on([("y", 3)])
    assert one.name == "A(1){y}" and one.space == same.space
    for k in one.space.degrees:
        assert (one.sq1.mat(k), one.sq2.mat(k)) == (same.sq1.mat(k),
                                                    same.sq2.mat(k))


def test_truncation_bounds_follow_transforms():
    m = suspend(dualize(structure.seagull_inf(20)), 3)
    assert (m.truncated_above, m.truncated_below) == (None, -17)
    q0 = margolis_homology(m, "Q0")
    assert [k for k in q0.nonzero_degrees() if q0.in_range(k)] == [3]
    assert truncate(m, 0).truncated_below == -17
    both = direct_sum(m, suspend(m, 2))
    assert (both.truncated_above, both.truncated_below) == (None, -15)
    assert dualize(both).truncated_above == 15


def test_relation_violation():
    # sq1 followed by sq1 nonzero must be rejected
    with pytest.raises(RelationViolation):
        module({0: ["a"], 1: ["b"], 2: ["c"]},
               {0: BitMatrix.from_rows([[1]]), 1: BitMatrix.from_rows([[1]])},
               {})


def test_apply_word_order():
    # rightmost factor acts first: on the free module, Sq2Sq1 g lives in
    # degree 3 and differs from Sq1Sq2 g
    a1 = free_module()
    d1, v1 = apply_word(a1, "Sq2Sq1", 0, 1)
    d2_, v2 = apply_word(a1, "Sq1Sq2", 0, 1)
    assert d1 == d2_ == 3
    assert v1 != v2 and v1 and v2


def test_f2_and_suspend():
    m = suspend(f2(), 7)
    assert list(m.space.degrees) == [7]
    assert list(suspend(m, -7).space.degrees) == [0]


def test_direct_sum_dims():
    s = direct_sum(structure.seagull(1), suspend(structure.seagull(2), 3))
    for k in range(0, 13):
        want = structure.seagull(1).space.dim(k) + structure.seagull(2).space.dim(k - 3)
        assert s.space.dim(k) == want
    validate(s)


def test_truncate():
    t = truncate(free_module(), 3)
    assert t.truncated_above == 3
    assert max(t.space.degrees) == 3
    validate(t)


def test_tensor_dims_convolve():
    a, b = structure.seagull(1), structure.seagull(2)
    t = tensor(a, b)
    for k in range(0, 20):
        want = sum(a.space.dim(i) * b.space.dim(k - i) for i in range(0, 6))
        assert t.space.dim(k) == want
    validate(t)


def test_tensor_cartan_symmetry():
    # dim-level symmetry of the two tensor orders
    a, b = structure.seagull(1), suspend(structure.seagull(2), 2)
    t1, t2 = tensor(a, b), tensor(b, a)
    for k in range(0, 25):
        assert t1.space.dim(k) == t2.space.dim(k)
    # the swap map is an isomorphism of modules
    gens = [(0, 1)]
    maps = linear_map_from_generators(
        t1, t2, gens, [(0, _swap_vector(t1, t2, 0, 1))], 0)
    assert maps is not None


def _swap_vector(t1, t2, k, v):
    out = 0
    for i in range(t1.space.dim(k)):
        if (v >> i) & 1:
            la = t1.space.labels[k][i]
            left, right = la.split("(x)")
            out ^= 1 << t2.space.labels[k].index(f"{right}(x){left}")
    return out


def test_dualize_roundtrip():
    m = structure.seagull(2)
    d = dualize(m)
    validate(d)
    assert sorted(-k for k in d.space.degrees) == list(m.space.degrees)
    dd = dualize(d)
    for k in m.space.degrees:
        assert dd.space.dim(k) == m.space.dim(k)
        assert dd.sq1.mat(k).data == m.sq1.mat(k).data
        assert dd.sq2.mat(k).data == m.sq2.mat(k).data


def test_linear_map_from_generators_identity():
    m = structure.seagull(2)
    got = linear_map_from_generators(m, m, [(0, 1), (4, 1)],
                                     [(0, 1), (4, 1)], 0)
    assert got is not None
    for k in m.space.degrees:
        assert got.mat(k).data == BitMatrix.identity(m.space.dim(k)).data


def test_linear_map_infeasible():
    # no module map sends the bottom of a seagull to the bottom of F2 shifted
    # wrongly
    m = structure.seagull(1)
    assert linear_map_from_generators(m, f2(), [(0, 1)], [(0, 1)], 0) is not None
    tgt = suspend(f2(), 2)
    with pytest.raises(Exception):
        # no module map can send the middle class of a seagull to a class
        # not hit by Sq2
        linear_map_from_generators(m, tgt, [(2, 1)], [(2, 1)], 0)


def test_submodule_closure():
    a1 = free_module()
    closed = submodule_closure(a1, {0: [1]})
    assert sum(sp.dim for sp in closed.values()) == 8
    # the top wing alone generates only itself
    closed = submodule_closure(a1, {6: [1]})
    assert sum(sp.dim for sp in closed.values()) == 1


@given(st.integers(1, 5), st.integers(1, 5))
@settings(max_examples=10, deadline=None)
def test_tensor_validates(n1, n2):
    t = tensor(structure.seagull(n1), structure.seagull(n2))
    validate(t)


WORD_PAIRS = [(w1, w2) for w1 in ("Sq1", "Sq2") for w2 in WORDS if w2 != "1"]


def test_apply_word_respects_lmul():
    a1 = free_module()
    for w1, w2 in WORD_PAIRS:
        d, v = apply_word(a1, w2, 0, 1)
        d2_, v2 = apply_word(a1, w1, d, v)
        prod = LMUL[w1][w2]
        if prod is None:
            assert v2 == 0
        else:
            dp, vp = apply_word(a1, prod, 0, 1)
            assert (d2_, v2) == (dp, vp)
