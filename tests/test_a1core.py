import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from a1mod import a1core, davismahowald, structure
from a1mod.a1core import (DUAL_WORD, LMUL, PRODUCT, TOP_WORD, WORD_DEGREE,
                          WORDS, apply_word, direct_sum, dualize, f2,
                          free_module, free_module_on,
                          linear_map_from_generators, module,
                          module_from_edges, suspend, tensor, truncate,
                          validate)
from a1mod.errors import RelationViolation, ShapeMismatch, TruncationTooTight
from a1mod.f2linalg import BitMatrix, rank
from a1mod.margolis import margolis_homology
from random_modules import opposite_truncations, random_module, random_part
from solver_reference import linear_map_reference, tensor_reference


def test_word_degrees():
    assert [WORD_DEGREE[w] for w in WORDS] == [0, 1, 2, 3, 3, 4, 5, 6]


def test_lmul_relations():
    # Sq1 Sq1 = 0 and Sq2 Sq2 = Sq1 Sq2 Sq1 inside the multiplication table
    assert LMUL["Sq1"]["Sq1"] is None
    assert LMUL["Sq2"]["Sq2"] == "Sq1Sq2Sq1"
    # top class is killed by both generators
    top = "Sq2Sq1Sq2Sq1"
    assert LMUL["Sq1"][top] is None and LMUL["Sq2"][top] is None


def test_dual_words():
    assert TOP_WORD == "Sq2Sq1Sq2Sq1"
    assert DUAL_WORD == {
        "1": "Sq2Sq1Sq2Sq1", "Sq1": "Sq2Sq1Sq2", "Sq2": "Sq1Sq2Sq1",
        "Sq1Sq2": "Sq1Sq2", "Sq2Sq1": "Sq2Sq1",
        "Sq1Sq2Sq1": "Sq2", "Sq2Sq1Sq2": "Sq1", "Sq2Sq1Sq2Sq1": "1"}
    # on the free module, the dual word carries each word to the top class
    # and every other word of its degree to zero
    a1 = free_module()
    for w in WORDS:
        for u in WORDS:
            if WORD_DEGREE[u] == WORD_DEGREE[w]:
                d, v = apply_word(a1, u, 0, 1)
                assert apply_word(a1, DUAL_WORD[w], d, v) == (6, int(u == w))


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


def test_module_from_edges_refuses_unknown_cells():
    for edges in ([("a", "zz")], [("zz", "a")]):
        with pytest.raises(ShapeMismatch, match="unknown cell 'zz'"):
            module_from_edges([("a", 0)], edges, [])
        with pytest.raises(ShapeMismatch, match="unknown cell 'zz'"):
            module_from_edges([("a", 0)], [], edges)


def test_module_from_edges_refuses_repeated_cells():
    # else the edge would leave the second "a" alone
    with pytest.raises(ShapeMismatch, match="label 'a' is repeated"):
        module_from_edges([("a", 0), ("a", 1), ("b", 2)], [("a", "b")], [])


def test_free_module_on_several_generators():
    m = free_module_on([("x", 0), ("y", 3)], name="F")
    validate(m)
    assert m.name == "F" and m.space.total_dim() == 16
    assert m.space.labels[3] == ("Sq1Sq2*x", "Sq2Sq1*x", "y")
    assert apply_word(m, "Sq2Sq1Sq2Sq1", 3, 0b100) == (9, 0b1)
    one, same = free_module(3), free_module_on([("g", 3)])
    assert one.name == "A(1){g}" and one.space == same.space
    for k in one.space.degrees:
        assert (one.sq1.mat(k), one.sq2.mat(k)) == (same.sq1.mat(k),
                                                    same.sq2.mat(k))


def test_truncation_bounds_follow_transforms():
    m = suspend(dualize(structure.seagull_inf(20)), 3)
    assert (m.truncated_above, m.truncated_below) == (None, -17)
    q0 = margolis_homology(m, "Q0")
    assert q0.nonzero_degrees() == [3]
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


def _violation(cells, sq1_edges, sq2_edges, **kwargs):
    with pytest.raises(RelationViolation) as exc:
        module_from_edges(cells, sq1_edges, sq2_edges, **kwargs)
    return exc.value.degree, exc.value.relation


# Sq1 Sq1 a = c at degree 3; Sq2 Sq2 a = c at degree 2 while Sq1 a = 0
SQ1_BROKEN = ([("x", 0), ("a", 3), ("b", 4), ("c", 5)],
              [("a", "b"), ("b", "c")], [])
SQ2_BROKEN = ([("x", 0), ("a", 2), ("b", 4), ("c", 6)],
              [], [("a", "b"), ("b", "c")])


def test_relation_violation_reports_degree_and_relation():
    assert _violation(*SQ1_BROKEN) == (3, "Sq1 Sq1 = 0")
    assert _violation(*SQ2_BROKEN) == (2, "Sq2 Sq2 = Sq1 Sq2 Sq1")
    # lowest degree first: Sq2 Sq2 fails at 2, Sq1 Sq1 at 5
    assert _violation([("a", 2), ("b", 4), ("c", 6), ("p", 5), ("q", 7)],
                      [("p", "c"), ("c", "q")],
                      [("a", "b"), ("b", "c")]) == (2, "Sq2 Sq2 = Sq1 Sq2 Sq1")
    # a product with an absent factor is zero: Sq1 Sq2 Sq1 a = d with no
    # Sq2 out of degree 0 (SQ2_BROKEN has the converse, no Sq1 at all)
    assert _violation([("a", 0), ("b", 1), ("c", 3), ("d", 4)],
                      [("a", "b"), ("c", "d")],
                      [("b", "c")]) == (0, "Sq2 Sq2 = Sq1 Sq2 Sq1")
    # both fail at degree 2: Sq1 Sq1 is checked first
    assert _violation([("a", 2), ("b", 3), ("c", 4), ("d", 6)],
                      [("a", "b"), ("b", "c")],
                      [("a", "c"), ("c", "d")]) == (2, "Sq1 Sq1 = 0")


def test_relation_checks_respect_the_truncation_cutoff():
    # Sq1 Sq1 at degree k is checked when k + 2 <= cutoff, Sq2 Sq2 when k + 4
    assert _violation(*SQ1_BROKEN, truncated_above=5) == (3, "Sq1 Sq1 = 0")
    module_from_edges(*SQ1_BROKEN, truncated_above=4)
    assert _violation(*SQ2_BROKEN, truncated_above=6) == \
        (2, "Sq2 Sq2 = Sq1 Sq2 Sq1")
    module_from_edges(*SQ2_BROKEN, truncated_above=5)


def test_validate_work_is_linear_in_degrees(monkeypatch):
    # a count, not a timing: at most four row products per degree
    mul_rows = a1core.mul_rows
    for n in (4, 16):
        m = structure.seagull(n)
        calls = []
        monkeypatch.setattr(a1core, "mul_rows",
                            lambda a, b: calls.append(1) or mul_rows(a, b))
        validate(m)
        monkeypatch.undo()
        assert 0 < len(calls) <= 4 * len(m.space.degrees)


def test_apply_word_order():
    # rightmost factor acts first: on the free module, Sq2Sq1 g lives in
    # degree 3 and differs from Sq1Sq2 g
    a1 = free_module()
    d1, v1 = apply_word(a1, "Sq2Sq1", 0, 1)
    d2_, v2 = apply_word(a1, "Sq1Sq2", 0, 1)
    assert d1 == d2_ == 3
    assert v1 != v2 and v1 and v2


@pytest.mark.parametrize("word", ["Sq3", "Sq1Sq", "sq1", "", "Sq1 Sq2",
                                  "1Sq1", "Sq2Sq0"])
def test_malformed_words_are_refused(word):
    # a word is "1" or a string of Sq1 and Sq2, on both word paths
    a1 = free_module()
    with pytest.raises(ValueError, match="unknown word"):
        apply_word(a1, word, 0, 1)
    with pytest.raises(ValueError, match="unknown word"):
        a1core._word_rows(a1, word, 0)


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
    # the label swap x (x) y -> y (x) x is a bijection in every degree that
    # commutes with Sq1 and Sq2
    a, b = structure.seagull(1), suspend(structure.seagull(2), 2)
    t1, t2 = tensor(a, b), tensor(b, a)
    assert t1.space.degrees == t2.space.degrees
    swap = {k: _swap_matrix(t1, t2, k) for k in t1.space.degrees}
    for k, p in swap.items():
        assert p.rows == p.cols == t1.dim(k) and rank(p.data, p.cols) == p.rows
        for step, g1, g2 in ((1, t1.sq1, t2.sq1), (2, t1.sq2, t2.sq2)):
            if k + step in swap:
                assert swap[k + step].mul(g1.mat(k)) == g2.mat(k).mul(p)


def _swap_matrix(t1, t2, k):
    cols = []
    for la in t1.space.labels[k]:
        left, right = la.split("(x)")
        cols.append(1 << t2.space.labels[k].index(f"{right}(x){left}"))
    return BitMatrix.from_columns(t2.dim(k), cols)


def test_tensor_refuses_opposite_truncations():
    # one factor truncated above, the other below: no degree is complete
    a, b = structure.seagull_inf(14), dualize(structure.seagull_inf(8))
    for x, y in ((a, b), (b, a)):
        with pytest.raises(TruncationTooTight):
            tensor(x, y)
    # either truncation alone still gives a window
    assert tensor(a, structure.seagull(1)).truncated_above == 14
    assert tensor(b, structure.seagull(1)).truncated_below == -3


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
                                     [(0, 1), (4, 1)])
    assert got is not None
    for k in m.space.degrees:
        assert got.mat(k).data == BitMatrix.identity(m.space.dim(k)).data


def test_linear_map_infeasible():
    m = structure.seagull(1)
    aug = linear_map_from_generators(m, f2(), [(0, 1)], [(0, 1)])
    assert [k for k in m.space.degrees if not aug.mat(k).is_zero()] == [0]
    # no module map can send the middle class of a seagull to a class not
    # hit by Sq2: the middle class does not generate the seagull
    with pytest.raises(ShapeMismatch, match="do not generate"):
        linear_map_from_generators(m, suspend(f2(), 2), [(2, 1)], [(2, 1)])
    # Sq1 kills the class of F2 but not the generator of A(1)
    with pytest.raises(ShapeMismatch, match="no action-preserving map"):
        linear_map_from_generators(f2(), free_module(), [(0, 1)], [(0, 1)])
    with pytest.raises(ShapeMismatch, match="wrong degree"):
        linear_map_from_generators(m, f2(), [(0, 1)], [(1, 1)])


def test_linear_map_matches_the_reference_solve():
    # maps out of a free module and out of a seagull onto random targets
    rng = random.Random(11)
    for _ in range(20):
        src, gens = rng.choice([(free_module_on([("x", 0), ("y", 2)]),
                                 [(0, 1), (2, 0b10)]),
                                (structure.seagull(2), [(0, 1), (4, 1)])])
        tgt = rng.choice([free_module_on([("a", 0), ("b", 1)]),
                          direct_sum(structure.seagull(1), f2(2))])
        values = [(k, rng.getrandbits(tgt.dim(k))) for k, _ in gens]
        try:
            want = linear_map_reference(src, tgt, gens, values)
        except ShapeMismatch:
            with pytest.raises(ShapeMismatch):
                linear_map_from_generators(src, tgt, gens, values)
            continue
        got = linear_map_from_generators(src, tgt, gens, values)
        assert all(got.mat(k) == want.mat(k) for k in src.space.degrees)


def test_tensor_keeps_truncated_below():
    d = dualize(structure.seagull_inf(20))
    t = tensor(d, f2())
    assert (t.truncated_above, t.truncated_below) == (None, -20)
    q0 = margolis_homology(t, "Q0")
    assert q0.nonzero_degrees() == [0]
    assert tensor(f2(), d).truncated_below == -20
    # an empty factor keeps its bound: nothing above -1 of the first is known
    empty = truncate(structure.seagull(2), -1)
    assert empty.lo is None
    assert tensor(empty, f2()).truncated_above == -1
    assert tensor(f2(3), empty).truncated_above == 2
    assert tensor(dualize(empty), f2(2)).truncated_below == 3
    # an empty factor without truncation gives the exact zero module
    exact = tensor(a1core.zero_module(), structure.seagull(2))
    assert (exact.lo, exact.truncated_above, exact.truncated_below) == \
        (None, None, None)


def test_tensor_truncated_below_kunneth():
    # Q0 and Q1 homology of a tensor product is the tensor of the homologies
    t = tensor(dualize(structure.seagull_inf(20)), structure.seagull(1))
    assert t.truncated_below == -15
    for op, want in (("Q0", [0, 5]), ("Q1", [])):
        h = margolis_homology(t, op)
        assert h.nonzero_degrees() == want


def _tensor_factor(rng):
    """A random factor; sometimes the zero module or an empty one that
    keeps a bound from above or below, and often one of the shapes that
    ``localize_q0`` and the DM complex pass: a long truncated infinite
    seagull (one cell per degree), N(sigma), or a sum with F2, whose
    block-diagonal matrices have zero rows."""
    roll, shift = rng.random(), rng.randint(-4, 4)
    if roll < 0.15:
        return structure.seagull_inf(shift + rng.randint(5, 30), shift)
    if roll < 0.25:
        return davismahowald.build_N(rng.randint(0, 9))
    m = random_module(rng) if rng.random() < 0.6 else random_part(rng)
    roll = rng.random()
    if roll < 0.1:
        return a1core.zero_module()
    if roll < 0.25 and m.lo is not None:
        empty = truncate(m, m.lo - 1)
        return empty if rng.random() < 0.5 else dualize(empty)
    if roll < 0.45:
        pair = (m, f2(shift)) if roll < 0.35 else (f2(shift), m)
        return direct_sum(*pair)
    return m


def _presentation(m):
    return (list(m.space.labels.items()), list(m.sq1.mats.items()),
            list(m.sq2.mats.items()), m.truncated_above, m.truncated_below,
            m.name)


@given(st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_tensor_matches_the_cellwise_reference(seed):
    # same labels, basis order, matrices (in degree order), bounds and name
    rng = random.Random(seed)
    a, b = _tensor_factor(rng), _tensor_factor(rng)
    if opposite_truncations(a, b):
        with pytest.raises(TruncationTooTight):
            tensor(a, b)
        return
    assert _presentation(tensor(a, b)) == _presentation(tensor_reference(a, b))


@given(st.integers(1, 5), st.integers(1, 5))
@settings(max_examples=10, deadline=None)
def test_tensor_validates(n1, n2):
    t = tensor(structure.seagull(n1), structure.seagull(n2))
    validate(t)


WORD_PAIRS = [(w1, w2) for w1 in ("Sq1", "Sq2") for w2 in WORDS if w2 != "1"]


def test_product_is_the_action_on_a1():
    # all 64 products u w against applying w, then u, to the generator
    a1 = free_module()
    for u in WORDS:
        for w in WORDS:
            d, v = apply_word(a1, u, *apply_word(a1, w, 0, 1))
            uw = PRODUCT[u][w]
            want = (d, 0) if uw is None else apply_word(a1, uw, 0, 1)
            assert (d, v) == want, (u, w)


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


def test_module_refuses_a_misshapen_matrix():
    # Sq1 from degree 0 to degree 1 must be 1x1
    with pytest.raises(ShapeMismatch, match="got 2x1, expected 1x1"):
        module({0: ["a"], 1: ["b"]}, {0: BitMatrix(2, 1, (1, 0))}, {})
