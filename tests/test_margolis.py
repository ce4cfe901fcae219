import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from a1mod import a1core, structure
from a1mod.errors import NotQ0Local
from a1mod.margolis import (a0_decompose, is_q0_local, margolis_homology,
                            q1_map)
from random_modules import random_module


def test_seagull_q0_homology():
    for n in range(1, 7):
        m = structure.seagull(n)
        res = margolis_homology(m, "Q0")
        assert {k: d for k, d in res.dims.items() if d} == {0: 1, 4 * n + 1: 1}


def test_seagull_q1_homology_vanishes():
    for n in range(1, 7):
        res = margolis_homology(structure.seagull(n), "Q1")
        assert res.nonzero_degrees() == []


def test_free_module_acyclic():
    a1 = a1core.free_module()
    for op in ("Q0", "Q1"):
        assert margolis_homology(a1, op).nonzero_degrees() == []


def test_f2_homology():
    for op in ("Q0", "Q1"):
        res = margolis_homology(a1core.f2(), op)
        assert res.nonzero_degrees() == [0]


def test_truncated_reliable_window():
    m = structure.seagull_inf(20)
    q0 = margolis_homology(m, "Q0")
    assert q0.reliable == (None, 19)
    assert [k for k in q0.nonzero_degrees() if q0.in_range(k)] == [0]
    q1 = margolis_homology(m, "Q1")
    assert q1.reliable == (None, 15)
    assert [k for k in q1.nonzero_degrees() if q1.in_range(k)] == []


def test_dual_side_mirrors():
    m = structure.seagull(2)
    direct = margolis_homology(m, "Q0")
    dual = margolis_homology(a1core.dualize(m), "Q0")
    assert sorted(-k for k in dual.nonzero_degrees()) == direct.nonzero_degrees()


@given(st.integers(0, 10**6))
@settings(max_examples=30, deadline=None)
def test_dual_side_mirrors_on_random_modules(seed):
    # random-basis sums and tensors, truncated above and below
    m = random_module(random.Random(seed))
    for op in ("Q0", "Q1"):
        h = margolis_homology(m, op)
        hd = margolis_homology(a1core.dualize(m), op)
        lo, hi = h.reliable
        assert hd.reliable == (None if hi is None else -hi,
                               None if lo is None else -lo)
        for k in set(h.dims) | {-j for j in hd.dims}:
            if h.in_range(k):
                assert h.dims.get(k, 0) == hd.dims.get(-k, 0)


def test_q1_squares_to_zero():
    m = a1core.tensor(structure.seagull(2), structure.seagull(1))
    q1 = q1_map(m)
    assert q1.compose(q1).is_zero()


def test_is_q0_local():
    assert is_q0_local(structure.seagull(3)) is True
    assert is_q0_local(a1core.free_module()) is True  # trivially: H(;Q1) = 0
    assert is_q0_local(a1core.f2()) is False
    # the witness is the lowest degree with Q1-homology
    with pytest.raises(NotQ0Local) as err:
        structure.classify(a1core.f2())
    assert err.value.degree == 0


def test_a0_decompose_counts():
    m = structure.seagull(1)
    dec = a0_decompose(m)
    # dims 1,0,1,1,0,1: one Sq1-pair (2 -> 3), two trivial classes (0 and 5)
    assert len(dec.pairs) == 1 and len(dec.trivial) == 2
    degrees = sorted(d for d, _ in dec.trivial)
    assert degrees == [0, 5]
    for k, b, sb in dec.pairs:
        dk, image = a1core.apply_word(m, "Sq1", k, b)
        assert (dk, image) == (k + 1, sb)


def test_a0_decompose_trivial_classes_respect_the_floor():
    # the classes below the reliable window of a module truncated below are
    # truncation artifacts, as in margolis_homology
    m = a1core.dualize(structure.seagull_inf(20))
    h = margolis_homology(m, "Q0")
    dec = a0_decompose(m)
    assert h.reliable == (-19, None) and h.nonzero_degrees() == [0]
    assert sorted({d for d, _ in dec.trivial}) == [0]


def test_unknown_operator_refused():
    with pytest.raises(ValueError, match="unknown operator 'Q2'"):
        margolis_homology(a1core.f2(), "Q2")
