import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from a1mod import a1core, margolis, structure
from a1mod.errors import NotQ0Local
from a1mod.f2linalg import (BitMatrix, Subspace, complement, image, kernel,
                            mul_rows)
from a1mod.margolis import _op_rows, is_q0_local, margolis_homology
from random_modules import random_module
from routes import a0_decompose

SHIFT = {"Q0": 1, "Q1": 3}
Q_WORDS = {"Q0": ("Sq1",), "Q1": ("Sq2Sq1", "Sq1Sq2")}


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
    assert q0.nonzero_degrees() == [0]
    q1 = margolis_homology(m, "Q1")
    assert q1.reliable == (None, 15)
    assert q1.nonzero_degrees() == []


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
    # wherever both factors act, truncated modules and their duals included
    rng = random.Random(5)
    pairs = truncated = 0
    for i in range(200):
        m = random_module(rng)
        m = a1core.dualize(m) if i % 2 else m
        for k in m.space.degrees:
            inner, outer = _op_rows(m, "Q1", k), _op_rows(m, "Q1", k + 3)
            if inner is not None and outer is not None:
                assert not any(mul_rows(outer, inner))
                pairs += 1
                truncated += (m.truncated_above is not None
                              or m.truncated_below is not None)
    assert pairs > 1000 and truncated > 500


def test_is_q0_local():
    assert is_q0_local(structure.seagull(3)) is True
    assert is_q0_local(a1core.free_module()) is True  # trivially: H(;Q1) = 0
    assert is_q0_local(a1core.f2()) is False
    # the witness is the lowest degree with Q1-homology
    with pytest.raises(NotQ0Local) as err:
        structure.classify(a1core.f2())
    assert err.value.degree == 0


def _reference_reps(m, op, k):
    """The homology representatives in degree k by the formula
    complement(image, kernel), on matrices built column by column from
    ``apply_word`` on unit vectors."""
    def matrix(j):
        cols = []
        for i in range(m.dim(j)):
            v = 0
            for word in Q_WORDS[op]:
                v ^= a1core.apply_word(m, word, j, 1 << i)[1]
            cols.append(v)
        return BitMatrix.from_columns(m.dim(j + SHIFT[op]), cols)
    return complement(image(matrix(k - SHIFT[op])), kernel(matrix(k)))


def _checked_homology(m, op):
    h = margolis_homology(m, op)
    assert h.reps == {k: _reference_reps(m, op, k)
                      for k in m.space.degrees if h.in_range(k)}
    return h


def test_margolis_homology_matches_an_independent_route():
    # the rank pass and its representatives against apply_word matrices, on
    # modules truncated above and below and their duals, and classify's
    # refusal at the first Q1 degree of the reduced module
    rng = random.Random(11)
    dual = a1core.dualize(structure.seagull_inf(20))
    mods = [dual, a1core.tensor(dual, structure.seagull(1)),
            a1core.tensor(dual, a1core.f2(3)), structure.seagull_inf(13)]
    mods += [random_module(rng) for _ in range(150)]
    refused = 0
    for m in mods:
        for x in (m, a1core.dualize(m)):
            bad = _checked_homology(x, "Q1").nonzero_degrees()
            _checked_homology(x, "Q0")
            assert is_q0_local(x) == (not bad)
        if m.truncated_below is not None:
            continue
        bad = _checked_homology(structure.strip_free(m)[0], "Q1"
                                ).nonzero_degrees()
        if bad:
            with pytest.raises(NotQ0Local) as err:
                structure.classify(m)
            assert err.value.degree == bad[0]
            refused += 1
    assert refused
    assert any(m.truncated_below is not None and not is_q0_local(m)
               for m in mods)
    assert any(m.truncated_above is not None and not is_q0_local(m)
               for m in mods)


def test_margolis_homology_forms_representatives_only_where_there_is_homology(
        monkeypatch):
    # one kernel per degree with homology: seagull(6) has Q0-homology in
    # degrees 0 and 25 only and no Q1-homology, among 24 degrees
    calls = []
    real = margolis.kernel
    monkeypatch.setattr(margolis, "kernel", lambda a: calls.append(a) or real(a))

    def kernels(m, op):
        calls.clear()
        margolis_homology(m, op)
        return len(calls)

    assert kernels(structure.seagull(6), "Q0") == 2
    assert kernels(structure.seagull(6), "Q1") == 0
    m = a1core.tensor(structure.seagull(3), structure.seagull(3))
    assert kernels(m, "Q0") == 3  # degrees 0, 13 and 26
    assert margolis_homology(m, "Q0").nonzero_degrees() == [0, 13, 26]


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


def test_a0_decompose_is_a_basis_in_the_window():
    # pair generators, their Sq1-images and the trivial classes
    rng = random.Random(7)
    checked = 0
    for i in range(400):
        m = random_module(rng)
        m = a1core.dualize(m) if i % 2 else m
        dec = a0_decompose(m)
        vecs = {}
        for k, b, sb in dec.pairs:
            vecs.setdefault(k, []).append(b)
            vecs.setdefault(k + 1, []).append(sb)
        for k, r in dec.trivial:
            vecs.setdefault(k, []).append(r)
        window = margolis_homology(m, "Q0")
        for k in m.space.degrees:
            if window.in_range(k):
                v = vecs.get(k, [])
                assert len(v) == m.dim(k) == Subspace.span(v, m.dim(k)).dim
                checked += 1
    assert checked > 3000


def test_unknown_operator_refused():
    with pytest.raises(ValueError, match="unknown operator 'Q2'"):
        margolis_homology(a1core.f2(), "Q2")
