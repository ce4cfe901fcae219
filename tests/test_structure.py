import random
from collections import Counter
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from a1mod import a1core, davismahowald, f2linalg, margolis, structure
from a1mod.a1core import (DUAL_WORD, TOP_WORD, WORD_DEGREE, WORDS, _word_rows,
                          apply_word, direct_sum, dualize, free_module, suspend,
                          tensor, truncate)
from a1mod.errors import A1ModError, NotQ0Local, TruncationTooTight
from a1mod.f2linalg import BitMatrix, Subspace, rank
from a1mod.structure import (FlockDescriptor, SeagullEntry, classify,
                             localize_q0, seagull, seagull_inf, strip_free)
from random_modules import random_automorphism, random_module
from routes import (IncomparableCutoffs, _descriptors_stably_equal,
                    assert_wing_image_lemma, realize, stably_equivalent)
from solver_reference import (_word_matrix, classify_reference,
                              free_cells_reference, strip_free_reference)


def test_seagull_dims():
    for n in range(1, 7):
        m = seagull(n)
        assert sum(m.space.dim(k) for k in m.space.degrees) == 4 * n
        per_wing = sorted(k for k in m.space.degrees for _ in range(m.space.dim(k)))
        want = sorted(d for j in range(n) for d in (4 * j, 4 * j + 2,
                                                    4 * j + 3, 4 * j + 5))
        assert per_wing == want


def test_classify_single_seagulls():
    for n in range(1, 6):
        for shift in (0, 3):
            rep = classify(suspend(seagull(n), shift))
            assert rep.descriptor.seagulls == (SeagullEntry(shift, n, True),)
            assert rep.descriptor.free_ranks == ()
            assert rep.residue_degrees == []


def test_classify_flock_sum():
    m = direct_sum(seagull(2), suspend(seagull(1), 9))
    rep = classify(m)
    assert rep.descriptor.seagulls == (SeagullEntry(0, 2, True),
                                       SeagullEntry(9, 1, True))


def test_classify_with_free_summand():
    m = direct_sum(seagull(1), free_module())
    rep = classify(m)
    assert rep.descriptor.seagulls == (SeagullEntry(0, 1, True),)
    assert rep.descriptor.free_rank_map() == {0: 1}


def test_classify_work_is_linear_in_degrees(monkeypatch):
    # the induction grows its submodule one degree at a time, so the
    # subspaces built per degree do not grow with the length of the module
    made = []
    init = Subspace.__init__

    def counting_init(self, *args, **kwargs):
        made.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Subspace, "__init__", counting_init)
    for n in (4, 16, 64):
        m = seagull(n)
        made.clear()
        classify(m)
        assert len(made) <= 10 * len(m.space.degrees), n


def test_classify_builds_one_step1_system_per_degree(monkeypatch):
    # the step-1 system and the wing matrices are fixed for a degree, so
    # classify forms each word's rows once per degree, never once per
    # generator: a wing at most twice from any degree (for its kernel
    # generators there, and for the generators four degrees up), however
    # many seagulls pass through it
    calls = []
    word_rows = structure._word_rows
    monkeypatch.setattr(structure, "_word_rows", lambda m, w, k: (
        calls.append((w, k)) or word_rows(m, w, k)))
    inputs = []
    for n in (2, 3):
        t = tensor(seagull(n), seagull(n))
        inputs.append(tensor(seagull_inf(structure.default_cutoff(t) - t.lo), t))
    inputs.append(reduce(direct_sum, [seagull(6)] * 3))
    for x in inputs:
        calls.clear()
        report = classify(x)
        assert max(Counter(calls).values()) <= 2
    assert len(report.witnesses) == 3  # three generators in each degree 4j


def test_classify_inserts_a_fixed_number_of_rows_per_degree(monkeypatch):
    # a count, not a timing: one pivot table per degree for the induction
    # and one rank per degree for the Q1 test, whatever the module's length
    insert = f2linalg.insert
    calls = []
    for mod in (f2linalg, structure, margolis):
        monkeypatch.setattr(mod, "insert", lambda *a: (
            calls.append(1) or insert(*a)), raising=False)
    for n in (16, 64):
        m = seagull_inf(n)
        calls.clear()
        classify(m)
        assert 0 < len(calls) <= 5 * len(m.space.degrees), n


def test_strip_free_solves_nothing(monkeypatch):
    # every functional of a degree comes off one elimination of [tops | I]
    def no_solve(*args):
        raise AssertionError("strip_free called solve")
    for mod in (f2linalg, structure):
        monkeypatch.setattr(mod, "solve", no_solve)
    inputs = [direct_sum(seagull(2), free_module(1)),
              reduce(direct_sum, [seagull(2)] + [free_module(k % 3)
                                                 for k in range(6)]),
              tensor(seagull(2), seagull(2))]
    for m in inputs:
        _, ranks = strip_free(m)
        assert ranks


def _outcome(run, m):
    """What ``run(m)`` returns as plain data, or its error's class and
    text."""
    try:
        out = run(m)
    except A1ModError as exc:
        return type(exc), str(exc)
    if isinstance(out, structure.DecompositionReport):
        return out.descriptor, out.witnesses, out.residue_degrees, out.log
    red, ranks = out
    return (ranks, red.space.labels, list(red.sq1.mats.items()),
            list(red.sq2.mats.items()), red.truncated_above,
            red.truncated_below, red.name)


def test_classify_and_strip_free_match_the_reference():
    # equal free cells and functionals, equal reduced modules, and equal
    # reports or equal errors, on twisted draws with and without
    # truncations and on localizations of 20 of them
    rng = random.Random(23)
    localized = 0
    for i in range(160):
        m = random_module(rng, truncated=i % 2 == 0)
        inputs = [m]
        if localized < 20 and m.lo is not None and m.truncated_below is None:
            cut = structure.default_cutoff(m) - m.lo
            inputs.append(tensor(seagull_inf(cut), m))
            localized += 1
        for x in inputs:
            assert structure._free_cells(x) == free_cells_reference(x)
            assert _outcome(strip_free, x) == _outcome(strip_free_reference, x)
            assert _outcome(classify, x) == _outcome(classify_reference, x)
    assert localized == 20


def test_bottom_witnesses_lie_in_the_kernel_of_sq1():
    # Sq1 g = 0 for the bottom generator g of a seagull, so its witness
    # in the reduced module must satisfy the same relation
    rng = random.Random(3)
    checked = 0
    for _ in range(150):
        m = random_module(rng, truncated=False)
        try:
            rep = classify(m)
        except NotQ0Local:
            continue
        red, _ = strip_free(m)
        for gens in rep.witnesses:
            k, v = gens[0]
            assert red.sq1.apply(k, v) == 0, (k, v)
            checked += 1
    assert checked


def test_seagull_inf_is_the_truncated_seagull():
    for shift in range(-6, 7):
        for cutoff in range(max(5, shift + 5), 80):
            got = seagull_inf(cutoff, shift)
            want = truncate(seagull((cutoff - shift) // 4 + 1, shift), cutoff)
            assert got.space == want.space, (cutoff, shift)
            assert got.sq1.mats == want.sq1.mats, (cutoff, shift)
            assert got.sq2.mats == want.sq2.mats, (cutoff, shift)
            assert (got.truncated_above, got.truncated_below, got.name) == \
                (want.truncated_above, want.truncated_below, want.name)


def test_strip_free():
    m = direct_sum(free_module(), direct_sum(seagull(2), free_module(3)))
    red, ranks = strip_free(m)
    assert {k: r for k, r in ranks.items() if r} == {0: 1, 3: 1}
    assert sum(red.space.dim(k) for k in red.space.degrees) == 8


def _top_rank(m, k):
    mat = _word_matrix(m, TOP_WORD, k)
    return rank(mat.data, mat.cols)


def test_word_matrix_matches_apply_word():
    # the rows of every word, admissible or not, against the vector path,
    # on random-basis modules truncated above and below and on degrees
    # beyond both ends, where missing factors make the word zero
    rng = random.Random(3)
    mods = [random_automorphism(rng, direct_sum(
                seagull(2), direct_sum(free_module(1), a1core.f2(2)))),
            random_automorphism(rng, seagull_inf(14, 1)),
            random_automorphism(rng, dualize(seagull_inf(13)))]
    words = WORDS + ("Sq1Sq1", "Sq2Sq2", "Sq1Sq2Sq1Sq2")
    zero = Counter()
    for m in mods:
        for w in words:
            for k in range(m.lo - 2, m.hi + 3):
                rows = _word_rows(m, w, k)
                d = apply_word(m, w, k, 0)[0]
                zero[rows is None] += 1
                if rows is None:  # a factor without a matrix: zero from k
                    rows = [0] * m.dim(d)
                mat = BitMatrix(m.dim(d), m.dim(k), tuple(rows))
                if w in WORD_DEGREE:
                    assert d == k + WORD_DEGREE[w]
                for i in range(m.dim(k)):
                    assert mat.apply(1 << i) == apply_word(m, w, k, 1 << i)[1]
    assert zero[True] and zero[False]


def _random_split_input(rng):
    """A sum of shifted seagulls, free cells and F2 in a random basis;
    sometimes with a truncated infinite seagull."""
    parts = [seagull(rng.randint(1, 3), rng.randint(-3, 6))
             for _ in range(rng.randint(0, 2))]
    parts += [free_module(rng.randint(-3, 6)) for _ in range(rng.randint(1, 3))]
    parts += [a1core.f2(rng.randint(-3, 6)) for _ in range(rng.randint(0, 1))]
    if rng.random() < 0.3:
        parts.append(seagull_inf(rng.randint(12, 20), rng.randint(-2, 4)))
    return random_automorphism(rng, reduce(direct_sum, rng.sample(parts,
                                                                   len(parts))))


@given(st.integers(0, 10**6))
@settings(max_examples=30, deadline=None)
def test_strip_free_splits_every_top_class(seed):
    m = _random_split_input(random.Random(seed))
    red, ranks = strip_free(m)
    cut = m.truncated_above
    reach = [k for k in m.space.degrees if cut is None or k <= cut - 6]
    assert ranks == {k: _top_rank(m, k) for k in reach if _top_rank(m, k)}
    assert all(_top_rank(red, k) == 0 for k in reach)
    if cut is None:
        assert red.space.total_dim() + 8 * sum(ranks.values()) == \
            m.space.total_dim()
    # the retraction onto cell (k, i) sends w x_j to delta_ij w: its
    # coefficient on the word u at y is phi_i(DUAL_WORD[u] y)
    for k, (gens, phis) in structure._free_cells(m).items():
        for w in WORDS:
            for j, x in enumerate(gens):
                d, y = apply_word(m, w, k, x)
                for u in WORDS:
                    if WORD_DEGREE[u] != WORD_DEGREE[w]:
                        continue
                    top = apply_word(m, DUAL_WORD[u], d, y)[1]
                    for i, phi in enumerate(phis.data):
                        parity = (phi & top).bit_count() & 1
                        assert parity == (i == j and u == w)


def test_strip_free_builds_one_module(monkeypatch):
    inputs = [(direct_sum(seagull(2), free_module(1)), 1),
              (reduce(direct_sum, [seagull(2)] + [free_module(k % 3)
                                                  for k in range(6)]), 1),
              (seagull(2), 0)]
    built = []
    monkeypatch.setattr(structure, "module", lambda *a, **kw: (
        built.append(1) or a1core.module(*a, **kw)))

    def no_solve(*args, **kwargs):
        raise AssertionError("strip_free solved for a module map")
    monkeypatch.setattr(a1core, "linear_map_from_generators", no_solve)
    assert not hasattr(structure, "linear_map_from_generators")
    for m, calls in inputs:
        built.clear()
        red, _ = strip_free(m)
        assert len(built) == calls
        assert (red is m) == (calls == 0)


def test_strip_free_keeps_the_floor():
    m = tensor(dualize(seagull_inf(20)), seagull(1))
    assert m.space.total_dim() == 80
    red, ranks = strip_free(m)
    assert red.space.total_dim() == 8 and sum(ranks.values()) == 9
    assert red.truncated_below == m.truncated_below == -15


def test_classify_refuses_a_floor():
    dual = dualize(seagull_inf(20))
    for m in (dual, tensor(dual, seagull(1))):
        for run in (classify, localize_q0):
            with pytest.raises(TruncationTooTight,
                               match=f"below degree {m.truncated_below}$"):
                run(m)
    with pytest.raises(TruncationTooTight, match="below degree -20$"):
        davismahowald.lift_check(dual)
    # the differential pairs the two Margolis classes of the seagull(1)
    # factor inside the window, so the verdict comes before localization
    assert davismahowald.lift_check(tensor(dual, seagull(1))).evidence == [
        "nonzero differential: d5.0* -> d0.0*"]


def test_classify_free_only():
    rep = classify(direct_sum(free_module(), free_module(5)))
    assert rep.descriptor.seagulls == ()
    assert rep.descriptor.free_rank_map() == {0: 1, 5: 1}


def _random_descriptor(rng):
    entries = []
    used_shifts = set()
    for _ in range(rng.randint(1, 3)):
        shift = rng.randint(0, 20)
        if shift in used_shifts:
            continue
        used_shifts.add(shift)
        entries.append(SeagullEntry(shift, rng.randint(1, 5), True))
    free = [(rng.randint(0, 20), rng.randint(0, 2)) for _ in range(2)]
    return FlockDescriptor.make(entries, free)


def test_classify_realize_roundtrip():
    rng = random.Random(20260826)
    for _ in range(200):
        desc = _random_descriptor(rng)
        got = classify(realize(desc)).descriptor
        assert got == desc


def test_classify_basis_invariance():
    base = direct_sum(direct_sum(suspend(seagull(3), 2), seagull(1)),
                      free_module())
    want = classify(base).descriptor
    rng = random.Random(7)
    for _ in range(50):
        twisted = random_automorphism(rng, base)
        assert classify(twisted).descriptor == want


def test_classify_tensor_of_seagulls():
    rep = classify(tensor(seagull(1), seagull(1)))
    assert rep.descriptor.seagulls == (SeagullEntry(0, 1, True),
                                       SeagullEntry(5, 1, True))
    assert rep.descriptor.free_rank_map() == {2: 1}


def test_localize_seagulls_stable():
    for n in range(1, 4):
        assert stably_equivalent(
            realize(localize_q0(seagull(n)).descriptor), seagull(n))


def test_localize_free_is_empty():
    for m in (free_module(), a1core.zero_module()):
        assert localize_q0(m).descriptor.seagulls == ()


def test_default_cutoff_of_a_module_without_degrees():
    assert structure.default_cutoff(a1core.zero_module()) is None
    assert structure.default_cutoff(truncate(seagull(2), -1)) is None
    assert structure.default_cutoff(truncate(seagull(2), 3)) == 21


def test_localize_f2_open_seagull():
    rep = localize_q0(a1core.f2())
    assert len(rep.descriptor.seagulls) == 1
    e = rep.descriptor.seagulls[0]
    assert e.shift == 0 and not e.exact


def test_seagull_inf_localization_open():
    rep = classify(seagull_inf(24))
    e = rep.descriptor.seagulls[0]
    assert e.shift == 0 and not e.exact
    # realize turns the open entry back into a truncated infinite seagull
    assert classify(realize(rep.descriptor)).descriptor == rep.descriptor


def test_stably_equivalent_ignores_free():
    a = direct_sum(seagull(2), free_module())
    assert stably_equivalent(a, seagull(2))
    assert not stably_equivalent(a, seagull(1))


def test_incomparable_cutoffs():
    with pytest.raises(IncomparableCutoffs):
        _descriptors_stably_equal(
            FlockDescriptor.make([SeagullEntry(0, 3, False)], cutoff=12),
            FlockDescriptor.make([SeagullEntry(0, 4, False)], cutoff=18))


@given(st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_flock_wing_image_lemma(seed):
    # im(Sq2) ∩ ker(Sq1) == im(Sq2Sq1Sq2) degreewise on flocks (sums of
    # shifted seagulls; free summands genuinely violate this)
    rng = random.Random(seed)
    desc = _random_descriptor(rng)
    assert_wing_image_lemma(realize(FlockDescriptor.make(desc.seagulls)))


@given(st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_reduced_bottom_class_killed_by_sq1(seed):
    # on a reduced connective Q0-local module the bottom class has Sq1 x = 0
    rng = random.Random(seed)
    desc = FlockDescriptor.make(
        [SeagullEntry(rng.randint(0, 10), rng.randint(1, 4), True)])
    m = realize(desc)
    bottom = min(m.space.degrees)
    assert m.sq1.mat(bottom).is_zero()


def test_construction_refusals():
    with pytest.raises(ValueError, match="length must be positive"):
        seagull(0)
    with pytest.raises(TruncationTooTight, match="at least one full wing"):
        seagull_inf(4)
    open_entry = FlockDescriptor.make([SeagullEntry(0, 2, False)])
    with pytest.raises(TruncationTooTight, match="needs a cutoff"):
        realize(open_entry)
    # the infinite seagull tensored in needs five degrees above the bottom
    with pytest.raises(TruncationTooTight, match="leaves no full wing"):
        localize_q0(seagull(1), 3)
