import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from a1mod import a1core, f2linalg, structure
from a1mod.a1core import (PRODUCT, apply_word, direct_sum, dualize, suspend,
                          tensor)
from a1mod.davismahowald import localized_ext
from a1mod.errors import TruncationTooTight
from a1mod.resolution import (ext_dims, h0_tower_counts,
                              minimal_resolution)
from random_modules import random_automorphism, random_module
from solver_reference import minimal_resolution_reference


def test_a0_ext_of_f2_is_diagonal():
    chart = ext_dims(a1core.f2(), algebra="a0", max_s=20, max_t=20)
    got = {k: d for k, d in chart.dims.items() if d}
    assert got == {(s, s): 1 for s in range(21)}


def test_change_of_rings():
    # Ext over the subalgebra generated by Sq1 of F2 equals Ext over the full
    # algebra of the smallest seagull, grid-for-grid
    a = ext_dims(structure.seagull(1), algebra="a1", max_s=10, max_t=20)
    b = ext_dims(a1core.f2(), algebra="a0", max_s=10, max_t=20)
    assert {k: d for k, d in a.dims.items() if d} == \
        {k: d for k, d in b.dims.items() if d}


def test_free_module_resolution_stops():
    chart = ext_dims(a1core.free_module(), "a1", max_s=5, max_t=12)
    got = {k: d for k, d in chart.dims.items() if d}
    assert got == {(0, 0): 1}


def _differential(m, stages, s, k, v):
    """d_s of the vector v in degree k of stage s, as a vector of stage
    s - 1 (of m at s = 0), from the stages' cells and generator values."""
    out = 0
    for i, (g, w) in enumerate(stages[s].basis[k]):
        if not v >> i & 1:
            continue
        gk, gv = stages[s].d_values[g]
        if s == 0:
            out ^= apply_word(m, w, gk, gv)[1]
            continue
        below = stages[s - 1].basis
        for j, (h, u) in enumerate(below[gk]):
            wu = PRODUCT[w][u]
            if gv >> j & 1 and wu is not None:
                out ^= 1 << below[k].index((h, wu))
    return out


def test_minimal_resolution_is_complex():
    cases = [a1core.f2(), structure.seagull(2),
             tensor(structure.seagull(1), structure.seagull(1)),
             suspend(direct_sum(a1core.f2(), a1core.free_module()), -3)]
    for m in cases:
        for algebra in ("a0", "a1"):
            stages = minimal_resolution(m, algebra, max_s=5, max_t=m.lo + 12)
            assert [st.s for st in stages] == list(range(6))
            assert stages[0].gens[0] == m.lo
            for s in range(1, 6):
                below = stages[s - 1].basis
                for k, v in stages[s].d_values:
                    assert v
                    assert _differential(m, stages, s - 1, k, v) == 0
                    # minimal: no component on a generator of the stage below
                    assert not any(v >> i & 1 and w == "1"
                                   for i, (_, w) in enumerate(below[k]))


def test_truncated_input_rejected():
    m = structure.seagull_inf(10)
    with pytest.raises(TruncationTooTight):
        minimal_resolution(m, "a1", max_s=4, max_t=20)


def test_floor_rejected():
    # the first stage would cover the cut bottom as if it were real
    m = dualize(structure.seagull_inf(20))
    want = ("a resolution needs the bottom of the module; it is truncated "
            "below degree -20")
    for call in (lambda: ext_dims(m, "a1", 2, 0),
                 lambda: h0_tower_counts(m, 4)):
        with pytest.raises(TruncationTooTight) as exc:
            call()
        assert str(exc.value) == want


def test_f2_towers():
    counts = h0_tower_counts(a1core.f2(), 12)
    assert {k: v for k, v in counts.items() if v} == {0: 1, 4: 1, 8: 1, 12: 1}


def test_seagull_towers():
    for n in (1, 2, 3):
        counts = h0_tower_counts(structure.seagull(n), 4 * n + 2)
        assert {k for k, v in counts.items() if v} == \
            {4 * j for j in range(n)}


def test_tower_count_single_stem():
    assert h0_tower_counts(a1core.f2(), 4)[4] == 1
    assert h0_tower_counts(structure.seagull(1), 4)[4] == 0


def test_free_module_has_no_towers():
    counts = h0_tower_counts(a1core.free_module(), 4)
    assert not any(counts.values())


def _nonzero(chart):
    return {k: d for k, d in chart.dims.items() if d}


@given(st.integers(0, 10**6))
@settings(max_examples=30, deadline=None)
def test_ext_is_invariant_under_change_of_basis(seed):
    rng = random.Random(seed)
    m = random_module(rng, truncated=False)
    twisted = random_automorphism(rng, m)
    for algebra in ("a0", "a1"):
        assert _nonzero(ext_dims(m, algebra, 10, m.lo + 20)) == \
            _nonzero(ext_dims(twisted, algebra, 10, m.lo + 20))


@given(st.integers(0, 10**6))
@settings(max_examples=30, deadline=None)
def test_ext_is_additive_over_direct_sums(seed):
    rng = random.Random(seed)
    a, b = random_module(rng, truncated=False), random_module(rng, truncated=False)
    max_t = min(a.lo, b.lo) + 20
    for algebra in ("a0", "a1"):
        want = ext_dims(a, algebra, 10, max_t).dims
        for key, d in ext_dims(b, algebra, 10, max_t).dims.items():
            want[key] = want.get(key, 0) + d
        got = ext_dims(direct_sum(a, b), algebra, 10, max_t)
        assert _nonzero(got) == {k: d for k, d in want.items() if d}


@given(st.integers(0, 10**6))
@settings(max_examples=8, deadline=None)
def test_resolution_towers_match_localization_on_random_modules(seed):
    # random modules have negative shifts, so the stems start below 0
    m = random_module(random.Random(seed), truncated=False)
    towers = {k: v for k, v in h0_tower_counts(m, 8).items() if v}
    assert towers == localized_ext(m, 8).stems


def test_resolution_needs_no_general_elimination(monkeypatch):
    # the resolution inserts into pivot tables and never asks for a
    # canonical basis, a span, a kernel, a complement or a solution
    cases = [(ext_dims, structure.seagull(3), "a1", 12, 40),
             (ext_dims, a1core.f2(), "a0", 20, 20),
             (h0_tower_counts, a1core.f2(), 12)]

    def refuse(*args):
        raise AssertionError("the resolution called general elimination")

    for name in ("canonical", "kernel", "complement", "solve"):
        orig = getattr(f2linalg, name)
        for mod in [m for n, m in sys.modules.items() if n.startswith("a1mod")]:
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    monkeypatch.setattr(mod, attr, refuse)
    monkeypatch.setattr(f2linalg.Subspace, "span", staticmethod(refuse))
    for fn, *args in cases:
        fn(*args)


def _resolve_both(m, algebra, max_s, max_t):
    """The stages from both routes, or the error each raised."""
    out = []
    for fn in (minimal_resolution, minimal_resolution_reference):
        try:
            out.append(fn(m, algebra, max_s, max_t))
        except TruncationTooTight as e:
            out.append(("TruncationTooTight", str(e)))
    return out


def test_minimal_resolution_matches_reference():
    # the resolution visits only degrees with cells or cover vectors and
    # reads products off a table; the reference visits every degree and
    # multiplies word by word.  F2 + S^30 F2 has a gap wider than the top
    # degree of A(1), so the stage runs out of cells before the next cover
    # degree
    rng = random.Random(12)
    gap = direct_sum(a1core.f2(), a1core.f2(30))
    cases = [a1core.f2(), gap,
             a1core.zero_module(), a1core.free_module(),
             structure.seagull(1, -5), structure.seagull(2, 3),
             structure.seagull(3, -11), dualize(structure.seagull(2)),
             tensor(structure.seagull(1), structure.seagull(1, 2)),
             structure.seagull_inf(40)]
    draws = [random_module(rng) for _ in range(20)]
    # twisted, the vectors the stages cover are not unit vectors
    cases += draws + [random_automorphism(rng, m) for m in draws]
    for m in cases:
        lo = 0 if m.lo is None else m.lo
        hi = lo if m.hi is None else m.hi
        # below the bottom, on the bottom and top cover degrees, no stage
        # past the first, shallow and deep
        depths = [(3, lo - 1), (3, lo), (3, hi), (0, lo + 12), (3, lo + 12),
                  (10, lo + 40)]
        if m is gap:  # inside the gap and on its far end
            depths += [(3, 20), (3, 29), (3, 30)]
        if m.truncated_above is not None:  # as deep as the cutoff allows
            depths.append((10, m.truncated_above))
        for algebra in ("a0", "a1"):
            for max_s, max_t in depths:
                got, want = _resolve_both(m, algebra, max_s, max_t)
                if isinstance(want, tuple):
                    assert got == want, (m.name, algebra, max_s, max_t)
                    continue
                assert len(got) == len(want) == max_s + 1
                for a, b in zip(got, want):
                    assert (a.s, a.gens, a.basis, a.d_values) == \
                        (b.s, b.gens, b.basis, b.d_values), \
                        (m.name, algebra, max_s, max_t, a.s)
    # past the cutoff both routes refuse with the same text
    assert _resolve_both(structure.seagull_inf(40), "a1", 5, 41) == [(
        "TruncationTooTight",
        "resolving through degree 41 needs the module beyond its cutoff 40")] * 2


def test_resolution_steps_over_a_gap(monkeypatch):
    # the first stage reads the module's dimension in each degree it
    # visits: those of the two copies of F2 and their cells, not the gap
    seen = []
    dim = a1core.A1Module.dim
    monkeypatch.setattr(a1core.A1Module, "dim",
                        lambda m, k: seen.append(k) or dim(m, k))
    minimal_resolution(direct_sum(a1core.f2(), a1core.f2(30)), "a1", 0, 40)
    assert sorted(set(seen)) == [*range(7), *range(30, 37)]


def test_deep_a0_resolution_of_f2_is_one_generator_per_stage():
    for t in (-7, 0, 5):
        chart = ext_dims(a1core.f2(t), "a0", 200, t + 400)
        assert chart.dims == {(s, s + t): 1 for s in range(201)}


def test_unknown_algebra_refused():
    with pytest.raises(ValueError, match="unknown algebra 'a2'"):
        minimal_resolution(a1core.f2(), "a2", 10, 20)
