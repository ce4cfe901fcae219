"""Closed-form routes from the structure theory: identities that tie two
layers together with no shared code, checked on seeded random draws of
modules (``tests/random_modules.py``): untruncated ones, where every degree
is reliable, and for Kunneth also ones truncated above or below.

- Kunneth for Margolis homology: Q0 and Q1 are primitive, so
  H(a (x) b; Qi) = H(a; Qi) (x) H(b; Qi) (Margolis, *Spectra and the Steenrod
  Algebra*, 1983).  On truncated factors it is compared inside the tensor's
  reliable window, which lies inside the factors' windows: a degree k of
  the window pairs only degrees of a and b reliable in their own.
- A module is stably free exactly when both Margolis homologies vanish
  (Adams and Margolis, "Modules over the Steenrod algebra", Topology 1971).
- Ext over A(1) of a Q0-local module is read off its flock: a change of
  rings gives seagull(n, sh) one h0-tower from s = 0 at each stem sh + 4j,
  j < n, and a free summand, injective over the Frobenius algebra A(1), one
  class at s = 0 in its generator degree.
- A Q0-local module is its own localization.
- K, the infinite seagull L without its bottom cell, is the kernel of
  L -> F2.  L is Q1-acyclic with H(L; Q0) = F2 in degree 0, so the long
  exact sequences give H(K; Q0) = 0 and H(K; Q1) = F2 in degree 3, Q1's
  degree; by Kunneth H(M (x) K; Q0) = 0 and H(M (x) K; Q1)_k =
  H(M; Q1)_(k-3).  This is the step behind reading the flock of M's
  localization M (x) L off the pairs of Sq1 + Sq2Sq1Sq2 on M itself
  (``structure._bars``).
- Pic(A(1)), the stably invertible modules (both Margolis homologies one
  dimensional; Adams and Priddy, "Uniqueness of BSO", 1976), is
  Z + Z + Z/2, generated by the suspension, I (A(1) without its bottom
  cell) and the Joker J.  With (a, b) the degrees of the Q0 and Q1 classes,
  y = (b - a)/2 and x = a - y, and Σ^-x (x) DI^(x)y (x) M (I^(x)-y when
  y < 0) reduces to F2 (ε = 0) or to Σ^-2 J (ε = 1): M's class is (x, y, ε).
"""

import random
from collections import Counter

from a1mod.a1core import (LMUL, WORD_DEGREE, WORDS, dualize, f2,
                          module_from_edges, suspend, tensor)
from a1mod.margolis import is_q0_local, margolis_homology
from a1mod.resolution import ext_dims
from a1mod.structure import _seagull_cells, classify, localize_q0, strip_free
from random_modules import (opposite_truncations, random_automorphism,
                            random_module, random_part)


def _dims(m, op):
    return {k: d for k, d in margolis_homology(m, op).dims.items() if d}


def _truncated(m):
    return m.truncated_above is not None or m.truncated_below is not None


def test_margolis_homology_of_a_tensor_is_the_tensor_of_homologies():
    rng = random.Random(7)
    pairs = truncated = compared = 0
    while pairs < 200:
        a, b = random_part(rng), random_part(rng)
        if opposite_truncations(a, b):  # tensor refuses these
            continue
        pairs += 1
        truncated += _truncated(a) or _truncated(b)
        t = random_automorphism(rng, tensor(a, b))
        for op in ("Q0", "Q1"):
            want = Counter()
            for ka, da in _dims(a, op).items():
                for kb, db in _dims(b, op).items():
                    want[ka + kb] += da * db
            h = margolis_homology(t, op)
            for k in set(h.dims) | set(want):
                if h.in_range(k):
                    assert h.dims.get(k, 0) == want[k], (op, k)
                    compared += 1
    assert truncated > 50 and compared > 1000, (truncated, compared)


def test_stably_free_exactly_when_both_homologies_vanish():
    rng = random.Random(7)
    draws, free = 120, 0
    for _ in range(draws):
        m = random_module(rng, truncated=False)
        acyclic = not (_dims(m, "Q0") or _dims(m, "Q1"))
        assert (strip_free(m)[0].space.total_dim() == 0) == acyclic
        free += acyclic
    assert 0 < free < draws  # both sides of the equivalence are drawn


def _q0_local_draws(seed, count):
    rng = random.Random(seed)
    draws = []
    while len(draws) < count:
        m = random_module(rng, truncated=False)
        if is_q0_local(m):
            draws.append(m)
    return draws


def test_ext_of_a_q0_local_module_is_read_off_its_flock():
    max_s = 8
    for m in _q0_local_draws(3, 60):
        max_t = m.lo + 30
        desc = classify(m).descriptor
        want = Counter()
        for e in desc.seagulls:
            for j in range(e.length):
                for s in range(max_s + 1):
                    if e.shift + 4 * j + s <= max_t:
                        want[(s, e.shift + 4 * j + s)] += 1
        for d, r in desc.free_ranks:
            if d <= max_t:
                want[(0, d)] += r
        got = ext_dims(m, "a1", max_s, max_t).dims
        assert {k: v for k, v in got.items() if v} == dict(want)


def test_a_q0_local_module_localizes_to_its_own_flock():
    for m in _q0_local_draws(3, 10):
        assert (localize_q0(m).descriptor.seagulls
                == classify(m).descriptor.seagulls)


def _k(cutoff):
    """The infinite seagull truncated above ``cutoff`` without its bottom
    cell g0: nothing acts into g0, so the rest is a submodule."""
    cells, sq1, sq2 = _seagull_cells(cutoff // 4 + 1, 0)
    kept = {label for label, deg in cells if deg <= cutoff and label != "g0"}
    return module_from_edges([c for c in cells if c[0] in kept],
                             [e for e in sq1 if set(e) <= kept],
                             [e for e in sq2 if set(e) <= kept],
                             truncated_above=cutoff)


def test_the_kernel_of_the_infinite_seagull_shifts_q1_homology_by_three():
    k = _k(24)
    assert _dims(k, "Q0") == {} and _dims(k, "Q1") == {3: 1}
    rng = random.Random(9)
    compared = 0
    for _ in range(80):
        m = random_module(rng, truncated=False)
        t = tensor(m, k)
        h0, h1 = margolis_homology(t, "Q0"), margolis_homology(t, "Q1")
        assert not any(h0.dims.values())
        q1 = _dims(m, "Q1")
        for deg, d in h1.dims.items():
            assert d == q1.get(deg - 3, 0), deg
            compared += bool(d)
    assert compared > 20


def _joker():
    """J: one cell in each degree 0..4."""
    return module_from_edges([(f"x{i}", i) for i in range(5)],
                             [("x0", "x1"), ("x3", "x4")],
                             [("x0", "x2"), ("x1", "x3"), ("x2", "x4")],
                             name="J")


def _augmentation_ideal():
    """I: A(1) without its bottom cell, on the words of positive degree."""
    edges = [[(w, LMUL[sq][w]) for w in WORDS[1:] if LMUL[sq][w]]
             for sq in ("Sq1", "Sq2")]
    return module_from_edges([(w, WORD_DEGREE[w]) for w in WORDS[1:]],
                             *edges, name="I")


def _reduced(m):
    return strip_free(m)[0]


def _picard_class(m, ideal, dual_ideal):
    """(x, y, ε) of a stably invertible m, and what strip_free leaves of
    Σ^-x (x) DI^(x)y (x) m (I^(x)-y when y < 0)."""
    (a, da), = _dims(m, "Q0").items()
    (b, db), = _dims(m, "Q1").items()
    assert da == db == 1 and (b - a) % 2 == 0
    y = (b - a) // 2
    x = a - y
    r = _reduced(tensor(f2(-x), m))
    for _ in range(abs(y)):
        r = _reduced(tensor(dual_ideal if y > 0 else ideal, r))
    assert r.space.total_dim() in (1, 5)
    return (x, y, r.space.total_dim() == 5), r


def test_the_picard_class_is_additive_and_negated_by_the_dual():
    ideal = _augmentation_ideal()
    dual_ideal = dualize(ideal)
    joker = suspend(_joker(), -2)
    letters = [(f2(1), (1, 0, False)), (f2(-1), (-1, 0, False)),
               (ideal, (0, 1, False)), (dual_ideal, (0, -1, False)),
               (joker, (0, 0, True))]
    for m, c in letters:
        assert _picard_class(m, ideal, dual_ideal)[0] == c
    leaves = {False: {0: 1}, True: joker.space.dims()}
    rng = random.Random(1)
    seen = set()
    for _ in range(30):
        m, (x, y, eps) = f2(), (0, 0, False)
        for _ in range(rng.randint(1, 5)):
            letter, (lx, ly, le) = rng.choice(letters)
            m = _reduced(tensor(m, letter))
            x, y, eps = x + lx, y + ly, eps != le
        got, rep = _picard_class(m, ideal, dual_ideal)
        assert got == (x, y, eps)
        assert rep.space.dims() == leaves[eps]
        assert _picard_class(dualize(m), ideal, dual_ideal)[0] == (-x, -y, eps)
        seen.add(eps)
    assert seen == {False, True}
