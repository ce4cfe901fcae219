"""Closed-form routes from the structure theory: identities that tie two
layers together with no shared code, checked on seeded random draws of
untruncated modules (``tests/random_modules.py``), where every degree is
reliable.

- Kunneth for Margolis homology: Q0 and Q1 are primitive, so
  H(a (x) b; Qi) = H(a; Qi) (x) H(b; Qi) (Margolis, *Spectra and the Steenrod
  Algebra*, 1983).
- A module is stably free exactly when both Margolis homologies vanish
  (Adams and Margolis, "Modules over the Steenrod algebra", Topology 1971).
- Ext over A(1) of a Q0-local module is read off its flock: a change of
  rings gives seagull(n, sh) one h0-tower from s = 0 at each stem sh + 4j,
  j < n, and a free summand, injective over the Frobenius algebra A(1), one
  class at s = 0 in its generator degree.
- A Q0-local module is its own localization.
"""

import random
from collections import Counter

from a1mod.a1core import tensor
from a1mod.margolis import is_q0_local, margolis_homology
from a1mod.resolution import ext_dims
from a1mod.structure import classify, localize_q0, strip_free
from random_modules import random_automorphism, random_module, random_part


def _dims(m, op):
    return {k: d for k, d in margolis_homology(m, op).dims.items() if d}


def test_margolis_homology_of_a_tensor_is_the_tensor_of_homologies():
    rng = random.Random(7)
    for _ in range(100):
        a = random_part(rng, truncated=False)
        b = random_part(rng, truncated=False)
        t = random_automorphism(rng, tensor(a, b))
        for op in ("Q0", "Q1"):
            want = Counter()
            for ka, da in _dims(a, op).items():
                for kb, db in _dims(b, op).items():
                    want[ka + kb] += da * db
            assert _dims(t, op) == dict(want)


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
