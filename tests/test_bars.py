"""The persistence pairs of D = Sq1 + Sq2Sq1Sq2 (``structure._bars``) against
the routes they replace or predict, on seeded random-basis draws of
``random_module``, truncated above and below:

- the pairs of gap 5 born at k against the rank of W on H(M; Q0) from k
  (``routes.wing_rank``);
- ``lift_check`` against the route that classifies the localization
  (``routes.lift_check_by_localizing``): outcome, evidence, error class and
  error text;
- the exact and the open entries of ``localize_q0`` against the pairs;
- the flock of an untruncated Q0-local module against the pairs.
"""

import random
import sys
from collections import Counter

import pytest

from a1mod import a1core, cli, modfile
from a1mod.a1core import direct_sum, f2, truncate
from a1mod.davismahowald import lift_check
from a1mod.errors import A1ModError
from a1mod.margolis import is_q0_local
from a1mod.structure import _bars, classify, localize_q0, seagull, seagull_inf
from random_modules import random_module
from routes import lift_check_by_localizing, wing_rank


def _draws(seed, count, truncated=True):
    rng = random.Random(seed)
    return [random_module(rng, truncated) for _ in range(count)]


def _outcome(run, *args):
    try:
        return run(*args)
    except A1ModError as e:
        return type(e), str(e)


def _seagulls(pairs, most=None):
    """(shift, length) of the pairs of gap 4n + 1 > 1 whose death is at most
    ``most``, sorted."""
    return sorted((b, (d - b) // 4) for b, d in pairs
                  if d - b > 1 and (most is None or d <= most))


def test_small_modules_have_the_pairs_of_their_summands():
    # pairs come in ascending death
    assert _bars(seagull(1)) == ([(2, 3), (0, 5)], [])
    assert _bars(seagull(3, 2))[0] == [
        (4, 5), (6, 7), (8, 9), (10, 11), (12, 13), (2, 15)]
    assert _bars(a1core.free_module(0)) == ([(0, 1), (2, 3), (3, 4), (5, 6)],
                                            [])
    assert _bars(seagull_inf(20))[1] == [0, 20]
    assert _bars(f2(3)) == ([], [3])
    assert _bars(a1core.zero_module()) == ([], [])


def _wings(m):
    """The pairs of gap 5 born in each degree."""
    return Counter(b for b, d in _bars(m)[0] if d - b == 5)


def test_gap_five_pairs_count_the_rank_of_w_on_q0_homology():
    draws = _draws(1, 150)
    for m in draws:
        wings, cut = _wings(m), m.truncated_above
        for k in m.space.degrees:
            if cut is None or k + 5 <= cut:
                assert wings[k] == wing_rank(m, k), k
    assert any(_wings(m) for m in draws)
    assert any(m.truncated_above is not None for m in draws)
    assert any(m.truncated_below is not None for m in draws)


def test_lift_check_matches_the_localization_route():
    seen = set()  # refusals, and the detector that decided
    for m in _draws(2, 100):
        cutoffs = [None]
        if m.lo is not None:
            cutoffs += [m.lo + d for d in (3, 5, 9, 12)]
            cutoffs += [m.hi + d for d in (0, 5, 12)]
        for c in cutoffs:
            got = _outcome(lift_check, m, c)
            assert got == _outcome(lift_check_by_localizing, m, c), c
            seen.add(got[0].__name__ if isinstance(got, tuple)
                     else got.evidence[-1].split(":")[0])
    assert {"TruncationTooTight", "nonzero differential",
            "localization contains a finite summand",
            "module is Q0-local with an open flock"} <= seen, seen


def _localizations(seed, count):
    """(module, its localization at the default cutoff, that cutoff) for the
    draws that have a bottom."""
    for m in _draws(seed, count):
        if m.truncated_below is None and m.lo is not None:
            report = localize_q0(m)
            yield m, report.descriptor.seagulls, report.descriptor.cutoff


def test_exact_localized_seagulls_are_the_pairs_that_die_below_the_cutoff():
    exact = 0
    for m, gulls, c in _localizations(3, 150):
        want = [(e.shift, e.length) for e in gulls if e.exact]
        assert _seagulls(_bars(m)[0], c - 5) == want
        exact += len(want)
    assert exact > 20


def test_open_localized_seagulls_start_at_unpaired_classes_and_cut_pairs():
    # the rule the open entries will follow: an open seagull starts at each
    # unpaired class at or below c - 5, and at each birth at or below c - 5
    # of a pair of gap above 1 that dies past c - 5
    opened = 0
    for seed in (3, 11):
        for m, gulls, c in _localizations(seed, 150):
            pairs, unpaired = _bars(m)
            want = sorted([k for k in unpaired if k <= c - 5]
                          + [b for b, d in pairs
                             if d - b > 1 and b <= c - 5 < d])
            assert sorted(e.shift for e in gulls if not e.exact) == want
            opened += len(want)
    assert opened > 100


def test_the_flock_of_a_q0_local_module_is_its_pairs():
    flocks = 0
    for m in _draws(4, 150, truncated=False):
        if not is_q0_local(m):
            continue
        pairs, unpaired = _bars(m)
        gulls = classify(m).descriptor.seagulls
        assert all(e.exact for e in gulls) and unpaired == []
        assert [(e.shift, e.length) for e in gulls] == _seagulls(pairs)
        flocks += bool(gulls)
    assert flocks > 10


def test_lift_check_builds_no_localization(monkeypatch, tmp_path, capsys):
    # the finite-summand test reads the pairs: no tensor, infinite seagull,
    # classification or localization runs, from the library or the command
    # line with an explicit cutoff
    inf = seagull_inf(24)
    truncated = truncate(direct_sum(seagull(2, -2), seagull_inf(14)), 12)
    draws = [m for m in _draws(5, 40) if m.truncated_above is not None
             and m.truncated_below is None and m.lo is not None]
    path = tmp_path / "m.mod"
    path.write_text(modfile.serialize(seagull(2)))

    def refuse(*args):
        raise AssertionError("a localization was built")

    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("a1mod."):
            for name in ("tensor", "seagull_inf", "classify", "localize_q0"):
                if hasattr(mod, name):
                    monkeypatch.setattr(mod, name, refuse)
    assert lift_check(seagull(2)).outcome == "no_lift"
    assert lift_check(inf).outcome == "lifts"
    assert lift_check(f2()).outcome == "inconclusive"
    assert lift_check(truncated, 20).evidence[-1] == (
        "localization contains a finite summand: "
        "seagull(shift=-2, length=2, exact)")
    for m in draws:
        for c in (None, m.lo + 9):
            lift_check(m, c)
    assert cli.main(["lift-check", str(path), "--cutoff", "16"]) == 0
    assert '"no_lift"' in capsys.readouterr().out
    with pytest.raises(A1ModError, match="no full wing"):
        lift_check(seagull(2), 4)
