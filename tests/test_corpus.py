"""The seeded corpus of ``tests/corpus.py`` reproduces its golden hashes,
family by family; a failure names the family and its first record that
differs."""

import functools

import pytest

import corpus

GOLDEN = corpus.parse_golden(corpus.GOLDEN.read_text())


@functools.lru_cache(maxsize=None)
def _records():
    return corpus.records()


def test_families_match_the_golden():
    assert list(_records()) == list(GOLDEN)


@pytest.mark.parametrize("family", list(GOLDEN))
def test_family(family):
    got, want = _records().get(family, []), GOLDEN[family]
    diff = next((f"first differing record: {w[0]!r}"
                 for g, w in zip(got, want) if g != w), None)
    assert diff is None and len(got) == len(want), \
        diff or f"{len(got)} records, golden has {len(want)}"
