import random

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from a1mod import a1core, structure
from a1mod.errors import ParseError, TruncationTooTight
from a1mod.f2linalg import BitMatrix
from a1mod.margolis import margolis_homology
from a1mod.modfile import parse_module, serialize
from random_modules import opposite_truncations, random_module, random_part
from solver_reference import parse_module_reference, serialize_reference

EXAMPLE = """\
# smallest seagull
module tiny
gen a 0
gen b 2
gen c 3
gen d 5

sq2 a = b
sq1 b = c
sq2 c = d
"""


def test_parse_example():
    m = parse_module(EXAMPLE)
    assert m.name == "tiny"
    assert {k: m.space.dim(k) for k in m.space.degrees} == {0: 1, 2: 1,
                                                            3: 1, 5: 1}


# a seagull labelled with the zero sum and the parser's separators
SPLIT_LABELS = a1core.module_from_edges(
    [("a+b", 0), ("0", 2), ("p=q", 3), ("x#y", 5)],
    [("0", "p=q")], [("a+b", "0"), ("p=q", "x#y")])


def test_serialize_parse_identity():
    for m in (structure.seagull(2),
              a1core.tensor(structure.seagull(1), structure.seagull(1)),
              a1core.dualize(structure.seagull(1)),
              structure.seagull_inf(14), SPLIT_LABELS,
              # the label made unique for the second "a" is taken
              a1core.module({0: ["a.1", "a", "a"]}, {}, {}),
              # '#' in a name would start a comment: it is written as '_'
              a1core.module({0: ["x"]}, {}, {}, name="a#b"),
              a1core.module({0: ["x"]}, {}, {}, name="#"),
              # a blank name falls back to "M"
              a1core.module({0: ["x"]}, {}, {}, name=" "),
              a1core.module({0: ["x"]}, {}, {}, name="\t")):
        want = ("".join(m.name.split()) or "M").replace("#", "_")
        text = serialize(m)
        # a blank name passed in falls back to the module's own
        assert serialize(m, " ") == serialize(m, "\t") == text
        m2 = parse_module(text)
        assert serialize(m2) == text
        assert m2.name == want
        for k in m.space.degrees:
            assert m2.space.dim(k) == m.space.dim(k)
            assert m2.sq1.mat(k).data == m.sq1.mat(k).data
            assert m2.sq2.mat(k).data == m.sq2.mat(k).data
        assert m2.truncated_above == m.truncated_above


def test_comments_and_blanks_ignored():
    m = parse_module("\n\n# hi\nmodule m # trailing\ngen x 0  # comment\n\n")
    assert {k: m.space.dim(k) for k in m.space.degrees} == {0: 1}


@pytest.mark.parametrize("text,line,fragment", [
    ("gen x 0", 1, "header"),
    ("module m\nmodule n", 2, "duplicate module"),
    ("module m\ngen x zero", 2, "bad degree"),
    ("module m\ngen x 0\ngen x 1", 3, "duplicate generator"),
    ("module m\ngen x 0\nsq1 x = y", 3, "unknown label"),
    ("module m\ngen x 0\ngen y 3\nsq1 x = y", 4, "degree mismatch"),
    ("module m\ngen x 0\nsq1 x = 0\nsq1 x = 0", 4, "duplicate sq1"),
    ("module m\nfrob x", 2, "unknown keyword"),
    ("module a b", 1, "expected: module <name>"),
    ("module m\ntruncated_above 1 2", 2, "expected: truncated_above <degree>"),
    ("module m\ntruncated_above 5\ntruncated_above 3", 3,
     "duplicate truncated_above"),
    ("module m\ntruncated_below 3\ngen a 4\ntruncated_below 3", 4,
     "duplicate truncated_below"),
    ("", 1, "header"),
])
def test_parse_errors(text, line, fragment):
    with pytest.raises(ParseError) as exc:
        parse_module(text)
    assert exc.value.line_no == line
    assert fragment in str(exc.value)


def test_relation_violation_points_at_lines():
    # Sq1 Sq1 a = c fails at degree 0; only the declarations on sources in
    # degrees 0..4 are listed, not the one on x in degree 10
    text = ("module m\ngen a 0\ngen b 1\ngen c 2\ngen x 10\ngen y 11\n"
            "sq1 x = y\nsq1 a = b\nsq1 b = c\n")
    with pytest.raises(ParseError) as exc:
        parse_module(text)
    assert exc.value.line_no == 8
    assert "Sq1 Sq1" in str(exc.value)
    assert str(exc.value).endswith(
        "(from the action declarations on lines [8, 9])")


def test_undeclared_actions_are_zero():
    m = parse_module("module m\ngen a 0\ngen b 1\n")
    assert m.sq1.mat(0).is_zero()


def test_repeated_target_cancels():
    m = parse_module("module m\ngen a 0\ngen b 1\nsq1 a = b + b\n")
    assert m.sq1.mat(0).is_zero()


def test_truncated_below_keyword():
    m = parse_module("module m\ngen a -3\ntruncated_below -3\n")
    assert (m.truncated_above, m.truncated_below) == (None, -3)
    assert serialize(m).endswith("truncated_below -3\n")
    with pytest.raises(ParseError) as exc:
        parse_module("module m\ntruncated_below low\n")
    assert exc.value.line_no == 2


BASES = [structure.seagull(2), structure.seagull_inf(14),
         structure.seagull_inf(12, shift=-3), a1core.free_module(1),
         a1core.f2(2)]
STEPS = st.lists(st.tuples(st.sampled_from(["dual", "suspend", "truncate"]),
                           st.integers(-6, 12)), max_size=4)
# small factors, bounded and truncated on either side, for one tensor step
FACTORS = [None, structure.seagull(1), a1core.f2(-2),
           a1core.dualize(structure.seagull_inf(8)),
           a1core.truncate(structure.seagull(2, shift=-1), 4)]


def _transform(m, steps):
    for kind, x in steps:
        if kind == "dual":
            m = a1core.dualize(m)
        elif kind == "suspend":
            m = a1core.suspend(m, x)
        else:
            m = a1core.truncate(m, (m.lo or 0) + x)
    return m


@given(st.sampled_from(BASES), STEPS, st.sampled_from(FACTORS),
       st.booleans(), STEPS)
@settings(max_examples=40, deadline=None)
def test_roundtrip_keeps_truncation_bounds(base, steps, factor, left, after):
    m = _transform(base, steps)
    if factor is not None:
        x, y = (m, factor) if left else (factor, m)
        if opposite_truncations(x, y):
            with pytest.raises(TruncationTooTight):
                a1core.tensor(x, y)
            return
        m = _transform(a1core.tensor(x, y), after)
    m2 = parse_module(serialize(m))
    assert (m2.truncated_above, m2.truncated_below) == \
        (m.truncated_above, m.truncated_below)
    for op in ("Q0", "Q1"):
        for side in (lambda x: x, a1core.dualize):
            h, h2 = (margolis_homology(side(x), op) for x in (m, m2))
            assert (h2.dims, h2.reliable) == (h.dims, h.reliable)


@given(st.integers(1, 4), st.integers(0, 6))
@settings(max_examples=20, deadline=None)
def test_roundtrip_random_seagulls(n, shift):
    m = structure.seagull(n, shift)
    text = serialize(m)
    assert serialize(parse_module(text)) == text


VALID = [serialize(m) for m in (structure.seagull(2), a1core.free_module(1),
                                a1core.dualize(structure.seagull_inf(14)))]
TOKENS = [" ", "\n", "#", "=", "+", "-", "0", "7", "x", "gen ", "sq1 ", "sq2 ",
          "module m", "truncated_above ", "truncated_below "]
EDITS = st.lists(st.tuples(st.sampled_from(["insert", "delete", "swap", "copy"]),
                           st.integers(0, 10**4), st.sampled_from(TOKENS)),
                 min_size=1, max_size=5)


def _mutate(text, edits):
    for kind, pos, token in edits:
        i = pos % (len(text) + 1)
        if kind == "insert":
            text = text[:i] + token + text[i:]
        elif kind == "delete":
            text = text[:i] + text[i + len(token):]
        else:  # swap or copy whole lines
            lines = text.split("\n")
            a, b = pos % len(lines), (pos // 7) % len(lines)
            if kind == "swap":
                lines[a], lines[b] = lines[b], lines[a]
            else:
                lines.insert(b, lines[a])
            text = "\n".join(lines)
    return text


def _parse_or_parse_error(text):
    # any exception other than ParseError fails the test
    try:
        parse_module(text)
    except ParseError:
        pass


@given(st.text(max_size=120))
@settings(max_examples=60, deadline=None)
def test_parser_raises_only_parse_error_on_text(text):
    _parse_or_parse_error(text)


@given(st.sampled_from(VALID), EDITS)
@settings(max_examples=60, deadline=None)
def test_parser_raises_only_parse_error_on_mutations(text, edits):
    _parse_or_parse_error(_mutate(text, edits))


def _draw(seed, kind):
    """A module to write: a random draw, truncated above and below and in a
    twisted basis, the zero module, or the dual of a truncated tensor."""
    rng = random.Random(seed)
    if kind == "zero":
        return a1core.zero_module()
    if kind != "dual":
        return random_module(rng, truncated=kind == "truncated")
    a, b = random_part(rng), random_part(rng)
    while opposite_truncations(a, b):
        b = random_part(rng)
    m = a1core.tensor(a, b)
    if m.hi is not None:
        m = a1core.truncate(m, m.hi - rng.randint(0, 6))
    return a1core.dualize(m)


def _respell(text, seed):
    """The same file written differently: comments, tabs, blank lines and
    sums without spaces."""
    rng = random.Random(seed)
    out = []
    for line in text.splitlines():
        if rng.random() < 0.3:
            line = line.replace(" = ", "=").replace(" + ", "+")
        if rng.random() < 0.3:
            line = "\t" + line.replace(" ", "\t ", 1)
        if rng.random() < 0.3:
            line += rng.choice(["  # note", "#", "\t#x = y + z"])
        out.append(line)
        if rng.random() < 0.2:
            out.append(rng.choice(["", "   ", "# comment", "\t"]))
    return "\n".join(out) + rng.choice(["", "\n", "\n\n"])


def _regrade(text, seed):
    """The file with one generator moved up a degree: its actions then
    break their degrees or the relations."""
    lines = text.splitlines()
    gens = [i for i, line in enumerate(lines) if line.startswith("gen ")]
    if gens:
        i = random.Random(seed).choice(gens)
        kw, label, deg = lines[i].split()
        lines[i] = f"{kw} {label} {int(deg) + 1}"
    return "\n".join(lines)


def _presentation(parse, text):
    """Labels, matrices in their stored order, bounds and name, or the
    error."""
    try:
        m = parse(text)
    except ParseError as e:
        return ("ParseError", e.line_no, str(e))
    return (m.space.labels, list(m.sq1.mats.items()), list(m.sq2.mats.items()),
            m.truncated_above, m.truncated_below, m.name)


DRAWS = st.tuples(st.integers(0, 10**6),
                  st.sampled_from(["random", "truncated", "zero", "dual"]))


# explaining a failure re-runs the draws for minutes; shrinking takes seconds
@given(DRAWS, st.integers(0, 10**6), st.one_of(st.none(), EDITS))
@settings(max_examples=80, deadline=None,
          phases=[p for p in Phase if p is not Phase.explain])
def test_reader_and_writer_match_the_reference_routes(draw, seed, edits):
    m = _draw(*draw)
    text = serialize(m)
    assert text == serialize_reference(m)
    m2 = parse_module(text)
    assert serialize(m2) == text
    for k in m.space.degrees:
        assert (m2.sq1.mat(k), m2.sq2.mat(k)) == (m.sq1.mat(k), m.sq2.mat(k))
    for variant in (text, _respell(text, seed), _regrade(text, seed)):
        if edits is not None:
            variant = _mutate(variant, edits)
        assert _presentation(parse_module, variant) == \
            _presentation(parse_module_reference, variant)


def test_reading_and_writing_do_no_per_entry_work(monkeypatch):
    # a tensor of two draws, 256 dimensions over 11 degrees
    rng = random.Random(2)
    m = a1core.tensor(random_module(rng), random_module(rng))
    expected = serialize_reference(m)

    def refuse(*args):
        raise AssertionError("per-entry work")

    with monkeypatch.context() as patch:
        patch.setattr(BitMatrix, "get", refuse)
        text = serialize(m)
    assert text == expected
    with monkeypatch.context() as patch:
        patch.setattr(BitMatrix, "from_columns", staticmethod(refuse))
        m2 = parse_module(text)
        gull = a1core.module_from_edges(
            [("a", 0), ("b", 2), ("c", 3), ("d", 5)],
            [("b", "c")], [("a", "b"), ("c", "d")])
    assert serialize(m2) == text
    assert gull.sq1.mats == {2: BitMatrix.identity(1)}
    assert gull.sq2.mats == {0: BitMatrix.identity(1), 3: BitMatrix.identity(1)}
