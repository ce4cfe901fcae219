import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from a1mod import a1core, structure
from a1mod.errors import ParseError
from a1mod.margolis import margolis_homology
from a1mod.modfile import parse, parse_module, serialize, to_module

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


def test_serialize_parse_identity():
    for m in (structure.seagull(2),
              a1core.tensor(structure.seagull(1), structure.seagull(1)),
              a1core.dualize(structure.seagull(1)),
              structure.seagull_inf(14)):
        text = serialize(m)
        m2 = parse_module(text)
        assert serialize(m2) == text
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
    ("", 1, "header"),
])
def test_parse_errors(text, line, fragment):
    with pytest.raises(ParseError) as exc:
        parse_module(text)
    assert exc.value.line_no == line
    assert fragment in str(exc.value)


def test_relation_violation_points_at_lines():
    text = ("module m\ngen a 0\ngen b 1\ngen c 2\n"
            "sq1 a = b\nsq1 b = c\n")
    with pytest.raises(ParseError) as exc:
        parse_module(text)
    assert "Sq1" in str(exc.value) or "relation" in str(exc.value).lower()


def test_undeclared_actions_are_zero():
    mf = parse("module m\ngen a 0\ngen b 1\n")
    m = to_module(mf)
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
        m = _transform(a1core.tensor(m, factor) if left
                       else a1core.tensor(factor, m), after)
    m2 = parse_module(serialize(m))
    assert (m2.truncated_above, m2.truncated_below) == \
        (m.truncated_above, m.truncated_below)
    for op in ("Q0", "Q1"):
        for side in ("module", "dual"):
            h, h2 = (margolis_homology(x, op, side) for x in (m, m2))
            assert (h2.dims, h2.reliable) == (h.dims, h.reliable)


@given(st.integers(1, 4), st.integers(0, 6))
@settings(max_examples=20, deadline=None)
def test_roundtrip_random_seagulls(n, shift):
    m = structure.seagull(n, shift)
    text = serialize(m)
    assert serialize(parse_module(text)) == text
