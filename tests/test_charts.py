import xml.etree.ElementTree as ET

from a1mod.charts import page_ascii, page_svg, towers_ascii, towers_svg


def test_towers_ascii_golden():
    assert towers_ascii({0: 1, 4: 1}, 4) == (
        " ^           ^\n"
        " |           |\n"
        " |           |\n"
        " |           |\n"
        " |           |\n"
        " |           |\n"
        "---------------\n"
        "0  1  2  3  4\n"
        "stem ->\n")


def test_towers_ascii_multiplicity():
    text = towers_ascii({0: 2}, 1)
    assert text.splitlines()[0].count("^") == 2


def test_towers_ascii_widens_columns_for_counts():
    assert towers_ascii({0: 3, 1: 1}, 2) == (
        " ^^^ ^\n"
        " ||| |\n"
        " ||| |\n"
        " ||| |\n"
        " ||| |\n"
        " ||| |\n"
        "------------\n"
        "0   1   2\n"
        "stem ->\n")


def test_page_ascii_markers_and_arrows():
    text = page_ascii([(0, 0, "a"), (5, 0, "b"), (4, 2, "c")],
                      [(5, 0, 4, 2)])
    lines = text.splitlines()
    assert lines[-1] == "d2: (stem 5, sigma 0) -> (stem 4, sigma 2)"
    # sigma 0 and sigma 2 use different marker glyphs
    assert "o" in lines[2] and "#" in lines[0]


def test_ascii_axis_widens_for_long_labels():
    text = page_ascii([(-12, 0, "a"), (-9, 2, "b")])
    lines = text.splitlines()
    assert lines[-2] == "     -12 -11 -10 -9"
    assert lines[0] == "  2 |             #"
    assert lines[2] == "  0 | o"
    axis = page_ascii([(101, 0, "a")]).splitlines()[-2]
    assert axis.endswith(" 99  100 101")
    assert towers_ascii({100: 1}, 101).splitlines()[-2].endswith("100 101")


def test_towers_svg_shows_negative_stems():
    root = ET.fromstring(towers_svg({-2: 1}, 8))
    labels = [t.text for t in root.iter("{http://www.w3.org/2000/svg}text")]
    assert labels == [str(s) for s in range(-2, 9)]


def test_page_ascii_empty():
    assert page_ascii([]) == "(empty page)\n"


def test_page_ascii_stable():
    classes = [(0, 0, "a"), (4, 2, "b")]
    assert page_ascii(classes) == page_ascii(list(classes))


def test_svg_wellformed():
    for text in (towers_svg({0: 1, 4: 2}, 6),
                 page_svg([(0, 0, "a"), (4, 2, "b"), (8, 4, "c")],
                          [(5, 0, 4, 2)])):
        root = ET.fromstring(text)
        assert root.tag.endswith("svg")
        assert len(list(root)) > 0
