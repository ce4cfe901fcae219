import json
import xml.etree.ElementTree as ET

import pytest

from a1mod import __version__, cli
from a1mod.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def record(capsys, *argv):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    return json.loads(out)


@pytest.fixture
def s1(tmp_path, capsys):
    path = tmp_path / "s1.mod"
    record(capsys, "seagull", "--n", "1", "-o", str(path))
    return str(path)


def test_record_shape(capsys, s1):
    rec = record(capsys, "info", s1)
    assert set(rec) == {"command", "input", "payload", "reliable", "version"}
    assert rec["command"] == "info"
    assert len(rec["input"]) == 16


def test_validate_and_info(capsys, s1):
    rec = record(capsys, "validate", s1)
    assert rec["payload"]["valid"]
    rec = record(capsys, "info", s1)
    assert rec["payload"]["dims"] == {"0": 1, "2": 1, "3": 1, "5": 1}
    assert rec["payload"]["total_dim"] == 4


def test_determinism(capsys, s1):
    a = run(capsys, "classify", s1)
    b = run(capsys, "classify", s1)
    assert a == b


def test_margolis_command(capsys, s1):
    rec = record(capsys, "margolis", s1, "--operator", "q0")
    assert rec["payload"]["nonzero_degrees"] == [0, 5]
    rec = record(capsys, "margolis", s1, "--operator", "q1")
    assert rec["payload"]["nonzero_degrees"] == []


def test_classify_command(capsys, s1):
    rec = record(capsys, "classify", s1)
    assert rec["payload"]["descriptor"]["seagulls"] == [
        {"shift": 0, "length": 1, "exact": True}]


def test_pipeline_tensor_reduce(capsys, s1, tmp_path):
    t = tmp_path / "t.mod"
    record(capsys, "tensor", s1, s1, "-o", str(t))
    rec = record(capsys, "reduce", str(t))
    assert rec["payload"]["free_ranks"] == {"2": 1}
    rec = record(capsys, "classify", str(t))
    shifts = [e["shift"] for e in rec["payload"]["descriptor"]["seagulls"]]
    assert shifts == [0, 5]


def test_suspend_sum_dual(capsys, s1, tmp_path):
    up = tmp_path / "up.mod"
    record(capsys, "suspend", s1, "--by", "5", "-o", str(up))
    both = tmp_path / "both.mod"
    record(capsys, "sum", s1, str(up), "-o", str(both))
    rec = record(capsys, "info", str(both))
    assert rec["payload"]["total_dim"] == 8
    rec = record(capsys, "dual", s1)
    assert "module_text" in rec["payload"]


def test_ext_and_towers(capsys, s1):
    rec = record(capsys, "ext", s1, "--algebra", "a1",
                 "--max-s", "6", "--max-t", "12")
    assert rec["payload"]["dims"] == {f"{s},{s}": 1 for s in range(7)}
    rec = record(capsys, "towers", s1, "--max-stem", "8")
    assert rec["payload"]["towers"] == {"0": 1}


def test_localize_reliable_window(capsys, tmp_path):
    path = tmp_path / "sinf.mod"
    record(capsys, "seagull", "--infinite", "--cutoff", "20",
           "-o", str(path))
    rec = record(capsys, "localize", str(path), "--cutoff", "20")
    assert rec["reliable"] == [None, 14]
    assert rec["payload"]["descriptor"]["seagulls"][0]["exact"] is False


def test_spectral_sequence_commands(capsys, s1):
    rec = record(capsys, "dm-e1", s1, "--max-sigma", "4")
    assert all(c["sigma"] % 2 == 0 for c in rec["payload"]["classes"])
    rec = record(capsys, "dm-d2", s1)
    assert rec["payload"]["pairs"] == [{"source": "d5.0*", "target": "d0.0*"}]
    rec = record(capsys, "dm-e3", s1)
    assert rec["payload"]["first_column"] == [{"stem": 0, "dim": 1}]


def test_lift_and_sq4(capsys, s1):
    rec = record(capsys, "lift-check", s1)
    assert rec["payload"]["outcome"] == "no_lift"
    assert rec["payload"]["evidence"]
    rec = record(capsys, "sq4-check", s1)
    assert rec["payload"]["feasible"] is False


def test_chart_ascii_golden(capsys, s1):
    rec = record(capsys, "chart", s1, "--kind", "towers", "--max-stem", "4")
    assert rec["payload"]["chart"] == (
        " ^\n |\n |\n |\n |\n |\n"
        "---------------\n"
        "0  1  2  3  4\n"
        "stem ->\n")


def test_chart_towers_in_negative_stems(capsys, tmp_path):
    path = tmp_path / "f2.mod"
    path.write_text("module F2\ngen 1 -2\n")
    rec = record(capsys, "towers", str(path), "--max-stem", "8")
    assert rec["payload"]["towers"] == {"-2": 1, "2": 1, "6": 1}
    rec = record(capsys, "chart", str(path), "--kind", "towers",
                 "--max-stem", "8")
    lines = rec["payload"]["chart"].splitlines()
    assert lines[0] == " ^           ^           ^"
    assert lines[-2] == "-2 -1 0  1  2  3  4  5  6  7  8"


def test_chart_svg_wellformed(capsys, s1, tmp_path):
    out = tmp_path / "chart.svg"
    record(capsys, "chart", s1, "--kind", "e2", "--format", "svg",
           "--max-sigma", "4", "-o", str(out))
    root = ET.parse(out).getroot()
    assert root.tag.endswith("svg")


def test_e2_chart_draws_d2_from_every_source_record(capsys, s1):
    # d2: d5.0* -> d0.0* leaves the class at (5, 0) and again at (9, 2)
    want = ["d2: (stem 5, sigma 0) -> (stem 4, sigma 2)",
            "d2: (stem 9, sigma 2) -> (stem 8, sigma 4)"]
    for sigma in ("4", "5"):
        rec = record(capsys, "chart", s1, "--kind", "e2",
                     "--max-sigma", sigma)
        assert rec["payload"]["chart"].splitlines()[-2:] == want
    svg = ET.fromstring(record(capsys, "chart", s1, "--kind", "e2", "--format",
                               "svg", "--max-sigma", "4")["payload"]["chart"])
    assert len([el for el in svg if el.tag.endswith("line")
                and el.get("stroke") == "red"]) == 2


@pytest.mark.parametrize("argv", [
    ["seagull", "--n", "1"], ["tensor", "{m}", "{m}"], ["sum", "{m}", "{m}"],
    ["suspend", "{m}", "--by", "1"], ["dual", "{m}"], ["reduce", "{m}"],
    ["chart", "{m}"]], ids=lambda argv: argv[0])
def test_unwritable_output_exit_2(capsys, s1, tmp_path, argv):
    path = tmp_path / "missing_dir" / "x.out"
    code, out, err = run(capsys, *(a.format(m=s1) for a in argv),
                         "-o", str(path))
    assert code == 2 and out == ""
    assert json.loads(err) == {
        "command": argv[0], "version": __version__,
        "error": f"line 0: cannot write {path}: No such file or directory"}


def test_parse_error_exit_2(capsys, tmp_path):
    bad = tmp_path / "bad.mod"
    bad.write_text("gen x 0\n")
    code, out, err = run(capsys, "validate", str(bad))
    assert code == 2 and out == ""
    assert "header" in json.loads(err)["error"]


def test_missing_file_exit_2(capsys, tmp_path):
    code, _, err = run(capsys, "validate", str(tmp_path / "nope.mod"))
    assert code == 2
    assert "cannot read" in json.loads(err)["error"]


def test_non_utf8_file_exit_2(capsys, tmp_path):
    bad = tmp_path / "bad.mod"
    bad.write_bytes(b"\xff\xfe")
    code, out, err = run(capsys, "info", str(bad))
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == (
        f"line 0: cannot read {bad}: not UTF-8 text "
        "(invalid start byte at byte 0)")


def test_domain_error_exit_1(capsys, tmp_path):
    # resolving a module truncated below the requested range is a domain
    # error, not a usage error
    path = tmp_path / "sinf.mod"
    record(capsys, "seagull", "--infinite", "--cutoff", "10", "-o", str(path))
    code, out, err = run(capsys, "ext", str(path),
                         "--max-s", "4", "--max-t", "20")
    assert code == 1 and out == ""
    assert json.loads(err)["error"]


def test_floor_refused_exit_1(capsys, tmp_path):
    # classification starts at the bottom degree, which a module truncated
    # below does not carry
    sinf, dual = tmp_path / "sinf.mod", tmp_path / "dual.mod"
    record(capsys, "seagull", "--infinite", "--cutoff", "20", "-o", str(sinf))
    record(capsys, "dual", str(sinf), "-o", str(dual))
    for command in ("classify", "localize", "lift-check"):
        code, out, err = run(capsys, command, str(dual))
        assert code == 1 and out == ""
        assert json.loads(err)["error"].endswith("truncated below degree -20")


def test_tensor_of_opposite_truncations_exit_1(capsys, tmp_path):
    sinf, dual = tmp_path / "sinf.mod", tmp_path / "dual.mod"
    record(capsys, "seagull", "--infinite", "--cutoff", "14", "-o", str(sinf))
    record(capsys, "seagull", "--infinite", "--cutoff", "8", "-o", str(dual))
    record(capsys, "dual", str(dual), "-o", str(dual))
    for pair in ((sinf, dual), (dual, sinf)):
        code, out, err = run(capsys, "tensor", *map(str, pair))
        assert code == 1 and out == ""
        assert json.loads(err)["error"].endswith("has no complete degree")


@pytest.mark.parametrize("n", ["0", "-3"])
def test_seagull_length_below_one_exit_2(capsys, n):
    code, out, err = run(capsys, "seagull", "--n", n)
    assert code == 2 and out == ""
    assert json.loads(err) == {"command": "seagull", "version": __version__,
                               "error": f"line 0: --n must be at least 1, got {n}"}


NEGATIVE_STEM_PAGES = {
    "4": ("  4 |                         ^\n"
          "  3 |\n"
          "  2 |             #\n"
          "  1 |\n"
          "  0 | o\n"
          "    +---------------------------\n"
          "     -5 -4 -3 -2 -1 0  1  2  3\n"
          "     stem ->   (vertical: sigma)\n"),
    "6": ("  6 |                                     *\n"
          "  5 |\n"
          "  4 |                         ^\n"
          "  3 |\n"
          "  2 |             #\n"
          "  1 |\n"
          "  0 | o\n"
          "    +---------------------------------------\n"
          "     -5 -4 -3 -2 -1 0  1  2  3  4  5  6  7\n"
          "     stem ->   (vertical: sigma)\n"),
}


@pytest.mark.parametrize("sigma", sorted(NEGATIVE_STEM_PAGES))
def test_e2_chart_with_negative_stems(capsys, tmp_path, sigma):
    # classes at stems -5, -1, 3 (and 7): the axis starts at the lowest stem
    inf, low = str(tmp_path / "inf.mod"), str(tmp_path / "low.mod")
    record(capsys, "seagull", "--infinite", "--cutoff", "20", "-o", inf)
    record(capsys, "suspend", inf, "--by", "-5", "-o", low)
    rec = record(capsys, "chart", low, "--kind", "e2", "--max-sigma", sigma)
    assert rec["payload"]["chart"] == NEGATIVE_STEM_PAGES[sigma]
    svg = ET.fromstring(record(capsys, "chart", low, "--kind", "e2",
                               "--format", "svg", "--max-sigma",
                               sigma)["payload"]["chart"])
    width = float(svg.get("width"))
    xs = [float(el.get("cx")) for el in svg if el.tag.endswith("circle")]
    labels = [el.text for el in svg if el.tag.endswith("text")]
    assert xs and all(30 < x < width - 30 for x in xs)
    assert labels[0] == "-5" and labels[-1] == str(2 * int(sigma) - 5)


# the command, the option at its limit, the call that would do the work, and
# whether the limit is on the reach above the module's bottom degree (0 for
# s1, which is also the --shift of the seagull)
LIMITED = [
    (["ext", "{m}", "--max-t", "10", "--max-s"], "max_s", "resolution.ext_dims",
     False),
    (["ext", "{m}", "--max-s", "4", "--max-t"], "max_t", "resolution.ext_dims",
     True),
    (["towers", "{m}", "--max-stem"], "max_stem", "resolution.h0_tower_counts",
     True),
    (["chart", "{m}", "--max-stem"], "max_stem", "resolution.h0_tower_counts",
     True),
    (["dm-e1", "{m}", "--max-sigma"], "max_sigma", "davismahowald.e1_page",
     False),
    (["chart", "{m}", "--kind", "e2", "--max-sigma"], "max_sigma",
     "davismahowald.e1_page", False),
    (["localize", "{m}", "--cutoff"], "cutoff", "structure.localize_q0", True),
    (["lift-check", "{m}", "--cutoff"], "cutoff", "davismahowald.lift_check",
     True),
    (["seagull", "--infinite", "--cutoff"], "cutoff", "structure.seagull_inf",
     True),
    (["seagull", "--n"], "n", "structure.seagull", False),
]


class _Started(Exception):
    pass


def _refusal(dest, value, base):
    option = "--" + dest.replace("_", "-")
    if base is None:
        return f"line 0: {option} {value} is above its limit {cli.LIMITS[dest]}"
    return (f"line 0: {option} {value} reaches {value - base} above degree "
            f"{base}, beyond its limit {cli.LIMITS[dest]}")


def _starts_at_refuses_above(capsys, monkeypatch, argv, dest, work, top, base):
    # at top the work starts (and is stopped at once); one above, the request
    # is refused with exit 2 before it starts
    def started(*args, **kwargs):
        raise _Started
    module, name = work.split(".")
    monkeypatch.setattr(getattr(cli, module), name, started)
    with pytest.raises(_Started):
        main(argv + [str(top)])
    code, out, err = run(capsys, *argv, str(top + 1))
    assert code == 2 and out == ""
    assert json.loads(err) == {"command": argv[0], "version": __version__,
                               "error": _refusal(dest, top + 1, base)}


@pytest.mark.parametrize("argv,dest,work,relative", LIMITED,
                         ids=lambda x: x if isinstance(x, str) else None)
def test_size_option_limits(capsys, monkeypatch, s1, argv, dest, work,
                            relative):
    argv = [a.format(m=s1) for a in argv]
    _starts_at_refuses_above(capsys, monkeypatch, argv, dest, work,
                             cli.LIMITS[dest], 0 if relative else None)


# on a module shifted far up or far down the limit moves with it: the option,
# the call that would do the work, and the base it is measured from (the
# seagull's bottom degree is its --shift)
SHIFTED = [
    (["localize", "{m}", "--cutoff"], "structure.localize_q0", "lo"),
    (["lift-check", "{m}", "--cutoff"], "davismahowald.lift_check", "lo"),
    (["ext", "{m}", "--max-s", "4", "--max-t"], "resolution.ext_dims", "lo"),
    (["towers", "{m}", "--max-stem"], "resolution.h0_tower_counts", "min0"),
    (["chart", "{m}", "--max-stem"], "resolution.h0_tower_counts", "min0"),
    (["seagull", "--infinite", "--shift", "{by}", "--cutoff"],
     "structure.seagull_inf", "lo"),
]


@pytest.mark.parametrize("by", [300, -2000])
@pytest.mark.parametrize("argv,work,base", SHIFTED,
                         ids=lambda x: x if isinstance(x, str) else None)
def test_size_option_limits_follow_the_module(capsys, monkeypatch, tmp_path,
                                              s1, by, argv, work, base):
    path = str(tmp_path / "shifted.mod")
    record(capsys, "suspend", s1, "--by", str(by), "-o", path)
    dest = argv[-1][2:].replace("-", "_")
    base = by if base == "lo" else min(by, 0)
    argv = [a.format(m=path, by=by) for a in argv]
    _starts_at_refuses_above(capsys, monkeypatch, argv, dest, work,
                             base + cli.LIMITS[dest], base)


# without --cutoff the default cutoff, max(top, bottom) + 18, counts: a
# module spanning 238 degrees starts the work, one spanning 239 is refused
@pytest.mark.parametrize("bottom", [0, -10])
@pytest.mark.parametrize("command,work", [
    ("localize", "structure.localize_q0"),
    ("lift-check", "davismahowald.lift_check")])
def test_default_cutoff_limit(capsys, monkeypatch, tmp_path, bottom, command,
                              work):
    def started(*args, **kwargs):
        raise _Started
    module, name = work.split(".")
    monkeypatch.setattr(getattr(cli, module), name, started)
    span = cli.LIMITS["cutoff"] - 18
    paths = []
    for top in (bottom + span, bottom + span + 1):
        paths.append(tmp_path / f"top{top}.mod")
        paths[-1].write_text(f"module m\ngen a {bottom}\ngen b {top}\n")
    with pytest.raises(_Started):
        main([command, str(paths[0])])
    code, out, err = run(capsys, command, str(paths[1]))
    assert code == 2 and out == ""
    assert json.loads(err) == {
        "command": command, "version": __version__,
        "error": _refusal("cutoff", bottom + span + 19, bottom)}


def test_usage_error_exit_2(s1):
    with pytest.raises(SystemExit) as exc:
        main(["margolis", s1])          # --operator is required
    assert exc.value.code == 2


def test_generator_output_parses(capsys, tmp_path):
    rec = record(capsys, "seagull", "--n", "3", "--shift", "2")
    from a1mod.modfile import parse_module
    m = parse_module(rec["payload"]["module_text"])
    assert min(m.space.degrees) == 2
    assert sum(m.space.dim(k) for k in m.space.degrees) == 12


def test_parser_is_built_once_and_keeps_no_state():
    p = cli._parser()
    assert cli._parser() is p
    assert p.parse_args(["ext", "m.mod", "--algebra", "a0", "--max-s", "1",
                         "--max-t", "2"]).algebra == "a0"
    assert p.parse_args(["ext", "m.mod", "--max-s", "1",
                         "--max-t", "2"]).algebra == "a1"
    assert not hasattr(p.parse_args(["info", "m.mod"]), "algebra")
