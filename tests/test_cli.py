import json
import xml.etree.ElementTree as ET

import pytest

from a1mod import cli
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


def test_chart_svg_wellformed(capsys, s1, tmp_path):
    out = tmp_path / "chart.svg"
    record(capsys, "chart", s1, "--kind", "e2", "--format", "svg",
           "--max-sigma", "4", "-o", str(out))
    root = ET.parse(out).getroot()
    assert root.tag.endswith("svg")


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
