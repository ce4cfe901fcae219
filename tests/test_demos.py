"""Each script in ``demos/`` prints exactly its golden output in
``tests/golden/``."""

import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
GOLDEN = ROOT / "tests" / "golden"


def test_every_demo_has_a_golden_output():
    # corpus.txt there belongs to tests/corpus.py
    assert [d.stem for d in DEMOS] == sorted(
        g.stem for g in GOLDEN.glob("*.txt") if g.stem != "corpus")


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.stem)
def test_demo_output(demo, capsys):
    runpy.run_path(str(demo), run_name="__main__")
    assert capsys.readouterr().out == (GOLDEN / f"{demo.stem}.txt").read_text()
