"""A seeded corpus of public results, checked in as one hash per record in
``tests/golden/corpus.txt`` and compared by ``tests/test_corpus.py``.

Each record is the canonical JSON of what a caller can see: descriptors,
witnesses, residue degrees and logs, charts, verdicts and their evidence,
the error class and text, and for the command line its exit code, standard
output and error and the files it wrote.  Nothing internal is recorded, so a
refactor that keeps every result leaves the golden file untouched.  The
``a0_decompose`` family records a test-side route, ``routes.a0_decompose``,
which left the library with its records unchanged.

Regenerate after an intended output change with

    PYTHONPATH=src python tests/corpus.py > tests/golden/corpus.txt

and list the changed families and counts in CHANGES.md.
"""

import contextlib
import hashlib
import io
import json
import random
import sys
import tempfile
from pathlib import Path
from typing import Callable, Dict, List, Tuple

from a1mod import (a1core, cli, davismahowald, margolis, modfile, resolution,
                   structure)
import dm_complex
from random_modules import random_automorphism, random_module
import routes

GOLDEN = Path(__file__).resolve().parent / "golden" / "corpus.txt"
# draws of random_module(random.Random(3)); classify reaches its step-1
# adjustment only on draws 14, 30, 37 and 123
DRAWS = 150
# the slow families (localization and what calls it) run on every
# SAMPLE-th draw and on the fixed inputs after the draws; the command line
# runs on every SAMPLE-th draw
SAMPLE = 15


def _inputs() -> List[Tuple[str, a1core.A1Module]]:
    """(key, module): the seeded draws, then twisted seagulls, tensors of
    seagulls and the truncated infinite seagull with its dual."""
    rng = random.Random(3)
    out = [(f"draw{i:03d}", random_module(rng)) for i in range(DRAWS)]
    twist = random.Random(5)
    for n, shift in ((1, 0), (2, -3), (3, 4), (4, 1)):
        out.append((f"seagull{n}{shift:+d}",
                    random_automorphism(twist, structure.seagull(n, shift))))
    for n in (1, 2):
        s = structure.seagull(n)
        out.append((f"seagull{n}x{n}",
                    random_automorphism(twist, a1core.tensor(s, s))))
    inf = structure.seagull_inf(20)
    out += [("seagull_inf20", inf), ("seagull_inf20_dual", a1core.dualize(inf)),
            ("f2", a1core.f2()), ("free", a1core.free_module(-2)),
            ("zero", a1core.zero_module())]
    return out


def _safe(call: Callable[[], object]) -> object:
    try:
        return call()
    except Exception as e:  # the error class and text are the result
        return {"error": type(e).__name__, "text": str(e)}


def _report(r: structure.DecompositionReport) -> Dict:
    d = r.descriptor
    return {"seagulls": [[e.shift, e.length, e.exact] for e in d.seagulls],
            "free_ranks": d.free_ranks, "cutoff": d.cutoff,
            "witnesses": r.witnesses, "residue_degrees": r.residue_degrees,
            "log": r.log}


def _margolis(m: a1core.A1Module) -> Dict:
    out = {}
    for side, x in (("module", m), ("dual", a1core.dualize(m))):
        for op in ("Q0", "Q1"):
            h = margolis.margolis_homology(x, op)
            out[f"{side} {op}"] = [sorted(h.dims.items()), h.reliable]
    return out


def _a0(m: a1core.A1Module) -> Dict:
    d = routes.a0_decompose(m)
    return {"pairs": d.pairs, "trivial": d.trivial}


def _strip_free(m: a1core.A1Module) -> Dict:
    red, ranks = structure.strip_free(m)
    return {"ranks": sorted(ranks.items()), "dims": red.space.dims(),
            "above": red.truncated_above, "below": red.truncated_below}


def _lift(m: a1core.A1Module) -> Dict:
    v = davismahowald.lift_check(m)
    return {"outcome": v.outcome, "evidence": v.evidence}


def _localized_ext(m: a1core.A1Module) -> Dict:
    e = davismahowald.localized_ext(m, 12)
    return {"stems": sorted(e.stems.items()), "open_ended": e.open_ended,
            "cutoff": e.cutoff, "tower_stems": e.tower_stems()}


def _d2(m: a1core.A1Module) -> Dict:
    d = davismahowald.d2(m)
    return {"classes": d.classes, "pairs": d.pairs, "zero": d.is_zero()}


def _e1(m: a1core.A1Module) -> Dict:
    p = davismahowald.e1_page(m, 4)
    return {"classes": p.classes, "records": p.records,
            "reliable": p.reliable}


def _e3(m: a1core.A1Module) -> Dict:
    p = davismahowald.e3_page(m)
    return {"first_column": p.first_column, "generic": p.generic}


def _ext(algebra: str) -> Callable[[a1core.A1Module], object]:
    def chart(m: a1core.A1Module) -> object:
        lo = m.lo if m.lo is not None else 0
        c = resolution.ext_dims(m, algebra, 6, lo + 14)
        return sorted((list(k), d) for k, d in c.dims.items())
    return chart


def _towers(m: a1core.A1Module) -> object:
    return sorted(resolution.h0_tower_counts(m, 6).items())


def _roundtrip(m: a1core.A1Module) -> Dict:
    text = modfile.serialize(m)
    return {"text": text,
            "stable": modfile.serialize(modfile.parse_module(text)) == text}


# family -> (record maker, runs on the sampled inputs only)
FAMILIES: Dict[str, Tuple[Callable[[a1core.A1Module], object], bool]] = {
    "classify": (lambda m: _report(structure.classify(m)), False),
    "strip_free": (_strip_free, False),
    "margolis": (_margolis, False),
    "a0_decompose": (_a0, False),
    "d2": (_d2, False),
    "e1_page": (_e1, False),
    "e3_page": (_e3, False),
    "sq4_solver": (davismahowald.sq4_solver, False),
    "ext_a0": (_ext("a0"), False),
    "ext_a1": (_ext("a1"), False),
    "h0_tower_counts": (_towers, False),
    "modfile": (_roundtrip, False),
    "localize_q0": (lambda m: _report(structure.localize_q0(m)), True),
    "lift_check": (_lift, True),
    "localized_ext": (_localized_ext, True),
}


def _complexes() -> List[Tuple[str, object]]:
    out: List[Tuple[str, object]] = []
    stages = davismahowald.build_dm_complex(9)
    out.append(("dm_exact", davismahowald.check_dm_exactness(stages, 30)))
    for i, st in enumerate(stages):
        out.append((f"dm_stage{i}", {
            "dims": st.module.space.dims(), "a_gens": st.a_gens,
            "boundary": {k: m.data for k, m in sorted(st.boundary.mats.items())}}))
    inj = dm_complex.build_injective(7)
    out.append(("injective_exact", dm_complex.check_injective_exactness(inj)))
    for st in inj:
        out.append((f"injective_stage{st.s}", {
            "gens": sorted(st.gens.items()), "r": st.r, "t": st.t,
            "f": {k: m.data for k, m in sorted(st.f.mats.items())}}))
    return out


def _cli_runs(inputs) -> List[Tuple[str, object]]:
    """In-process calls of every subcommand on files written to a temporary
    directory, whose path is replaced by ``<tmp>`` in every record."""
    out: List[Tuple[str, object]] = []
    with tempfile.TemporaryDirectory() as tmp:
        def path(name: str) -> str:
            return str(Path(tmp) / name)

        def call(key: str, *argv: str) -> None:
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), \
                    contextlib.redirect_stderr(stderr):
                try:
                    code = cli.main(list(argv))
                except SystemExit as e:  # argparse usage errors
                    code = e.code
            rec = {"code": code, "out": stdout.getvalue(),
                   "err": stderr.getvalue()}
            written = Path(argv[-1])  # -o comes last
            if "-o" in argv and written.exists():
                rec["file"] = written.read_text()
            out.append((key, json.loads(json.dumps(rec).replace(tmp, "<tmp>"))))

        call("seagull_n2", "seagull", "--n", "2", "-o", path("s2.mod"))
        call("seagull_inf", "seagull", "--infinite", "--cutoff", "16",
             "--shift", "-2", "-o", path("sinf.mod"))
        call("seagull_stdout", "seagull", "--n", "1", "--shift", "3")
        call("seagull_no_cutoff", "seagull", "--infinite")
        call("seagull_no_n", "seagull")
        call("seagull_n0", "seagull", "--n", "0")
        call("seagull_n_limit", "seagull", "--n", "2000")
        call("tensor", "tensor", path("s2.mod"), path("sinf.mod"),
             "-o", path("t.mod"))
        call("sum", "sum", path("s2.mod"), path("sinf.mod"), "-o", path("u.mod"))
        call("suspend", "suspend", path("s2.mod"), "--by", "-3",
             "-o", path("v.mod"))
        call("dual", "dual", path("sinf.mod"), "-o", path("d.mod"))
        call("reduce_out", "reduce", path("t.mod"), "-o", path("r.mod"))
        for name in ("t", "u", "v", "d", "r"):
            for cmd in ("validate", "info", "classify", "dm-d2", "dm-e3",
                        "sq4-check"):
                call(f"{cmd} {name}", cmd, path(f"{name}.mod"))
        for key, m in inputs[:DRAWS:SAMPLE]:
            f, lo = path(f"{key}.mod"), m.lo if m.lo is not None else 0
            Path(f).write_text(modfile.serialize(m))
            for cmd in ("validate", "info", "reduce", "classify", "dm-d2",
                        "dm-e3", "sq4-check", "dual"):
                call(f"{cmd} {key}", cmd, f)
            for op in ("q0", "q1"):
                call(f"margolis {op} {key}", "margolis", f, "--operator", op)
                call(f"margolis {op} dual {key}", "margolis", f,
                     "--operator", op, "--dual")
            call(f"dm-e1 {key}", "dm-e1", f, "--max-sigma", "4")
            call(f"ext a1 {key}", "ext", f, "--max-s", "4",
                 "--max-t", str(lo + 10))
            call(f"ext a0 {key}", "ext", f, "--algebra", "a0", "--max-s", "4",
                 "--max-t", str(lo + 10))
            call(f"towers {key}", "towers", f, "--max-stem", "4")
            call(f"localize {key}", "localize", f)
            call(f"lift-check {key}", "lift-check", f)
            call(f"chart towers ascii {key}", "chart", f, "--max-stem", "4")
            call(f"chart e2 svg {key}", "chart", f, "--kind", "e2",
                 "--format", "svg", "--max-sigma", "4")
        s2 = path("s2.mod")
        call("chart written", "chart", s2, "--kind", "e2", "-o", path("c.txt"))
        call("chart towers svg", "chart", s2, "--format", "svg",
             "--max-stem", "6")
        call("localize cutoff", "localize", s2, "--cutoff", "14")
        call("localize limit", "localize", s2, "--cutoff", "300")
        call("ext limit", "ext", s2, "--max-s", "200", "--max-t", "10")
        call("towers limit", "towers", s2, "--max-stem", "500")
        call("dm-e1 limit", "dm-e1", s2, "--max-sigma", "500")
        call("missing file", "info", path("absent.mod"))
        Path(path("bad.mod")).write_text("module m\ngen a 0\nsq1 a = b\n")
        call("parse error", "classify", path("bad.mod"))
        Path(path("rel.mod")).write_text(
            "module m\ngen a 0\ngen b 1\ngen c 2\nsq1 a = b\nsq1 b = c\n")
        call("relation error", "validate", path("rel.mod"))
        call("unwritable output", "dual", s2, "-o", path("no/such/dir.mod"))
        call("usage error", "info")
    return out


def _sampled(i: int) -> bool:
    return i % SAMPLE == 0 or i >= DRAWS


def records() -> Dict[str, List[Tuple[str, str]]]:
    """family -> [(record key, hash of the record's canonical JSON)]."""
    inputs = _inputs()
    raw: Dict[str, List[Tuple[str, object]]] = {}
    for family, (make, slow) in FAMILIES.items():
        raw[family] = [(key, _safe(lambda: make(m)))
                       for i, (key, m) in enumerate(inputs)
                       if not slow or _sampled(i)]
    raw["complexes"] = _complexes()
    raw["cli"] = _cli_runs(inputs)
    return {family: [(key, _digest(value)) for key, value in recs]
            for family, recs in raw.items()}


def _digest(value: object) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def render(recs: Dict[str, List[Tuple[str, str]]]) -> str:
    return "".join(f"{family}\t{key}\t{digest}\n"
                   for family, rows in recs.items() for key, digest in rows)


def parse_golden(text: str) -> Dict[str, List[Tuple[str, str]]]:
    out: Dict[str, List[Tuple[str, str]]] = {}
    for line in text.splitlines():
        family, key, digest = line.split("\t")
        out.setdefault(family, []).append((key, digest))
    return out


if __name__ == "__main__":
    sys.stdout.write(render(records()))
