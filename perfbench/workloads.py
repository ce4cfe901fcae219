"""The three workloads: inputs drawn from a seed, the operations that run on
them, and the oracles that check each result.

Every workload builds one *round*: a fixed number of operations whose kinds
are interleaved evenly, so that a slow spell of the machine hits every kind
alike.  The seed picks shifts, bases, lengths, cutoffs and chart bounds.
The sizes that drive cost are fixed strata that the seed only jitters, or
permutes among operations of one kind, so that the cost of a round hardly
depends on the seed: the machine alone moves the figures by about 10%
between runs.  Oracles are computed here from the mathematics, never from a
saved run of a1mod.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple
from xml.etree import ElementTree

import modules as M


@dataclass
class Op:
    kind: str
    call: Callable[[], object]
    check: Callable[[object], bool]
    known_fault: bool = False     # fails today through a named fault


def shuffled(rng: random.Random, values) -> list:
    """A seeded permutation: each operation of a kind gets another value,
    and the round as a whole gets them all."""
    vals = list(values)
    rng.shuffle(vals)
    return vals


def interleave(ops: List[Op]) -> List[Op]:
    """Spread each kind evenly over the round."""
    kinds: Dict[str, List[Op]] = {}
    for op in ops:
        kinds.setdefault(op.kind, []).append(op)
    order = list(kinds)
    keyed = [((i + 0.5) / len(group), order.index(kind), op)
             for kind, group in kinds.items() for i, op in enumerate(group)]
    return [op for _, _, op in sorted(keyed, key=lambda x: x[:2])]


# ---------------------------------------------------------------------------
# oracles


def flock(report) -> List[Tuple[int, int, bool]]:
    """Seagull entries as (shift, length, exact); open entries drop their
    length, which depends on the cutoff."""
    return sorted((e.shift, e.length if e.exact else 0, e.exact)
                  for e in report.descriptor.seagulls)


def ext_a1_f2(max_s: int, max_t: int, t: int = 0) -> Dict[Tuple[int, int], int]:
    """Ext over A(1) of the shifted trivial module, from the additive basis of
    F2[h0,h1,a,b]/(h0h1, h1^3, h1a, a^2+h0^2b): b^k h0^i, b^k h1,
    b^k h1^2, b^k a h0^i with h0=(1,1), h1=(1,2), a=(3,7), b=(4,12)."""
    out: Dict[Tuple[int, int], int] = {}

    def add(s, u):
        if s <= max_s and u + t <= max_t:
            out[(s, u + t)] = out.get((s, u + t), 0) + 1

    for k in range(max_s // 4 + 1):
        for i in range(max_s + 1):
            add(4 * k + i, 12 * k + i)
            add(4 * k + 3 + i, 12 * k + 7 + i)
        add(4 * k + 1, 12 * k + 2)
        add(4 * k + 2, 12 * k + 4)
    return out


def ext_a0_f2(max_s: int, max_t: int, t: int = 0) -> Dict[Tuple[int, int], int]:
    """Ext over A(0) of the shifted trivial module: one class at (s, s+t)."""
    return {(s, s + t): 1 for s in range(max_s + 1) if s + t <= max_t}


def ext_free(max_t: int, t: int) -> Dict[Tuple[int, int], int]:
    return {(0, t): 1} if t <= max_t else {}


def add_charts(*charts) -> Dict[Tuple[int, int], int]:
    out: Dict[Tuple[int, int], int] = {}
    for c in charts:
        for key, d in c.items():
            out[key] = out.get(key, 0) + d
    return out


def chart_dims(chart) -> Dict[Tuple[int, int], int]:
    return {k: d for k, d in chart.dims.items() if d}


def euler_ok(chart, spec: M.Spec, series: Dict[int, int]) -> bool:
    """sum_s (-1)^s (generators of stage s) * (Poincare series of the
    algebra) = dim M_t, for t <= min(max_t, max_s + lo): a minimal
    resolution has no stage-s generators below degree lo + s."""
    for t in range(spec.lo, min(chart.max_t, chart.max_s + spec.lo) + 1):
        total = sum((-1) ** s * d * series.get(t - g, 0)
                    for (s, g), d in chart.dims.items() if g <= t)
        if total != spec.dims.get(t, 0):
            return False
    return True


def poly_mul(a: Dict[int, int], b: Dict[int, int]) -> Dict[int, int]:
    out: Dict[int, int] = {}
    for i, x in a.items():
        for j, y in b.items():
            out[i + j] = out.get(i + j, 0) + x * y
    return {k: v for k, v in out.items() if v}


def add_polys(a: Dict[int, int], b: Dict[int, int]) -> Dict[int, int]:
    return {k: a.get(k, 0) + b.get(k, 0) for k in set(a) | set(b)}


def seagull_q0(n: int, t: int) -> Dict[int, int]:
    """Q0-homology of the length-n seagull from t: the bottom generator and
    the top class Sq2Sq1Sq2 g_(n-1); every other class pairs off under Sq1.
    Its Q1-homology is zero (the seagull is Q0-local)."""
    return {t: 1, t + 4 * n + 1: 1}


def str_dims(d: Dict[int, int]) -> Dict[str, int]:
    return {str(k): v for k, v in sorted(d.items()) if v}


# ---------------------------------------------------------------------------
# localize: localization, classification, lifting and the DM complex


def localize_workload(rng: random.Random, a1mod, workdir: str) -> List[Op]:
    S, D = a1mod.structure, a1mod.davismahowald
    ops: List[Op] = []

    def shift() -> int:
        return rng.randint(-6, 6)

    def mod(spec, twisted=True):
        return M.to_module(M.twist(spec, rng) if twisted else spec, a1mod)

    def localize(m, cutoff, expect):
        ops.append(Op("localize_q0", lambda: S.localize_q0(m, cutoff),
                      lambda r: flock(r) == sorted(expect)))

    # L(S^t seagull(n)) is the seagull itself, exactly, once the cutoff
    # leaves room for a generator above the top one.
    for n, extra in ((1, (0, 1, 2, 3)), (2, (0, 1))):
        for j, twisted in zip(shuffled(rng, extra), (False, True) * 2):
            t = shift()
            localize(mod(M.seagull(n, t), twisted), t + 4 * n + 8 + j,
                     [(t, n, True)])
    # L(S^t F2) is one open seagull at t; L(free) is empty.
    for depth in shuffled(rng, (10, 12, 14, 16, 18, 20)):
        t = shift()
        localize(mod(M.f2(t)), t + depth, [(t, 0, False)])
    for depth in shuffled(rng, (10, 11, 12)):
        t = shift()
        localize(mod(M.free(t)), t + depth, [])
    # additivity over direct sums
    for other in ("f2", "f2", "free"):
        t = shift()
        u = t + rng.choice((-1, 1))
        part, expect = ((M.f2(u), [(t, 1, True), (u, 0, False)])
                        if other == "f2" else (M.free(u), [(t, 1, True)]))
        localize(mod(M.direct_sum(M.seagull(1, t), part)),
                 max(t, u) + 12 + rng.randint(0, 1), expect)

    def classify(spec, expect, free_ranks):
        m = mod(spec)

        def check(r):
            return (flock(r) == sorted(expect)
                    and dict(r.descriptor.free_ranks) == free_ranks)
        ops.append(Op("classify", lambda: S.classify(m), check))

    # flocks with a free cell, in a random basis: the descriptor is that of
    # the summands.
    for n, k in shuffled(rng, ((1, 3), (2, 4), (3, 2), (4, 1), (5, 3), (6, 2))):
        t = shift()
        u, v = t + rng.randint(0, 3), t + rng.randint(0, 3)
        spec = M.direct_sum(M.direct_sum(M.seagull(n, t), M.seagull(k, u)),
                            M.free(v))
        classify(spec, [(t, n, True), (u, k, True)], {v: 1})
    # A(1) (x) seagull(2) is free on the classes of the seagull.
    t, v = shift(), shift()
    sg = M.seagull(2, t)
    classify(M.tensor(M.free(v), sg), [],
             {v + k: d for k, d in sg.dims.items()})
    # seagull(1) (x) seagull(1): Kunneth gives Q0-homology in degrees
    # 0, 5, 5, 10, which only seagulls at 0 and 5 can carry; the 8 remaining
    # dimensions are a free cell on degree 2.
    for _ in range(2):
        t, u = shift(), shift()
        classify(M.tensor(M.seagull(1, t), M.seagull(1, u)),
                 [(t + u, 1, True), (t + u + 5, 1, True)], {t + u + 2: 1})
    # the truncated infinite seagull is one open seagull
    for depth in (16, 24):
        t = shift()
        classify(M.seagull_inf(t + depth + rng.randint(0, 3), t),
                 [(t, 0, False)], {})

    def lift(m, cutoff, ok):
        ops.append(Op("lift_check", lambda: D.lift_check(m, cutoff),
                      lambda r: ok(r.outcome)))

    for depth in shuffled(rng, (8, 9, 10, 11)):
        t = shift()
        lift(mod(M.seagull_inf(t + depth, t)), None, lambda o: o == "lifts")
    t = shift()
    lift(mod(M.seagull(2, t)), t + 16 + rng.randint(0, 1),
         lambda o: o == "no_lift")
    for _ in range(2):
        t = shift()
        lift(mod(M.seagull(1, t)), None, lambda o: o == "no_lift")
    # F2 is an A-module, so no detector may report an obstruction.
    for _ in range(2):
        t = shift()
        lift(mod(M.f2(t)), None, lambda o: o != "no_lift")

    for sigma in shuffled(rng, (2, 3, 4, 5, 6, 7)):
        max_t = 3 * sigma + rng.randint(0, 4)
        ops.append(Op(
            "dm_complex",
            lambda sigma=sigma, max_t=max_t: D.check_dm_exactness(
                D.build_dm_complex(sigma), max_t),
            lambda r: r == {"complex": True, "exact": True, "onto": True}))
    return ops


# ---------------------------------------------------------------------------
# resolve: Ext charts and tower counts over prebuilt modules


def resolve_workload(rng: random.Random, a1mod, workdir: str) -> List[Op]:
    R = a1mod.resolution
    ops: List[Op] = []

    def ext(spec, algebra, depth, oracle=None):
        """Ext through internal degree lo + depth (jittered), with max_s about
        half the depth; ``oracle(max_s, max_t)`` gives the chart where there
        is a closed form."""
        depth += rng.randint(0, 3)
        max_s, max_t = depth // 2 + rng.randint(-1, 1), spec.lo + depth
        m = M.to_module(M.twist(spec, rng), a1mod)
        series = M.A1_SERIES if algebra == "a1" else M.A0_SERIES
        expect = oracle(max_s, max_t) if oracle else None

        def check(chart):
            return (euler_ok(chart, spec, series)
                    and (expect is None or chart_dims(chart) == expect))
        ops.append(Op(f"ext_{algebra}",
                      lambda: R.ext_dims(m, algebra, max_s, max_t), check))

    def shift() -> int:
        return rng.randint(-6, 6)

    for depth in (40, 44, 48, 52, 56, 60, 64, 68):
        t = shift()
        ext(M.f2(t), "a1", depth, lambda s, d, t=t: ext_a1_f2(s, d, t))
    for depth in (80, 100, 120, 140):
        t = shift()
        ext(M.f2(t), "a0", depth, lambda s, d, t=t: ext_a0_f2(s, d, t))
    # change of rings: Ext_A(1)(seagull(1)) = Ext_A(0)(F2)
    for depth in (40, 48, 56, 64):
        t = shift()
        ext(M.seagull(1, t), "a1", depth, lambda s, d, t=t: ext_a0_f2(s, d, t))
    for depth in (40, 56):
        t = shift()
        ext(M.free(t), "a1", depth, lambda s, d, t=t: ext_free(d, t))
    # additivity over sums, and shifts under suspension
    for depth in (40, 48, 56, 64):
        t = shift()
        u, v = t + rng.randint(0, 3), t + rng.randint(0, 3)
        spec = M.direct_sum(M.direct_sum(M.f2(t), M.seagull(1, u)), M.free(v))
        ext(spec, "a1", depth, lambda s, d, t=t, u=u, v=v: add_charts(
            ext_a1_f2(s, d, t), ext_a0_f2(s, d, u), ext_free(d, v)))
    # modules without a closed form: the Euler characteristic must balance
    for n, depth in ((2, 48), (2, 64), (3, 40), (3, 56), (4, 48), (4, 64)):
        ext(M.seagull(n, shift()), "a1", depth)
    for depth in (40, 52, 64):
        ext(M.tensor(M.seagull(1, shift()), M.seagull(1, shift())), "a1", depth)
    for n, depth in ((2, 80), (3, 100), (4, 120), (4, 140)):
        t = shift()
        ext(M.direct_sum(M.seagull(n, t), M.f2(t + rng.randint(0, 3))), "a0",
            depth)

    # Tower stems of seagull(n) are 4j, j < n; of S^t F2 they are t + 4j.
    # h0_tower_counts scans stems from 0 whatever the bottom degree, so
    # shifts stay non-negative here.
    def towers(spec, max_stem, stems):
        m = M.to_module(M.twist(spec, rng), a1mod)
        expect = {k: 1 for k in stems if k <= max_stem}
        ops.append(Op("towers", lambda: R.h0_tower_counts(m, max_stem),
                      lambda r: {k: v for k, v in r.items() if v} == expect))

    for n, max_stem in ((1, 12), (2, 10), (2, 16), (3, 8), (3, 12), (3, 16)):
        max_stem += rng.randint(0, 1)
        towers(M.seagull(n), max_stem, [4 * j for j in range(n)])
    for max_stem in (8, 12, 16):
        t = rng.randint(0, 3)
        max_stem += rng.randint(0, 1)
        towers(M.f2(t), max_stem, range(t, max_stem + 1, 4))
    return ops


# ---------------------------------------------------------------------------
# cli: in-process command-line calls on .mod files


def cli_workload(rng: random.Random, a1mod, workdir: str) -> List[Op]:
    cli = a1mod.cli
    ops: List[Op] = []
    paths = itertools.count()

    def path_for(prefix: str) -> str:
        return os.path.join(workdir, f"{prefix}{next(paths)}.mod")

    def write(spec: M.Spec) -> str:
        path = path_for("in")
        with open(path, "w") as f:
            f.write(M.to_text(spec))
        return path

    def run(argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            rc = cli.main(argv)
        return rc, out.getvalue()

    def command(kind, argv, check):
        def checked(result):
            rc, out = result
            return rc == 0 and check(json.loads(out)["payload"])
        ops.append(Op(kind, lambda: run(argv), checked))

    def dims_are(expect):
        return lambda payload: payload["dims"] == str_dims(expect)

    def shift() -> int:
        return rng.randint(-6, 6)

    def atom(n):
        """S^t seagull(n) + S^u F2, with its Margolis homology."""
        t = shift()
        u = t + rng.randint(0, 6)
        spec = M.direct_sum(M.seagull(n, t), M.f2(u))
        return spec, {"Q0": add_polys(seagull_q0(n, t), {u: 1}), "Q1": {u: 1}}

    # tensor files of 45 to 221 dimensions.  Kunneth: the Poincare
    # polynomials of Margolis homology multiply.
    tensors = []
    for n, k in ((3, 3), (2, 4), (4, 3), (1, 4), (3, 2), (2, 2)):
        (a, ha), (b, hb) = atom(n), atom(k)
        spec = M.tensor(a, b)
        tensors.append((write(spec), spec, ha, hb))
    for (path, spec, ha, hb), op, dual in zip(
            tensors, ("Q0", "Q1", "Q1", "Q0", "Q0", "Q1"),
            (False, False, True, True, False, True)):
        poly = poly_mul(ha[op], hb[op])
        expect = str_dims({-k if dual else k: v for k, v in poly.items()})
        argv = ["margolis", path, "--operator", op.lower()]
        command("margolis", argv + (["--dual"] if dual else []),
                lambda payload, e=expect: payload["dims"] == e)

    # long seagulls span many degrees, so validation dominates
    longs = []
    for n in (6, 8, 10, 12):
        spec = M.seagull(n + rng.randint(0, 1), shift())
        longs.append((write(spec), spec))
    for kind, (path, spec) in zip(
            ("info", "validate") * 3,
            [longs[0], tensors[0][:2], longs[1], longs[2], tensors[1][:2],
             longs[3]]):
        command(kind, [kind, path], dims_are(spec.dims))

    # flocks with one free cell, in a random basis
    flocks = []
    for n, k in ((1, 3), (2, 5), (4, 2), (6, 1), (3, 3)):
        t = shift()
        u, v = t + rng.randint(1, 3), t + rng.randint(0, 3)
        spec = M.direct_sum(M.direct_sum(M.seagull(n, t), M.seagull(k, u)),
                            M.free(v))
        flocks.append((write(M.twist(spec, rng)), spec, [(t, n), (u, k)], v))
    for path, spec, gulls, v in flocks[:3]:
        expect = {"seagulls": [{"shift": t, "length": n, "exact": True}
                               for t, n in sorted(gulls)],
                  "free_ranks": {str(v): 1}, "cutoff": None}
        command("classify", ["classify", path],
                lambda payload, e=expect: payload["descriptor"] == e)
    for path, spec, gulls, v in flocks[3:]:
        rest = {k: d - M.free(v).dims.get(k, 0) for k, d in spec.dims.items()}
        command("reduce", ["reduce", path, "-o", path_for("out")],
                lambda payload, v=v, rest=rest: (
                    payload["free_ranks"] == {str(v): 1}
                    and payload["dims"] == str_dims(rest)))

    # The differential pairs the two Margolis classes of each seagull(1)
    # summand and nothing else, so its rank is their number.
    for path, spec, gulls, v in flocks[:2] + flocks[3:4]:
        rank = sum(1 for _, n in gulls if n == 1)
        command("dm-d2", ["dm-d2", path],
                lambda payload, r=rank: (payload["zero"] == (r == 0)
                                         and len(payload["pairs"]) == r))
    for path, spec, gulls, v in flocks[1:3]:
        rank = sum(1 for _, n in gulls if n == 1)
        classes = 2 * len(gulls)
        command("dm-e3", ["dm-e3", path],
                lambda payload, r=rank, h=classes: (
                    sum(x["dim"] for x in payload["first_column"]) == h - r
                    and sum(x["dim"] for x in payload["generic"]) == h - 2 * r))

    for n, max_stem in ((2, 10), (3, 8)):
        max_stem += rng.randint(0, 1)
        expect = {str(4 * j): 1 for j in range(n) if 4 * j <= max_stem}
        command("towers", ["towers", write(M.seagull(n)), "--max-stem",
                           str(max_stem)],
                lambda payload, e=expect: payload["towers"] == e)

    def svg_ok(payload):
        ElementTree.fromstring(payload["chart"])
        return payload["format"] == "svg"

    command("chart", ["chart", write(M.seagull(2)), "--kind", "towers",
                      "--format", "svg", "--max-stem", str(8 + rng.randint(0, 1))],
            svg_ok)
    command("chart", ["chart", flocks[4][0], "--kind", "e2", "--format", "svg",
                      "--max-sigma", str(4 + rng.randint(0, 1))], svg_ok)

    # writing commands
    for n in (4, 10):
        n += rng.randint(0, 1)
        t = shift()
        command("seagull", ["seagull", "--n", str(n), "--shift", str(t),
                            "-o", path_for("out")],
                dims_are(M.seagull(n, t).dims))
    for n, k in ((2, 3), (3, 3)):
        (a, _), (b, _) = atom(n), atom(k)
        command("tensor", ["tensor", write(a), write(b), "-o", path_for("out")],
                dims_are(M.tensor(a, b).dims))
    for (path, spec, _, _), n in zip(tensors[3:5], (2, 4)):
        b, _ = atom(n)
        command("sum", ["sum", path, write(b), "-o", path_for("out")],
                dims_are(add_polys(spec.dims, b.dims)))
    for path, spec in (longs[1], tensors[5][:2]):
        by = shift()
        command("suspend", ["suspend", path, "--by", str(by), "-o",
                            path_for("out")],
                dims_are({k + by: d for k, d in spec.dims.items()}))
    for path, spec in (tensors[4][:2], flocks[0][:2]):
        command("dual", ["dual", path, "-o", path_for("out")],
                dims_are({-k: d for k, d in spec.dims.items()}))

    # Known fault: the dual of a truncated module loses its truncation in
    # the .mod file, so Margolis homology read back from the file reports
    # truncation artifacts as classes.  These inputs do not depend on the seed.
    trunc = write(M.seagull_inf(20))
    for op, module_side in (("q0", [0]), ("q1", [])):
        dual_path = path_for("dual")

        def roundtrip(op=op, dual_path=dual_path):
            return (run(["dual", trunc, "-o", dual_path]),
                    run(["margolis", dual_path, "--operator", op]))

        def check(result, module_side=module_side):
            (rc1, _), (rc2, out) = result
            rec = json.loads(out)
            lo, hi = rec["reliable"]
            seen = [k for k in rec["payload"]["nonzero_degrees"]
                    if (lo is None or k >= lo) and (hi is None or k <= hi)]
            return rc1 == rc2 == 0 and seen == sorted(-k for k in module_side)

        ops.append(Op("dual_roundtrip", roundtrip, check, known_fault=True))
    return ops


WORKLOADS = {
    "localize": localize_workload,
    "resolve": resolve_workload,
    "cli": cli_workload,
}
