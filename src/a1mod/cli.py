"""Command-line interface.

Every invocation prints one JSON document to standard output with the fields
``command``, ``input`` (a digest of the input files), ``payload``,
``reliable`` (degree window, where applicable) and ``version``.  Charts and
generated module files go to the path given with ``-o``.

Exit codes: 0 success, 1 domain error (invalid module, failed check),
2 usage or parse error.

The size options have upper limits (``LIMITS``) on how far they reach:
``--cutoff`` 256 and ``--max-t`` 256 degrees above the module's bottom
degree (above ``--shift`` for ``seagull --infinite``), ``--max-stem`` 128
above the lower of the bottom degree and 0, and ``--max-s`` 128,
``--max-sigma`` 128 and ``--n`` 1024 as they stand.  A larger value exits 2
with a JSON error before any work starts.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
from typing import Dict, List, Optional, Tuple

from . import __version__, a1core, charts, davismahowald, margolis, modfile
from . import resolution, structure
from .errors import A1ModError, ParseError

__all__ = ["main"]

# the farthest each size option may reach, by argparse destination
LIMITS: Dict[str, int] = {"max_s": 128, "max_t": 256, "max_stem": 128,
                          "max_sigma": 128, "cutoff": 256, "n": 1024}


def _digest(texts: List[str]) -> str:
    h = hashlib.sha256()
    for t in texts:
        h.update(t.encode())
    return h.digest().hex()[:16]


def _load(path: str) -> Tuple[a1core.A1Module, str]:
    try:
        with open(path) as f:
            text = f.read()
    except OSError as e:
        raise ParseError(0, f"cannot read {path}: {e.strerror}")
    return modfile.parse_module(text), text


def _limit(args, dest: str, base: Optional[int] = None) -> None:
    """Refuse the option ``dest`` when it reaches more than ``LIMITS[dest]``
    above degree ``base`` (above 0 when ``base`` is None)."""
    value, limit = getattr(args, dest), LIMITS[dest]
    if value is None or value - (base or 0) <= limit:
        return
    option = "--" + dest.replace("_", "-")
    if base is None:
        raise ParseError(0, f"{option} {value} is above its limit {limit}")
    raise ParseError(0, f"{option} {value} reaches {value - base} above "
                        f"degree {base}, beyond its limit {limit}")


def _window(pair) -> List[Optional[int]]:
    return [pair[0], pair[1]]


def _descriptor_json(desc: structure.FlockDescriptor) -> Dict:
    return {
        "seagulls": [{"shift": e.shift, "length": e.length, "exact": e.exact}
                     for e in desc.seagulls],
        "free_ranks": {str(d): r for d, r in desc.free_ranks},
        "cutoff": desc.cutoff,
    }


def _emit(args, record: Dict) -> None:
    print(json.dumps(record, sort_keys=True))


def _write_module(args, m: a1core.A1Module, name: str) -> Dict:
    text = modfile.serialize(m, name)
    if getattr(args, "output", None):
        with open(args.output, "w") as f:
            f.write(text)
    return {"module_text": text, "dims": {str(k): m.space.dim(k)
                                          for k in m.space.degrees}}


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (payload, reliable, texts hashed)


def _cmd_validate(args):
    m, text = _load(args.module)
    return {"valid": True, "name": m.name,
            "dims": {str(k): m.space.dim(k) for k in m.space.degrees}}, None, [text]


def _cmd_info(args):
    m, text = _load(args.module)
    degrees = m.space.degrees
    return {
        "name": m.name,
        "dims": {str(k): m.space.dim(k) for k in degrees},
        "total_dim": sum(m.space.dim(k) for k in degrees),
        "lowest": degrees[0] if degrees else None,
        "highest": degrees[-1] if degrees else None,
        "truncated_above": m.truncated_above,
        "truncated_below": m.truncated_below,
    }, None, [text]


def _cmd_margolis(args):
    m, text = _load(args.module)
    op = args.operator.upper()
    side = "dual" if args.dual else "module"
    res = margolis.margolis_homology(m, op, side)
    payload = {
        "operator": res.op,
        "side": side,
        "dims": {str(k): d for k, d in sorted(res.dims.items()) if d},
        "nonzero_degrees": res.nonzero_degrees(),
    }
    return payload, _window(res.reliable), [text]


def _cmd_reduce(args):
    m, text = _load(args.module)
    reduced, ranks = structure.strip_free(m)
    payload = _write_module(args, reduced, f"{m.name or 'M'}_reduced")
    payload["free_ranks"] = {str(k): r for k, r in sorted(ranks.items()) if r}
    return payload, None, [text]


def _cmd_classify(args):
    m, text = _load(args.module)
    report = structure.classify(m)
    payload = {
        "descriptor": _descriptor_json(report.descriptor),
        "residue_degrees": report.residue_degrees,
    }
    return payload, None, [text]


def _cmd_localize(args):
    m, text = _load(args.module)
    _limit(args, "cutoff", m.lo)
    report = structure.localize_q0(m, args.cutoff)
    payload = {
        "descriptor": _descriptor_json(report.descriptor),
        "residue_degrees": report.residue_degrees,
    }
    cut = report.descriptor.cutoff
    reliable = [None, cut - structure.BOUNDARY] if cut is not None else None
    return payload, reliable, [text]


def _cmd_ext(args):
    m, text = _load(args.module)
    _limit(args, "max_s")
    _limit(args, "max_t", m.lo)
    chart = resolution.ext_dims(m, args.algebra, args.max_s, args.max_t)
    dims = {f"{s},{t}": d for (s, t), d in sorted(chart.dims.items()) if d}
    return {"algebra": chart.algebra, "max_s": chart.max_s,
            "max_t": chart.max_t, "dims": dims}, None, [text]


def _tower_base(m: a1core.A1Module) -> int:
    """The lowest stem ``h0_tower_counts`` reports: its resolution reaches
    ``--max-stem`` minus this far in filtration."""
    return min(m.lo, 0) if m.lo is not None else 0


def _cmd_towers(args):
    m, text = _load(args.module)
    _limit(args, "max_stem", _tower_base(m))
    counts = resolution.h0_tower_counts(m, args.max_stem)
    return {"towers": {str(k): v for k, v in sorted(counts.items()) if v},
            "max_stem": args.max_stem}, None, [text]


def _cmd_dm_e1(args):
    m, text = _load(args.module)
    _limit(args, "max_sigma")
    page = davismahowald.e1_page(m, args.max_sigma)
    payload = {
        "classes": [{"sigma": s, "stem": st, "label": lbl}
                    for s, st, lbl in page.records],
    }
    return payload, _window(page.reliable), [text]


def _cmd_dm_d2(args):
    m, text = _load(args.module)
    data = davismahowald.d2(m)
    payload = {
        "classes": [{"degree": k, "label": lbl} for k, lbl in data.classes],
        "pairs": [{"source": a, "target": b} for a, b in data.pairs],
        "zero": data.is_zero(),
    }
    return payload, None, [text]


def _cmd_dm_e3(args):
    m, text = _load(args.module)
    page = davismahowald.e3_page(m)
    payload = {
        "first_column": [{"stem": st, "dim": d}
                         for st, d in page.first_column if d],
        "generic": [{"degree": k, "dim": d} for k, d in page.generic if d],
    }
    return payload, None, [text]


def _cmd_lift_check(args):
    m, text = _load(args.module)
    _limit(args, "cutoff", m.lo)
    verdict = davismahowald.lift_check(m, args.cutoff)
    return {"outcome": verdict.outcome,
            "evidence": verdict.evidence}, None, [text]


def _cmd_sq4_check(args):
    m, text = _load(args.module)
    res = davismahowald.sq4_solver(m)
    return {"feasible": res.feasible}, None, [text]


def _cmd_chart(args):
    m, text = _load(args.module)
    if args.kind == "towers":
        _limit(args, "max_stem", _tower_base(m))
        counts = resolution.h0_tower_counts(m, args.max_stem)
        body = (charts.towers_ascii(counts, args.max_stem)
                if args.format == "ascii"
                else charts.towers_svg(counts, args.max_stem))
    else:
        _limit(args, "max_sigma")
        page = davismahowald.e1_page(m, args.max_sigma)
        data = davismahowald.d2(m)
        stem_of = {lbl: st for _, st, lbl in page.records}
        sigma_of: Dict[str, int] = {}
        for s, _, lbl in page.records:
            sigma_of.setdefault(lbl, s)
        arrows = []
        for a, b in data.pairs:
            if a in stem_of:
                sa = sigma_of[a]
                arrows.append((stem_of[a], sa, stem_of[a] - 1, sa + 2))
        classes = [(st, s, lbl) for s, st, lbl in page.records]
        body = (charts.page_ascii(classes, arrows) if args.format == "ascii"
                else charts.page_svg(classes, arrows))
    if args.output:
        with open(args.output, "w") as f:
            f.write(body)
        payload = {"written": args.output, "format": args.format,
                   "kind": args.kind}
    else:
        payload = {"chart": body, "format": args.format, "kind": args.kind}
    return payload, None, [text]


# generator commands


def _cmd_seagull(args):
    if args.infinite:
        if args.cutoff is None:
            raise ParseError(0, "--infinite requires --cutoff")
        _limit(args, "cutoff", args.shift)
        m = structure.seagull_inf(args.cutoff, args.shift)
        name = f"seagull_inf_{args.cutoff}"
    else:
        if args.n is None:
            raise ParseError(0, "need --n or --infinite")
        if args.n < 1:
            raise ParseError(0, f"--n must be at least 1, got {args.n}")
        _limit(args, "n")
        m = structure.seagull(args.n, args.shift)
        name = f"seagull_{args.n}"
    if args.shift:
        name += f"_shift{args.shift}"
    return _write_module(args, m, name), None, []


def _cmd_tensor(args):
    a, ta = _load(args.left)
    b, tb = _load(args.right)
    m = a1core.tensor(a, b)
    return _write_module(args, m, f"{a.name}_x_{b.name}"), None, [ta, tb]


def _cmd_sum(args):
    a, ta = _load(args.left)
    b, tb = _load(args.right)
    m = a1core.direct_sum(a, b)
    return _write_module(args, m, f"{a.name}_plus_{b.name}"), None, [ta, tb]


def _cmd_suspend(args):
    m, text = _load(args.module)
    return _write_module(args, a1core.suspend(m, args.by),
                         f"{m.name}_susp{args.by}"), None, [text]


def _cmd_dual(args):
    m, text = _load(args.module)
    return _write_module(args, a1core.dualize(m),
                         f"{m.name}_dual"), None, [text]


# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once: parsing leaves no state in it."""
    p = argparse.ArgumentParser(prog="a1mod", description=__doc__)
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    def cmd(name, handler, **kw):
        sp = sub.add_parser(name, **kw)
        sp.set_defaults(handler=handler)
        return sp

    for name, handler, blurb in [
            ("validate", _cmd_validate, "check a module file"),
            ("info", _cmd_info, "dimensions and degree range"),
            ("reduce", _cmd_reduce, "strip free summands"),
            ("classify", _cmd_classify, "seagull decomposition"),
            ("dm-d2", _cmd_dm_d2, "closed-form differential"),
            ("dm-e3", _cmd_dm_e3, "page after the differential"),
            ("sq4-check", _cmd_sq4_check, "degree-4 operator feasibility"),
            ("dual", _cmd_dual, "linear dual with the flipped action")]:
        sp = cmd(name, handler, help=blurb)
        sp.add_argument("module")
        if name in ("reduce", "dual"):
            sp.add_argument("-o", "--output")

    sp = cmd("margolis", _cmd_margolis, help="homology of Q0 or Q1")
    sp.add_argument("module")
    sp.add_argument("--operator", choices=["q0", "q1"], required=True)
    sp.add_argument("--dual", action="store_true")

    sp = cmd("localize", _cmd_localize, help="classification after inverting Q0")
    sp.add_argument("module")
    sp.add_argument("--cutoff", type=int)

    sp = cmd("ext", _cmd_ext, help="Ext chart from a minimal resolution")
    sp.add_argument("module")
    sp.add_argument("--algebra", choices=["a0", "a1"], default="a1")
    sp.add_argument("--max-s", type=int, required=True)
    sp.add_argument("--max-t", type=int, required=True)

    sp = cmd("towers", _cmd_towers, help="h0-tower counts per stem")
    sp.add_argument("module")
    sp.add_argument("--max-stem", type=int, required=True)

    sp = cmd("dm-e1", _cmd_dm_e1, help="localized first page")
    sp.add_argument("module")
    sp.add_argument("--max-sigma", type=int, required=True)

    sp = cmd("lift-check", _cmd_lift_check, help="does the module lift")
    sp.add_argument("module")
    sp.add_argument("--cutoff", type=int)

    sp = cmd("chart", _cmd_chart, help="render a chart")
    sp.add_argument("module")
    sp.add_argument("--kind", choices=["towers", "e2"], default="towers")
    sp.add_argument("--format", choices=["ascii", "svg"], default="ascii")
    sp.add_argument("--max-stem", type=int, default=12)
    sp.add_argument("--max-sigma", type=int, default=6)
    sp.add_argument("-o", "--output")

    sp = cmd("seagull", _cmd_seagull, help="emit a seagull module file")
    sp.add_argument("--n", type=int)
    sp.add_argument("--infinite", action="store_true")
    sp.add_argument("--cutoff", type=int)
    sp.add_argument("--shift", type=int, default=0)
    sp.add_argument("-o", "--output")

    for name, handler, blurb in [
            ("tensor", _cmd_tensor, "tensor product with the diagonal action"),
            ("sum", _cmd_sum, "direct sum")]:
        sp = cmd(name, handler, help=blurb)
        sp.add_argument("left")
        sp.add_argument("right")
        sp.add_argument("-o", "--output")

    sp = cmd("suspend", _cmd_suspend, help="shift all degrees")
    sp.add_argument("module")
    sp.add_argument("--by", type=int, required=True)
    sp.add_argument("-o", "--output")
    return p


def main(argv: Optional[List[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        payload, reliable, texts = args.handler(args)
    except ParseError as e:
        print(json.dumps({"command": args.command, "error": str(e),
                          "version": __version__}, sort_keys=True),
              file=sys.stderr)
        return 2
    except A1ModError as e:
        print(json.dumps({"command": args.command, "error": str(e),
                          "version": __version__}, sort_keys=True),
              file=sys.stderr)
        return 1
    record = {
        "command": args.command,
        "input": _digest(texts),
        "payload": payload,
        "reliable": reliable,
        "version": __version__,
    }
    _emit(args, record)
    return 0


if __name__ == "__main__":
    sys.exit(main())
