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
``--max-sigma`` 128 and ``--n`` 1024 as they stand.  Without ``--cutoff``,
``localize`` and ``lift-check`` hold their default cutoff to the same limit.
A larger value exits 2 with a JSON error before any work starts.
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


def _load(path: str) -> Tuple[a1core.A1Module, str]:
    try:
        with open(path, encoding="utf-8") as f:
            text = f.read()
    except OSError as e:
        raise ParseError(0, f"cannot read {path}: {e.strerror}")
    except UnicodeDecodeError as e:
        raise ParseError(0, f"cannot read {path}: not UTF-8 text "
                            f"({e.reason} at byte {e.start})")
    return modfile.parse_module(text), text


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w") as f:
            f.write(text)
    except OSError as e:
        raise ParseError(0, f"cannot write {path}: {e.strerror}")


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


def _cutoff(args, m: a1core.A1Module) -> Optional[int]:
    """The cutoff that ``localize`` and ``lift-check`` use, refused past its
    limit: ``--cutoff``, else the module's default (None for the zero
    module, which ``localize_q0`` classifies directly)."""
    if args.cutoff is None and m.lo is not None:
        args.cutoff = structure.default_cutoff(m)
    _limit(args, "cutoff", m.lo)
    return args.cutoff


def _dims(m: a1core.A1Module) -> Dict[str, int]:
    return {str(k): m.space.dim(k) for k in m.space.degrees}


def _report_json(report: structure.DecompositionReport) -> Dict:
    desc = report.descriptor
    return {
        "descriptor": {
            "seagulls": [{"shift": e.shift, "length": e.length,
                          "exact": e.exact} for e in desc.seagulls],
            "free_ranks": {str(d): r for d, r in desc.free_ranks},
            "cutoff": desc.cutoff,
        },
        "residue_degrees": report.residue_degrees,
    }


def _write_module(args, m: a1core.A1Module, name: str) -> Dict:
    text = modfile.serialize(m, name)
    if args.output:
        _write(args.output, text)
    return {"module_text": text, "dims": _dims(m)}


# ---------------------------------------------------------------------------
# subcommand handlers: (args, modules read from the command line) ->
# (payload, reliable)


def _cmd_validate(args, m):
    return {"valid": True, "name": m.name, "dims": _dims(m)}, None


def _cmd_info(args, m):
    degrees = m.space.degrees
    return {
        "name": m.name,
        "dims": _dims(m),
        "total_dim": sum(m.space.dim(k) for k in degrees),
        "lowest": degrees[0] if degrees else None,
        "highest": degrees[-1] if degrees else None,
        "truncated_above": m.truncated_above,
        "truncated_below": m.truncated_below,
    }, None


def _cmd_margolis(args, m):
    side = "dual" if args.dual else "module"
    res = margolis.margolis_homology(m, args.operator.upper(), side)
    payload = {
        "operator": res.op,
        "side": side,
        "dims": {str(k): d for k, d in sorted(res.dims.items()) if d},
        "nonzero_degrees": res.nonzero_degrees(),
    }
    return payload, list(res.reliable)


def _cmd_reduce(args, m):
    reduced, ranks = structure.strip_free(m)
    payload = _write_module(args, reduced, f"{m.name or 'M'}_reduced")
    payload["free_ranks"] = {str(k): r for k, r in sorted(ranks.items()) if r}
    return payload, None


def _cmd_classify(args, m):
    return _report_json(structure.classify(m)), None


def _cmd_localize(args, m):
    report = structure.localize_q0(m, _cutoff(args, m))
    cut = report.descriptor.cutoff
    reliable = [None, cut - structure.BOUNDARY] if cut is not None else None
    return _report_json(report), reliable


def _cmd_ext(args, m):
    _limit(args, "max_s")
    _limit(args, "max_t", m.lo)
    chart = resolution.ext_dims(m, args.algebra, args.max_s, args.max_t)
    dims = {f"{s},{t}": d for (s, t), d in sorted(chart.dims.items()) if d}
    return {"algebra": chart.algebra, "max_s": chart.max_s,
            "max_t": chart.max_t, "dims": dims}, None


def _cmd_towers(args, m):
    _limit(args, "max_stem", resolution.tower_base(m))
    counts = resolution.h0_tower_counts(m, args.max_stem)
    return {"towers": {str(k): v for k, v in sorted(counts.items()) if v},
            "max_stem": args.max_stem}, None


def _cmd_dm_e1(args, m):
    _limit(args, "max_sigma")
    page = davismahowald.e1_page(m, args.max_sigma)
    payload = {
        "classes": [{"sigma": s, "stem": st, "label": lbl}
                    for s, st, lbl in page.records],
    }
    return payload, list(page.reliable)


def _cmd_dm_d2(args, m):
    data = davismahowald.d2(m)
    payload = {
        "classes": [{"degree": k, "label": lbl} for k, lbl in data.classes],
        "pairs": [{"source": a, "target": b} for a, b in data.pairs],
        "zero": data.is_zero(),
    }
    return payload, None


def _cmd_dm_e3(args, m):
    page = davismahowald.e3_page(m)
    payload = {
        "first_column": [{"stem": st, "dim": d}
                         for st, d in page.first_column if d],
        "generic": [{"degree": k, "dim": d} for k, d in page.generic if d],
    }
    return payload, None


def _cmd_lift_check(args, m):
    verdict = davismahowald.lift_check(m, _cutoff(args, m))
    return {"outcome": verdict.outcome, "evidence": verdict.evidence}, None


def _cmd_sq4_check(args, m):
    return {"feasible": davismahowald.sq4_solver(m).feasible}, None


def _cmd_chart(args, m):
    if args.kind == "towers":
        _limit(args, "max_stem", resolution.tower_base(m))
        counts = resolution.h0_tower_counts(m, args.max_stem)
        body = (charts.towers_ascii(counts, args.max_stem)
                if args.format == "ascii"
                else charts.towers_svg(counts, args.max_stem))
    else:
        _limit(args, "max_sigma")
        page = davismahowald.e1_page(m, args.max_sigma)
        data = davismahowald.d2(m)
        spots: Dict[str, List[Tuple[int, int]]] = {}  # label -> (stem, sigma)
        for s, st, lbl in page.records:
            spots.setdefault(lbl, []).append((st, s))
        # d2 leaves each record of its source that has a target on the page
        arrows = [(st, s, st - 1, s + 2) for a, _ in data.pairs
                  for st, s in spots[a] if s + 2 <= args.max_sigma]
        classes = [(st, s, lbl) for s, st, lbl in page.records]
        body = (charts.page_ascii(classes, arrows) if args.format == "ascii"
                else charts.page_svg(classes, arrows))
    if args.output:
        _write(args.output, body)
        payload = {"written": args.output, "format": args.format,
                   "kind": args.kind}
    else:
        payload = {"chart": body, "format": args.format, "kind": args.kind}
    return payload, None


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
    return _write_module(args, m, name), None


def _cmd_tensor(args, a, b):
    return _write_module(args, a1core.tensor(a, b),
                         f"{a.name}_x_{b.name}"), None


def _cmd_sum(args, a, b):
    return _write_module(args, a1core.direct_sum(a, b),
                         f"{a.name}_plus_{b.name}"), None


def _cmd_suspend(args, m):
    return _write_module(args, a1core.suspend(m, args.by),
                         f"{m.name}_susp{args.by}"), None


def _cmd_dual(args, m):
    return _write_module(args, a1core.dualize(m), f"{m.name}_dual"), None


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
        loaded = [_load(getattr(args, dest))
                  for dest in ("module", "left", "right") if hasattr(args, dest)]
        payload, reliable = args.handler(args, *(m for m, _ in loaded))
    except A1ModError as e:
        print(json.dumps({"command": args.command, "error": str(e),
                          "version": __version__}, sort_keys=True),
              file=sys.stderr)
        return 2 if isinstance(e, ParseError) else 1
    print(json.dumps({
        "command": args.command,
        "input": hashlib.sha256(
            "".join(text for _, text in loaded).encode()).hexdigest()[:16],
        "payload": payload,
        "reliable": reliable,
        "version": __version__,
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
