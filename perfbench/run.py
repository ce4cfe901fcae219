"""Run one workload of the a1mod benchmark and print its metrics.

    python3 perfbench/run.py --workload localize --seed 1 --seconds 40 --trace 0

The benchmark imports a1mod from ``src/`` of the checkout it sits in.  Set-up
(imports, then building the seeded inputs five times) is timed apart from
the measured section.  The measured section is a closed loop in one thread:
one operation at a time, each a single call into a1mod's public API, in
whole rounds of the same operations until ``--seconds`` have passed.  Every
result is checked against an oracle.  The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones.  With ``--trace 1``
rounds alternate untraced and traced, and the metrics are per-layer counts,
self times and sizes per round, from spans written to ``perfbench/results``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import shutil
import statistics
import sys
import time

import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_REPEATS = 5


def run_round(ops):
    """Run every operation once; return latencies, failures and failures
    outside the known faults."""
    latencies, failed, wrong = [], 0, 0
    for op in ops:
        start = time.perf_counter()
        try:
            result = op.call()
        except Exception as exc:   # a raising operation is a failed one
            result = exc
        latencies.append(time.perf_counter() - start)
        try:
            ok = not isinstance(result, Exception) and op.check(result)
        except Exception as exc:   # malformed output fails its check
            ok, result = False, exc
        if not ok:
            failed += 1
            if not op.known_fault:
                wrong += 1
                print(f"{op.kind} failed: {result!r:.300}", file=sys.stderr)
    return latencies, failed, wrong


def setup(workload, seed, a1mod, workdir):
    """Build the round SETUP_REPEATS times; return it and the build times."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        rng = random.Random(f"{workload}:{seed}")
        ops = workloads.interleave(workloads.WORKLOADS[workload](rng, a1mod, workdir))
        times.append(time.perf_counter() - start)
    return ops, times


def measure(ops, seconds):
    """Whole rounds until ``seconds`` have passed."""
    latencies, failed, wrong = [], 0, 0
    start = time.perf_counter()
    while True:
        lat, f, w = run_round(ops)
        latencies += lat
        failed += f
        wrong += w
        if time.perf_counter() - start >= seconds:
            return latencies, failed, wrong


def end_to_end(latencies, setup_s):
    """Throughput is operations over the time spent in them: one client,
    one operation at a time."""
    ms = [x * 1000 for x in latencies]
    return {
        "ops_per_s": (len(latencies) / sum(latencies), "1/s"),
        "latency_p50_ms": (statistics.median(ms), "ms"),
        "latency_p90_ms": (statistics.quantiles(ms, n=10)[8], "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "MB"),
    }


def traced(ops, seconds, a1mod, trace_path):
    """Alternate untraced and traced rounds; per-layer figures per round."""
    tracer = spans.Tracer(a1mod)
    plain, spanned = [], []
    latencies, failed, wrong = [], 0, 0
    start = time.perf_counter()
    while True:
        lat, f, w = run_round(ops)
        plain.append(sum(lat))
        tracer.install()
        try:
            lat2, f2, w2 = run_round(ops)
        finally:
            tracer.uninstall()
        tracer.keep_spans = False        # spans of the first traced round
        spanned.append(sum(lat2))
        latencies += lat + lat2
        failed += f + f2
        wrong += w + w2
        if time.perf_counter() - start >= seconds:
            break
    tracer.dump(trace_path)
    t_on, t_off = statistics.median(spanned), statistics.median(plain)
    metrics = tracer.metrics(len(spanned))
    metrics["trace.overhead"] = (t_on / t_off, "ratio")
    metrics["trace.traced_s"] = (t_on, "s")
    metrics["trace.untraced_s"] = (t_off, "s")
    for share, layer in tracer.shares(len(spanned), t_on):
        if share >= 0.001:
            print(f"  {layer:40s} {100 * share:5.1f}% of traced round time",
                  file=sys.stderr)
    return latencies, failed, wrong, metrics


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    start = time.perf_counter()
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    try:
        import a1mod
        import a1mod.cli
    except ImportError as exc:
        print(f"cannot import a1mod from {src}: {exc}", file=sys.stderr)
        return 2
    if not os.path.abspath(a1mod.__file__).startswith(src + os.sep):
        print(f"a1mod was imported from {a1mod.__file__}, not {src}",
              file=sys.stderr)
        return 2
    import_s = time.perf_counter() - start
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    results = os.path.join(HERE, "results")
    workdir = os.path.join(results, f"work-{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        ops, build_s = setup(args.workload, args.seed, a1mod, workdir)
        setup_s = import_s + statistics.median(build_s)
        print(f"set-up: imports {import_s:.3f} s, builds "
              + " ".join(f"{b:.3f}" for b in build_s) + " s", file=sys.stderr)
        if args.trace:
            path = os.path.join(results, f"trace-{args.workload}-{args.seed}.json")
            latencies, failed, wrong, metrics = traced(
                ops, args.seconds, a1mod, path)
        else:
            latencies, failed, wrong = measure(ops, args.seconds)
            metrics = end_to_end(latencies, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"{args.workload} seed {args.seed}: {len(ops)} operations per round, "
          f"{len(latencies)} timed, {failed} failed", file=sys.stderr)
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": len(latencies),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
