#!/usr/bin/env python3
"""Layered benchmark for convexqe.

Run from the repository root:

    python3 benchmarks/run.py --workload eliminate_cut --seed 1 \
        --seconds 30 --trace 0

Workloads (see benchmarks/README.md): fuzz_diff, eliminate_cut,
skolem_verify.  The seed fixes the inputs; ``--seconds`` bounds how long
the timed passes repeat over them.  The run checks every output, prints a
JSON detail report, then, as its last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end metrics; with ``--trace 1`` they are the
per-layer metrics of traced passes, whose exact counts are checked against
untraced passes over the same inputs in the same process.

The package is imported from ``src/`` next to this directory and nowhere
else; without it the run exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import statistics
import sys
from types import SimpleNamespace

from tracer import (SpeedProbe, Tracer, level_name, percentile, perf_counter,
                    tail_level)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
FIXTURES = ("lex2_sub1", "lex3_sub2", "lex2_val_1inf", "lex3_val_1pi0",
            "lex2_rat_11")
SETUP_REPEATS = 15

BUSY_SPANS = (
    "fuzz.gen_formula", "fuzz.sample", "models.compile", "models.eval",
    "oracle.compile", "oracle.eval", "oracle.truth", "parser.parse_formula",
    "syntax.print_formula", "cutqe.qe_star", "cutqe.qe_star.subgroup",
    "cutqe.qe_star.coset_topped_cut", "cutqe.qe_star.irrational_cut",
    "cutqe.qe_star.rational_cut", "cutqe.skolemize",
    "skolemlab.verify_skolem", "cutqe.build_structure")
CALL_SPANS = (
    "fuzz.gen_formula", "fuzz.sample", "models.compile", "models.eval",
    "oracle.compile", "oracle.eval", "oracle.truth", "parser.parse_formula",
    "cutqe.qe_star", "cutqe.skolemize", "skolemlab.verify_skolem")
TALLIES = ("cutqe.qe_star.out_atoms", "syntax.print_formula.out_chars",
           "cutqe.skolemize.cases", "cutqe.skolemize.shape_redraws",
           "skolemlab.verify_skolem.applicable")


def _set_up(tracer: Tracer, probe: SpeedProbe):
    """Import the package afresh, load the fixtures, build structures."""
    for name in [n for n in sys.modules
                 if n == "convexqe" or n.startswith("convexqe.")]:
        del sys.modules[name]
    t0 = perf_counter()
    cq = importlib.import_module("convexqe")
    importlib.import_module("convexqe.fuzz")
    ctx = _load_models(cq, tracer, probe)
    dt = perf_counter() - t0
    if not os.path.abspath(cq.__file__).startswith(SRC + os.sep):
        raise RuntimeError(f"convexqe imported from {cq.__file__}")
    return dt, cq, ctx


def _load_models(cq, tracer: Tracer, probe: SpeedProbe) -> SimpleNamespace:
    """Fresh model objects: irrational cut oracles memoize their refined
    intervals, so a pass must not inherit another pass's precision."""
    fixtures = os.path.join(os.path.dirname(cq.__file__), "fixtures")
    models = {n: cq.load_model(os.path.join(fixtures, n + ".json"))
              for n in FIXTURES}
    structures = {n: tracer.call("cutqe.build_structure",
                                 cq.build_structure, m)
                  for n, m in models.items()}
    return SimpleNamespace(models=models, structures=structures, probe=probe)


def _cold_caches() -> None:
    """Clear every functools cache in the package, so no timed pass reuses
    work an earlier pass did (the oracle memoizes compiled formulas)."""
    for name, mod in list(sys.modules.items()):
        if name == "convexqe" or name.startswith("convexqe."):
            for obj in list(vars(mod).values()):
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()


def _repeat(workload, cq, probe, inputs, traced: bool, budget_s: float):
    """Timed passes over the same inputs, one and then more while another
    fits in the budget, each on cold caches and fresh models; returns the
    passes and each pass's tracer."""
    passes, tracers = [], []
    start = perf_counter()
    while True:
        _cold_caches()
        ctx = _load_models(cq, Tracer(False), probe)
        gc.collect()
        tracer = Tracer(traced)
        passes.append(workload.run_pass(ctx, inputs, tracer))
        tracers.append(tracer)
        elapsed = perf_counter() - start
        if elapsed + passes[-1].wall_s > budget_s:
            return passes, tracers


def _item_medians(passes, name: str) -> list[float]:
    """Median of each item's scaled timing across passes.  Per-item medians
    shed the machine's passing slow spells, which a whole-pass median
    keeps."""
    per_pass = [p.scaled(name) for p in passes]
    first = per_pass[0]
    keys = first.keys() if isinstance(first, dict) else range(len(first))
    return [statistics.median(v[k] for v in per_pass) for k in keys]


def _run_s(passes) -> float:
    return sum(_item_medians(passes, "segments"))


def _latency_detail(values: list[float]) -> dict:
    """Sample count, p95, and the highest percentile with at least ten
    samples beyond it, which is too seed-dependent to carry a bound."""
    level = tail_level(len(values))
    return {"samples": len(values), "p95_ms": percentile(values, 95),
            "tail": level_name(level), "tail_ms": percentile(values, level)}


def _end_to_end(setup_times, passes) -> tuple[dict, dict]:
    first = passes[0]
    run_s = _run_s(passes)
    requests = _item_medians(passes, "request_ms")
    checks = _item_medians(passes, "check_ms")
    values = {
        "setup_s": statistics.median(setup_times),
        "run_s": run_s,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "assign_per_s": first.checked_assignments / run_s,
        "request_ms_p50": percentile(requests, 50),
        "request_ms_p90": percentile(requests, 90),
        "check_ms_p50": percentile(checks, 50),
        "check_ms_p90": percentile(checks, 90),
        "check_s": sum(_item_medians(passes, "check_s")),
    }
    detail = {"pass_wall_s": [round(p.wall_s, 4) for p in passes],
              "pass_speed": [round(statistics.median(p.factors), 4)
                             for p in passes],
              "setup_s": [round(t, 4) for t in setup_times],
              "request": _latency_detail(requests),
              "check": _latency_detail(checks)}
    return values, detail


def _per_layer(setup_tracer, setup_speed, ref_passes, passes,
               tracers) -> dict:
    speeds = [statistics.median(p.factors) for p in passes]

    def med(fn):
        """Median over traced passes of a time, scaled per pass."""
        return statistics.median(fn(t) * f for t, f in zip(tracers, speeds))

    values = {}
    for name in BUSY_SPANS:
        values[name + ".busy_s"] = med(lambda t: t.busy[name])
    values["cutqe.build_structure.busy_s"] = (
        setup_tracer.busy["cutqe.build_structure"] * setup_speed
        / SETUP_REPEATS)
    for name in CALL_SPANS:
        values[name + ".calls"] = tracers[0].counts[name]
    for name in TALLIES:
        values[name] = tracers[0].counts[name]
    failures = tracers[0].failures
    for layer in ("oracle.compile", "oracle.eval"):
        by_kind = {k: n for (lay, k), n in failures.items() if lay == layer}
        values[layer + ".failed"] = sum(by_kind.values())
        if layer == "oracle.compile":
            values[layer + ".failed.RecursionError"] = by_kind.get(
                "RecursionError", 0)
            values[layer + ".failed.other"] = sum(
                n for k, n in by_kind.items() if k != "RecursionError")
    drawn = tracers[0].counts["oracle.truth.drawn"]
    values["oracle.truth.accept_ratio"] = (
        tracers[0].counts["oracle.truth.accepted"] / drawn if drawn else 0.0)
    first = passes[0]
    values["failed_frac"] = first.failed / max(1, first.attempted)
    values["trace.run_s"] = _run_s(passes)
    values["trace.overhead_s"] = values["trace.run_s"] - _run_s(ref_passes)
    values["bench.self_s"] = med(lambda t: sum(
        v for k, v in t.self_time.items() if k.startswith("bench.")))
    return values


def _declared_units(kind: str) -> dict[str, str]:
    """Metric name -> unit, in BENCHMARK.json's order."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "convexqe", "__init__.py")):
        print(f"error: no convexqe package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    probe = SpeedProbe()
    setup_tracer = Tracer(args.trace == 1)
    setup_times, setup_speeds = [], []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        setup_speeds.append(probe.factor(force=True))
        dt, cq, ctx = _set_up(setup_tracer, probe)
        setup_times.append(dt * setup_speeds[-1])

    import workloads  # binds the final import of the package
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    inputs = workload.make_inputs(ctx, args.seed)
    # warm-up on other inputs: lazy set-up such as oracle refinement
    workload.run_pass(ctx, workload.make_inputs(ctx, args.seed, warmup=True),
                      Tracer(False))

    if args.trace == 0:
        passes, _ = _repeat(workload, cq, probe, inputs, False,
                            args.seconds)
        ref_passes = passes
    else:
        ref_passes, _ = _repeat(workload, cq, probe, inputs, False,
                                args.seconds / 2)
        passes, tracers = _repeat(workload, cq, probe, inputs, True,
                                  args.seconds / 2)

    first = ref_passes[0]
    problems = list(first.gate_errors)
    for p in ref_passes[1:] + (passes if args.trace else []):
        if p.counts != first.counts:
            problems.append(f"counts differ between passes: {first.counts} "
                            f"vs {p.counts}")
    if args.trace == 0:
        values, detail = _end_to_end(setup_times, passes)
    else:
        values = _per_layer(setup_tracer, statistics.median(setup_speeds),
                            ref_passes, passes, tracers)
        detail = {"passes": len(passes), "untraced_passes": len(ref_passes)}
    units = _declared_units("per_layer" if args.trace else "end_to_end")
    if set(values) != set(units):
        print(f"error: metrics {sorted(set(values) ^ set(units))} differ "
              f"from BENCHMARK.json", file=sys.stderr)
        return 3
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    detail.update(workload=args.workload, seed=args.seed,
                  counts=first.counts, problems=problems[:20],
                  problem_count=len(problems))
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({"correct": not problems, "attempted": first.attempted,
                      "failed": first.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
