"""Repository benchmark: sk-NN workloads end to end, or layer by layer.

Run from the repository root::

    python3 perfbench/run.py --workload rugged_ksweep --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing patched.
``--trace 1`` repeats the same run untraced, then again with the layer
wrappers of ``perfbench/tracing.py`` installed, checks that both give
identical answers, removes the wrappers, and reports per-layer
metrics.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  Metric names
and units, and the reason each workload exists, are read from
``BENCHMARK.json``.

A run is ``rounds`` rounds.  Each builds the engine, makes one untimed
warm-up pass over the queries in their fixed order, then repeats whole
timed passes, each in an order drawn from ``--seed``, for its share of
``--seconds`` (at least one).  Every time is CPU time scaled
to a reference host speed with the probe of ``metrics.probe``, run in
the same thread right before and after each build and each query.
``setup_s`` is the median scaled build time over the rounds and
``warmup_s`` the mean scaled warm-up pass.  A query's latency is the
median of its scaled times over all timed passes.
``latency_p50_ms`` and ``latency_tail_ms`` are taken over those
per-query latencies.  Correctness checks run after the timed passes.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import random
import statistics
import sys
import time

from metrics import (
    PROBE_REF_S,
    check_names,
    environment,
    peak_rss_mb,
    probe,
    scaled,
    tail_percentile,
)
from tracing import (
    QUERY_ROOTS,
    LayerTracer,
    layer_totals,
    leftover_wrappers,
    self_times,
)

#: Per-layer metric -> the span name its build seconds are summed over.
BUILD_LAYERS = {
    "msdn.build_s": "msdn.build",
    "multires.dmtm_build_s": "multires.dmtm_build",
    "simplification.collapse_history_s": "simplification.collapse_history",
    "terrain.mesh_from_dem_s": "terrain.mesh_from_dem",
}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def units(spec: dict, section: str) -> dict:
    """Metric name -> unit for one section of ``BENCHMARK.json``."""
    return {m["name"]: m["unit"] for m in spec[section]}


# ----------------------------------------------------------------------
# running
# ----------------------------------------------------------------------


@contextlib.contextmanager
def _frozen():
    """Move every object alive now (the engine, its memos) to the
    collector's permanent generation for the duration of a pass, so a
    full collection during a query scans only that query's objects.
    Otherwise a ~30 ms collection lands on whichever query crosses the
    allocation threshold, which moves with the query order."""
    gc.collect()
    gc.freeze()
    try:
        yield
    finally:
        gc.unfreeze()


def _pass(workload, engine, queries, rng=None):
    """One pass over ``queries``, in an order drawn from ``rng`` if one
    is given and the workload reorders its passes; the outcomes come
    back in the order of ``queries``."""
    order = list(range(len(queries)))
    if rng is not None and workload.reorder:
        rng.shuffle(order)
    with _frozen():
        report = workload.run_pass(engine, [queries[i] for i in order])
    outcomes = [None] * len(order)
    for position, i in enumerate(order):
        outcomes[i] = report.outcomes[position]
    report.outcomes = outcomes
    return report


def _seconds(workload, report) -> float:
    """How long a pass took at the reference host speed: the summed
    latencies of its one client, or, for concurrent workers, its wall
    time scaled by the median probe of its queries."""
    if workload.wall_clock:
        return scaled(report.wall, statistics.median(o.probe for o in report.outcomes))
    return sum(o.scaled for o in report.outcomes)


def _timed_passes(workload, engine, queries, rng, seconds: float, passes=None):
    """Whole passes until ``seconds`` have elapsed, at least one (or
    exactly ``passes``)."""
    out = []
    start = time.perf_counter()
    while True:
        out.append(_pass(workload, engine, queries, rng))
        if len(out) == passes or (
            passes is None and time.perf_counter() - start >= seconds
        ):
            return out


def _rounds(workload, dem, queries, rng, rounds: int, seconds: float):
    """``rounds`` times: build the engine, make its warm-up pass, then
    timed passes for the round's share of ``seconds``.

    Returns the last engine, the process CPU seconds of each build at
    the reference host speed, and the warm-up and timed passes'
    reports."""
    setups, warms, timed = [], [], []
    engine = None
    for _ in range(rounds):
        engine = None
        gc.collect()
        before = probe()
        start = time.process_time()
        engine = workload.build(dem)
        setups.append(scaled(time.process_time() - start, (before + probe()) / 2))
        warms.append(_pass(workload, engine, queries))
        timed.extend(_timed_passes(workload, engine, queries, rng, seconds / rounds))
    return engine, setups, warms, timed


def _flag(bad: dict, p: int, i: int, msgs) -> None:
    if msgs:
        bad.setdefault((p, i), []).extend(msgs)


def _check_structure(bad: dict, reports, first: int) -> None:
    from checks import structural_violations

    for p, report in enumerate(reports, start=first):
        for i, outcome in enumerate(report.outcomes):
            _flag(bad, p, i, structural_violations(outcome))


def _check_same(bad, reference, reports, first: int, pages: bool, what: str):
    from checks import mismatches

    for p, (ref, report) in enumerate(zip(reference, reports), start=first):
        for i in mismatches(ref.outcomes, report.outcomes, pages):
            _flag(bad, p, i, [what])


def run_untraced(workload, seed: int, seconds: float, rounds=None) -> dict:
    """One run.  The failure map ``bad`` is keyed by (pass, query);
    the warm-up passes come first, then the timed ones."""
    from checks import truth_check

    dem = workload.dem()
    queries = workload.queries(dem)
    engine, setups, warms, timed = _rounds(
        workload, dem, queries, random.Random(seed), rounds or workload.rounds,
        seconds,
    )
    rss = peak_rss_mb()

    bad: dict = {}
    passes = [*warms, *timed]
    _check_structure(bad, passes, 0)
    _check_same(bad, passes[:1] * (len(passes) - 1), passes[1:], 1,
                workload.pages_repeat, "answer differs from the first warm-up pass")
    mesh, objects = workload.truth_mesh(engine, dem)
    hits = asked = 0
    for i, outcome in enumerate(timed[0].outcomes):
        if outcome.query.checked:
            msgs, found = truth_check(mesh, objects, outcome)
            _flag(bad, len(warms), i, msgs)
            hits, asked = hits + found, asked + outcome.query.k
    return {
        "dem": dem, "queries": queries, "setups": setups, "warms": warms,
        "timed": timed, "rss": rss, "bad": bad, "recall": hits / asked,
    }


def end_to_end(workload, run: dict) -> tuple[dict, dict]:
    """The end-to-end metrics, and how the tail was taken."""
    timed = run["timed"]
    per_query = [
        statistics.median(report.outcomes[i].scaled for report in timed)
        for i in range(len(timed[0].outcomes))
    ]
    tail, pct, n = tail_percentile(per_query)
    results = [o.result for r in timed for o in r.outcomes if o.result is not None]
    values = {
        "setup_s": statistics.median(run["setups"]),
        "warmup_s": statistics.fmean(_seconds(workload, r) for r in run["warms"]),
        "latency_p50_ms": 1000.0 * statistics.median(per_query),
        "latency_tail_ms": 1000.0 * tail,
        "throughput_qps": statistics.median(
            sum(o.result is not None for o in r.outcomes) / _seconds(workload, r)
            for r in timed
        ),
        "pages_per_query": statistics.fmean(
            r.metrics.pages_accessed for r in results
        ) if results else 0.0,
        "topk_recall": run["recall"],
        "peak_rss_mb": run["rss"],
    }
    return values, {"percentile": pct, "samples": n}


def run_traced(workload, seed: int, seconds: float) -> dict:
    """An untraced reference run with one set-up, then set-up, warm-up
    and as many timed passes again with the layer wrappers installed."""
    ref = run_untraced(workload, seed, seconds, rounds=1)
    gc.collect()
    tracer = LayerTracer()
    with tracer:
        engine = workload.build(ref["dem"])
        after_setup = tracer.mark()
        rng = random.Random(seed)
        warm = _pass(workload, engine, ref["queries"])
        after_warm = tracer.mark()
        timed = _timed_passes(
            workload, engine, ref["queries"], rng, seconds, passes=len(ref["timed"])
        )
    bad = dict(ref["bad"])
    first = 1 + len(ref["timed"])
    _check_structure(bad, [warm, *timed], first)
    _check_same(bad, [*ref["warms"], *ref["timed"]], [warm, *timed], first,
                workload.pages_repeat, "traced answer differs from untraced")
    return {
        "ref": ref, "tracer": tracer, "warm": warm, "timed": timed,
        "after_setup": after_setup, "after_warm": after_warm, "bad": bad,
        "leftovers": leftover_wrappers(),
    }


def per_layer(traced: dict, layer_units: dict) -> dict:
    """Per-layer metrics, for the names and units of ``layer_units``.
    ``<span>.calls`` and ``<span>.self_s`` in a ``/query`` unit are per
    executed query of the timed traced passes; build figures are
    totals over the traced set-up, warm-up and timed passes."""
    from workloads import WORKERS

    tracer = traced["tracer"]
    selfs = self_times(tracer.spans)
    timed_spans = tracer.since(traced["after_warm"])
    lazy_spans = tracer.since(traced["after_setup"])
    timed, ref_timed = traced["timed"], traced["ref"]["timed"]
    q = max(1, sum(len(r.outcomes) for r in timed))
    per_query = layer_totals(timed_spans, selfs)
    overall = layer_totals(tracer.spans, selfs)
    empty = {"calls": 0, "self_s": 0.0}
    out = {}
    for name, unit in layer_units.items():
        layer, _, field = name.rpartition(".")
        if unit.endswith("/query") and field in empty:
            out[name] = per_query.get(layer, empty)[field] / q
    for metric, layer in BUILD_LAYERS.items():
        out[metric] = overall.get(layer, empty)["self_s"]
    out["storage.pages_allocated"] = overall.get("storage.allocate", empty)["calls"]
    results = [o.result for r in timed for o in r.outcomes if o.result is not None]
    n = max(1, len(results))
    logical = sum(r.metrics.logical_reads for r in results)
    physical = sum(r.metrics.pages_accessed for r in results)
    out["storage.logical_reads_per_query"] = logical / n
    out["storage.buffer_hit_rate"] = 1.0 - physical / logical if logical else 0.0
    candidates = sum(
        t[0].active_before
        for r in results
        for t in (r.filter_trace, r.ranking_trace)
        if t
    )
    out["core.candidates_per_k"] = candidates / max(1, sum(r.k for r in results))
    out["core.levels_per_query"] = sum(
        len(r.filter_trace) + len(r.ranking_trace) for r in results
    ) / n
    out["core.unconverged_share"] = sum(not r.converged for r in results) / n

    # Batch figures come from the untraced passes: the counts are the
    # same, and busy time is not inflated by the wrappers.  Busy share
    # is the workers' CPU time over their wall time, so time spent
    # waiting for the interpreter lock lowers it.
    batched = [r for r in ref_timed if r.cache_stats]
    hits = sum(r.cache_stats["hits"] + r.cache_stats["network_hits"] for r in batched)
    lookups = hits + sum(
        r.cache_stats["misses"] + r.cache_stats["network_misses"] for r in batched
    )
    out["batch.bound_cache.lookups"] = lookups / max(
        1, sum(len(r.outcomes) for r in batched)
    )
    out["batch.bound_cache.hit_rate"] = hits / lookups if lookups else 0.0
    out["batch.worker_busy_share"] = statistics.fmean(
        sum(o.latency for o in r.outcomes) / (r.wall * WORKERS) for r in batched
    ) if batched else 0.0

    builds = [s for s in lazy_spans if s.name == "shard.build_window"]
    out["shard.window_builds"] = len(builds)
    out["shard.window_build_s"] = sum(s.duration for s in builds)
    shard_queries = [
        s for s in timed_spans if s.name == "shard.query" and s.parent is None
    ]
    window_queries = [
        s for s in timed_spans
        if s.name == "engine.query" and s.parent is not None
        and s.parent.name == "shard.query"
    ]
    out["shard.windows_per_query"] = (
        len(window_queries) / len(shard_queries) if shard_queries else 0.0
    )

    untraced = sum(r.cpu for r in ref_timed)
    out["trace.overhead_share"] = (sum(r.cpu for r in timed) - untraced) / untraced
    roots = [s for s in timed_spans if s.name in QUERY_ROOTS and s.parent is None]
    root_time = sum(s.duration for s in roots)
    out["trace.unattributed_share"] = (
        sum(selfs[s] for s in roots) / root_time if root_time else 0.0
    )
    return {name: out[name] for name in layer_units}


# ----------------------------------------------------------------------
# reporting
# ----------------------------------------------------------------------


def _answer_shares(reports) -> dict:
    results = [o.result for r in reports for o in r.outcomes if o.result is not None]
    n = max(1, len(results))
    return {
        "degraded": sum(r.degraded for r in results) / n,
        "not_converged": sum(not r.converged for r in results) / n,
        "either": sum(r.degraded or not r.converged for r in results) / n,
    }


def _print_table(values: dict, units: dict) -> None:
    width = max(len(name) for name in values)
    for name, value in values.items():
        print(f"  {name:<{width}}  {value:>14.6g}  {units[name]}")


def _print_failures(bad: dict) -> None:
    for (p, i), msgs in sorted(bad.items())[:20]:
        for msg in msgs[:3]:
            print(f"  FAILED pass {p} query {i}: {msg}")


def main(argv=None) -> int:
    args = _parse(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(
            "perfbench: no src/repro under the working directory; run "
            "from the repository root",
            file=sys.stderr,
        )
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    sys.path.insert(0, src)
    from workloads import WORKERS, WORKLOADS

    why = {w["name"]: w["why"] for w in spec["workloads"]}
    workload = WORKLOADS.get(args.workload)
    if workload is None or args.workload not in why:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(why)}", file=sys.stderr)
        return 2
    env = environment(root, args.seed, WORKERS)
    env.update(workload=workload.name, why=why[workload.name], trace=args.trace)
    print("env " + json.dumps(env, sort_keys=True))

    if args.trace:
        names = units(spec, "per_layer")
        traced = run_traced(workload, args.seed, args.seconds)
        values, bad = per_layer(traced, names), traced["bad"]
        reports = [*traced["ref"]["warms"], *traced["ref"]["timed"],
                   traced["warm"], *traced["timed"]]
        if traced["leftovers"]:
            print("  wrappers left installed: " + ", ".join(traced["leftovers"]))
        clean = not traced["leftovers"]
    else:
        names = units(spec, "end_to_end")
        run = run_untraced(workload, args.seed, args.seconds)
        (values, tail), bad = end_to_end(workload, run), run["bad"]
        values = {name: values[name] for name in names}
        reports = [*run["warms"], *run["timed"]]
        shares = _answer_shares(reports)
        print(f"  queries {len(run['queries'])}, timed passes {len(run['timed'])}, "
              f"setups {[round(s, 3) for s in run['setups']]}, warm-ups "
              f"{[round(_seconds(workload, r), 3) for r in run['warms']]}")
        probes = [o.probe for r in reports for o in r.outcomes]
        print(f"  probe median {1000 * statistics.median(probes):.3f} ms "
              f"(reference {1000 * PROBE_REF_S:.3f} ms), raw latency median "
              f"{1000 * statistics.median(o.latency for r in run['timed'] for o in r.outcomes):.3f} ms")
        print(f"  latency_tail_ms is p{tail['percentile']:.1f} over "
              f"{tail['samples']} per-query latencies")
        print(f"  failed_share {len(bad) / sum(len(r.outcomes) for r in reports):.4f}"
              f"  degraded_share {shares['either']:.4f} (degraded "
              f"{shares['degraded']:.4f}, not converged {shares['not_converged']:.4f})")
        clean = True
    check_names(values)
    _print_table(values, names)
    _print_failures(bad)
    print(json.dumps({
        "correct": not bad and clean,
        "attempted": sum(len(r.outcomes) for r in reports),
        "failed": len(bad),
        "metrics": {
            name: {"value": float(values[name]), "unit": unit}
            for name, unit in names.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
