#!/usr/bin/env python3
"""Query-class benchmark of the in-process Qserv reproduction.

    python3 perfbench/run.py --workload lv_interactive --seed 1 --seconds 10 --trace 0

Builds a seeded cluster (3 workers, replication 1, one execution slot
per worker, the paper's 28-chunk geometry, frontend defaults), warms it
up, then drives the workload's closed-loop clients through
``QservFrontend`` for ``--seconds``.  Every answer is checked against the
independent oracle afterwards.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` --
the end-to-end metrics with ``--trace 0``; with ``--trace 1`` the
per-layer metrics of a traced window (plus its overhead against an
untraced window run just before it), and a Chrome trace is written
under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from collections import Counter, defaultdict

import catalog

WORKLOADS = ("lv_interactive", "hv_scan", "mixed_batch")
SETUP_REPEATS = 3


def _percentile(values, q):
    import numpy as np

    return float(np.percentile(np.asarray(values, dtype=float), q))


def _rows_covered(testbed, oracle):
    """A function giving the catalog rows one operation covered.

    A query covers the rows of every partitioned table it reads in every
    chunk the czar dispatched it to; a result served by the frontend's
    cache covers none.
    """
    import numpy as np

    object_rows = np.bincount(oracle.obj_chunk)
    source_rows = np.bincount(oracle.src_chunk) if len(oracle.src_chunk) else np.zeros(0, int)
    reads = {"lv2": (source_rows,), "lv2_fault": (source_rows,),
             "shv2": (object_rows, source_rows), "shv2_fault": (object_rows, source_rows)}
    plans: dict[str, list] = {}

    def covered(outcome):
        if outcome.cached or isinstance(outcome.answer, BaseException):
            return 0
        sql = outcome.op.sql
        if outcome.chunks is not None:
            chunks = outcome.chunks
        else:
            if sql not in plans:
                plans[sql] = testbed.czar.explain(sql).chunk_ids
            chunks = plans[sql]
        total = 0
        for rows in reads.get(outcome.op.kind, (object_rows,)):
            total += int(sum(rows[c] for c in chunks if c < len(rows)))
        return total

    return covered


def _judge(oracle, clients):
    """Per-class attempted and failed counts, and what was wrong."""
    import workloads

    attempted, failed, wrong = Counter(), Counter(), []
    for c in clients:
        if c.error is not None:
            wrong.append(f"{c.name}: client died: {c.error!r}")
        for o in c.outcomes:
            verdict = workloads.check(oracle, o.op, o.answer)
            attempted[o.op.kind] += 1
            if verdict != "ok":
                failed[o.op.kind] += 1
            if verdict == "wrong":
                err = o.answer if isinstance(o.answer, BaseException) else "answer differs from the oracle"
                wrong.append(f"{o.op.kind}: {err} -- {o.op.sql}")
            elif verdict == "fault" and not o.op.kind.endswith("_fault"):
                wrong.append(f"{o.op.kind}: seeded operation hit the named fault -- {o.op.sql}")
    return attempted, failed, wrong


def _end_to_end(testbed, oracle, clients, setup_times, peak_rss_mb):
    query_clients = [c for c in clients if c.name != "batch"]
    latencies = [o.seconds for c in query_clients for o in c.outcomes]
    q_wall = max(c.finished for c in query_clients) - min(c.started for c in query_clients)
    wall = max(c.finished for c in clients) - min(c.started for c in clients)
    covered = _rows_covered(testbed, oracle)
    rows = sum(covered(o) for c in clients for o in c.outcomes)
    ms = lambda v: {"value": v * 1e3, "unit": "ms"}  # noqa: E731
    return {
        "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        "query_p50_ms": ms(statistics.median(latencies)),
        "query_p95_ms": ms(_percentile(latencies, 95)),
        "queries_per_s": {"value": len(latencies) / q_wall, "unit": "1/s"},
        "rows_per_s": {"value": rows / wall, "unit": "rows/s"},
    }


def _summary(workload, clients, attempted, failed):
    """Human-readable lines: per-class counts and medians, cache and jobs."""
    by_kind = defaultdict(list)
    for c in clients:
        for o in c.outcomes:
            by_kind[o.op.kind].append(o.seconds)
    for kind in sorted(attempted):
        print(f"  {workload} {kind:10s} attempted={attempted[kind]:6d} failed={failed[kind]:5d} "
              f"p50={statistics.median(by_kind[kind]) * 1e3:8.2f} ms")
    queries = [o for c in clients if c.name != "batch" for o in c.outcomes]
    if workload != "hv_scan" and queries:
        share = sum(o.cached for o in queries) / len(queries)
        print(f"  {workload} result-cache share of queries: {share:.3f}")
    for c in clients:
        if c.name == "batch" and c.outcomes:
            lat = [o.seconds for o in c.outcomes]
            print(f"  {workload} jobs: p50={statistics.median(lat) * 1e3:.2f} ms "
                  f"jobs/s={len(lat) / (c.finished - c.started):.2f}")


def _traced_window(args, testbed, tracer, probe, oracle):
    """The traced window and the program's own counter deltas over it."""
    from repro.obs import metrics as obs_metrics
    import workloads

    def counters():
        registry = obs_metrics.REGISTRY
        return (registry.counter("kernel.cache.hits").value,
                registry.counter("kernel.cache.misses").value,
                testbed.czar.metrics.counter("czar.plan_cache.misses").value,
                sum(w.stats.sub_chunk_tables_built for w in testbed.workers.values()))

    before = counters()
    tracer.install()
    since = time.perf_counter()
    traced = workloads.window(args.workload, testbed.frontend, probe, oracle, args.seed, args.seconds, 2)
    tracer.uninstall()
    deltas = [a - b for a, b in zip(counters(), before)]
    return traced, since, deltas


def _per_layer(args, tracer, setup_spans, measured, traced, since, deltas):
    """Per-layer metrics of the traced window; ``None`` if the live check fails."""
    import tracer as trc

    hits, misses, plan_misses, builds = deltas
    metrics = trc.layer_metrics(tracer.spans, setup_spans)
    metrics["sql.kernel.hit_ratio"] = {"value": hits / (hits + misses) if hits + misses else 0.0,
                                       "unit": "ratio"}
    lat = lambda cs: [o.seconds for c in cs if c.name != "batch" for o in c.outcomes]  # noqa: E731
    metrics["trace.overhead_pct"] = {
        "value": (statistics.median(lat(traced)) / statistics.median(lat(measured)) - 1.0) * 100.0,
        "unit": "%"}
    path = catalog.OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
    tracer.write_chrome_trace(path, since)
    print(f"  chrome trace: {path.relative_to(catalog.ROOT)} ({len(tracer.spans)} spans)")
    missing = trc.live_check(args.workload, tracer.spans, setup_spans)
    analyzed = sum(1 for s in tracer.spans if s.name == trc.PLAN[0])
    recorded_builds = sum(1 for s in tracer.spans if s.name == trc.DB_EXECUTE and s.note)
    if analyzed != plan_misses:
        missing.append(f"analyze spans {analyzed} != czar plan-cache misses {plan_misses}")
    if recorded_builds != builds:
        missing.append(f"sub-chunk build spans {recorded_builds} != workers' count {builds}")
    for m in missing:
        print(f"live-wrapper check FAILED: {m}", file=sys.stderr)
    return None if missing else metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Qserv query-class benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    cleared = catalog.prepare()
    print(f"pinned environment: cleared {', '.join(cleared) if cleared else 'nothing'}")
    import oracle as orc
    import tracer as trc
    import workloads

    problems = orc.self_check()
    if problems:
        for p in problems:
            print("oracle self-check FAILED:", p, file=sys.stderr)
        return 1
    catalog.OUT_DIR.mkdir(exist_ok=True)

    tracer = trc.Tracer() if args.trace else None
    if tracer is not None:
        tracer.propagate_context()
        tracer.install()
    testbed, objects, sources, chunker, root, setup_times = catalog.set_up(
        workloads.CATALOG[args.workload], 1 if tracer else SETUP_REPEATS, tracer)
    setup_spans = []
    if tracer is not None:
        tracer.uninstall()
        setup_spans, tracer.spans = tracer.spans, []
    try:
        oracle = orc.CatalogOracle(objects, sources, chunker)
        probe = workloads.CacheProbe(testbed.frontend.cache)
        warm = workloads.window(args.workload, testbed.frontend, probe, oracle, args.seed, 0.0, 0)
        measured = workloads.window(args.workload, testbed.frontend, probe, oracle, args.seed,
                                    args.seconds, 1)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        traced = []
        if tracer is not None:
            traced, since, deltas = _traced_window(args, testbed, tracer, probe, oracle)

        _, _, wrong = _judge(oracle, warm)
        attempted, failed, measured_wrong = _judge(oracle, measured + traced)
        wrong += measured_wrong
        _summary(args.workload, measured, attempted, failed)
        if tracer is None:
            metrics = _end_to_end(testbed, oracle, measured, setup_times, peak_rss_mb)
        else:
            metrics = _per_layer(args, tracer, setup_spans, measured, traced, since, deltas)
            if metrics is None:
                return 1
    finally:
        catalog.teardown(testbed, root)

    for w in wrong[:20]:
        print("WRONG:", w, file=sys.stderr)
    correct = not wrong
    print(json.dumps({
        "correct": correct,
        "attempted": sum(attempted.values()),
        "failed": sum(failed.values()),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
