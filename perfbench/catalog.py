"""Catalog generation, cluster construction and environment pinning.

The catalog is the program's own seeded synthesis (``repro.data``) at a
fixed seed, so the named fault's rows are the same on every run; the
workload seed (``--seed``) only drives the query streams.
"""

from __future__ import annotations

import gc
import os
import shutil
import sys
import time
from pathlib import Path

#: Catalog seed: fixed, so the fault's rows do not depend on ``--seed``.
CATALOG_SEED = 7
NUM_WORKERS = 3
REPLICATION = 1
WORKER_SLOTS = 1
#: The paper's chunk geometry: 28 chunks over the PT1.1 footprint.
NUM_STRIPES = 85
NUM_SUB_STRIPES = 12
OVERLAP = 0.01667
SOURCES_PER_OBJECT = 3.0

#: Settings the timed process clears so program defaults are measured.
PINNED_ENV = (
    "REPRO_TRACE",
    "REPRO_TRACE_SAMPLE",
    "REPRO_HISTORY",
    "REPRO_SANITIZE",
    "REPRO_KERNELS",
    "REPRO_COLSTORE_BUDGET",
    "CHAOS_SEED",
)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"


def prepare() -> list[str]:
    """Clear the pinned settings and put the program on ``sys.path``.

    Must run before anything imports ``repro``: the program reads these
    settings at import time.  Exits with status 2 when the checkout holds
    no program to measure.
    """
    cleared = [k for k in PINNED_ENV if k in os.environ]
    for k in cleared:
        del os.environ[k]
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no program under {src} to benchmark", file=sys.stderr)
        sys.exit(2)
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    return cleared


def chunker():
    from repro.partition import Chunker

    return Chunker(NUM_STRIPES, NUM_SUB_STRIPES, OVERLAP)


def generate(num_objects: int, tracer=None):
    """``(objects, sources, chunker)`` for a catalog of ``num_objects``."""
    from repro.data import synthesize_objects, synthesize_sources

    synth_objects, synth_sources = synthesize_objects, synthesize_sources
    if tracer is not None:
        synth_objects = tracer.timed("data.synthesize", synth_objects)
        synth_sources = tracer.timed("data.synthesize", synth_sources)
    objects = synth_objects(num_objects, seed=CATALOG_SEED)
    sources = synth_sources(objects, SOURCES_PER_OBJECT, seed=CATALOG_SEED + 1)
    return objects, sources, chunker()


def build(objects, sources, chk, frontend_root: Path):
    from repro.data import build_testbed

    return build_testbed(
        num_workers=NUM_WORKERS,
        replication=REPLICATION,
        worker_slots=WORKER_SLOTS,
        chunker=chk,
        objects=objects,
        sources=sources,
        frontend_root=frontend_root,
    )


def teardown(testbed, frontend_root: Path) -> None:
    testbed.shutdown()
    shutil.rmtree(frontend_root, ignore_errors=True)


def set_up(num_objects: int, repeats: int, tracer=None):
    """Set up ``repeats`` times; keep the last cluster.

    Returns ``(testbed, objects, sources, chunker, frontend_root,
    setup_seconds)``.  Each set-up is catalog synthesis plus
    ``build_testbed``; earlier ones are torn down before the next starts,
    so peak memory is that of one cluster.
    """
    times = []
    for i in range(repeats):
        gc.collect()
        root = OUT_DIR / f"frontend-{os.getpid()}-{i}"
        shutil.rmtree(root, ignore_errors=True)
        t0 = time.perf_counter()
        objects, sources, chk = generate(num_objects, tracer)
        testbed = build(objects, sources, chk, root)
        times.append(time.perf_counter() - t0)
        if i < repeats - 1:
            teardown(testbed, root)
            del testbed, objects, sources
    return testbed, objects, sources, chk, root, times
