"""Span recording around the program's layer boundaries, from outside it.

The traced run replaces each wrapped function under the name its caller
resolves (``repro.qserv.czar.analyze``, ``repro.qserv.worker.encode_table``,
``repro.sql.engine.Database.execute``, ...) with a recorder, keeps every
span in memory as ``(id, name, start, end, parent, query, thread, note)``,
and derives the per-layer metrics once the run ends.

Query attribution: ``Czar.submit`` opens a query; the span context rides
a :class:`contextvars.ContextVar` into the czar's dispatch pools (their
class is replaced with one that runs each task in the submitter's
context); a chunk query carries it across the worker FIFO, keyed by the
chunk-query text from ``on_write`` to ``execute_chunk_query``.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import itertools
import json
import statistics
import threading
from collections import defaultdict, deque
from concurrent.futures import ThreadPoolExecutor
from time import perf_counter

# Module-level functions, patched where their callers resolve them: (module, name).
_MODULE_FUNCS = (
    ("repro.qserv.czar", "analyze"),
    ("repro.qserv.czar", "build_aggregation_plan"),
    ("repro.qserv.czar", "generate_chunk_queries"),
    ("repro.qserv.czar", "generate_merge_query"),
    ("repro.qserv.czar", "decode_table"),
    ("repro.qserv.worker", "encode_table"),
    ("repro.qserv.analysis", "parse_one"),
    ("repro.sql.engine", "parse"),
    ("repro.sql.parser", "parse"),
    ("repro.data.cluster", "load_tables"),
)
# Methods, patched on their class: (module, class, method).
_METHODS = (
    ("repro.qserv.czar", "Czar", "submit"),
    ("repro.xrd.client", "XrdClient", "write_file"),
    ("repro.xrd.client", "XrdClient", "read_file"),
    ("repro.xrd.redirector", "Redirector", "locate"),
    ("repro.qserv.worker", "QservWorker", "on_write"),
    ("repro.qserv.worker", "QservWorker", "execute_chunk_query"),
    ("repro.sql.engine", "Database", "execute"),
    ("repro.sql.kernels", "KernelCache", "get_or_compile"),
    ("repro.qserv.secondary_index", "SecondaryIndex", "lookup"),
    ("repro.qserv.secondary_index", "SecondaryIndex", "chunks_for"),
    ("repro.qserv.secondary_index", "SecondaryIndex", "add_entries"),
    ("repro.qserv.secondary_index", "SecondaryIndex", "finalize"),
    ("repro.qserv.frontend.admission", "AdmissionController", "acquire"),
    ("repro.qserv.frontend.cache", "ResultCache", "get"),
    ("repro.qserv.frontend.jobs", "JobJournal", "append"),
    ("repro.qserv.frontend.mydb", "MyDb", "stage"),
    ("repro.qserv.frontend.mydb", "MyDb", "publish"),
    ("repro.qserv.frontend.mydb", "MyDb", "save"),
)

SUBMIT = "repro.qserv.czar.Czar.submit"
WRITE = "repro.xrd.client.XrdClient.write_file"
READ = "repro.xrd.client.XrdClient.read_file"
LOCATE = "repro.xrd.redirector.Redirector.locate"
ON_WRITE = "repro.qserv.worker.QservWorker.on_write"
EXEC_CHUNK = "repro.qserv.worker.QservWorker.execute_chunk_query"
DB_EXECUTE = "repro.sql.engine.Database.execute"
KERNEL = "repro.sql.kernels.KernelCache.get_or_compile"
PARSES = ("repro.sql.engine.parse", "repro.sql.parser.parse", "repro.qserv.analysis.parse_one")
PLAN = ("repro.qserv.czar.analyze", "repro.qserv.czar.build_aggregation_plan",
        "repro.qserv.czar.generate_chunk_queries")
INDEX_LOOKUP = ("repro.qserv.secondary_index.SecondaryIndex.lookup",
                "repro.qserv.secondary_index.SecondaryIndex.chunks_for")
INDEX_BUILD = ("repro.qserv.secondary_index.SecondaryIndex.add_entries",
               "repro.qserv.secondary_index.SecondaryIndex.finalize")
JOURNAL = "repro.qserv.frontend.jobs.JobJournal.append"
MYDB_WRITES = tuple(f"repro.qserv.frontend.mydb.MyDb.{m}" for m in ("stage", "publish", "save"))


class Span:
    __slots__ = ("sid", "name", "t0", "t1", "parent", "qid", "tid", "note")

    def __init__(self, sid, name, t0, t1, parent, qid, tid, note):
        self.sid, self.name, self.t0, self.t1 = sid, name, t0, t1
        self.parent, self.qid, self.tid, self.note = parent, qid, tid, note

    @property
    def dur(self):
        return self.t1 - self.t0


def _note_for(name):
    """What a span keeps of its call beyond timing, by wrapped function."""
    if name == WRITE:
        return lambda a, k, r: a[1].startswith("/query2/")
    if name == READ:
        return lambda a, k, r: len(r) if a[1].startswith("/result/") and r else 0
    if name == DB_EXECUTE:
        return lambda a, k, r: a[1].lstrip()[:12].upper() == "CREATE TABLE"
    if name == "repro.qserv.frontend.cache.ResultCache.get":
        return lambda a, k, r: r is not None
    if name == JOURNAL:
        return lambda a, k, r: (a[1].get("type"), a[1].get("job"))
    if name == "repro.qserv.frontend.mydb.MyDb.stage":
        return lambda a, k, r: a[1]
    if name == "repro.qserv.frontend.mydb.MyDb.publish":
        return lambda a, k, r: a[3] if len(a) > 3 else k.get("key")
    return None


class Tracer:
    """In-memory span recorder installed over the program's functions."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._ctx = contextvars.ContextVar("perfbench_span", default=None)
        self._patches: list[tuple] = []
        # Chunk-query text -> FIFO of (query id, enqueue time).
        self._pending: dict[str, deque] = defaultdict(deque)
        self._pending_lock = threading.Lock()

    # -- recording -------------------------------------------------------------------

    def _record(self, sid, name, t0, t1, parent, qid, note):
        self.spans.append(Span(sid, name, t0, t1, parent, qid, threading.get_ident(), note))

    def timed(self, name, fn, root=False):
        """``fn`` wrapped to record one span per call under ``name``."""
        note = _note_for(name)
        ctx = self._ctx
        ids = self._ids
        record = self._record

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = ctx.get()
            sid = next(ids)
            qid = sid if root else (parent[0] if parent else None)
            token = ctx.set((qid, sid))
            result = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = perf_counter()
                ctx.reset(token)
                record(sid, name, t0, t1, parent[1] if parent else None, qid,
                       note(args, kwargs, result) if note else None)

        return wrapper

    def _on_write(self, fn):
        """``on_write`` hands the caller's context to the chunk query's execution."""
        inner = self.timed(ON_WRITE, fn)
        ctx = self._ctx

        @functools.wraps(fn)
        def wrapper(worker, path, data, *args, **kwargs):
            if path.startswith("/query2/"):
                parent = ctx.get()
                text = data.decode() if isinstance(data, (bytes, bytearray)) else data
                with self._pending_lock:
                    self._pending[text].append((parent[0] if parent else None, perf_counter()))
            return inner(worker, path, data, *args, **kwargs)

        return wrapper

    def _execute_chunk(self, fn):
        ctx = self._ctx

        @functools.wraps(fn)
        def wrapper(worker, chunk_id, text, *args, **kwargs):
            t0 = perf_counter()
            with self._pending_lock:
                fifo = self._pending.get(text)
                qid, enqueued = fifo.popleft() if fifo else (None, t0)
                if fifo is not None and not fifo:
                    del self._pending[text]
            sid = next(self._ids)
            ctx.set((qid, sid))
            try:
                return fn(worker, chunk_id, text, *args, **kwargs)
            finally:
                t1 = perf_counter()
                # The slot thread encodes the result right after this
                # returns: leave the query id current for that span.
                ctx.set((qid, None))
                self._record(sid, EXEC_CHUNK, t0, t1, None, qid, t0 - enqueued)

        return wrapper

    # -- installation ------------------------------------------------------------------

    def propagate_context(self) -> None:
        """Make the czar's dispatch pools run tasks in the submitter's context.

        Must precede ``build_testbed``: the czar creates its pools then.
        Stays in place for the whole traced process.
        """
        czar = importlib.import_module("repro.qserv.czar")

        class ContextPool(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                return super().submit(contextvars.copy_context().run, fn, *args, **kwargs)

        czar.ThreadPoolExecutor = ContextPool

    def install(self) -> None:
        if self._patches:
            return
        for modname, attr in _MODULE_FUNCS:
            mod = importlib.import_module(modname)
            original = getattr(mod, attr)
            self._patch(mod, attr, original, self.timed(f"{modname}.{attr}", original))
        for modname, clsname, attr in _METHODS:
            cls = getattr(importlib.import_module(modname), clsname)
            name = f"{modname}.{clsname}.{attr}"
            original = cls.__dict__[attr]
            if name == ON_WRITE:
                wrapped = self._on_write(original)
            elif name == EXEC_CHUNK:
                wrapped = self._execute_chunk(original)
            else:
                wrapped = self.timed(name, original, root=(name == SUBMIT))
            self._patch(cls, attr, original, wrapped)

    def _patch(self, owner, attr, original, value) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        with self._pending_lock:
            self._pending.clear()

    # -- output ------------------------------------------------------------------------

    def write_chrome_trace(self, path, since: float = 0.0) -> None:
        events = [
            {
                "name": s.name.rsplit(".", 2)[-2] + "." + s.name.rsplit(".", 1)[-1],
                "cat": s.name,
                "ph": "X",
                "ts": round(s.t0 * 1e6, 3),
                "dur": round(s.dur * 1e6, 3),
                "pid": 1,
                "tid": s.tid,
                "args": {"id": s.sid, "parent": s.parent, "query": s.qid},
            }
            for s in self.spans
            if s.t0 >= since
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)


# -- per-layer metrics ----------------------------------------------------------------------


def _union_length(intervals, lo, hi) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    end = lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def layer_metrics(spans: list[Span], setup_spans: list[Span]) -> dict:
    """Every per-layer metric from the spans of one traced window.

    Timings are medians in ms with a ``.calls`` count beside them; a layer
    the workload never reaches reads 0 with 0 calls.
    """
    by_name: dict[str, list[Span]] = defaultdict(list)
    children: dict[int, list[Span]] = defaultdict(list)
    by_query: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
        if s.parent is not None:
            children[s.parent].append(s)
        if s.qid is not None:
            by_query[s.qid].append(s)

    def named(*names):
        return [s for n in names for s in by_name.get(n, ())]

    def self_time(s):
        kids = children.get(s.sid, ())
        return s.dur - _union_length([(c.t0, c.t1) for c in kids], s.t0, s.t1)

    out: dict[str, dict] = {}

    def timing(metric, seconds, unit="ms", scale=1e3):
        out[metric] = {"value": statistics.median(seconds) * scale if seconds else 0.0, "unit": unit}
        out[metric + ".calls"] = {"value": len(seconds), "unit": "count"}

    def ratio(metric, num, den):
        out[metric] = {"value": num / den if den else 0.0, "unit": "ratio"}

    roots = by_name.get(SUBMIT, [])
    queries = [by_query[r.qid] for r in roots]

    # frontend
    timing("frontend.admission.wait_ms", [s.dur for s in by_name.get(
        "repro.qserv.frontend.admission.AdmissionController.acquire", ())])
    gets = by_name.get("repro.qserv.frontend.cache.ResultCache.get", [])
    ratio("frontend.cache.hit_ratio", sum(1 for s in gets if s.note), len(gets))
    appends = by_name.get(JOURNAL, [])
    timing("frontend.jobs.journal_append_ms", [s.dur for s in appends])
    per_key: dict[str, float] = defaultdict(float)
    for s in named(*MYDB_WRITES):
        per_key[s.note or s.sid] += s.dur
    timing("frontend.mydb.write_ms", list(per_key.values()))
    submitted = {s.note[1]: s.t1 for s in appends if s.note[0] == "submit"}
    started = {}
    for s in appends:
        if s.note[0] == "start" and s.note[1] in submitted:
            started.setdefault(s.note[1], s.t0 - submitted[s.note[1]])
    timing("frontend.jobs.queue_wait_ms", list(started.values()))

    # czar
    planned = [sum(s.dur for s in q if s.name in PLAN) for q in queries
               if any(s.name == PLAN[0] for s in q)]
    timing("czar.plan_ms", planned)
    ratio("czar.plan.cache_hit_ratio", len(roots) - len(planned), len(roots))
    chunk_writes = [sum(1 for s in q if s.name == WRITE and s.note) for q in queries]
    out["czar.chunks_per_query"] = {
        "value": statistics.fmean(chunk_writes) if chunk_writes else 0.0, "unit": "count"}
    timing("czar.dispatch_ms", [self_time(s) for s in by_name.get(WRITE, ()) if s.note])
    reads = [s for s in by_name.get(READ, ()) if s.note]
    timing("czar.collect_wait_ms", [s.dur for s in reads])
    timing("czar.decode_ms", [s.dur for s in by_name.get("repro.qserv.czar.decode_table", ())])
    merge = []
    for r, q in zip(roots, queries):
        merge.append(sum(s.dur for s in q if s.name == "repro.qserv.czar.generate_merge_query"
                         or (s.name == DB_EXECUTE and s.parent == r.sid)))
    timing("czar.merge_ms", merge)
    result_bytes = [sum(s.note for s in q if s.name == READ and s.note) for q in queries]
    out["xrd.result_bytes"] = {
        "value": statistics.median(result_bytes) if result_bytes else 0.0, "unit": "bytes"}
    unattributed = []
    for r, q in zip(roots, queries):
        covered = _union_length([(s.t0, s.t1) for s in q if s is not r], r.t0, r.t1)
        unattributed.append(r.dur - covered)
    timing("czar.unattributed_ms", unattributed)

    # secondary index, xrd
    timing("secondary_index.lookup_ms", [s.dur for s in named(*INDEX_LOOKUP)])
    timing("xrd.locate_ms", [s.dur for s in by_name.get(LOCATE, ())])

    # worker
    executes = by_name.get(EXEC_CHUNK, [])
    timing("worker.queue_wait_ms", [s.note for s in executes])
    timing("worker.execute_ms", [s.dur for s in executes])
    timing("worker.encode_ms", [s.dur for s in by_name.get("repro.qserv.worker.encode_table", ())])
    builds = [sum(1 for s in q if s.name == DB_EXECUTE and s.note) for q in queries]
    builds = [b for b in builds if b]
    out["worker.subchunk_tables_built"] = {
        "value": statistics.fmean(builds) if builds else 0.0, "unit": "count"}
    out["worker.subchunk_tables_built.total"] = {"value": sum(builds), "unit": "count"}

    # sql
    parses = named(*PARSES)
    timing("sql.parse_ms", [s.dur for s in parses])
    ratio("sql.parse_calls_per_query", sum(1 for s in parses if s.qid is not None), len(roots))
    out["sql.parse_calls_per_query"]["unit"] = "count"
    timing("sql.execute_ms", [self_time(s) for s in by_name.get(DB_EXECUTE, ())])
    timing("sql.kernel.compile_ms", [s.dur for s in by_name.get(KERNEL, ())])

    # data (set-up)
    setup_by_name: dict[str, list[Span]] = defaultdict(list)
    for s in setup_spans:
        setup_by_name[s.name].append(s)
    index_s = sum(s.dur for n in INDEX_BUILD for s in setup_by_name.get(n, ()))
    load = setup_by_name.get("repro.data.cluster.load_tables", [])
    inside_load = sum(s.dur for s in setup_by_name.get(INDEX_BUILD[0], ())
                      if any(l.t0 <= s.t0 and s.t1 <= l.t1 for l in load))
    out["data.synthesize_s"] = {"value": sum(s.dur for s in setup_by_name.get("data.synthesize", ())),
                                "unit": "s"}
    out["data.load_s"] = {"value": sum(s.dur for s in load) - inside_load, "unit": "s"}
    out["data.index_s"] = {"value": index_s, "unit": "s"}
    return out


#: Span names each workload must record; a miss means a wrapper is bound
#: to a name the program no longer calls.
_ALWAYS = (SUBMIT, WRITE, READ, LOCATE, ON_WRITE, EXEC_CHUNK, DB_EXECUTE, KERNEL,
           "repro.sql.engine.parse", "repro.qserv.analysis.parse_one", *PLAN,
           "repro.qserv.czar.generate_merge_query", "repro.qserv.czar.decode_table",
           "repro.qserv.worker.encode_table",
           "repro.qserv.frontend.admission.AdmissionController.acquire")
REQUIRED = {
    "lv_interactive": _ALWAYS + ("repro.qserv.frontend.cache.ResultCache.get",
                                 "repro.qserv.secondary_index.SecondaryIndex.chunks_for"),
    "hv_scan": _ALWAYS,
    "mixed_batch": _ALWAYS + ("repro.qserv.frontend.cache.ResultCache.get",
                              "repro.qserv.secondary_index.SecondaryIndex.chunks_for",
                              "repro.sql.parser.parse", JOURNAL,
                              "repro.qserv.frontend.mydb.MyDb.stage",
                              "repro.qserv.frontend.mydb.MyDb.publish"),
}
REQUIRED_SETUP = ("data.synthesize", "repro.data.cluster.load_tables", *INDEX_BUILD)


def live_check(workload: str, spans: list[Span], setup_spans: list[Span]) -> list[str]:
    """Names a workload must reach but recorded no call for."""
    seen = {s.name for s in spans}
    missing = [n for n in REQUIRED[workload] if n not in seen]
    if workload == "mixed_batch" and not any(s.name == DB_EXECUTE and s.note for s in spans):
        missing.append("sub-chunk table build (Database.execute CREATE TABLE)")
    setup_seen = {s.name for s in setup_spans}
    missing += [n for n in REQUIRED_SETUP if n not in setup_seen]
    return missing
