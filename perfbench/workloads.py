"""Query streams, closed-loop clients and answer checking.

Every client runs whole *rounds*: a fixed sequence of operation classes
whose parameters come from the workload seed.  Each LV round (20 queries)
and each batch round (20 jobs) holds exactly one operation that hits the
named loader fault, so failed operations are the same share (1/20) of
attempted ones on every run, whatever the seed, the run length or how
the two client threads interleave.

Results are kept and checked against the oracle after the measurement
window, so no oracle work falls inside it.
"""

from __future__ import annotations

import functools
import threading
import time
from dataclasses import dataclass, field

import numpy as np

import oracle as orc

FOOTPRINT_RA0, FOOTPRINT_RA_SPAN = 358.0, 7.0  # PT1.1: RA 358..5 (wrapping)
FOOTPRINT_DEC = (-7.0, 7.0)
BOX = 0.5  # degrees: LV3, SHV1 and SHV2 boxes
SHV1_SEP = 0.9 * 0.01667  # 0.9 x overlap: every neighbour is in the overlap tables
SHV2_SEP = 0.00002

# The proportions below are chosen, not measured; README.md gives the
# reason for each.  Only LV1 = LV2 follows a source (the paper's Fig. 14
# runs one LV1 and one LV2 stream).
#: Per client, a 16-id hot set supplies 40 % of LV object ids: the hot
#: LV1 and LV2 keys fill the 64-entry result cache and the uniform draws
#: keep evicting them, so hits stay a minority.
HOT_IDS = 16
HOT_SHARE = 0.4
#: Well below the shortest job (~40 ms), so submit -> done is over-read
#: by at most one poll.
POLL_SECONDS = 0.002

#: LV round: 8 LV1, 8 LV2 (the first is the fault probe), 4 LV3.
LV_ROUND = ("lv1", "lv2_fault", "lv1", "lv2", "lv3") + ("lv1", "lv2", "lv1", "lv2", "lv3") * 3
#: Batch round: 7 SHV1, 7 SHV2 (the last is the fault probe), 6 HV3.
BATCH_ROUND = ("shv1", "shv2", "hv3") * 6 + ("shv1", "shv2_fault")
#: HV round, all full scans.
HV_ROUND = ("hv1", "hv2", "hv3")

HV3_SQL = "SELECT count(*) AS n, AVG(ra_PS), AVG(decl_PS), chunkId FROM Object GROUP BY chunkId"


def _f(x: float) -> float:
    """A coordinate as written into SQL (6 decimals), as the oracle sees it."""
    return float(f"{x:.6f}")


@dataclass(slots=True)
class Op:
    kind: str
    sql: str
    param: object = None


@dataclass(slots=True)
class Outcome:
    op: Op
    seconds: float
    #: ``(column names, rows)`` of the answer, or the exception raised.
    answer: object
    #: Chunk ids the czar dispatched the query to (``None`` for jobs).
    chunks: tuple | None = None
    cached: bool = False


@functools.lru_cache(maxsize=None)
def _layout(names: tuple, dtypes: tuple):
    """One shared (names, record dtype) per result shape."""
    return names, np.dtype([(f"c{i}", d) for i, d in enumerate(dtypes)])


def _answer(table):
    """The answer as one record array under a shared layout.

    Kept answers are small and of near-constant size per operation, so
    neither the garbage collector's work nor the peak RSS grows with how
    many queries a run happens to complete.
    """
    cols = [np.asarray(c) for c in table.columns().values()]
    names, dtype = _layout(tuple(table.column_names), tuple(c.dtype.str for c in cols))
    rows = np.empty(len(cols[0]) if cols else 0, dtype=dtype)
    for field_name, col in zip(dtype.names, cols):
        rows[field_name] = col
    return names, rows


class Streams:
    """Seeded operation generator for one client."""

    def __init__(self, oracle: orc.CatalogOracle, seed: int, client: int):
        self.o = oracle
        self.rng = np.random.default_rng([seed, client])
        ids = oracle.obj["objectId"]
        # Seeded ids never name a fault object: only the fault probes,
        # whose inputs do not depend on the seed, may hit the fault.
        self.ids = np.setdiff1d(ids, oracle.fault_object_ids)
        self.hot = self.rng.choice(self.ids, HOT_IDS, replace=False)
        self.fault_ids = oracle.fault_object_ids
        rows = oracle.object_rows(self.fault_ids)
        self.fault_pos = (oracle.obj["ra_PS"][rows], oracle.obj["decl_PS"][rows])
        self.fault_box = None
        if len(self.fault_ids):
            row = oracle.lv1(int(self.fault_ids[0]))
            self.fault_box = tuple(_f(v) for v in orc.box_around(row["ra_PS"], row["decl_PS"], BOX / 2))
        self.round_no = 0

    def _object_id(self) -> int:
        pool = self.hot if self.rng.random() < HOT_SHARE else self.ids
        return int(pool[self.rng.integers(len(pool))])

    def _box(self, wrap: bool = False):
        lo = 360.0 - BOX if wrap else FOOTPRINT_RA0
        span = BOX if wrap else FOOTPRINT_RA_SPAN - BOX
        ra = _f((lo + self.rng.uniform(0.0, span)) % 360.0)
        dec = _f(self.rng.uniform(FOOTPRINT_DEC[0], FOOTPRINT_DEC[1] - BOX))
        return (ra, dec, _f((ra + BOX) % 360.0), _f(dec + BOX))

    def _shv2_box(self):
        while True:
            box = self._box()
            if not np.any(orc.in_box(*self.fault_pos, box)):
                return box

    @staticmethod
    def _box_sql(box) -> str:
        return "qserv_areaspec_box({:.6f}, {:.6f}, {:.6f}, {:.6f})".format(*box)

    def op(self, kind: str, round_no: int) -> Op:
        if kind == "lv1":
            oid = self._object_id()
            return Op(kind, f"SELECT * FROM Object WHERE objectId = {oid}", oid)
        if kind in ("lv2", "lv2_fault"):
            if kind == "lv2_fault":
                oid = int(self.fault_ids[round_no % len(self.fault_ids)])
            else:
                oid = self._object_id()
            return Op(kind, "SELECT sourceId, taiMidPoint, fluxToAbMag(psfFlux), ra, decl "
                            f"FROM Source WHERE objectId = {oid}", oid)
        if kind == "lv3":
            # Every fourth LV3 box straddles RA 0.
            box = self._box(wrap=self.rng.random() < 0.25)
            lo = _f(self.rng.uniform(21.0, 23.0))
            return Op(kind, f"SELECT COUNT(*) FROM Object WHERE {self._box_sql(box)} "
                            f"AND fluxToAbMag(zFlux_PS) BETWEEN {lo:.6f} AND {lo + 1:.6f}",
                      (box, lo, _f(lo + 1)))
        if kind == "hv1":
            return Op(kind, "SELECT COUNT(*) FROM Object")
        if kind == "hv2":
            t = _f(1.3 + self.rng.uniform(-0.02, 0.02))
            return Op(kind, "SELECT objectId, ra_PS, decl_PS FROM Object "
                            f"WHERE fluxToAbMag(iFlux_PS) - fluxToAbMag(zFlux_PS) > {t:.6f}", t)
        if kind == "hv3":
            return Op(kind, HV3_SQL)
        if kind == "shv1":
            box = self._box(wrap=self.rng.random() < 0.25)
            return Op(kind, "SELECT count(*) FROM Object o1, Object o2 "
                            f"WHERE {self._box_sql(box)} "
                            f"AND qserv_angSep(o1.ra_PS, o1.decl_PS, o2.ra_PS, o2.decl_PS) < {SHV1_SEP:.6f}",
                      box)
        if kind in ("shv2", "shv2_fault"):
            box = self.fault_box if kind == "shv2_fault" else self._shv2_box()
            return Op(kind, "SELECT o.objectId, s.sourceId, s.ra, s.decl, o.ra_PS, o.decl_PS "
                            f"FROM Object o, Source s WHERE {self._box_sql(box)} "
                            "AND o.objectId = s.objectId "
                            f"AND qserv_angSep(s.ra, s.decl, o.ra_PS, o.decl_PS) > {SHV2_SEP}", box)
        raise ValueError(kind)

    def round(self, pattern) -> list[Op]:
        ops = [self.op(k, self.round_no) for k in pattern]
        self.round_no += 1
        return ops


# -- clients --------------------------------------------------------------------------------


@dataclass
class Client:
    """One closed-loop client thread and what it recorded."""

    name: str
    outcomes: list = field(default_factory=list)
    started: float = 0.0
    finished: float = 0.0
    error: BaseException | None = None


class CacheProbe:
    """Tells each client thread whether its last query was a cache hit.

    ``QservFrontend.query`` returns the cached object itself and counts
    hits only process-wide, so this shim, set on the frontend's cache
    instance, records per thread whether ``get`` found an entry.  It
    calls the class's ``get`` at call time, so a wrapper the tracer puts
    on ``ResultCache.get`` still sees every call.
    """

    def __init__(self, cache):
        self.cache = cache
        self.local = threading.local()
        cache.get = self.get

    def get(self, sql):
        entry = type(self.cache).get(self.cache, sql)
        self.local.hit = entry is not None
        return entry


def query_client(client, fe, probe, streams, pattern, user, stop, use_cache=True):
    """Run whole rounds of ``fe.query`` until ``stop()`` says so."""
    client.started = time.perf_counter()
    while True:
        for op in streams.round(pattern):
            probe.local.hit = False
            t0 = time.perf_counter()
            try:
                res = fe.query(op.sql, user=user, use_cache=use_cache)
            except Exception as e:  # noqa: BLE001 - recorded as a failed operation
                client.outcomes.append(Outcome(op, time.perf_counter() - t0, e))
                continue
            dt = time.perf_counter() - t0
            chunks = tuple(int(p.chunk_id) for p in res.stats.chunk_profiles)
            client.outcomes.append(Outcome(op, dt, _answer(res.table), chunks, probe.local.hit))
        if stop():
            break
    client.finished = time.perf_counter()


def job_client(client, fe, streams, pattern, user, stop):
    """Submit, poll and fetch batch jobs one at a time, in whole rounds."""
    client.started = time.perf_counter()
    while True:
        for op in streams.round(pattern):
            t0 = time.perf_counter()
            try:
                job = fe.submit_job(op.sql, user=user)
                while True:
                    state = fe.poll_job(job)
                    if state["status"] in ("done", "failed", "cancelled"):
                        break
                    time.sleep(POLL_SECONDS)
                dt = time.perf_counter() - t0
                if state["status"] != "done":
                    raise RuntimeError(f"job {job} {state['status']}: {state['error']}")
                client.outcomes.append(Outcome(op, dt, _answer(fe.fetch_job(job))))
            except Exception as e:  # noqa: BLE001 - recorded as a failed operation
                client.outcomes.append(Outcome(op, time.perf_counter() - t0, e))
        if stop():
            break
    client.finished = time.perf_counter()


def run_clients(specs) -> list[Client]:
    """Start one thread per ``(client, target, args)`` and wait for all."""
    threads = []
    for client, target, args in specs:
        def body(client=client, target=target, args=args):
            try:
                target(client, *args)
            except BaseException as e:  # noqa: BLE001 - reported after join
                client.error = e
        threads.append(threading.Thread(target=body, name=client.name))
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return [c for c, _, _ in specs]


# -- workloads --------------------------------------------------------------------------------

#: Objects in each workload's catalog.
CATALOG = {"lv_interactive": 200_000, "hv_scan": 1_000_000, "mixed_batch": 200_000}


def window(workload, fe, probe, oracle, seed, seconds, phase):
    """One measurement window of ``workload``; returns its clients.

    ``phase`` separates the seeds of windows within one process
    (warm-up, untraced, traced); ``probe`` is the frontend's
    :class:`CacheProbe`.
    """
    deadline = time.perf_counter() + seconds
    past = lambda: time.perf_counter() >= deadline  # noqa: E731
    s = lambda i: Streams(oracle, seed, 10 * phase + i)  # noqa: E731
    if workload == "lv_interactive":
        a, b = Client("lv-a"), Client("lv-b")
        return run_clients([
            (a, query_client, (fe, probe, s(0), LV_ROUND, "tenant_a", past)),
            (b, query_client, (fe, probe, s(1), LV_ROUND, "tenant_b", past)),
        ])
    if workload == "hv_scan":
        c = Client("hv")
        return run_clients([(c, query_client, (fe, probe, s(0), HV_ROUND, "scanner", past, False))])
    if workload == "mixed_batch":
        lv, batch = Client("lv"), Client("batch")
        batch_done = threading.Event()

        def batch_client(client, *args):
            try:
                job_client(client, *args)
            finally:
                batch_done.set()

        # The LV client keeps its load on until the batch client's last
        # round is over, so every job runs beside interactive traffic.
        return run_clients([
            (lv, query_client, (fe, probe, s(0), LV_ROUND, "interactive",
                                lambda: past() and batch_done.is_set())),
            (batch, batch_client, (fe, s(1), BATCH_ROUND, "batch", past)),
        ])
    raise ValueError(workload)


# -- checking -----------------------------------------------------------------------------------


def _rows_match(got_ids, got_cols, want_ids, want_cols, fault):
    """'ok', 'fault' (only fault rows missing) or 'wrong'."""
    g = np.argsort(got_ids, kind="stable")
    w = np.argsort(want_ids, kind="stable")
    got_ids, want_ids = np.asarray(got_ids)[g], np.asarray(want_ids)[w]
    if len(got_ids) != len(np.unique(got_ids)):
        return "wrong"
    keep = np.isin(want_ids, got_ids)
    if not np.array_equal(want_ids[keep], got_ids):
        return "wrong"
    for gc, wc in zip(got_cols, want_cols):
        if not orc.close(np.asarray(gc)[g], np.asarray(wc)[w][keep]):
            return "wrong"
    if keep.all():
        return "ok"
    return "fault" if np.all(fault(want_ids[~keep])) else "wrong"


def check(oracle: orc.CatalogOracle, op: Op, answer) -> str:
    """Judge one answer: 'ok', 'fault' (the named fault) or 'wrong'."""
    if isinstance(answer, BaseException):
        return "wrong"
    k = op.kind
    names, rows = answer
    cols = [rows[f] for f in rows.dtype.names]
    n = len(rows)
    if k == "lv1":
        want = oracle.lv1(op.param)
        if n != 1 or set(names) != set(want):
            return "wrong"
        return "ok" if all(col[0] == want[name] for name, col in zip(names, cols)) else "wrong"
    if k in ("lv2", "lv2_fault"):
        want = oracle.lv2(op.param)
        return _rows_match(cols[0], cols[1:], want["sourceId"],
                           [want["taiMidPoint"], want["mag"], want["ra"], want["decl"]],
                           oracle.is_fault_source)
    if k == "lv3":
        box, lo, hi = op.param
        return "ok" if n == 1 and int(cols[0][0]) == oracle.lv3(box, lo, hi) else "wrong"
    if k == "hv1":
        return "ok" if n == 1 and int(cols[0][0]) == oracle.hv1() else "wrong"
    if k == "hv2":
        ids = oracle.hv2(op.param)
        rows = oracle.object_rows(ids)
        return _rows_match(cols[0], cols[1:], ids,
                           [oracle.obj["ra_PS"][rows], oracle.obj["decl_PS"][rows]],
                           lambda missing: np.zeros(len(missing), dtype=bool))
    if k == "hv3":
        want = oracle.hv3()
        got = {int(c): (int(m), float(r), float(d)) for m, r, d, c in zip(*cols)}
        if set(got) != set(want):
            return "wrong"
        for c, (m, r, d) in got.items():
            wm, wr, wd = want[c]
            if m != wm or not orc.close(r, wr) or not orc.close(d, wd):
                return "wrong"
        return "ok"
    if k == "shv1":
        return "ok" if n == 1 and int(cols[0][0]) == oracle.shv1(op.param, SHV1_SEP) else "wrong"
    if k in ("shv2", "shv2_fault"):
        want = oracle.shv2(op.param, SHV2_SEP)
        return _rows_match(cols[1], [cols[0]] + cols[2:], want[1], [want[0], *want[2:]],
                           oracle.is_fault_source)
    raise ValueError(k)
