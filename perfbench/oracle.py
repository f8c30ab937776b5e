"""Independent oracle for the query-class benchmark.

Every expected answer here is computed from the generated catalog with
plain NumPy, apart from the query path: no SQL parsing, no planning, no
chunk dispatch and no merge.  The only program function it shares is the
chunker's point-to-chunk assignment, which *defines* the ``chunkId``
column HV3 groups by and the chunk a row is stored in.

Comparison rules: row sets are compared as sets (keyed by their id
columns), counts exactly, and AVG/SUM or computed magnitudes within
1e-9 relative.

Run ``python3 perfbench/oracle.py`` to execute the hand-computed self
checks; add ``--fault-rows`` to list the Source rows the loader stores in
a different chunk from their Object (the named fault).
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

AB_ZEROPOINT = 8.9
RTOL = 1e-9


def flux_to_ab_mag(flux):
    """AB magnitude of a flux in Janskys, as documented: -2.5 log10(f) + 8.9."""
    return -2.5 * np.log10(np.asarray(flux, dtype=np.float64)) + AB_ZEROPOINT


def haversine_deg(ra1, dec1, ra2, dec2):
    """Great-circle separation in degrees by the haversine formula."""
    r1, d1, r2, d2 = (np.radians(np.asarray(v, dtype=np.float64)) for v in (ra1, dec1, ra2, dec2))
    a = np.sin((d2 - d1) / 2.0) ** 2 + np.cos(d1) * np.cos(d2) * np.sin((r2 - r1) / 2.0) ** 2
    return np.degrees(2.0 * np.arcsin(np.sqrt(np.clip(a, 0.0, 1.0))))


def in_box(ra, dec, box):
    """Inclusive membership in ``(ra_min, dec_min, ra_max, dec_max)``.

    ``ra_min > ra_max`` (after reduction to [0, 360)) is a box that wraps
    through RA 0.
    """
    ra_min, dec_min, ra_max, dec_max = box
    ra = np.mod(np.asarray(ra, dtype=np.float64), 360.0)
    dec = np.asarray(dec, dtype=np.float64)
    lo, hi = ra_min % 360.0, ra_max % 360.0
    in_ra = (ra >= lo) & (ra <= hi) if lo <= hi else (ra >= lo) | (ra <= hi)
    return in_ra & (dec >= dec_min) & (dec <= dec_max)


def box_around(ra, dec, half):
    """The box of half-width ``half`` degrees centred on a point."""
    return ((ra - half) % 360.0, dec - half, (ra + half) % 360.0, dec + half)


def close(a, b) -> bool:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and bool(np.all(np.abs(a - b) <= RTOL * np.maximum(np.abs(b), 1e-300)))


class CatalogOracle:
    """Expected answers for every benchmark query class over one catalog."""

    def __init__(self, objects, sources, chunker):
        oc = objects.columns()
        self.obj = {k: np.asarray(v) for k, v in oc.items()}
        self.n_objects = objects.num_rows
        ids = self.obj["objectId"]
        self._obj_order = np.argsort(ids, kind="stable")
        self._obj_sorted_ids = ids[self._obj_order]
        self.obj_chunk = np.asarray(chunker.chunk_id(self.obj["ra_PS"], self.obj["decl_PS"]))
        self.obj_sub_chunk = np.asarray(chunker.sub_chunk_id(self.obj["ra_PS"], self.obj["decl_PS"]))
        self.src = None
        self.src_chunk = np.empty(0, dtype=np.int64)
        self.fault_source_ids = np.empty(0, dtype=np.int64)
        self.fault_object_ids = np.empty(0, dtype=np.int64)
        if sources is not None:
            self.src = {k: np.asarray(v) for k, v in sources.columns().items()}
            order = np.argsort(self.src["objectId"], kind="stable")
            self._src_order = order
            self._src_sorted_oids = self.src["objectId"][order]
            self.src_chunk = np.asarray(chunker.chunk_id(self.src["ra"], self.src["decl"]))
            parent_chunk = self.obj_chunk[self.object_rows(self.src["objectId"])]
            moved = self.src_chunk != parent_chunk
            self.fault_source_ids = np.sort(self.src["sourceId"][moved])
            self.fault_object_ids = np.unique(self.src["objectId"][moved])
        self._iz = None
        self._hv3 = None

    # -- lookups ---------------------------------------------------------------------

    def object_rows(self, object_ids):
        pos = np.searchsorted(self._obj_sorted_ids, object_ids)
        return self._obj_order[pos]

    def _source_rows(self, object_id):
        lo = np.searchsorted(self._src_sorted_oids, object_id, side="left")
        hi = np.searchsorted(self._src_sorted_oids, object_id, side="right")
        return self._src_order[lo:hi]

    def is_fault_source(self, source_ids):
        return np.isin(source_ids, self.fault_source_ids)

    # -- expected answers --------------------------------------------------------------

    def lv1(self, object_id):
        """The full Object row, chunk bookkeeping from the chunker."""
        i = int(self.object_rows(np.array([object_id]))[0])
        row = {k: v[i] for k, v in self.obj.items()}
        row["chunkId"] = self.obj_chunk[i]
        row["subChunkId"] = self.obj_sub_chunk[i]
        return row

    def lv2(self, object_id):
        """Source light curve: sourceId, taiMidPoint, AB mag, ra, decl."""
        rows = self._source_rows(object_id)
        s = self.src
        return {
            "sourceId": s["sourceId"][rows],
            "taiMidPoint": s["taiMidPoint"][rows],
            "mag": flux_to_ab_mag(s["psfFlux"][rows]),
            "ra": s["ra"][rows],
            "decl": s["decl"][rows],
        }

    def lv3(self, box, mag_lo, mag_hi):
        o = self.obj
        mag = flux_to_ab_mag(o["zFlux_PS"])
        return int(np.count_nonzero(in_box(o["ra_PS"], o["decl_PS"], box) & (mag >= mag_lo) & (mag <= mag_hi)))

    def hv1(self):
        return self.n_objects

    def hv2(self, threshold):
        """objectIds with i - z > threshold, ascending."""
        if self._iz is None:
            self._iz = flux_to_ab_mag(self.obj["iFlux_PS"]) - flux_to_ab_mag(self.obj["zFlux_PS"])
        return np.sort(self.obj["objectId"][self._iz > threshold])

    def hv3(self):
        """Per-chunk (count, mean ra, mean decl), keyed by chunk id."""
        if self._hv3 is not None:
            return self._hv3
        cids, inv = np.unique(self.obj_chunk, return_inverse=True)
        n = np.bincount(inv)
        ra = np.bincount(inv, weights=self.obj["ra_PS"]) / n
        dec = np.bincount(inv, weights=self.obj["decl_PS"]) / n
        self._hv3 = {int(c): (int(k), float(r), float(d)) for c, k, r, d in zip(cids, n, ra, dec)}
        return self._hv3

    def shv1(self, box, max_sep):
        """Ordered pairs (o1, o2), self-pairs included, o1 in box, sep < max_sep."""
        ra, dec = self.obj["ra_PS"], self.obj["decl_PS"]
        inner = np.flatnonzero(in_box(ra, dec, box))
        if not len(inner):
            return 0
        # Candidate o2: the box dilated by max_sep (RA widened by 1/cos dec).
        ra_min, dec_min, ra_max, dec_max = box
        widen = max_sep / np.cos(np.radians(max(abs(dec_min), abs(dec_max)) + max_sep))
        outer_box = (ra_min - widen, dec_min - max_sep, ra_max + widen, dec_max + max_sep)
        outer = np.flatnonzero(in_box(ra, dec, outer_box))
        total = 0
        for start in range(0, len(inner), 256):
            i = inner[start : start + 256]
            sep = haversine_deg(ra[i][:, None], dec[i][:, None], ra[outer][None, :], dec[outer][None, :])
            total += int(np.count_nonzero(sep < max_sep))
        return total

    def shv2(self, box, min_sep):
        """Rows (o.objectId, s.sourceId, s.ra, s.decl, o.ra_PS, o.decl_PS) for
        o in box joined to its sources, separation > min_sep."""
        o, s = self.obj, self.src
        inside = np.flatnonzero(in_box(o["ra_PS"], o["decl_PS"], box))
        rows = [self._source_rows(oid) for oid in o["objectId"][inside]]
        srows = np.concatenate(rows) if rows else np.empty(0, dtype=np.int64)
        orows = self.object_rows(s["objectId"][srows])
        sep = haversine_deg(s["ra"][srows], s["decl"][srows], o["ra_PS"][orows], o["decl_PS"][orows])
        srows, orows = srows[sep > min_sep], orows[sep > min_sep]
        return (o["objectId"][orows], s["sourceId"][srows], s["ra"][srows], s["decl"][srows],
                o["ra_PS"][orows], o["decl_PS"][orows])


def self_check() -> list[str]:
    """Hand-computed cases for the oracle's own formulas; returns failures."""
    failures = []

    def expect(label, got, want, tol=1e-12):
        if not abs(float(got) - float(want)) <= tol * max(1.0, abs(float(want))):
            failures.append(f"{label}: got {got!r}, want {want!r}")

    expect("sep (0,0)-(90,0)", haversine_deg(0, 0, 90, 0), 90.0)
    expect("sep (0,0)-(0,1)", haversine_deg(0, 0, 0, 1), 1.0)
    expect("sep pole-to-pole", haversine_deg(10, -90, 200, 90), 180.0)
    expect("sep across RA 0", haversine_deg(359.5, 0, 0.5, 0), 1.0)
    # One arcsecond of RA at dec 60 spans half an arcsecond of arc.
    expect("sep 1as RA at dec 60", haversine_deg(0, 60, 1 / 3600, 60), 0.5 / 3600, tol=1e-6)
    expect("fluxToAbMag(1 Jy)", flux_to_ab_mag(1.0), 8.9)
    expect("fluxToAbMag(1e-4 Jy)", flux_to_ab_mag(1e-4), 18.9)
    expect("fluxToAbMag(3631 Jy)", flux_to_ab_mag(3631.0), 8.9 - 2.5 * np.log10(3631.0))
    wrap = (359.75, -1.0, 0.25, 1.0)
    got = in_box([359.9, 0.1, 0.3, 359.7, 0.0, 0.0], [0.0, 0.5, 0.0, 0.0, 1.0, 1.5], wrap).tolist()
    if got != [True, True, False, False, True, False]:
        failures.append(f"wrapping box membership: {got}")
    got = in_box([1.0, 1.5, 2.0, 0.9, 720.0 + 1.2], [0.0, 0.0, 0.0, 0.0, 0.0], (1.0, -1.0, 2.0, 1.0)).tolist()
    if got != [True, True, True, False, True]:
        failures.append(f"plain box membership: {got}")
    return failures


def _main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--fault-rows", action="store_true", help="list the named fault's Source rows")
    ap.add_argument("--objects", type=int, default=200_000, help="catalog size (Objects)")
    args = ap.parse_args(argv)
    failures = self_check()
    for f in failures:
        print("oracle self-check FAILED:", f)
    if failures:
        return 1
    print("oracle self-check: ok")
    if args.fault_rows:
        import catalog

        catalog.prepare()
        objects, sources, chunker = catalog.generate(args.objects)
        oracle = CatalogOracle(objects, sources, chunker)
        ids = oracle.fault_source_ids
        print(f"{len(ids)} Source rows across {len(oracle.fault_object_ids)} Objects "
              f"sit in another chunk than their Object ({args.objects} Objects, seed {catalog.CATALOG_SEED}):")
        rows = np.flatnonzero(np.isin(oracle.src["sourceId"], ids))
        for r in rows:
            oid = int(oracle.src["objectId"][r])
            print(f"  sourceId={int(oracle.src['sourceId'][r])} objectId={oid} "
                  f"source_chunk={int(chunker.chunk_id(float(oracle.src['ra'][r]), float(oracle.src['decl'][r])))} "
                  f"object_chunk={int(oracle.obj_chunk[oracle.object_rows(np.array([oid]))[0]])}")
    return 0


if __name__ == "__main__":
    sys.exit(_main())
