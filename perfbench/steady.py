#!/usr/bin/env python3
"""Run each workload repeatedly and report every metric against its bound.

    python3 perfbench/steady.py [--runs 10]

Runs every workload of ``BENCHMARK.json`` with seeds 1..runs, each run
``perfbench/run.py`` in its own process for the spec's ``run_seconds``.
For every end-to-end metric this prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread -- the
distance between the quartiles as a share of the median -- beside the
metric's bound from ``BENCHMARK.json``, plus each run's failed share.
Exits non-zero when a run fails, an answer is wrong, the failed share
differs between runs, or a spread exceeds its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    args = ap.parse_args(argv)

    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        values: dict[str, list[float]] = {}
        shares = set()
        for seed in range(1, args.runs + 1):
            cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                ok = False
                continue
            out = json.loads(lines[-1])
            share = Fraction(out["failed"], out["attempted"])
            shares.add(share)
            figures = " ".join(f"{k}={m['value']:.4g}" for k, m in out["metrics"].items())
            print(f"{workload} seed {seed}: correct={out['correct']} attempted={out['attempted']} "
                  f"failed={out['failed']} ({float(share):.4f}) {figures}", flush=True)
            ok &= bool(out["correct"])
            for name, m in out["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        if len(shares) > 1:
            print(f"{workload}: failed share differs between runs: {sorted(map(float, shares))}")
            ok = False
        print(f"{workload}: {'metric':16s} {'median':>14s} {'q1':>14s} {'q3':>14s} {'spread':>8s} {'bound':>6s}")
        for m in spec["end_to_end"]:
            v = values.get(m["name"], [])
            if len(v) < 2:
                print(f"{workload}: {m['name']:16s} missing")
                ok = False
                continue
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med
            within = spread <= m["bound"]
            ok &= within
            flag = "" if spread < m["bound"] / 3 else (" (over a third of the bound)" if within else " OVER")
            print(f"{workload}: {m['name']:16s} {med:14.4f} {q1:14.4f} {q3:14.4f} "
                  f"{spread:8.4f} {m['bound']:6.2f}{flag}", flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
