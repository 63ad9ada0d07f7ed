"""E15 smoke — cost of the fleet observability plane.

Two measurements back PR 9's perf claims:

1. **Accounting and merge overhead.** A scan loop that accounts every
   shard scan the way a server accounts an answer (a span, then
   ``RequestStats.add`` of the query and its seconds), with a snapshot
   built from those counters, relabelled and merged once per round as a
   fleet scrape does, is timed raw vs instrumented. It bounds the
   served path from above: a server accounts once per answer batch, not
   once per shard scan. The same 5% bar E10 set for span
   instrumentation applies, measured with E10's estimator: the variants
   interleave in an order rotated round by round, and the overhead is
   the median of the per-round ratios.
2. **Fleet scrape latency.** Four stats sidecars are scraped through
   :func:`repro.obs.fleet.scrape_fleet`; the per-server timeouts run
   concurrently, so four servers should cost about one round-trip, not
   four.

Tier-1 runs this via ``tests/integration/test_fleet_obs_smoke.py``.
Run standalone from the repo root::

    PYTHONPATH=src:. python benchmarks/fleet_obs_smoke.py [--out BENCH_fleet_obs.json]
"""

from __future__ import annotations

import argparse
import json
import statistics
import time
from pathlib import Path

import numpy as np

from benchmarks.bench_e10_obs_overhead import _interleaved_rounds, _overhead
from repro.core.backend import RequestStats
from repro.obs.fleet import ScrapeTarget, scrape_fleet
from repro.obs.metrics import (
    merge_into,
    metric,
    relabel_snapshot,
    snapshot_total,
)
from repro.obs.trace import span
from repro.pir.database import BlobDatabase

# E9/E10-sized scans (2^13 x 4 KiB = 32 MiB per call): the accounting
# runs cache-cold after each scan — its true production state — so the
# scan must be production-sized too or the relative overhead doubles.
DOMAIN_BITS = 13
BLOB_BYTES = 4096
# 16 scans between merges is still far *more* merging than production
# (a fleet scraper merges per scrape, i.e. every few seconds of
# scanning) — and long enough rounds (~25 ms) that scheduler noise on a
# shared CI box stays small against the measured quantity.
SCANS_PER_ROUND = 16
# E10's round count: on a 2-core box the median over 21 rounds still
# spread -3..+5 %, over 61 it held within 1..3.5 % (about 4 s a run).
ROUNDS = 61
FLEET_SIZE = 4
SCRAPE_ROUNDS = 3

DEFAULT_OUT = Path(__file__).resolve().parents[1] / "BENCH_fleet_obs.json"


def _filled_db(domain_bits: int, seed: int = 0) -> BlobDatabase:
    db = BlobDatabase(domain_bits, BLOB_BYTES)
    rng = np.random.default_rng(seed)
    for slot in rng.choice(db.n_slots, size=min(64, db.n_slots),
                           replace=False):
        db.set_slot(int(slot),
                    bytes(rng.integers(0, 256, 512, dtype=np.uint8)))
    return db


def _best_of(fn, rounds: int) -> float:
    best = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def measure_merge_overhead(domain_bits: int = DOMAIN_BITS,
                           scans_per_round: int = SCANS_PER_ROUND,
                           rounds: int = ROUNDS) -> dict:
    """Raw scans vs a scan loop with a server's accounting attached.

    The instrumented loop runs per scan: a span for timing and a
    ``RequestStats.add`` of one query and its seconds — plus, once per
    round, the snapshot/relabel/merge a fleet scrape adds on top.
    """
    db = _filled_db(domain_bits)
    rng = np.random.default_rng(1)
    bits = rng.integers(0, 2, size=db.n_slots, dtype=np.uint8).astype(bool)

    def run_raw():
        for _ in range(scans_per_round):
            db.xor_scan(bits)

    stats = RequestStats()
    merged: dict = {}

    def run_instrumented():
        for _ in range(scans_per_round):
            with span("pir2.shard_scan", op="scan") as sp:
                db.xor_scan(bits)
            stats.add(queries=1, scan_seconds=sp.elapsed)
        # The scrape side: a snapshot of the cumulative counters, named
        # as a server names them, then the server relabel and the merge.
        snap = {f"zltp_{field}_total": metric(
                    "counter", field, [({"mode": "pir2"}, value)])
                for field, value in stats.as_dict().items()}
        merge_into(merged, relabel_snapshot(snap, server=0))

    # Each round times both variants back to back, raw leading in one
    # round and instrumented in the next, so a slow stretch lands on the
    # round's pair alike and neither variant always runs second; the
    # median ratio drops the rounds a disturbance split.
    raw, instrumented = _interleaved_rounds([run_raw, run_instrumented],
                                            rounds)
    return {
        "scan_mib": db.memory_bytes() / 2**20,
        "scans_per_round": scans_per_round,
        "raw_seconds": statistics.median(raw),
        "instrumented_seconds": statistics.median(instrumented),
        "overhead_instrumented": _overhead(instrumented, raw),
    }


def measure_fleet_scrape(fleet_size: int = FLEET_SIZE,
                         rounds: int = SCRAPE_ROUNDS) -> dict:
    """Stand up ``fleet_size`` stats sidecars and time a full scrape."""
    from repro.cli.serve import serve_stats

    snap = {"shard_scans_total": metric("counter", "shard scans run",
                                        [({}, 8.0)])}

    sidecars = [
        serve_stats(lambda snap=snap: {"metrics": snap}, port=0)
        for _ in range(fleet_size)
    ]
    targets = [
        ScrapeTarget(server_id=f"bench/{i}", host=sidecar.address[0],
                     port=sidecar.address[1])
        for i, sidecar in enumerate(sidecars)
    ]
    try:
        fleet = scrape_fleet(targets)  # warm-up + correctness probe
        assert fleet.up_count == fleet_size
        assert snapshot_total(fleet.merged, "shard_scans_total") == \
            8.0 * fleet_size
        scrape_s = _best_of(lambda: scrape_fleet(targets), rounds)
    finally:
        for sidecar in sidecars:
            sidecar.stop()
    return {
        "servers": fleet_size,
        "scrape_seconds": scrape_s,
        "scrape_seconds_per_server": scrape_s / fleet_size,
    }


def run() -> dict:
    return {
        "experiment": "E15 fleet observability (smoke, reduced sizes)",
        "overhead": measure_merge_overhead(),
        "fleet_scrape": measure_fleet_scrape(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT,
                        help="where to write the results JSON")
    args = parser.parse_args(argv)
    data = run()
    args.out.write_text(json.dumps(data, indent=2) + "\n")
    print(f"wrote {args.out}")
    overhead = data["overhead"]["overhead_instrumented"]
    if overhead >= 0.05:
        print(f"OVERHEAD TOO HIGH: per-scan accounting path costs "
              f"{overhead*100:.2f}% >= 5%")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
