"""E16 smoke — the saturation curve, with and without admission control.

The claim under test (PR 10): a deployment behind an admission gate
keeps the latency of *admitted* requests inside the deadline as offered
load crosses the knee, shedding the excess with fast overload errors,
while the same deployment without the gate lets queueing delay blow the
p99 for everyone. Concretely, at the top offered level:

- admission **on**: completed-request p99 stays under the deadline, the
  gate sheds a nonzero remainder, and goodput does not collapse past the
  knee (monotone non-decreasing within tolerance);
- admission **off**: p99 exceeds the deadline — every request queues
  behind a backlog the server should have refused.

To keep the curve deterministic on shared CI hardware, the served
database's scan is a *fixed sleep behind a lock* — a hard capacity of
``1/SERVICE_SECONDS`` requests/s per party, independent of how fast the
box is — and every threshold is derived from a measured idle-latency
calibration, not wall-clock constants.

Tier-1 runs this via ``tests/integration/test_load_smoke.py``.
Run standalone::

    PYTHONPATH=src python benchmarks/load_smoke.py [--out BENCH_load.json]
"""

from __future__ import annotations

import argparse
import json
import threading
import time
from pathlib import Path

import numpy as np

from repro.core.discovery import CachingResolver, static_directory
from repro.core.zltp.admission import AdmissionController
from repro.core.zltp.server import ZltpServer
from repro.core.zltp.serving import create_tcp_server
from repro.costmodel.capacity import SaturationCurve
from repro.loadgen import LoadgenConfig, build_client, sweep_load
from repro.pir.database import BlobDatabase

#: Injected per-scan service time: the deployment's capacity is exactly
#: ``1 / SERVICE_SECONDS`` page views/s, by construction (the two
#: parties scan in parallel, one query each per page). Large enough
#: that the injected sleep — not client-side crypto under the GIL —
#: is the bottleneck on any hardware.
SERVICE_SECONDS = 0.05
DOMAIN_BITS = 8
BLOB_BYTES = 1024
N_USERS = 10
DURATION_SECONDS = 2.0
#: Offered levels as multiples of the calibrated capacity: under the
#: knee, at it, and well past it.
LEVEL_FACTORS = (0.5, 1.2, 2.5)
CALIBRATION_REQUESTS = 5

DEFAULT_OUT = Path(__file__).resolve().parents[1] / "BENCH_load.json"


class SlowScanDatabase(BlobDatabase):
    """A blob database whose scan costs a fixed, serialized sleep.

    Models a machine with one scan pipeline: one request's scan at a
    time, each costing exactly ``service_seconds`` — so saturation
    arithmetic in this benchmark is deterministic instead of
    hardware-dependent. The lock is the capacity bottleneck on purpose.
    """

    def __init__(self, domain_bits: int, blob_size: int,
                 service_seconds: float):
        super().__init__(domain_bits, blob_size)
        self.service_seconds = service_seconds
        self._scan_lock = threading.Lock()

    def xor_scan(self, select_bits):
        with self._scan_lock:
            time.sleep(self.service_seconds)
            return super().xor_scan(select_bits)

    def xor_scan_batch(self, select_matrix):
        # One single-pass sleep per batch — the §5.1 batching story.
        with self._scan_lock:
            time.sleep(self.service_seconds)
            return super().xor_scan_batch(select_matrix)


def build_fixture():
    """Two slow pir2 data servers (the non-colluding pair) over TCP.

    Returns ``(resolver, servers, listeners)``; the servers start with
    no admission gate (the off-curve state).
    """
    rng = np.random.default_rng(0)
    servers = []
    listeners = []
    for party in range(2):
        db = SlowScanDatabase(DOMAIN_BITS, BLOB_BYTES, SERVICE_SECONDS)
        for slot in range(0, db.n_slots, 16):
            db.set_slot(slot,
                        bytes(rng.integers(0, 256, 64, dtype=np.uint8)))
        server = ZltpServer(db, modes=["pir2"], party=party)
        servers.append(server)
        listeners.append(create_tcp_server("eventloop", server, port=0))
    directory = static_directory(
        "127.0.0.1",
        {"data": [listener.address[1] for listener in listeners]},
        modes=["pir2"], attrs={"fetch_budget": 1})
    return CachingResolver(directory, grace_seconds=None), servers, listeners


def calibrate(resolver) -> float:
    """Median idle page-view latency — the unit every threshold scales by."""
    client = build_client(resolver, "main", modes=["pir2"], retries=1)
    n_slots = 2 ** client.domain_bits
    samples = []
    for i in range(CALIBRATION_REQUESTS):
        t0 = time.monotonic()
        client.get_slots([(i * 37) % n_slots])
        samples.append(time.monotonic() - t0)
    client.close()
    return float(np.median(samples))


def run() -> dict:
    resolver, servers, listeners = build_fixture()
    try:
        idle_seconds = calibrate(resolver)
        # One idle page view costs the injected scan plus the real
        # client/server overhead around it; with the sleep dominating,
        # that sum is also the per-page *drain* cost under load, so its
        # inverse is the measured page capacity the levels scale from.
        capacity_rps = 1.0 / idle_seconds
        # The deadline allows one idle request plus seven service times
        # of queueing; the full population queued at the scan lock costs
        # (N_USERS - 1) service times on top of idle, so an ungated
        # saturated server must blow it (9 > 7) — and the measured
        # ungated p99 lands far higher still, because closed-loop users
        # re-queue as fast as they are served.
        deadline = idle_seconds + 7.0 * SERVICE_SECONDS
        levels = [round(capacity_rps * factor, 2)
                  for factor in LEVEL_FACTORS]
        # Sub-capacity levels must still give every user >= 1 request.
        duration = max(DURATION_SECONDS, 1.1 * N_USERS / min(levels))
        config = LoadgenConfig(
            n_users=N_USERS, duration_seconds=duration,
            deadline_seconds=deadline, gets_per_page=1,
            modes=["pir2"], seed=7)

        off = sweep_load(resolver, levels, config=config)
        for server in servers:
            # Gate at four service times of predicted queueing — the
            # deadline budgets seven, so an admitted request finishes
            # with ~three service times to spare even after its own
            # scan and the idle round-trip. Pre-seeding the service
            # estimate (we *know* the injected scan cost) keeps the
            # first burst from being admitted at full depth while the
            # EWMA is still learning.
            server.admission = AdmissionController(
                deadline_seconds=4.0 * SERVICE_SECONDS,
                max_queue_depth=64,
                initial_service_seconds=SERVICE_SECONDS)
        on = sweep_load(resolver, levels, config=config)

        curve = SaturationCurve.from_sweep(
            [report.to_dict() for report in on], n_shards=1)
        plan = {
            "n_users": 10_000,
            "p99_target_seconds": deadline,
            "shards": curve.shards_for(10_000, deadline),
        }
    finally:
        for listener in listeners:
            listener.stop()
    admission_totals = [server.admission.snapshot() for server in servers]
    return {
        "experiment": "E16 saturation with/without admission (smoke)",
        "service_seconds": SERVICE_SECONDS,
        "idle_page_seconds": idle_seconds,
        "capacity_rps": capacity_rps,
        "deadline_seconds": deadline,
        "offered_levels_rps": levels,
        "admission_off": [report.to_dict() for report in off],
        "admission_on": [report.to_dict() for report in on],
        "admission_gates": admission_totals,
        "capacity_plan": plan,
    }


def check(data: dict) -> list:
    """The E16 acceptance assertions; returns failure messages."""
    failures = []
    deadline = data["deadline_seconds"]
    on_top = data["admission_on"][-1]
    off_top = data["admission_off"][-1]
    on_knee = data["admission_on"][-2]
    if on_top["p99_seconds"] is None or \
            on_top["p99_seconds"] > deadline:
        failures.append(
            f"admitted p99 {on_top['p99_seconds']} blew the deadline "
            f"{deadline:g}s with admission ON")
    if off_top["p99_seconds"] is not None and \
            off_top["p99_seconds"] <= deadline:
        failures.append(
            f"p99 {off_top['p99_seconds']:.3f}s stayed under the deadline "
            f"{deadline:g}s with admission OFF — no saturation signal")
    if on_top["shed"] == 0:
        failures.append("the gate shed nothing at 3x capacity")
    if on_top["goodput_rps"] < 0.7 * on_knee["goodput_rps"]:
        failures.append(
            f"goodput collapsed past the knee with admission ON: "
            f"{on_top['goodput_rps']:.1f} < 0.7 x "
            f"{on_knee['goodput_rps']:.1f} rps")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT,
                        help="where to write the results JSON")
    args = parser.parse_args(argv)
    data = run()
    args.out.write_text(json.dumps(data, indent=2) + "\n")
    print(f"wrote {args.out}")
    for off_row, on_row in zip(data["admission_off"], data["admission_on"]):
        print(f"offered {off_row['offered_rps']:>7.1f} rps | "
              f"off: goodput {off_row['goodput_rps']:5.1f} "
              f"p99 {off_row['p99_seconds'] or 0:.3f}s | "
              f"on: goodput {on_row['goodput_rps']:5.1f} "
              f"p99 {on_row['p99_seconds'] or 0:.3f}s "
              f"shed {on_row['shed']}")
    failures = check(data)
    for failure in failures:
        print(f"FAIL: {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
