"""E9 — the scan engine: single-pass batching.

One claim from this repo's scan-engine work (no direct paper number — the
paper's §5.2 deployment is real machines; here the win is showing the
*shape* on one host): the truly single-pass batch scan (one blocked walk
over storage per batch) beats the per-row baseline once the batch is big
enough to amortise the walk (batch ≥8 must win at 128 MiB storage — the
block stays cache-hot across the batch's rows while the per-row path
streams all of storage once per request).

It also records, without asserting, §5.1's amortisation: a batch's cost
per query against one lone scan, at batches 1 to 16 over a cache-resident
2^10 x 4 KiB database and a 2^14 x 4 KiB one. Each row is timed for the
bucketed kernel (``xor_scan_batch``) and for the kernel it replaced, one
gather and one reduction per request and block (``_gather_per_request``),
interleaved in one process.

Measured numbers land in ``BENCH_parallel_scan.json`` at the repo root.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from benchmarks.conftest import report
from repro.pir import database as database_module
from repro.pir.database import BlobDatabase

BATCH_DOMAIN_BITS = 15           # 2^15 x 4 KiB = 128 MiB (>> L2, the regime
                                 # the single-pass walk is built for)
BLOB_BYTES = 4096
BATCH_SIZES = (8, 16)
_ROUNDS = 3
#: (domain_bits, batches) of the per-query rows: 4 MiB and 64 MiB.
PER_QUERY_GEOMETRIES = ((10, (1, 2, 4, 10, 16)), (14, (1, 2, 4, 10, 16)))
_PER_QUERY_ROUNDS = 7

RESULTS_PATH = Path(__file__).resolve().parents[1] / "BENCH_parallel_scan.json"


def _filled_db(domain_bits: int, seed: int = 0) -> BlobDatabase:
    db = BlobDatabase(domain_bits, BLOB_BYTES)
    rng = np.random.default_rng(seed)
    for slot in rng.choice(db.n_slots, size=min(64, db.n_slots), replace=False):
        db.set_slot(int(slot), bytes(rng.integers(0, 256, 512, dtype=np.uint8)))
    return db


def _best_of(fn, rounds: int = _ROUNDS) -> float:
    best = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _gather_per_request(db: BlobDatabase, select: np.ndarray) -> list:
    """The batch loop before bucketing: per 1 MiB block and request, one
    gather of the selected rows, one reduction and one ``^=``."""
    storage = db.packed_words()
    acc = np.zeros((len(select), storage.shape[1]), dtype=np.uint64)
    rows_per_block = max(1, database_module.SCAN_BLOCK_BYTES
                         // storage[0].nbytes)
    for start in range(0, db.n_slots, rows_per_block):
        rows = slice(start, start + rows_per_block)
        block = storage[rows]
        for b in range(len(select)):
            acc[b] ^= np.bitwise_xor.reduce(block[select[b, rows]], axis=0)
    return [row.tobytes()[: db.blob_size] for row in acc]


@pytest.fixture(scope="module")
def results():
    data = {"experiment": "E9 single-pass batch scan", "batch": [],
            "per_query": []}
    yield data
    RESULTS_PATH.write_text(json.dumps(data, indent=2) + "\n")
    print(f"\n  wrote {RESULTS_PATH}")


def test_e9_single_pass_batch_vs_per_row(benchmark, results):
    db = _filled_db(BATCH_DOMAIN_BITS, seed=2)
    rng = np.random.default_rng(3)

    rows = []
    measured = []

    def run_all():
        measured.clear()
        for batch in BATCH_SIZES:
            select = rng.integers(0, 2, size=(batch, db.n_slots),
                                  dtype=np.uint8).astype(bool)
            assert db.xor_scan_batch(select) == db.xor_scan_batch_per_row(select)
            single = _best_of(lambda: db.xor_scan_batch(select))
            per_row = _best_of(lambda: db.xor_scan_batch_per_row(select))
            measured.append({
                "batch": batch,
                "single_pass_seconds": single,
                "per_row_seconds": per_row,
                "speedup": per_row / single,
            })
        return measured

    benchmark.pedantic(run_all, rounds=1, iterations=1)
    for m in measured:
        rows.append((
            f"batch={m['batch']}",
            f"per-row {m['per_row_seconds']*1e3:.1f} ms, "
            f"single-pass {m['single_pass_seconds']*1e3:.1f} ms "
            f"({m['speedup']:.2f}x)",
        ))
    rows.append(("storage", f"{db.memory_bytes() / 2**20:.0f} MiB, "
                            f"amortised rows/request "
                            f"{db.amortized_rows_per_request:.0f}"))
    report("E9b: single-pass batch scan vs per-row baseline", rows)
    results["batch"] = measured
    # Shape claim 2: one blocked walk beats per-row streaming from batch 8.
    for m in measured:
        if m["batch"] >= 8:
            assert m["single_pass_seconds"] < m["per_row_seconds"], m


def test_e9_batch_cost_per_query(benchmark, results):
    """Per-query batch cost against a lone scan, before and after bucketing."""
    kernels = {"bucketed": lambda db, select: db.xor_scan_batch(select),
               "gather_per_request": _gather_per_request}
    rng = np.random.default_rng(4)
    measured = []

    def run_all():
        measured.clear()
        for domain_bits, batches in PER_QUERY_GEOMETRIES:
            db = _filled_db(domain_bits, seed=domain_bits)
            seconds = {}
            for batch in batches:
                select = rng.integers(0, 2, size=(batch, db.n_slots),
                                      dtype=np.uint8).astype(bool)
                assert (db.xor_scan_batch(select)
                        == _gather_per_request(db, select))
                best = dict.fromkeys(kernels, float("inf"))
                for _ in range(_PER_QUERY_ROUNDS):
                    for name, kernel in kernels.items():
                        best[name] = min(best[name], _best_of(
                            lambda: kernel(db, select), rounds=1))
                for name in kernels:
                    seconds[name, batch] = best[name]
            for name in kernels:
                lone = seconds[name, 1]
                measured.extend({
                    "kernel": name,
                    "geometry": f"2^{domain_bits} x {BLOB_BYTES} B",
                    "batch": batch,
                    "lone_scan_ms": lone * 1e3,
                    "batch_ms_per_query": seconds[name, batch] / batch * 1e3,
                    "lone_over_per_query": lone * batch / seconds[name, batch],
                } for batch in batches)
        return measured

    benchmark.pedantic(run_all, rounds=1, iterations=1)
    report("E9c: batch cost per query vs a lone scan (ms)", [
        (f"{m['geometry']} batch={m['batch']:<2} {m['kernel']}",
         f"{m['batch_ms_per_query']:.3f} per query, lone "
         f"{m['lone_scan_ms']:.3f} ({m['lone_over_per_query']:.2f}x)")
        for m in measured])
    results["per_query"] = list(measured)
