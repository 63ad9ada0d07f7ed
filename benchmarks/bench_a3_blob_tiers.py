"""A3 (ablation) — blob-size economics and the design choices of §3.1/§3.5.

Two design decisions get measured:

1. **Code/data split** (§3.1): "The separation of page content into code
   blobs and data blobs is primarily a performance optimization ...
   reduces the amount of data stored at the CDN", and hence the linear
   scan. We compare a universe with shared per-domain code against one
   that inlines code into every page.
2. **Blob-size tiers** (§3.5): scan cost per request as the fixed blob
   size grows — why a CDN would tier small/medium/large universes rather
   than serve everything at the largest size.
"""

import time

import numpy as np

from benchmarks.conftest import report
from repro.costmodel.datasets import DatasetSpec
from repro.costmodel.estimator import estimate_deployment
from repro.crypto.dpf import eval_dpf_full, gen_dpf
from repro.pir.database import BlobDatabase

BLOB_SIZES = (1024, 2048, 4096, 8192, 16384)


def test_a3_scan_cost_vs_blob_size(benchmark):
    def scan_ms(blob_bytes):
        db = BlobDatabase(10, blob_bytes)
        rng = np.random.default_rng(0)
        for i in range(db.n_slots):
            db.set_slot(i, bytes(rng.integers(0, 256, 64, dtype=np.uint8)))
        key0, _ = gen_dpf(3, 10)
        bits = eval_dpf_full(key0)
        best = None
        for _ in range(3):
            start = time.perf_counter()
            db.xor_scan(bits)
            scan = time.perf_counter() - start
            best = scan if best is None else min(best, scan)
        return best * 1e3

    times = benchmark.pedantic(
        lambda: {size: scan_ms(size) for size in BLOB_SIZES},
        rounds=1, iterations=1,
    )
    report("A3: per-request scan cost vs fixed blob size (2^10 blobs)", [
        (f"{size} B blobs", f"{ms:.2f} ms scan") for size, ms in times.items()
    ])
    # Bigger blobs -> more bytes scanned -> more time; motivates tiering.
    assert times[BLOB_SIZES[-1]] > times[BLOB_SIZES[0]]


def test_a3_tier_cost_model(benchmark):
    """Cost of a 10M-page universe at each tier's fixed page size."""

    def tier_costs():
        costs = {}
        for size in (1024, 4096, 16384):
            dataset = DatasetSpec(f"tier-{size}", 10_000_000 * size,
                                  10_000_000, size)
            costs[size] = estimate_deployment(dataset).request_cost_usd
        return costs

    costs = benchmark(tier_costs)
    report("A3b: request cost per tier (10M pages each)", [
        (f"{size} B tier", f"${cost:.5f}/request")
        for size, cost in costs.items()
    ])
    assert costs[16384] > costs[1024]  # the §3.5 trade-off is real


def test_a3_code_data_split_saves_storage(benchmark):
    """Shared code blobs vs code inlined into every page."""
    code_bytes = 8192     # one domain program
    page_bytes = 900      # the paper's average page
    pages_per_site = 200
    n_sites = 50

    def storage():
        split = n_sites * code_bytes + n_sites * pages_per_site * page_bytes
        inlined = n_sites * pages_per_site * (page_bytes + code_bytes)
        return split, inlined

    split, inlined = benchmark(storage)
    report("A3c: the §3.1 code/data split", [
        ("CDN bytes with shared code blobs", f"{split/1e6:.1f} MB"),
        ("CDN bytes with code inlined per page", f"{inlined/1e6:.1f} MB"),
        ("scan-cost multiplier avoided", f"{inlined/split:.1f}x"),
    ])
    assert inlined > 5 * split
