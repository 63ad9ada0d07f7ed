"""A6 (ablation) — ORAM health: stash growth and recursion overhead.

The enclave mode's viability (§2.2) rests on two Path ORAM facts this
ablation verifies empirically: the trusted stash stays O(log N) under
sustained load (the classic Stefanov et al. result — a growing stash would
eventually overflow enclave memory), and recursing the position map trades
a modest constant-factor access overhead for trusted state that no longer
scales with the store.
"""

import numpy as np

from benchmarks.conftest import report
from repro.oram.path_oram import PathOram
from repro.oram.position_map import RecursivePathOram


def test_a6_stash_stays_logarithmic(benchmark):
    def stash_sweep():
        maxima = {}
        for bits in (5, 7, 9):
            oram = PathOram(bits, 16, rng=np.random.default_rng(bits))
            workload = np.random.default_rng(100 + bits)
            for _ in range(800):
                oram.write(int(workload.integers(0, oram.capacity)), b"x" * 16)
            maxima[bits] = oram.max_stash_seen
        return maxima

    maxima = benchmark.pedantic(stash_sweep, rounds=1, iterations=1)
    report("A6: max stash after 800 writes", [
        (f"N = 2^{bits}", f"{stash} blocks") for bits, stash in maxima.items()
    ])
    # O(log N): far below capacity at every size (never, say, N/2).
    for bits, stash in maxima.items():
        assert stash <= 4 * (bits + 1)


def test_a6_hot_address_same_stash_behaviour(benchmark):
    """Stash behaviour must not depend on the access pattern either."""

    def run(pattern):
        oram = PathOram(7, 16, rng=np.random.default_rng(7))
        for i in range(600):
            address = 5 if pattern == "hot" else i % 128
            oram.write(address, b"y" * 16)
        return oram.max_stash_seen

    hot = benchmark.pedantic(lambda: run("hot"), rounds=1, iterations=1)
    scan = run("scan")
    report("A6b: stash vs access pattern (2^7 blocks, 600 writes)", [
        ("single hot address", f"{hot} blocks"),
        ("sequential scan", f"{scan} blocks"),
    ])
    assert hot <= 4 * 8 and scan <= 4 * 8


def test_a6_recursion_overhead(benchmark):
    def build_and_measure():
        rows = {}
        flat = PathOram(12, 32, rng=np.random.default_rng(1))
        flat.write(0, b"z" * 32)
        rows["flat"] = (2 * 13, "O(N) map entries")
        recursive = RecursivePathOram(12, 32, entries_per_block=16,
                                      min_trusted_entries=16,
                                      rng=np.random.default_rng(2))
        recursive.write(0, b"z" * 32)
        rows["recursive"] = (recursive.accesses_per_op(),
                             "<= 16 trusted map entries")
        return rows

    rows = benchmark.pedantic(build_and_measure, rounds=1, iterations=1)
    report("A6c: flat vs recursive position map (2^12 blocks)", [
        (name, f"{touches} bucket touches/op, {state}")
        for name, (touches, state) in rows.items()
    ])
    flat_touches = rows["flat"][0]
    recursive_touches = rows["recursive"][0]
    assert flat_touches < recursive_touches < 4 * flat_touches
