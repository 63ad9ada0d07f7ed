"""E4 — Table 2: estimated costs of running ZLTP on C4 and Wikipedia.

Paper row (C4):        305 GiB | 360M | 0.9 KiB | 204 vCPU-s | $0.002 | 15.9 KiB
Paper row (Wikipedia):  21 GiB |  60M | 0.4 KiB |  10 vCPU-s | $0.0001 | 14.9 KiB

We regenerate both rows through the paper's own estimation pipeline
(per-GiB shard cost × shard count × 2 vCPUs × 2 servers, priced at
c5.large), first with the paper's shard constants and then with constants
measured on this machine. Note: the Wikipedia vCPU number derived from the
paper's own published constants is ~14, not 10 — the ratio C4/Wikipedia
(305/21 ≈ 14.5×) is fixed by the shard counts; EXPERIMENTS.md discusses
the discrepancy.
"""

import pytest

from benchmarks.conftest import report
from repro.costmodel.datasets import C4, WIKIPEDIA
from repro.costmodel.estimator import (
    estimate_deployment,
    measure_shard,
)

PAPER_ROWS = {
    "C4": {"vcpu_sec": 204, "request_cost_usd": 0.002, "communication_kib": 15.9},
    "Wikipedia": {"vcpu_sec": 10, "request_cost_usd": 0.0001,
                  "communication_kib": 14.9},
}


def _format_row(row):
    return (f"{row['total_size_gib']:.0f} GiB | {row['n_pages']/1e6:.0f}M | "
            f"{row['avg_page_kib']:.1f} KiB | {row['vcpu_sec']:.1f} vCPU-s | "
            f"${row['request_cost_usd']:.5f} | {row['communication_kib']:.1f} KiB")


def test_e4_table2_from_paper_constants(benchmark):
    rows = benchmark(
        lambda: {d.name: estimate_deployment(d).row() for d in (C4, WIKIPEDIA)}
    )
    report("E4: Table 2 regenerated (paper shard constants)", [
        ("C4 (ours)", _format_row(rows["C4"])),
        ("C4 (paper)", "305 GiB | 360M | 0.9 KiB | 204 | $0.002 | 15.9 KiB"),
        ("Wikipedia (ours)", _format_row(rows["Wikipedia"])),
        ("Wikipedia (paper)", "21 GiB | 60M | 0.4 KiB | 10 | $0.0001 | 14.9 KiB"),
    ])
    c4 = rows["C4"]
    assert c4["vcpu_sec"] == pytest.approx(204, rel=0.01)
    assert c4["request_cost_usd"] == pytest.approx(0.002, rel=0.25)
    assert c4["communication_kib"] == pytest.approx(15.9, rel=0.05)
    wiki = rows["Wikipedia"]
    assert wiki["communication_kib"] == pytest.approx(14.9, rel=0.05)
    # Shape: C4 is roughly an order of magnitude costlier than Wikipedia.
    assert 10 < c4["vcpu_sec"] / wiki["vcpu_sec"] < 25
    assert 10 < c4["request_cost_usd"] / wiki["request_cost_usd"] < 25


def test_e4_table2_from_measured_constants(benchmark):
    shard = measure_shard(domain_bits=12, blob_bytes=4096, n_requests=2)
    rows = benchmark(
        lambda: {d.name: estimate_deployment(d, shard=shard).row()
                 for d in (C4, WIKIPEDIA)}
    )
    report("E4b: Table 2 with THIS machine's measured shard", [
        ("measured shard",
         f"2^{shard.domain_bits}, {shard.request_seconds*1e3:.1f} ms/request"),
        ("C4 (measured-substrate)", _format_row(rows["C4"])),
        ("Wikipedia (measured-substrate)", _format_row(rows["Wikipedia"])),
        ("note", "absolute values reflect a Python shard; ratios match"),
    ])
    ratio = rows["C4"]["vcpu_sec"] / rows["Wikipedia"]["vcpu_sec"]
    assert ratio == pytest.approx(305 / 21, rel=0.02)
