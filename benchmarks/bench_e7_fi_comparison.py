"""E7 — §5.2's cost comparisons and the "Looking forward" projection.

Paper: Fi charges $10/GiB, so the 22.4 MiB NYT homepage costs $0.218 and
4 KiB costs $0.000038; ZLTP's $0.002 per 4 KiB fetch is "roughly two
orders of magnitude more expensive". Compute got 16x cheaper per 5 years
(2003→2008), suggesting an order-of-magnitude ZLTP cost drop in 5 years.
"""

import math

import pytest

from benchmarks.conftest import report
from repro.costmodel.billing import (
    fi_bytes_cost,
    fi_page_cost,
    zltp_vs_fi_ratio,
)
from repro.costmodel.datasets import C4, KIB
from repro.costmodel.estimator import estimate_deployment
from repro.costmodel.projection import projected_cost, years_until_cost


def test_e7_fi_anchors(benchmark):
    nyt = benchmark(fi_page_cost)
    four_kib = fi_bytes_cost(4 * KIB)
    report("E7: Google Fi anchors", [
        ("22.4 MiB NYT homepage over Fi", f"${nyt:.3f} (paper: $0.218)"),
        ("4 KiB over Fi", f"${four_kib:.6f} (paper: $0.000038)"),
    ])
    assert nyt == pytest.approx(0.218, rel=0.01)
    assert four_kib == pytest.approx(3.8e-5, rel=0.03)


def test_e7_zltp_premium(benchmark):
    request_cost = estimate_deployment(C4).request_cost_usd
    ratio = benchmark(zltp_vs_fi_ratio, request_cost)
    report("E7b: the ZLTP premium", [
        ("ZLTP per 4 KiB", f"${request_cost:.4f}"),
        ("Fi per 4 KiB", f"${fi_bytes_cost(4 * KIB):.6f}"),
        ("ratio", f"{ratio:.0f}x  (paper: 'roughly two orders of magnitude')"),
        ("willingness anchor", f"one NYT homepage over Fi buys "
                               f"{fi_page_cost()/request_cost:.0f} ZLTP fetches"),
    ])
    assert math.log10(ratio) == pytest.approx(2, abs=0.75)


def test_e7_forward_projection(benchmark):
    request_cost = estimate_deployment(C4).request_cost_usd
    in_five = benchmark(projected_cost, request_cost, 5)
    parity_years = years_until_cost(request_cost, fi_bytes_cost(4 * KIB))
    report("E7c: looking forward (16x per 5 years)", [
        ("today", f"${request_cost:.4f}/request"),
        ("in 5 years", f"${in_five:.5f}/request "
                       f"({request_cost/in_five:.0f}x cheaper — paper: "
                       f"'an order of magnitude')"),
        ("years until ZLTP matches today's Fi price", f"{parity_years:.1f}"),
    ])
    assert request_cost / in_five == pytest.approx(16, rel=0.01)
    assert in_five < request_cost / 10  # "order of magnitude" holds
