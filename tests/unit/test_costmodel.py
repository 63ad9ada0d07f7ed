"""Tests for the cost-model package: Table 2 and the §4/§5.2 analytics."""

import math

import pytest

from repro.costmodel.aws import C5_LARGE, InstanceType
from repro.costmodel.billing import (
    GOOGLE_FI_USD_PER_GIB,
    UserProfile,
    fi_bytes_cost,
    fi_page_cost,
    monthly_user_cost,
    zltp_vs_fi_ratio,
)
from repro.costmodel.datasets import C4, GIB, KIB, WIKIPEDIA, DatasetSpec
from repro.costmodel.estimator import (
    PAPER_SHARD,
    estimate_deployment,
    implementation_key_bytes,
    measure_shard,
    paper_key_bytes,
)
from repro.costmodel.projection import (
    CPU_COST_IMPROVEMENT_PER_5Y,
    projected_cost,
    years_until_cost,
)
from repro.errors import ReproError


class TestInstances:
    def test_c5_large_matches_paper(self):
        assert C5_LARGE.vcpus == 2
        assert C5_LARGE.memory_gib == 4.0
        assert C5_LARGE.hourly_usd == 0.085

    def test_cost_conversions(self):
        assert C5_LARGE.machine_seconds_to_usd(3600) == pytest.approx(0.085)
        assert C5_LARGE.vcpu_seconds_to_usd(7200) == pytest.approx(0.085)

    def test_validation(self):
        with pytest.raises(ReproError):
            InstanceType("bad", 0, 1.0, 0.1)


class TestDatasets:
    def test_c4_statistics(self):
        assert C4.total_gib == 305
        assert C4.n_pages == 360_000_000
        assert C4.avg_page_bytes == pytest.approx(0.9 * KIB)

    def test_wikipedia_statistics(self):
        assert WIKIPEDIA.total_gib == 21
        assert WIKIPEDIA.n_pages == 60_000_000

    def test_c4_needs_305_shards(self):
        """§5.2: "a deployment of 305 c5.large data servers"."""
        assert C4.n_shards(GIB) == 305

    def test_pages_per_shard_near_2_20(self):
        """§5.1: "roughly 2^20 key-value pairs" per 1 GiB shard."""
        assert 0.8 * 2**20 < C4.pages_per_shard(GIB) < 1.4 * 2**20

    def test_suggested_domain_matches_paper(self):
        """The §5.1 sizing rule yields the paper's 2^22 output domain."""
        assert C4.suggested_domain_bits(GIB) == 22

    def test_validation(self):
        with pytest.raises(ReproError):
            DatasetSpec("bad", 0, 1, 1.0)


class TestDeploymentEstimates:
    def test_c4_row_matches_table2(self):
        estimate = estimate_deployment(C4)
        row = estimate.row()
        assert estimate.n_shards == 305
        # Table 2: 204 vCPU sec, $0.002, 15.9 KiB.
        assert row["vcpu_sec"] == pytest.approx(204, rel=0.01)
        assert row["request_cost_usd"] == pytest.approx(0.002, rel=0.25)
        assert row["communication_kib"] == pytest.approx(15.9, rel=0.05)

    def test_c4_per_server_text_numbers(self):
        """§5.2 text: 1.7 vCPU-minutes per side, $0.001 per side."""
        estimate = estimate_deployment(C4)
        per_side_vcpu_min = estimate.vcpu_seconds / 2 / 60
        assert per_side_vcpu_min == pytest.approx(1.7, rel=0.02)
        assert estimate.request_cost_usd / 2 == pytest.approx(0.001, rel=0.25)

    def test_wikipedia_row_shape(self):
        """Wikipedia is far cheaper than C4; communication is ~15 KiB."""
        c4 = estimate_deployment(C4)
        wiki = estimate_deployment(WIKIPEDIA)
        assert wiki.n_shards == 21
        assert 10 < c4.vcpu_seconds / wiki.vcpu_seconds < 20
        assert wiki.row()["communication_kib"] == pytest.approx(14.9, rel=0.05)

    def test_download_is_two_buckets(self):
        estimate = estimate_deployment(C4)
        assert estimate.download_bytes == 2 * 4096

    def test_latency_floor(self):
        assert estimate_deployment(C4).latency_floor_seconds == 2.6

    def test_key_size_formulas(self):
        # Paper arithmetic: (128+2)·22 bytes ≈ 2.8 KiB per key.
        assert paper_key_bytes(22) == 2860
        # Our implementation's key is much smaller.
        assert implementation_key_bytes(22) < 500

    def test_implementation_key_bytes_is_the_wire_layout(self):
        from repro.crypto.dpf import gen_dpf

        for domain_bits in (1, 10, 22):
            key0, _key1 = gen_dpf(0, domain_bits)
            assert implementation_key_bytes(domain_bits) == \
                len(key0.to_bytes())
        # Deeper than the dealer goes: still 6 + 16 + 17 per level.
        assert implementation_key_bytes(40) == 6 + 16 + 17 * 40

    def test_zero_shard_spec_clamped_to_one(self):
        # Regression: a duck-typed spec reporting zero shards used to
        # reach math.log2(0) in the key-size term and raise ValueError;
        # a corpus smaller than one shard still occupies one shard.
        class ZeroShardSpec(DatasetSpec):
            def n_shards(self, shard_bytes=GIB):
                return 0

        tiny = ZeroShardSpec(name="tiny", total_bytes=1024,
                             n_pages=10, avg_page_bytes=102.4)
        estimate = estimate_deployment(tiny)
        assert estimate.n_shards == 1
        assert estimate.vcpu_seconds > 0


class TestMeasuredShard:
    def test_measure_shard_runs(self):
        shard = measure_shard(domain_bits=9, blob_bytes=256, n_requests=2)
        assert shard.request_seconds > 0
        assert shard.dpf_seconds > 0
        assert shard.scan_seconds > 0
        assert 0 < shard.scan_fraction < 1

    def test_measured_feeds_estimator(self):
        shard = measure_shard(domain_bits=9, blob_bytes=256, n_requests=1)
        estimate = estimate_deployment(C4, shard=shard)
        assert estimate.vcpu_seconds > 0

    def test_paper_shard_constants(self):
        assert PAPER_SHARD.request_seconds == 0.167
        assert PAPER_SHARD.dpf_seconds == 0.064
        assert PAPER_SHARD.scan_seconds == 0.103
        assert PAPER_SHARD.scan_fraction == pytest.approx(0.617, rel=0.01)


class TestBilling:
    def test_paper_monthly_cost(self):
        """§4: 50 pages/day × 5 GETs × $0.002 ≈ $15/month."""
        cost = monthly_user_cost(0.002)
        assert cost == pytest.approx(15.0, rel=0.01)

    def test_profile_gets(self):
        profile = UserProfile()
        assert profile.gets_per_day == 250
        assert profile.gets_per_month() == 7500

    def test_fi_nyt_homepage(self):
        """§5.2: the 22.4 MiB NYT homepage costs $0.218 on Fi."""
        assert fi_page_cost() == pytest.approx(0.218, rel=0.01)

    def test_fi_4kib(self):
        """§5.2: 4 KiB over Fi costs $0.000038."""
        assert fi_bytes_cost(4 * KIB) == pytest.approx(3.8e-5, rel=0.02)

    def test_two_orders_of_magnitude(self):
        """§5.2: ZLTP ≈ two orders of magnitude above Fi."""
        ratio = zltp_vs_fi_ratio(0.002)
        assert 10 < ratio < 1000
        assert math.log10(ratio) == pytest.approx(2, abs=0.75)

    def test_validation(self):
        with pytest.raises(ReproError):
            monthly_user_cost(-1)
        with pytest.raises(ReproError):
            UserProfile(pages_per_day=0)
        with pytest.raises(ReproError):
            fi_bytes_cost(-5)


class TestProjection:
    def test_five_years_is_16x(self):
        assert projected_cost(0.002, 5) == pytest.approx(0.002 / 16)

    def test_paper_order_of_magnitude_claim(self):
        """§5.2: "in 5 years ... drop by an order of magnitude"."""
        assert projected_cost(1.0, 5) < 0.1

    def test_zero_years(self):
        assert projected_cost(0.5, 0) == 0.5

    def test_years_until(self):
        years = years_until_cost(0.002, 0.0002)
        assert years == pytest.approx(5 * math.log(10) / math.log(16))
        assert years_until_cost(0.002, 0.01) == 0.0

    def test_validation(self):
        with pytest.raises(ReproError):
            projected_cost(-1, 5)
        with pytest.raises(ReproError):
            projected_cost(1, 5, improvement_per_5y=1.0)
        with pytest.raises(ReproError):
            years_until_cost(0, 1)
