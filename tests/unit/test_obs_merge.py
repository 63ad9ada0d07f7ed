"""Unit tests for the mergeable-snapshot machinery in ``repro.obs``.

The snapshot dict :meth:`MetricsRegistry.as_dict` returns is the
cross-process wire format: a stats sidecar serves it, and ``lightweb
top`` merges whole servers' worth of it. These tests pin the merge semantics down — sums for
counters/gauges, bucket-wise sums for histograms, loud rejection of
mismatched layouts, and source snapshots that merging never mutates.
"""

import copy

import pytest

from repro.errors import ReproError
from repro.obs.metrics import (
    MetricsRegistry,
    merge_into,
    relabel_snapshot,
    render_snapshot_text,
    snapshot_total,
)

BUCKETS = [0.01, 0.1, 1.0]


def make_snapshot(scans=3.0, observe=(0.005, 0.05, 0.5), **labels):
    """A small but realistic registry snapshot: one counter, one
    histogram, one gauge."""
    registry = MetricsRegistry()
    counter = registry.counter("scans_total", "scans served")
    counter.inc(scans, **labels)
    hist = registry.histogram("scan_seconds", "scan latency",
                              buckets=BUCKETS)
    for value in observe:
        hist.observe(value, **labels)
    gauge = registry.gauge("sessions_active", "live sessions")
    gauge.set(2.0, **labels)
    return registry.as_dict()


def merged_snapshots(snapshots):
    merged = {}
    for snap in snapshots:
        merge_into(merged, snap)
    return merged


class TestMergeInto:
    def test_merge_into_empty_copies_everything(self):
        src = make_snapshot(op="scan")
        merged = merge_into({}, src)
        assert snapshot_total(merged, "scans_total") == 3.0
        assert snapshot_total(merged, "scan_seconds", field="count") == 3.0
        assert merged["scan_seconds"]["buckets"] == BUCKETS

    def test_merge_empty_is_identity(self):
        dst = make_snapshot(op="scan")
        before = copy.deepcopy(dst)
        assert merge_into(dst, {}) == before

    def test_merging_never_mutates_the_source(self):
        src = make_snapshot(op="scan")
        before = copy.deepcopy(src)
        dst = merge_into({}, src)
        # Both the copy-through path and the add-into-existing path must
        # leave the source alone: merge again and bump the result.
        merge_into(dst, src)
        dst["scans_total"]["series"][0]["value"] += 100
        dst["scan_seconds"]["series"][0]["counts"][0] += 100
        assert src == before

    def test_counters_sum_per_label_set(self):
        merged = merged_snapshots([make_snapshot(op="scan"),
                                  make_snapshot(op="scan"),
                                  make_snapshot(op="scan_batch")])
        by_op = {cell["labels"]["op"]: cell["value"]
                 for cell in merged["scans_total"]["series"]}
        assert by_op == {"scan": 6.0, "scan_batch": 3.0}
        # Gauges sum too: a fleet's active sessions is the sum of every
        # server's.
        assert snapshot_total(merged, "sessions_active") == 6.0

    def test_histograms_merge_bucket_wise(self):
        merged = merged_snapshots([
            make_snapshot(observe=(0.005,), op="scan"),
            make_snapshot(observe=(0.5, 2.0), op="scan"),
        ])
        [cell] = merged["scan_seconds"]["series"]
        # buckets: <=0.01, <=0.1, <=1.0, +Inf
        assert cell["counts"] == [1, 0, 1, 1]
        assert cell["count"] == 3
        assert cell["sum"] == pytest.approx(2.505)

    def test_mismatched_bucket_layouts_rejected_loudly(self):
        registry = MetricsRegistry()
        registry.histogram("scan_seconds", "scan latency",
                           buckets=[0.5, 5.0]).observe(0.1)
        other = registry.as_dict()
        with pytest.raises(ReproError, match="bucket layouts differ"):
            merge_into(make_snapshot(), other)

    def test_kind_mismatch_rejected_loudly(self):
        registry = MetricsRegistry()
        registry.counter("sessions_active", "oops, a counter now").inc()
        with pytest.raises(ReproError, match="kind"):
            merge_into(make_snapshot(), registry.as_dict())


class TestRelabel:
    def test_relabel_stamps_every_series(self):
        snap = relabel_snapshot(make_snapshot(op="scan"), worker=3)
        for metric in snap.values():
            for cell in metric["series"]:
                assert cell["labels"]["worker"] == "3"  # str-coerced
        # pre-existing labels survive
        assert snap["scans_total"]["series"][0]["labels"]["op"] == "scan"

    def test_relabel_copies_rather_than_mutates(self):
        src = make_snapshot(op="scan")
        before = copy.deepcopy(src)
        relabel_snapshot(src, worker=0)
        assert src == before

    def test_relabelled_snapshots_merge_side_by_side(self):
        merged = merged_snapshots([
            relabel_snapshot(make_snapshot(), worker=0),
            relabel_snapshot(make_snapshot(), worker=1),
        ])
        workers = sorted(cell["labels"]["worker"]
                         for cell in merged["scans_total"]["series"])
        assert workers == ["0", "1"]
        assert snapshot_total(merged, "scans_total") == 6.0


class TestSnapshotTotal:
    def test_fields_and_missing_metrics(self):
        snap = make_snapshot()
        assert snapshot_total(snap, "scans_total") == 3.0
        assert snapshot_total(snap, "scan_seconds", field="count") == 3.0
        assert snapshot_total(snap, "scan_seconds", field="sum") == \
            pytest.approx(0.555)
        assert snapshot_total(snap, "no_such_metric") == 0.0


class TestRenderSnapshotText:
    def test_counter_and_histogram_exposition(self):
        registry = MetricsRegistry()
        registry.counter("scans_total", "scans served").inc(3.0, op="scan")
        registry.histogram("scan_seconds", "scan latency",
                           buckets=BUCKETS).observe(0.05, op="scan")
        assert render_snapshot_text(registry.as_dict()).splitlines() == [
            "# HELP scan_seconds scan latency",
            "# TYPE scan_seconds histogram",
            'scan_seconds_bucket{op="scan",le="0.01"} 0',
            'scan_seconds_bucket{op="scan",le="0.1"} 1',
            'scan_seconds_bucket{op="scan",le="1"} 1',
            'scan_seconds_bucket{op="scan",le="+Inf"} 1',
            'scan_seconds_sum{op="scan"} 0.05',
            'scan_seconds_count{op="scan"} 1',
            "# HELP scans_total scans served",
            "# TYPE scans_total counter",
            'scans_total{op="scan"} 3',
        ]

    def test_empty_snapshot_renders_nothing(self):
        assert render_snapshot_text({}) == ""


class TestRenderFleet:
    def test_sub_millisecond_scans_do_not_read_zero(self):
        from repro.obs.fleet import (
            FleetSnapshot, ScrapeTarget, ServerScrape, render_fleet)

        stats = {"sessions_opened": 1, "gets_served": 3,
                 "modes": {"pir2": {"scan_seconds": 0.0004}}}
        out = render_fleet(FleetSnapshot(scrapes=[
            ServerScrape(ScrapeTarget("s0", "127.0.0.1", 1), stats=stats)]))
        row = next(line for line in out.splitlines() if " UP " in line)
        assert float(row.split()[-1]) == 0.0004
        assert out.endswith("gets 3, scan seconds 0.0004")
