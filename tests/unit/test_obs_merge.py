"""Unit tests for the plain-data snapshot machinery in ``repro.obs``.

The snapshot dict :func:`repro.obs.metrics.metric` builds is the
cross-process wire format: a stats sidecar serves it, and ``lightweb
top`` checks and merges whole servers' worth of it. These tests pin the
builder and the merge semantics down — float values in label-sorted
series, sums per label set, loud rejection of a kind mismatch or a kind
other than counter or gauge, source snapshots that merging never
mutates, and the format check a scraped snapshot must pass.
"""

import copy

import pytest

from repro.errors import ReproError
from repro.obs.metrics import (
    check_snapshot,
    merge_into,
    metric,
    relabel_snapshot,
    render_snapshot_text,
    snapshot_total,
)


def make_snapshot(scans=3.0, **labels):
    """A small but realistic snapshot: one counter, one gauge."""
    return {
        "scans_total": metric("counter", "scans served", [(labels, scans)]),
        "sessions_active": metric("gauge", "live sessions", [(labels, 2)]),
    }


def merged_snapshots(snapshots):
    merged = {}
    for snap in snapshots:
        merge_into(merged, snap)
    return merged


class TestMetric:
    def test_values_are_floats_and_series_sorted_by_labels(self):
        built = metric("counter", "queries", [({"mode": "pir2"}, 3),
                                              ({"mode": "enclave"}, 0)])
        assert built == {"kind": "counter", "help": "queries", "series": [
            {"labels": {"mode": "enclave"}, "value": 0.0},
            {"labels": {"mode": "pir2"}, "value": 3.0}]}
        assert all(type(cell["value"]) is float for cell in built["series"])

    def test_label_values_are_rendered_as_strings(self):
        [cell] = metric("gauge", "", [({"shard": 3}, 1.5)])["series"]
        assert cell["labels"] == {"shard": "3"}

    def test_only_counters_and_gauges(self):
        with pytest.raises(ReproError, match="counter or gauge"):
            metric("histogram", "latency", [])


class TestCheckSnapshot:
    def test_builder_output_passes(self):
        check_snapshot(make_snapshot(op="scan"))
        check_snapshot(relabel_snapshot(make_snapshot(), server="s0"))
        check_snapshot({})

    @pytest.mark.parametrize("bad", [
        [],
        {"scans_total": 5},
        {"scans_total": {"help": "", "series": []}},
        {"scans_total": {"kind": "histogram", "help": "", "series": []}},
        {"scans_total": {"kind": "counter", "series": []}},
        {"scans_total": {"kind": "counter", "help": "", "series": {}}},
        {"scans_total": {"kind": "counter", "help": "", "series": [
            {"labels": {"op": 1}, "value": 1.0}]}},
        {"scans_total": {"kind": "counter", "help": "", "series": [
            {"labels": [], "value": 1.0}]}},
        {"scans_total": {"kind": "counter", "help": "", "series": [
            {"labels": {}, "value": "a"}]}},
        {"scans_total": {"kind": "counter", "help": "", "series": [
            {"labels": {}, "value": True}]}},
        {"scans_total": {"kind": "counter", "help": "", "series": [
            {"labels": {}, "value": float("nan")}]}},
        {"scans_total": {"kind": "counter", "help": "", "series": [
            {"labels": {}, "value": 10 ** 400}]}},
        {"scans_total": {"kind": "counter", "help": "", "series": [
            {"labels": {}}]}},
    ])
    def test_out_of_format_is_refused(self, bad):
        with pytest.raises(ReproError):
            check_snapshot(bad)


class TestMergeInto:
    def test_merge_into_empty_copies_everything(self):
        src = make_snapshot(op="scan")
        merged = merge_into({}, src)
        assert merged == src
        assert snapshot_total(merged, "scans_total") == 3.0

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
        dst["scans_total"]["series"][0]["labels"]["op"] = "other"
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

    def test_kind_mismatch_rejected_loudly(self):
        other = {"sessions_active": metric("counter", "oops, a counter now",
                                           [({}, 1)])}
        with pytest.raises(ReproError, match="kind"):
            merge_into(make_snapshot(), other)

    @pytest.mark.parametrize("into", [{}, {"scan_seconds": metric(
        "counter", "", [({}, 1)])}])
    def test_other_kinds_rejected_loudly(self, into):
        histogram = {"scan_seconds": {"kind": "histogram", "help": "",
                                      "buckets": [0.1], "series": []}}
        with pytest.raises(ReproError, match="kind histogram"):
            merge_into(into, histogram)


class TestRelabel:
    def test_relabel_stamps_every_series(self):
        snap = relabel_snapshot(make_snapshot(op="scan"), worker=3)
        for entry in snap.values():
            for cell in entry["series"]:
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
    def test_values_and_missing_metrics(self):
        snap = merged_snapshots([make_snapshot(op="scan"),
                                 make_snapshot(scans=4.5, op="scan_batch")])
        assert snapshot_total(snap, "scans_total") == 7.5
        assert snapshot_total(snap, "no_such_metric") == 0.0


class TestRenderSnapshotText:
    def test_counter_and_gauge_exposition(self):
        text = render_snapshot_text(make_snapshot(op="scan"))
        assert text.splitlines() == [
            "# HELP scans_total scans served",
            "# TYPE scans_total counter",
            'scans_total{op="scan"} 3',
            "# HELP sessions_active live sessions",
            "# TYPE sessions_active gauge",
            'sessions_active{op="scan"} 2',
        ]

    def test_unlabelled_series_render_bare(self):
        snap = {"up": metric("gauge", "", [({}, 1)])}
        assert render_snapshot_text(snap).splitlines() == [
            "# HELP up ", "# TYPE up gauge", "up 1"]

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
