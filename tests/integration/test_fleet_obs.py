"""Fleet observability end to end: two servers, one directory, one
``lightweb top``.

Two TCP-served logical pir2 servers (one per party, each a sharded
front-end) announce themselves, with their stats sidecar port, to a
directory and serve real GETs. ``lightweb top --directory`` must then
render one row per server whose GETS and SCAN-S come from that server's
own scrape, a footer that totals the rows, and one merged snapshot equal
to the sum of the per-server scrapes; killing one server's sidecar, or
one sidecar serving malformed metrics, must render a ``DOWN`` row
without failing the scrape.

Both servers live in this one process, and each scrape's ``metrics``
still carries only its own server's GETs: a scrape renders the logical
server's own counters.
"""

import json
import re

import numpy as np
import pytest

from repro.cli.main import main
from repro.cli.serve import serve_stats
from repro.core.discovery import (
    AnnounceRecord,
    DirectoryClient,
    DirectoryServer,
)
from repro.core.zltp.client import connect_client
from repro.core.zltp.server import ZltpServer
from repro.core.zltp.eventloop import ZltpEventLoopServer
from repro.core.zltp.sockets import connect_tcp
from repro.obs.fleet import (
    ScrapeTarget,
    render_fleet,
    scrape_fleet,
    scrape_server,
    targets_from_records,
)
from repro.obs.metrics import metric, relabel_snapshot, snapshot_total
from repro.pir.database import BlobDatabase

# 16 MiB, so each GET's scan takes long enough (at least ~1 ms at any
# memory bandwidth) to show in SCAN-S's three decimals.
DOMAIN_BITS = 12
BLOB = 4096
N_GETS = 3


def pir2_queries(snapshot):
    return sum(cell["value"]
               for cell in snapshot["zltp_queries_total"]["series"]
               if cell["labels"].get("mode") == "pir2")


@pytest.fixture(scope="module")
def fleet():
    """Two announced pir2 servers, already exercised."""
    db = BlobDatabase(DOMAIN_BITS, BLOB)
    for i in range(db.n_slots):
        db.set_slot(i, bytes([i % 256]) * BLOB)

    listeners, sidecars = [], []
    for party in (0, 1):
        server = ZltpServer(db, modes=["pir2"], party=party,
                            options={"prefix_bits": 1})
        listeners.append(ZltpEventLoopServer(server))
        sidecars.append(serve_stats(server.stats_snapshot,
                                    traces=server.flight.export))

    transports = [connect_tcp(*lis.address) for lis in listeners]
    client = connect_client(transports, supported_modes=["pir2"],
                            rng=np.random.default_rng(7))
    for i in range(N_GETS):
        assert client.get_slot(i) == bytes([i]) * BLOB
    client.close()

    directory = DirectoryServer()
    dclient = DirectoryClient("127.0.0.1", directory.address[1])
    for party, (lis, sidecar) in enumerate(zip(listeners, sidecars)):
        snap = lis.server.capability_snapshot()
        dclient.announce(AnnounceRecord(
            server_id=f"fleet/data/{party}/primary0", host="127.0.0.1",
            port=lis.address[1], universe="fleet", kind="data",
            party=party, modes=tuple(snap["modes"]),
            prefix_bits=snap["prefix_bits"], cost=snap["cost"],
            load=snap["load"],
            attrs={"stats_port": sidecar.address[1]},
            ttl_seconds=None,
        ).sign())

    yield directory, dclient, sidecars
    for lis in listeners + sidecars:
        lis.stop()
    directory.stop()


def run_cli(capsys, argv):
    rc = main(argv)
    return rc, capsys.readouterr().out


def up_rows(out):
    """(server id, GETS, SCAN-S) of every UP row of a ``top`` table."""
    rows = []
    for line in out.splitlines():
        fields = line.split()
        if len(fields) >= 6 and fields[2] == "UP":
            rows.append((fields[0], int(fields[4]), float(fields[5])))
    return rows


def footer(out):
    """(gets, scan seconds) of a ``top`` table's footer."""
    match = re.search(r"; gets (\d+), scan seconds ([\d.]+)$", out,
                      re.MULTILINE)
    assert match, out
    return int(match.group(1)), float(match.group(2))


class TestFleetTop:
    def test_merged_totals_equal_sum_of_per_server_scrapes(self, fleet,
                                                           capsys):
        directory, dclient, _sidecars = fleet
        rc, out = run_cli(capsys, [
            "top", "--json",
            "--directory", f"127.0.0.1:{directory.address[1]}"])
        assert rc == 0
        snap = json.loads(out)
        assert all(server["up"] for server in snap["servers"])

        targets = targets_from_records(dclient.records())
        assert len(targets) == 2
        scrapes = [scrape_server(target) for target in targets]
        # Each server's own accounting: one key per GET.
        for scrape in scrapes:
            assert scrape.stats["gets_served"] == N_GETS
            assert scrape.stats["modes"]["pir2"]["queries"] == N_GETS
        # Each scrape's metrics carry its own server's GETs alone, though
        # both servers share this process.
        per_server = [pir2_queries(scrape.metrics) for scrape in scrapes]
        assert per_server == [N_GETS, N_GETS]
        # Independent per-server scrapes must sum to the fleet total.
        merged_total = snapshot_total(snap["merged"], "zltp_queries_total")
        assert merged_total == sum(
            snapshot_total(scrape.metrics, "zltp_queries_total")
            for scrape in scrapes)
        assert pir2_queries(snap["merged"]) == sum(per_server)
        # The merged metrics and the table's footer count the same GETs.
        rc, out = run_cli(capsys, [
            "top", "--directory", f"127.0.0.1:{directory.address[1]}"])
        assert rc == 0
        assert footer(out)[0] == merged_total

    def test_table_renders_both_servers_up(self, fleet, capsys):
        directory, dclient, _sidecars = fleet
        rc, out = run_cli(capsys, [
            "top", "--directory", f"127.0.0.1:{directory.address[1]}"])
        assert rc == 0
        assert "fleet: 2 up, 0 down" in out
        assert out.count(" UP ") == 2
        for party in (0, 1):
            assert f"fleet/data/{party}/primary0" in out

        # Every row shows its own server's scan work, and the footer
        # totals the rows.
        rows = up_rows(out)
        assert len(rows) == 2
        scans = {scrape.target.server_id:
                 scrape.stats["modes"]["pir2"]["scan_seconds"]
                 for scrape in (scrape_server(target) for target in
                                targets_from_records(dclient.records()))}
        for server_id, gets, scan_s in rows:
            assert gets == N_GETS
            assert scan_s > 0
            assert f"{scan_s:.3f}" == f"{scans[server_id]:.3f}"
        gets, scan_s = footer(out)
        assert gets == sum(row[1] for row in rows)
        # Each figure is rounded to 3 decimals on its own.
        assert abs(scan_s - sum(row[2] for row in rows)) <= \
            5e-4 * (len(rows) + 1) + 1e-9

    def test_top_metrics_prints_merged_exposition(self, fleet, capsys):
        directory, _dclient, _sidecars = fleet
        rc, out = run_cli(capsys, [
            "top", "--metrics",
            "--directory", f"127.0.0.1:{directory.address[1]}"])
        assert rc == 0
        assert "fleet: 2 up, 0 down" in out
        assert 'zltp_queries_total{' in out
        # Merged series stay attributable to their origin server.
        assert 'server="fleet/data/0/primary0"' in out
        assert 'server="fleet/data/1/primary0"' in out

    def test_trace_subcommand_renders_flight_rings(self, fleet, capsys):
        _directory, _dclient, sidecars = fleet
        rc, out = run_cli(capsys, [
            "trace", "--port", str(sidecars[0].address[1])])
        assert rc == 0
        assert "flight recorder:" in out
        assert "zltp.session.get" in out  # the recent ring has trees

    def test_dead_sidecar_renders_down_without_failing(self, fleet,
                                                       capsys):
        # Ordered last (name + file order) so earlier all-up asserts see
        # the whole fleet; from here on server 1's sidecar is gone.
        directory, _dclient, sidecars = fleet
        sidecars[1].stop()
        rc, out = run_cli(capsys, [
            "top", "--directory", f"127.0.0.1:{directory.address[1]}"])
        assert rc == 0
        assert "fleet: 1 up, 1 down" in out
        assert " DOWN " in out
        # The footer totals the survivor's row alone.
        rows = up_rows(out)
        assert [row[1] for row in rows] == [N_GETS]
        assert footer(out)[0] == N_GETS


GOOD_METRICS = {"zltp_queries_total": metric(
    "counter", "PIR queries answered, by backend mode",
    [({"mode": "pir2"}, 2)])}


def counter_of(**cell):
    """``zltp_queries_total`` as a counter with one hand-made series."""
    return {"zltp_queries_total": {
        "kind": "counter", "help": "", "series": [cell]}}


class TestMalformedSidecar:
    """One sidecar serving metrics out of format is one ``DOWN`` row:
    the rest of the fleet still scrapes, merges and renders."""

    @pytest.mark.parametrize("metrics", [
        {"zltp_queries_total": 5},
        {"zltp_queries_total": {"help": "", "series": []}},
        counter_of(labels={"mode": "pir2"}, value="a"),
        {"zltp_queries_total": {
            "kind": "histogram", "help": "", "buckets": [0.1],
            "series": [{"labels": {}, "counts": [1, 0], "sum": 0.05,
                        "count": 1}]}},
        {"zltp_queries_total": {"kind": "counter", "help": 7,
                                "series": []}},
        counter_of(labels={"mode": 2}, value=1.0),
        counter_of(labels=["mode"], value=1.0),
        counter_of(labels={"mode": "pir2"}, value=float("nan")),
        counter_of(labels={"mode": "pir2"}),
        ["zltp_queries_total"],
    ], ids=["not-an-object", "no-kind", "string-value", "histogram",
            "help-not-a-string", "int-label", "labels-not-an-object",
            "nan-value", "no-value", "metrics-not-an-object"])
    def test_bad_sidecar_is_down_and_the_rest_merge(self, metrics):
        sidecars = [serve_stats(lambda: {"metrics": GOOD_METRICS}),
                    serve_stats(lambda: {"metrics": metrics})]
        try:
            targets = [ScrapeTarget(f"s/{i}", *sidecar.address)
                       for i, sidecar in enumerate(sidecars)]
            fleet = scrape_fleet(targets)
            assert fleet.up_count == 1
            assert fleet.merged == relabel_snapshot(GOOD_METRICS,
                                                    server="s/0")
            bad = fleet.scrapes[1]
            assert not bad.up and bad.error
            out = render_fleet(fleet, metrics_text=True)
            assert "fleet: 1 up, 1 down" in out
            assert 'zltp_queries_total{mode="pir2",server="s/0"} 2' in out
        finally:
            for sidecar in sidecars:
                sidecar.stop()
