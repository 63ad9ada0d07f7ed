"""One private GET, traced end to end through a live TCP deployment.

Drives a real ``ZltpClient.get`` through two reactor listeners
(one per pir2 party) whose pir2 mode servers run the §5.2 sharded stack
(``prefix_bits=2`` → front-end + 4 data servers), and asserts the
exported trace is the nested span tree the observability design promises:

    zltp.client.get                      (client side, main thread)
    zltp.session.get[_batch]             (per party, connection thread)
      backend.answer[_batch]
        pir2.key_split / pir2.gang_eval
        engine.fanout                    (front-end fan-out)
          pir2.shard_scan × 4            (one per shard)

with per-span wall clocks and byte counts that reconcile with the
``RequestStats`` the protocol layer recorded.
"""

import json

import pytest

from repro.core.zltp.client import connect_client
from repro.core.zltp.server import ZltpServer
from repro.core.zltp.eventloop import ZltpEventLoopServer
from repro.core.zltp.sockets import connect_tcp
from repro.obs.trace import tracing
from repro.pir.database import BlobDatabase
from repro.pir.keyword import KeywordIndex

SALT = b"trace-salt"
PREFIX_BITS = 2
PAYLOAD = b"trace me end to end"


def spans_named(trees, names):
    """Every span in the forest whose name is in ``names`` (recursive)."""
    out = []

    def walk(node):
        if node["name"] in names:
            out.append(node)
        for child in node["children"]:
            walk(child)

    for tree in trees:
        walk(tree)
    return out


@pytest.fixture
def traced_world():
    db = BlobDatabase(domain_bits=6, blob_size=128)
    index = KeywordIndex(db, probes=1, salt=SALT)
    index.put("hello", PAYLOAD)
    servers = [
        ZltpServer(db, modes=["pir2"], party=party, salt=SALT, probes=1,
                   options={"prefix_bits": PREFIX_BITS})
        for party in (0, 1)
    ]
    listeners = [ZltpEventLoopServer(server) for server in servers]
    yield servers, listeners
    for listener in listeners:
        listener.stop()


class TestTraceEndToEnd:
    def test_one_get_produces_the_nested_span_tree(self, traced_world):
        servers, listeners = traced_world
        with tracing() as tracer:
            transports = [connect_tcp(*lis.address) for lis in listeners]
            client = connect_client(transports, supported_modes=["pir2"])
            assert client.get("hello") == PAYLOAD
            client.close()
        trees = tracer.export()

        # --- client root -------------------------------------------------
        [client_span] = spans_named(trees, {"zltp.client.get"})
        assert client_span["attrs"]["mode"] == "pir2"
        assert client_span["attrs"]["probes"] == 1
        assert client_span["wall_seconds"] > 0
        # The client span carries no key-derived attributes — only the
        # public mode/probe parameters (zero-leakage rule).
        assert set(client_span["attrs"]) == {"mode", "probes"}

        # --- one session span per party, each a root of its own tree -----
        session_spans = spans_named(
            trees, {"zltp.session.get", "zltp.session.get_batch"})
        assert len(session_spans) == 2
        for sess in session_spans:
            assert sess in [t for t in trees]  # connection threads → roots
            assert sess["attrs"]["mode"] == "pir2"
            assert sess["attrs"]["queries"] == 1

            # --- backend dispatch under the session ----------------------
            backends = [c for c in sess["children"]
                        if c["name"] in ("backend.answer",
                                         "backend.answer_batch")]
            assert len(backends) == 1
            backend = backends[0]
            assert backend["attrs"]["bytes_up"] == sess["attrs"]["bytes_up"]
            assert backend["attrs"]["bytes_down"] == sess["attrs"]["bytes_down"]

            # --- sharded pir2 core under the backend ----------------------
            names = [c["name"] for c in backend["children"]]
            assert "pir2.key_split" in names
            engines = [c for c in backend["children"]
                       if c["name"] == "engine.fanout"]
            assert len(engines) == 1
            engine = engines[0]
            assert engine["attrs"]["tasks"] == 1 << PREFIX_BITS

            # --- per-shard scans under the engine dispatch ----------------
            scans = [c for c in engine["children"]
                     if c["name"] == "pir2.shard_scan"]
            assert sorted(s["attrs"]["shard"] for s in scans) == \
                list(range(1 << PREFIX_BITS))

            # --- wall clocks nest sanely ----------------------------------
            assert sess["wall_seconds"] >= backend["wall_seconds"] > 0
            for scan in scans:
                assert 0 <= scan["wall_seconds"] <= engine["wall_seconds"]

    def test_span_bytes_reconcile_with_request_stats(self, traced_world):
        servers, listeners = traced_world
        with tracing() as tracer:
            transports = [connect_tcp(*lis.address) for lis in listeners]
            client = connect_client(transports, supported_modes=["pir2"])
            assert client.get("hello") == PAYLOAD
            client.close()
        trees = tracer.export()
        session_spans = spans_named(
            trees, {"zltp.session.get", "zltp.session.get_batch"})

        # Each party's session span reports exactly what that party's
        # server accounted for the mode.
        per_server = [server.stats_by_mode()["pir2"] for server in servers]
        assert sorted(s["attrs"]["bytes_up"] for s in session_spans) == \
            sorted(st.bytes_up for st in per_server)
        assert sorted(s["attrs"]["bytes_down"] for s in session_spans) == \
            sorted(st.bytes_down for st in per_server)

        # And the parties' per-mode totals, summed, carry the same totals.
        report = [server.stats_by_mode()["pir2"] for server in servers]
        assert sum(st.queries for st in report) == 2
        assert sum(st.bytes_up for st in report) == \
            sum(s["attrs"]["bytes_up"] for s in session_spans)
        assert sum(st.bytes_down for st in report) == \
            sum(s["attrs"]["bytes_down"] for s in session_spans)

    def test_trace_exports_as_json(self, traced_world):
        servers, listeners = traced_world
        with tracing() as tracer:
            transports = [connect_tcp(*lis.address) for lis in listeners]
            client = connect_client(transports, supported_modes=["pir2"])
            client.get("hello")
            client.close()
        trees = json.loads(json.dumps(tracer.export(), indent=2))
        assert spans_named(trees, {"pir2.shard_scan"})
        for tree in trees:
            assert {"name", "attrs", "wall_seconds", "children"} <= set(tree)
