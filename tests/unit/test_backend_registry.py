"""Tests for the pluggable PIR-backend registry (``repro.core.backend``).

Covers the ISSUE-3 acceptance criterion — a toy backend registered in a
single test-local module works end-to-end through ``negotiate()``,
``ZltpServerSession``, and ``lightweb lint`` with no edits to
``modes.py``, ``server.py``, or ``cli/`` — plus the negotiation edge
cases and the RequestStats round-trip from session to executor to
benchmark-shaped JSON.
"""

import importlib.util
import json

import numpy as np
import pytest

from repro.core import backend
from repro.core.backend import (
    BackendCost,
    RequestStats,
    declare_backend,
    mode_endpoints,
    negotiate,
    registered_modes,
    registered_server_class_names,
    unregister_backend,
)
from repro.core.zltp.client import connect_client
from repro.core.zltp.server import ZltpServer
from repro.core.zltp.transport import transport_pair
from repro.errors import NegotiationError, ProtocolError, ReproError
from repro.pir.database import BlobDatabase
from repro.pir.engine import ScanExecutor

BUILTIN_MODES = ["pir2", "pir-lwe", "enclave-oram"]

#: A complete self-contained backend module: the "one new module, zero
#: cross-cutting edits" promise of the registry. The server half answers
#: through ``pack_u64`` so the wire-shape rule accepts it.
TOY_BACKEND_SOURCE = '''\
"""A toy (non-private, demo-only) ZLTP backend registered from one module."""

import struct

import numpy as np

from repro.core import backend
from repro.pir.codec import pack_u64, unpack_u64

toy = backend.declare_backend(
    "toy-echo", endpoints=1, preference=99,
    assumption="none (demo backend; queries are visible)",
    aliases=("toy",),
)


@toy.server
class ToyEchoServer:
    """Answers a plaintext slot request with the stored record."""

    def __init__(self, database):
        self._db = database

    @classmethod
    def from_context(cls, database, ctx):
        """Registry hook."""
        return cls(database)

    def hello_params(self):
        """No mode parameters."""
        return {}

    def setup(self):
        """No setup payload."""
        return {}

    def answer(self, payload):
        """Fixed-size answer through the approved codec."""
        (slot,) = struct.unpack("<Q", payload)
        record = np.frombuffer(self._db.get_slot(slot), dtype=np.uint8)
        return pack_u64(record.astype(np.uint64))

    def answer_batch(self, payloads):
        """One by one; nothing to amortise."""
        return [self.answer(payload) for payload in payloads]


@toy.client
class ToyEchoClient:
    """Sends the slot in the clear; decodes the codec-wrapped record."""

    def __init__(self, blob_size):
        self.blob_size = blob_size

    @classmethod
    def from_hello(cls, domain_bits, blob_size, hello_params, setup, rng=None):
        """Registry hook."""
        return cls(blob_size)

    def queries_for_slot(self, slot):
        """The plaintext slot (this backend is deliberately non-private)."""
        return [struct.pack("<Q", slot)]

    def decode(self, answers):
        """Unwrap the codec framing."""
        return unpack_u64(answers[0]).astype(np.uint8).tobytes()
'''


@pytest.fixture
def toy_backend(tmp_path):
    """Import the toy backend from a file module; unregister afterwards."""
    path = tmp_path / "toy_backend.py"
    path.write_text(TOY_BACKEND_SOURCE)
    spec = importlib.util.spec_from_file_location("toy_backend", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    try:
        yield path
    finally:
        unregister_backend("toy-echo")


def _filled_db(domain_bits=6, blob_size=64):
    db = BlobDatabase(domain_bits, blob_size)
    db.set_slot(3, b"record-three")
    db.set_slot(9, b"record-nine")
    return db


class TestRegistryMetadata:
    def test_builtin_modes_registered_in_preference_order(self):
        assert registered_modes() == BUILTIN_MODES

    def test_endpoints_derived_from_registry(self):
        assert mode_endpoints("pir2") == 2
        assert mode_endpoints("pir-lwe") == 1
        assert mode_endpoints("enclave-oram") == 1

    def test_aliases_resolve(self):
        assert backend.resolve_mode("lwe") == "pir-lwe"
        assert backend.resolve_mode("enclave") == "enclave-oram"
        assert mode_endpoints("lwe") == 1

    def test_unknown_mode_is_typed_error(self):
        with pytest.raises(NegotiationError):
            mode_endpoints("carrier-pigeon")
        with pytest.raises(NegotiationError):
            backend.get_backend("carrier-pigeon")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(NegotiationError):
            declare_backend("pir2", endpoints=2, preference=0)
        # Aliases collide with names too.
        with pytest.raises(NegotiationError):
            declare_backend("fresh-name", endpoints=1, preference=9,
                            aliases=("lwe",))

    def test_bad_endpoint_count_rejected(self):
        with pytest.raises(NegotiationError):
            declare_backend("zero-endpoints", endpoints=0, preference=9)

    def test_server_class_names_enumerable(self):
        names = registered_server_class_names()
        assert {"Pir2ModeServer", "LweModeServer",
                "EnclaveModeServer"} <= set(names)

    def test_cost_parameters_by_name(self):
        assert backend.get_backend("pir2").cost.servers_per_request == 2
        assert backend.get_backend("lwe").cost.servers_per_request == 1
        assert not backend.get_backend("enclave").cost.linear_scan


class TestNegotiateEdgeCases:
    def test_picks_first_server_preferred(self):
        assert negotiate(["enclave-oram", "pir2"],
                         ["pir2", "enclave-oram"]) == "pir2"

    def test_unknown_client_mode_ignored(self):
        assert negotiate(["quantum-teleport", "pir2"], ["pir2"]) == "pir2"

    def test_unknown_server_mode_ignored(self):
        assert negotiate(["pir2"], ["quantum-teleport", "pir2"]) == "pir2"

    def test_aliases_negotiate_to_canonical_name(self):
        assert negotiate(["lwe"], ["pir-lwe"]) == "pir-lwe"
        assert negotiate(["pir-lwe"], ["lwe"]) == "pir-lwe"

    def test_empty_intersection_raises_typed_error(self):
        with pytest.raises(NegotiationError) as excinfo:
            negotiate(["pir2"], ["enclave-oram"])
        # The typed hierarchy from repro.errors holds.
        assert isinstance(excinfo.value, ProtocolError)
        assert isinstance(excinfo.value, ReproError)

    def test_all_unknown_raises(self):
        with pytest.raises(NegotiationError):
            negotiate(["quantum-teleport"], ["carrier-pigeon"])

    def test_empty_lists_raise(self):
        with pytest.raises(NegotiationError):
            negotiate([], ["pir2"])
        with pytest.raises(NegotiationError):
            negotiate(["pir2"], [])

    def test_preference_order_stable_under_insertion_order(self):
        # Register two toys in the "wrong" order: the later one has the
        # better (lower) preference rank. Enumeration must sort by rank,
        # not by insertion.
        declare_backend("zz-worse", endpoints=1, preference=60)
        declare_backend("aa-better", endpoints=1, preference=50)
        try:
            modes = registered_modes()
            assert modes.index("aa-better") < modes.index("zz-worse")
            assert modes[:3] == BUILTIN_MODES
        finally:
            unregister_backend("zz-worse")
            unregister_backend("aa-better")
        # And in the opposite insertion order the result is identical.
        declare_backend("aa-better", endpoints=1, preference=50)
        declare_backend("zz-worse", endpoints=1, preference=60)
        try:
            modes = registered_modes()
            assert modes.index("aa-better") < modes.index("zz-worse")
        finally:
            unregister_backend("aa-better")
            unregister_backend("zz-worse")

    def test_equal_preference_breaks_ties_by_name(self):
        declare_backend("tie-b", endpoints=1, preference=70)
        declare_backend("tie-a", endpoints=1, preference=70)
        try:
            modes = registered_modes()
            assert modes.index("tie-a") < modes.index("tie-b")
        finally:
            unregister_backend("tie-a")
            unregister_backend("tie-b")


class TestToyBackendEndToEnd:
    """The acceptance criterion: one module, no core edits, full stack."""

    def test_negotiates_and_serves_through_zltp_session(self, toy_backend):
        assert "toy-echo" in registered_modes()
        assert negotiate(["toy"], ["pir2", "toy-echo"]) == "toy-echo"
        db = _filled_db()
        server = ZltpServer(db, modes=["toy-echo"])
        client_end, server_end = transport_pair("toy:c", "toy:s")
        session = server.serve_transport(server_end)
        client = connect_client([client_end], supported_modes=["toy"])
        assert client.mode == "toy-echo"
        assert client.get_slot(3).rstrip(b"\x00") == b"record-three"
        assert client.get_slots([3, 9])[1].rstrip(b"\x00") == b"record-nine"
        assert session.mode == "toy-echo"
        assert server.gets_served == 3
        assert server.stats_for("toy-echo").queries == 3
        # The toy client has no queries_for_slots hook: a multi-key burst
        # falls back to its per-slot method and still comes back aligned.
        assert not hasattr(client._mode_client, "queries_for_slots")
        assert client.get_many(["no-such-key", "nor-this"]) == [None, None]
        assert server.gets_served == 3 + 2 * client.probes
        client.close()

    def test_served_by_default_mode_list(self, toy_backend):
        # A server built with no explicit mode list picks up the toy
        # backend from the registry automatically.
        server = ZltpServer(_filled_db())
        assert "toy-echo" in server.modes

    def test_lint_covers_the_toy_module(self, toy_backend):
        from repro.cli.main import main

        # The module as written is clean: its answer path goes through
        # the approved codec, and the class is registered.
        assert main(["lint", str(toy_backend)]) == 0

    def test_lint_flags_ad_hoc_answer_in_registered_toy(self, toy_backend,
                                                        tmp_path):
        from repro.analysis import analyze_source

        # Same class name (registered), but the answer path returns raw
        # bytes: registry-derived wire-shape coverage must flag it even
        # though the name does not match *ModeServer.
        leaky = (
            "class ToyEchoServer:\n"
            "    def hello_params(self):\n"
            "        return {}\n"
            "    def answer(self, payload):\n"
            "        return b'x' + payload\n"
        )
        findings = analyze_source(leaky, str(tmp_path / "leaky_toy.py"))
        assert [f.rule for f in findings] == ["wire-shape"]
        assert findings[0].symbol == "ToyEchoServer.answer"


class TestRequestStats:
    def test_counters_and_merge(self):
        stats = RequestStats()
        stats.add(queries=2, bytes_up=10, bytes_down=20, scan_seconds=0.5)
        other = RequestStats(queries=1, bytes_up=5, bytes_down=5,
                             scan_seconds=0.25)
        stats.merge(other)
        assert (stats.queries, stats.bytes_up, stats.bytes_down) == (3, 15, 25)
        assert stats.scan_seconds == pytest.approx(0.75)

    def test_copy_is_independent(self):
        stats = RequestStats(queries=1)
        snapshot = stats.copy()
        stats.add(queries=5)
        assert snapshot.queries == 1

    def test_dict_round_trip(self):
        stats = RequestStats(queries=7, bytes_up=100, bytes_down=4096,
                             scan_seconds=0.125)
        assert RequestStats.from_dict(stats.as_dict()) == stats
        # And through actual JSON, as the benchmark files store it.
        assert RequestStats.from_dict(
            json.loads(json.dumps(stats.as_dict()))) == stats


class TestStatsFlowEndToEnd:
    """Satellite: the same counters flow session → executor → JSON."""

    @pytest.mark.parametrize("mode", BUILTIN_MODES)
    def test_session_to_executor_to_benchmark_json(self, mode):
        executor = ScanExecutor(max_workers=1)
        db = _filled_db()
        rng = np.random.default_rng(0)
        n_endpoints = mode_endpoints(mode)
        servers = [
            ZltpServer(db, modes=[mode], party=party, rng=rng,
                       executor=executor)
            for party in range(n_endpoints)
        ]
        sessions = []
        transports = []
        for server in servers:
            client_end, server_end = transport_pair("stats:c", "stats:s")
            sessions.append(server.serve_transport(server_end))
            transports.append(client_end)
        client = connect_client(transports, supported_modes=[mode], rng=rng)
        assert client.get_slot(3).rstrip(b"\x00") == b"record-three"
        assert [r.rstrip(b"\x00") for r in client.get_slots([9, 3])] == \
            [b"record-nine", b"record-three"]

        # Per-session: 3 queries each (one per GET, per endpoint).
        for session in sessions:
            assert session.stats.queries == 3
            assert session.stats.bytes_up > 0
            assert session.stats.bytes_down > 0
            assert session.stats.scan_seconds > 0
        # Server totals match the session deltas exactly.
        for server, session in zip(servers, sessions):
            assert server.stats_for(mode) == session.stats
            assert server.gets_served == 3
        # The executor aggregated every server's deltas for this mode.
        report = executor.backend_report()
        assert set(report) == {mode}
        assert report[mode].queries == 3 * n_endpoints
        expected = RequestStats()
        for session in sessions:
            expected.merge(session.stats)
        assert report[mode] == expected
        # And the benchmark-JSON shape round-trips the same numbers.
        payload = json.loads(json.dumps(
            {m: s.as_dict() for m, s in report.items()}))
        assert RequestStats.from_dict(payload[mode]) == report[mode]
        client.close()
        executor.shutdown()

    def test_cdn_stats_by_mode(self):
        from repro.core.lightweb.cdn import Cdn
        from repro.core.lightweb.publisher import Publisher

        executor = ScanExecutor(max_workers=1)
        cdn = Cdn("stats-cdn", modes=["pir2"], executor=executor,
                  rng=np.random.default_rng(1))
        cdn.create_universe("u", data_domain_bits=8, code_domain_bits=6,
                            fetch_budget=2)
        publisher = Publisher("pub")
        site = publisher.site("stats.example")
        site.add_page("/", "hello stats")
        publisher.push(cdn, "u")
        client = cdn.connect("u", "data", rng=np.random.default_rng(2))
        client.get_slot(1)
        stats = cdn.stats_by_mode("u")
        assert stats["pir2"].queries == 2  # one GET per pir2 endpoint
        assert executor.backend_report()["pir2"] == stats["pir2"]
        client.close()
        executor.shutdown()

    def test_advertised_modes_registry_derived(self):
        from repro.core.lightweb.cdn import Cdn

        cdn = Cdn("adv-cdn", modes=["pir2", "lwe"])
        adv = cdn.advertised_modes()
        assert [entry["mode"] for entry in adv] == ["pir2", "pir-lwe"]
        assert adv[0]["endpoints"] == 2
        assert adv[1]["needs_setup"] is True
