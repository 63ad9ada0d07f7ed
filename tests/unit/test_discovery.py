"""Unit tests for :mod:`repro.core.discovery`.

Covers the record format (signing, canonical payload, wire round-trip),
capability matching and ranking, the in-process directory (TTL expiry,
generation races, forged records), the fixed-size directory framing, the
TCP directory server/client pair, the caching resolver's grace-window
fallback, the announcer lifecycle, discovery-built endpoint pools (and
their re-resolve refresh path), and fixed-endpoint static directories.
"""

import struct
import threading

import pytest

from repro.core.discovery import (
    DIRECTORY_FRAME_BYTES,
    AnnounceRecord,
    Announcer,
    CachingResolver,
    CapabilityQuery,
    DirectoryClient,
    DirectoryServer,
    DirectorySession,
    InProcessDirectory,
    _decode_directory_frame,
    _encode_directory_frame,
    rank_records,
    resolved_pool,
    static_directory,
)
from repro.core.resilience import EndpointPool
from repro.core.zltp.wire import FrameDecoder, encode_frame
from repro.errors import DiscoveryError, TransportError


SECRET = b"test-deployment-secret"


def make_record(server_id="u/data/0/primary0", port=9001, party=0,
                kind="data", universe="u", modes=("pir2",),
                load=None, ttl_seconds=None, **kwargs):
    return AnnounceRecord(
        server_id=server_id, host="127.0.0.1", port=port, universe=universe,
        kind=kind, party=party, modes=tuple(modes),
        load=dict(load or {}), ttl_seconds=ttl_seconds, **kwargs,
    ).sign(SECRET)


class FakeClock:
    def __init__(self, start=0.0):
        self.now = start

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class TestAnnounceRecord:
    def test_sign_and_verify(self):
        record = make_record()
        assert record.verify(SECRET)
        assert not record.verify(b"other-secret")

    def test_tampered_payload_fails_verification(self):
        record = make_record()
        forged = AnnounceRecord.from_dict(
            {**record.to_dict(), "port": record.port + 1})
        assert not forged.verify(SECRET)

    def test_round_trip_through_dict(self):
        record = make_record(prefix_bits=4, prefix_lo=2, prefix_hi=6,
                             cost={"pir2": {"endpoints": 2}},
                             load={"sessions_active": 3.0},
                             attrs={"fetch_budget": 5}, generation=7,
                             ttl_seconds=15.0)
        again = AnnounceRecord.from_dict(record.to_dict())
        assert again == record
        assert again.verify(SECRET)

    def test_malformed_dict_raises_typed_error(self):
        with pytest.raises(DiscoveryError):
            AnnounceRecord.from_dict({"host": "x"})
        with pytest.raises(DiscoveryError):
            AnnounceRecord.from_dict(
                {**make_record().to_dict(), "port": "not-a-port"})

    def test_covers_prefix(self):
        whole = make_record()
        assert whole.covers_prefix(123)
        sharded = make_record(prefix_bits=4, prefix_lo=2, prefix_hi=6)
        assert sharded.covers_prefix(2) and sharded.covers_prefix(5)
        assert not sharded.covers_prefix(6) and not sharded.covers_prefix(0)


class TestCapabilityQuery:
    def test_matching(self):
        record = make_record(modes=("pir2", "pir-lwe"), party=1)
        assert CapabilityQuery("u", "data").matches(record)
        assert CapabilityQuery("u", "data", mode="pir2").matches(record)
        assert CapabilityQuery("u", "data", party=1).matches(record)
        assert not CapabilityQuery("u", "code").matches(record)
        assert not CapabilityQuery("other", "data").matches(record)
        assert not CapabilityQuery("u", "data", mode="enclave-oram"
                                   ).matches(record)
        assert not CapabilityQuery("u", "data", party=0).matches(record)

    def test_prefix_scoped_matching(self):
        sharded = make_record(prefix_bits=4, prefix_lo=2, prefix_hi=6)
        assert CapabilityQuery("u", "data", prefix=3).matches(sharded)
        assert not CapabilityQuery("u", "data", prefix=9).matches(sharded)

    def test_wire_round_trip(self):
        query = CapabilityQuery("u", "data", mode="pir2", party=1)
        assert CapabilityQuery.from_dict(query.to_dict()) == query

    def test_ranking_least_loaded_first(self):
        busy = make_record(server_id="busy", load={"sessions_active": 9.0})
        idle = make_record(server_id="idle", load={"sessions_active": 0.0})
        warm = make_record(server_id="warm", load={"sessions_active": 2.0})
        ranked = rank_records([busy, idle, warm])
        assert [r.server_id for r in ranked] == ["idle", "warm", "busy"]

    def test_ranking_routes_around_backed_up_admission_gate(self):
        # A backed-up gate is the most urgent saturation signal: it
        # outranks session count. Servers without a gate announce no
        # depth and sort as depth zero (the pre-gate behaviour).
        backed_up = make_record(server_id="backed-up", load={
            "admission_queue_depth": 7.0, "sessions_active": 1.0})
        draining = make_record(server_id="draining", load={
            "admission_queue_depth": 0.0, "sessions_active": 9.0})
        ungated = make_record(server_id="ungated", load={
            "sessions_active": 2.0})
        ranked = rank_records([backed_up, draining, ungated])
        assert [r.server_id for r in ranked] == \
            ["ungated", "draining", "backed-up"]

    def test_ranking_tie_break_is_deterministic(self):
        a = make_record(server_id="a")
        b = make_record(server_id="b")
        assert [r.server_id for r in rank_records([b, a])] == ["a", "b"]


class TestInProcessDirectory:
    def test_announce_and_resolve(self):
        directory = InProcessDirectory(secret=SECRET)
        directory.announce(make_record())
        found = directory.resolve(CapabilityQuery("u", "data"))
        assert len(found) == 1 and found[0].port == 9001

    def test_forged_record_rejected(self):
        directory = InProcessDirectory(secret=SECRET)
        unsigned = AnnounceRecord(server_id="x", host="h", port=1,
                                  universe="u", kind="data")
        with pytest.raises(DiscoveryError):
            directory.announce(unsigned)
        wrong_key = AnnounceRecord(server_id="x", host="h", port=1,
                                   universe="u", kind="data").sign(b"wrong")
        with pytest.raises(DiscoveryError):
            directory.announce(wrong_key)

    def test_reannounce_replaces_by_server_id(self):
        directory = InProcessDirectory(secret=SECRET)
        directory.announce(make_record(port=9001, generation=1))
        directory.announce(make_record(port=9002, generation=2))
        found = directory.resolve(CapabilityQuery("u", "data"))
        assert len(found) == 1 and found[0].port == 9002

    def test_stale_generation_rejected(self):
        directory = InProcessDirectory(secret=SECRET)
        directory.announce(make_record(generation=5))
        with pytest.raises(DiscoveryError):
            directory.announce(make_record(generation=3))

    def test_ttl_expiry(self):
        clock = FakeClock()
        directory = InProcessDirectory(secret=SECRET, clock=clock)
        directory.announce(make_record(ttl_seconds=10.0))
        assert directory.resolve(CapabilityQuery("u", "data"))
        clock.advance(10.5)
        assert directory.resolve(CapabilityQuery("u", "data")) == []
        assert directory.expiries == 1

    def test_infinite_ttl_never_expires(self):
        clock = FakeClock()
        directory = InProcessDirectory(secret=SECRET, clock=clock)
        directory.announce(make_record(ttl_seconds=None))
        clock.advance(1e9)
        assert directory.resolve(CapabilityQuery("u", "data"))

    def test_withdraw(self):
        directory = InProcessDirectory(secret=SECRET)
        directory.announce(make_record())
        assert directory.withdraw("u/data/0/primary0")
        assert not directory.withdraw("u/data/0/primary0")
        assert directory.resolve(CapabilityQuery("u", "data")) == []


class TestDirectoryFraming:
    def test_frames_are_fixed_size(self):
        small = _encode_directory_frame({"op": "resolve"})
        big = _encode_directory_frame(
            {"op": "announce", "record": make_record().to_dict()})
        assert len(small) == DIRECTORY_FRAME_BYTES
        assert len(big) == DIRECTORY_FRAME_BYTES

    def test_round_trip(self):
        obj = {"op": "announce", "record": make_record().to_dict()}
        assert _decode_directory_frame(_encode_directory_frame(obj)) == obj

    def test_oversized_message_raises(self):
        with pytest.raises(DiscoveryError):
            _encode_directory_frame({"blob": "x" * DIRECTORY_FRAME_BYTES})

    def test_malformed_frame_raises(self):
        with pytest.raises(DiscoveryError):
            _decode_directory_frame(b"\xff not json" + b"\x00" * 10)
        with pytest.raises(DiscoveryError):
            _decode_directory_frame(b"[1,2]" + b"\x00" * 10)


class TestDirectoryServerClient:
    def test_announce_resolve_withdraw_over_tcp(self):
        server = DirectoryServer(secret=SECRET)
        try:
            client = DirectoryClient(*server.address, secret=SECRET)
            client.announce(make_record())
            found = client.resolve(CapabilityQuery("u", "data"))
            assert len(found) == 1 and found[0].verify(SECRET)
            assert client.withdraw("u/data/0/primary0")
            assert client.resolve(CapabilityQuery("u", "data")) == []
        finally:
            server.stop()

    def test_forged_announce_rejected_over_tcp(self):
        server = DirectoryServer(secret=SECRET)
        try:
            client = DirectoryClient(*server.address, secret=SECRET)
            bad = AnnounceRecord(server_id="x", host="h", port=1,
                                 universe="u", kind="data").sign(b"wrong")
            with pytest.raises(DiscoveryError):
                client.announce(bad)
        finally:
            server.stop()

    def test_dead_directory_raises_transport_error(self):
        server = DirectoryServer(secret=SECRET)
        address = server.address
        server.stop()
        client = DirectoryClient(*address, secret=SECRET, timeout=0.5)
        with pytest.raises(TransportError):
            client.resolve(CapabilityQuery("u", "data"))

    def test_client_reverifies_returned_records(self):
        # A directory seeded under a different secret serves records the
        # client's secret cannot verify: the client must reject them.
        inner = InProcessDirectory(secret=b"directory-side-secret")
        inner.announce(AnnounceRecord(
            server_id="x", host="h", port=1, universe="u", kind="data",
        ).sign(b"directory-side-secret"))
        server = DirectoryServer(directory=inner)
        try:
            client = DirectoryClient(*server.address, secret=SECRET)
            with pytest.raises(DiscoveryError):
                client.resolve(CapabilityQuery("u", "data"))
        finally:
            server.stop()


def session_reply(session, data):
    """Feed raw bytes to a directory session; its one decoded reply."""
    out = session.receive(data)
    assert session.closed
    (frame,) = FrameDecoder().feed(out)
    assert len(frame) == DIRECTORY_FRAME_BYTES
    return _decode_directory_frame(frame)


class TestDirectorySession:
    """The sans-IO directory protocol, driven without a socket."""

    def test_one_request_one_reply_then_closed(self):
        directory = InProcessDirectory(secret=SECRET)
        directory.announce(make_record())
        session = DirectorySession(directory)
        request = encode_frame(_encode_directory_frame({"op": "records"}))
        assert session.receive(request[:100]) == b""
        reply = session_reply(session, request[100:])
        assert reply["ok"] and len(reply["records"]) == 1
        assert session.receive(request) == b""

    def test_wrong_size_refused_from_the_header_alone(self):
        session = DirectorySession(InProcessDirectory())
        reply = session_reply(session, struct.pack("<I", 17))
        assert reply["ok"] is False
        assert str(DIRECTORY_FRAME_BYTES) in reply["error"]

    def test_error_echoing_a_huge_request_still_fits_one_frame(self):
        op = "x" * (DIRECTORY_FRAME_BYTES - 100)
        request = encode_frame(_encode_directory_frame({"op": op}))
        reply = session_reply(DirectorySession(InProcessDirectory()),
                              request)
        assert reply["ok"] is False
        assert "unknown directory op" in reply["error"]

    @pytest.mark.parametrize("request_value", [
        [1, 2], "text", {"universe": ["not", "hashable"], "kind": "data"}])
    def test_malformed_query_is_answered_not_raised(self, request_value):
        request = encode_frame(_encode_directory_frame(
            {"op": "resolve", "query": request_value}))
        reply = session_reply(DirectorySession(InProcessDirectory()),
                              request)
        assert reply["ok"] is False or reply["records"] == []

    def test_hangup_and_idle_send_nothing(self):
        for end in ("end_of_stream", "expire"):
            session = DirectorySession(InProcessDirectory())
            session.receive(b"\x00\x40")
            assert getattr(session, end)() == b""
            assert session.closed


class TestCachingResolver:
    def test_caches_and_falls_back_when_directory_dies(self):
        server = DirectoryServer(secret=SECRET)
        address = server.address
        client = DirectoryClient(*address, secret=SECRET, timeout=0.5)
        resolver = CachingResolver(client, grace_seconds=300.0)
        try:
            client.announce(make_record())
            live = resolver.resolve(CapabilityQuery("u", "data"))
            assert len(live) == 1
        finally:
            server.stop()
        cached = resolver.resolve(CapabilityQuery("u", "data"))
        assert [r.port for r in cached] == [r.port for r in live]
        assert resolver.cache_fallbacks == 1

    def test_grace_window_expires(self):
        clock = FakeClock()

        class DeadDirectory:
            def resolve(self, query):
                raise TransportError("down")

        resolver = CachingResolver(DeadDirectory(), grace_seconds=60.0,
                                   clock=clock)
        resolver._cache[CapabilityQuery("u", "data").key()] = \
            ([make_record()], clock())
        assert resolver.resolve(CapabilityQuery("u", "data"))
        clock.advance(61.0)
        with pytest.raises(TransportError):
            resolver.resolve(CapabilityQuery("u", "data"))

    def test_no_cache_no_directory_raises(self):
        class DeadDirectory:
            def resolve(self, query):
                raise TransportError("down")

        resolver = CachingResolver(DeadDirectory())
        with pytest.raises(TransportError):
            resolver.resolve(CapabilityQuery("u", "data"))


class TestAnnouncer:
    def test_announce_now_signs_and_bumps_generation(self):
        directory = InProcessDirectory(secret=SECRET)
        unsigned = AnnounceRecord(server_id="s", host="h", port=1,
                                  universe="u", kind="data")
        announcer = Announcer(directory, lambda: [unsigned], secret=SECRET)
        assert announcer.announce_now() == 1
        first = directory.records()[0]
        assert first.generation == 1 and first.verify(SECRET)
        assert announcer.announce_now() == 1
        assert directory.records()[0].generation == 2

    def test_periodic_reannounce_and_withdraw_on_stop(self):
        directory = InProcessDirectory(secret=SECRET)
        unsigned = AnnounceRecord(server_id="s", host="h", port=1,
                                  universe="u", kind="data")
        ticked = threading.Event()

        def records():
            ticked.set()
            return [unsigned]

        announcer = Announcer(directory, records, secret=SECRET,
                              interval_seconds=0.01).start()
        assert ticked.wait(2.0)
        assert directory.records()
        announcer.stop(withdraw=True)
        assert directory.records() == []

    def test_directory_outage_is_absorbed(self):
        class DeadDirectory:
            def announce(self, record):
                raise TransportError("down")

        unsigned = AnnounceRecord(server_id="s", host="h", port=1,
                                  universe="u", kind="data")
        announcer = Announcer(DeadDirectory(), lambda: [unsigned],
                              secret=SECRET)
        assert announcer.announce_now() == 0
        assert announcer.errors == 1


class TestResolvedPool:
    def _dialable_record(self, registry, server_id, port, ok=True):
        record = make_record(server_id=server_id, port=port)
        registry[port] = ok
        return record

    def _connect(self, registry):
        def connect(host, port):
            if not registry.get(port, False):
                raise TransportError(f"dead endpoint {port}")
            return f"transport:{port}"
        return connect

    def test_pool_dials_ranked_candidates(self):
        directory = InProcessDirectory(secret=SECRET)
        registry = {}
        directory.announce(self._dialable_record(registry, "a", 9001))
        pool = resolved_pool(CachingResolver(directory),
                             CapabilityQuery("u", "data"),
                             connect=self._connect(registry))
        assert pool.dial() == "transport:9001"

    def test_empty_resolve_raises_discovery_error(self):
        directory = InProcessDirectory(secret=SECRET)
        with pytest.raises(DiscoveryError):
            resolved_pool(CachingResolver(directory),
                          CapabilityQuery("u", "data"))

    def test_refresh_re_resolves_when_all_candidates_die(self):
        directory = InProcessDirectory(secret=SECRET)
        registry = {}
        directory.announce(self._dialable_record(registry, "old", 9001))
        pool = resolved_pool(CachingResolver(directory),
                             CapabilityQuery("u", "data"),
                             connect=self._connect(registry))
        # The announced server dies; a replacement is announced later —
        # the pool must find it via re-resolve, with no new flags.
        registry[9001] = False
        directory.withdraw("old")
        directory.announce(self._dialable_record(registry, "new", 9002))
        assert pool.dial() == "transport:9002"
        assert pool.refreshes == 1

    def test_refresh_with_nothing_new_raises_original_error(self):
        directory = InProcessDirectory(secret=SECRET)
        registry = {}
        directory.announce(self._dialable_record(registry, "only", 9001))
        pool = resolved_pool(CachingResolver(directory),
                             CapabilityQuery("u", "data"),
                             connect=self._connect(registry))
        registry[9001] = False
        directory.withdraw("only")
        with pytest.raises(TransportError):
            pool.dial()
        assert pool.refreshes == 0


class TestStaticDirectory:
    def test_synthesizes_resolvable_records(self):
        directory = static_directory(
            "127.0.0.1", {"code": [9101, 9102], "data": [9103, 9104]},
            attrs={"fetch_budget": 3})
        code = directory.resolve(CapabilityQuery("main", "code"))
        data = directory.resolve(CapabilityQuery("main", "data"))
        assert {r.port for r in code} == {9101, 9102}
        assert {r.party for r in data} == {0, 1}
        assert all(r.attrs["fetch_budget"] == 3 for r in code + data)
        assert all(r.ttl_seconds is None for r in code + data)
        assert sorted(r.server_id for r in code + data) == [
            "static/main/code/0/primary0", "static/main/code/1/primary0",
            "static/main/data/0/primary0", "static/main/data/1/primary0"]

    def test_modes_restriction_and_aliases(self):
        directory = static_directory(
            "127.0.0.1", {"code": [1], "data": [2]}, modes=["enclave"])
        records = directory.resolve(CapabilityQuery("main", "data"))
        assert [record.modes for record in records] == [("enclave-oram",)]


class TestEndpointPoolRefreshUnit:
    def test_refresh_called_once_per_dial(self):
        calls = []

        def dead():
            raise TransportError("dead")

        def refresh():
            calls.append(1)
            return [dead]

        pool = EndpointPool([dead], refresh=refresh)
        with pytest.raises(TransportError):
            pool.dial()
        assert len(calls) == 1
        with pytest.raises(TransportError):
            pool.dial()
        assert len(calls) == 2

    def test_refresh_returning_none_or_empty_reraises(self):
        def dead():
            raise TransportError("dead")

        pool = EndpointPool([dead], refresh=lambda: None)
        with pytest.raises(TransportError) as err:
            pool.dial()
        assert "all 1 endpoints" in str(err.value)
        assert pool.refreshes == 0

    def test_refresh_replaces_candidate_list(self):
        def dead():
            raise TransportError("dead")

        pool = EndpointPool([dead], refresh=lambda: [lambda: "alive"])
        assert pool.dial() == "alive"
        assert pool.refreshes == 1 and len(pool) == 1
        # The pool is now pinned to the refreshed candidate.
        assert pool.dial() == "alive"
        assert pool.refreshes == 1
