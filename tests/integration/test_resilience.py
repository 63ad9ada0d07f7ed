"""Chaos suite: real protocol runs through injected transport faults.

Every test drives a *complete* ZLTP session (hello, optional setup,
private GETs) while a :class:`~repro.netsim.simnet.NetworkPath` loses
frames — at scripted ``(direction, index)`` steps or at a seeded random
rate — and asserts that the resilience layer
(:mod:`repro.core.resilience`) completes the same operations with
byte-identical results.

A note on loss semantics: there is one fault model. A lost frame kills
the link connection, as it would a TCP stream: what arrived before it is
answered, nothing after it is delivered, and the failed read is the
public transport event that triggers shape-preserving replay. So a loss
anywhere in a pipelined burst recovers with every unanswered GET
replayed. The two faults a simulated path cannot express — a wall-clock
stall and a real socket killed mid-burst — are test-local
``recv_frame`` overrides below.
"""
import itertools
import time

import numpy as np
import pytest

from repro.core.resilience import (
    EndpointPool,
    ReconnectingTransport,
    RetryPolicy,
)
from repro.core.zltp.client import connect_client
from repro.core.zltp.server import ZltpServer
from repro.core.zltp.sockets import connect_tcp
from repro.core.zltp.serving import create_tcp_server
from repro.crypto.dpf import gen_dpf
from repro.errors import DeadlineError, TransportError
from repro.netsim.simnet import NetworkPath, SimClock, SimLink
from repro.pir.database import BlobDatabase
from repro.pir.keyword import KeywordIndex
from repro.pir.sharding import ShardedPartyServer

SALT = b"chaos-test"


def build_db(probes=2, n_records=12):
    db = BlobDatabase(8, 64)
    index = KeywordIndex(db, probes=probes, salt=SALT)
    for i in range(n_records):
        index.put(f"s{i}.com/p", f"res-{i}".encode())
    return db


def party_servers(db, probes=2, **kwargs):
    return [ZltpServer(db, modes=["pir2"], party=party, salt=SALT,
                       probes=probes, **kwargs)
            for party in (0, 1)]


def fast_policy(attempts=8):
    """Backoff that never sleeps — chaos tests should run in milliseconds."""
    return RetryPolicy(max_attempts=attempts, base_delay=0.001,
                       max_delay=0.01, jitter=0.0, sleep=lambda s: None)


def memory_dial(server, path=None):
    """Dial factory: a fresh link session on ``server``, over one path.

    Every incarnation shares the path, whose frame counts run across
    connections, so a scripted loss fires exactly once no matter how
    many times the resilient wrapper re-dials.
    """
    link = SimLink(path)

    def dial():
        return link.connect(server)
    return dial


def lossy_path(*lose):
    return NetworkPath(SimClock(), lose=lose)


class TestScriptedFaults:
    def test_recv_error_mid_pipelined_batch_recovers(self):
        db = build_db()
        servers = party_servers(db)
        # Down frame 0 is the hello reply: the 3rd reply of the burst is
        # lost, after two of the six GETs were answered.
        path = lossy_path(("down", 3))
        transports = [
            ReconnectingTransport(memory_dial(servers[0], path),
                                  policy=fast_policy(), name="party0"),
            ReconnectingTransport(memory_dial(servers[1]),
                                  policy=fast_policy(), name="party1"),
        ]
        client = connect_client(transports, supported_modes=["pir2"])
        slots = [client.candidate_slots(f"s{i}.com/p")[0] for i in range(6)]
        records = client.get_slots(slots)
        assert records == [db.get_slot(slot) for slot in slots]
        assert transports[0].reconnects == 1
        assert transports[0].frames_replayed == 4
        assert path.frames_dropped == 1
        client.close()

    def test_connection_closed_mid_batch_recovers(self):
        db = build_db()
        servers = party_servers(db)
        # Up frame 0 is the hello: the burst's 3rd GET is lost, so the
        # connection dies before any reply of the burst is delivered.
        path = lossy_path(("up", 3))
        transports = [
            ReconnectingTransport(memory_dial(servers[0], path),
                                  policy=fast_policy()),
            ReconnectingTransport(memory_dial(servers[1]),
                                  policy=fast_policy()),
        ]
        client = connect_client(transports, supported_modes=["pir2"])
        slots = [client.candidate_slots(f"s{i}.com/p")[0] for i in range(4)]
        assert client.get_slots(slots) == [db.get_slot(s) for s in slots]
        assert transports[0].reconnects == 1
        assert transports[0].frames_replayed == 4
        assert path.frames_dropped == 1
        client.close()

    def test_dropped_frames_recovered_one_request_at_a_time(self):
        db = build_db(probes=1)
        servers = party_servers(db, probes=1)
        # Each loss kills its connection: one reconnect apiece, each
        # replaying the one GET that was outstanding.
        path = lossy_path(("up", 2), ("down", 4))
        transports = [
            ReconnectingTransport(memory_dial(servers[0], path),
                                  policy=fast_policy()),
            ReconnectingTransport(memory_dial(servers[1]),
                                  policy=fast_policy()),
        ]
        client = connect_client(transports, supported_modes=["pir2"])
        for i in range(6):
            slot = client.candidate_slots(f"s{i}.com/p")[0]
            assert client.get_slot(slot) == db.get_slot(slot)
        assert path.frames_dropped == 2
        assert transports[0].reconnects == 2
        assert transports[0].frames_replayed == 2
        client.close()

    def test_get_slots_deadline_expires_instead_of_hanging(self):
        db = build_db()
        servers = party_servers(db)
        slow = SimLink().connect(servers[0])
        reads = itertools.count()
        recv_frame = slow.recv_frame

        def stalling_recv_frame():
            if next(reads) == 1:  # the first reply after the hello
                time.sleep(0.05)
            return recv_frame()

        slow.recv_frame = stalling_recv_frame
        other_end = SimLink().connect(servers[1])
        client = connect_client([slow, other_end], supported_modes=["pir2"])
        slots = [client.candidate_slots("s1.com/p")[0],
                 client.candidate_slots("s2.com/p")[0]]
        with pytest.raises(DeadlineError):
            client.get_slots(slots, deadline_seconds=0.02)


class TestLossySimulatedNetwork:
    def test_gets_complete_over_lossy_paths(self):
        db = build_db(probes=1)
        servers = party_servers(db, probes=1)
        clock = SimClock()
        paths = [NetworkPath(clock, name=f"party{p}",
                             rng=np.random.default_rng(100 + p))
                 for p in (0, 1)]

        links = [SimLink(path) for path in paths]
        transports = [
            ReconnectingTransport(
                lambda p=p: links[p].connect(servers[p]),
                policy=fast_policy(12))
            for p in (0, 1)
        ]
        client = connect_client(transports, supported_modes=["pir2"])
        # Loss switches on only after the handshake: a client that never
        # reached hello has no session to resume.
        for path in paths:
            path.loss_rate = 0.25
        for i in range(12):
            slot = client.candidate_slots(f"s{i}.com/p")[0]
            assert client.get_slot(slot) == db.get_slot(slot)
        assert sum(path.frames_dropped for path in paths) > 0
        assert sum(t.reconnects for t in transports) > 0
        client.close()

    def test_seeded_loss_is_reproducible(self):
        drops = []
        for _run in range(2):
            clock = SimClock()
            path = NetworkPath(clock, loss_rate=0.3,
                               rng=np.random.default_rng(42))
            for _ in range(50):
                path.transfer("up", 100)
            drops.append(path.frames_dropped)
        assert drops[0] == drops[1] > 0


class TestTcpKillAndReconnect:
    def test_session_killed_mid_pipelined_batch_completes(self):
        db = build_db()
        servers = party_servers(db)
        listeners = [create_tcp_server("eventloop", server)
                     for server in servers]
        reads = itertools.count()

        def dial_faulty():
            # Before the 4th read on party 0 (across every connection),
            # the socket is closed under the client.
            transport = connect_tcp(*listeners[0].address)
            recv_frame = transport.recv_frame

            def killing_recv_frame():
                if next(reads) == 3:
                    transport.close()
                    raise TransportError("socket killed mid-burst")
                return recv_frame()

            transport.recv_frame = killing_recv_frame
            return transport

        def dial_plain():
            return connect_tcp(*listeners[1].address)

        try:
            transports = [
                ReconnectingTransport(dial_faulty, policy=fast_policy()),
                ReconnectingTransport(dial_plain, policy=fast_policy()),
            ]
            client = connect_client(transports, supported_modes=["pir2"])
            slots = [client.candidate_slots(f"s{i}.com/p")[0]
                     for i in range(6)]
            records = client.get_slots(slots)
            assert records == [db.get_slot(slot) for slot in slots]
            assert transports[0].reconnects == 1
            # 6 requests sent, 2 answered before the injected close: the
            # remaining 4 were replayed verbatim on the new connection.
            assert transports[0].frames_replayed == 4
            client.close()
        finally:
            for listener in listeners:
                listener.stop()


def break_shard(front_end, shard):
    """A data server's store goes bad: it now holds half a shard, so its
    scan raises."""
    server = front_end.data_servers[shard]
    server.database = server.database.sub_database(0, 1)


class TestShardDeath:
    def test_dead_shard_is_repaired_and_fanout_retried(self):
        db = BlobDatabase(8, 24)
        for i in range(db.n_slots):
            db.set_slot(i, f"cell-{i}".encode())
        parties = [ShardedPartyServer(db, 2, party) for party in (0, 1)]
        # One data server's store goes bad mid-serving.
        break_shard(parties[0].front_end, 1)
        target = 100
        k0, k1 = gen_dpf(target, db.domain_bits)
        a0 = parties[0].answer(k0.to_bytes())
        a1 = parties[1].answer(k1.to_bytes())
        record = bytes(x ^ y for x, y in zip(a0, a1))
        assert record.rstrip(b"\x00") == f"cell-{target}".encode()
        assert parties[0].front_end.shards_repaired == 1
        assert parties[0].front_end.last_fanout.retries >= 1

    def test_dead_shard_during_batch_scan_is_repaired(self):
        db = BlobDatabase(8, 24)
        for i in range(db.n_slots):
            db.set_slot(i, f"cell-{i}".encode())
        parties = [ShardedPartyServer(db, 2, party) for party in (0, 1)]
        break_shard(parties[1].front_end, 3)
        targets = [7, 100, 200]
        keys = [gen_dpf(t, db.domain_bits) for t in targets]
        share0 = parties[0].answer_batch([k0.to_bytes() for k0, _ in keys])
        share1 = parties[1].answer_batch([k1.to_bytes() for _, k1 in keys])
        for target, a0, a1 in zip(targets, share0, share1):
            record = bytes(x ^ y for x, y in zip(a0, a1))
            assert record.rstrip(b"\x00") == f"cell-{target}".encode()
        assert parties[1].front_end.shards_repaired == 1
        assert parties[1].front_end.last_fanout.retries == 1

    def test_shard_retry_surfaces_in_server_and_session_stats(self):
        db = build_db(probes=1)
        servers = party_servers(db, probes=1, options={"prefix_bits": 2})
        transports = []
        for server in servers:
            client_end = SimLink().connect(server)
            transports.append(client_end)
        client = connect_client(transports, supported_modes=["pir2"])
        # Kill a shard *after* the handshake built the mode servers.
        sharded = servers[0].mode_server("pir2")._pir
        break_shard(sharded.front_end, 0)
        assert client.get("s3.com/p") == b"res-3"
        # Only party 0's shard died: its retry shows in its session's
        # stats and in that server's per-mode totals, nowhere else.
        per_party = [server.stats_by_mode()["pir2"] for server in servers]
        assert [stats.retries for stats in per_party] == [1, 0]
        assert transports[0].session.stats.retries == 1
        client.close()


class TestEndpointFailoverAcceptance:
    """The ISSUE acceptance scenario: a pir2 endpoint dies mid-session.

    Two TCP listeners per party share one logical server; the client
    dials through a :class:`ReconnectingTransport` over an
    :class:`EndpointPool` of both listeners. The primary party-0
    listener is killed between two identical pipelined batches; the
    second batch must decode byte-identically via reconnect + failover,
    with the retries counted on the client's own transport.
    """

    def test_killed_endpoint_fails_over_with_identical_records(self):
        db = build_db()
        logical = party_servers(db)
        primaries = [create_tcp_server("eventloop", server)
                     for server in logical]
        replicas = [create_tcp_server("eventloop", server)
                    for server in logical]
        policy_args = dict(max_attempts=6, base_delay=0.01, jitter=0.0)
        try:
            transports = [
                ReconnectingTransport(
                    EndpointPool([
                        lambda address=listener.address: connect_tcp(*address)
                        for listener in (primaries[party], replicas[party])]),
                    policy=RetryPolicy(**policy_args))
                for party in (0, 1)
            ]
            client = connect_client(transports, supported_modes=["pir2"])
            slots = [client.candidate_slots(f"s{i}.com/p")[0]
                     for i in range(8)]
            baseline = client.get_slots(slots)
            assert baseline == [db.get_slot(slot) for slot in slots]

            primaries[0].stop()

            again = client.get_slots(slots)
            assert again == baseline  # byte-identical decoded records
            assert transports[0].reconnects >= 1
            assert transports[0].pool.failovers >= 1
            assert transports[0].retries > 0
            client.close()
        finally:
            for listener in primaries + replicas:
                listener.stop()
