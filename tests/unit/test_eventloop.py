"""Tests for the selector-reactor session core and the serving registry."""

import json
import socket
import threading
import time

import pytest

from repro.cli.serve import serve_stats
from repro.core.zltp import messages as msg
from repro.core.zltp.client import connect_client
from repro.core.zltp.eventloop import ZltpEventLoopServer
from repro.core.zltp.modes import MODE_PIR2
from repro.core.zltp.server import ZltpServer
from repro.core.zltp.serving import create_tcp_server
from repro.core.zltp.sockets import connect_tcp
from repro.core.zltp.wire import encode_frame
from repro.errors import ReproError, TransportError
from repro.pir.database import BlobDatabase
from repro.pir.keyword import KeywordIndex
from tests.unit.test_sockets import boom_sessions

SALT = b"eventloop-test"


def build_db():
    db = BlobDatabase(8, 64)
    index = KeywordIndex(db, probes=2, salt=SALT)
    for i in range(10):
        index.put(f"s{i}.com/p", f"evt-{i}".encode())
    return db


def make_logical(db=None):
    return ZltpServer(db if db is not None else build_db(),
                      modes=[MODE_PIR2], party=0, salt=SALT, probes=2)


def make_pair(**kwargs):
    return [
        ZltpEventLoopServer(
            ZltpServer(build_db(), modes=[MODE_PIR2], party=party,
                       salt=SALT, probes=2), **kwargs)
        for party in (0, 1)
    ]


def wait_for(predicate, deadline=5.0, step=0.01):
    end = time.monotonic() + deadline
    while time.monotonic() < end:
        if predicate():
            return True
        time.sleep(step)
    return predicate()


class TestEventLoopSessions:
    def test_get_over_eventloop(self):
        servers = make_pair()
        try:
            transports = [connect_tcp(*srv.address) for srv in servers]
            client = connect_client(transports)
            assert client.get("s4.com/p") == b"evt-4"
            client.close()
        finally:
            for server in servers:
                server.stop()

    def test_pipelined_gets_one_session(self):
        servers = make_pair()
        try:
            transports = [connect_tcp(*srv.address) for srv in servers]
            client = connect_client(transports)
            slots = [client.candidate_slots(f"s{i}.com/p")[0]
                     for i in range(4)]
            records = client.get_slots(slots)
            assert records == [client.get_slot(slot) for slot in slots]
            client.close()
        finally:
            for server in servers:
                server.stop()

    def test_session_accounting_balances(self):
        server = ZltpEventLoopServer(make_logical())
        try:
            transports = [connect_tcp(*server.address) for _ in range(3)]
            for transport in transports:
                transport.send_frame(
                    msg.encode_message(msg.ClientHello(["pir2"])))
                reply = msg.decode_message(transport.recv_frame())
                assert isinstance(reply, msg.ServerHello)
            assert server.active_connections == 3
            assert server.server.sessions_active == 3
            for transport in transports:
                transport.close()
            assert wait_for(lambda: server.active_connections == 0)
            assert server.server.sessions_active == 0
        finally:
            server.stop()

    def test_hundreds_of_idle_sessions_on_one_thread(self):
        """The tentpole claim: N hundred sessions cost one service thread."""
        server = ZltpEventLoopServer(make_logical())
        socks = []
        try:
            for _ in range(200):
                socks.append(socket.create_connection(server.address,
                                                      timeout=5))
            assert wait_for(lambda: server.active_connections == 200)
            assert server.worker_count == 1  # the whole point
            assert server.server.sessions_opened == 200
            # The reactor still answers work while holding them all.
            transport = connect_tcp(*server.address)
            transport.send_frame(
                msg.encode_message(msg.ClientHello(["pir2"])))
            reply = msg.decode_message(transport.recv_frame())
            assert isinstance(reply, msg.ServerHello)
            transport.close()
        finally:
            for sock in socks:
                sock.close()
            server.stop()

    def test_slow_loris_client_does_not_block_others(self):
        """A byte-at-a-time writer must not stall the reactor."""
        servers = make_pair()
        try:
            loris = socket.create_connection(servers[0].address, timeout=5)
            hello = encode_frame(msg.encode_message(msg.ClientHello(["pir2"])))
            # Drip half the hello one byte at a time...
            for i in range(len(hello) // 2):
                loris.sendall(hello[i:i + 1])
                time.sleep(0.002)
            # ...while a well-behaved client completes a whole private GET.
            transports = [connect_tcp(*srv.address) for srv in servers]
            client = connect_client(transports)
            assert client.get("s7.com/p") == b"evt-7"
            client.close()
            # The loris eventually finishes and is served too.
            for i in range(len(hello) // 2, len(hello)):
                loris.sendall(hello[i:i + 1])
            loris.settimeout(5)
            first = loris.recv(4096)
            assert first  # a ServerHello frame, not a hangup
            loris.close()
        finally:
            for server in servers:
                server.stop()

    def test_idle_sessions_are_reaped(self):
        server = ZltpEventLoopServer(make_logical(), idle_timeout=0.2)
        try:
            sock = socket.create_connection(server.address, timeout=5)
            assert wait_for(lambda: server.active_connections == 1)
            sock.settimeout(5)
            data = sock.recv(65536)  # the idle-timeout error frame, then EOF
            assert b"idle-timeout" in data
            assert wait_for(lambda: server.active_connections == 0)
            assert server.server.idle_reaped == 1
            assert server.server.sessions_active == 0
            sock.close()
        finally:
            server.stop()

    def test_truncated_frame_is_surfaced(self):
        server = ZltpEventLoopServer(make_logical())
        try:
            sock = socket.create_connection(server.address, timeout=5)
            frame = encode_frame(b"x" * 64)
            sock.sendall(frame[: len(frame) // 2])
            sock.shutdown(socket.SHUT_WR)
            sock.settimeout(5)
            data = sock.recv(65536)
            assert b"truncated-frame" in data
            assert wait_for(lambda: server.server.truncated_frames == 1)
            sock.close()
        finally:
            server.stop()

    def test_bad_frame_gets_error_then_close(self):
        server = ZltpEventLoopServer(make_logical())
        try:
            transport = connect_tcp(*server.address)
            transport.send_frame(b"\x01garbage")
            reply = msg.decode_message(transport.recv_frame())
            assert isinstance(reply, msg.ErrorMessage)
            with pytest.raises(TransportError):
                transport.recv_frame()
            transport.close()
            assert wait_for(lambda: server.active_connections == 0)
        finally:
            server.stop()

    def test_handler_bug_sends_internal_error_and_server_survives(self):
        server = ZltpEventLoopServer(make_logical())
        try:
            original = boom_sessions(server.server)
            crashed = connect_tcp(*server.address)
            crashed.send_frame(msg.encode_message(msg.ClientHello(["pir2"])))
            reply = msg.decode_message(crashed.recv_frame())
            assert isinstance(reply, msg.ErrorMessage)
            assert reply.code == "internal"
            crashed.close()
            # The reactor survived; healthy sessions still negotiate.
            server.server.create_session = original
            transport = connect_tcp(*server.address)
            transport.send_frame(msg.encode_message(msg.ClientHello(["pir2"])))
            assert isinstance(msg.decode_message(transport.recv_frame()),
                              msg.ServerHello)
            transport.close()
        finally:
            server.stop()

    def test_stop_is_deterministic_and_idempotent(self):
        server = ZltpEventLoopServer(make_logical())
        sock = socket.create_connection(server.address, timeout=5)
        assert wait_for(lambda: server.active_connections == 1)
        server.stop()
        assert server.worker_count == 0
        assert server.active_connections == 0
        with pytest.raises(OSError):
            # The listener is really gone: nothing accepts anymore.
            probe = socket.create_connection(server.address, timeout=0.5)
            # Linux may complete the TCP handshake into a dead backlog;
            # the read side must still see an immediate hangup.
            probe.settimeout(0.5)
            if probe.recv(1) == b"":
                probe.close()
                raise OSError("hangup")
        server.stop()  # idempotent
        sock.close()

    def test_sidecar_serves_the_logical_server_snapshot(self):
        logical = make_logical()
        listener = create_tcp_server("eventloop", logical)
        stats = serve_stats(logical.stats_snapshot,
                            traces=logical.flight.export)
        try:
            # One session through the listener shows in the scrape.
            transport = connect_tcp(*listener.address)
            transport.send_frame(msg.encode_message(
                msg.ClientHello(supported_modes=[MODE_PIR2])))
            transport.recv_frame()
            transport.close()
            with socket.create_connection(stats.address, timeout=5) as sock:
                sock.sendall(b"GET /metrics.json HTTP/1.0\r\n\r\n")
                data = b""
                while True:
                    chunk = sock.recv(65536)
                    if not chunk:
                        break
                    data += chunk
            body = json.loads(data.partition(b"\r\n\r\n")[2])
            assert sorted(body) == sorted(logical.stats_snapshot())
            assert body["sessions_opened"] == 1
        finally:
            stats.stop()
            listener.stop()


class TestServingRegistry:
    @pytest.mark.parametrize("kind", [None, "eventloop"])
    def test_none_and_eventloop_build_the_reactor(self, kind):
        listener = create_tcp_server(kind, make_logical())
        try:
            assert isinstance(listener, ZltpEventLoopServer)
        finally:
            listener.stop()

    @pytest.mark.parametrize("kind", ["gopher", "threaded"])
    def test_unknown_kind_raises_typed_error(self, kind):
        with pytest.raises(ReproError, match="unknown server kind"):
            create_tcp_server(kind, make_logical())

    def test_the_reactor_serves_the_protocol(self):
        servers = [
            create_tcp_server(
                "eventloop",
                ZltpServer(build_db(), modes=[MODE_PIR2], party=party,
                           salt=SALT, probes=2))
            for party in (0, 1)
        ]
        try:
            transports = [connect_tcp(*srv.address) for srv in servers]
            client = connect_client(transports)
            assert client.get("s2.com/p") == b"evt-2"
            client.close()
            for server in servers:
                server.stop()
                assert server.worker_count == 0
                assert server.active_connections == 0
        finally:
            for server in servers:
                server.stop()
