"""Tests for the real-TCP ZLTP transport."""

import json
import socket
import struct
import threading
import time

import pytest

from repro.cli.serve import serve_stats
from repro.core.zltp import messages as msg
from repro.core.zltp.client import connect_client
from repro.core.zltp.eventloop import Reactor
from repro.core.zltp.modes import MODE_PIR2
from repro.core.zltp.server import ZltpServer
from repro.core.zltp.serving import create_tcp_server
from repro.core.zltp.eventloop import ZltpEventLoopServer
from repro.core.zltp.sockets import TcpTransport, connect_tcp
from repro.core.zltp.wire import encode_frame
from repro.errors import TransportError
from repro.obs import fleet
from repro.obs.fleet import StatsSession
from repro.pir.database import BlobDatabase
from repro.pir.keyword import KeywordIndex

SALT = b"tcp-test"


def build_db():
    db = BlobDatabase(8, 64)
    index = KeywordIndex(db, probes=2, salt=SALT)
    for i in range(10):
        index.put(f"s{i}.com/p", f"tcp-{i}".encode())
    return db


@pytest.fixture
def tcp_pair():
    servers = [
        ZltpEventLoopServer(ZltpServer(build_db(), modes=[MODE_PIR2],
                                       party=party, salt=SALT, probes=2))
        for party in (0, 1)
    ]
    yield servers
    for server in servers:
        server.stop()


class TestTcpTransport:
    def test_get_over_tcp(self, tcp_pair):
        transports = [connect_tcp(*srv.address) for srv in tcp_pair]
        client = connect_client(transports)
        assert client.get("s4.com/p") == b"tcp-4"
        client.close()

    def test_multiple_gets_one_session(self, tcp_pair):
        transports = [connect_tcp(*srv.address) for srv in tcp_pair]
        client = connect_client(transports)
        for i in (0, 3, 9):
            assert client.get(f"s{i}.com/p") == f"tcp-{i}".encode()
        client.close()

    def test_two_concurrent_clients(self, tcp_pair):
        clients = []
        for _ in range(2):
            transports = [connect_tcp(*srv.address) for srv in tcp_pair]
            clients.append(connect_client(transports))
        assert clients[0].get("s1.com/p") == b"tcp-1"
        assert clients[1].get("s2.com/p") == b"tcp-2"
        for client in clients:
            client.close()

    def test_byte_accounting(self, tcp_pair):
        transport = connect_tcp(*tcp_pair[0].address)
        assert transport.bytes_sent == 0
        transport.send_frame(b"probe")
        assert transport.bytes_sent == 9
        transport.close()

    def test_send_after_close_raises(self, tcp_pair):
        transport = connect_tcp(*tcp_pair[0].address)
        transport.close()
        with pytest.raises(TransportError):
            transport.send_frame(b"x")

    def test_recv_after_server_stop(self, tcp_pair):
        transport = connect_tcp(*tcp_pair[0].address)
        # Send garbage: server closes the session after the error reply.
        transport.send_frame(b"\x01garbage")
        # First frame back is the error message.
        frame = transport.recv_frame()
        assert frame
        with pytest.raises(TransportError):
            transport.recv_frame()


class TestServerLifecycle:
    def test_eight_simultaneous_sessions_then_clean_stop(self, tcp_pair):
        clients = []
        for _ in range(8):
            transports = [connect_tcp(*srv.address) for srv in tcp_pair]
            clients.append(connect_client(transports))
        # All eight sessions are live at once on each server's one thread.
        for server in tcp_pair:
            assert server.active_connections == 8
            assert server.worker_count == 1
        for i, client in enumerate(clients):
            assert client.get(f"s{i % 10}.com/p") == f"tcp-{i % 10}".encode()
        for client in clients:
            client.close()
        for server in tcp_pair:
            server.stop()
            assert server.worker_count == 0
            assert server.active_connections == 0
            assert not server._thread.is_alive()

    def test_finished_sessions_are_pruned(self, tcp_pair):
        server = tcp_pair[0]
        for _ in range(5):
            transport = connect_tcp(*server.address)
            transport.send_frame(b"\x01garbage")  # session closes itself
            transport.recv_frame()
            transport.close()
        # Only the one open connection is left on the one service thread.
        transport = connect_tcp(*server.address)
        try:
            deadline = 50
            while server.active_connections != 1 and deadline:
                deadline -= 1
                time.sleep(0.02)
            assert server.active_connections == 1
            assert server.worker_count == 1
        finally:
            transport.close()

    def test_stop_unblocks_idle_client(self, tcp_pair):
        server = tcp_pair[0]
        transport = connect_tcp(*server.address)
        # connect_tcp returns as soon as the kernel accepts the SYN; give
        # the accept loop a moment to register the connection.
        deadline = 50
        while server.active_connections < 1 and deadline:
            deadline -= 1
            time.sleep(0.02)
        assert server.active_connections == 1
        server.stop()
        # The server shut the socket down; the idle client sees EOF/error.
        with pytest.raises(TransportError):
            transport.recv_frame()
        assert server.active_connections == 0
        assert server.worker_count == 0

    def test_stop_is_idempotent(self, tcp_pair):
        server = tcp_pair[0]
        server.stop()
        server.stop()
        assert server.worker_count == 0

    def test_pipelined_gets_one_session(self, tcp_pair):
        transports = [connect_tcp(*srv.address) for srv in tcp_pair]
        client = connect_client(transports)
        slots = [client.candidate_slots(f"s{i}.com/p")[0] for i in range(4)]
        records = client.get_slots(slots)
        assert records == [client.get_slot(slot) for slot in slots]
        client.close()


class TestBurstsAndNagle:
    def test_a_burst_is_one_sendall(self):
        class FakeSocket:
            def __init__(self):
                self.writes = []

            def sendall(self, data):
                self.writes.append(bytes(data))

        sock = FakeSocket()
        transport = TcpTransport(sock)
        transport.send_frames([b"one", b"three", b""])
        assert sock.writes == [
            encode_frame(b"one") + encode_frame(b"three") + encode_frame(b"")]
        assert transport.bytes_sent == len(sock.writes[0])
        transport.send_frame(b"solo")
        assert sock.writes[1] == encode_frame(b"solo")

    def test_nodelay_on_both_ends_of_every_connection(self):
        listener = create_tcp_server(
            "eventloop", ZltpServer(build_db(), modes=[MODE_PIR2], party=0,
                             salt=SALT, probes=2))
        try:
            transport = connect_tcp(*listener.address)
            assert transport._sock.getsockopt(socket.IPPROTO_TCP,
                                              socket.TCP_NODELAY)
            transport.send_frame(msg.encode_message(
                msg.ClientHello(supported_modes=[MODE_PIR2])))
            transport.recv_frame()  # the server has the connection now
            accepted = [conn.sock for conn in listener._conns.values()]
            assert len(accepted) == 1
            assert accepted[0].getsockopt(socket.IPPROTO_TCP,
                                          socket.TCP_NODELAY)
            transport.close()
        finally:
            listener.stop()

    def test_a_pipelined_burst_is_one_scan_pass(self):
        """The finding this closes: two GETs sent as two writes reached
        the reactor as two batches of one."""
        db = build_db()
        listeners = [create_tcp_server(
            "eventloop", ZltpServer(db, modes=[MODE_PIR2], party=party, salt=SALT,
                             probes=2)) for party in (0, 1)]
        try:
            client = connect_client(
                [connect_tcp(*lis.address) for lis in listeners])
            before = db.scan_passes
            client.get_slots(list(range(10)))
            assert db.scan_passes - before == 2  # one per party
            client.close()
        finally:
            for listener in listeners:
                listener.stop()


def http_get(address, path):
    """Minimal HTTP/1.0 GET; returns (status_line, header_bytes, body)."""
    with socket.create_connection(address, timeout=5) as sock:
        sock.sendall(f"GET {path} HTTP/1.0\r\n\r\n".encode())
        data = b""
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            data += chunk
    header, _, body = data.partition(b"\r\n\r\n")
    return header.split(b"\r\n", 1)[0].decode(), header, body


@pytest.fixture
def slow_listener():
    """A raw TCP listener whose handler thread is scripted per test."""
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)
    threads = []

    def spawn(handler):
        def run():
            conn, _ = listener.accept()
            try:
                handler(conn)
            finally:
                try:
                    conn.close()
                except OSError:
                    pass

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        threads.append(thread)
        return listener.getsockname()

    yield spawn
    listener.close()
    for thread in threads:
        thread.join(5)


class TestTimeoutSplit:
    """connect_tcp: the dial timeout must not double as the I/O timeout."""

    def test_connect_timeout_does_not_bound_session_io(self, slow_listener):
        def serve(conn):
            conn.recv(65536)  # the request frame
            time.sleep(0.5)   # a scan much slower than the dial timeout
            conn.sendall(encode_frame(b"slow answer"))

        address = slow_listener(serve)
        transport = connect_tcp(*address, timeout=0.2)
        try:
            transport.send_frame(b"query")
            # Before the fix the 0.2 s connect timeout stayed armed on
            # the socket and this recv died while the server was slowly
            # (but successfully) answering.
            assert transport.recv_frame() == b"slow answer"
        finally:
            transport.close()

    def test_explicit_io_timeout_still_bounds_session_io(self, slow_listener):
        def serve(conn):
            conn.recv(65536)
            conn.recv(65536)  # never answers; unblocked by client close

        address = slow_listener(serve)
        transport = connect_tcp(*address, timeout=1.0, io_timeout=0.1)
        try:
            transport.send_frame(b"query")
            with pytest.raises(TransportError):
                transport.recv_frame()
        finally:
            transport.close()


def boom_sessions(logical):
    """Make every new session's message handler (``handle``) raise, as a
    handler bug would; returns the original ``create_session`` to
    restore."""
    original = logical.create_session

    def boom_session():
        session = original()

        def boom(message):
            raise RuntimeError("handler bug")

        session.handle = boom
        return session

    logical.create_session = boom_session
    return original


class TestInternalErrorReply:
    def test_handler_bug_sends_error_message_not_silence(self, tcp_pair):
        server = tcp_pair[0]
        boom_sessions(server.server)
        transport = connect_tcp(*server.address)
        try:
            transport.send_frame(
                msg.encode_message(msg.ClientHello(["pir2"])))
            reply = msg.decode_message(transport.recv_frame())
            assert isinstance(reply, msg.ErrorMessage)
            assert reply.code == "internal"
            assert "handler bug" in reply.detail
        finally:
            transport.close()

    def test_server_survives_a_crashed_connection(self, tcp_pair):
        server = tcp_pair[0]
        original = boom_sessions(server.server)
        crashed = connect_tcp(*server.address)
        crashed.send_frame(msg.encode_message(msg.ClientHello(["pir2"])))
        crashed.recv_frame()  # the ErrorMessage
        crashed.close()
        # Healthy sessions still work after the crash.
        server.server.create_session = original
        transports = [connect_tcp(*srv.address) for srv in tcp_pair]
        client = connect_client(transports)
        assert client.get("s7.com/p") == b"tcp-7"
        client.close()


class TestStatsSidecar:
    def test_raising_snapshot_returns_500_and_keeps_serving(self):
        calls = {"n": 0}

        def snapshot():
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("stats bug")
            return {"ok": True, "metrics": {}}

        sidecar = serve_stats(snapshot)
        try:
            status, _, body = http_get(sidecar.address, "/metrics.json")
            assert "500" in status
            assert b"snapshot failed" in body
            # The listener survived: the next scrape succeeds.
            status, _, body = http_get(sidecar.address, "/metrics.json")
            assert "200" in status
            assert json.loads(body)["ok"] is True
        finally:
            sidecar.stop()

    def test_oversized_request_head_is_cut_off(self):
        # A request line that never ends must not hold the stats
        # listener: the connection closes within a second and the next
        # scrape is served.
        sidecar = serve_stats(lambda: {"gets": 1, "metrics": {}})
        try:
            with socket.create_connection(sidecar.address, timeout=5) as sock:
                sock.settimeout(1.0)
                try:
                    sock.sendall(b"A" * 65536)
                    reply = sock.recv(65536)
                except ConnectionError:
                    reply = b""
                assert reply == b"" or reply.startswith(b"HTTP/1.0 4")
            body = fleet.http_get(*sidecar.address, fleet.METRICS_PATH,
                                  timeout=1.0)
            assert "# gets: 1" in body
        finally:
            sidecar.stop()

    def test_query_string_does_not_break_json_routing(self):
        sidecar = serve_stats(lambda: {"gets": 3, "metrics": {}})
        try:
            status, header, body = http_get(sidecar.address,
                                            "/metrics.json?pretty=1")
            assert "200" in status
            assert b"application/json" in header
            assert json.loads(body)["gets"] == 3
        finally:
            sidecar.stop()


class TestStatsSession:
    """The sans-IO stats protocol, driven without a socket."""

    def test_request_line_split_across_reads_is_answered_once(self):
        session = StatsSession(lambda: {"gets": 2, "metrics": {}})
        assert session.receive(b"GET /metrics.js") == b""
        assert not session.closed
        reply = session.receive(b"on?x=1 HTTP/1.0\r\n\r\n")
        assert session.closed
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.0 200 OK\r\n")
        assert b"Connection: close" in head
        assert json.loads(body)["gets"] == 2
        assert session.receive(b"GET / HTTP/1.0\r\n\r\n") == b""

    def test_head_over_the_cap_closes_without_a_reply(self):
        session = StatsSession(lambda: {"metrics": {}})
        assert session.receive(b"A" * fleet.MAX_REQUEST_HEAD) == b""
        assert not session.closed
        assert session.receive(b"A") == b""
        assert session.closed


class TestTransportThreadSafety:
    """Regression: close() racing a blocked recv_frame() across threads.

    The browser's watchdog closes a transport while a reader thread is
    parked in ``recv_frame`` — exactly the reconnect path of
    :class:`~repro.core.resilience.ReconnectingTransport`. The old
    transport had no lock and a non-idempotent close; the race could
    surface as a secondary exception instead of the typed
    :class:`TransportError`.
    """

    def test_close_unblocks_reader_with_typed_error(self, tcp_pair):
        transport = connect_tcp(*tcp_pair[0].address)
        failures = []

        def read():
            try:
                transport.recv_frame()
                failures.append("recv returned without error")
            except TransportError:
                pass  # the one acceptable outcome
            except BaseException as exc:  # noqa: BLE001 - the regression
                failures.append(f"wrong exception: {exc!r}")

        reader = threading.Thread(target=read)
        reader.start()
        time.sleep(0.1)  # let the reader park in recv
        transport.close()
        reader.join(5)
        assert not reader.is_alive()
        assert failures == []
        assert transport.closed

    def test_concurrent_closes_are_idempotent(self, tcp_pair):
        transport = connect_tcp(*tcp_pair[0].address)
        errors = []

        def close():
            try:
                transport.close()
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=close) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(5)
        assert errors == []
        with pytest.raises(TransportError):
            transport.send_frame(b"x")

    def test_send_after_peer_close_raises_typed_error(self, tcp_pair):
        server = tcp_pair[0]
        transport = connect_tcp(*server.address)
        transport.send_frame(b"\x01garbage")  # session replies then closes
        transport.recv_frame()
        with pytest.raises(TransportError):
            # Two sends: the first may land in the kernel buffer of a
            # half-closed socket; the second must surface the close.
            transport.send_frame(b"x")
            time.sleep(0.1)
            transport.send_frame(b"y")
        transport.close()


class TestTruncatedFrames:
    def test_partial_frame_is_reported_not_dropped(self, tcp_pair):
        server = tcp_pair[0]
        sock = socket.create_connection(server.address, timeout=5)
        frame = encode_frame(b"x" * 64)
        sock.sendall(frame[: len(frame) // 2])
        sock.shutdown(socket.SHUT_WR)
        sock.settimeout(5)
        data = sock.recv(65536)
        assert b"truncated-frame" in data
        deadline = 50
        while server.server.truncated_frames < 1 and deadline:
            deadline -= 1
            time.sleep(0.02)
        assert server.server.truncated_frames == 1
        sock.close()

    def test_clean_close_counts_nothing(self, tcp_pair):
        server = tcp_pair[0]
        sock = socket.create_connection(server.address, timeout=5)
        sock.close()
        deadline = 50
        while server.active_connections and deadline:
            deadline -= 1
            time.sleep(0.02)
        assert server.server.truncated_frames == 0

    def test_session_teardown_balances_on_early_return(self, tcp_pair):
        """Every exit path of the connection handler closes the session."""
        server = tcp_pair[0]
        logical = server.server
        # Path 1: garbage frame (session error-close).
        crashed = connect_tcp(*server.address)
        crashed.send_frame(b"\x01garbage")
        crashed.recv_frame()
        crashed.close()
        # Path 2: peer vanishes mid-frame (the old leak).
        sock = socket.create_connection(server.address, timeout=5)
        frame = encode_frame(b"y" * 32)
        sock.sendall(frame[:3])
        sock.shutdown(socket.SHUT_WR)
        sock.recv(65536)
        sock.close()
        # Path 3: clean idle disconnect.
        idle = socket.create_connection(server.address, timeout=5)
        idle.close()
        deadline = 100
        while logical.sessions_active and deadline:
            deadline -= 1
            time.sleep(0.02)
        assert logical.sessions_active == 0


class TestStatsEarlyClose:
    def test_scraper_hangup_mid_write_logs_no_traceback(self, caplog):
        """A scraper that dies mid-response is noise, not an error."""
        def slow_snapshot():
            time.sleep(0.2)
            return {"big": "x" * 65536, "metrics": {}}

        sidecar = serve_stats(slow_snapshot)
        try:
            with caplog.at_level("DEBUG"):
                sock = socket.create_connection(sidecar.address, timeout=5)
                sock.sendall(b"GET /metrics.json HTTP/1.0\r\n\r\n")
                # Hang up hard (RST) before the snapshot finishes.
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                                struct.pack("ii", 1, 0))
                sock.close()
                time.sleep(0.5)
            noisy = [record for record in caplog.records
                     if record.levelname in ("ERROR", "WARNING", "EXCEPTION")]
            assert noisy == []
            # And the sidecar still serves the next scraper.
            status, _, body = http_get(sidecar.address, "/metrics.json")
            assert "200" in status
        finally:
            sidecar.stop()

    def test_scraper_hangup_before_request_logs_no_traceback(self, caplog):
        sidecar = serve_stats(lambda: {"metrics": {}})
        try:
            with caplog.at_level("DEBUG"):
                sock = socket.create_connection(sidecar.address, timeout=5)
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                                struct.pack("ii", 1, 0))
                sock.close()
                time.sleep(0.3)
            noisy = [record for record in caplog.records
                     if record.levelname in ("ERROR", "WARNING", "EXCEPTION")]
            assert noisy == []
            status, _, _ = http_get(sidecar.address, "/metrics.json")
            assert "200" in status
        finally:
            sidecar.stop()


class TestConfigurableIoTimeout:
    """Regression for the hardcoded ``conn.settimeout(5.0)``.

    The stats listener is a reactor over a stats session, so its timeout
    is the reactor's ``idle_timeout``: a pause well inside the default
    survives, a configured short one reaps. A ZLTP listener reaps only at
    its ``idle_timeout``.
    """

    def test_slow_scraper_survives_the_default_timeout(self):
        sidecar = serve_stats(lambda: {"gets": 1, "metrics": {}})
        try:
            with socket.create_connection(sidecar.address, timeout=5) as sock:
                time.sleep(0.3)  # a pause no fixed constant may punish
                sock.sendall(b"GET /metrics.json HTTP/1.0\r\n\r\n")
                data = b""
                while True:
                    chunk = sock.recv(65536)
                    if not chunk:
                        break
                    data += chunk
            assert b"200" in data.split(b"\r\n", 1)[0]
        finally:
            sidecar.stop()

    def test_slow_scraper_reaped_at_configured_timeout(self):
        sidecar = Reactor(
            lambda: StatsSession(lambda: {"gets": 1, "metrics": {}}),
            idle_timeout=0.1)
        try:
            with socket.create_connection(sidecar.address, timeout=5) as sock:
                time.sleep(0.4)  # well past the configured timeout
                try:
                    sock.sendall(b"GET /metrics.json HTTP/1.0\r\n\r\n")
                except OSError:
                    return  # server already hung up: also a pass
                sock.settimeout(2)
                try:
                    assert sock.recv(65536) == b""
                except OSError:
                    pass  # reset instead of FIN: still reaped
        finally:
            sidecar.stop()

    def test_zltp_idle_connection_reaped_with_reason(self):
        server = ZltpEventLoopServer(
            ZltpServer(build_db(), modes=[MODE_PIR2], party=0, salt=SALT,
                       probes=2),
            idle_timeout=0.15)
        try:
            transport = connect_tcp(*server.address)
            transport.send_frame(
                msg.encode_message(msg.ClientHello(supported_modes=[MODE_PIR2])))
            hello = msg.decode_message(transport.recv_frame())
            assert isinstance(hello, msg.ServerHello)
            # Park past the timeout: the server must say why it reaps.
            time.sleep(0.5)
            reap = msg.decode_message(transport.recv_frame())
            assert isinstance(reap, msg.ErrorMessage)
            assert reap.code == "idle-timeout"
            transport.close()
        finally:
            server.stop()

    def test_zltp_default_is_patient(self):
        server = ZltpEventLoopServer(
            ZltpServer(build_db(), modes=[MODE_PIR2], party=0, salt=SALT,
                       probes=2))
        try:
            transport = connect_tcp(*server.address)
            transport.send_frame(
                msg.encode_message(msg.ClientHello(supported_modes=[MODE_PIR2])))
            assert isinstance(msg.decode_message(transport.recv_frame()),
                              msg.ServerHello)
            time.sleep(0.4)  # would have been reaped under a tight timeout
            transport.send_frame(msg.encode_message(msg.Bye()))
            transport.close()
        finally:
            server.stop()
