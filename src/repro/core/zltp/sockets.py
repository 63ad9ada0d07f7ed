"""Real TCP transport for ZLTP — the protocol on an actual network stack.

The in-memory transports are what most tests use, but ZLTP is an
application-layer network protocol and should run over real sockets too.
:class:`ZltpTcpServer` serves a :class:`~repro.core.zltp.server.ZltpServer`
on a listening socket (one thread per connection — plenty for a prototype
whose per-request cost is a linear database scan), and :func:`connect_tcp`
returns a blocking :class:`TcpTransport` usable directly by
:class:`~repro.core.zltp.client.ZltpClient`.

:class:`StatsTcpServer` is the observability sidecar: a deliberately tiny
HTTP/1.0 responder (the ZLTP wire itself carries only fixed-size frames,
so stats ride a separate listener) exposing the server's serving counters
and the process metrics registry as text or JSON — what ``lightweb
stats`` and scrapers read.
"""

from __future__ import annotations

import json
import socket
import threading
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.resilience import ReconnectingTransport, RetryPolicy, resilient
from repro.core.zltp import messages as msg
from repro.core.zltp.server import ZltpServer
from repro.core.zltp.wire import FrameDecoder, encode_frame
from repro.errors import TransportError
from repro.obs.logs import get_logger
from repro.obs.metrics import (
    REGISTRY,
    record_truncated_frame,
    render_snapshot_text,
)

_RECV_CHUNK = 65536

_log = get_logger(__name__)


def set_nodelay(sock: socket.socket) -> None:
    """Turn Nagle off: every ZLTP write is a complete frame or burst of
    frames, and holding one back for an ACK only adds a stall per round
    trip."""
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)


class TcpTransport:
    """A blocking framed transport over a connected TCP socket.

    Thread-safety: a resilient client closes transports from watchdog or
    failover threads while a session thread is parked in ``recv_frame``,
    so the closed flag is read and written only under ``_lock`` and
    :meth:`close` is idempotent. The blocking socket calls themselves run
    *outside* the lock (holding it would deadlock a concurrent close);
    ``close()`` first marks the transport closed, then ``shutdown()``s
    the socket, which unblocks any in-flight ``recv``/``send`` — that
    thread re-checks the flag and surfaces a typed "closed" error rather
    than a raw ``OSError`` from a torn-down file descriptor.
    """

    def __init__(self, sock: socket.socket, name: str = "tcp"):
        self._sock = sock
        self.name = name
        self._decoder = FrameDecoder()
        self._pending: list = []
        self._lock = threading.Lock()
        self._closed = False  # guarded-by: _lock
        self._torn_down = False  # guarded-by: _lock
        self._bytes_sent = 0
        self._bytes_received = 0

    @property
    def closed(self) -> bool:
        """Whether the transport has been closed (locally or by the peer)."""
        with self._lock:
            return self._closed

    def _closed_error(self) -> TransportError:
        return TransportError(f"transport {self.name!r} is closed")

    def send_frame(self, payload: bytes) -> None:
        self.send_frames([payload])

    def send_frames(self, payloads: Sequence[bytes]) -> None:
        """Frame the burst and hand it to the kernel in one ``sendall``, so
        pipelined requests arrive at the server as one readable chunk."""
        if self.closed:
            raise self._closed_error()
        burst = b"".join(encode_frame(payload) for payload in payloads)
        try:
            self._sock.sendall(burst)
        except OSError as exc:
            if self.closed:
                raise self._closed_error() from exc
            raise TransportError(f"send failed: {exc}") from exc
        self._bytes_sent += len(burst)

    def recv_frame(self) -> bytes:
        while not self._pending:
            if self.closed:
                raise self._closed_error()
            try:
                chunk = self._sock.recv(_RECV_CHUNK)
            except OSError as exc:
                if self.closed:
                    # A concurrent close() tore the socket down under us;
                    # report the close, not the incidental errno.
                    raise self._closed_error() from exc
                raise TransportError(f"recv failed: {exc}") from exc
            if not chunk:
                with self._lock:
                    self._closed = True
                raise TransportError("connection closed by peer")
            self._bytes_received += len(chunk)
            self._pending.extend(self._decoder.feed(chunk))
        return self._pending.pop(0)

    def close(self) -> None:
        """Close the transport; safe to call from any thread, any number
        of times."""
        with self._lock:
            self._closed = True
            if self._torn_down:
                return
            # A peer-initiated close only flips _closed; the descriptor
            # is still ours to release, exactly once, right here.
            self._torn_down = True
        # shutdown() unblocks a thread parked in recv()/sendall() before
        # the descriptor goes away.
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:
            pass

    @property
    def bytes_sent(self) -> int:
        """Total framed bytes sent."""
        return self._bytes_sent

    @property
    def bytes_received(self) -> int:
        """Total framed bytes received."""
        return self._bytes_received


class StatsTcpServer:
    """Serve an observability snapshot over HTTP/1.0, one request per
    connection.

    ``GET /metrics.json`` (or any path ending in ``.json``) returns the
    snapshot as JSON; ``GET /debug/traces.json`` returns the flight
    recorder's retained trace trees (when a ``traces`` callable was
    given); every other path returns the Prometheus-style text
    exposition. The payload comes from a caller-supplied zero-argument
    ``snapshot`` callable, so the same sidecar fronts a single
    :class:`ZltpServer` or a whole deployment aggregate.

    Hand-rolled on purpose: no routing, no keep-alive, no request body —
    just enough HTTP for ``curl`` and ``lightweb stats``, with the same
    deterministic :meth:`stop` discipline as :class:`ZltpTcpServer`.
    """

    def __init__(self, snapshot: Callable[[], Dict[str, Any]],
                 host: str = "127.0.0.1", port: int = 0,
                 traces: Optional[Callable[[], Dict[str, Any]]] = None,
                 io_timeout: Optional[float] = 5.0):
        """Bind and start serving.

        Args:
            snapshot: zero-argument callable producing the JSON payload.
            host / port: bind address (port 0 picks a free one).
            traces: optional flight-recorder export callable behind
                ``/debug/traces.json``.
            io_timeout: per-connection recv/send timeout. This used to be
                a hardcoded 5.0 — an arbitrary constant that killed
                legitimately slow scrapers on a loaded box; it is now the
                *server's* configured timeout (None = block forever).
        """
        self._snapshot = snapshot
        self._traces = traces
        self._io_timeout = io_timeout
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(8)
        self.address: Tuple[str, int] = self._listener.getsockname()
        self._stopping = threading.Event()
        self._thread = threading.Thread(target=self._serve_loop, daemon=True)
        self._thread.start()
        _log.info("stats endpoint listening", extra={
            "host": self.address[0], "port": self.address[1]})

    def _serve_loop(self) -> None:
        while not self._stopping.is_set():
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return
            try:
                self._serve_request(conn)
            except Exception:
                # A raising snapshot (or a malformed request) must not
                # kill the sidecar thread: the next scrape still works.
                _log.exception("stats request failed")
            finally:
                try:
                    conn.close()
                except OSError:
                    pass

    def _serve_request(self, conn: socket.socket) -> None:
        conn.settimeout(self._io_timeout)
        data = b""
        while b"\r\n" not in data:
            try:
                chunk = conn.recv(_RECV_CHUNK)
            except OSError:
                # A scraper that connected and reset before sending a
                # request line is a client event, not a server failure.
                _log.debug("stats client disconnected before request")
                return
            if not chunk:
                return
            data += chunk
        request_line = data.split(b"\r\n", 1)[0].decode("latin-1")
        parts = request_line.split()
        path = parts[1] if len(parts) >= 2 else "/"
        # Route on the path component only; /metrics.json?pretty=1 is
        # still a JSON request.
        path = path.split("?", 1)[0]
        status = "200 OK"
        try:
            if path == "/debug/traces.json":
                if self._traces is None:
                    status = "404 Not Found"
                    body = b"no flight recorder attached\n"
                    ctype = "text/plain; charset=utf-8"
                else:
                    body = json.dumps(self._traces(), indent=2).encode()
                    ctype = "application/json"
            elif path.endswith(".json"):
                body = json.dumps(self._snapshot(), indent=2).encode()
                ctype = "application/json"
            else:
                body = self._render_text().encode()
                ctype = "text/plain; charset=utf-8"
        except Exception as exc:
            status = "500 Internal Server Error"
            body = f"snapshot failed: {exc}\n".encode()
            ctype = "text/plain; charset=utf-8"
        header = (
            f"HTTP/1.0 {status}\r\n"
            f"Content-Type: {ctype}\r\n"
            f"Content-Length: {len(body)}\r\n"
            "Connection: close\r\n\r\n"
        ).encode("latin-1")
        try:
            conn.sendall(header + body)
        except OSError:
            # The scraper hung up mid-response. Its loss — nothing is
            # wrong server-side, so no "stats request failed" traceback.
            _log.debug("stats client disconnected mid-write")

    def _render_text(self) -> str:
        snap = self._snapshot()
        lines = []
        for key, value in snap.items():
            if key == "metrics":
                continue
            lines.append(f"# {key}: {json.dumps(value)}")
        # Render the snapshot's own metrics — which may be a merged view
        # (parent registry + pool workers) the live REGISTRY never saw —
        # falling back to the process registry for snapshot callables
        # that carry no metrics key.
        metrics = snap.get("metrics")
        if metrics is not None:
            text = render_snapshot_text(metrics)
        else:
            text = REGISTRY.render_text()
        return "\n".join(lines) + ("\n" if lines else "") + text

    def stop(self, timeout: float = 5.0) -> None:
        """Stop listening and join the serving thread (idempotent)."""
        self._stopping.set()
        try:
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._listener.close()
        except OSError:
            pass
        self._thread.join(timeout)


class ZltpTcpServer:
    """Serve a logical ZLTP server on a TCP listening socket.

    Connection threads are tracked and pruned as they finish (no unbounded
    ``_threads`` growth), live sockets are registered so :meth:`stop` can
    shut every open connection down and join every worker deterministically.
    Frames that arrive together in one TCP chunk are handed to the session
    as a batch, so a pipelining client's GETs reach the mode's single-pass
    batched scan.
    """

    def __init__(self, server: ZltpServer, host: str = "127.0.0.1", port: int = 0,
                 stats_port: Optional[int] = None,
                 io_timeout: Optional[float] = None):
        """Bind and start accepting in a background thread.

        Args:
            server: the logical server to expose.
            host: bind address.
            port: bind port; 0 picks a free ephemeral port.
            stats_port: also serve this server's stats snapshot over HTTP
                on this port (0 picks a free one); None disables the
                sidecar.
            io_timeout: per-connection recv timeout for accepted ZLTP
                connections, also threaded through to the stats sidecar.
                None (the default) blocks forever — a parked client costs
                a thread but is never killed by an arbitrary constant;
                deployments that want reaping configure it explicitly
                (the threaded twin of the eventloop's ``idle_timeout``).
        """
        self.server = server
        self._io_timeout = io_timeout
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(16)
        self.address: Tuple[str, int] = self._listener.getsockname()
        self._stopping = threading.Event()
        self._lock = threading.Lock()
        self._threads: list = []  # guarded-by: _lock
        self._conns: set = set()  # guarded-by: _lock
        self.truncated_frames = 0  # guarded-by: _lock
        self.stats: Optional[StatsTcpServer] = None
        if stats_port is not None:
            self.stats = StatsTcpServer(
                self.stats_snapshot, host=host, port=stats_port,
                traces=server.flight.export,
                io_timeout=io_timeout if io_timeout is not None else 5.0)
        self._accept_thread = threading.Thread(target=self._accept_loop, daemon=True)
        self._accept_thread.start()
        _log.info("zltp endpoint listening", extra={
            "host": self.address[0], "port": self.address[1],
            "modes": list(server.modes)})

    def stats_snapshot(self) -> Dict[str, Any]:
        """JSON-ready serving counters plus the merged metrics snapshot.

        The ``metrics`` key is :meth:`ZltpServer.metrics_snapshot` — the
        process registry folded together with the scan pool workers'
        registries, in the mergeable cross-process format — so a scrape
        of this endpoint sees every core's work, not just the parent's.
        """
        return {
            "sessions_opened": self.server.sessions_opened,
            "gets_served": self.server.gets_served,
            "modes": {
                mode: stats.as_dict()
                for mode, stats in sorted(self.server.stats_by_mode().items())
            },
            "metrics": self.server.metrics_snapshot(),
        }

    @property
    def worker_count(self) -> int:
        """Live connection-handler threads (finished ones are pruned)."""
        with self._lock:
            self._threads = [t for t in self._threads if t.is_alive()]
            return len(self._threads)

    @property
    def active_connections(self) -> int:
        """Currently open client connections."""
        with self._lock:
            return len(self._conns)

    def _accept_loop(self) -> None:
        while not self._stopping.is_set():
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return
            if self._stopping.is_set():
                try:
                    conn.close()
                except OSError:
                    pass
                return
            thread = threading.Thread(
                target=self._serve_connection, args=(conn,), daemon=True
            )
            with self._lock:
                self._threads = [t for t in self._threads if t.is_alive()]
                self._threads.append(thread)
                self._conns.add(conn)
            thread.start()

    def _note_truncated_frame(self, conn: socket.socket,
                              pending_bytes: int) -> None:
        """Surface a partial frame left behind by a dying connection.

        Bytes sitting in a connection's decoder when the peer vanishes
        used to be dropped on the floor; a truncated frame is a protocol
        event worth counting and (best-effort, for a peer that only
        half-closed its write side) reporting back.
        """
        with self._lock:
            self.truncated_frames += 1
        record_truncated_frame()
        _log.warning("connection closed mid-frame", extra={
            "pending_bytes": pending_bytes})
        error = msg.ErrorMessage(
            "truncated-frame",
            f"connection closed with {pending_bytes} bytes of a partial frame",
        )
        try:
            conn.sendall(encode_frame(msg.encode_message(error)))
        except OSError:
            pass

    def _serve_connection(self, conn: socket.socket) -> None:
        session = self.server.create_session()
        decoder = FrameDecoder()
        try:
            set_nodelay(conn)
            if self._io_timeout is not None:
                conn.settimeout(self._io_timeout)
            while not session.closed and not self._stopping.is_set():
                try:
                    chunk = conn.recv(_RECV_CHUNK)
                except socket.timeout:
                    # The configured io timeout expired with no frame:
                    # reap like the eventloop's idle sweep, telling the
                    # peer why (best-effort).
                    error = msg.ErrorMessage(
                        "idle-timeout",
                        f"no frame within {self._io_timeout:g}s",
                    )
                    try:
                        conn.sendall(encode_frame(msg.encode_message(error)))
                    except OSError:
                        pass
                    return
                if not chunk:
                    # Peer closed. Bytes still buffered in the decoder mean
                    # the stream died mid-frame — surface it, don't drop it.
                    if decoder.pending_bytes:
                        self._note_truncated_frame(conn, decoder.pending_bytes)
                    return
                frames = decoder.feed(chunk)
                if not frames:
                    continue
                for reply in session.handle_frames(frames):
                    conn.sendall(encode_frame(reply))
        except OSError:
            return
        except Exception as exc:
            # A handler bug must not kill the connection silently: tell
            # the client why its session died, then tear it down.
            _log.exception("connection handler failed")
            error = msg.ErrorMessage("internal", str(exc))
            try:
                conn.sendall(encode_frame(msg.encode_message(error)))
            except OSError:
                pass
            return
        finally:
            # Every exit path — peer close, OSError, handler crash, clean
            # Bye — tears the server-side session down so the logical
            # server's session accounting balances.
            session.close()
            with self._lock:
                self._conns.discard(conn)
            try:
                conn.close()
            except OSError:
                pass

    def stop(self, timeout: float = 5.0) -> None:
        """Shut down deterministically: listener, live connections, workers.

        Stops accepting, shuts every open connection (unblocking any worker
        parked in ``recv``), then joins the accept thread and every worker.
        Safe to call more than once.
        """
        self._stopping.set()
        if self.stats is not None:
            self.stats.stop(timeout)
        # shutdown() (not just close()) wakes a thread blocked in accept().
        try:
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._listener.close()
        except OSError:
            pass
        with self._lock:
            conns = list(self._conns)
            threads = list(self._threads)
        for conn in conns:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
        self._accept_thread.join(timeout)
        for thread in threads:
            thread.join(timeout)
        with self._lock:
            for conn in list(self._conns):
                try:
                    conn.close()
                except OSError:
                    pass
                self._conns.discard(conn)
            self._threads = [t for t in self._threads if t.is_alive()]
        _log.info("zltp endpoint stopped", extra={
            "host": self.address[0], "port": self.address[1]})


def connect_tcp(host: str, port: int, timeout: Optional[float] = 10.0,
                io_timeout: Optional[float] = None) -> TcpTransport:
    """Open a TCP connection to a ZLTP server and wrap it as a transport.

    Args:
        host: server address.
        port: server port.
        timeout: connection-establishment timeout only.
        io_timeout: per-recv/send timeout for the established session;
            None (the default) blocks indefinitely. A PIR answer is a
            full database scan, so the dial timeout must not double as
            the I/O timeout — a slow mode is not a dead connection.
    """
    try:
        sock = socket.create_connection((host, port), timeout=timeout)
    except OSError as exc:
        # Typed like every other transport failure, so retry policies and
        # endpoint pools treat a refused dial as a recoverable event.
        raise TransportError(f"connect to {host}:{port} failed: {exc}") from exc
    set_nodelay(sock)
    sock.settimeout(io_timeout)
    return TcpTransport(sock, name=f"tcp:{host}:{port}")


def connect_tcp_resilient(candidates: List[Tuple[str, int]],
                          policy: Optional[RetryPolicy] = None,
                          timeout: Optional[float] = 10.0,
                          io_timeout: Optional[float] = None,
                          op_deadline_seconds: Optional[float] = None
                          ) -> ReconnectingTransport:
    """A reconnecting transport over one or more (host, port) endpoints.

    Dials the first reachable candidate and transparently re-dials (with
    failover across the remaining candidates) when the TCP session drops
    mid-stream. The caller still drives the ZLTP handshake; see
    :class:`repro.core.resilience.ReconnectingTransport` for the replay
    discipline.
    """
    if not candidates:
        raise TransportError("connect_tcp_resilient needs at least one endpoint")
    dials = [
        (lambda host=host, port=port:
         connect_tcp(host, port, timeout=timeout, io_timeout=io_timeout))
        for host, port in candidates
    ]
    name = "tcp:" + ",".join(f"{host}:{port}" for host, port in candidates)
    return resilient(dials, policy=policy,
                     op_deadline_seconds=op_deadline_seconds, name=name)


__all__ = ["TcpTransport", "ZltpTcpServer", "StatsTcpServer", "connect_tcp",
           "connect_tcp_resilient"]
