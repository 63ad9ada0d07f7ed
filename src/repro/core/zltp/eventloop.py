"""Event-loop ZLTP serving: one reactor multiplexing thousands of sessions.

The thread-per-connection :class:`~repro.core.zltp.sockets.ZltpTcpServer`
was the right prototype — a PIR answer is a linear database scan, so a
handful of connections saturate the scan path long before threads matter.
The paper's deployment story (§5.2) is different: a front-end holding
*many* mostly-idle client sessions open at once while fanning each request
out to hundreds of data servers. A thread per idle session spends a stack
and a scheduler slot on a connection that is doing nothing; this module
spends a ~200-byte :class:`_Connection` record instead.

:class:`ZltpEventLoopServer` runs a single reactor thread over a
``selectors.DefaultSelector`` (epoll on Linux):

- the listener and every client socket are non-blocking; reads feed each
  connection's own :class:`~repro.core.zltp.wire.FrameDecoder`;
- replies accumulate in a per-connection write buffer which drains on
  writability — a slow reader backs pressure into its own buffer, never
  into a blocked thread;
- frames that arrive together still reach
  :meth:`~repro.core.zltp.server.ZltpServerSession.handle_frames` as one
  burst, so pipelined GETs keep hitting the single-pass batched scan;
- sessions idle past ``idle_timeout`` are reaped with a best-effort
  ``idle-timeout`` error frame (a reactor cannot afford parked-forever
  peers holding fds);
- :meth:`stop` has the same deterministic discipline as the threaded
  server: wake the reactor, drain it, join it, and leave no socket open.

Thread discipline: all per-connection state (the selector, the connection
table, decoders, write buffers) is *owned by the reactor thread* — only
``_react_*`` methods touch it, enforced by the ``owned-by:`` lint rule
(see DESIGN.md). Cross-thread communication happens exactly two ways: the
``_stopping`` event plus self-pipe wakeup, and atomic counter reads that
tolerate racing (``active_connections``).

The shared serving interface (``address``, ``stats``, ``stats_snapshot``,
``active_connections``, ``worker_count``, ``stop``) is what
:mod:`repro.core.zltp.serving` registers both flavours behind.
"""

from __future__ import annotations

import selectors
import socket
import threading
import time
from typing import Any, Dict, Optional, Tuple

from repro.core.zltp import messages as msg
from repro.core.zltp.server import ZltpServer
from repro.core.zltp.sockets import StatsTcpServer, set_nodelay
from repro.core.zltp.wire import FrameDecoder, encode_frame
from repro.errors import TransportError
from repro.obs.logs import get_logger
from repro.obs.metrics import (
    record_active_sessions,
    record_truncated_frame,
)

_RECV_CHUNK = 65536

_log = get_logger(__name__)


class _Connection:
    """Reactor-owned state for one client socket."""

    __slots__ = ("sock", "session", "decoder", "outbuf", "last_activity",
                 "closing", "want_write")

    def __init__(self, sock: socket.socket, session, now: float):
        self.sock = sock
        self.session = session
        self.decoder = FrameDecoder()
        self.outbuf = bytearray()
        self.last_activity = now
        #: Tear the connection down once the write buffer drains.
        self.closing = False
        #: Whether the selector registration currently includes EVENT_WRITE.
        self.want_write = False


class ZltpEventLoopServer:
    """Serve a logical ZLTP server from one selector-driven reactor.

    Drop-in for :class:`~repro.core.zltp.sockets.ZltpTcpServer` behind the
    shared serving interface; the difference is purely architectural —
    thousands of concurrent sessions cost one thread, not thousands.

    Attributes:
        server: the logical :class:`ZltpServer` being exposed.
        address: the bound (host, port).
        stats: the optional HTTP stats sidecar.
        idle_timeout: seconds of inactivity before a session is reaped
            (None = never).
    """

    #: Registry name; also the ``server`` label on the session gauge.
    kind = "eventloop"

    def __init__(self, server: ZltpServer, host: str = "127.0.0.1",
                 port: int = 0, stats_port: Optional[int] = None,
                 idle_timeout: Optional[float] = None,
                 tick_seconds: float = 0.5,
                 io_timeout: Optional[float] = None):
        """Bind, then start the reactor thread.

        Args:
            server: the logical server to expose.
            host: bind address.
            port: bind port; 0 picks a free ephemeral port.
            stats_port: also serve the stats snapshot over HTTP on this
                port (0 picks a free one); None disables the sidecar.
            idle_timeout: reap sessions idle this long; None disables.
            tick_seconds: upper bound on the reactor's select() sleep —
                the granularity of idle sweeps and stop() responsiveness.
            io_timeout: per-connection recv/send timeout for the stats
                sidecar (the reactor's own sockets are non-blocking, so
                data-path idleness is ``idle_timeout``'s job); None keeps
                the sidecar default.
        """
        self.server = server
        self.idle_timeout = idle_timeout
        self._tick = tick_seconds
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(1024)
        self._listener.setblocking(False)
        self.address: Tuple[str, int] = self._listener.getsockname()
        self._stopping = threading.Event()
        # Self-pipe: stop() writes one byte to interrupt a parked select().
        self._wake_recv, self._wake_send = socket.socketpair()
        self._wake_recv.setblocking(False)
        self._selector = selectors.DefaultSelector()  # owned-by: _react
        self._conns: Dict[int, _Connection] = {}  # owned-by: _react
        # Counters: written by the reactor, read from any thread; racy
        # reads of monotonic ints are tolerated (same discipline as the
        # database scan counters).
        self.sessions_accepted = 0
        self.idle_reaped = 0
        self.truncated_frames = 0
        self.stats: Optional[StatsTcpServer] = None
        if stats_port is not None:
            self.stats = StatsTcpServer(
                self.stats_snapshot, host=host, port=stats_port,
                traces=server.flight.export,
                io_timeout=io_timeout if io_timeout is not None else 5.0)
        self._thread = threading.Thread(target=self._react_loop, daemon=True,
                                        name="zltp-reactor")
        self._thread.start()
        _log.info("zltp eventloop endpoint listening", extra={
            "host": self.address[0], "port": self.address[1],
            "modes": list(server.modes)})

    # ------------------------------------------------------------------
    # Shared serving interface
    # ------------------------------------------------------------------

    @property
    def active_connections(self) -> int:
        """Currently open client connections (racy read by design)."""
        return len(self._conns)

    @property
    def worker_count(self) -> int:
        """Service threads — always exactly one reactor, regardless of
        session count (the number the E12 bench contrasts with
        thread-per-connection)."""
        return 1 if self._thread.is_alive() else 0

    def stats_snapshot(self) -> Dict[str, Any]:
        """JSON-ready serving counters plus the merged metrics snapshot
        (process registry + scan-pool workers, as in the threaded
        server)."""
        return {
            "sessions_opened": self.server.sessions_opened,
            "gets_served": self.server.gets_served,
            "modes": {
                mode: stats.as_dict()
                for mode, stats in sorted(self.server.stats_by_mode().items())
            },
            "metrics": self.server.metrics_snapshot(),
        }

    def stop(self, timeout: float = 5.0) -> None:
        """Shut down deterministically (idempotent).

        Wakes the reactor, which tears every connection down, closes the
        listener and selector, and exits; then the sidecar is stopped and
        the reactor thread joined.
        """
        self._stopping.set()
        try:
            self._wake_send.send(b"\x00")
        except OSError:
            pass
        if self.stats is not None:
            self.stats.stop(timeout)
        self._thread.join(timeout)
        try:
            self._wake_send.close()
        except OSError:
            pass
        _log.info("zltp eventloop endpoint stopped", extra={
            "host": self.address[0], "port": self.address[1]})

    # ------------------------------------------------------------------
    # Reactor internals — everything below runs on the reactor thread
    # ------------------------------------------------------------------

    def _react_loop(self) -> None:
        self._selector.register(self._listener, selectors.EVENT_READ,
                                data="accept")
        self._selector.register(self._wake_recv, selectors.EVENT_READ,
                                data="wake")
        last_sweep = time.monotonic()
        try:
            while not self._stopping.is_set():
                for key, mask in self._selector.select(timeout=self._tick):
                    if key.data == "accept":
                        self._react_accept()
                    elif key.data == "wake":
                        try:
                            self._wake_recv.recv(64)
                        except OSError:
                            pass
                    else:
                        conn = key.data
                        if mask & selectors.EVENT_WRITE:
                            self._react_flush(conn)
                        if mask & selectors.EVENT_READ and \
                                conn.sock.fileno() != -1:
                            self._react_read(conn)
                now = time.monotonic()
                if self.idle_timeout is not None and \
                        now - last_sweep >= min(self._tick, self.idle_timeout / 2):
                    self._react_sweep_idle(now)
                    last_sweep = now
        finally:
            self._react_shutdown()

    def _react_accept(self) -> None:
        # Accept everything ready this tick; the listener backlog is deep
        # and a reactor accepts cheaply.
        while True:
            try:
                sock, _ = self._listener.accept()
            except (BlockingIOError, InterruptedError):
                return
            except OSError:
                # EMFILE or a listener torn down mid-accept: stop
                # accepting this tick; existing sessions keep running.
                return
            try:
                set_nodelay(sock)
            except OSError:
                # The peer reset before we got to it; nothing to serve.
                sock.close()
                continue
            sock.setblocking(False)
            conn = _Connection(sock, self.server.create_session(),
                               time.monotonic())
            self._conns[sock.fileno()] = conn
            self.sessions_accepted += 1
            record_active_sessions(self.kind, len(self._conns))
            try:
                self._selector.register(sock, selectors.EVENT_READ, data=conn)
            except (ValueError, KeyError, OSError):
                self._react_teardown(conn)

    def _react_read(self, conn: _Connection) -> None:
        try:
            chunk = conn.sock.recv(_RECV_CHUNK)
        except (BlockingIOError, InterruptedError):
            return
        except OSError:
            self._react_teardown(conn)
            return
        if not chunk:
            if conn.decoder.pending_bytes:
                self._react_note_truncated(conn)
            self._react_teardown(conn)
            return
        conn.last_activity = time.monotonic()
        try:
            frames = conn.decoder.feed(chunk)
        except TransportError as exc:
            # Oversized frame declaration: the stream is unrecoverable.
            self._react_send_error(conn, "bad-frame", str(exc))
            return
        if not frames:
            return
        try:
            replies = conn.session.handle_frames(frames)
        except Exception as exc:
            # A handler bug must not kill the reactor: tell this client,
            # tear this session down, keep serving the rest.
            _log.exception("connection handler failed")
            self._react_send_error(conn, "internal", str(exc))
            return
        for reply in replies:
            conn.outbuf += encode_frame(reply)
        if conn.session.closed:
            conn.closing = True
        self._react_flush(conn)

    def _react_send_error(self, conn: _Connection, code: str,
                          detail: str) -> None:
        """Queue an error frame, then close once it has drained."""
        error = msg.ErrorMessage(code, detail)
        conn.outbuf += encode_frame(msg.encode_message(error))
        conn.closing = True
        self._react_flush(conn)

    def _react_note_truncated(self, conn: _Connection) -> None:
        """A peer closed with a partial frame buffered — surface it.

        Mirrors the threaded server: count it, log it, and (for a peer
        that only shut down its write side) report it back best-effort.
        """
        pending = conn.decoder.pending_bytes
        self.truncated_frames += 1
        record_truncated_frame()
        _log.warning("connection closed mid-frame", extra={
            "pending_bytes": pending})
        error = msg.ErrorMessage(
            "truncated-frame",
            f"connection closed with {pending} bytes of a partial frame",
        )
        try:
            conn.sock.send(encode_frame(msg.encode_message(error)))
        except OSError:
            pass

    def _react_flush(self, conn: _Connection) -> None:
        """Drain the write buffer as far as the socket allows right now."""
        while conn.outbuf:
            try:
                sent = conn.sock.send(conn.outbuf)
            except (BlockingIOError, InterruptedError):
                break
            except OSError:
                self._react_teardown(conn)
                return
            if sent <= 0:
                break
            del conn.outbuf[:sent]
        if conn.outbuf:
            self._react_set_interest(conn, write=True)
        else:
            if conn.closing:
                self._react_teardown(conn)
                return
            self._react_set_interest(conn, write=False)

    def _react_set_interest(self, conn: _Connection, write: bool) -> None:
        if conn.want_write == write:
            return
        events = selectors.EVENT_READ
        if write:
            events |= selectors.EVENT_WRITE
        try:
            self._selector.modify(conn.sock, events, data=conn)
            conn.want_write = write
        except (ValueError, KeyError, OSError):
            self._react_teardown(conn)

    def _react_sweep_idle(self, now: float) -> None:
        stale = [conn for conn in self._conns.values()
                 if now - conn.last_activity > self.idle_timeout]
        for conn in stale:
            self.idle_reaped += 1
            error = msg.ErrorMessage(
                "idle-timeout",
                f"session idle longer than {self.idle_timeout:g}s",
            )
            try:
                conn.sock.send(encode_frame(msg.encode_message(error)))
            except OSError:
                pass
            self._react_teardown(conn)

    def _react_teardown(self, conn: _Connection) -> None:
        """Close one connection and balance every piece of accounting."""
        conn.session.close()
        fd = conn.sock.fileno()
        if fd >= 0:
            self._conns.pop(fd, None)
        else:
            # The fd is already invalid; fall back to a value scan.
            for known_fd, known in list(self._conns.items()):
                if known is conn:
                    self._conns.pop(known_fd, None)
                    break
        try:
            self._selector.unregister(conn.sock)
        except (ValueError, KeyError, OSError):
            pass
        try:
            conn.sock.close()
        except OSError:
            pass
        record_active_sessions(self.kind, len(self._conns))

    def _react_shutdown(self) -> None:
        """Reactor exit path: tear everything down before the thread dies."""
        for conn in list(self._conns.values()):
            self._react_teardown(conn)
        try:
            self._selector.unregister(self._listener)
        except (ValueError, KeyError, OSError):
            pass
        try:
            self._listener.close()
        except OSError:
            pass
        try:
            self._selector.unregister(self._wake_recv)
        except (ValueError, KeyError, OSError):
            pass
        try:
            self._wake_recv.close()
        except OSError:
            pass
        self._selector.close()


__all__ = ["ZltpEventLoopServer"]
