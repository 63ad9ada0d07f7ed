"""The reactor: one selector thread per listener, multiplexing its sessions.

The paper's deployment story (§5.2) is a front-end holding *many*
mostly-idle client sessions open at once while fanning each request out
to hundreds of data servers. A thread per idle session would spend a
stack and a scheduler slot on a connection that is doing nothing; this
module spends a ~200-byte :class:`_Connection` record instead, and it is
the only socket loop that serves ZLTP.

:class:`Reactor` runs a single thread over a ``selectors.DefaultSelector``
(epoll on Linux) for one listening socket, and gives each connection a
session from its ``session_factory``: any sans-IO object with the
:class:`~repro.core.zltp.server.ZltpServerSession` contract
(``receive(bytes) -> bytes``, ``end_of_stream()``, ``expire()``,
``close()``, ``closed``). ZLTP (:class:`ZltpEventLoopServer`), the
directory and the stats listener are its three session kinds.

- the listener and every client socket are non-blocking; a tick reads
  one chunk from every ready connection first and only then serves them,
  in arrival order (:meth:`Reactor._tick`: each session's ``receive`` by
  default; :meth:`~repro.core.zltp.server.ZltpServer.tick` for ZLTP, whose
  admission gate thereby sees every run of the tick). The session owns
  framing and every error reply, so frames that arrive together still
  reach the single-pass batched scan as one burst;
- replies accumulate in a per-connection write buffer which drains on
  writability — a slow reader backs pressure into its own buffer, never
  into a blocked thread;
- sessions idle past ``idle_timeout`` are expired (whatever the session
  writes is sent best-effort) and closed: a reactor cannot afford
  parked-forever peers holding fds;
- :meth:`Reactor.stop` is deterministic: wake the reactor, drain it,
  join it, and leave no socket open.

Thread discipline: all per-connection state (the selector, the connection
table, sessions, write buffers) is *owned by the reactor thread* — only
``_react_*`` methods touch it, enforced by the ``owned-by:`` lint rule
(see DESIGN.md). Cross-thread communication happens exactly two ways: the
``_stopping`` event plus self-pipe wakeup, and atomic counter reads that
tolerate racing (``active_connections``).
"""

from __future__ import annotations

import selectors
import socket
import threading
import time
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.core.zltp.server import ZltpServer
from repro.core.zltp.sockets import set_nodelay
from repro.obs.logs import get_logger

_RECV_CHUNK = 65536

_log = get_logger(__name__)


class _Connection:
    """Reactor-owned state for one client socket."""

    __slots__ = ("sock", "session", "outbuf", "last_activity", "want_write")

    def __init__(self, sock: socket.socket, session, now: float):
        self.sock = sock
        self.session = session
        self.outbuf = bytearray()
        self.last_activity = now
        #: Whether the selector registration currently includes EVENT_WRITE.
        self.want_write = False


class Reactor:
    """Serve one listening socket from one selector-driven thread.

    Attributes:
        address: the bound (host, port).
        idle_timeout: seconds of inactivity before a session is reaped
            (None = never).
    """

    def __init__(self, session_factory: Callable[[], Any],
                 host: str = "127.0.0.1", port: int = 0,
                 idle_timeout: Optional[float] = None):
        """Bind, then start the reactor thread.

        Args:
            session_factory: returns a fresh session per connection.
            host: bind address.
            port: bind port; 0 picks a free ephemeral port.
            idle_timeout: reap sessions idle this long; None disables.
                The reactor sweeps every ``idle_timeout / 2`` seconds.
        """
        self._session_factory = session_factory
        self.idle_timeout = idle_timeout
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
        self._thread = threading.Thread(target=self._react_loop, daemon=True,
                                        name="reactor")
        self._thread.start()

    @property
    def active_connections(self) -> int:
        """Currently open client connections (racy read by design)."""
        return len(self._conns)

    @property
    def worker_count(self) -> int:
        """Service threads — always exactly one reactor, regardless of
        session count (the number the E12 smoke checks)."""
        return 1 if self._thread.is_alive() else 0

    def _tick(self, reads: List[Tuple[Any, bytes]]
              ) -> Iterator[Tuple[int, bytes]]:
        """Serve one tick's ``(session, chunk)`` reads in arrival order,
        yielding ``(index, reply bytes)`` per read: by default each
        session's ``receive``, one after the other."""
        for index, (session, chunk) in enumerate(reads):
            yield index, session.receive(chunk)

    def stop(self, timeout: float = 5.0) -> None:
        """Shut down deterministically (idempotent).

        Wakes the reactor, which tears every connection down, closes the
        listener and selector, and exits; then the thread is joined.
        """
        self._stopping.set()
        try:
            self._wake_send.send(b"\x00")
        except OSError:
            pass
        self._thread.join(timeout)
        try:
            self._wake_send.close()
        except OSError:
            pass
        _log.info("reactor stopped", extra={
            "host": self.address[0], "port": self.address[1]})

    # ------------------------------------------------------------------
    # Reactor internals — everything below runs on the reactor thread
    # ------------------------------------------------------------------

    def _react_loop(self) -> None:
        self._selector.register(self._listener, selectors.EVENT_READ,
                                data="accept")
        self._selector.register(self._wake_recv, selectors.EVENT_READ,
                                data="wake")
        # Without an idle timeout nothing is due on a clock: select()
        # parks until a socket or stop()'s self-pipe wakes it.
        sweep = None if self.idle_timeout is None else self.idle_timeout / 2
        last_sweep = time.monotonic()
        try:
            while not self._stopping.is_set():
                reads = []
                for key, mask in self._selector.select(timeout=sweep):
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
                            chunk = self._react_read(conn)
                            if chunk:
                                reads.append((conn, chunk))
                if reads:
                    self._react_serve(reads)
                now = time.monotonic()
                if sweep is not None and now - last_sweep >= sweep:
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
            conn = _Connection(sock, self._session_factory(),
                               time.monotonic())
            self._conns[sock.fileno()] = conn
            try:
                self._selector.register(sock, selectors.EVENT_READ, data=conn)
            except (ValueError, KeyError, OSError):
                self._react_teardown(conn)

    def _react_read(self, conn: _Connection) -> Optional[bytes]:
        """One chunk from a readable connection, or None after handling a
        hang-up or a socket error."""
        try:
            chunk = conn.sock.recv(_RECV_CHUNK)
        except (BlockingIOError, InterruptedError):
            return None
        except OSError:
            self._react_teardown(conn)
            return None
        if not chunk:
            self._react_hangup(conn, conn.session.end_of_stream())
            return None
        conn.last_activity = time.monotonic()
        return chunk

    def _react_serve(self, reads: List[Tuple[_Connection, bytes]]) -> None:
        """Serve the tick's reads, writing each session's replies as soon
        as they are yielded, before the next session is answered."""
        for index, replies in self._tick([(conn.session, chunk)
                                          for conn, chunk in reads]):
            conn = reads[index][0]
            conn.outbuf += replies
            self._react_flush(conn)

    def _react_hangup(self, conn: _Connection, last: bytes) -> None:
        """Send what is queued plus ``last`` best-effort, then tear down."""
        conn.outbuf += last
        if conn.outbuf:
            try:
                conn.sock.send(conn.outbuf)
            except OSError:
                pass
        self._react_teardown(conn)

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
        elif conn.session.closed:
            self._react_teardown(conn)
        else:
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
            self._react_hangup(conn, conn.session.expire())

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


class ZltpEventLoopServer(Reactor):
    """Serve a logical ZLTP server from one reactor.

    Thousands of concurrent sessions cost one thread, and each tick is
    served through :meth:`ZltpServer.tick`, so the server's admission
    gate rules on every session's GET run of the tick in arrival order.

    Attributes:
        server: the logical :class:`ZltpServer` being exposed.
    """

    def __init__(self, server: ZltpServer, host: str = "127.0.0.1",
                 port: int = 0, idle_timeout: Optional[float] = None):
        self.server = server
        super().__init__(lambda: self.server.create_session(), host, port,
                         idle_timeout)
        _log.info("zltp eventloop endpoint listening", extra={
            "host": self.address[0], "port": self.address[1],
            "modes": list(server.modes)})

    def _tick(self, reads: List[Tuple[Any, bytes]]
              ) -> Iterator[Tuple[int, bytes]]:
        return self.server.tick(reads)


__all__ = ["Reactor", "ZltpEventLoopServer"]
