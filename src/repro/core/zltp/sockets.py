"""Real TCP transport for ZLTP — the client side of an actual network stack.

The in-process :class:`~repro.netsim.simnet.SimLink` is what most tests
use, but ZLTP is an application-layer network protocol and should run over
real sockets too. The reactor
(:class:`~repro.core.zltp.eventloop.ZltpEventLoopServer`) serves it, and
:func:`connect_tcp` returns a blocking :class:`TcpTransport` usable
directly by :class:`~repro.core.zltp.client.ZltpClient`.
"""

from __future__ import annotations

import socket
import threading
from typing import Optional, Sequence

from repro.core.zltp.wire import FrameDecoder, encode_frames
from repro.errors import TransportError

_RECV_CHUNK = 65536


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
        burst = encode_frames(payloads)
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


__all__ = ["TcpTransport", "connect_tcp"]
