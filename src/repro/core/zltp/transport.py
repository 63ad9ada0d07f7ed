"""Transports carrying framed ZLTP messages.

A :class:`Transport` is a duplex byte pipe with framing and byte accounting.
The accounting matters beyond diagnostics: the per-request communication
numbers of §5.1/§5.2 (13.6 KiB, 15.9 KiB) are exactly what these counters
measure, and the network adversary of :mod:`repro.netsim` observes the same
(size, direction, time) stream a real on-path attacker would.

:class:`InMemoryTransport` pairs connect a client to a server inside one
process with synchronous delivery; :mod:`repro.core.zltp.sockets` provides
the real-TCP equivalent; and the network simulator wraps either end to add
latency and adversarial observation.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Optional, Sequence, Tuple

from repro.core.zltp.wire import FrameDecoder, encode_frame
from repro.errors import TransportError


class Transport:
    """Abstract duplex framed transport."""

    def send_frame(self, payload: bytes) -> None:
        """Send one message payload (framed on the wire)."""
        raise NotImplementedError

    def send_frames(self, payloads: Sequence[bytes]) -> None:
        """Send a burst of message payloads, in order.

        A transport with a real write path overrides this to put the whole
        burst on the wire in one write, so pipelined requests reach the
        peer together; the default is frame by frame.
        """
        for payload in payloads:
            self.send_frame(payload)

    def recv_frame(self) -> bytes:
        """Receive the next message payload.

        Raises:
            TransportError: if the transport is closed or has no pending
                frame (in-memory transports are synchronous, so an empty
                inbox is a protocol bug, not a wait condition).
        """
        raise NotImplementedError

    def close(self) -> None:
        """Close the transport; further sends raise."""
        raise NotImplementedError

    @property
    def bytes_sent(self) -> int:
        """Total framed bytes sent (wire size, headers included)."""
        raise NotImplementedError

    @property
    def bytes_received(self) -> int:
        """Total framed bytes received."""
        raise NotImplementedError


class InMemoryTransport(Transport):
    """One end of an in-process transport pair with synchronous delivery.

    When this end sends, the peer's ``receiver`` callback (if set) runs
    immediately — that is how an in-process ZLTP server answers without any
    event loop. Frames not consumed by a callback queue in the inbox for
    ``recv_frame``.
    """

    def __init__(self, name: str = ""):
        self.name = name
        self._peer: Optional["InMemoryTransport"] = None
        self._inbox: deque = deque()
        self._decoder = FrameDecoder()
        self._closed = False
        self._bytes_sent = 0
        self._bytes_received = 0
        #: Optional synchronous frame handler (used by server sessions).
        self.receiver: Optional[Callable[[bytes], None]] = None
        #: Optional tap invoked with (direction, n_bytes) for every frame;
        #: direction is "send" or "recv". The netsim adversary hooks here.
        self.tap: Optional[Callable[[str, int], None]] = None

    def connect(self, peer: "InMemoryTransport") -> None:
        """Link two endpoints (normally via :func:`transport_pair`)."""
        self._peer = peer
        peer._peer = self

    def send_frame(self, payload: bytes) -> None:
        if self._closed:
            raise TransportError(f"transport {self.name!r} is closed")
        if self._peer is None:
            raise TransportError(f"transport {self.name!r} is not connected")
        frame = encode_frame(payload)
        self._bytes_sent += len(frame)
        if self.tap is not None:
            self.tap("send", len(frame))
        self._peer._deliver(frame)

    def _deliver(self, frame: bytes) -> None:
        if self._closed:
            return  # peer closed mid-flight; drop, as a socket would
        self._bytes_received += len(frame)
        if self.tap is not None:
            self.tap("recv", len(frame))
        for payload in self._decoder.feed(frame):
            if self.receiver is not None:
                self.receiver(payload)
            else:
                self._inbox.append(payload)

    def recv_frame(self) -> bytes:
        if self._inbox:
            return self._inbox.popleft()
        if self._closed:
            raise TransportError(f"transport {self.name!r} is closed")
        raise TransportError(
            f"no pending frame on {self.name!r} (synchronous transport)"
        )

    def pending(self) -> int:
        """Frames queued in the inbox."""
        return len(self._inbox)

    def close(self) -> None:
        self._closed = True

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has been called."""
        return self._closed

    @property
    def bytes_sent(self) -> int:
        return self._bytes_sent

    @property
    def bytes_received(self) -> int:
        return self._bytes_received


def transport_pair(client_name: str = "client", server_name: str = "server"
                   ) -> Tuple[InMemoryTransport, InMemoryTransport]:
    """Create a connected (client_end, server_end) in-memory pair."""
    a = InMemoryTransport(client_name)
    b = InMemoryTransport(server_name)
    a.connect(b)
    return a, b


__all__ = ["Transport", "InMemoryTransport", "transport_pair"]
