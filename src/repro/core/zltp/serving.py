"""Put a logical ZLTP server on a TCP port.

One socket loop serves ZLTP: the reactor
(:class:`~repro.core.zltp.eventloop.ZltpEventLoopServer`). It reads every
ready connection in a tick before it answers any of them, and
:meth:`~repro.core.zltp.server.ZltpServer.tick` then admits the tick's
GET runs in arrival order, so the admission gate sees the queue that
concurrent clients form. The listener has

- constructor ``(server, host=..., port=..., idle_timeout=...)``,
- ``address`` / ``server`` attributes,
- ``active_connections``, ``worker_count``,
- deterministic, idempotent ``stop(timeout)``.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.core.zltp.eventloop import ZltpEventLoopServer
from repro.core.zltp.server import ZltpServer
from repro.errors import ReproError


def create_tcp_server(kind: Optional[str], server: ZltpServer,
                      host: str = "127.0.0.1", port: int = 0,
                      **kwargs: Any) -> ZltpEventLoopServer:
    """Build the reactor listener over a logical server.

    Args:
        kind: None or ``"eventloop"``, the one socket loop.
        server: the logical ZLTP server to expose.
        host / port: as on :class:`ZltpEventLoopServer`.
        kwargs: passed through verbatim (``idle_timeout``).

    Raises:
        ReproError: on any other kind.
    """
    if kind not in (None, "eventloop"):
        raise ReproError(
            f"unknown server kind {kind!r} (the one socket loop is "
            f"'eventloop')")
    return ZltpEventLoopServer(server, host=host, port=port, **kwargs)


__all__ = ["create_tcp_server"]
