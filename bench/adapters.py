"""The one seam between the benchmark and ``repro``.

Every name the benchmark uses from the program is imported here and
nowhere else, so the public surface later PRs must keep working is this
import block. No engine, server-kind or mode-server knobs are set: the
benchmark measures what ``lightweb serve`` gives by default.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cli.browse import DirectoryCdnProxy
from repro.cli.serve import build_deployment
from repro.core.backend import create_client, create_server, mode_endpoints
from repro.core.discovery import CachingResolver, static_directory
from repro.core.lightweb.browser import LightwebBrowser
from repro.core.zltp.client import connect_client
from repro.core.zltp.messages import (  # noqa: F401  (re-exported rungs)
    GetRequest,
    GetResponse,
    decode_message,
    encode_message,
)
from repro.core.zltp.server import ZltpServer
from repro.core.zltp.serving import create_tcp_server
from repro.core.zltp.sockets import connect_tcp
from repro.core.zltp.transport import transport_pair
from repro.crypto.dpf import eval_dpf_full, gen_dpf  # noqa: F401
from repro.crypto.lwe import LwePirClient, LwePirServer  # noqa: F401
from repro.pir.database import BlobDatabase
from repro.pir.sharding import ShardedPartyServer  # noqa: F401
from repro.pir.twoserver import TwoServerPirServer  # noqa: F401

from bench.workloads import BROWSE_UNIVERSE, Workload, blob_for

HOST = "127.0.0.1"
UNIVERSE = "main"

Ports = Dict[str, List[int]]


# --------------------------------------------------------------------------
# Server side (runs in the spawned child, and in-process for the ladder)
# --------------------------------------------------------------------------


def fill_database(workload: Workload, seed: int) -> Tuple[BlobDatabase, float]:
    """Build the workload's database from the seeded corpus, slot by slot
    through ``set_slot`` — the write path; returns it with the fill time."""
    start = time.perf_counter()
    database = BlobDatabase(workload.domain_bits, workload.blob_size)
    for slot in range(database.n_slots):
        database.set_slot(slot, blob_for(seed, slot, workload.blob_size))
    return database, time.perf_counter() - start


def server_options(workload: Workload) -> Optional[Dict[str, Any]]:
    """The only server option a workload sets: its shard prefix width."""
    if workload.prefix_bits:
        return {"prefix_bits": workload.prefix_bits}
    return None


def logical_servers(workload: Workload,
                    databases: Sequence[BlobDatabase]) -> List[ZltpServer]:
    """One logical ZLTP server per party of a ``fetch`` workload."""
    return [ZltpServer(database, party=party,
                       options=server_options(workload))
            for party, database in enumerate(databases)]


def publish(spec_paths: List[str]):
    """browse_pir2's deployment: the universe published from site specs and
    listening exactly as ``lightweb serve`` would."""
    return build_deployment(spec_paths, universe_name=UNIVERSE, host=HOST,
                            **BROWSE_UNIVERSE)


def serve(workload: Workload, seed: int,
          spec_paths: List[str]) -> Tuple[Ports, Callable[[], None]]:
    """Host every party's listener in this process.

    Returns the listening ports by session kind and a stop function.
    """
    if workload.kind == "browse":
        deployment = publish(spec_paths)
        return deployment.ports(), deployment.stop
    databases = [fill_database(workload, seed)[0]
                 for _party in range(mode_endpoints(workload.mode))]
    listeners = [create_tcp_server(None, server, host=HOST)
                 for server in logical_servers(workload, databases)]

    def stop() -> None:
        for listener in listeners:
            listener.stop()

    return {"data": [listener.address[1] for listener in listeners]}, stop


# --------------------------------------------------------------------------
# Client side
# --------------------------------------------------------------------------


def open_fetch_client(workload: Workload, ports: Ports,
                      rng: np.random.Generator):
    """Dial every party over loopback TCP and run hello (and set-up)."""
    return connect_client([connect_tcp(HOST, port) for port in ports["data"]],
                          supported_modes=[workload.mode], rng=rng)


def cdn_proxy(ports: Ports) -> DirectoryCdnProxy:
    """The browser's CDN handle over fixed ports (a static directory)."""
    directory = static_directory(
        HOST, ports, universe=UNIVERSE,
        attrs={"fetch_budget": BROWSE_UNIVERSE["fetch_budget"]})
    return DirectoryCdnProxy(CachingResolver(directory, grace_seconds=None),
                             universe_name=UNIVERSE)


def open_browser(workload: Workload, ports: Ports,
                 rng: np.random.Generator) -> LightwebBrowser:
    """A connected browser: code and data sessions against every party."""
    browser = LightwebBrowser(rng=rng)
    browser.connect(cdn_proxy(ports), UNIVERSE, client_modes=[workload.mode])
    return browser


def open_data_client(workload: Workload, ports: Ports,
                     rng: np.random.Generator):
    """A bare data session like the one the browser holds, for replaying
    the keyword GETs a visit makes."""
    return cdn_proxy(ports).connect(UNIVERSE, "data",
                                    client_modes=[workload.mode], rng=rng)


# --------------------------------------------------------------------------
# The in-memory rung: the reactor's delivery without the socket
# --------------------------------------------------------------------------


class LoopbackTransport:
    """Client transport that delivers each burst of request frames to
    ``session.handle_frames`` in one call when the client turns to read.

    That is what the event loop does with pipelined frames that arrive
    together, so the in-memory rung runs the same batched answer path as
    the TCP rung and their difference is sockets, reactor and process
    boundary only. (``transport_pair`` + ``serve_transport`` would deliver
    frame by frame through ``handle_frame`` — the unbatched path.)
    """

    def __init__(self, session):
        self.session = session
        self._outbox: List[bytes] = []
        self._inbox: deque = deque()
        self.bytes_sent = 0
        self.bytes_received = 0

    def send_frame(self, payload: bytes) -> None:
        self._outbox.append(payload)
        self.bytes_sent += len(payload)

    def recv_frame(self) -> bytes:
        if not self._inbox:
            burst, self._outbox = self._outbox, []
            self._inbox.extend(self.session.handle_frames(burst))
        reply = self._inbox.popleft()
        self.bytes_received += len(reply)
        return reply

    def close(self) -> None:
        self.session.close()


def open_loopback_client(servers: Sequence[ZltpServer], mode: str,
                         rng: np.random.Generator):
    """An in-memory client over one fresh session per logical server.

    Returns ``(client, sessions)``; the sessions are past the hello, so the
    ladder can also call ``handle_frames`` on them directly.
    """
    transports = [LoopbackTransport(server.create_session())
                  for server in servers]
    client = connect_client(transports, supported_modes=[mode], rng=rng)
    return client, [transport.session for transport in transports]


def framed_bytes(payload: bytes) -> int:
    """Wire size of one message payload once framed."""
    client_end, _server_end = transport_pair()
    client_end.send_frame(payload)
    return client_end.bytes_sent


def backend_pair(workload: Workload, database: BlobDatabase,
                 rng: np.random.Generator):
    """The registry's server half (party 0) and client half of the mode,
    wired by the server's own hello/set-up payloads."""
    server = create_server(workload.mode, database, party=0,
                           options=server_options(workload))
    client = create_client(workload.mode, database.domain_bits,
                           database.blob_size, server.hello_params(),
                           server.setup(), rng=rng)
    return server, client


def lwe_core(database: BlobDatabase, rng: np.random.Generator):
    """``crypto.lwe`` driven directly: ``(server, client, setup_seconds)``
    over the database's byte matrix, hint included in the set-up time."""
    start = time.perf_counter()
    server = LwePirServer(database.as_byte_matrix().astype(np.uint64))
    hint = server.hint()
    setup_seconds = time.perf_counter() - start
    return server, LwePirClient(server.a_matrix, hint, rng=rng), setup_seconds
