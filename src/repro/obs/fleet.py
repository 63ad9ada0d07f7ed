"""The stats session, its client, and one merged view of the fleet.

A serving process can run a stats listener (``lightweb serve
--stats-port``): a reactor over :class:`StatsSession`, a deliberately
tiny sans-IO HTTP/1.0 responder beside the ZLTP ports (the ZLTP wire
carries only fixed-size frames, so stats ride a separate listener). This
module holds the session; the reactor is composed with it where a port
is served, since nothing under ``repro.obs`` imports ``repro.core``.
It serves three paths, all named here: :data:`METRICS_PATH` (text
exposition), :data:`METRICS_JSON_PATH` (a mergeable metrics snapshot)
and :data:`TRACES_PATH` (the flight recorder). :func:`http_get` is its
client, behind ``lightweb stats``, ``lightweb trace`` and ``lightweb
top``.

The directory knows every live endpoint. This module closes the loop:
resolve the fleet, scrape every sidecar concurrently with per-server
timeouts, and fold the snapshots into one fleet view with
:func:`~repro.obs.metrics.merge_into`, each relabelled with its
``server`` id.

Unreachable servers are first-class results, not exceptions: a fleet
scrape returns a ``DOWN`` row for a dead sidecar, or for one whose
metrics fail :func:`~repro.obs.metrics.check_snapshot`, and merges
whatever the rest answered. Observability of a fleet must not have the
fleet's availability as a prerequisite.

Zero-leakage note: everything scraped here is what the sidecars already
expose — aggregate counters and gauges under a-priori label sets, plus
the fixed ``server=<id>`` relabel stamped at merge time. Server ids and
stats ports are deployment topology from announce records, the same
public control-plane metadata clients resolve against.
"""

from __future__ import annotations

import json
import socket
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.errors import ReproError, TransportError
from repro.obs.logs import get_logger
from repro.obs.metrics import (
    check_snapshot,
    merge_into,
    relabel_snapshot,
    render_snapshot_text,
)

_RECV_CHUNK = 65536

#: Longest request head the sidecar buffers while waiting for the
#: request line's CRLF; a client that sends more is cut off.
MAX_REQUEST_HEAD = 8192

#: Seconds a stats client may stay silent before the reactor reaps it.
STATS_IDLE_TIMEOUT = 5.0

#: The sidecar's paths: text exposition, JSON snapshot, flight recorder.
METRICS_PATH = "/metrics"
METRICS_JSON_PATH = "/metrics.json"
TRACES_PATH = "/debug/traces.json"

#: Announce-record attribute naming the endpoint's stats sidecar port.
STATS_PORT_ATTR = "stats_port"

_log = get_logger(__name__)


class StatsSession:
    """One HTTP/1.0 request and its response, sans-IO, then close.

    ``GET /metrics.json`` (or any path ending in ``.json``) returns the
    snapshot as JSON; ``GET /debug/traces.json`` returns the flight
    recorder's retained trace trees (when a ``traces`` callable was
    given); every other path returns the Prometheus-style text
    exposition. A request line must arrive within
    :data:`MAX_REQUEST_HEAD` bytes, or the connection is closed. The
    payload comes from a caller-supplied zero-argument ``snapshot``
    callable, so the same session fronts a single ZLTP server or a whole
    deployment aggregate.

    Hand-rolled on purpose: no routing, no keep-alive, no request body —
    just enough HTTP for ``curl`` and ``lightweb stats``. It has the
    :class:`~repro.core.zltp.server.ZltpServerSession` byte contract, so
    the reactor that serves ZLTP serves it too (``serve_stats`` in
    :mod:`repro.cli.serve`).
    """

    def __init__(self, snapshot: Callable[[], Dict[str, Any]],
                 traces: Optional[Callable[[], Dict[str, Any]]] = None):
        self._snapshot = snapshot
        self._traces = traces
        self._head = bytearray()
        self.closed = False

    def receive(self, data: bytes) -> bytes:
        """Buffer the request head; once its line is in, answer and close."""
        if self.closed:
            return b""
        self._head += data
        if b"\r\n" not in self._head:
            if len(self._head) > MAX_REQUEST_HEAD:
                # No request line within the cap: drop the client.
                _log.debug("stats request head over the cap")
                self.close()
            return b""
        self.close()
        request_line = self._head.split(b"\r\n", 1)[0].decode("latin-1")
        parts = request_line.split()
        path = parts[1] if len(parts) >= 2 else "/"
        # Route on the path component only; /metrics.json?pretty=1 is
        # still a JSON request.
        path = path.split("?", 1)[0]
        status = "200 OK"
        try:
            if path == TRACES_PATH:
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
        return header + body

    def end_of_stream(self) -> bytes:
        """Hung up or went idle before a request line: close, send nothing."""
        self.close()
        return b""

    expire = end_of_stream

    def close(self) -> None:
        self.closed = True

    def _render_text(self) -> str:
        snap = self._snapshot()
        lines = []
        for key, value in snap.items():
            if key == "metrics":
                continue
            lines.append(f"# {key}: {json.dumps(value)}")
        text = render_snapshot_text(snap.get("metrics", {}))
        return "\n".join(lines) + ("\n" if lines else "") + text


def http_get(host: str, port: int, path: str,
             timeout: Optional[float] = 10.0) -> str:
    """GET one path from a stats sidecar; return the response body.

    Speaks exactly the HTTP/1.0 subset :class:`StatsSession` serves. The status line is parsed and enforced — a
    sidecar's 500 (a raising snapshot) must surface as an error, never
    be mistaken for a valid exposition.

    Raises:
        TransportError: on connection failure, a malformed response, or
            a non-200 status.
    """
    try:
        with socket.create_connection((host, port), timeout=timeout) as sock:
            sock.settimeout(timeout)
            sock.sendall(
                f"GET {path} HTTP/1.0\r\nHost: {host}\r\n\r\n".encode("latin-1")
            )
            data = b""
            while True:
                chunk = sock.recv(_RECV_CHUNK)
                if not chunk:
                    break
                data += chunk
    except OSError as exc:
        raise TransportError(
            f"could not fetch {path} from {host}:{port}: {exc}") from exc
    head, sep, body = data.partition(b"\r\n\r\n")
    status_line = head.split(b"\r\n", 1)[0].decode("latin-1", errors="replace")
    parts = status_line.split()
    if not sep or len(parts) < 2 or not parts[0].startswith("HTTP/"):
        raise TransportError(
            f"malformed response from {host}:{port}: {status_line!r}")
    try:
        status = int(parts[1])
    except ValueError as exc:
        raise TransportError(
            f"malformed status line from {host}:{port}: "
            f"{status_line!r}") from exc
    if status != 200:
        raise TransportError(
            f"{host}:{port}{path} answered {status_line.split(' ', 1)[1]}")
    return body.decode("utf-8", errors="replace")


@dataclass(frozen=True)
class ScrapeTarget:
    """One stats sidecar to scrape.

    Attributes:
        server_id: display identity (one sidecar may front several
            logical listeners; the first announced id names it).
        host / port: where the sidecar listens.
        listeners: every announced server id sharing this sidecar.
    """

    server_id: str
    host: str
    port: int
    listeners: tuple = ()


def targets_from_records(records: Sequence[Any]) -> List[ScrapeTarget]:
    """Scrape targets from announce records, one per distinct sidecar.

    A deployment announces one record per listener (code/data × party)
    but runs a single stats sidecar, so records sharing
    ``attrs["stats_port"]`` on the same host collapse to one target.
    Records without a stats port (a deployment run without
    ``--stats-port``) are skipped — they have nothing to scrape.
    """
    by_addr: Dict[tuple, List[Any]] = {}
    order: List[tuple] = []
    for record in records:
        port = record.attrs.get(STATS_PORT_ATTR)
        if port is None:
            continue
        addr = (record.host, int(port))
        if addr not in by_addr:
            by_addr[addr] = []
            order.append(addr)
        by_addr[addr].append(record)
    targets = []
    for addr in order:
        group = sorted(by_addr[addr], key=lambda r: r.server_id)
        targets.append(ScrapeTarget(
            server_id=group[0].server_id, host=addr[0], port=addr[1],
            listeners=tuple(r.server_id for r in group)))
    return targets


@dataclass
class ServerScrape:
    """One target's scrape outcome: a stats snapshot, or why not.

    Attributes:
        target: the sidecar scraped.
        stats: the decoded ``/metrics.json`` snapshot (None when down).
        error: the failure description (None when up).
    """

    target: ScrapeTarget
    stats: Optional[Dict[str, Any]] = None
    error: Optional[str] = None

    @property
    def up(self) -> bool:
        return self.stats is not None

    @property
    def metrics(self) -> Dict[str, Any]:
        """The scrape's mergeable metrics snapshot ({} when down)."""
        if self.stats is None:
            return {}
        return self.stats.get("metrics", {})


@dataclass
class FleetSnapshot:
    """A whole fleet's scrape: per-server outcomes plus the merged view.

    Attributes:
        scrapes: one entry per target, in target order (``DOWN`` servers
            included, with their error).
        merged: every reachable server's metrics folded together, each
            series stamped ``server=<id>`` before merging so the fleet
            total still breaks down by origin.
    """

    scrapes: List[ServerScrape] = field(default_factory=list)
    merged: Dict[str, Any] = field(default_factory=dict)

    @property
    def up_count(self) -> int:
        return sum(1 for scrape in self.scrapes if scrape.up)

    @property
    def down_count(self) -> int:
        return len(self.scrapes) - self.up_count

    def as_dict(self) -> Dict[str, Any]:
        """JSON-ready form (what ``lightweb top --json`` prints)."""
        return {
            "servers": [
                {
                    "server_id": scrape.target.server_id,
                    "host": scrape.target.host,
                    "port": scrape.target.port,
                    "listeners": list(scrape.target.listeners),
                    "up": scrape.up,
                    "error": scrape.error,
                    "stats": scrape.stats,
                }
                for scrape in self.scrapes
            ],
            "merged": self.merged,
        }


def scrape_server(target: ScrapeTarget,
                  timeout: Optional[float] = 2.0) -> ServerScrape:
    """Scrape one sidecar; a failure, or ``metrics`` out of format
    (:func:`~repro.obs.metrics.check_snapshot`), becomes ``DOWN``."""
    try:
        body = http_get(target.host, target.port, METRICS_JSON_PATH,
                        timeout=timeout)
        stats = json.loads(body)
        if not isinstance(stats, dict):
            raise TransportError(
                f"{target.host}:{target.port} returned non-object stats")
        check_snapshot(stats.get("metrics", {}))
    except (ReproError, json.JSONDecodeError) as exc:
        return ServerScrape(target=target, error=str(exc))
    return ServerScrape(target=target, stats=stats)


def scrape_fleet(targets: Sequence[ScrapeTarget],
                 timeout: Optional[float] = 2.0) -> FleetSnapshot:
    """Scrape every target concurrently and merge what answered.

    One thread per target (a fleet scrape is a handful of sockets, and
    the per-server timeout must not serialise: a dead server costs one
    timeout, not one per position in line).
    """
    fleet = FleetSnapshot()
    if not targets:
        return fleet
    with ThreadPoolExecutor(max_workers=len(targets),
                            thread_name_prefix="fleet-scrape") as pool:
        fleet.scrapes = list(pool.map(
            lambda target: scrape_server(target, timeout=timeout), targets))
    for scrape in fleet.scrapes:
        if scrape.up:
            merge_into(fleet.merged,
                       relabel_snapshot(scrape.metrics,
                                        server=scrape.target.server_id))
    return fleet


def _seconds(value: float) -> str:
    """Three decimals, or three significant digits below a millisecond,
    so a server that did sub-millisecond scans never reads 0.000."""
    return f"{value:.3f}" if value == 0 or value >= 1e-3 else f"{value:.3g}"


def render_fleet(fleet: FleetSnapshot, metrics_text: bool = False) -> str:
    """Human-readable fleet summary: per-server rows, then fleet totals.

    Each row reads its server's own scrape: sessions opened, GETs served
    and SCAN-S, the answer seconds summed over the server's modes
    (``stats["modes"][*]["scan_seconds"]``). The footer totals the rows.

    Args:
        fleet: the scrape to render.
        metrics_text: also append the merged snapshot's full
            Prometheus-style exposition.
    """
    lines: List[str] = []
    header = (f"{'SERVER':<36} {'STATE':<6} {'SESSIONS':>8} "
              f"{'GETS':>8} {'SCAN-S':>9}")
    lines.append(header)
    total_gets = 0
    total_scan_s = 0.0
    for scrape in fleet.scrapes:
        target = scrape.target
        label = f"{target.server_id} ({target.host}:{target.port})"
        if not scrape.up:
            lines.append(f"{label:<36} {'DOWN':<6} {'-':>8} {'-':>8} "
                         f"{'-':>9}  {scrape.error}")
            continue
        stats = scrape.stats or {}
        gets = stats.get("gets_served", 0)
        scan_s = sum(float(mode.get("scan_seconds", 0.0))
                     for mode in stats.get("modes", {}).values())
        total_gets += gets
        total_scan_s += scan_s
        lines.append(
            f"{label:<36} {'UP':<6} "
            f"{stats.get('sessions_opened', 0):>8} "
            f"{gets:>8} {_seconds(scan_s):>9}")
    lines.append("")
    lines.append(
        f"fleet: {fleet.up_count} up, {fleet.down_count} down; "
        f"gets {total_gets}, scan seconds {_seconds(total_scan_s)}")
    if metrics_text:
        lines.append("")
        lines.append(render_snapshot_text(fleet.merged).rstrip("\n"))
    return "\n".join(lines)


__all__ = [
    "MAX_REQUEST_HEAD",
    "METRICS_PATH",
    "METRICS_JSON_PATH",
    "TRACES_PATH",
    "STATS_PORT_ATTR",
    "STATS_IDLE_TIMEOUT",
    "StatsSession",
    "http_get",
    "ScrapeTarget",
    "targets_from_records",
    "ServerScrape",
    "FleetSnapshot",
    "scrape_server",
    "scrape_fleet",
    "render_fleet",
]
