"""Server discovery + capability routing: resolved, self-healing endpoints.

The paper's deployment story (§5) assumes clients somehow know which
servers hold which shards in which modes. Fixed port lists could
neither grow nor heal a deployment, so this module makes that knowledge
a *directory*:

* Servers publish signed :class:`AnnounceRecord`\\ s — (universe, session
  kind, party, modes, shard prefix range, per-mode
  :class:`~repro.core.backend.BackendCost`, current load derived from
  :class:`~repro.core.backend.RequestStats`) — to a directory, and
  re-announce periodically (:class:`Announcer`) so records carry fresh
  load and expire by TTL when a server dies silently.
* Clients resolve a :class:`CapabilityQuery` ("pir2, data sessions,
  party 1") into a ranked candidate list and build a self-healing
  :class:`~repro.core.resilience.EndpointPool` from it
  (:func:`resolved_pool`): when every pooled endpoint is dead the pool
  *re-resolves* against the directory instead of giving up, so a
  replacement server announced after the client connected still heals
  the session — discovery, not flags, is the fallback path.
* The directory itself is pluggable: :class:`InProcessDirectory` for
  tests and embedding, :class:`DirectoryServer`/:class:`DirectoryClient`
  for real TCP deployments, and :func:`static_directory` to pre-populate
  a local directory with fixed endpoints (benchmark and test harnesses
  that start their own listeners).
* :class:`CachingResolver` keeps the last successful answer per query,
  so a dead *directory* degrades gracefully: resolves fall back to
  cached records within a TTL-grace window instead of failing.

Zero-leakage notes (also in DESIGN.md):

1. Discovery is **control plane**. Announce records describe server
   topology — universes, modes, shard placement, aggregate load — all
   public metadata an on-path observer of the data plane learns anyway.
   No client secret ever enters a record or a query.
2. The *browsing* client never issues prefix-scoped queries: it resolves
   by (universe, kind, mode, party) and the sharded front-end fans out
   server-side, so the directory cannot learn which shard a client is
   reading. Prefix-range queries exist for server-side placement tooling
   only.
3. Records are MACed with a deployment secret (`blake2b` keyed hash,
   verified with ``hmac.compare_digest``), so a compromised directory
   cannot forge endpoints and redirect clients to a malicious server;
   clients re-verify every record they receive.
4. Directory frames are padded to a fixed size
   (:data:`DIRECTORY_FRAME_BYTES`), mirroring the data plane's
   fixed-size-frame invariant — message length reveals nothing about
   directory contents.
"""

from __future__ import annotations

import hashlib
import hmac
import json
import socket
import struct
import threading
import time
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core import backend as backend_registry
from repro.core.resilience import EndpointPool
from repro.core.zltp.eventloop import Reactor
from repro.core.zltp.wire import HEADER_BYTES, FrameDecoder, encode_frame
from repro.errors import DiscoveryError, TransportError
from repro.obs.logs import get_logger
from repro.obs.trace import span

_log = get_logger(__name__)

#: Development default; real deployments pass their own secret.
DEFAULT_SECRET = b"lightweb-dev-directory"

#: Every directory request and response is padded to exactly this many
#: payload bytes (control-plane twin of the data plane's fixed-size-frame
#: invariant; see PROTOCOL.md).
DIRECTORY_FRAME_BYTES = 16384

#: Seconds a directory client may stay silent before the reactor reaps it.
DIRECTORY_IDLE_TIMEOUT = 5.0

_RECV_CHUNK = 65536


def _mac_key(secret: bytes) -> bytes:
    """Derive the record-MAC key from the deployment secret."""
    return hashlib.blake2b(secret, digest_size=32).digest()


# --------------------------------------------------------------------------
# Announce records
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class AnnounceRecord:
    """One server endpoint's capability announcement.

    Attributes:
        server_id: stable identity of the listener (survives re-announce;
            a re-announce under the same id replaces the old record).
        host / port: where to dial the ZLTP listener.
        universe: the universe this listener serves.
        kind: session kind, ``"code"`` or ``"data"``.
        party: the endpoint's role in a multi-endpoint mode (0-based).
        modes: canonical mode names served, in the server's preference
            order (derived from the backend registry).
        prefix_bits: width of the server-side shard prefix space
            (0 = unsharded; the listener answers over the whole domain
            either way — the front-end fans out internally).
        prefix_lo / prefix_hi: the half-open shard prefix range this
            deployment's data servers hold, for placement tooling.
        cost: per-mode cost parameters
            (:meth:`~repro.core.backend.BackendCost` as dicts), derived
            from the registry at announce time.
        load: current serving load — aggregate, public counters only
            (``sessions_active``, ``queries``, ``scan_seconds``).
        attrs: free-form public universe metadata clients need before the
            hello (e.g. ``fetch_budget``), so a discovered client needs
            zero out-of-band configuration.
        generation: announce counter; newer generations replace older.
        ttl_seconds: how long the record stays resolvable without a
            re-announce; ``None`` never expires (:func:`static_directory`).
        signature: keyed-MAC over the canonical payload (hex).
    """

    server_id: str
    host: str
    port: int
    universe: str
    kind: str
    party: int = 0
    modes: Tuple[str, ...] = ()
    prefix_bits: int = 0
    prefix_lo: int = 0
    prefix_hi: int = 0
    cost: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    load: Dict[str, float] = field(default_factory=dict)
    attrs: Dict[str, Any] = field(default_factory=dict)
    generation: int = 0
    ttl_seconds: Optional[float] = None
    signature: str = ""

    def payload_dict(self) -> Dict[str, Any]:
        """The signed portion of the record (everything but the MAC)."""
        return {
            "server_id": self.server_id,
            "host": self.host,
            "port": self.port,
            "universe": self.universe,
            "kind": self.kind,
            "party": self.party,
            "modes": list(self.modes),
            "prefix_bits": self.prefix_bits,
            "prefix_lo": self.prefix_lo,
            "prefix_hi": self.prefix_hi,
            "cost": self.cost,
            "load": self.load,
            "attrs": self.attrs,
            "generation": self.generation,
            "ttl_seconds": self.ttl_seconds,
        }

    def _canonical(self) -> bytes:
        return json.dumps(self.payload_dict(), sort_keys=True,
                          separators=(",", ":")).encode("utf-8")

    def sign(self, secret: bytes = DEFAULT_SECRET) -> "AnnounceRecord":
        """A copy of this record MACed under the deployment secret."""
        mac = hashlib.blake2b(self._canonical(), key=_mac_key(secret),
                              digest_size=16).hexdigest()
        return replace(self, signature=mac)

    def verify(self, secret: bytes = DEFAULT_SECRET) -> bool:
        """Whether the signature matches the payload under ``secret``."""
        expected = hashlib.blake2b(self._canonical(), key=_mac_key(secret),
                                   digest_size=16).hexdigest()
        return hmac.compare_digest(expected, self.signature)

    def covers_prefix(self, prefix: int) -> bool:
        """Whether this record's shard range contains ``prefix``."""
        if self.prefix_bits == 0:
            return True
        return self.prefix_lo <= prefix < self.prefix_hi

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready form, signature included."""
        data = self.payload_dict()
        data["signature"] = self.signature
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "AnnounceRecord":
        """Inverse of :meth:`to_dict`.

        Raises:
            DiscoveryError: on a structurally invalid record.
        """
        try:
            return cls(
                server_id=str(data["server_id"]),
                host=str(data["host"]),
                port=int(data["port"]),
                universe=str(data["universe"]),
                kind=str(data["kind"]),
                party=int(data.get("party", 0)),
                modes=tuple(data.get("modes", ())),
                prefix_bits=int(data.get("prefix_bits", 0)),
                prefix_lo=int(data.get("prefix_lo", 0)),
                prefix_hi=int(data.get("prefix_hi", 0)),
                cost=dict(data.get("cost", {})),
                load=dict(data.get("load", {})),
                attrs=dict(data.get("attrs", {})),
                generation=int(data.get("generation", 0)),
                ttl_seconds=(None if data.get("ttl_seconds") is None
                             else float(data["ttl_seconds"])),
                signature=str(data.get("signature", "")),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise DiscoveryError(f"malformed announce record: {exc}") from exc


# --------------------------------------------------------------------------
# Capability queries and ranking
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class CapabilityQuery:
    """What a client needs from the directory.

    All fields but ``universe`` and ``kind`` are optional filters; a
    ``None`` field matches every record. ``prefix`` is for server-side
    placement tooling only — the browsing client never scopes a query to
    a shard (see the module docstring's leakage notes).
    """

    universe: str
    kind: str
    mode: Optional[str] = None
    party: Optional[int] = None
    prefix: Optional[int] = None

    def matches(self, record: AnnounceRecord) -> bool:
        """Whether ``record`` satisfies this query."""
        if record.universe != self.universe or record.kind != self.kind:
            return False
        if self.mode is not None and self.mode not in record.modes:
            return False
        if self.party is not None and record.party != self.party:
            return False
        if self.prefix is not None and not record.covers_prefix(self.prefix):
            return False
        return True

    def key(self) -> Tuple:
        """Hashable cache key for resolvers."""
        return (self.universe, self.kind, self.mode, self.party, self.prefix)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready form (the directory wire query)."""
        return {"universe": self.universe, "kind": self.kind,
                "mode": self.mode, "party": self.party,
                "prefix": self.prefix}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "CapabilityQuery":
        try:
            return cls(universe=str(data["universe"]), kind=str(data["kind"]),
                       mode=data.get("mode"), party=data.get("party"),
                       prefix=data.get("prefix"))
        except KeyError as exc:
            raise DiscoveryError(f"malformed capability query: {exc}") from exc


def rank_records(records: Sequence[AnnounceRecord]) -> List[AnnounceRecord]:
    """Least-loaded first, deterministic tie-break on server id.

    Load is the announced aggregate — public counters, refreshed on
    every re-announce, so a hot server drifts to the back of every pool
    built after its next announce. Keys, most urgent first:

    1. ``admission_queue_depth`` — queries admitted and waiting behind
       the scan *right now*. A server whose gate is backed up is the one
       actively shedding, so new sessions route around it first.
    2. ``sessions_active`` — live session count.
    3. ``scan_seconds`` — cumulative answer time.

    Servers without an admission gate announce no queue depth and sort
    as depth 0 — the pre-gate behaviour, unchanged.
    """
    return sorted(records, key=lambda r: (
        r.load.get("admission_queue_depth", 0.0),
        r.load.get("sessions_active", 0.0),
        r.load.get("scan_seconds", 0.0),
        r.server_id,
    ))


# --------------------------------------------------------------------------
# Directories
# --------------------------------------------------------------------------


class InProcessDirectory:
    """The reference directory: a TTL'd, signature-checked record table.

    Thread-safe; the same instance backs embedded deployments, the TCP
    :class:`DirectoryServer`, and :func:`static_directory`.
    """

    def __init__(self, secret: bytes = DEFAULT_SECRET,
                 clock: Callable[[], float] = time.monotonic):
        self._secret = secret
        self._clock = clock
        self._lock = threading.Lock()
        #: server_id -> (record, expires_at or None)
        self._records: Dict[str, Tuple[AnnounceRecord, Optional[float]]] = {}  # guarded-by: _lock
        self.announces = 0  # guarded-by: _lock
        self.expiries = 0  # guarded-by: _lock

    def announce(self, record: AnnounceRecord) -> None:
        """Insert or refresh a record.

        Raises:
            DiscoveryError: on a missing/forged signature or a stale
                generation (an old announcer racing a newer one).
        """
        if not record.verify(self._secret):
            raise DiscoveryError(
                f"announce for {record.server_id!r} failed signature check")
        expires = (None if record.ttl_seconds is None
                   else self._clock() + record.ttl_seconds)
        with self._lock:
            existing = self._records.get(record.server_id)
            if existing is not None and \
                    existing[0].generation > record.generation:
                raise DiscoveryError(
                    f"announce for {record.server_id!r} has stale generation "
                    f"{record.generation} < {existing[0].generation}")
            self._records[record.server_id] = (record, expires)
            self.announces += 1

    def withdraw(self, server_id: str) -> bool:
        """Drop a record; returns whether it existed."""
        with self._lock:
            return self._records.pop(server_id, None) is not None

    def _prune_locked(self) -> int:
        """Drop expired records; returns how many (caller holds _lock)."""
        now = self._clock()
        dead = [sid for sid, (_r, exp) in self._records.items()
                if exp is not None and exp <= now]
        for sid in dead:
            del self._records[sid]
        return len(dead)

    def resolve(self, query: CapabilityQuery) -> List[AnnounceRecord]:
        """Live records matching ``query``, least-loaded first."""
        with self._lock:
            self.expiries += self._prune_locked()
            matched = [record for record, _exp in self._records.values()
                       if query.matches(record)]
        return rank_records(matched)

    def records(self) -> List[AnnounceRecord]:
        """Every live record (diagnostics and tests)."""
        with self._lock:
            self.expiries += self._prune_locked()
            return [record for record, _exp in self._records.values()]


class DirectorySession:
    """One request frame in, one reply frame out, then close — sans-IO.

    It has the :class:`~repro.core.zltp.server.ZltpServerSession` byte
    contract, so :class:`DirectoryServer` is a reactor over it and the
    data plane's framing is reused verbatim. Every request frame declares
    exactly :data:`DIRECTORY_FRAME_BYTES` (PROTOCOL.md); any other length
    is refused at the header, before the body is buffered. Operations:
    ``announce`` (a signed record), ``resolve`` (a capability query),
    ``withdraw`` (a server id), ``records`` (every live record). A
    request the directory cannot act on gets ``{"ok": false, "error"}``;
    a peer that hangs up or goes idle first gets nothing.
    """

    def __init__(self, directory: InProcessDirectory):
        self.directory = directory
        self._buffer = bytearray()
        self.closed = False

    def receive(self, data: bytes) -> bytes:
        """Buffer bytes until the request frame is whole; then answer."""
        if self.closed:
            return b""
        self._buffer += data
        if len(self._buffer) < HEADER_BYTES:
            return b""
        (length,) = struct.unpack_from("<I", self._buffer)
        if length != DIRECTORY_FRAME_BYTES:
            return self._reply({
                "ok": False, "error": f"directory frame of {length} bytes; "
                f"every frame is {DIRECTORY_FRAME_BYTES}"})
        if len(self._buffer) < HEADER_BYTES + length:
            return b""
        try:
            reply = self._dispatch(_decode_directory_frame(
                bytes(self._buffer[HEADER_BYTES:HEADER_BYTES + length])))
        except Exception as exc:
            # Everything a request carries is the client's, so whatever
            # it breaks is answered (cut to fit a frame), not logged loud.
            _log.debug("directory request refused", exc_info=True)
            reply = {"ok": False, "error": str(exc)[:1024]}
        return self._reply(reply)

    def end_of_stream(self) -> bytes:
        """Hung up or went idle before a whole frame: close, send nothing."""
        self.close()
        return b""

    expire = end_of_stream

    def close(self) -> None:
        self.closed = True

    def _reply(self, reply: Dict[str, Any]) -> bytes:
        self.close()
        try:
            return encode_frame(_encode_directory_frame(reply))
        except DiscoveryError:
            # Too many records for one frame: the directory's limit, not
            # the client's fault; the client sees a close.
            _log.exception("directory reply does not fit one frame")
            return b""

    def _dispatch(self, request: Dict[str, Any]) -> Dict[str, Any]:
        op = request.get("op")
        if op == "announce":
            self.directory.announce(
                AnnounceRecord.from_dict(request.get("record", {})))
            return {"ok": True}
        if op == "resolve":
            query = CapabilityQuery.from_dict(request.get("query", {}))
            records = self.directory.resolve(query)
            return {"ok": True,
                    "records": [record.to_dict() for record in records]}
        if op == "withdraw":
            found = self.directory.withdraw(str(request.get("server_id", "")))
            return {"ok": True, "found": found}
        if op == "records":
            # Fleet tooling ("lightweb top") wants every live endpoint,
            # unfiltered — the same public metadata resolve serves, just
            # without a capability query.
            return {"ok": True,
                    "records": [record.to_dict()
                                for record in self.directory.records()]}
        raise DiscoveryError(f"unknown directory op {op!r}")


class DirectoryServer(Reactor):
    """Serve an :class:`InProcessDirectory` over TCP: a reactor over
    :class:`DirectorySession`, so a silent client holds only its own
    connection, for at most :data:`DIRECTORY_IDLE_TIMEOUT` seconds."""

    def __init__(self, secret: bytes = DEFAULT_SECRET,
                 host: str = "127.0.0.1", port: int = 0,
                 directory: Optional[InProcessDirectory] = None):
        self.directory = directory if directory is not None \
            else InProcessDirectory(secret=secret)
        super().__init__(lambda: DirectorySession(self.directory), host,
                         port, DIRECTORY_IDLE_TIMEOUT)
        _log.info("directory listening", extra={
            "host": self.address[0], "port": self.address[1]})


def _encode_directory_frame(obj: Dict[str, Any]) -> bytes:
    """JSON + NUL padding to the fixed directory frame size."""
    payload = json.dumps(obj, sort_keys=True,
                         separators=(",", ":")).encode("utf-8")
    if len(payload) > DIRECTORY_FRAME_BYTES:
        raise DiscoveryError(
            f"directory message of {len(payload)} bytes exceeds the fixed "
            f"frame size {DIRECTORY_FRAME_BYTES}")
    return payload + b"\x00" * (DIRECTORY_FRAME_BYTES - len(payload))


def _decode_directory_frame(frame: bytes) -> Dict[str, Any]:
    """Inverse of :func:`_encode_directory_frame` (JSON never contains NUL)."""
    try:
        decoded = json.loads(frame.rstrip(b"\x00").decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DiscoveryError(f"malformed directory frame: {exc}") from exc
    if not isinstance(decoded, dict):
        raise DiscoveryError("directory frame must be a JSON object")
    return decoded


class DirectoryClient:
    """Talk to a :class:`DirectoryServer` over TCP, one dial per request.

    Connection failures surface as
    :class:`~repro.errors.TransportError` — the signal
    :class:`CachingResolver` turns into a cached-records fallback.
    Records returned by ``resolve`` are re-verified locally, so a
    compromised directory cannot inject forged endpoints.
    """

    def __init__(self, host: str, port: int,
                 secret: bytes = DEFAULT_SECRET,
                 timeout: float = 5.0):
        self.host = host
        self.port = port
        self.secret = secret
        self._timeout = timeout

    def _request(self, obj: Dict[str, Any]) -> Dict[str, Any]:
        try:
            with socket.create_connection((self.host, self.port),
                                          timeout=self._timeout) as sock:
                sock.sendall(encode_frame(_encode_directory_frame(obj)))
                decoder = FrameDecoder()
                frames: List[bytes] = []
                while not frames:
                    chunk = sock.recv(_RECV_CHUNK)
                    if not chunk:
                        raise TransportError(
                            "directory closed before replying")
                    frames = decoder.feed(chunk)
        except OSError as exc:
            raise TransportError(
                f"directory {self.host}:{self.port} unreachable: {exc}"
            ) from exc
        reply = _decode_directory_frame(frames[0])
        if not reply.get("ok", False):
            raise DiscoveryError(
                f"directory rejected request: {reply.get('error', '?')}")
        return reply

    def announce(self, record: AnnounceRecord) -> None:
        """Publish one signed record."""
        self._request({"op": "announce", "record": record.to_dict()})

    def withdraw(self, server_id: str) -> bool:
        """Drop a record by id; returns whether the directory had it."""
        return bool(self._request({"op": "withdraw",
                                   "server_id": server_id}).get("found"))

    def resolve(self, query: CapabilityQuery) -> List[AnnounceRecord]:
        """Matching records, signature-verified locally, ranked."""
        reply = self._request({"op": "resolve", "query": query.to_dict()})
        return rank_records(self._verified(reply))

    def records(self) -> List[AnnounceRecord]:
        """Every live record, signature-verified locally, ranked.

        The fleet-scraping entry point: ``lightweb top`` asks for the
        whole directory and scrapes each endpoint's stats sidecar.
        """
        reply = self._request({"op": "records"})
        return rank_records(self._verified(reply))

    def _verified(self, reply: Dict[str, Any]) -> List[AnnounceRecord]:
        records = []
        for data in reply.get("records", []):
            record = AnnounceRecord.from_dict(data)
            if not record.verify(self.secret):
                raise DiscoveryError(
                    f"directory returned a forged record for "
                    f"{record.server_id!r}")
            records.append(record)
        return records


class CachingResolver:
    """Resolve through a directory, falling back to cached records.

    Every successful resolve is cached per query. When the directory is
    unreachable (:class:`~repro.errors.TransportError`), the last cached
    answer is served instead — within ``grace_seconds`` of when it was
    cached (``None`` = unlimited grace) — so a dead directory degrades
    resolution instead of killing it. Record TTLs still apply at the
    *directory*; the grace window is the client's own staleness bound.
    """

    def __init__(self, directory: Any, grace_seconds: Optional[float] = 300.0,
                 clock: Callable[[], float] = time.monotonic):
        self._directory = directory
        self._grace = grace_seconds
        self._clock = clock
        self._lock = threading.Lock()
        #: query key -> (records, cached_at)
        self._cache: Dict[Tuple, Tuple[List[AnnounceRecord], float]] = {}  # guarded-by: _lock
        self.cache_fallbacks = 0  # guarded-by: _lock

    def resolve(self, query: CapabilityQuery) -> List[AnnounceRecord]:
        """Resolve ``query``, preferring the live directory.

        Raises:
            TransportError: the directory is down and no cached answer
                is within the grace window.
        """
        # The span carries only public structural labels — never a shard
        # prefix (the browsing client does not issue prefix queries).
        with span("discovery.resolve", kind=query.kind,
                  mode=query.mode) as sp:
            try:
                records = self._directory.resolve(query)
                source = "directory"
            except TransportError as exc:
                records = self._cached(query)
                if records is None:
                    raise TransportError(
                        f"directory unreachable and no cached records for "
                        f"{query.key()}: {exc}") from exc
                source = "cache"
                with self._lock:
                    self.cache_fallbacks += 1
                _log.warning("directory down; using cached records", extra={
                    "kind": query.kind, "records": len(records)})
            else:
                with self._lock:
                    self._cache[query.key()] = (list(records), self._clock())
            sp.annotate(source=source, records=len(records))
        return records

    def _cached(self, query: CapabilityQuery) -> Optional[List[AnnounceRecord]]:
        with self._lock:
            entry = self._cache.get(query.key())
            if entry is None:
                return None
            records, cached_at = entry
            if self._grace is not None and \
                    self._clock() - cached_at > self._grace:
                return None
            return list(records)


# --------------------------------------------------------------------------
# The announcer (server side)
# --------------------------------------------------------------------------


class Announcer:
    """Periodically publish a deployment's records to a directory.

    ``records_fn`` is called on every tick so each announce carries a
    fresh load snapshot and a bumped generation. A directory outage is
    absorbed (counted, retried next tick), so servers keep serving while
    the directory heals.
    """

    def __init__(self, directory: Any,
                 records_fn: Callable[[], Sequence[AnnounceRecord]],
                 secret: bytes = DEFAULT_SECRET,
                 interval_seconds: float = 5.0,
                 name: str = "announcer"):
        self._directory = directory
        self._records_fn = records_fn
        self._secret = secret
        self._interval = interval_seconds
        self.name = name
        self._stopping = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._lock = threading.Lock()
        self._generation = 0  # guarded-by: _lock
        self.announced = 0  # guarded-by: _lock
        self.errors = 0  # guarded-by: _lock
        self._announced_ids: set = set()  # guarded-by: _lock

    def announce_now(self) -> int:
        """Publish every record once; returns how many landed."""
        with self._lock:
            self._generation += 1
            generation = self._generation
        landed = 0
        for record in self._records_fn():
            signed = replace(record, generation=generation).sign(self._secret)
            try:
                self._directory.announce(signed)
            except (TransportError, DiscoveryError) as exc:
                with self._lock:
                    self.errors += 1
                _log.warning("announce failed", extra={
                    "server_id": record.server_id, "error": str(exc)})
                continue
            landed += 1
            with self._lock:
                self.announced += 1
                self._announced_ids.add(record.server_id)
        return landed

    def start(self) -> "Announcer":
        """Announce immediately, then re-announce every interval."""
        self.announce_now()
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name=self.name)
        self._thread.start()
        return self

    def _run(self) -> None:
        while not self._stopping.wait(self._interval):
            self.announce_now()

    def stop(self, withdraw: bool = True, timeout: float = 5.0) -> None:
        """Stop re-announcing; optionally withdraw everything announced."""
        self._stopping.set()
        if self._thread is not None:
            self._thread.join(timeout)
            self._thread = None
        if withdraw:
            with self._lock:
                ids = sorted(self._announced_ids)
                self._announced_ids.clear()
            for server_id in ids:
                try:
                    self._directory.withdraw(server_id)
                except (TransportError, DiscoveryError):
                    pass


# --------------------------------------------------------------------------
# Client-side pool construction
# --------------------------------------------------------------------------


def dial_for_record(record: AnnounceRecord,
                    connect: Optional[Callable[[str, int], Any]] = None,
                    **connect_kwargs: Any) -> Callable[[], Any]:
    """A zero-argument dial for one announced endpoint."""
    if connect is None:
        from repro.core.zltp.sockets import connect_tcp
        connect = connect_tcp

    def dial() -> Any:
        return connect(record.host, record.port, **connect_kwargs)

    return dial


def resolved_pool(resolver: Any, query: CapabilityQuery,
                  connect: Optional[Callable[[str, int], Any]] = None,
                  name: Optional[str] = None,
                  **connect_kwargs: Any) -> EndpointPool:
    """Build a self-healing :class:`EndpointPool` from a capability query.

    The pool's candidates come from resolving ``query`` now; its
    ``refresh`` hook re-resolves the *same* query when every candidate is
    dead, so endpoints announced after the pool was built (a replacement
    server) transparently heal it — the discovery-native fallback path.

    Raises:
        DiscoveryError: when the initial resolve matches nothing.
    """
    records = resolver.resolve(query)
    if not records:
        raise DiscoveryError(
            f"no server matches capability {query.key()} — nothing announced "
            f"for this universe/kind/mode")
    pool_name = name if name is not None else \
        f"discovered:{query.universe}/{query.kind}" + \
        (f"/party{query.party}" if query.party is not None else "")

    def build_dials(found: Sequence[AnnounceRecord]) -> List[Callable[[], Any]]:
        return [dial_for_record(record, connect=connect, **connect_kwargs)
                for record in found]

    def refresh() -> List[Callable[[], Any]]:
        try:
            found = resolver.resolve(query)
        except TransportError:
            return []  # directory and cache both gone: pool reports its own error
        if not found:
            return []
        _log.info("pool re-resolved via directory", extra={
            "pool": pool_name, "candidates": len(found)})
        return build_dials(found)

    return EndpointPool(build_dials(records), name=pool_name, refresh=refresh)


# --------------------------------------------------------------------------
# Fixed endpoints -> a local directory
# --------------------------------------------------------------------------


def static_directory(host: str,
                     ports_by_kind: Dict[str, Sequence[int]],
                     universe: str = "main",
                     modes: Optional[Sequence[str]] = None,
                     attrs: Optional[Dict[str, Any]] = None,
                     secret: bytes = DEFAULT_SECRET) -> InProcessDirectory:
    """A local directory of never-expiring records for fixed endpoints.

    One primary record per (kind, party), party = index in the kind's
    port list — for harnesses that start their own listeners and want a
    browser or load generator to resolve them through the same path a
    real directory serves.
    """
    offered = tuple(backend_registry.resolve_mode(m) for m in modes) \
        if modes is not None else tuple(backend_registry.registered_modes())
    cost = backend_registry.capability_metadata(offered)
    directory = InProcessDirectory(secret=secret)
    for kind, ports in ports_by_kind.items():
        for party, port in enumerate(ports):
            directory.announce(AnnounceRecord(
                server_id=f"static/{universe}/{kind}/{party}/primary0",
                host=host, port=port, universe=universe, kind=kind,
                party=party, modes=offered, cost=cost,
                attrs=dict(attrs or {}), ttl_seconds=None,
            ).sign(secret))
    return directory


__all__ = [
    "DEFAULT_SECRET",
    "DIRECTORY_FRAME_BYTES",
    "DIRECTORY_IDLE_TIMEOUT",
    "DirectorySession",
    "AnnounceRecord",
    "CapabilityQuery",
    "rank_records",
    "InProcessDirectory",
    "DirectoryServer",
    "DirectoryClient",
    "CachingResolver",
    "Announcer",
    "dial_for_record",
    "resolved_pool",
    "static_directory",
]
