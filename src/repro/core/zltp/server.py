"""The ZLTP server endpoint.

One :class:`ZltpServer` is a *logical* server for one universe shard: it
owns the blob database, announces the universe's blob geometry in its
ServerHello ("the server indicates to the client the size of the
fixed-length blobs it is serving", §2), and serves private-GETs in whichever
negotiated mode each session chose. In the paper's deployment a CDN runs two
such logical servers (the non-colluding pair) across many machines; here a
server whose pir2 mode has a ``prefix_bits`` option answers through a
:class:`~repro.pir.sharding.ShardedPartyServer`, which plays the
many-machines part.

Modes are looked up in the :mod:`repro.core.backend` registry — the server
has no per-mode code paths of its own, so a newly registered backend is
served without touching this module. Every answer call is accounted on a
shared :class:`~repro.core.backend.RequestStats` record, aggregated
per-mode on the server (:meth:`ZltpServer.stats_by_mode`).

:class:`ZltpServerSession` is the one protocol core: bytes in, reply bytes
out, with no sockets, clocks or threads. It owns the frame decoder and
decides every error reply, so the reactor is only a socket loop that moves
the bytes it read in one tick through :meth:`ZltpServer.tick`, and the
in-process link puts the same frames on the wire through
:meth:`ZltpServerSession.receive`, the tick of one session.
"""

from __future__ import annotations

import enum
import threading
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core import backend as backend_registry
from repro.core.backend import (
    RequestStats,
    ServerContext,
    negotiate,
    timed_answer_batch,
)
from repro.core.zltp import messages as msg
from repro.core.zltp.wire import FrameDecoder, encode_frame, encode_frames
from repro.crypto.lwe import LweParams
from repro.errors import (
    NegotiationError,
    ProtocolError,
    ReproError,
    TransportError,
)
from repro.obs.flight import FlightRecorder
from repro.obs.logs import get_logger
from repro.obs.metrics import metric
from repro.obs.trace import span
from repro.pir.database import BlobDatabase

_log = get_logger(__name__)


class _State(enum.Enum):
    AWAIT_HELLO = "await_hello"
    READY = "ready"
    CLOSED = "closed"


class ZltpServer:
    """A logical ZLTP server over one blob database.

    Attributes:
        database: the fixed-size-blob store being served.
        modes: canonical mode names served, in this server's preference
            order (default: every registered backend).
        party: this server's role in a multi-endpoint backend pair
            (0-based); only meaningful for modes with ``endpoints > 1``.
        salt: the universe's keyword-hash salt, announced to clients.
        probes: fixed probe count per keyword lookup (1 = plain hashing,
            >=2 = cuckoo).
        options: free-form per-backend server options, passed through to
            every mode's ``from_context`` (e.g. ``prefix_bits`` to serve
            pir2 through a sharded front-end).
        flight: the always-on :class:`~repro.obs.flight.FlightRecorder`
            that retains recent/slow/errored request trace trees (pass
            one to tune capacities or the slow threshold).
        admission: optional
            :class:`~repro.core.zltp.admission.AdmissionController`; when
            attached, GETs that would blow their deadline are shed with a
            fast ``ErrorMessage("overload")`` instead of queued behind a
            doomed scan. It rules on each tick's GET runs in arrival
            order (:meth:`tick`), so it sees every session of the tick.
    """

    def __init__(
        self,
        database: BlobDatabase,
        modes: Optional[List[str]] = None,
        party: int = 0,
        salt: bytes = b"",
        probes: int = 1,
        lwe_params: Optional[LweParams] = None,
        rng: Optional[np.random.Generator] = None,
        options: Optional[Dict[str, Any]] = None,
        flight: Optional[FlightRecorder] = None,
        admission: Optional[Any] = None,
    ):
        self.database = database
        offered = list(modes) if modes is not None \
            else backend_registry.registered_modes()
        # Canonicalise aliases and validate names early (raises
        # NegotiationError on an unknown mode).
        self.modes = [backend_registry.resolve_mode(mode) for mode in offered]
        self.party = party
        self.salt = salt
        self.probes = probes
        self.flight = flight if flight is not None else FlightRecorder()
        self.admission = admission
        self._lwe_params = lwe_params
        self._rng = rng
        self._options: Dict[str, Any] = dict(options or {})
        self._mode_servers: Dict[str, Any] = {}
        # Replica listeners serve one logical server from several reactor
        # threads, and stats scrapes read it from another, so the
        # counters are read-modify-written concurrently and need a lock.
        self._stats_lock = threading.Lock()
        self.sessions_opened = 0  # guarded-by: _stats_lock
        self.sessions_closed = 0  # guarded-by: _stats_lock
        #: Sessions whose peer hung up with a partial frame buffered.
        self.truncated_frames = 0  # guarded-by: _stats_lock
        #: Sessions closed by their listener's idle timeout.
        self.idle_reaped = 0  # guarded-by: _stats_lock
        self._stats_by_mode: Dict[str, RequestStats] = {}  # guarded-by: _stats_lock

    @property
    def sessions_active(self) -> int:
        """Sessions opened and not yet torn down.

        Transports must balance every :meth:`create_session` with a
        :meth:`ZltpServerSession.close` (the TCP servers do it in their
        connection-teardown paths), so this gauge reconciles to zero on
        a drained server.
        """
        with self._stats_lock:
            return self.sessions_opened - self.sessions_closed

    def _note_session_closed(self) -> None:
        with self._stats_lock:
            self.sessions_closed += 1

    def _note_truncated_frame(self) -> None:
        with self._stats_lock:
            self.truncated_frames += 1

    def _note_idle_reaped(self) -> None:
        with self._stats_lock:
            self.idle_reaped += 1

    @property
    def gets_served(self) -> int:
        """Total private-GETs answered, across every mode."""
        with self._stats_lock:
            return sum(stats.queries for stats in self._stats_by_mode.values())

    def stats_by_mode(self) -> Dict[str, RequestStats]:
        """Frozen snapshots of the serving stats for every mode that served."""
        with self._stats_lock:
            return {mode: stats.copy().freeze()
                    for mode, stats in self._stats_by_mode.items()}

    def capability_snapshot(self) -> Dict[str, Any]:
        """Public capability + load metadata for discovery announces.

        Everything here is what an announce record carries: the served
        modes with their registry-derived metadata, this server's party,
        the sharded front-end's prefix width (0 when unsharded), and an
        aggregate load snapshot — live sessions, total queries, total
        scan seconds. All of it is deployment topology and aggregate
        counters; nothing is per-client or per-fetch.
        """
        with self._stats_lock:
            active = self.sessions_opened - self.sessions_closed
            queries = sum(s.queries for s in self._stats_by_mode.values())
            scan_seconds = sum(s.scan_seconds
                               for s in self._stats_by_mode.values())
        load = {
            "sessions_active": float(active),
            "queries": float(queries),
            "scan_seconds": float(scan_seconds),
        }
        if self.admission is not None:
            # Instantaneous queue depth (and the shed counter) — the
            # saturation signal discovery ranking sorts on first, so new
            # sessions route around a server that is already shedding.
            load.update(self.admission.load_snapshot())
        return {
            "modes": list(self.modes),
            "party": self.party,
            "prefix_bits": int(self._options.get("prefix_bits", 0)),
            "cost": backend_registry.capability_metadata(self.modes),
            "load": load,
        }

    def stats_snapshot(self) -> Dict[str, Any]:
        """JSON-ready serving counters plus their metrics snapshot.

        This is what a listener's stats sidecar serves. Every number is
        this logical server's own, read once; ``metrics`` renders those
        same numbers as a snapshot built there (:func:`_stats_metrics`),
        so a neighbour in the same process never shows up in it.
        """
        with self._stats_lock:
            stats = {
                "sessions_opened": self.sessions_opened,
                "sessions_active": self.sessions_opened - self.sessions_closed,
                "truncated_frames": self.truncated_frames,
                "idle_reaped": self.idle_reaped,
                "gets_served": sum(s.queries
                                   for s in self._stats_by_mode.values()),
                "modes": {mode: s.as_dict() for mode, s
                          in sorted(self._stats_by_mode.items())},
            }
        if self.admission is not None:
            stats["admission"] = self.admission.snapshot()
        stats["metrics"] = _stats_metrics(stats)
        return stats

    def record_stats(self, mode: str, delta: RequestStats) -> None:
        """Fold one session's answer-call delta into the per-mode totals,
        the one place a served GET is counted."""
        with self._stats_lock:
            if mode not in self._stats_by_mode:
                self._stats_by_mode[mode] = RequestStats()
            self._stats_by_mode[mode].merge(delta)

    def mode_server(self, mode: str):
        """Get (building lazily) the server half of a mode.

        Modes that snapshot the database at build time (pir-lwe's matrix,
        enclave-oram's ORAM load — ``snapshots_database`` in the registry)
        are rebuilt when the database has changed since — otherwise a
        publisher re-push (§3.1) would be visible in ``pir2`` but stale in
        the other modes.
        """
        spec = backend_registry.get_backend(mode)
        cached = self._mode_servers.get(spec.name)
        if cached is not None:
            server, built_version = cached
            if not spec.snapshots_database or \
                    built_version == self.database.version:
                return server
        server = spec.build_server(self.database, ServerContext(
            party=self.party, lwe_params=self._lwe_params, rng=self._rng,
            options=dict(self._options),
        ))
        self._mode_servers[spec.name] = (server, self.database.version)
        return server

    def create_session(self) -> "ZltpServerSession":
        """Open a new protocol session."""
        with self._stats_lock:
            self.sessions_opened += 1
        return ZltpServerSession(self)

    def tick(self, reads: Sequence[Tuple["ZltpServerSession", bytes]]
             ) -> Iterator[Tuple[int, bytes]]:
        """Serve one listener tick: the chunks read from ready sessions,
        in arrival order.

        Every session first decodes its chunk and handles its frames up
        to its first run of GETs. The admission gate then rules on the
        tick's runs in arrival order, so each run's queue depth counts the
        runs admitted ahead of it. Last, each session's run is answered,
        or shed with one ``overload`` per GET, and the rest of its frames
        handled; its reply bytes are yielded as ``(index into reads,
        bytes)`` before the next run is answered, so the listener writes
        them first. :meth:`ZltpServerSession.receive` is the tick of one
        session.
        """
        staged = [session._read(data) for session, data in reads]
        verdicts = [self._admit(run) for _head, run, _rest in staged]
        served = 0
        try:
            for index, (session, _data) in enumerate(reads):
                replies = session._write(*staged[index], verdicts[index])
                served = index + 1
                yield index, replies
        finally:
            # A tick abandoned part-way still balances its admits: a
            # leaked one would hold the gate busy (and shedding) for good.
            for (_head, run, _rest), verdict in zip(staged[served:],
                                                    verdicts[served:]):
                if run and verdict is None and self.admission is not None:
                    self.admission.release(len(run))

    def _admit(self, run: List[msg.GetRequest]) -> Optional[str]:
        """The gate's ruling on one run: None answers it, a public detail
        string sheds it. The one place a GET is admitted."""
        if not run or self.admission is None:
            return None
        return self.admission.try_admit(len(run))


#: (RequestStats field, counter name, help) of each per-mode series.
_MODE_SERIES = (
    ("queries", "zltp_queries_total", "PIR queries answered, by backend mode"),
    ("bytes_up", "zltp_bytes_up_total",
     "Request payload bytes received, by mode"),
    ("bytes_down", "zltp_bytes_down_total",
     "Answer payload bytes sent, by mode"),
    ("scan_seconds", "zltp_scan_seconds_total",
     "Server-side answer wall time, by mode"),
    ("retries", "zltp_retries_total",
     "Shard scans retried while answering, by mode"),
)

#: (stats key, kind, name, help) of each unlabelled series.
_SERVER_SERIES = (
    ("sessions_active", "gauge", "zltp_active_sessions", "Live ZLTP sessions"),
    ("truncated_frames", "counter", "zltp_truncated_frames_total",
     "Connections that closed with a partial frame buffered"),
    ("idle_reaped", "counter", "zltp_idle_reaped_total",
     "Sessions closed by the idle timeout"),
)


def _stats_metrics(stats: Dict[str, Any]) -> Dict[str, Any]:
    """The metrics snapshot of one :meth:`ZltpServer.stats_snapshot`.

    Built at scrape time from the snapshot's own fields, so every series
    equals a number the server already holds: per-mode queries, bytes,
    answer seconds and retries (once a mode has answered), the live
    session gauge, truncated frames, idle reaps and, when a gate is
    attached, its admission tallies. Labels are public structure only (a
    wire mode name, a fixed outcome).
    """
    modes = stats["modes"]
    metrics = {
        name: metric("counter", help, [({"mode": mode}, counts[field])
                                       for mode, counts in modes.items()])
        for field, name, help in _MODE_SERIES if modes
    }
    for key, kind, name, help in _SERVER_SERIES:
        metrics[name] = metric(kind, help, [({}, stats[key])])
    gate = stats.get("admission")
    if gate is not None:
        metrics["admission_requests_total"] = metric(
            "counter", "Queries through the admission gate, by outcome",
            [({"outcome": outcome}, gate[outcome])
             for outcome in ("admitted", "shed")])
        metrics["admission_queue_depth"] = metric(
            "gauge", "Queries admitted and not yet finished",
            [({}, gate["queue_depth"])])
    return dict(sorted(metrics.items()))


class ZltpServerSession:
    """Per-connection protocol state machine.

    A byte-stream listener drives it through three calls, each returning
    the encoded frames to write back (possibly ``b""``):
    :meth:`receive` for every chunk read, :meth:`end_of_stream` when the
    peer hangs up, and :meth:`expire` when the listener's idle timeout
    fires. A transport that already delivers whole frames calls
    :meth:`handle_frames` instead. Once :attr:`closed` is true the
    listener drains what it was given and closes the connection.

    Attributes:
        stats: this session's own :class:`RequestStats` — the same deltas
            that are folded into the server's per-mode totals.
    """

    def __init__(self, server: ZltpServer):
        self._server = server
        self._decoder = FrameDecoder()
        self._state = _State.AWAIT_HELLO
        self._mode_name: Optional[str] = None
        self._mode = None
        self.stats = RequestStats()

    @property
    def closed(self) -> bool:
        """Whether the session has terminated."""
        return self._state is _State.CLOSED

    def _mark_closed(self) -> None:
        """Terminal-state transition; notifies the server exactly once."""
        if self._state is _State.CLOSED:
            return
        self._state = _State.CLOSED
        self._server._note_session_closed()

    def close(self) -> None:
        """Tear the session down (idempotent).

        Transports call this from their connection-teardown paths so a
        peer that vanishes mid-session — early EOF, a reset, a handler
        crash — still balances the server's session accounting; a
        session that already closed itself through the state machine is
        left as-is.
        """
        self._mark_closed()

    def receive(self, data: bytes) -> bytes:
        """Feed bytes read from the peer; return the encoded replies.

        The tick of one session (:meth:`ZltpServer.tick`): complete
        frames are handled as one burst, each run of GETs admitted and
        answered with one batched scan.
        """
        [(_index, replies)] = self._server.tick([(self, data)])
        return replies

    def _read(self, data: bytes
              ) -> Tuple[bytes, List[msg.GetRequest], List[bytes]]:
        """A tick's first phase: decode ``data`` and handle its frames up
        to the first run of GETs.

        Returns the encoded replies so far, the run and the frames after
        it. An oversized frame declaration cannot be resynchronised, so it
        gets a ``bad-frame`` reply and closes the session; so does any
        exception from the handler, as ``internal`` (logged once, since
        that one is a server bug).
        """
        if self._state is _State.CLOSED:
            return b"", [], []
        try:
            frames = self._decoder.feed(data)
        except TransportError as exc:
            return self._fail("bad-frame", str(exc)), [], []
        try:
            replies, run, rest = self._take_run(frames)
        except Exception as exc:
            return self._internal(exc), [], []
        return encode_frames(replies), run, rest

    def _write(self, head: bytes, run: List[msg.GetRequest],
               rest: List[bytes], verdict: Optional[str]) -> bytes:
        """A tick's last phase: answer or shed the run, handle the frames
        after it, and return every reply of this session's tick."""
        try:
            return head + encode_frames(self._finish(run, verdict, rest))
        except Exception as exc:
            return self._internal(exc)

    def _internal(self, exc: Exception) -> bytes:
        _log.exception("session handler failed")
        return self._fail("internal", str(exc))

    def end_of_stream(self) -> bytes:
        """The peer hung up: close, reporting a partial frame if one is
        buffered (best-effort, for a peer that only shut down writes)."""
        if self._state is _State.CLOSED:
            return b""
        pending = self._decoder.pending_bytes
        if not pending:
            self._mark_closed()
            return b""
        self._server._note_truncated_frame()
        _log.warning("connection closed mid-frame", extra={
            "pending_bytes": pending})
        return self._fail(
            "truncated-frame",
            f"connection closed with {pending} bytes of a partial frame")

    def expire(self) -> bytes:
        """The listener's idle timeout fired: close with ``idle-timeout``."""
        if self._state is _State.CLOSED:
            return b""
        self._server._note_idle_reaped()
        return self._fail("idle-timeout", "session idle past the timeout")

    def _fail(self, code: str, detail: str) -> bytes:
        """Close the session; return its one error frame."""
        self._mark_closed()
        return encode_frame(msg.encode_message(msg.ErrorMessage(code, detail)))

    @property
    def mode(self) -> Optional[str]:
        """The negotiated mode name, once the hello exchange completed."""
        return self._mode_name

    def handle_frames(self, frames: List[bytes]) -> List[bytes]:
        """Handle a burst of whole frames; return the reply messages.

        The tick of one session for a transport that already delivers
        whole frames; an exception from the handler propagates. Runs of
        consecutive GetRequests in the ready state are answered with one
        ``answer_batch`` call, so the mode's single-pass batch scan serves
        them in one walk over the database (§5.1); a lone GET is a batch
        of one.
        """
        replies, run, rest = self._take_run(frames)
        return replies + self._finish(run, self._server._admit(run), rest)

    def _take_run(self, frames: List[bytes]
                  ) -> Tuple[List[bytes], List[msg.GetRequest], List[bytes]]:
        """Handle frames up to the next run of GetRequests.

        Returns the replies so far, the run (consecutive GETs in the ready
        state, possibly empty) and the frames after it, which wait until
        the run is answered. Any other message goes through the
        one-message state machine (:meth:`handle`).
        """
        replies: List[bytes] = []
        run: List[msg.GetRequest] = []
        for index, frame in enumerate(frames):
            if self._state is _State.CLOSED:
                break
            try:
                message = msg.decode_message(frame)
            except ProtocolError as exc:
                if run:
                    return replies, run, frames[index:]
                self._mark_closed()
                replies.append(msg.encode_message(
                    msg.ErrorMessage("bad-message", str(exc))))
                break
            if isinstance(message, msg.GetRequest) and \
                    self._state is _State.READY:
                run.append(message)
            elif run:
                return replies, run, frames[index:]
            else:
                replies.extend(msg.encode_message(reply)
                               for reply in self.handle(message))
        return replies, run, []

    def _finish(self, run: List[msg.GetRequest], verdict: Optional[str],
                rest: List[bytes]) -> List[bytes]:
        """Answer or shed the run, then handle the frames after it (a
        tick of their own)."""
        replies = self._answer(run, verdict)
        if rest:
            replies += self.handle_frames(rest)
        return replies

    def _account(self, delta: RequestStats) -> None:
        """Fold an answer-call delta into the session and server stats."""
        self.stats.merge(delta)
        if self._mode_name is not None:
            self._server.record_stats(self._mode_name, delta)

    def _answer(self, run: List[msg.GetRequest],
                verdict: Optional[str]) -> List[bytes]:
        """Answer an admitted run of pipelined GetRequests in one batched
        scan, or shed it when the gate's ``verdict`` is a detail string."""
        if not run:
            return []
        if verdict is not None:
            # Shed the whole run: one error per request preserves the
            # 1:1 request/reply pairing, and the session stays READY —
            # overload is the *server's* state, not a client fault.
            shed = msg.encode_message(msg.ErrorMessage("overload", verdict))
            return [shed] * len(run)
        gate = self._server.admission
        delta = RequestStats()
        service_seconds = None
        try:
            with self._server.flight.capture():
                with span("zltp.session.get_batch", mode=self._mode_name,
                          batch=len(run)) as sp:
                    answers = timed_answer_batch(
                        self._mode, [g.payload for g in run], delta
                    )
                    sp.annotate(queries=delta.queries,
                                bytes_up=delta.bytes_up,
                                bytes_down=delta.bytes_down)
            service_seconds = sp.elapsed
        except ReproError as exc:
            self._mark_closed()
            return [msg.encode_message(msg.ErrorMessage("protocol", str(exc)))]
        finally:
            # Every admit is balanced, however the batch ended: a leaked
            # admission would hold the gate busy (and shedding) for good.
            if gate is not None:
                gate.release(len(run), service_seconds=service_seconds)
        self._account(delta)
        return [
            msg.encode_message(
                msg.GetResponse(request_id=request.request_id, payload=answer)
            )
            for request, answer in zip(run, answers)
        ]

    def handle(self, message) -> List[Any]:
        """Advance the state machine by one message; return reply messages."""
        if self._state is _State.CLOSED:
            return []
        try:
            return self._dispatch(message)
        except NegotiationError as exc:
            self._mark_closed()
            return [msg.ErrorMessage("negotiation", str(exc))]
        except ReproError as exc:
            # Mode-level failures (bad DPF key, malformed LWE query, broken
            # seal) are the client's fault; report and tear down.
            self._mark_closed()
            return [msg.ErrorMessage("protocol", str(exc))]

    def _dispatch(self, message) -> List[Any]:
        if isinstance(message, msg.Bye):
            self._mark_closed()
            return []
        if self._state is _State.AWAIT_HELLO:
            if not isinstance(message, msg.ClientHello):
                raise ProtocolError(
                    f"expected ClientHello, got {type(message).__name__}"
                )
            return [self._do_hello(message)]
        # READY state.
        if isinstance(message, msg.SetupRequest):
            return [msg.SetupResponse(params=self._mode.setup())]
        # GetRequests are answered only in a tick's run (_take_run); one
        # handed to handle() directly is refused here.
        raise ProtocolError(f"unexpected {type(message).__name__} in ready state")

    def _do_hello(self, hello: msg.ClientHello) -> msg.ServerHello:
        if hello.version != msg.PROTOCOL_VERSION:
            raise ProtocolError(
                f"protocol version {hello.version} unsupported "
                f"(server speaks {msg.PROTOCOL_VERSION})"
            )
        mode_name = negotiate(hello.supported_modes, self._server.modes)
        self._mode_name = mode_name
        self._mode = self._server.mode_server(mode_name)
        self._state = _State.READY
        db = self._server.database
        return msg.ServerHello(
            blob_size=db.blob_size,
            domain_bits=db.domain_bits,
            mode=mode_name,
            probes=self._server.probes,
            salt=self._server.salt,
            mode_params=self._mode.hello_params(),
        )


__all__ = ["ZltpServer", "ZltpServerSession"]
