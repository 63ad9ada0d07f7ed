"""The ZLTP client endpoint: ``GET(key) -> value`` and nothing else (§2).

:class:`ZltpClientSession` is the protocol, the mirror of
:class:`~repro.core.zltp.server.ZltpServerSession`: frames out, reply frames
in, results or typed errors back, with no transport, clock or blocking.
:class:`ZltpClient` is a thin blocking adapter that moves its frames over
one transport per endpoint — two for ``pir2`` ("the ZLTP client must
establish sessions with two ZLTP servers", §2.2), one otherwise. Its byte
counters are the measured communication numbers of benchmark E3.
"""

from __future__ import annotations

from typing import Any, List, Optional

import numpy as np

from repro.core import backend as backend_registry
from repro.core.resilience import Deadline, send_burst
from repro.core.zltp import messages as msg
from repro.crypto.cuckoo import CuckooTable
from repro.crypto.hashing import KeyedHash
from repro.errors import (
    NegotiationError,
    OverloadError,
    ProtocolError,
    TransportError,
)
from repro.obs.trace import span
from repro.pir.keyword import decode_record


def _geometry(hello: msg.ServerHello) -> tuple:
    return (hello.blob_size, hello.domain_bits, hello.mode, hello.probes,
            hello.salt)


class ZltpClientSession:
    """The client's protocol state machine over ``endpoints`` servers.

    Establishment: send :meth:`hello` on every endpoint and hand the
    replies to :meth:`receive_hellos`; while :attr:`connected` is still
    false, send :meth:`setup_request` on endpoint 0 and hand its reply to
    :meth:`receive_setup`. A burst: :meth:`get_requests`, optionally
    :meth:`prepare_queries` while it is on the wire, one :meth:`receive_get`
    per reply, then :meth:`get_results`.
    """

    def __init__(self, endpoints: int,
                 supported_modes: Optional[List[str]] = None,
                 rng: Optional[np.random.Generator] = None):
        if endpoints < 1:
            raise ProtocolError("need at least one transport")
        self.endpoints = endpoints
        self.supported_modes = (
            list(supported_modes) if supported_modes is not None
            else backend_registry.registered_modes()
        )
        self._rng = rng
        self._next_request_id = 0
        self._server_hello: Optional[msg.ServerHello] = None
        self.blob_size = self.domain_bits = self.mode = None
        self.probes = self.salt = None
        self._mode_client = None
        self._slots_of = None
        self.connected = False
        # The burst in flight: its ids, the answers so far per slot, each
        # endpoint's next reply index, and the overload replies drained.
        self._burst_ids: range = range(0)
        self._answers: List[List[bytes]] = []
        self._cursors: List[int] = []
        self._shed = 0
        self._shed_detail = ""

    def hello(self) -> bytes:
        """The ClientHello every endpoint is sent first."""
        return msg.encode_message(
            msg.ClientHello(supported_modes=self.supported_modes))

    def receive_hellos(self, frames: List[bytes]) -> List[int]:
        """Check every endpoint's reply to :meth:`hello`.

        Returns the endpoint order: position ``b`` holds the index of the
        endpoint that announced party ``b``.

        Raises:
            ProtocolError: a reply is not a ServerHello, the endpoints
                disagree on the universe geometry, or its blob_size is not
                positive.
            NegotiationError: the mode needs a different endpoint count, or
                the endpoints are not each one of its parties.
            OverloadError: an endpoint shed the hello.
        """
        hellos = [self._reply(frame, msg.ServerHello) for frame in frames]
        first = hellos[0]
        if any(_geometry(other) != _geometry(first) for other in hellos[1:]):
            raise ProtocolError("endpoints disagree on universe geometry")
        if first.blob_size < 1:
            raise ProtocolError(f"blob_size must be at least 1, got "
                                f"{first.blob_size}")
        spec = backend_registry.get_backend(first.mode)
        if spec.endpoints != self.endpoints:
            raise NegotiationError(
                f"mode {first.mode!r} needs {spec.endpoints} endpoint(s), "
                f"client has {self.endpoints}"
            )
        order = list(range(self.endpoints))
        if spec.endpoints > 1:
            parties = [hello.mode_params.get("party") for hello in hellos]
            if any(type(party) is not int for party in parties):
                # A hello without a party assignment is a negotiation
                # failure, not a TypeError from sorting None against int.
                raise NegotiationError(
                    f"{spec.name} endpoints must each announce an integer "
                    f"party, got {parties}"
                )
            if sorted(parties) != order:
                raise NegotiationError(
                    f"{spec.name} endpoints must be parties "
                    f"0..{spec.endpoints - 1}, got {parties}"
                )
            order.sort(key=lambda i: parties[i])
        self._server_hello = first
        (self.blob_size, self.domain_bits, self.mode, self.probes,
         self.salt) = _geometry(first)
        if not spec.needs_setup:
            self._establish({})
        return order

    def setup_request(self) -> bytes:
        """The SetupRequest endpoint 0 is sent when the mode needs one."""
        return msg.encode_message(msg.SetupRequest())

    def receive_setup(self, frame: bytes) -> None:
        """Finish establishment with endpoint 0's SetupResponse."""
        self._establish(self._reply(frame, msg.SetupResponse).params)

    def _establish(self, setup) -> None:
        hello = self._server_hello
        # The probe hash goes first: it refuses a domain_bits outside
        # [1, 63] before a mode sizes anything by it.
        if hello.probes == 1:
            keyed = KeyedHash(hello.domain_bits, hello.salt)
            self._slots_of = lambda key: [keyed.slot(key)]
        else:
            self._slots_of = CuckooTable(hello.domain_bits,
                                         n_hashes=hello.probes,
                                         salt=hello.salt).candidates
        self._mode_client = backend_registry.create_client(
            hello.mode, hello.domain_bits, hello.blob_size,
            hello.mode_params, setup, rng=self._rng)
        self.connected = True

    def resume_hello(self) -> bytes:
        """The hello for a re-dialled endpoint: only the negotiated mode is
        offered, so a replica cannot silently renegotiate."""
        self._require_connected()
        return msg.encode_message(msg.ClientHello(supported_modes=[self.mode]))

    def check_resume(self, endpoint: int, frame: bytes) -> None:
        """Validate a re-dialled endpoint's reply to :meth:`resume_hello`.

        Any error reply, another geometry or mode, or (for multi-endpoint
        modes) a party other than ``endpoint`` is a
        :class:`~repro.errors.ProtocolError`: retrying cannot fix it.
        """
        try:
            reply = self._reply(frame, msg.ServerHello)
        except OverloadError as exc:
            raise ProtocolError(str(exc)) from exc
        if _geometry(reply) != _geometry(self._server_hello):
            raise ProtocolError(
                "reconnected endpoint disagrees with the negotiated session")
        if self.endpoints > 1:
            party = msg.param(reply.mode_params, "party", int)
            if party != endpoint:
                raise ProtocolError(
                    f"reconnected endpoint {endpoint} announced party {party}")

    def bye(self) -> bytes:
        """The goodbye for every endpoint; the session is closed after."""
        self.connected = False
        return msg.encode_message(msg.Bye())

    def candidate_slots(self, key: str) -> List[int]:
        """The fixed probe slots for ``key`` under the universe's salt."""
        self._require_connected()
        return self._slots_of(key)

    def slots_for(self, keys: List[str]) -> List[int]:
        """Every key's probe slots, key by key: ``len(keys) * probes``."""
        return [slot for key in keys for slot in self.candidate_slots(key)]

    def match_records(self, keys: List[str],
                      records: List[bytes]) -> List[Optional[bytes]]:
        """One value per key from the records fetched for
        :meth:`slots_for`; None where no probe held the key's record."""
        probes = self.probes
        found: List[Optional[bytes]] = []
        for index, key in enumerate(keys):
            value = None
            for record in records[index * probes:(index + 1) * probes]:
                payload = decode_record(key, record)
                if payload is not None and value is None:
                    value = payload
            found.append(value)
        return found

    def get_requests(self, slots: List[int]) -> List[List[bytes]]:
        """Start a burst: per endpoint, one GetRequest per slot in request
        order, built together (one batched key generation where the mode
        has one). Every endpoint then owes ``len(slots)`` replies."""
        self._require_connected()
        per_slot_queries = backend_registry.queries_for_slots(
            self._mode_client, slots)
        if any(len(queries) != self.endpoints
               for queries in per_slot_queries):
            raise ProtocolError("mode produced wrong number of queries")
        first_id = self._next_request_id
        self._next_request_id += len(per_slot_queries)
        self._burst_ids = range(first_id, self._next_request_id)
        self._answers = [[] for _ in per_slot_queries]
        self._cursors = [0] * self.endpoints
        self._shed = 0
        self._shed_detail = ""
        return [
            [msg.encode_message(msg.GetRequest(request_id=request_id,
                                               payload=queries[endpoint]))
             for request_id, queries in zip(self._burst_ids, per_slot_queries)]
            for endpoint in range(self.endpoints)
        ]

    def prepare_queries(self, count: int) -> None:
        """Let the mode do ``count`` queries' slot-independent work now,
        between sending a burst of ``count`` slots and reading its replies,
        so the next burst's queries cost less on its own path. A no-op for
        a mode without the hook (:func:`repro.core.backend.prepare_queries`)."""
        self._require_connected()
        backend_registry.prepare_queries(self._mode_client, count)

    def receive_get(self, endpoint: int, frame: bytes) -> None:
        """Take ``endpoint``'s next reply of the burst (request order).

        An ``overload`` error is one shed request: counted, and the burst
        keeps draining, so the reply stream stays aligned and the session
        usable. Any other error reply, a non-GetResponse, a wrong request
        id or a reply beyond the burst is a
        :class:`~repro.errors.ProtocolError`.
        """
        index = self._cursors[endpoint]
        if index >= len(self._burst_ids):
            raise ProtocolError(f"unexpected reply on endpoint {endpoint}")
        self._cursors[endpoint] = index + 1
        try:
            response = self._reply(frame, msg.GetResponse)
        except OverloadError as exc:
            self._shed += 1
            self._shed_detail = str(exc)
            return
        request_id = self._burst_ids[index]
        if response.request_id != request_id:
            raise ProtocolError(
                f"response id {response.request_id} != request id "
                f"{request_id}")
        self._answers[index].append(response.payload)

    def get_results(self) -> List[bytes]:
        """The burst's decoded records, in slot order.

        Raises:
            OverloadError: the server's admission gate shed some or all of
                the burst; raised only once every expected reply drained.
            ProtocolError: a reply is still owed.
        """
        expected = len(self._burst_ids)
        if any(cursor != expected for cursor in self._cursors):
            raise ProtocolError("burst replies are still outstanding")
        if self._shed:
            raise OverloadError(
                f"server shed {self._shed} of "
                f"{expected * self.endpoints} requests: {self._shed_detail}")
        return [self._mode_client.decode(answers) for answers in self._answers]

    def _require_connected(self) -> None:
        if not self.connected:
            raise ProtocolError("client is not connected; call connect() first")

    def _reply(self, frame: bytes, expected):
        """Decode a reply that must be an ``expected`` message; an error
        reply raises."""
        message = msg.decode_message(frame)
        if isinstance(message, msg.ErrorMessage):
            if message.code == "overload":
                raise OverloadError(f"server overloaded: {message.detail}")
            raise ProtocolError(f"server error {message.code}: {message.detail}")
        if not isinstance(message, expected):
            raise ProtocolError(f"expected {expected.__name__}, "
                                f"got {type(message).__name__}")
        return message


class ZltpClient:
    """A blocking client session (or session pair) over transports.

    Args:
        transports: one connected transport per server endpoint; the
            session checks the count against the negotiated mode.
        supported_modes: modes offered in the ClientHello, in the order
            the client prefers them. Defaults to everything.
        rng: optional deterministic randomness (tests).
    """

    def __init__(self, transports: List[Any],
                 supported_modes: Optional[List[str]] = None,
                 rng: Optional[np.random.Generator] = None):
        self.session = ZltpClientSession(len(transports), supported_modes,
                                         rng=rng)
        self._transports = list(transports)

    mode = property(lambda self: self.session.mode)
    blob_size = property(lambda self: self.session.blob_size)
    domain_bits = property(lambda self: self.session.domain_bits)
    probes = property(lambda self: self.session.probes)
    salt = property(lambda self: self.session.salt)

    def connect(self) -> None:
        """Run the hello (and, if needed, setup) exchange on every transport."""
        session = self.session
        hello = session.hello()
        replies = []
        for transport in self._transports:
            transport.send_frame(hello)
            replies.append(transport.recv_frame())
        order = session.receive_hellos(replies)
        self._transports = [self._transports[i] for i in order]
        if not session.connected:
            transport = self._transports[0]
            transport.send_frame(session.setup_request())
            session.receive_setup(transport.recv_frame())
        # Resilient transports journal request frames from here on and
        # re-run the hello (restricted to the negotiated session) on
        # every reconnect, before replaying unanswered requests.
        for endpoint, transport in enumerate(self._transports):
            if hasattr(transport, "mark_established"):
                transport.on_reconnect = self._make_resume(endpoint)
                transport.mark_established()

    def _make_resume(self, endpoint: int):
        """A reconnect hook that restores this endpoint's session."""
        def resume(raw) -> None:
            raw.send_frame(self.session.resume_hello())
            self.session.check_resume(endpoint, raw.recv_frame())
        return resume

    def get_slot(self, slot: int) -> bytes:
        """Privately fetch the raw record at a slot (a burst of one)."""
        return self.get_slots([slot])[0]

    def get_slots(self, slots: List[int], deadline_seconds: Optional[float] = None) -> List[bytes]:  # lint: allow(secret-branch) — only the *number* of requested slots shapes control flow here, and the request count is public by design (§2.1 leaks it); the slot values never branch
        """Privately fetch several slots in one pipelined burst.

        Every endpoint's GetRequests go out in one write before any reply
        is read, so a batching server (the §5.1 path) answers the run with
        one pass over the DPF tree and one over the database. The optional
        ``deadline_seconds`` is checked between replies, so a session stuck
        reconnecting raises :class:`~repro.errors.DeadlineError` instead of
        hanging. Returns the records in the order of ``slots``; raises
        :class:`~repro.errors.OverloadError` once a shed burst has drained.
        """
        if not slots:
            return []
        deadline = (Deadline.start(deadline_seconds)
                    if deadline_seconds is not None else None)
        session = self.session
        for transport, burst in zip(self._transports,
                                    session.get_requests(slots)):
            send_burst(transport, burst)
        # While the server answers: the next burst's slot-independent work.
        session.prepare_queries(len(slots))
        for endpoint, transport in enumerate(self._transports):
            for _ in slots:
                if deadline is not None:
                    deadline.check("get_slots")
                session.receive_get(endpoint, transport.recv_frame())
        return session.get_results()

    def candidate_slots(self, key: str) -> List[int]:
        """The fixed probe slots for ``key`` under the universe's salt."""
        return self.session.candidate_slots(key)

    def get(self, key: str,
            deadline_seconds: Optional[float] = None) -> Optional[bytes]:
        """The ZLTP API (§2): privately fetch the value stored under ``key``
        (None if absent) with exactly ``probes`` slot fetches, whatever the
        key and whether it exists. ``deadline_seconds`` is a fixed public
        budget, never derived from the key."""
        return self.get_many([key], deadline_seconds=deadline_seconds)[0]

    def get_many(self, keys: List[str],
                 deadline_seconds: Optional[float] = None
                 ) -> List[Optional[bytes]]:
        """Privately fetch several keywords in one pipelined burst of
        ``len(keys) * probes`` fixed-size GETs, the count a function of the
        public key count only. Returns one value per key, None if absent."""
        # The span carries only the public probe count and mode — never
        # a key, its slots, or whether it was found.
        with span("zltp.client.get", mode=self.mode, probes=self.probes):
            records = self.get_slots(self.session.slots_for(keys),
                                     deadline_seconds=deadline_seconds)
            return self.session.match_records(keys, records)

    def close(self) -> None:
        """Send Bye on every endpoint and close the transports.

        The goodbye is best-effort: on a resilient transport it goes
        through ``try_send_frame``, so a dead connection is *not*
        re-established just to say Bye.
        """
        bye = self.session.bye()
        for transport in self._transports:
            try_send = getattr(transport, "try_send_frame", None)
            if try_send is not None:
                try_send(bye)
            else:
                try:
                    transport.send_frame(bye)
                except TransportError:
                    pass
            transport.close()

    @property
    def bytes_sent(self) -> int:
        """Total bytes uploaded across all endpoints."""
        return sum(t.bytes_sent for t in self._transports)

    @property
    def bytes_received(self) -> int:
        """Total bytes downloaded across all endpoints."""
        return sum(t.bytes_received for t in self._transports)


def connect_client(transports: List[Any],
                   supported_modes: Optional[List[str]] = None,
                   rng: Optional[np.random.Generator] = None) -> ZltpClient:
    """Create and connect a :class:`ZltpClient` in one call."""
    client = ZltpClient(transports, supported_modes=supported_modes, rng=rng)
    client.connect()
    return client


__all__ = ["ZltpClient", "ZltpClientSession", "connect_client"]
