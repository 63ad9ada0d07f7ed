"""The ZLTP client endpoint: ``GET(key) -> value`` and nothing else (§2).

A :class:`ZltpClient` owns one transport per server endpoint the negotiated
mode requires — two for ``pir2`` ("the ZLTP client must establish sessions
with two ZLTP servers", §2.2), one otherwise — and exposes the private-GET
operation at two levels:

- :meth:`get_slot` — fetch the raw record at an index (what the protocol
  actually moves), and
- :meth:`get` — the paper's keyword API: hash the key to its fixed probe
  slots, privately fetch *all* of them (the probe count never depends on
  the key or its presence), and decode the matching record;
  :meth:`get_many` does that for several keys — a page's worth — in one
  pipelined burst.

The client also keeps byte counters, which are the measured communication
numbers of benchmark E3.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

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


class ZltpClient:
    """A client session (or session pair) against a logical ZLTP server."""

    def __init__(self, transports: List[Any],
                 supported_modes: Optional[List[str]] = None,
                 rng: Optional[np.random.Generator] = None):
        """Create a client over already-connected transports.

        Args:
            transports: one transport per server endpoint. Two for ``pir2``;
                the client checks the count against the negotiated mode.
            supported_modes: modes offered in the ClientHello, in the order
                the client prefers them. Defaults to everything.
            rng: optional deterministic randomness (tests).
        """
        if not transports:
            raise ProtocolError("need at least one transport")
        self._transports = list(transports)
        self.supported_modes = (
            list(supported_modes) if supported_modes is not None
            else backend_registry.registered_modes()
        )
        self._rng = rng
        self._next_request_id = 0
        self.mode: Optional[str] = None
        self.blob_size: Optional[int] = None
        self.domain_bits: Optional[int] = None
        self.probes: Optional[int] = None
        self.salt: Optional[bytes] = None
        self._mode_client = None
        self._hash = None
        self._cuckoo = None
        self._connected = False

    # ------------------------------------------------------------------
    # Session establishment
    # ------------------------------------------------------------------

    def connect(self) -> None:
        """Run the hello (and, if needed, setup) exchange on every transport."""
        hello = msg.ClientHello(supported_modes=self.supported_modes)
        server_hellos = []
        for transport in self._transports:
            transport.send_frame(msg.encode_message(hello))
            server_hellos.append(self._recv(transport))

        first = server_hellos[0]
        if not isinstance(first, msg.ServerHello):
            raise ProtocolError(f"expected ServerHello, got {type(first).__name__}")
        for other in server_hellos[1:]:
            if not isinstance(other, msg.ServerHello):
                raise ProtocolError("expected ServerHello from every endpoint")
            if (other.blob_size, other.domain_bits, other.mode,
                    other.probes, other.salt) != (
                    first.blob_size, first.domain_bits, first.mode,
                    first.probes, first.salt):
                raise ProtocolError("endpoints disagree on universe geometry")

        spec = backend_registry.get_backend(first.mode)
        if spec.endpoints != len(self._transports):
            raise NegotiationError(
                f"mode {first.mode!r} needs {spec.endpoints} endpoint(s), "
                f"client has {len(self._transports)}"
            )
        if spec.endpoints > 1:
            # Multi-endpoint backends announce each endpoint's party in
            # the hello; order transports so index b talks to party b.
            parties = [h.mode_params.get("party") for h in server_hellos]
            if any(not isinstance(party, int) for party in parties):
                # A hello without a party assignment is a negotiation
                # failure, not a TypeError from sorting None against int.
                raise NegotiationError(
                    f"{spec.name} endpoints must each announce an integer "
                    f"party, got {parties}"
                )
            if sorted(parties) != list(range(spec.endpoints)):
                raise NegotiationError(
                    f"{spec.name} endpoints must be parties "
                    f"0..{spec.endpoints - 1}, got {parties}"
                )
            order = sorted(range(spec.endpoints), key=lambda i: parties[i])
            self._transports = [self._transports[i] for i in order]

        setup: Dict[str, Any] = {}
        if spec.needs_setup:
            transport = self._transports[0]
            transport.send_frame(msg.encode_message(msg.SetupRequest()))
            response = self._recv(transport)
            if not isinstance(response, msg.SetupResponse):
                raise ProtocolError("expected SetupResponse")
            setup = response.params

        self.mode = first.mode
        self.blob_size = first.blob_size
        self.domain_bits = first.domain_bits
        self.probes = first.probes
        self.salt = first.salt
        self._mode_client = spec.build_client(
            first.domain_bits, first.blob_size,
            first.mode_params, setup, rng=self._rng,
        )
        if self.probes == 1:
            self._hash = KeyedHash(first.domain_bits, first.salt)
        else:
            self._cuckoo = CuckooTable(first.domain_bits, n_hashes=self.probes,
                                       salt=first.salt)
        self._hello_signature = (first.blob_size, first.domain_bits,
                                 first.mode, first.probes, first.salt)
        self._connected = True
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
            self._resume_session(endpoint, raw)
        return resume

    def _resume_session(self, endpoint: int, raw) -> None:
        """Re-run the hello on a re-dialled transport and validate that
        the server (or its replica) still matches the negotiated session.

        Only the already-negotiated mode is offered, so a replica cannot
        silently renegotiate. A mismatched geometry, mode, or party is a
        :class:`~repro.errors.ProtocolError` — retrying cannot fix it.
        """
        hello = msg.ClientHello(supported_modes=[self.mode])
        raw.send_frame(msg.encode_message(hello))
        reply = msg.decode_message(raw.recv_frame())
        if isinstance(reply, msg.ErrorMessage):
            raise ProtocolError(
                f"server error {reply.code}: {reply.detail}")
        if not isinstance(reply, msg.ServerHello):
            raise ProtocolError(
                f"expected ServerHello on resume, got {type(reply).__name__}")
        signature = (reply.blob_size, reply.domain_bits, reply.mode,
                     reply.probes, reply.salt)
        if signature != self._hello_signature:
            raise ProtocolError(
                "reconnected endpoint disagrees with the negotiated session")
        spec = backend_registry.get_backend(self.mode)
        if spec.endpoints > 1:
            party = reply.mode_params.get("party")
            if party != endpoint:
                raise ProtocolError(
                    f"reconnected endpoint {endpoint} announced party "
                    f"{party!r}"
                )

    # ------------------------------------------------------------------
    # The private-GET operation
    # ------------------------------------------------------------------

    def get_slot(self, slot: int) -> bytes:
        """Privately fetch the raw record at a database slot.

        A single-slot :meth:`get_slots` — same wire behaviour, same
        overload semantics.
        """
        return self.get_slots([slot])[0]

    def get_slots(self, slots: List[int], deadline_seconds: Optional[float] = None) -> List[bytes]:  # lint: allow(secret-branch) — only the *number* of requested slots shapes control flow here, and the request count is public by design (§2.1 leaks it); the slot values never branch
        """Privately fetch several slots in one pipelined burst.

        The queries for the whole burst are built together (one batched
        key generation where the mode has one) and every endpoint's
        GetRequests go out in a single write before any response is read,
        so a batching-aware server (the §5.1 path) sees them arrive
        together and answers the whole run with one pass over the DPF tree
        and one over the database. Responses on each transport come back
        in request order; ids are checked against the ids sent.

        Args:
            slots: database slots to fetch.
            deadline_seconds: optional budget for the whole batch; checked
                between responses, so a session stuck reconnecting raises
                :class:`~repro.errors.DeadlineError` instead of hanging.

        Returns:
            The decoded records, in the order of ``slots``.

        Raises:
            OverloadError: the server's admission gate shed some or all
                of the batch. The server answers every shed request with
                its own ``ErrorMessage("overload")`` and keeps the
                session open, so this client drains every expected reply
                first — the streams stay in sync and the session remains
                usable for a retry (here or on another endpoint).
        """
        self._require_connected()
        if not slots:
            return []
        deadline = (Deadline.start(deadline_seconds)
                    if deadline_seconds is not None else None)
        per_slot_queries = backend_registry.queries_for_slots(
            self._mode_client, slots)
        if any(len(queries) != len(self._transports)
               for queries in per_slot_queries):
            raise ProtocolError("mode produced wrong number of queries")
        first_id = self._next_request_id
        self._next_request_id += len(per_slot_queries)
        request_ids = range(first_id, self._next_request_id)
        for endpoint, transport in enumerate(self._transports):
            send_burst(transport, [
                msg.encode_message(msg.GetRequest(request_id=request_id,
                                                  payload=queries[endpoint]))
                for request_id, queries in zip(request_ids, per_slot_queries)
            ])
        per_slot_answers: List[List[bytes]] = [[] for _ in slots]
        shed = 0
        shed_detail = ""
        for transport in self._transports:
            for i, request_id in enumerate(request_ids):
                if deadline is not None:
                    deadline.check("get_slots")
                response = msg.decode_message(transport.recv_frame())
                if isinstance(response, msg.ErrorMessage) and \
                        response.code == "overload":
                    # One error frame per shed request, in request order:
                    # count it, keep draining so the reply stream stays
                    # aligned, and raise once everything expected arrived.
                    shed += 1
                    shed_detail = response.detail
                    continue
                if isinstance(response, msg.ErrorMessage):
                    raise ProtocolError(
                        f"server error {response.code}: {response.detail}")
                if not isinstance(response, msg.GetResponse):
                    raise ProtocolError(
                        f"expected GetResponse, got {type(response).__name__}"
                    )
                if response.request_id != request_id:
                    raise ProtocolError(
                        f"response id {response.request_id} != request id "
                        f"{request_id}"
                    )
                per_slot_answers[i].append(response.payload)
        if shed:
            raise OverloadError(
                f"server shed {shed} of "
                f"{len(slots) * len(self._transports)} requests: "
                f"{shed_detail}")
        return [self._mode_client.decode(answers) for answers in per_slot_answers]

    def candidate_slots(self, key: str) -> List[int]:
        """The fixed probe slots for ``key`` under the universe's salt."""
        self._require_connected()
        if self.probes == 1:
            return [self._hash.slot(key)]
        return self._cuckoo.candidates(key)

    def get(self, key: str,
            deadline_seconds: Optional[float] = None) -> Optional[bytes]:
        """The ZLTP API (§2): privately fetch the value stored under ``key``.

        Always performs exactly ``probes`` slot fetches, so the observable
        request count is independent of the key and of whether it exists.

        Args:
            key: the keyword to look up.
            deadline_seconds: optional wall-clock budget for the lookup
                (a fixed public number, never derived from the key).

        Returns:
            The value payload, or None if no record for ``key`` exists.
        """
        return self.get_many([key], deadline_seconds=deadline_seconds)[0]

    def get_many(self, keys: List[str],
                 deadline_seconds: Optional[float] = None
                 ) -> List[Optional[bytes]]:
        """Privately fetch several keywords in one pipelined burst.

        Every key's ``probes`` candidate slots go out together as one
        :meth:`get_slots` call — ``len(keys) * probes`` fixed-size GETs in
        one round trip, the count a function of the public key count only.

        Args:
            keys: the keywords to look up.
            deadline_seconds: optional wall-clock budget for the burst.

        Returns:
            One value payload per key, in order; None where no record for
            the key exists.
        """
        # The span carries only the public probe count and mode — never
        # a key, its slots, or whether it was found.
        with span("zltp.client.get", mode=self.mode, probes=self.probes):
            slots = [slot for key in keys
                     for slot in self.candidate_slots(key)]
            records = self.get_slots(slots, deadline_seconds=deadline_seconds)
            found: List[Optional[bytes]] = []
            for index, key in enumerate(keys):
                value = None
                for record in records[index * self.probes:
                                      (index + 1) * self.probes]:
                    payload = decode_record(key, record)
                    if payload is not None and value is None:
                        value = payload
                found.append(value)
            return found

    # ------------------------------------------------------------------
    # Housekeeping
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Send Bye on every endpoint and close the transports.

        The goodbye is best-effort: on a resilient transport it goes
        through ``try_send_frame``, so a dead connection is *not*
        re-established just to say Bye.
        """
        bye = msg.encode_message(msg.Bye())
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
        self._connected = False

    @property
    def bytes_sent(self) -> int:
        """Total bytes uploaded across all endpoints."""
        return sum(t.bytes_sent for t in self._transports)

    @property
    def bytes_received(self) -> int:
        """Total bytes downloaded across all endpoints."""
        return sum(t.bytes_received for t in self._transports)

    def _require_connected(self) -> None:
        if not self._connected:
            raise ProtocolError("client is not connected; call connect() first")

    def _recv(self, transport):
        message = msg.decode_message(transport.recv_frame())
        if isinstance(message, msg.ErrorMessage):
            if message.code == "overload":
                raise OverloadError(f"server overloaded: {message.detail}")
            raise ProtocolError(f"server error {message.code}: {message.detail}")
        return message


def connect_client(transports: List[Any],
                   supported_modes: Optional[List[str]] = None,
                   rng: Optional[np.random.Generator] = None) -> ZltpClient:
    """Create and connect a :class:`ZltpClient` in one call."""
    client = ZltpClient(transports, supported_modes=supported_modes, rng=rng)
    client.connect()
    return client


__all__ = ["ZltpClient", "connect_client"]
