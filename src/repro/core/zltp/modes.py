"""ZLTP modes of operation (§2.2): the three built-in backend registrations.

Each mode supplies a server half (turn an opaque query payload into an
opaque answer payload over the blob database) and a client half (build the
query payloads for a slot, decode the answer payloads into the record).
Both halves are thin adapters over the real engines in
:mod:`repro.pir.twoserver`, :mod:`repro.crypto.lwe`, and
:mod:`repro.oram.enclave`, registered with the :mod:`repro.core.backend`
registry — which is the single source of truth for mode names, endpoint
counts, and negotiation preference order.
Sessions negotiate a mode by name; §2.1's security assumptions differ per
mode and are documented on each registration.

=================  ==========  ====================================
mode name          endpoints   assumption (§2.1)
=================  ==========  ====================================
``pir2``           2           non-collusion (≥1 of 2 honest)
``pir-lwe``        1           cryptographic (LWE hardness)
``enclave-oram``   1           hardware (enclave protects secrets)
=================  ==========  ====================================
"""

from __future__ import annotations

import struct
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.core import backend
from repro.core.backend import (
    BackendCost,
    ServerContext,
    mode_endpoints,
    negotiate,
)
from repro.core.zltp.messages import param
from repro.crypto import aead
from repro.crypto.dpf import gen_dpf_wire_batch
from repro.crypto.lwe import (
    LweParams,
    LwePirClient,
    LwePirServer,
    public_matrix,
    rounding_bits,
)
from repro.errors import AccessError, CryptoError, ProtocolError
from repro.oram.enclave import SimulatedEnclave
from repro.pir.codec import pack_u32, pack_words, unpack_u32, unpack_words
from repro.pir.database import BlobDatabase
from repro.pir.twoserver import TwoServerPirServer

MODE_PIR2 = "pir2"
MODE_PIR_LWE = "pir-lwe"
MODE_ENCLAVE = "enclave-oram"

#: Default server preference order: strongest guarantees first. Derived
#: from the same preference ranks the registry sorts by.
ALL_MODES = [MODE_PIR2, MODE_PIR_LWE, MODE_ENCLAVE]


# --------------------------------------------------------------------------
# pir2: two-server DPF PIR
# --------------------------------------------------------------------------

PIR2 = backend.declare_backend(
    MODE_PIR2, endpoints=2, preference=0,
    assumption="non-collusion (>=1 of 2 honest)",
    snapshots_database=False,
    cost=BackendCost(servers_per_request=2, linear_scan=True,
                     note="two non-colluding linear scans per request"),
)


@PIR2.server
class Pir2ModeServer:
    """Server half of ``pir2`` — one of the two non-colluding parties.

    By default the party is a single :class:`TwoServerPirServer` scanning
    the whole database. With the ``prefix_bits`` server option set, the
    party instead runs the §5.2 deployment shape — a
    :class:`~repro.pir.sharding.ShardedPartyServer` front-end scanning
    its shards one by one — behind the same wire surface.
    """

    name = MODE_PIR2

    def __init__(self, database: BlobDatabase, party: int, core=None):
        self._pir = core if core is not None else TwoServerPirServer(
            database, party)
        self.party = party

    @classmethod
    def from_context(cls, database: BlobDatabase,
                     ctx: ServerContext) -> "Pir2ModeServer":
        """Registry hook: build this party's half from a server context."""
        prefix_bits = ctx.options.get("prefix_bits")
        if prefix_bits:
            from repro.pir.sharding import ShardedPartyServer

            core = ShardedPartyServer(database, int(prefix_bits), ctx.party)
            return cls(database, ctx.party, core=core)
        return cls(database, ctx.party)

    def hello_params(self) -> Dict[str, Any]:
        """Mode parameters for the ServerHello."""
        return {"party": self.party}

    def setup(self) -> Dict[str, Any]:
        """One-time setup payload (none for pir2)."""
        return {}

    def answer(self, payload: bytes) -> bytes:
        """One GET: the batch of one."""
        return self.answer_batch([payload])[0]

    def answer_batch(self, payloads: List[bytes]) -> List[bytes]:
        """Answer many GETs in one single-pass scan (§5.1 batching)."""
        return self._pir.answer_batch(payloads)


@PIR2.client
class Pir2ModeClient:
    """Client half of ``pir2``: deals DPF key pairs, XORs the answers."""

    name = MODE_PIR2
    endpoints = 2

    def __init__(self, domain_bits: int, blob_size: int,
                 rng: Optional[np.random.Generator] = None):
        self.domain_bits = domain_bits
        self.blob_size = blob_size
        self._rng = rng

    @classmethod
    def from_hello(cls, domain_bits: int, blob_size: int,
                   hello_params: Dict[str, Any], setup: Dict[str, Any],
                   rng: Optional[np.random.Generator] = None) -> "Pir2ModeClient":
        """Registry hook: build the client from the hello exchange."""
        return cls(domain_bits, blob_size, rng=rng)

    def queries_for_slot(self, slot: int) -> List[bytes]:
        """One DPF key per server."""
        return self.queries_for_slots([slot])[0]

    def queries_for_slots(self, slots: List[int]) -> List[List[bytes]]:
        """One DPF key per server for every slot, dealt in one batch
        straight to wire bytes."""
        keys0, keys1 = gen_dpf_wire_batch(slots, self.domain_bits,
                                          rng=self._rng)
        return [[key0.tobytes(), key1.tobytes()]
                for key0, key1 in zip(keys0, keys1)]

    def decode(self, answers: List[bytes]) -> bytes:
        """XOR the two servers' shares into the record."""
        if len(answers) != 2:
            raise ProtocolError("pir2 needs exactly two answers")
        if len(answers[0]) != len(answers[1]):
            raise ProtocolError("pir2 answer length mismatch")
        a = np.frombuffer(answers[0], dtype=np.uint8)
        b = np.frombuffer(answers[1], dtype=np.uint8)
        return (a ^ b).tobytes()


# --------------------------------------------------------------------------
# pir-lwe: single-server LWE PIR
# --------------------------------------------------------------------------

PIR_LWE = backend.declare_backend(
    MODE_PIR_LWE, endpoints=1, preference=1,
    assumption="cryptographic (LWE hardness)",
    aliases=("lwe",), needs_setup=True,
    cost=BackendCost(servers_per_request=1, linear_scan=True,
                     note="one linear scan per request + one-time hint"),
)


#: Most words of ``A`` a client expands from a server's ``a_seed``
#: (64 MiB as uint32). The seed is a few bytes, so without a cap a hostile
#: hello (a large ``domain_bits`` or ``n``) would make the client allocate
#: whatever it names. At the default ``p`` and ``noise_bound``,
#: :class:`LwePirServer` accepts at most 2^13 power-of-two columns, so every
#: such geometry with ``n`` up to 2048 fits.
MAX_PUBLIC_MATRIX_WORDS = 1 << 24


@PIR_LWE.server
class LweModeServer:
    """Server half of ``pir-lwe``: answers are one matrix-vector product.

    The database is viewed as a ``(blob_size, n_slots)`` byte matrix; one
    query privately selects a column (= one blob). The set-up is
    ``{"hint": pack_u32(hint), "a_seed": seed}``: the hint is computed and
    packed into 4-byte wire words once, when the server is built, and the
    client expands ``A`` from ``a_seed`` itself
    (:func:`repro.crypto.lwe.public_matrix`). Every session's set-up sends
    those same bytes, and :meth:`update_slot` re-packs the moved hint.
    Queries arrive as ``32 - kq``-bit words and answers leave rounded to
    ``32 - ka`` bits, both widths from
    :func:`repro.crypto.lwe.rounding_bits` over the hello's parameters.
    """

    name = MODE_PIR_LWE

    def __init__(self, database: BlobDatabase, params: Optional[LweParams] = None,
                 seed: int = 7):
        self.params = params if params is not None else LweParams()
        self._core = LwePirServer(database.as_byte_matrix(), params=self.params,
                                  seed=seed)
        self._database = database
        self.blob_size = database.blob_size
        self._query_drop, self._answer_drop = rounding_bits(
            self.params.p, self.params.noise_bound, self._core.shape[1])
        self._setup = {
            "hint": pack_u32(self._core.hint()),
            "a_seed": seed,
        }

    @classmethod
    def from_context(cls, database: BlobDatabase,
                     ctx: ServerContext) -> "LweModeServer":
        """Registry hook: build the server from a server context."""
        return cls(database, params=ctx.lwe_params)

    def hello_params(self) -> Dict[str, Any]:
        """The LWE public parameters the client must mirror."""
        return {
            "n": self.params.n,
            "p": self.params.p,
            "noise_bound": self.params.noise_bound,
        }

    def setup(self) -> Dict[str, Any]:
        """The one-time hint download — the mode's big up-front cost."""
        return dict(self._setup)

    def answer(self, payload: bytes) -> bytes:
        """One GET: the batch of one."""
        return self.answer_batch([payload])[0]

    def answer_batch(self, payloads: List[bytes]) -> List[bytes]:
        """One matrix-vector product over the database matrix per query
        (no cross-request amortisation for LWE yet)."""
        shape = (self._core.shape[1],)
        answers = [self._core.answer(
            unpack_words(payload, self._query_drop, shape=shape))
            for payload in payloads]
        return [pack_words(answer, self._answer_drop) for answer in answers]

    def update_slot(self, index: int, data: bytes) -> Tuple[int, np.ndarray]:
        """Replace one blob; returns the ``(column, δ)`` delta for clients.

        Writes the blob database and the LWE matrix together, so a
        publisher push (§3.1) reaches clients as ``blob_size`` words they
        fold into their hint (:meth:`LweModeClient.apply_hint_update`)
        instead of a full hint re-download. The database write bumps its version,
        so a ``ZltpServer`` builds a fresh mode server for later sessions.
        """
        self._database.set_slot(index, data)
        column = np.frombuffer(self._database.get_slot(index), dtype=np.uint8)
        delta = self._core.update_column(index, column)
        self._setup["hint"] = pack_u32(self._core.hint())
        return delta


@PIR_LWE.client
class LweModeClient:
    """Client half of ``pir-lwe``; requires the setup payload first."""

    name = MODE_PIR_LWE
    endpoints = 1

    def __init__(self, domain_bits: int, blob_size: int,
                 hello_params: Dict[str, Any], setup: Dict[str, Any],
                 rng: Optional[np.random.Generator] = None):
        cols = 1 << domain_bits
        try:
            params = LweParams(**{name: param(hello_params, name, int)
                                  for name in ("n", "p", "noise_bound")})
            self._query_drop, self._answer_drop = rounding_bits(
                params.p, params.noise_bound, cols)
        except CryptoError as exc:
            raise ProtocolError(f"pir-lwe hello refused: {exc}") from exc
        self.blob_size = blob_size
        hint = unpack_u32(param(setup, "hint", bytes))
        if hint.shape != (blob_size, params.n):
            raise ProtocolError(
                f"pir-lwe hint must have shape ({blob_size}, {params.n}), "
                f"got {hint.shape}")
        seed = param(setup, "a_seed", int)
        if seed < 0:
            raise ProtocolError(f"pir-lwe a_seed must be >= 0, got {seed}")
        if cols * params.n > MAX_PUBLIC_MATRIX_WORDS:
            raise ProtocolError(
                f"pir-lwe A of {cols} x {params.n} words exceeds the client "
                f"cap of {MAX_PUBLIC_MATRIX_WORDS}")
        self._core = LwePirClient(
            public_matrix(seed, cols, params.n), hint,
            params=params, rng=rng,
        )

    @classmethod
    def from_hello(cls, domain_bits: int, blob_size: int,
                   hello_params: Dict[str, Any], setup: Dict[str, Any],
                   rng: Optional[np.random.Generator] = None) -> "LweModeClient":
        """Registry hook: build the client from the hello + setup payloads."""
        return cls(domain_bits, blob_size, hello_params, setup, rng=rng)

    def queries_for_slot(self, slot: int) -> List[bytes]:
        """One LWE query vector for the single server, its words rounded
        to ``32 - kq`` bits."""
        return [pack_words(self._core.query(slot), self._query_drop)]

    def queries_for_slots(self, slots: List[int]) -> List[List[bytes]]:
        """A new burst's queries, one per slot. Masks still in flight are
        an earlier burst's whose answers never came (the server shed some
        of it); they are dropped first, so each burst decodes with its own."""
        self._core.drop_in_flight()
        return [self.queries_for_slot(slot) for slot in slots]

    def prepare_queries(self, count: int) -> None:
        """Draw ``count`` queries' secrets and noise and do their ``A·s + e``
        and ``H·s`` now, while the last burst is on the wire; ``count`` is
        that burst's public size."""
        self._core.prepare(count)

    def apply_hint_update(self, column: int, delta: np.ndarray) -> None:
        """Fold a ``(column, δ)`` broadcast from ``LweModeServer.update_slot``
        into the hint."""
        self._core.apply_hint_update(column, delta)

    def decode(self, answers: List[bytes]) -> bytes:
        """Strip the noise and recover the record bytes."""
        if len(answers) != 1:
            raise ProtocolError("pir-lwe expects one answer")
        column = self._core.decode(unpack_words(
            answers[0], self._answer_drop, shape=(self.blob_size,)))
        return column.astype(np.uint8).tobytes()[: self.blob_size]


# --------------------------------------------------------------------------
# enclave-oram
# --------------------------------------------------------------------------

ENCLAVE = backend.declare_backend(
    MODE_ENCLAVE, endpoints=1, preference=2,
    assumption="hardware (enclave protects secrets)",
    aliases=("enclave",),
    cost=BackendCost(servers_per_request=1, linear_scan=False,
                     note="polylog ORAM accesses inside the enclave"),
)


@ENCLAVE.server
class EnclaveModeServer:
    """Server half of ``enclave-oram``.

    The session key stands in for the secure channel a real client would
    establish with the enclave via remote attestation: the ZLTP *operator*
    relays only sealed payloads it cannot read, while the enclave's memory
    accesses go through Path ORAM (and are recorded for leakage tests).
    """

    name = MODE_ENCLAVE

    def __init__(self, database: BlobDatabase, session_key: Optional[bytes] = None,
                 rng: Optional[np.random.Generator] = None):
        self.session_key = session_key if session_key is not None else aead.generate_key()
        self.enclave = SimulatedEnclave(
            database.domain_bits, database.blob_size, rng=rng
        )
        for slot in database.occupied_slots():
            self.enclave.oblivious_write(slot, database.get_slot(slot))
        self.domain_bits = database.domain_bits

    @classmethod
    def from_context(cls, database: BlobDatabase,
                     ctx: ServerContext) -> "EnclaveModeServer":
        """Registry hook: build the enclave server from a server context."""
        return cls(database, rng=ctx.rng)

    def hello_params(self) -> Dict[str, Any]:
        """Attestation stand-in: hand the client the session key."""
        # In deployment this would be an attestation transcript + key
        # exchange; here the simulated enclave hands the client its key.
        return {"session_key": self.session_key}

    def setup(self) -> Dict[str, Any]:
        """No one-time setup payload for the enclave mode."""
        return {}

    def answer(self, payload: bytes) -> bytes:
        """One GET: the batch of one."""
        return self.answer_batch([payload])[0]

    def answer_batch(self, payloads: List[bytes]) -> List[bytes]:
        """Per query: unseal the slot, read it obliviously, seal the record
        back (ORAM accesses are inherently per-request)."""
        if not self.enclave.sealed:
            raise AccessError(
                "enclave attestation failed (compromised); refusing to serve"
            )
        return [aead.seal(self.session_key,
                          self.enclave.oblivious_read(self._slot(payload)),
                          aad=b"zltp-enclave-a")
                for payload in payloads]

    def _slot(self, payload: bytes) -> int:
        """Unseal one query into the slot it asks for."""
        raw = aead.open_sealed(self.session_key, payload, aad=b"zltp-enclave-q")
        if len(raw) != 8:
            raise ProtocolError("enclave query must be an 8-byte slot")
        (slot,) = struct.unpack("<Q", raw)
        return slot


@ENCLAVE.client
class EnclaveModeClient:
    """Client half of ``enclave-oram``: slot sealed in, record sealed out."""

    name = MODE_ENCLAVE
    endpoints = 1

    def __init__(self, hello_params: Dict[str, Any]):
        self.session_key = param(hello_params, "session_key", bytes)

    @classmethod
    def from_hello(cls, domain_bits: int, blob_size: int,
                   hello_params: Dict[str, Any], setup: Dict[str, Any],
                   rng: Optional[np.random.Generator] = None) -> "EnclaveModeClient":
        """Registry hook: build the client from the hello exchange."""
        return cls(hello_params)

    def queries_for_slot(self, slot: int) -> List[bytes]:
        """Seal the slot number to the enclave."""
        raw = struct.pack("<Q", slot)
        return [aead.seal(self.session_key, raw, aad=b"zltp-enclave-q")]

    def decode(self, answers: List[bytes]) -> bytes:
        """Unseal the enclave's answer into the record."""
        if len(answers) != 1:
            raise ProtocolError("enclave-oram expects one answer")
        return aead.open_sealed(self.session_key, answers[0], aad=b"zltp-enclave-a")


__all__ = [
    "MODE_PIR2",
    "MODE_PIR_LWE",
    "MODE_ENCLAVE",
    "ALL_MODES",
    "mode_endpoints",
    "negotiate",
    "pack_u32",
    "unpack_u32",
    "Pir2ModeServer",
    "Pir2ModeClient",
    "LweModeServer",
    "LweModeClient",
    "EnclaveModeServer",
    "EnclaveModeClient",
]
