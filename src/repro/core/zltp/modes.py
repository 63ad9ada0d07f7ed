"""ZLTP modes of operation (§2.2): the three built-in backend registrations.

Each mode supplies a server half (turn an opaque query payload into an
opaque answer payload over the blob database) and a client half (build the
query payloads for a slot, decode the answer payloads into the record).
Both halves are thin adapters over the real engines in
:mod:`repro.pir.twoserver`, :mod:`repro.pir.singleserver` /
:mod:`repro.crypto.lwe`, and :mod:`repro.oram.enclave`, registered with
the :mod:`repro.core.backend` registry — which is the single source of
truth for mode names, endpoint counts, and negotiation preference order.
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
from typing import Any, Dict, List, Optional

import numpy as np

from repro.core import backend
from repro.core.backend import (
    BackendCost,
    ServerContext,
    create_client,
    create_server,
    mode_endpoints,
    negotiate,
)
from repro.crypto import aead
from repro.crypto.dpf import gen_dpf_batch
from repro.crypto.lwe import LweParams, LwePirClient, LwePirServer
from repro.errors import ProtocolError
from repro.oram.enclave import SimulatedEnclave
from repro.pir.codec import pack_u64, unpack_u64
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
    :class:`~repro.pir.sharding.ShardedPartyServer` front-end fanning
    shard scans out through the scan engine — behind the same wire
    surface.
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

            core = ShardedPartyServer(database, int(prefix_bits), ctx.party,
                                      executor=ctx.options.get("executor"))
            return cls(database, ctx.party, core=core)
        return cls(database, ctx.party)

    def hello_params(self) -> Dict[str, Any]:
        """Mode parameters for the ServerHello."""
        return {"party": self.party}

    def setup(self) -> Dict[str, Any]:
        """One-time setup payload (none for pir2)."""
        return {}

    def answer(self, payload: bytes) -> bytes:
        """Evaluate the DPF key and scan; return this party's XOR share."""
        return self._pir.answer(payload)

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
        """One DPF key per server for every slot, dealt in one batch."""
        return [
            [key0.to_bytes(), key1.to_bytes()]
            for key0, key1 in gen_dpf_batch(slots, self.domain_bits,
                                            rng=self._rng)
        ]

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


@PIR_LWE.server
class LweModeServer:
    """Server half of ``pir-lwe``: answers are one matrix-vector product."""

    name = MODE_PIR_LWE

    def __init__(self, database: BlobDatabase, params: Optional[LweParams] = None,
                 seed: int = 7):
        self.params = params if params is not None else LweParams()
        matrix = database.as_byte_matrix().astype(np.uint64)
        self._core = LwePirServer(matrix, params=self.params, seed=seed)
        self.blob_size = database.blob_size

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
        return {
            "hint": pack_u64(self._core.hint()),
            "a_matrix": pack_u64(self._core.a_matrix),
        }

    def answer(self, payload: bytes) -> bytes:
        """One matrix-vector product over the database matrix."""
        query = unpack_u64(payload)
        if query.ndim != 1:
            raise ProtocolError("LWE query must be a vector")
        return pack_u64(self._core.answer(query))

    def answer_batch(self, payloads: List[bytes]) -> List[bytes]:
        """No cross-request amortisation for LWE; answer one by one."""
        return [self.answer(payload) for payload in payloads]


@PIR_LWE.client
class LweModeClient:
    """Client half of ``pir-lwe``; requires the setup payload first."""

    name = MODE_PIR_LWE
    endpoints = 1

    def __init__(self, blob_size: int, hello_params: Dict[str, Any],
                 setup: Dict[str, Any],
                 rng: Optional[np.random.Generator] = None):
        params = LweParams(
            n=int(hello_params["n"]),
            p=int(hello_params["p"]),
            noise_bound=int(hello_params["noise_bound"]),
        )
        self.blob_size = blob_size
        self._core = LwePirClient(
            unpack_u64(setup["a_matrix"]), unpack_u64(setup["hint"]),
            params=params, rng=rng,
        )

    @classmethod
    def from_hello(cls, domain_bits: int, blob_size: int,
                   hello_params: Dict[str, Any], setup: Dict[str, Any],
                   rng: Optional[np.random.Generator] = None) -> "LweModeClient":
        """Registry hook: build the client from the hello + setup payloads."""
        return cls(blob_size, hello_params, setup, rng=rng)

    def queries_for_slot(self, slot: int) -> List[bytes]:
        """One LWE query vector for the single server."""
        return [pack_u64(self._core.query(slot))]

    def decode(self, answers: List[bytes]) -> bytes:
        """Strip the noise and recover the record bytes."""
        if len(answers) != 1:
            raise ProtocolError("pir-lwe expects one answer")
        column = self._core.decode(unpack_u64(answers[0]))
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
        """Unseal the slot, read it obliviously, seal the record back."""
        if not self.enclave.sealed:
            from repro.errors import AccessError

            raise AccessError(
                "enclave attestation failed (compromised); refusing to serve"
            )
        raw = aead.open_sealed(self.session_key, payload, aad=b"zltp-enclave-q")
        if len(raw) != 8:
            raise ProtocolError("enclave query must be an 8-byte slot")
        (slot,) = struct.unpack("<Q", raw)
        record = self.enclave.oblivious_read(slot)
        return aead.seal(self.session_key, record, aad=b"zltp-enclave-a")

    def answer_batch(self, payloads: List[bytes]) -> List[bytes]:
        """ORAM accesses are inherently per-request; answer one by one."""
        return [self.answer(payload) for payload in payloads]


@ENCLAVE.client
class EnclaveModeClient:
    """Client half of ``enclave-oram``: slot sealed in, record sealed out."""

    name = MODE_ENCLAVE
    endpoints = 1

    def __init__(self, hello_params: Dict[str, Any]):
        self.session_key = hello_params["session_key"]

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


# --------------------------------------------------------------------------
# Factories (compatibility veneer over the registry)
# --------------------------------------------------------------------------


def make_mode_server(mode: str, database: BlobDatabase, party: int = 0,
                     lwe_params: Optional[LweParams] = None,
                     rng: Optional[np.random.Generator] = None):
    """Build the server half of a mode over a blob database."""
    return create_server(mode, database, party=party, lwe_params=lwe_params,
                         rng=rng)


def make_mode_client(mode: str, domain_bits: int, blob_size: int,
                     hello_params: Dict[str, Any], setup: Dict[str, Any],
                     rng: Optional[np.random.Generator] = None):
    """Build the client half of a negotiated mode."""
    return create_client(mode, domain_bits, blob_size, hello_params, setup,
                         rng=rng)


__all__ = [
    "MODE_PIR2",
    "MODE_PIR_LWE",
    "MODE_ENCLAVE",
    "ALL_MODES",
    "mode_endpoints",
    "negotiate",
    "pack_u64",
    "unpack_u64",
    "Pir2ModeServer",
    "Pir2ModeClient",
    "LweModeServer",
    "LweModeClient",
    "EnclaveModeServer",
    "EnclaveModeClient",
    "make_mode_server",
    "make_mode_client",
]
