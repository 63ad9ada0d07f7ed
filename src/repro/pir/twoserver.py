"""Two-server PIR from distributed point functions — the prototype's mode.

§2.2: "Our prototype uses one of the fastest known private-information-
retrieval schemes [12]. This scheme has very low communication cost: for a
single key-value lookup, the upload is logarithmic in the size of the key
space, and the download is linear in the size of retrieved value. The
downside is that this scheme requires the client to communicate with two
non-colluding servers."

Protocol, per fetch of slot ``alpha``:

1. client: ``gen_dpf(alpha, d)`` → key0, key1; sends key *b* to server *b*.
2. server *b*: expands its key over the full domain (``eval_dpf_full``) and
   XORs together the database blobs its share bits select (``xor_scan``).
3. client: XORs the two answers → the blob at ``alpha``.

Each server sees only a DPF key, which is computationally indistinguishable
from a key for any other index — that is the ZLTP security property (§2.1)
under the non-collusion assumption.

The server exposes a timed answer path so benchmark E1 can report the same
DPF-evaluation-vs-data-scan cost split the paper does (64 ms vs 103 ms of a
167 ms request).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.crypto.dpf import (
    DpfKey,
    eval_dpf_full,
    eval_dpf_full_batch,
    gen_dpf,
    key_wire_bytes,
)
from repro.errors import CryptoError
from repro.obs.trace import span
from repro.pir.database import BlobDatabase


@dataclass(frozen=True)
class ScanTiming:
    """Timing breakdown of one server-side answer (E1's quantities).

    Attributes:
        dpf_seconds: time spent in full-domain DPF evaluation.
        scan_seconds: time spent XOR-scanning the selected blobs.
    """

    dpf_seconds: float
    scan_seconds: float

    @property
    def total_seconds(self) -> float:
        """Total per-request server computation."""
        return self.dpf_seconds + self.scan_seconds

    @property
    def scan_fraction(self) -> float:
        """Fraction of the request spent scanning (paper: 103/167 ≈ 0.62)."""
        total = self.total_seconds
        return self.scan_seconds / total if total > 0 else 0.0


class TwoServerPirServer:
    """One of the two non-colluding ZLTP data servers."""

    def __init__(self, database: BlobDatabase, party: int):
        """Wrap a database as PIR server ``party`` (0 or 1)."""
        if party not in (0, 1):
            raise CryptoError("party must be 0 or 1")
        self.database = database
        self.party = party
        self.requests_served = 0

    def answer(self, key_bytes: bytes) -> bytes:
        """Answer one private-GET: full DPF expansion + XOR scan."""
        blob, _ = self.answer_timed(key_bytes)
        return blob

    def answer_timed(self, key_bytes: bytes) -> Tuple[bytes, ScanTiming]:
        """Answer one request and report the DPF/scan cost split."""
        key = DpfKey.from_bytes(key_bytes)
        self._check_key(key)
        with span("pir2.dpf_eval") as sp_dpf:
            bits = eval_dpf_full(key)
        with span("pir2.scan") as sp_scan:
            blob = self.database.xor_scan(bits)
        self.requests_served += 1
        return blob, ScanTiming(dpf_seconds=sp_dpf.elapsed,
                                scan_seconds=sp_scan.elapsed)

    def answer_batch(self, key_blobs: List[bytes]) -> List[bytes]:
        """Answer a batch of requests with one pass over the DPF tree levels
        and one pass over the database (§5.1 batching)."""
        if not key_blobs:
            return []
        with span("pir2.scan_batch", batch=len(key_blobs)):
            keys = [DpfKey.from_bytes(raw) for raw in key_blobs]
            for key in keys:
                self._check_key(key)
            answers = self.database.xor_scan_batch(eval_dpf_full_batch(keys))
        self.requests_served += len(keys)
        return answers

    def _check_key(self, key: DpfKey) -> None:
        if key.domain_bits != self.database.domain_bits:
            raise CryptoError(
                f"DPF domain 2^{key.domain_bits} does not match database "
                f"domain 2^{self.database.domain_bits}"
            )
        if key.party != self.party:
            raise CryptoError(f"key for party {key.party} sent to server {self.party}")


class TwoServerPirClient:
    """The client side: deals DPF keys and recombines the two answers."""

    def __init__(self, domain_bits: int, blob_size: int,
                 rng: Optional[np.random.Generator] = None):
        """Create a client for a database of ``2**domain_bits`` blobs."""
        self.domain_bits = domain_bits
        self.blob_size = blob_size
        self._rng = rng

    def query(self, index: int) -> Tuple[bytes, bytes]:
        """Build the per-server key pair for a private fetch of ``index``."""
        key0, key1 = gen_dpf(index, self.domain_bits, rng=self._rng)
        return key0.to_bytes(), key1.to_bytes()

    def reconstruct(self, answer0: bytes, answer1: bytes) -> bytes:
        """Combine the two servers' XOR shares into the fetched blob."""
        if len(answer0) != len(answer1):
            raise CryptoError("answer length mismatch between servers")
        a = np.frombuffer(answer0, dtype=np.uint8)
        b = np.frombuffer(answer1, dtype=np.uint8)
        return (a ^ b).tobytes()

    def fetch(self, index: int, server0: TwoServerPirServer,
              server1: TwoServerPirServer) -> bytes:
        """Convenience: run the whole protocol against two local servers."""
        k0, k1 = self.query(index)
        return self.reconstruct(server0.answer(k0), server1.answer(k1))

    def upload_bytes(self) -> int:
        """Total client upload per request (both keys)."""
        return 2 * key_wire_bytes(self.domain_bits)

    def download_bytes(self) -> int:
        """Total client download per request (both answers)."""
        return 2 * self.blob_size


def make_pair(database0: BlobDatabase, database1: BlobDatabase) -> Tuple[
        TwoServerPirServer, TwoServerPirServer]:
    """Wrap two replicas of the same database as a non-colluding pair."""
    if (database0.domain_bits, database0.blob_size) != (
        database1.domain_bits,
        database1.blob_size,
    ):
        raise CryptoError("the two replicas must have identical geometry")
    return TwoServerPirServer(database0, 0), TwoServerPirServer(database1, 1)


__all__ = ["TwoServerPirServer", "TwoServerPirClient", "ScanTiming", "make_pair"]
