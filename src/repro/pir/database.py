"""The packed blob store that every ZLTP mode of operation scans.

A ZLTP server "holds a list of key-value pairs where each key is an
arbitrary string, and each value is a fixed-length binary blob" (§2). This
module is the value side: ``2**domain_bits`` slots of exactly ``blob_size``
bytes, packed into a contiguous uint64 matrix so the per-request linear scan
(§5.1's dominant cost) runs as vectorised XOR reductions rather than a
Python loop — our stand-in for the paper's AVX scan.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable

import numpy as np

from repro.errors import CapacityError, CryptoError

MAX_DOMAIN_BITS = 30

#: A lone request walks storage in blocks of this many bytes: one gather
#: of the selected rows (about half the block), one reduction and one
#: ``^=`` per block. A group of ``g`` requests walks blocks of
#: ``SCAN_BLOCK_BYTES << (g - 1)``, cut into ``2**g - 1`` buckets, so every
#: gather stays about half of this size whatever the batch (DESIGN.md,
#: *Block size*). At 1 MiB the gathered copy stays in L2, and each call
#: runs long enough without the GIL for another thread to work. Chosen by
#: sweep (2-core reference box, 2 MiB L2 per core; one scan of 2^11 x
#: 64 KiB, then a batch of 16 over 2^14 x 4 KiB, one request at a time):
#: 256 KiB -> 12.5 / 48.3 ms, 512 KiB -> 9.3 / 41.1, 1 MiB -> 8.5 / 39.4,
#: 2 MiB -> 8.9 / 54.1, 4 MiB -> 11.5 / 64.1. Smaller blocks pay the
#: per-call cost, and a GIL handoff, more often; larger ones spill to DRAM.
SCAN_BLOCK_BYTES = 1 << 20

#: A batch is answered in groups of at most this many requests, sized to
#: differ by at most one (10 = 3+3+2+2). Within a block, each row goes to
#: the bucket named by which members of its group select it, and each
#: bucket is gathered and reduced once: a group reads ``1 - 2**-g`` of a
#: block instead of ``g / 2`` blocks. Chosen end to end on ``browse_pir2``
#: (DESIGN.md, *Which kernel*): a group makes three calls per bucket,
#: ``3 * (2**g - 1)`` per block, and each call is a GIL handoff between
#: the two parties. At most 8: a row's pattern is one byte.
SCAN_GROUP = 3


class BlobDatabase:
    """Fixed-size-blob storage over a power-of-two index domain.

    Attributes:
        domain_bits: log2 of the slot count.
        blob_size: exact size of every stored blob in bytes.
    """

    def __init__(self, domain_bits: int, blob_size: int):
        """Allocate an all-zero database.

        Args:
            domain_bits: log2 of the number of slots (1..30).
            blob_size: fixed blob length in bytes (>= 1).
        """
        if not 1 <= domain_bits <= MAX_DOMAIN_BITS:
            raise CryptoError(f"domain_bits must be in [1, {MAX_DOMAIN_BITS}]")
        if blob_size < 1:
            raise CryptoError("blob_size must be at least 1 byte")
        self.domain_bits = domain_bits
        self.blob_size = blob_size
        self._words = (blob_size + 7) // 8
        self._storage = np.zeros((1 << domain_bits, self._words), dtype=np.uint64)
        #: One flag per slot: a shard's flags are a slice, like its rows.
        self._occupied = np.zeros(1 << domain_bits, dtype=bool)
        #: Selection vectors answered — one per request, on *every* scan
        #: path, so batched load is not under-reported (§5.1 accounting).
        self.scan_count = 0
        #: Walks over the backing storage; a single-pass batch is one walk.
        self.scan_passes = 0
        #: Storage rows visited across all walks (each pass touches every
        #: row — the linear cost §5.1 charges per request, amortised by
        #: batching).
        self.rows_scanned = 0
        #: Bumped on every write; lets snapshotting consumers (the LWE and
        #: enclave mode servers) detect staleness and rebuild.
        self.version = 0

    @classmethod
    def view_over(cls, storage: np.ndarray, blob_size: int) -> "BlobDatabase":
        """Wrap existing packed-uint64 storage, zero-copy and read-only.

        Shards (:meth:`sub_database`) get the full scan surface this way
        over a buffer someone else owns. The view holds a non-writeable
        numpy view, so the caller's array stays writable while
        :meth:`set_slot`/:meth:`clear_slot` on the view raise
        :class:`CryptoError`: writes go through the owner and bump its
        ``version``. The owner's writes show through at once, even
        mid-scan. No slot reads as occupied unless :meth:`sub_database`
        supplies the owner's flags.

        Args:
            storage: ``(2**k, words)`` C-contiguous uint64 array.
            blob_size: the blob length the row width must accommodate.
        """
        storage = np.asarray(storage)
        if (storage.ndim != 2 or storage.dtype != np.uint64
                or not storage.flags.c_contiguous):
            raise CryptoError(
                "storage view must be a C-contiguous 2-D uint64 array")
        n_rows, words = storage.shape
        domain_bits = n_rows.bit_length() - 1
        if not 1 <= domain_bits <= MAX_DOMAIN_BITS or n_rows != 1 << domain_bits:
            raise CryptoError(
                f"storage rows must be a power of two in [2, 2**{MAX_DOMAIN_BITS}],"
                f" got {n_rows}")
        if blob_size < 1 or words != (blob_size + 7) // 8:
            raise CryptoError(
                f"storage is {words} words wide; blob_size {blob_size} needs "
                f"{(blob_size + 7) // 8}")
        db = cls.__new__(cls)
        db.domain_bits = domain_bits
        db.blob_size = blob_size
        db._words = words
        db._storage = storage.view()
        db._storage.flags.writeable = False
        db._occupied = np.broadcast_to(False, (n_rows,))
        db.scan_count = 0
        db.scan_passes = 0
        db.rows_scanned = 0
        db.version = 0
        return db

    def packed_words(self) -> np.ndarray:
        """The backing ``(n_slots, words)`` uint64 storage (do not mutate).

        Exposed so a caller can read the packed layout wholesale instead
        of round-tripping through per-slot byte strings, or check with
        ``np.shares_memory`` that a shard is a view of its owner.
        """
        return self._storage

    @property
    def n_slots(self) -> int:
        """Total number of slots."""
        return 1 << self.domain_bits

    @property
    def n_occupied(self) -> int:
        """Number of slots that have been written."""
        return int(np.count_nonzero(self._occupied))

    @property
    def load_factor(self) -> float:
        """Fraction of slots written."""
        return self.n_occupied / self.n_slots

    def memory_bytes(self) -> int:
        """Bytes of backing storage (the 1 GiB-per-shard figure of §5.2)."""
        return self._storage.nbytes

    def _check_index(self, index: int, write: bool = False) -> None:
        if write and not self._storage.flags.writeable:
            raise CryptoError("database is a read-only view; write its owner")
        if not 0 <= index < self.n_slots:
            raise CryptoError(f"slot {index} out of range [0, {self.n_slots})")

    def set_slot(self, index: int, data: bytes) -> None:
        """Write a blob into a slot, zero-padding up to ``blob_size``.

        Raises:
            CapacityError: if ``data`` is longer than the fixed blob size —
                over-long values must be chunked by the caller (the paper's
                "next link" continuation, §5).
            CryptoError: on a read-only view (:meth:`view_over`).
        """
        self._check_index(index, write=True)
        if len(data) > self.blob_size:
            raise CapacityError(
                f"blob of {len(data)} bytes exceeds fixed size {self.blob_size}"
            )
        padded = data.ljust(self._words * 8, b"\x00")
        self._storage[index] = np.frombuffer(padded, dtype="<u8")
        self._occupied[index] = True
        self.version += 1

    def get_slot(self, index: int) -> bytes:
        """Read the blob at a slot (zero blob if never written)."""
        self._check_index(index)
        return self._storage[index].astype("<u8").tobytes()[: self.blob_size]

    def clear_slot(self, index: int) -> None:
        """Zero a slot and mark it unoccupied (not on a read-only view)."""
        self._check_index(index, write=True)
        self._storage[index] = 0
        self._occupied[index] = False
        self.version += 1

    def is_occupied(self, index: int) -> bool:
        """Whether the slot has been written."""
        return 0 <= index < self.n_slots and bool(self._occupied[index])

    def occupied_slots(self) -> Iterable[int]:
        """Iterate over written slot indices, in order."""
        return iter(np.flatnonzero(self._occupied).tolist())

    def xor_scan(self, select_bits: np.ndarray) -> bytes:
        """XOR together the blobs selected by a share-bit vector.

        This is the server's half of a two-server PIR answer: ``select_bits``
        is one party's full-domain DPF evaluation. The scan touches every
        selected row — the linear cost at the heart of the paper's §5.1
        accounting. It is :meth:`xor_scan_batch` of one.

        Args:
            select_bits: ``(n_slots,)`` array of 0/1 share bits.

        Returns:
            ``blob_size`` bytes — this party's XOR share of the answer.
        """
        select_bits = np.asarray(select_bits)
        if select_bits.shape != (self.n_slots,):
            raise CryptoError(
                f"select_bits must have shape ({self.n_slots},), got {select_bits.shape}"
            )
        return self.xor_scan_batch(select_bits[None])[0]

    def _validate_select_matrix(self, select_matrix) -> np.ndarray:
        select_matrix = np.asarray(select_matrix)
        if select_matrix.ndim != 2 or select_matrix.shape[1] != self.n_slots:
            raise CryptoError(
                f"select_matrix must be (batch, {self.n_slots}), got {select_matrix.shape}"
            )
        return select_matrix

    def xor_scan_batch(self, select_matrix: np.ndarray) -> list:
        """Answer many selection vectors in ONE pass over the database.

        The §5.1 batching optimisation: storage is walked block by block
        exactly once per batch, and while a block is cache-hot every
        request in the batch consumes it. The requests are taken in
        balanced groups of up to :data:`SCAN_GROUP`. Within a block, a
        row's bucket is the bit pattern of which group members select it;
        each non-zero bucket is gathered and reduced once, and a member's
        share is the XOR of the bucket sums whose pattern has its bit set.
        A group of ``g`` thus reads ``1 - 2**-g`` of each block rather
        than ``g / 2`` blocks, and precomputes nothing (unlike a
        Four-Russians table, ROADMAP item 4).

        Blocks are the outer loop and groups the inner, so a database
        larger than the cache still streams from memory once per batch.
        The walk branches on no share bit: every bucket is gathered and
        reduced, an empty one to zero, and the bucket sizes go nowhere.
        A batch of one (what :meth:`xor_scan` runs) makes the calls a
        lone request always made: one gather, one reduction and one
        ``^=`` per :data:`SCAN_BLOCK_BYTES` block, and nothing else that
        runs a numpy loop but the bool copy and the answer's bytes.

        Args:
            select_matrix: ``(batch, n_slots)`` array of 0/1 share bits.

        Returns:
            List of ``batch`` byte strings, one XOR share per selection row.
        """
        select_matrix = self._validate_select_matrix(select_matrix)
        batch = select_matrix.shape[0]
        self.scan_count += batch
        if batch == 0:
            return []
        self.scan_passes += 1
        self.rows_scanned += self.n_slots
        select = np.ascontiguousarray(select_matrix, dtype=bool)
        groups = _group_plan(batch, SCAN_GROUP)
        unit = max(1, SCAN_BLOCK_BYTES // (self._words * 8))
        # A group of `size` walks each block in pieces of
        # `unit << (size - 1)` rows, so every gather is about half of
        # SCAN_BLOCK_BYTES; its bucket p sums into row `first + p - 1`.
        walks = [(first, unit << (size - 1), _bucket_masks(select[requests]))
                 for requests, first, size, _ in groups]
        sums = np.zeros((sum((1 << size) - 1 for _, _, size, _ in groups),
                         self._words), dtype=np.uint64)
        block_rows = unit << (groups[0][2] - 1)
        for start in range(0, self.n_slots, block_rows):
            stop = min(start + block_rows, self.n_slots)
            for first, step, masks in walks:
                for piece in range(start, stop, step):
                    rows = slice(piece, piece + step)
                    block = self._storage[rows]
                    for row, mask in enumerate(masks, first):
                        sums[row] ^= np.bitwise_xor.reduce(block[mask[rows]],
                                                           axis=0)
        shares = []
        for _, _, _, member_rows in groups:
            for rows in member_rows:
                share = sums[rows[0]]
                for row in rows[1:]:
                    share = share ^ sums[row]
                shares.append(share.astype("<u8").tobytes()[: self.blob_size])
        return shares

    def xor_scan_batch_per_row(self, select_matrix: np.ndarray) -> list:
        """Per-row reference batch scan: one full database stream per request.

        Kept as the baseline the E9 benchmark and the equivalence tests
        compare the single-pass :meth:`xor_scan_batch` against; its counter
        accounting reflects its real cost (one pass per request).
        """
        select_matrix = self._validate_select_matrix(select_matrix)
        batch = select_matrix.shape[0]
        self.scan_count += batch
        self.scan_passes += batch
        self.rows_scanned += self.n_slots * batch
        return [np.bitwise_xor.reduce(self._storage[row.astype(bool)], axis=0)
                .astype("<u8").tobytes()[: self.blob_size]
                for row in select_matrix]

    @property
    def amortized_rows_per_request(self) -> float:
        """Rows streamed per answered request — batching drives this down."""
        return self.rows_scanned / self.scan_count if self.scan_count else 0.0

    def sub_database(self, prefix: int, prefix_bits: int) -> "BlobDatabase":
        """The shard holding indices with the given top-bit prefix, as a view.

        Used by §5.2 sharding: shard ``prefix`` of ``2**prefix_bits`` holds
        the contiguous index range whose top ``prefix_bits`` bits equal
        ``prefix``. That range is a row slice of this database's storage,
        so the shard is a zero-copy, read-only :meth:`view_over` it, with
        the matching slice of the occupancy flags: a party holds its data
        once however many shards it serves, and a shard sees every write
        to this database immediately.
        """
        if not 0 <= prefix_bits <= self.domain_bits:
            raise CryptoError("prefix_bits out of range")
        if not 0 <= prefix < (1 << prefix_bits):
            raise CryptoError("prefix out of range")
        sub_bits = self.domain_bits - prefix_bits
        if sub_bits == 0:
            raise CryptoError("shard would have a single slot; use fewer shards")
        rows = slice(prefix << sub_bits, (prefix + 1) << sub_bits)
        shard = BlobDatabase.view_over(self._storage[rows], self.blob_size)
        shard._occupied = self._occupied[rows]
        return shard

    def as_byte_matrix(self) -> np.ndarray:
        """View the database as a ``(blob_size, n_slots)`` byte matrix.

        This is the layout the LWE single-server mode consumes: record
        ``j`` is column ``j``; each row holds one byte position across all
        records.
        """
        flat = self._storage.astype("<u8").view(np.uint8)
        return flat.reshape(self.n_slots, self._words * 8)[:, : self.blob_size].T.copy()


#: Each request's bit in its group's row pattern, as a column, and the
#: non-zero patterns, as a column: a group has at most eight members.
_MEMBER_BIT = np.arange(8, dtype=np.uint8)[:, None]
_PATTERNS = np.arange(1, 256, dtype=np.uint8)[:, None]


def _bucket_masks(select: np.ndarray) -> list:
    """One row mask per non-zero bucket of a group's ``(size, n)`` share
    bits: bucket p holds the rows whose members' bits spell p. A lone
    request's one bucket is its own share bits, so it costs no call."""
    size = len(select)
    if size == 1:
        return [select[0]]
    bits = select.view(np.uint8) << _MEMBER_BIT[:size]
    pattern = np.bitwise_or.reduce(bits, axis=0)
    return list(pattern == _PATTERNS[:(1 << size) - 1])


@lru_cache(maxsize=64)
def _group_plan(batch: int, group: int) -> tuple:
    """How :meth:`BlobDatabase.xor_scan_batch` groups ``batch`` requests.

    Groups hold at most ``group`` requests and differ in size by at most
    one, largest first. Per group: its requests (a slice), the row of its
    bucket-1 sum (bucket p's is ``p - 1`` rows on), its size, and per
    member the sum rows its share XORs (the buckets with its bit set).
    """
    n_groups = -(-batch // group)
    sizes = [batch // n_groups + (g < batch % n_groups)
             for g in range(n_groups)]
    groups = []
    request = first = 0
    for size in sizes:
        member_rows = tuple(
            tuple(first + p - 1 for p in range(1, 1 << size) if p >> j & 1)
            for j in range(size))
        groups.append((slice(request, request + size), first, size,
                       member_rows))
        request += size
        first += (1 << size) - 1
    return tuple(groups)


__all__ = ["BlobDatabase"]
