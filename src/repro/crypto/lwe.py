"""Single-server PIR from learning-with-errors (the paper's alternative mode).

§2.2: "Schemes whose security rests only on cryptographic assumptions also
exist, but these have higher communication and computation costs [7, 35]."
We implement such a scheme so ZLTP can actually negotiate it: a SimplePIR-
style construction (Henzinger et al.) from the plain LWE assumption.

The database is arranged as an ``r x c`` matrix of Z_p entries. A query for
column ``j`` is an LWE encryption of the unit vector ``e_j`` scaled by
``Δ = q/p``; the server's answer is one matrix-vector product; the client
removes the ``H·s`` mask using the *hint* ``H = DB·A`` it downloaded once
and rounds away the noise. Per query the server does O(r·c) word operations
— linear in the database, like the DPF scan, but with only ONE server and no
non-collusion assumption, at the cost of the large one-time hint download.

All arithmetic is mod ``q = 2**32``, and every Z_q array (``A``, the hint,
the database matrix, secrets, queries and answers) is held as uint32, so
the wrap-around of uint32 arithmetic *is* the reduction mod ``q``. The three
per-query mat-vecs (the client's ``A·s``, the server's ``DB·q`` and the
client's ``H·s``) are uint32 ``np.einsum`` calls, which numpy runs on its
vectorised integer loops; a uint64 ``@`` has no such path and took 2.2 to
2.6 times as long per call (DESIGN.md has the numbers). Two of the three,
``A·s`` and ``H·s``, depend only on the query's fresh secret, never on the
column: :meth:`LwePirClient.prepare` runs them ahead, off the page's
critical path (a ZLTP client does it while the previous burst is on the
wire), and only ``Δ·e_column`` and the mask's subtraction stay on it. The
server's ``DB·q`` is the one left on the path. The hint is one
matrix product, too big for numpy's integer loops (which do not use BLAS),
so :func:`hint_product` runs it on float64 GEMM, exactly: every partial
sum of ``DB · A`` (or, past that bound, of ``DB`` times a 16-bit limb of
``A``) is an integer below ``2**53``.

``A`` is public and pseudorandom, so it never travels: server and client
each expand it from one integer seed with :func:`public_matrix`, and the
set-up carries the seed and the hint only.

Decoding tolerates any error below ``Δ/2``, and at most geometries the LWE
noise uses a small part of that. :func:`rounding_bits` spends the rest:
a query word may be rounded to a multiple of ``2**kq`` and an answer word
to a multiple of ``2**ka`` (modulus switching), so only their top
``32 - kq`` and ``32 - ka`` bits travel. Rounding is public
post-processing of a ciphertext or an answer; the math here stays exact.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, List, Optional, Tuple

import numpy as np

from repro.errors import CryptoError

_Q_BITS = 32
_Q = 1 << _Q_BITS
_LIMB_BITS = 16
_LIMB_MASK = (1 << _LIMB_BITS) - 1
#: float64 represents every integer below this exactly.
_EXACT_BOUND = 1 << 53
#: Columns of ``A`` per block in :func:`hint_product`: bounds the float64
#: working set (a ``cols x 64`` limb block and its product).
_HINT_BLOCK = 64


@dataclass(frozen=True)
class LweParams:
    """Parameters for the LWE PIR scheme.

    Attributes:
        n: LWE secret dimension (security parameter; >=512 for real security,
            smaller in tests for speed — correctness is unaffected).
        p: plaintext modulus; database entries live in Z_p.
        noise_bound: errors are sampled uniformly from
            ``[-noise_bound, noise_bound]``.
    """

    n: int = 512
    p: int = 256
    noise_bound: int = 4

    def __post_init__(self):
        if self.n < 1:
            raise CryptoError("n must be positive")
        if not 2 <= self.p <= 2**16:
            raise CryptoError("p must be in [2, 2^16]")
        if self.noise_bound < 1:
            raise CryptoError("noise_bound must be at least 1")

    @property
    def delta(self) -> int:
        """The scaling factor Δ = q / p."""
        return _Q // self.p

    def max_columns(self) -> int:
        """Largest column count with guaranteed correct decryption, 0 if
        not even one column decodes.

        Decryption needs ``|DB·e| < Δ/2``; each of the ``c`` summands is at
        most ``(p-1)·noise_bound``.
        """
        per_term = (self.p - 1) * self.noise_bound
        return (self.delta // 2 - 1) // per_term


def rounding_bits(p: int, noise_bound: int, columns: int) -> Tuple[int, int]:
    """Low bits ``(kq, ka)`` a query word and an answer word may drop.

    A query word is rounded to the nearest multiple of ``2**kq`` and an
    answer word to the nearest multiple of ``2**ka``; each rounding adds at
    most ``2**(k-1)`` (0 at ``k = 0``). With database entries below ``p``
    and query noise in ``[-noise_bound, noise_bound]``, the answer's error
    is then at most ``columns·(p-1)·(noise_bound + 2**(kq-1)) + 2**(ka-1)``,
    which must stay below ``Δ/2`` for decoding to round to the right
    value. ``2**kq`` must also divide ``Δ``, so the rounded query still
    carries ``Δ·e_slot`` whole.

    Among the pairs meeting both conditions this returns the one that
    drops the most bits per query word plus answer word, the larger
    ``kq`` on a tie (a query has a word per slot, usually more words than
    an answer's one per blob byte). At ``fetch_lwe``'s geometry (p = 256,
    noise_bound = 4, 1,024 columns) that is ``(5, 22)``: 27-bit query
    words and 10-bit answer words.

    Raises:
        CryptoError: if no pair decodes: ``columns`` is past
            :meth:`LweParams.max_columns`, or not even one column decodes
            at ``p`` and ``noise_bound``.
    """
    delta = _Q // p
    twos_in_delta = (delta & -delta).bit_length() - 1
    noise = columns * (p - 1)
    best = None
    for kq in range(min(twos_in_delta, _Q_BITS - 1) + 1):
        # Twice the worst error must stay below Δ; this is what is left
        # of Δ for twice the answer's rounding, 2**ka.
        room = delta - 2 * noise * (noise_bound + ((1 << kq) >> 1))
        if room <= 0:
            break
        ka = min(max((room - 1).bit_length() - 1, 0), _Q_BITS - 1)
        if best is None or kq + ka >= sum(best):
            best = (kq, ka)
    if best is None:
        raise CryptoError(
            f"{columns} columns at p = {p}, noise_bound = {noise_bound} "
            "leave no decoding margin")
    return best


def _zq(x) -> np.ndarray:
    """``x`` as uint32 Z_q words; truncating a wider integer is its
    reduction mod ``q``."""
    return np.asarray(x).astype(np.uint32, copy=False)


def _matvec(matrix: np.ndarray, vector: np.ndarray) -> np.ndarray:
    """``matrix · vector mod q`` for uint32 operands."""
    return np.einsum("ij,j->i", matrix, vector)


def _read_only(x: np.ndarray) -> np.ndarray:
    x.flags.writeable = False
    return x


def public_matrix(seed: int, cols: int, n: int) -> np.ndarray:
    """The public ``(cols, n)`` matrix ``A`` expanded from ``seed``.

    The draw is ``default_rng(seed).integers(0, 2**32, (cols, n), uint64)``
    cast to uint32, so a seed names the same ``A`` on every host and numpy
    version that keeps ``PCG64``'s stream.
    """
    rng = np.random.default_rng(seed)
    return _zq(rng.integers(0, _Q, size=(cols, n), dtype=np.uint64))


def hint_product(db: np.ndarray, a_matrix: np.ndarray) -> np.ndarray:
    """``DB · A mod q`` for a Z_p database, exactly, on float64 GEMM.

    Each entry of ``DB · A`` is a sum of ``cols`` products below
    ``max(DB) · (2**32 - 1)``. While ``cols · max(DB) · (2**32 - 1) <
    2**53`` (at ``fetch_lwe``'s 1,024 columns of bytes it is ~2**50)
    every partial sum is an integer float64 holds exactly, whatever order
    BLAS adds in, so one GEMM per block gives the product. Past that bound
    ``A = lo + 2**16 · hi`` with 16-bit limbs and ``DB · A = DB · lo +
    2**16 · (DB · hi)``, whose partial sums stay below ``cols · (p - 1) ·
    (2**16 - 1) < 2**53`` (the caller checks). Limbs recombine in uint64,
    where wrapping mod ``2**64`` keeps the low 32 bits right before the
    cast to uint32. ``DB`` is cast to float64 once; ``A`` goes in blocks
    of :data:`_HINT_BLOCK` columns, so it never exists as a full float64
    copy.

    Args:
        db: ``(r, c)`` integer matrix of entries below ``p``.
        a_matrix: ``(c, n)`` uint32 matrix.

    Returns:
        The ``(r, n)`` uint32 product mod ``q``.
    """
    db_max = int(db.max()) if db.size else 0
    limb_bits = (_Q_BITS if db.shape[1] * db_max * (_Q - 1) < _EXACT_BOUND
                 else _LIMB_BITS)
    limb_mask = np.uint32((1 << limb_bits) - 1)
    db_f64 = db.astype(np.float64)
    product = np.empty((db.shape[0], a_matrix.shape[1]), dtype=np.uint32)
    for start in range(0, a_matrix.shape[1], _HINT_BLOCK):
        block = a_matrix[:, start:start + _HINT_BLOCK]
        total = np.zeros((db.shape[0], block.shape[1]), dtype=np.uint64)
        for shift in range(0, _Q_BITS, limb_bits):
            limb = (block >> np.uint32(shift)) & limb_mask
            total += (db_f64 @ limb.astype(np.float64)).astype(
                np.uint64) << np.uint64(shift)
        product[:, start:start + _HINT_BLOCK] = total
    return product


class LwePirServer:
    """The (single) server: holds the DB matrix and the public matrix A."""

    def __init__(self, db: np.ndarray, params: LweParams | None = None, seed: int = 7):
        """Create a server.

        Args:
            db: ``(r, c)`` array of integers in ``[0, p)``.
            params: scheme parameters.
            seed: seed of the public matrix ``A`` (:func:`public_matrix`);
                clients expand the same ``A`` from it.
        """
        self.params = params if params is not None else LweParams()
        db = np.asarray(db)
        if db.ndim != 2:
            raise CryptoError("db must be a 2-D matrix")
        if db.size and not 0 <= int(db.min()) <= int(db.max()) < self.params.p:
            raise CryptoError(f"db entries must be in [0, p = {self.params.p})")
        if db.shape[1] * (self.params.p - 1) * _LIMB_MASK >= _EXACT_BOUND:
            raise CryptoError(
                f"{db.shape[1]} columns at p = {self.params.p} overflow the "
                "exact float64 range of the hint product")
        if db.shape[1] > self.params.max_columns():
            raise CryptoError(
                f"{db.shape[1]} columns exceeds correctness bound "
                f"{self.params.max_columns()}; lower p or noise_bound"
            )
        self.db = _zq(db)
        self.a_matrix = public_matrix(seed, db.shape[1], self.params.n)
        self._hint = _read_only(hint_product(self.db, self.a_matrix))

    @property
    def shape(self) -> Tuple[int, int]:
        """The ``(rows, cols)`` database shape."""
        return self.db.shape

    def hint(self) -> np.ndarray:
        """The one-time client download ``H = DB · A mod q`` (r x n).

        Computed once, at construction, and moved forward by
        :meth:`update_column`; the array is read-only.
        """
        return self._hint

    def answer(self, query: np.ndarray) -> np.ndarray:
        """Answer a query vector: ``DB · query mod q`` (one linear scan)."""
        query = _zq(query)
        if query.shape != (self.db.shape[1],):
            raise CryptoError(
                f"query must have shape ({self.db.shape[1]},), got {query.shape}"
            )
        return _matvec(self.db, query)

    def update_column(self, column: int, new_values: np.ndarray
                      ) -> Tuple[int, np.ndarray]:
        """Replace one database column; returns a compact client hint delta.

        Publishers update blobs (§3.1 pushes); rather than forcing every
        client to re-download the full hint, the server applies the change
        and broadcasts ``(column, δ)`` with ``δ = new - old mod q`` — only
        ``rows`` words on the wire. Clients reconstruct the rank-1 hint
        increment ``δ ⊗ A[column]`` locally (they hold ``A``); the server
        moves its cached hint forward by the same increment.

        Args:
            column: which record changed.
            new_values: the column's new Z_p entries, shape ``(rows,)``.

        Returns:
            ``(column, delta_vector)`` — the broadcastable update.
        """
        new_values = np.asarray(new_values)
        if new_values.shape != (self.db.shape[0],):
            raise CryptoError(
                f"column must have shape ({self.db.shape[0]},), got "
                f"{new_values.shape}"
            )
        if new_values.size and not (
                0 <= int(new_values.min()) <= int(new_values.max()) < self.params.p):
            raise CryptoError(f"entries must be in [0, p = {self.params.p})")
        if not 0 <= column < self.db.shape[1]:
            raise CryptoError(f"column {column} out of range")
        new_values = _zq(new_values)
        delta = new_values - self.db[:, column]
        self.db = self.db.copy()
        self.db[:, column] = new_values
        self._hint = _read_only(
            self._hint + np.outer(delta, self.a_matrix[column]))
        return column, delta

    def query_bytes(self) -> int:
        """Upload size of one query in bytes: ``cols`` words of ``32 - kq``
        bits (:func:`rounding_bits`)."""
        kq, _ = self._rounding()
        return -(-self.db.shape[1] * (_Q_BITS - kq) // 8)

    def answer_bytes(self) -> int:
        """Download size of one answer in bytes: ``rows`` words of
        ``32 - ka`` bits (:func:`rounding_bits`)."""
        _, ka = self._rounding()
        return -(-self.db.shape[0] * (_Q_BITS - ka) // 8)

    def _rounding(self) -> Tuple[int, int]:
        """``(kq, ka)`` for this database's columns."""
        return rounding_bits(self.params.p, self.params.noise_bound,
                             self.db.shape[1])

    def hint_bytes(self) -> int:
        """Size of the one-time hint in bytes."""
        return self.db.shape[0] * self.params.n * 4


@dataclass
class _Prepared:
    """One query's slot-independent part: its fresh secret ``s``, the
    ciphertext body ``A·s + e`` (None once the query is built) and the
    decode mask ``H·s``."""

    secret: np.ndarray
    body: Optional[np.ndarray]
    mask: np.ndarray


class LwePirClient:
    """A client that can privately fetch any database column.

    Two of a fetch's three mat-vecs, ``A·s`` for the query and ``H·s`` for
    the decode, depend only on the query's fresh secret, never on the
    column. :meth:`prepare` does them ahead, into a pool, so a caller can
    run them while an earlier burst is on the wire; :meth:`query` then
    only adds ``Δ·e_column`` and :meth:`decode` only subtracts the stored
    mask.
    """

    def __init__(self, server_a: np.ndarray, hint: np.ndarray, params: LweParams | None = None,
                 rng: np.random.Generator | None = None):
        """Create a client from the server's public matrix and hint."""
        self.params = params if params is not None else LweParams()
        self.a_matrix = _zq(server_a)
        self.hint = _zq(hint)
        self._rng = rng if rng is not None else np.random.default_rng()
        # Prepared queries, taken oldest first by query().
        self._pool: List[_Prepared] = []
        # Sent queries, FIFO so several may be in flight; answers must come
        # back in query order.
        self._in_flight: Deque[_Prepared] = deque()

    def apply_hint_update(self, column: int, delta: np.ndarray) -> None:
        """Fold a server-broadcast ``(column, δ)`` update into the hint.

        The new hint is ``H + δ ⊗ A[column]``, so every prepared or
        in-flight mask ``H·s`` moves by ``δ·(A[column]·s)`` and decodes as
        if it had been computed from the new hint.
        """
        delta = _zq(delta)
        if delta.shape != (self.hint.shape[0],):
            raise CryptoError(
                f"delta must have shape ({self.hint.shape[0]},), got "
                f"{delta.shape}"
            )
        if not 0 <= column < self.a_matrix.shape[0]:
            raise CryptoError(f"column {column} out of range")
        a_row = self.a_matrix[column]
        self.hint = self.hint + np.outer(delta, a_row)
        for entry in (*self._pool, *self._in_flight):
            entry.mask = entry.mask + delta * np.einsum("j,j->", a_row,
                                                        entry.secret)

    def prepare(self, count: int) -> None:
        """Leave exactly ``count`` prepared queries in the pool.

        Each new entry draws its secret and then its noise, the draws
        :meth:`query` makes when the pool is empty, and computes ``A·s + e``
        and the mask ``H·s``. Entries past ``count`` (left from a larger
        burst) are dropped unused, so the pool never holds more than the
        public count it was last given. Nothing here depends on a column.
        """
        while len(self._pool) < count:
            self._pool.append(self._prepare_one())
        del self._pool[count:]

    def _prepare_one(self) -> _Prepared:
        params = self.params
        secret = _zq(self._rng.integers(0, _Q, size=params.n, dtype=np.uint64))
        noise = _zq(self._rng.integers(
            -params.noise_bound, params.noise_bound + 1,
            size=self.a_matrix.shape[0]))
        return _Prepared(secret, _matvec(self.a_matrix, secret) + noise,
                         _matvec(self.hint, secret))

    def query(self, column: int) -> np.ndarray:
        """Build an encrypted query for ``column``.

        Takes the oldest prepared query, or prepares one now if the pool is
        empty, and returns the vector to upload. Its mask waits for
        :meth:`decode`.
        """
        c = self.a_matrix.shape[0]
        if not 0 <= column < c:
            raise CryptoError(f"column {column} out of range [0, {c})")
        entry = self._pool.pop(0) if self._pool else self._prepare_one()
        query, entry.body = entry.body, None
        # Δ goes in as a one-hot over every position, never as a write at
        # the secret index.
        query += np.uint32(self.params.delta) * (np.arange(c) == column)
        self._in_flight.append(entry)
        return query

    def drop_in_flight(self) -> None:
        """Forget every query sent and not yet decoded: its answer is not
        coming (the server shed it), so no later decode may use its mask."""
        self._in_flight.clear()

    def decode(self, answer: np.ndarray) -> np.ndarray:
        """Recover the queried column (answers decode in query order)."""
        if not self._in_flight:
            raise CryptoError("decode called before query")
        masked = _zq(answer) - self._in_flight.popleft().mask
        # Round Δ-scaled values: nearest multiple of Δ, mod p.
        delta = self.params.delta
        # Work in int64 to express "nearest" around the wraparound cleanly.
        vals = ((masked.astype(np.float64) / delta) + 0.5).astype(np.int64)
        return (vals % self.params.p).astype(np.uint32)


__all__ = ["LweParams", "LwePirServer", "LwePirClient", "hint_product",
           "public_matrix", "rounding_bits"]
