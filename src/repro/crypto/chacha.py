"""A pure-numpy ChaCha20 block function, vectorised over many blocks at once.

The paper's prototype leans on AVX vector instructions to make the per-request
linear scan and DPF evaluation fast (§5, "Implementation and experiment
setup"). We get the same effect in Python by evaluating ChaCha20 on *batches*
of states with numpy: one call computes the keystream block for thousands of
independent (key, nonce, counter) triples. This is what makes full-domain DPF
evaluation tractable at the domain sizes our benchmarks use.

The implementation follows RFC 8439: a 4x4 state of 32-bit words
(constants | key | counter, nonce), 20 rounds arranged as 10 column/diagonal
double rounds, and a final feed-forward addition of the input state.

Layout is the one SIMD implementations use, with numpy's batch axis in the
place of the vector register: the state is four *rows* of shape
``(4 lanes, n blocks)``, so one quarter-round call covers all four columns
of every block, and rotating rows 1-3 by one, two and three lanes turns the
same call into the diagonal round. A block costs ~470 numpy dispatches at
any width, which is the whole cost below a few hundred blocks; wide calls
are cut into :data:`BLOCK_WIDTH`-block slabs so the eight working rows stay
cache-resident through all twenty rounds.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.errors import CryptoError

#: The ASCII constants "expa" "nd 3" "2-by" "te k" as little-endian words,
#: shaped as state row 0 (one lane per word, broadcast over blocks).
CONSTANTS = np.array(
    [0x61707865, 0x3320646E, 0x79622D32, 0x6B206574], dtype=np.uint32
).reshape(4, 1)

#: Blocks per slab. Eight ``(4, BLOCK_WIDTH)`` uint32 working rows are
#: 1 MiB — inside L2 on the boxes we run on. Chosen by sweep (one tree
#: level of n = 65 536 seeds on the 2-core reference box, 4 MiB L2):
#: 2048 -> 17.6 ms, 4096 -> 14.7, 8192 -> 11.5, 16384 -> 13.8, 32768 ->
#: 21.3, unblocked -> 31.5. Narrower slabs pay the fixed ~0.2 ms of
#: dispatch more often; wider ones stream every one of the ~470 passes
#: through memory.
BLOCK_WIDTH = 8192


def _shift(n: int) -> np.ndarray:
    # A 0-d array: a Python int is re-converted on every ufunc call, which
    # below a few hundred blocks costs as much as the shift itself.
    return np.array(n, dtype=np.uint32)


#: The four steps of a quarter round on rows (a, b, c, d) = (0, 1, 2, 3):
#: ``x += y; z ^= x; z <<<= r`` as (x, y, z, r, 32 - r).
_QUARTER_STEPS = tuple(
    (x, y, z, _shift(r), _shift(32 - r))
    for x, y, z, r in ((0, 1, 3, 16), (2, 3, 1, 12), (0, 1, 3, 8), (2, 3, 1, 7))
)


def _quarter_round(a, b, c, d, t) -> None:
    """One ChaCha quarter round on four ``(4, w)`` state rows, in place.

    Lane ``j`` of the rows is column ``j`` of the 4x4 state (or diagonal
    ``j`` once the caller has rotated the lanes), so this one call is a
    whole column (or diagonal) round. ``t`` is scratch of the same shape.
    """
    rows = (a, b, c, d)
    for x, y, z, left, right in _QUARTER_STEPS:
        x, y, z = rows[x], rows[y], rows[z]
        np.add(x, y, out=x)
        np.bitwise_xor(z, x, out=t)
        np.left_shift(t, left, out=z)
        np.right_shift(t, right, out=t)
        np.bitwise_or(z, t, out=z)


def _rotate_lanes(src, dst, k: int) -> None:
    """``dst[j] = src[(j + k) % 4]`` for ``(4, w)`` rows."""
    dst[: 4 - k] = src[k:]
    dst[4 - k :] = src[:k]


def chacha20_rows(rows: Sequence[np.ndarray],
                  outs: Sequence[Optional[np.ndarray]]) -> None:
    """The ChaCha20 block function over word-major state rows.

    This is the kernel every other entry point wraps; the DPF tree PRG
    calls it directly so no per-level state is ever assembled.

    Args:
        rows: the four initial state rows — constants, key words 0-3,
            key words 4-7, (counter, nonce) — each a ``(4, n)`` uint32
            array (lane, block), or ``(4, 1)`` to share one value across
            all blocks. At least one row must have the full width.
        outs: where each keystream row goes: an ``(m, n)`` uint32 array
            (``m <= 4``) receives the row's first ``m`` lanes, ``None``
            skips the row. Any strides; must not overlap ``rows``.
    """
    n = max(row.shape[1] for row in rows)
    rows = [np.broadcast_to(row, (4, n)) for row in rows]
    width = min(n, BLOCK_WIDTH)
    scratch = np.empty(8 * 4 * width, dtype=np.uint32)
    old = np.seterr(over="ignore")
    try:
        for start in range(0, n, width):
            stop = min(n, start + width)
            # Re-cut for a narrower last slab: contiguous rows run the
            # ufuncs' fast path, a column slice of wider rows does not.
            a, b, c, d, t, b2, c2, d2 = scratch[: 32 * (stop - start)].reshape(
                8, 4, stop - start)
            init = [row[:, start:stop] for row in rows]
            for work, row in zip((a, b, c, d), init):
                np.copyto(work, row)
            for _ in range(10):
                _quarter_round(a, b, c, d, t)
                _rotate_lanes(b, b2, 1)
                _rotate_lanes(c, c2, 2)
                _rotate_lanes(d, d2, 3)
                _quarter_round(a, b2, c2, d2, t)
                _rotate_lanes(b2, b, 3)
                _rotate_lanes(c2, c, 2)
                _rotate_lanes(d2, d, 1)
            for work, row, out in zip((a, b, c, d), init, outs):
                if out is not None:
                    lanes = out.shape[0]
                    np.add(work[:lanes], row[:lanes], out=out[:, start:stop])
    finally:
        np.seterr(**old)


def chacha20_block(keys: np.ndarray, counters: np.ndarray, nonces: np.ndarray) -> np.ndarray:
    """Compute ChaCha20 keystream blocks for a batch of states.

    Args:
        keys: ``(n, 8)`` uint32 array — one 256-bit key per row.
        counters: ``(n,)`` uint32 array of block counters.
        nonces: ``(n, 3)`` uint32 array — one 96-bit nonce per row.

    Returns:
        ``(n, 16)`` uint32 array of keystream words (64 bytes per row).
    """
    keys = np.asarray(keys, dtype=np.uint32)
    counters = np.asarray(counters, dtype=np.uint32)
    nonces = np.asarray(nonces, dtype=np.uint32)
    if keys.ndim != 2 or keys.shape[1] != 8:
        raise CryptoError(f"keys must be (n, 8) uint32, got {keys.shape}")
    n = keys.shape[0]
    if counters.shape != (n,) or nonces.shape != (n, 3):
        raise CryptoError("counters/nonces shape mismatch with keys")
    tail = np.empty((4, n), dtype=np.uint32)
    tail[0] = counters
    tail[1:] = nonces.T
    words = np.empty((4, 4, n), dtype=np.uint32)
    chacha20_rows((CONSTANTS, keys.T[0:4], keys.T[4:8], tail), words)
    return np.ascontiguousarray(words.reshape(16, n).T)


def chacha20_stream(key: bytes, nonce_words: tuple, length: int) -> bytes:
    """Generate ``length`` keystream bytes for one (key, nonce) pair.

    Args:
        key: 32-byte key.
        nonce_words: three integers forming the 96-bit nonce.
        length: number of keystream bytes to produce.

    Returns:
        ``length`` pseudorandom bytes.
    """
    if len(key) != 32:
        raise CryptoError("chacha20 key must be 32 bytes")
    if length < 0:
        raise CryptoError("length must be non-negative")
    if length == 0:
        return b""
    n_blocks = (length + 63) // 64
    keys = np.frombuffer(key, dtype="<u4").astype(np.uint32)
    keys = np.tile(keys, (n_blocks, 1))
    counters = np.arange(n_blocks, dtype=np.uint32)
    nonces = np.tile(np.array(nonce_words, dtype=np.uint32), (n_blocks, 1))
    blocks = chacha20_block(keys, counters, nonces)
    return blocks.astype("<u4").tobytes()[:length]


def xor_stream(key: bytes, nonce_words: tuple, data: bytes) -> bytes:
    """XOR ``data`` with the ChaCha20 keystream (encrypt == decrypt)."""
    stream = chacha20_stream(key, nonce_words, len(data))
    return bytes(a ^ b for a, b in zip(data, stream)) if len(data) < 64 else (
        np.frombuffer(data, dtype=np.uint8) ^ np.frombuffer(stream, dtype=np.uint8)
    ).tobytes()
