"""Tree PRG for distributed point functions, built on vectorised ChaCha20.

A DPF walks a binary tree of 128-bit seeds. At each level every seed is
expanded into two child seeds plus two control bits — the classic GGM tree
shape. :func:`expand_seeds` performs that expansion for an arbitrary batch of
seeds with a single vectorised ChaCha20 call, which is what keeps full-domain
evaluation (the server-side linear scan of paper §5.1) fast enough to
benchmark in Python.

Seeds are represented as ``(n, 4)`` uint32 numpy arrays (128 bits per row)
at the public surface; the DPF level loop keeps them word-major, ``(4, n)``,
which is one ChaCha state row as it stands (:func:`expand_into`).
"""

from __future__ import annotations

import os

import numpy as np

from repro.crypto.chacha import CONSTANTS, chacha20_block, chacha20_rows
from repro.errors import CryptoError

#: Domain-separating nonces: tree expansion vs. leaf value conversion.
_EXPAND_NONCE = (0x65787061, 0x6E640000, 0x00000001)
_CONVERT_NONCE = (0x636F6E76, 0x65727400, 0x00000002)

#: State row 3 of every tree expansion: block counter 0, then the nonce.
_EXPAND_TAIL = np.array((0,) + _EXPAND_NONCE, dtype=np.uint32).reshape(4, 1)

SEED_WORDS = 4
SEED_BYTES = 16


def random_seed(rng: np.random.Generator | None = None) -> np.ndarray:
    """Return a fresh random 128-bit seed as a ``(4,)`` uint32 array."""
    return random_seeds(1, rng)[0]


def random_seeds(count: int,
                 rng: np.random.Generator | None = None) -> np.ndarray:
    """``count`` fresh seeds as a ``(count, 4)`` uint32 array.

    One draw for the lot; under a seeded ``rng`` the rows equal ``count``
    successive :func:`random_seed` calls (the generator hands out the same
    32-bit words in the same order either way).
    """
    if rng is None:
        raw = os.urandom(count * SEED_BYTES)
        return np.frombuffer(raw, dtype="<u4").astype(np.uint32).reshape(
            count, SEED_WORDS)
    return rng.integers(0, 2**32, size=(count, SEED_WORDS), dtype=np.uint32)


def seed_bytes_to_words(raw: bytes) -> np.ndarray:
    """Convert a 16-byte seed into its ``(4,)`` uint32 word form."""
    if len(raw) != SEED_BYTES:
        raise CryptoError(f"seed must be {SEED_BYTES} bytes, got {len(raw)}")
    return np.frombuffer(raw, dtype="<u4").astype(np.uint32)


def seed_words_to_bytes(words: np.ndarray) -> bytes:
    """Convert a ``(4,)`` uint32 seed into its 16-byte wire form."""
    words = np.asarray(words, dtype=np.uint32)
    if words.shape != (SEED_WORDS,):
        raise CryptoError(f"seed must have shape (4,), got {words.shape}")
    return words.astype("<u4").tobytes()


def _check_seeds(seeds: np.ndarray) -> np.ndarray:
    seeds = np.asarray(seeds, dtype=np.uint32)
    if seeds.ndim != 2 or seeds.shape[1] != SEED_WORDS:
        raise CryptoError(f"seeds must be (n, 4) uint32, got {seeds.shape}")
    return seeds


def expand_into(seeds: np.ndarray, children: np.ndarray) -> np.ndarray:
    """Expand word-major seeds one tree level down, children in place.

    The seed is both halves of the ChaCha key, so the ``(4, n)`` array is
    state rows 1 and 2 as it stands; keystream rows 0 and 1 are the two
    child seeds and land interleaved, which keeps every sub-tree's leaves
    contiguous and in index order.

    Args:
        seeds: ``(4, n)`` uint32 parent seeds (word, node).
        children: ``(4, 2n)`` uint32 output; node ``i``'s left child is
            column ``2i``, its right child column ``2i + 1``.

    Returns:
        ``(n,)`` uint32 control words: bit 0 is the left child's control
        bit, bit 1 the right child's.
    """
    control = np.empty((1, seeds.shape[1]), dtype=np.uint32)
    chacha20_rows((CONSTANTS, seeds, seeds, _EXPAND_TAIL),
                  (children[:, 0::2], children[:, 1::2], control, None))
    return control[0]


def expand_seeds(seeds: np.ndarray):
    """Expand a batch of seeds one tree level down.

    Args:
        seeds: ``(n, 4)`` uint32 array of parent seeds.

    Returns:
        Tuple ``(left, right, t_left, t_right)`` where ``left`` and ``right``
        are ``(n, 4)`` child-seed arrays and ``t_left``/``t_right`` are
        ``(n,)`` uint8 arrays of control bits.
    """
    seeds = _check_seeds(seeds)
    children = np.empty((SEED_WORDS, 2 * seeds.shape[0]), dtype=np.uint32)
    control = expand_into(seeds.T, children)
    left = np.ascontiguousarray(children[:, 0::2].T)
    right = np.ascontiguousarray(children[:, 1::2].T)
    t_left = (control & 1).astype(np.uint8)
    t_right = ((control >> 1) & 1).astype(np.uint8)
    return left, right, t_left, t_right


def convert_seeds(seeds: np.ndarray, out_bytes: int) -> np.ndarray:
    """Convert a batch of leaf seeds into pseudorandom output blocks.

    This is the ``Convert`` map of the BGI16 DPF: it turns the final seed at a
    leaf into an element of the output group (here: a byte block under XOR).

    Args:
        seeds: ``(n, 4)`` uint32 array of leaf seeds.
        out_bytes: length of each output block in bytes.

    Returns:
        ``(n, out_bytes)`` uint8 array.
    """
    seeds = _check_seeds(seeds)
    if out_bytes <= 0:
        raise CryptoError("out_bytes must be positive")
    n = seeds.shape[0]
    blocks_per_seed = (out_bytes + 63) // 64
    keys = np.repeat(seeds.T, blocks_per_seed, axis=1)
    tail = np.empty((4, n * blocks_per_seed), dtype=np.uint32)
    tail[0] = np.tile(np.arange(blocks_per_seed, dtype=np.uint32), n)
    tail[1:] = np.array(_CONVERT_NONCE, dtype=np.uint32).reshape(3, 1)
    words = np.empty((4, 4, n * blocks_per_seed), dtype=np.uint32)
    chacha20_rows((CONSTANTS, keys, keys, tail), words)
    blocks = np.ascontiguousarray(words.reshape(16, -1).T)
    raw = blocks.astype("<u4", copy=False).view(np.uint8)
    return raw.reshape(n, blocks_per_seed * 64)[:, :out_bytes].copy()


class Prg:
    """A seekable pseudorandom generator keyed by a 16- or 32-byte seed.

    Used wherever the library needs deterministic pseudorandomness outside the
    DPF tree itself: blob padding, synthetic corpora, nonce derivation.
    """

    def __init__(self, seed: bytes, domain: int = 0):
        """Create a PRG.

        Args:
            seed: 16 or 32 bytes of key material.
            domain: a small integer domain-separation tag; two PRGs with the
                same seed but different domains produce independent streams.
        """
        if len(seed) == SEED_BYTES:
            seed = seed + seed
        if len(seed) != 32:
            raise CryptoError("Prg seed must be 16 or 32 bytes")
        self._key = seed
        self._nonce = (0x70726730, domain & 0xFFFFFFFF, 0x00000003)
        self._offset = 0

    def read(self, length: int) -> bytes:
        """Return the next ``length`` bytes of the stream."""
        # Generating from the start each call would be quadratic; instead we
        # generate the covering block range and slice.
        start = self._offset
        end = start + length
        first_block = start // 64
        last_block = (end + 63) // 64
        span = chacha20_stream_range(self._key, self._nonce, first_block, last_block)
        self._offset = end
        return span[start - first_block * 64 : end - first_block * 64]

    def read_uint64(self, n: int) -> np.ndarray:
        """Return ``n`` pseudorandom uint64 values."""
        raw = self.read(8 * n)
        return np.frombuffer(raw, dtype="<u8").astype(np.uint64)


def chacha20_stream_range(key: bytes, nonce_words: tuple, first_block: int, last_block: int) -> bytes:
    """Generate keystream blocks ``[first_block, last_block)`` for one key."""
    n_blocks = last_block - first_block
    if n_blocks <= 0:
        return b""
    keys = np.tile(np.frombuffer(key, dtype="<u4").astype(np.uint32), (n_blocks, 1))
    counters = np.arange(first_block, last_block, dtype=np.uint32)
    nonces = np.tile(np.array(nonce_words, dtype=np.uint32), (n_blocks, 1))
    return chacha20_block(keys, counters, nonces).astype("<u4").tobytes()


__all__ = [
    "Prg",
    "expand_seeds",
    "expand_into",
    "convert_seeds",
    "random_seed",
    "random_seeds",
    "seed_bytes_to_words",
    "seed_words_to_bytes",
    "chacha20_stream_range",
    "SEED_BYTES",
    "SEED_WORDS",
]
