"""The libcrypto binding: a known answer, its input checks, and threads.

ctypes releases the GIL for every foreign call, so the DPF's AES calls
from several threads really do run at once; each thread must use its own
cipher context. Four threads dealing and evaluating ~2^16-node levels at
once must give the bytes the same calls give one after the other.
"""

import sys
import threading

import numpy as np
import pytest

from repro.crypto.dpf import eval_dpf_full_batch, gen_dpf_batch
from repro.crypto.libcrypto import Aes128Ecb, chacha20_xor
from repro.errors import CryptoError

# FIPS-197 Appendix C.1 (AES-128).
_KEY = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
_PLAIN = bytes.fromhex("00112233445566778899aabbccddeeff")
_CIPHER = bytes.fromhex("69c4e0d86a7b0430d8cdb78070b4c55a")


def test_fips197_known_answer():
    plain = np.frombuffer(_PLAIN * 3, dtype=np.uint8)
    out = np.empty_like(plain)
    Aes128Ecb(_KEY).encrypt(plain, out)
    assert out.tobytes() == _CIPHER * 3


def test_read_only_source_gives_the_same_ciphertext():
    """A read-only source (``np.frombuffer`` over bytes, which ctypes'
    ``from_buffer`` refuses) encrypts to the same bytes as a writable
    copy of it."""
    data = bytes(range(256)) * 4
    read_only = np.frombuffer(data, dtype=np.uint64).reshape(8, 16)
    assert not read_only.flags.writeable
    from_read_only = np.empty_like(read_only)
    from_writable = np.empty_like(read_only)
    aes = Aes128Ecb(_KEY)
    aes.encrypt(read_only, from_read_only)
    aes.encrypt(read_only.copy(), from_writable)
    assert from_read_only.tobytes() == from_writable.tobytes()
    # The first block, pinned from a run that took both buffers' addresses
    # through ``ndarray.ctypes.data``.
    assert from_read_only[0, :2].tobytes() == (
        bytes.fromhex("0a940bb5416ef045f1c39458c653ea5a"))


def test_empty_buffers_encrypt_to_nothing():
    out = np.empty(0, dtype=np.uint8)
    Aes128Ecb(_KEY).encrypt(np.frombuffer(b"", dtype=np.uint8), out)
    assert chacha20_xor(bytes(32), bytes(16), b"") == b""


@pytest.mark.parametrize("plain,out", [
    # Not a whole number of blocks.
    (np.zeros(24, dtype=np.uint8), np.empty(24, dtype=np.uint8)),
    # Every other block of a wider array.
    (np.zeros((4, 2, 16), dtype=np.uint8)[:, 0],
     np.empty((4, 16), dtype=np.uint8)),
    # A non-contiguous output.
    (np.zeros((4, 16), dtype=np.uint8),
     np.empty((4, 2, 16), dtype=np.uint8)[:, 1]),
    # Sizes that differ.
    (np.zeros(32, dtype=np.uint8), np.empty(16, dtype=np.uint8)),
    # A read-only output.
    (np.zeros(16, dtype=np.uint8), np.frombuffer(bytes(16), dtype=np.uint8)),
])
def test_bad_buffers_raise(plain, out):
    with pytest.raises(CryptoError):
        Aes128Ecb(_KEY).encrypt(plain, out)


def test_bad_key_raises():
    with pytest.raises(CryptoError):
        Aes128Ecb(_KEY[:15])


#: 2^13 key pairs deal 2^14 party nodes per level at d = 14, 4 keys at
#: d = 21 expand to 2^16 leaves (the tree stops 7 levels short).
GEN_KEYS, GEN_BITS, EVAL_KEYS, EVAL_BITS = 1 << 13, 14, 4, 21


def _work(seed: int):
    rng = np.random.default_rng(seed)
    dealt = gen_dpf_batch(rng.integers(0, 1 << GEN_BITS, size=GEN_KEYS),
                          GEN_BITS, rng=rng)
    keys = [pair[seed % 2] for pair in gen_dpf_batch(
        rng.integers(0, 1 << EVAL_BITS, size=EVAL_KEYS), EVAL_BITS, rng=rng)]
    return (np.stack([pair[0].cw_seeds for pair in dealt]).tobytes(),
            np.stack([pair[1].cw_final for pair in dealt]).tobytes(),
            eval_dpf_full_batch(keys).tobytes())


def test_four_threads_give_the_serial_bytes():
    serial = [_work(seed) for seed in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for _ in range(3):
            results = [None] * 4
            start = threading.Barrier(4)

            def run(index):
                start.wait()
                results[index] = _work(index)

            threads = [threading.Thread(target=run, args=(i,))
                       for i in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
            assert results == serial
    finally:
        sys.setswitchinterval(interval)
