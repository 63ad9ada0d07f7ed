"""AES-128-ECB and ChaCha20 from the libcrypto CPython already has loaded.

``hashlib`` maps OpenSSL's libcrypto into every process; opening the
``_hashlib`` extension with :mod:`ctypes` reaches its EVP cipher interface
without a new dependency or a second copy of the library. If a symbol is
missing, importing this module fails: there is no pure-Python fallback.

ctypes releases the GIL for the duration of a foreign call, so a cipher
context shared between threads would be re-keyed or advanced under
another thread's feet. No context is ever shared: :class:`Aes128Ecb`
keeps one per thread, and :func:`chacha20_xor` builds one per call.
"""

from __future__ import annotations

import ctypes
import threading

import _hashlib
import numpy as np

from repro.errors import CryptoError

_lib = ctypes.CDLL(_hashlib.__file__)
_ptr, _int = ctypes.c_void_p, ctypes.c_int
for _name, _restype, _argtypes in (
        ("EVP_aes_128_ecb", _ptr, []),
        ("EVP_chacha20", _ptr, []),
        ("EVP_CIPHER_CTX_new", _ptr, []),
        ("EVP_CIPHER_CTX_free", None, [_ptr]),
        ("EVP_EncryptInit_ex", _int, [_ptr, _ptr, _ptr, _ptr, _ptr]),
        ("EVP_CIPHER_CTX_set_padding", _int, [_ptr, _int]),
        ("EVP_EncryptUpdate", _int,
         [_ptr, _ptr, ctypes.POINTER(_int), _ptr, _int])):
    getattr(_lib, _name).restype = _restype
    getattr(_lib, _name).argtypes = _argtypes
_AES_128_ECB = _lib.EVP_aes_128_ecb()
_CHACHA20 = _lib.EVP_chacha20()

#: EVP_EncryptUpdate takes an ``int`` length.
_MAX_BYTES = 2**31 - 1
#: A ctypes view of no bytes: ``from_buffer`` gives any writable
#: buffer's address through it, even an empty one's.
_BYTES = ctypes.c_char * 0


class _Context:
    """One EVP cipher context set up to encrypt; freed with the object."""

    _free = _lib.EVP_CIPHER_CTX_free

    def __init__(self, cipher, key: bytes, iv, block: int):
        self.block = block
        self.ptr = _lib.EVP_CIPHER_CTX_new()
        if (not self.ptr
                or _lib.EVP_EncryptInit_ex(self.ptr, cipher, None, key, iv) != 1
                or _lib.EVP_CIPHER_CTX_set_padding(self.ptr, 0) != 1):
            raise CryptoError("libcrypto cipher set-up failed")

    def __del__(self):
        self._free(self.ptr)

    def update(self, src: np.ndarray, dst: np.ndarray) -> None:
        """``dst = E(src)``: C-contiguous, one size, whole blocks."""
        if not (src.flags.c_contiguous and dst.flags.c_contiguous
                and dst.flags.writeable):
            raise CryptoError("cipher buffers must be C-contiguous and "
                              "writable")
        size = src.nbytes
        if dst.nbytes != size or size % self.block or size > _MAX_BYTES:
            raise CryptoError(
                f"cipher input of {size} bytes: need a multiple of "
                f"{self.block} below 2**31, output of the same size")
        written = _int(0)
        # dst, checked writable above, maps as a zero-length ctypes array:
        # a quarter of the cost of ndarray.ctypes.data (which builds an
        # __array_interface__ dict), and empty buffers map too. src may be
        # read-only (np.frombuffer over bytes), which from_buffer refuses.
        if (_lib.EVP_EncryptUpdate(self.ptr,
                                   ctypes.addressof(_BYTES.from_buffer(dst)),
                                   ctypes.byref(written), src.ctypes.data,
                                   size) != 1 or written.value != size):
            raise CryptoError("libcrypto cipher call failed")


class Aes128Ecb:
    """AES-128 encryption under one key, block by block, on any thread."""

    def __init__(self, key: bytes):
        if len(key) != 16:
            raise CryptoError("AES-128 key must be 16 bytes")
        self._key = key
        self._local = threading.local()

    def encrypt(self, plaintext: np.ndarray, out: np.ndarray) -> None:
        """Encrypt ``plaintext`` into ``out``: C-contiguous arrays of one
        size, a whole number of 16-byte blocks (any dtype)."""
        context = getattr(self._local, "context", None)
        if context is None:
            context = _Context(_AES_128_ECB, self._key, None, 16)
            self._local.context = context
        context.update(plaintext, out)


def chacha20_xor(key: bytes, iv: bytes, data: bytes) -> bytes:
    """``data`` XOR the ChaCha20 keystream; ``iv`` is the RFC 8439 counter
    (32-bit little-endian) followed by the 96-bit nonce."""
    if len(key) != 32 or len(iv) != 16:
        raise CryptoError("ChaCha20 needs a 32-byte key and a 16-byte iv")
    out = np.empty(len(data), dtype=np.uint8)
    _Context(_CHACHA20, key, iv, 1).update(
        np.frombuffer(data, dtype=np.uint8), out)
    return out.tobytes()


__all__ = ["Aes128Ecb", "chacha20_xor"]
