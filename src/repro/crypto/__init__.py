"""Cryptographic building blocks for lightweb, implemented from scratch.

The centrepiece is :mod:`repro.crypto.dpf`, a two-party distributed point
function (Boyle-Gilboa-Ishai, CCS 2016) — the primitive the paper's prototype
uses for two-server private information retrieval. Everything the DPF needs
(a vectorised ChaCha20 block function and a tree PRG) is also here, as are the
supporting primitives the paper calls for: keyed hashing of lightweb paths
into the DPF output domain, cuckoo hashing as the collision mitigation,
authenticated encryption for access-controlled content, GGM-style key trees
for revocation, and a Regev-LWE single-server PIR core for the
"cryptographic assumptions only" mode of operation.
"""

from repro.crypto.chacha import chacha20_block, chacha20_stream
from repro.crypto.prg import Prg, expand_seeds, seed_bytes_to_words, seed_words_to_bytes
from repro.crypto.dpf import (
    DpfKey,
    dpf_key_bits,
    eval_dpf,
    eval_dpf_full,
    eval_dpf_full_batch,
    gen_dpf,
    gen_dpf_batch,
)
from repro.crypto.dpf_distributed import split_dpf_key, eval_subkey_full, SubtreeKey
from repro.crypto.hashing import KeyedHash, collision_probability, domain_bits_for
from repro.crypto.cuckoo import CuckooTable
from repro.crypto.aead import seal, open_sealed, generate_key
from repro.crypto.keys import KeyEpoch, PublisherKeychain, BroadcastKeyTree
from repro.crypto.lwe import LweParams, LwePirClient, LwePirServer
from repro.crypto.merkle import MerkleTree, verify_proof

__all__ = [
    "chacha20_block",
    "chacha20_stream",
    "Prg",
    "expand_seeds",
    "seed_bytes_to_words",
    "seed_words_to_bytes",
    "DpfKey",
    "gen_dpf",
    "gen_dpf_batch",
    "eval_dpf",
    "eval_dpf_full",
    "eval_dpf_full_batch",
    "dpf_key_bits",
    "split_dpf_key",
    "eval_subkey_full",
    "SubtreeKey",
    "KeyedHash",
    "collision_probability",
    "domain_bits_for",
    "CuckooTable",
    "seal",
    "open_sealed",
    "generate_key",
    "KeyEpoch",
    "PublisherKeychain",
    "BroadcastKeyTree",
    "LweParams",
    "LwePirClient",
    "LwePirServer",
    "MerkleTree",
    "verify_proof",
]
