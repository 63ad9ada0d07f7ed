"""Two-party distributed point functions (Boyle-Gilboa-Ishai, CCS 2016).

This is the cryptographic core of the paper's prototype: "We use Google's
distributed point function library for two-server private information
retrieval" (§5). A DPF lets a dealer split the point function

    f_{alpha,beta}(x) = beta if x == alpha else 0

into two keys such that each key alone reveals nothing about ``alpha`` or
``beta``, yet the two parties' evaluations XOR to ``f(x)`` at every point.
For PIR, the client deals keys for ``beta = 1``; each server expands its key
over the whole database index domain (``eval_dpf_full``) and XORs together
the records selected by its share bits. The two servers' answers XOR to
exactly the record at ``alpha`` — and each server saw only a pseudorandom
bit vector.

Two output flavours are provided:

- **bit output** (``value=None``): the natural GF(2) sharing where the leaf
  control bits themselves share the indicator function. This is what the PIR
  scan consumes and matches the cost model of §5.1.
- **block output** (``value=bytes``): a byte-string under XOR, via a final
  correction word. Used by the private-aggregation substrate and anywhere a
  full value (not just a selector) must be shared.

Key size matches the paper's formula: "(λ+2)·d where λ is the security
parameter (λ=128) and 2^d is the size of the output domain" (§5.1) — see
:func:`dpf_key_bits`.

Dealing and full-domain evaluation are batch operations
(:func:`gen_dpf_batch`, :func:`eval_dpf_full_batch`): a tree level costs
one PRG call however many keys share it, so a page's worth of keys costs
little more than one. The single-key functions are the batch of one, and
every full or partial tree expansion — here and in
:mod:`repro.crypto.dpf_distributed` — is the one loop in
:func:`expand_tree`.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.crypto import prg
from repro.crypto.prg import (
    SEED_BYTES,
    convert_seeds,
    expand_into,
    expand_seeds,
    random_seeds,
)
from repro.errors import CryptoError

#: The security parameter λ of §5.1 — the seed length in bits.
LAMBDA_BITS = 128

MAX_DOMAIN_BITS = 30


def dpf_key_bits(domain_bits: int, lam: int = LAMBDA_BITS) -> int:
    """Theoretical DPF key size in bits: the paper's (λ+2)·d formula (§5.1)."""
    if domain_bits <= 0:
        raise CryptoError("domain_bits must be positive")
    return (lam + 2) * domain_bits


@dataclass
class DpfKey:
    """One party's share of a distributed point function.

    Attributes:
        party: 0 or 1 — which of the two servers this key belongs to.
        domain_bits: d; the key evaluates points in ``[0, 2**d)``.
        root_seed: ``(4,)`` uint32 — the party's level-0 seed.
        cw_seeds: ``(d, 4)`` uint32 — per-level seed correction words.
        cw_t_left: ``(d,)`` uint8 — per-level left control-bit corrections.
        cw_t_right: ``(d,)`` uint8 — per-level right control-bit corrections.
        out_bytes: output block length; 0 means bit-output mode.
        cw_final: ``(out_bytes,)`` uint8 final correction word, or None in
            bit-output mode.
    """

    party: int
    domain_bits: int
    root_seed: np.ndarray
    cw_seeds: np.ndarray
    cw_t_left: np.ndarray
    cw_t_right: np.ndarray
    out_bytes: int = 0
    cw_final: Optional[np.ndarray] = None

    @property
    def domain_size(self) -> int:
        """Number of points in the key's domain, 2**domain_bits."""
        return 1 << self.domain_bits

    def size_bytes(self) -> int:
        """Serialised key size in bytes."""
        return len(self.to_bytes())

    def to_bytes(self) -> bytes:
        """Serialise the key to its wire form."""
        header = struct.pack("<BBI", self.party, self.domain_bits, self.out_bytes)
        body = [header, prg.seed_words_to_bytes(self.root_seed)]
        for level in range(self.domain_bits):
            body.append(prg.seed_words_to_bytes(self.cw_seeds[level]))
            packed = (int(self.cw_t_left[level]) & 1) | ((int(self.cw_t_right[level]) & 1) << 1)
            body.append(bytes([packed]))
        if self.out_bytes:
            body.append(self.cw_final.astype(np.uint8).tobytes())
        return b"".join(body)

    @classmethod
    def from_bytes(cls, raw: bytes) -> "DpfKey":
        """Parse a key from its wire form, validating structure."""
        if len(raw) < 6 + SEED_BYTES:
            raise CryptoError("DPF key too short")
        party, domain_bits, out_bytes = struct.unpack_from("<BBI", raw, 0)
        if party not in (0, 1):
            raise CryptoError(f"invalid DPF party {party}")
        if not 1 <= domain_bits <= MAX_DOMAIN_BITS:
            raise CryptoError(f"invalid domain_bits {domain_bits}")
        offset = 6
        expected = key_wire_bytes(domain_bits, out_bytes)
        if len(raw) != expected:
            raise CryptoError(
                f"DPF key length mismatch: got {len(raw)}, expected {expected}"
            )
        root_seed = prg.seed_bytes_to_words(raw[offset : offset + SEED_BYTES])
        offset += SEED_BYTES
        cw_seeds = np.empty((domain_bits, 4), dtype=np.uint32)
        cw_tl = np.empty(domain_bits, dtype=np.uint8)
        cw_tr = np.empty(domain_bits, dtype=np.uint8)
        for level in range(domain_bits):
            cw_seeds[level] = prg.seed_bytes_to_words(raw[offset : offset + SEED_BYTES])
            offset += SEED_BYTES
            packed = raw[offset]
            offset += 1
            cw_tl[level] = packed & 1
            cw_tr[level] = (packed >> 1) & 1
        cw_final = None
        if out_bytes:
            cw_final = np.frombuffer(raw[offset:], dtype=np.uint8).copy()
        return cls(
            party=party,
            domain_bits=domain_bits,
            root_seed=root_seed,
            cw_seeds=cw_seeds,
            cw_t_left=cw_tl,
            cw_t_right=cw_tr,
            out_bytes=out_bytes,
            cw_final=cw_final,
        )


def key_wire_bytes(domain_bits: int, out_bytes: int = 0) -> int:
    """Serialised size of one key: header, root seed, one (seed, packed
    control bits) correction word per level, final correction word."""
    return 6 + SEED_BYTES + domain_bits * (SEED_BYTES + 1) + out_bytes


def _select_mask(t_bits: np.ndarray) -> np.ndarray:
    """Control bits 0/1 as uint32 words 0/0xFFFFFFFF, for branch-free
    ``correction & mask`` in place of ``if t: seed ^= correction``."""
    return np.negative(t_bits.astype(np.uint32))


def gen_dpf_batch(
    alphas: Sequence[int],
    domain_bits: int,
    values: Optional[Sequence[bytes]] = None,
    rng: Optional[np.random.Generator] = None,
) -> List[Tuple[DpfKey, DpfKey]]:
    """Deal one DPF key pair per point, all trees walked together.

    Byte-identical to ``[gen_dpf(alpha, domain_bits, value, rng) ...]`` in
    order (the seeds are drawn from ``rng`` in that order), at one PRG
    call per level for the whole batch.

    Args:
        alphas: the distinguished points, each in ``[0, 2**domain_bits)``.
        domain_bits: d, the depth of the evaluation tree.
        values: the outputs ``beta`` as equal-length byte strings, one per
            point, or None for bit-output mode (``beta = 1`` in GF(2)).
        rng: optional deterministic randomness source (for tests).

    Returns:
        ``[(key0, key1), ...]`` aligned with ``alphas``.
    """
    if not 1 <= domain_bits <= MAX_DOMAIN_BITS:
        raise CryptoError(f"domain_bits must be in [1, {MAX_DOMAIN_BITS}]")
    count = len(alphas)
    if values is not None and len(values) != count:
        raise CryptoError("need exactly one value per alpha")
    if count == 0:
        return []
    points = np.asarray(alphas, dtype=np.int64).reshape(count)
    if ((points < 0) | (points >= (1 << domain_bits))).any():
        raise CryptoError(
            f"alpha out of domain [0, 2^{domain_bits}) in {list(alphas)}")
    out_bytes = 0
    if values is not None:
        out_bytes = len(values[0])
        if out_bytes == 0 or any(len(value) != out_bytes for value in values):
            raise CryptoError(
                "values must be non-empty and of one length (or None for "
                "bit output)")

    # Column 2i is key i's party-0 node, column 2i + 1 its party-1 node.
    roots = random_seeds(2 * count, rng)
    seeds = np.ascontiguousarray(roots.T)
    t_bits = np.tile(np.array([0, 1], dtype=np.uint8), count)
    cw_seeds = np.empty((domain_bits, count, 4), dtype=np.uint32)
    cw_t = np.empty((domain_bits, count, 2), dtype=np.uint8)

    for level in range(domain_bits):
        # keep = the child on alpha's path, lose = its sibling; the
        # correction words zero the parties' difference on the lost side
        # and leave exactly one party's control bit set on the kept side.
        bit = ((points >> (domain_bits - 1 - level)) & 1).astype(np.uint8)
        children = np.empty((4, 4 * count), dtype=np.uint32)
        control = expand_into(seeds, children)
        children = children.reshape(4, count, 2, 2)  # word, key, party, side
        child_t = np.stack([control & 1, (control >> 1) & 1], axis=-1)
        child_t = child_t.astype(np.uint8).reshape(count, 2, 2)
        side = bit.reshape(1, count, 1, 1)
        keep = np.take_along_axis(children, side, axis=3)[..., 0]
        lose = np.take_along_axis(children, 1 - side, axis=3)[..., 0]
        keep_t = np.take_along_axis(child_t, side[0], axis=2)[..., 0]

        seed_cw = lose[:, :, 0] ^ lose[:, :, 1]
        t_cw = child_t[:, 0] ^ child_t[:, 1] ^ bit[:, None]
        t_cw[:, 0] ^= 1
        cw_seeds[level] = seed_cw.T
        cw_t[level] = t_cw

        t_cw_keep = np.take_along_axis(t_cw, bit[:, None], axis=1)
        parent_t = t_bits.reshape(count, 2)
        seeds = keep ^ (seed_cw[:, :, None] & _select_mask(parent_t))
        seeds = seeds.reshape(4, 2 * count)
        t_bits = (keep_t ^ (parent_t * t_cw_keep)).reshape(2 * count)

    cw_final = None
    if out_bytes:
        shares = convert_seeds(seeds.T, out_bytes).reshape(count, 2, out_bytes)
        targets = np.frombuffer(b"".join(values), dtype=np.uint8)
        cw_final = shares[:, 0] ^ shares[:, 1] ^ targets.reshape(count, out_bytes)

    return [
        tuple(
            DpfKey(
                party=party,
                domain_bits=domain_bits,
                root_seed=roots[2 * i + party].copy(),
                cw_seeds=cw_seeds[:, i].copy(),
                cw_t_left=cw_t[:, i, 0].copy(),
                cw_t_right=cw_t[:, i, 1].copy(),
                out_bytes=out_bytes,
                cw_final=None if cw_final is None else cw_final[i].copy(),
            )
            for party in (0, 1)
        )
        for i in range(count)
    ]


def gen_dpf(
    alpha: int,
    domain_bits: int,
    value: Optional[bytes] = None,
    rng: Optional[np.random.Generator] = None,
) -> Tuple[DpfKey, DpfKey]:
    """Deal a pair of DPF keys for the point function at ``alpha``.

    Args:
        alpha: the distinguished point, in ``[0, 2**domain_bits)``.
        domain_bits: d, the depth of the evaluation tree.
        value: the non-zero output ``beta`` as a byte string, or None for the
            bit-output mode (``beta = 1`` in GF(2)).
        rng: optional deterministic randomness source (for tests).

    Returns:
        ``(key0, key1)`` — one key per server.
    """
    values = None if value is None else [value]
    return gen_dpf_batch([alpha], domain_bits, values, rng)[0]


def _walk(key: DpfKey, x: int) -> Tuple[np.ndarray, int]:
    """Walk the evaluation tree to leaf ``x``; return (seed, control bit)."""
    if not 0 <= x < key.domain_size:
        raise CryptoError(f"point {x} out of domain [0, {key.domain_size})")
    seed = key.root_seed.reshape(1, 4)
    t = int(key.party)
    for level in range(key.domain_bits):
        bit = (x >> (key.domain_bits - 1 - level)) & 1
        left, right, tl, tr = expand_seeds(seed)
        child_seed = right[0] if bit else left[0]
        child_t = int(tr[0]) if bit else int(tl[0])
        if t:
            child_seed = child_seed ^ key.cw_seeds[level]
            child_t ^= int(key.cw_t_right[level]) if bit else int(key.cw_t_left[level])
        seed = child_seed.reshape(1, 4)
        t = child_t
    return seed, t


def eval_dpf(key: DpfKey, x: int):
    """Evaluate one party's share at a single point.

    Returns:
        In bit-output mode, a Python int (0/1): the party's GF(2) share of
        the indicator ``x == alpha``. In block-output mode, a byte string:
        the party's XOR share of the value at ``x``.
    """
    seed, t = _walk(key, x)
    if key.out_bytes == 0:
        return t
    share = convert_seeds(seed, key.out_bytes)[0]
    if t:
        share = share ^ key.cw_final
    return share.tobytes()


def expand_tree(seeds: np.ndarray, t_bits: np.ndarray, cw_seeds: np.ndarray,
                cw_t_left: np.ndarray, cw_t_right: np.ndarray
                ) -> Tuple[np.ndarray, np.ndarray]:
    """Expand a row of tree nodes ``levels`` levels down — the one level
    loop behind every full, partial and sub-tree evaluation.

    Nodes are stacked key-major: with ``k`` keys the ``n`` input columns
    are ``k`` runs of ``n / k`` nodes, one run per key, and each run is
    corrected with its own key's words (all runs with the same words when
    ``k == 1``, which is how the sub-trees of one split are ganged). A
    node's two children take its place, left first, so every run's leaves
    come out contiguous and in index order, and calling this again on its
    own output continues the same trees.

    Args:
        seeds: ``(4, n)`` uint32 node seeds, word-major.
        t_bits: ``(n,)`` uint8 node control bits.
        cw_seeds: ``(levels, k, 4)`` uint32 seed correction words.
        cw_t_left / cw_t_right: ``(levels, k)`` uint8 control-bit
            corrections.

    Returns:
        ``(seeds, t_bits)`` of the ``n * 2**levels`` descendants.
    """
    levels, keys = cw_seeds.shape[:2]
    # Both children's control bits travel as one 2-bit value per node.
    cw_t = (cw_t_left | (cw_t_right << 1)).astype(np.uint8)
    for level in range(levels):
        n = seeds.shape[1]
        children = np.empty((4, 2 * n), dtype=np.uint32)
        control = expand_into(seeds, children)
        # Branch-free correction: AND the key's words with an all-ones or
        # all-zeros mask per node instead of indexing the nodes whose
        # control bit is set.
        parent_t = t_bits.reshape(keys, n // keys)
        correction = cw_seeds[level].T[:, :, None] & _select_mask(parent_t)
        pairs = children.reshape(4, keys, n // keys, 2)
        pairs ^= correction[..., None]
        pair = control.astype(np.uint8) & 3
        pair ^= (cw_t[level][:, None] * parent_t).reshape(n)
        seeds = children
        t_bits = np.empty(2 * n, dtype=np.uint8)
        t_bits[0::2] = pair & 1
        t_bits[1::2] = pair >> 1
    return seeds, t_bits


def leaf_output(seeds: np.ndarray, t_bits: np.ndarray, out_bytes: int,
                cw_final: Optional[np.ndarray], runs: int) -> np.ndarray:
    """Turn expanded leaves into output shares, one row per run.

    Args:
        seeds / t_bits: the leaves, as :func:`expand_tree` returns them.
        out_bytes: 0 for bit output, else the block length.
        cw_final: ``(k, out_bytes)`` final correction words, ``k`` being 1
            or ``runs`` (None in bit-output mode).
        runs: how many equal runs of leaves the columns hold.

    Returns:
        ``(runs, leaves)`` uint8 share bits, or ``(runs, leaves,
        out_bytes)`` uint8 XOR value shares.
    """
    if out_bytes == 0:
        return t_bits.reshape(runs, -1)
    shares = convert_seeds(seeds.T, out_bytes).reshape(runs, -1, out_bytes)
    mask = np.negative(t_bits).reshape(runs, -1, 1)
    shares ^= cw_final[:, None, :] & mask
    return shares


def expand_keys(keys: Sequence[DpfKey], first: int, last: int,
                nodes: Optional[Tuple[np.ndarray, np.ndarray]] = None
                ) -> Tuple[np.ndarray, np.ndarray]:
    """Expand every key's tree from level ``first`` to level ``last``
    in one pass, each key under its own correction words.

    Args:
        keys: keys of one domain size.
        first / last: the level range, ``0 <= first <= last <= d``.
        nodes: the level-``first`` nodes as an earlier call returned them;
            None starts from the keys' roots (``first`` must be 0).

    Returns:
        ``(seeds, t_bits)`` of the level-``last`` nodes, key-major (see
        :func:`expand_tree`).
    """
    if nodes is None:
        nodes = (np.stack([key.root_seed for key in keys], axis=1),
                 np.array([key.party for key in keys], dtype=np.uint8))

    def stacked(field: str) -> np.ndarray:
        return np.stack([getattr(key, field)[first:last] for key in keys],
                        axis=1)

    return expand_tree(*nodes, stacked("cw_seeds"), stacked("cw_t_left"),
                       stacked("cw_t_right"))


def eval_dpf_full_batch(keys: Sequence[DpfKey]) -> np.ndarray:
    """Evaluate each key's share at every point of the domain, all keys
    in one pass over the tree levels.

    This is the server-side operation of §5.1 — a full tree expansion
    whose cost is linear in the domain size (the "DPF evaluation" part of
    the 167 ms per-request budget) — amortised over a pipelined batch:
    the per-level cost is paid once, not once per key.

    Args:
        keys: keys of one domain size and output length (any parties).

    Returns:
        Row ``i`` is ``eval_dpf_full(keys[i])``: ``(k, 2**d)`` uint8 share
        bits, or ``(k, 2**d, out_bytes)`` uint8 XOR value shares.
    """
    if not keys:
        raise CryptoError("need at least one DPF key")
    head = keys[0]
    if any((key.domain_bits, key.out_bytes) != (head.domain_bits, head.out_bytes)
           for key in keys):
        raise CryptoError("batched keys must share domain and output size")
    seeds, t_bits = expand_keys(keys, 0, head.domain_bits)
    cw_final = (np.stack([key.cw_final for key in keys])
                if head.out_bytes else None)
    return leaf_output(seeds, t_bits, head.out_bytes, cw_final, len(keys))


def eval_dpf_full(key: DpfKey) -> np.ndarray:
    """Evaluate one party's share at every point of the domain.

    Returns:
        In bit-output mode, a ``(2**d,)`` uint8 array of share bits. In
        block-output mode, a ``(2**d, out_bytes)`` uint8 array of XOR value
        shares.
    """
    return eval_dpf_full_batch([key])[0]


__all__ = [
    "DpfKey",
    "gen_dpf",
    "gen_dpf_batch",
    "eval_dpf",
    "eval_dpf_full",
    "eval_dpf_full_batch",
    "expand_keys",
    "expand_tree",
    "leaf_output",
    "dpf_key_bits",
    "key_wire_bytes",
    "LAMBDA_BITS",
    "MAX_DOMAIN_BITS",
]
