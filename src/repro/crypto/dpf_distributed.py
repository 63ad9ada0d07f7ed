"""Distributed DPF evaluation — the front-end / data-server split of §5.2.

The paper scales ZLTP across 305 data servers by having a front-end server
evaluate the *top* of the DPF tree once, then hand each data server the seed
of its sub-tree: "DPF evaluation is done by building a tree, and so the
front-end server can build the top part of the tree and then, for each
sub-tree, send the sub-tree root to the corresponding server. The cost for
the data server of completing the DPF evaluation from that point is the same
as the cost of evaluating the DPF key for the smaller domain."

:func:`split_dpf_key` performs the front-end work; :func:`eval_subkey_full`
is what a data server runs. Concatenating every sub-tree's output in prefix
order reproduces the full-domain evaluation bit-for-bit — this is the
correctness property benchmark E6 checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.crypto.dpf import DpfKey, expand_keys, expand_tree, leaf_output
from repro.errors import CryptoError


@dataclass
class SubtreeKey:
    """The state a data server needs to finish a DPF evaluation (§5.2).

    Attributes:
        party: which server pair member this share belongs to.
        prefix: index of this sub-tree among the ``2**prefix_bits`` sub-trees.
        prefix_bits: how many top levels the front-end already evaluated.
        remaining_bits: tree levels left for the data server to expand.
        seed: ``(4,)`` uint32 sub-tree root seed.
        t_bit: the control bit at the sub-tree root.
        cw_seeds: ``(remaining_bits, 4)`` correction words for the remaining
            levels (the tail of the original key's correction words).
        cw_t_left / cw_t_right: matching control-bit corrections.
        out_bytes / cw_final: output conversion data, as in :class:`DpfKey`.
    """

    party: int
    prefix: int
    prefix_bits: int
    remaining_bits: int
    seed: np.ndarray
    t_bit: int
    cw_seeds: np.ndarray
    cw_t_left: np.ndarray
    cw_t_right: np.ndarray
    out_bytes: int = 0
    cw_final: Optional[np.ndarray] = None

    @property
    def domain_size(self) -> int:
        """Number of leaves under this sub-tree."""
        return 1 << self.remaining_bits

    def size_bytes(self) -> int:
        """Approximate wire size of the sub-tree key in bytes.

        seed (16) + control bit (1) + the remaining correction words. This is
        what the front-end ships to one data server per request.
        """
        per_level = 16 + 1
        final = self.out_bytes if self.out_bytes else 0
        return 16 + 1 + self.remaining_bits * per_level + final


def split_dpf_key(key: DpfKey, prefix_bits: int) -> List[SubtreeKey]:
    """Evaluate the top ``prefix_bits`` levels and emit one key per sub-tree.

    This is the front-end server's job in the §5.2 deployment. The cost is
    ``O(2**prefix_bits)`` PRG expansions — tiny next to the data servers'
    scans — and afterwards each data server only pays for a DPF evaluation
    over the *smaller* domain of ``domain_bits - prefix_bits`` levels.

    Args:
        key: one party's full DPF key.
        prefix_bits: number of levels to evaluate at the front-end; must be
            in ``[0, key.domain_bits]``.

    Returns:
        ``2**prefix_bits`` sub-tree keys in prefix order.
    """
    if not 0 <= prefix_bits <= key.domain_bits:
        raise CryptoError(
            f"prefix_bits must be in [0, {key.domain_bits}], got {prefix_bits}"
        )
    seeds, t_bits = expand_keys([key], 0, prefix_bits)

    remaining = key.domain_bits - prefix_bits
    subkeys = []
    for prefix in range(1 << prefix_bits):
        subkeys.append(
            SubtreeKey(
                party=key.party,
                prefix=prefix,
                prefix_bits=prefix_bits,
                remaining_bits=remaining,
                seed=seeds[:, prefix].copy(),
                t_bit=int(t_bits[prefix]),
                cw_seeds=key.cw_seeds[prefix_bits:].copy(),
                cw_t_left=key.cw_t_left[prefix_bits:].copy(),
                cw_t_right=key.cw_t_right[prefix_bits:].copy(),
                out_bytes=key.out_bytes,
                cw_final=None if key.cw_final is None else key.cw_final.copy(),
            )
        )
    return subkeys


def eval_subkeys_batch(subkeys: List[SubtreeKey]) -> np.ndarray:
    """Evaluate every sub-tree of one split in a single vectorised pass.

    All sub-keys emitted by one :func:`split_dpf_key` call share their
    correction-word tail and depth, so their level loops can be fused:
    stacking the ``2**prefix_bits`` sub-tree roots and expanding them
    together costs exactly one full-domain evaluation while paying the
    per-level Python overhead *once* instead of once per data server. This
    is how the in-process front-end simulates the fleet's collective DPF
    work without multiplying interpreter overhead by the shard count.

    Args:
        subkeys: the sub-tree keys of one ``split_dpf_key`` call, in prefix
            order (same party, same remaining depth, same correction tail).

    Returns:
        In bit-output mode a ``(len(subkeys), 2**remaining_bits)`` uint8
        array — row ``i`` equals ``eval_subkey_full(subkeys[i])`` exactly;
        in block-output mode ``(len(subkeys), 2**remaining_bits, out_bytes)``.
    """
    if not subkeys:
        raise CryptoError("need at least one sub-tree key")
    head = subkeys[0]
    for subkey in subkeys[1:]:
        if (subkey.party, subkey.remaining_bits, subkey.out_bytes) != (
            head.party, head.remaining_bits, head.out_bytes
        ):
            raise CryptoError("sub-tree keys must come from a single split")
    seeds, t_bits = expand_tree(
        np.stack([s.seed for s in subkeys], axis=1).astype(np.uint32),
        np.array([s.t_bit for s in subkeys], dtype=np.uint8),
        head.cw_seeds[:, None],
        head.cw_t_left[:, None],
        head.cw_t_right[:, None],
    )
    cw_final = None if head.cw_final is None else head.cw_final[None]
    return leaf_output(seeds, t_bits, head.out_bytes, cw_final, len(subkeys))


def eval_subkey_full(subkey: SubtreeKey) -> np.ndarray:
    """Finish a DPF evaluation over one sub-tree (the data server's job).

    Returns:
        In bit-output mode, a ``(2**remaining_bits,)`` uint8 array of share
        bits for the leaves under this sub-tree; in block-output mode, a
        ``(2**remaining_bits, out_bytes)`` uint8 array.
    """
    return eval_subkeys_batch([subkey])[0]


__all__ = ["SubtreeKey", "split_dpf_key", "eval_subkey_full", "eval_subkeys_batch"]
