"""The sharded ZLTP deployment of §5.2: front-end + data servers.

"To scale up from 1 GiB with a single c5.large data server, we consider a
deployment of 305 c5.large data servers, each managing 1 GiB of the dataset.
Such a deployment would also need several front-end servers to intercept
incoming client requests, route them to the data servers, and combine the
results."

The key observation the paper makes — and that this module demonstrates
functionally — is that the front-end can evaluate the *top* of the client's
DPF tree once and hand each data server only its sub-tree root, so each data
server's DPF work equals a DPF evaluation over its own small domain
(:mod:`repro.crypto.dpf_distributed`). XOR-combining the per-shard scan
answers reproduces the whole-database answer exactly.

Shard assignment is by index prefix: data server ``k`` of ``2**prefix_bits``
holds the slots whose top bits equal ``k``.

For a batch of keys the front-end walks the top of every tree in one pass,
gang-evaluates the fleet's sub-trees in one more, runs one single-pass
batch scan per shard on the caller's thread, and XOR-combines the
shares. A single request is the batch of one. Shards are zero-copy,
read-only views of row ranges of the logical database, so a party holds
its data once, and a shard sees a write as soon as it lands, mid-scan
too, as the flat :class:`~repro.pir.twoserver.TwoServerPirServer` always
has. The unit of parallelism is the party: each party's front-end runs
in its own server, and nothing inside one party runs scans in parallel
(the scan is memory-bandwidth bound; E9 and E12 in EXPERIMENTS.md), and
a two-party deployment is one :class:`ShardedPartyServer` per party.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.core.backend import current_request_stats
from repro.crypto.dpf import eval_dpf_full_batch, expand_keys
from repro.errors import CryptoError
from repro.obs.trace import span
from repro.pir.database import BlobDatabase
from repro.pir.twoserver import parse_selection_burst


@dataclass(frozen=True)
class FanoutReport:
    """Accounting for one fan-out (one request's worth of shard scans).

    Attributes:
        tasks: number of shard scans run.
        wall_seconds: elapsed time for the whole fan-out.
        busy_seconds: sum of per-scan execution times.
        retries: scans that raised and were repaired and re-run.
    """

    tasks: int
    wall_seconds: float
    busy_seconds: float
    retries: int = 0


class DataServer:
    """One of the §5.2 data servers: a shard of the database."""

    def __init__(self, shard_index: int, shard_db: BlobDatabase):
        self.shard_index = shard_index
        self.database = shard_db
        self.requests_served = 0


class FrontEnd:
    """The §5.2 front-end: splits DPF keys, routes, and combines answers.

    Every answer runs one path: the fleet's sub-key evaluation happens as
    one vectorised gang pass, each data server's ``database`` gets one
    batch scan, in shard order on the caller's thread, and the XOR
    shares are folded. A scan that raises is repaired through
    :attr:`shard_repair` and retried once; if the retry raises too, the
    exception propagates to the protocol layer.
    """

    def __init__(self, data_servers: List[DataServer], prefix_bits: int,
                 blob_size: int, party: int):
        if len(data_servers) != (1 << prefix_bits):
            raise CryptoError(
                f"need {1 << prefix_bits} data servers for prefix_bits={prefix_bits}, "
                f"got {len(data_servers)}"
            )
        self.data_servers = data_servers
        self.prefix_bits = prefix_bits
        self.blob_size = blob_size
        self.party = party
        #: Full key depth: the front-end's levels plus a shard's. Fixed at
        #: construction, so a shard whose store died is still routed to.
        self.domain_bits = prefix_bits + data_servers[0].database.domain_bits
        #: Optional hook called with a shard index when its scan raises,
        #: *before* the scan is retried. The sharded party servers
        #: install a re-slicing of the shard from the logical database
        #: here, so a corrupted or dead shard is rebuilt and the retried
        #: scan answers correctly (graceful shard degradation rather than
        #: a failed request).
        self.shard_repair: Optional[Callable[[int], None]] = None
        self.shards_repaired = 0
        #: Shard scans that raised again after their repair.
        self.scans_failed = 0
        #: Tree nodes the front-end itself expanded (the top of every
        #: key's tree, §5.2's cheap part), counted from what it produced.
        self.nodes_expanded = 0
        self.last_fanout: Optional[FanoutReport] = None

    def answer(self, key_bytes: bytes) -> bytes:
        """Process one client request end to end: the batch of one."""
        return self.answer_batch([key_bytes])[0]

    def answer_batch(self, key_bytes_list: List[bytes]) -> List[bytes]:
        """Answer many requests with one DPF pass and one scan per shard.

        The front-end walks the top of every key's tree in one pass, the
        fleet's sub-trees — every key's, every shard's — are ganged into
        one more, and then exactly one
        :meth:`~repro.pir.database.BlobDatabase.xor_scan_batch` pass runs
        per shard over its ``(batch, sub_domain)`` selection matrix. A
        shard narrower than one early-terminated leaf word gets its slice
        of the word.
        """
        if not key_bytes_list:
            return []
        keys = parse_selection_burst(key_bytes_list, self.party,
                                     self.domain_bits)
        n_shards = len(self.data_servers)
        split = min(self.prefix_bits, keys.tree_bits)
        with span("pir2.key_split", shards=n_shards, batch=len(keys)):
            roots = expand_keys(keys, 0, split)
        self.nodes_expanded += roots[1].size - len(keys)
        with span("pir2.gang_eval", shards=n_shards, batch=len(keys)):
            bits = eval_dpf_full_batch(keys, split, roots)
        # Leaves are key-major and in index order: each key's run cuts
        # into the shards' sub-domains in prefix order.
        matrices = np.ascontiguousarray(
            bits.reshape(len(keys), n_shards, -1).swapaxes(0, 1))

        per_shard: List[List[bytes]] = []
        busy = 0.0
        retries = 0
        with span("engine.fanout", tasks=n_shards) as sp:
            for shard, matrix in enumerate(matrices):
                try:
                    shares, elapsed = self._scan(shard, matrix)
                except Exception:
                    self._repair(shard)
                    retries += 1
                    try:
                        shares, elapsed = self._scan(shard, matrix)
                    except Exception:
                        self.scans_failed += 1
                        raise
                    stats = current_request_stats()
                    if stats is not None:
                        stats.add(retries=1)
                per_shard.append(shares)
                busy += elapsed
            if retries:
                sp.annotate(retries=retries)
        self.last_fanout = FanoutReport(tasks=n_shards, wall_seconds=sp.elapsed,
                                        busy_seconds=busy, retries=retries)
        for server in self.data_servers:
            server.requests_served += len(keys)
        answers = []
        for i in range(len(keys)):
            acc = np.zeros(self.blob_size, dtype=np.uint8)
            for shares in per_shard:
                acc ^= np.frombuffer(shares[i], dtype=np.uint8)
            answers.append(acc.tobytes())
        return answers

    def _scan(self, shard: int, matrix: np.ndarray
              ) -> Tuple[List[bytes], float]:
        with span("pir2.shard_scan", shard=shard,
                  batch=int(matrix.shape[0])) as sp:
            shares = self.data_servers[shard].database.xor_scan_batch(matrix)
        return shares, sp.elapsed

    def _repair(self, shard: int) -> None:
        if self.shard_repair is not None:
            self.shard_repair(shard)
            self.shards_repaired += 1


class ShardedPartyServer:
    """One party's sharded serving stack: front-end + data-server fleet.

    This is the §5.2 deployment shape for a *single* ZLTP server process,
    where each real server runs exactly one party's shards. The pir2 mode
    server builds one of these when its ``prefix_bits`` option is set,
    which routes every answer through :class:`FrontEnd` — so a live ZLTP
    request produces the full front-end → shard trace.

    Speaks the same ``answer`` / ``answer_batch`` surface as
    :class:`~repro.pir.twoserver.TwoServerPirServer`, and like it reads
    the logical database in place: each shard is a read-only view of its
    row range. The backing array is never reallocated, so a publisher
    write (§3.1) is served by the next scan with nothing to refresh.
    """

    def __init__(self, database: BlobDatabase, prefix_bits: int, party: int):
        if party not in (0, 1):
            raise CryptoError("party must be 0 or 1")
        if not 1 <= prefix_bits < database.domain_bits:
            raise CryptoError(
                f"prefix_bits must be in [1, {database.domain_bits}), got {prefix_bits}"
            )
        self.database = database
        self.prefix_bits = prefix_bits
        self.party = party
        servers = [
            DataServer(k, database.sub_database(k, prefix_bits))
            for k in range(1 << prefix_bits)
        ]
        self.front_end = FrontEnd(servers, prefix_bits, database.blob_size,
                                  party)
        self.front_end.shard_repair = self._repair_shard

    def _repair_shard(self, shard: int) -> None:
        """Rebuild one dead shard from the logical database.

        The logical database is the durable source of truth; a shard is
        only a view of it, so a data server that started raising is
        repaired by re-slicing its sub-database.
        """
        server = self.front_end.data_servers[shard]
        server.database = self.database.sub_database(shard, self.prefix_bits)

    def answer(self, key_bytes: bytes) -> bytes:
        """Answer one private-GET: the batch of one."""
        return self.answer_batch([key_bytes])[0]

    def answer_batch(self, key_bytes_list: List[bytes]) -> List[bytes]:
        """Answer a pipelined batch: one single-pass scan per shard."""
        return self.front_end.answer_batch(key_bytes_list)


__all__ = ["ShardedPartyServer", "FrontEnd", "DataServer", "FanoutReport"]
