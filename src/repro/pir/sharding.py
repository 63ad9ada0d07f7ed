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

Execution goes through :mod:`repro.pir.engine`: the front-end gang-evaluates
the fleet's sub-keys in one vectorised pass, fans the shard scans out
through a :class:`~repro.pir.engine.ScanExecutor`, and XOR-combines shares
as they land. Shards are snapshots of the logical database and are rebuilt
whenever its ``version`` moves (see :meth:`ShardedDeployment.refresh`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.crypto.dpf import DpfKey, expand_keys
from repro.crypto.dpf_distributed import (
    SubtreeKey,
    eval_subkey_full,
    eval_subkeys_batch,
    split_dpf_key,
)
from repro.errors import CryptoError
from repro.obs.trace import span
from repro.pir.database import BlobDatabase
from repro.pir.engine import FanoutReport, ScanExecutor, shared_executor

#: Distinguishes front-end instances sharing one scan pool, so their
#: shard segments never collide under the pool's string keys.
_frontend_uids = itertools.count()


@dataclass(frozen=True)
class ShardReport:
    """Per-request accounting for one data server.

    Attributes:
        shard: which data server.
        dpf_seconds: time completing the sub-tree DPF evaluation.
        scan_seconds: time scanning the shard's blobs.
        subkey_bytes: size of the sub-tree key the front-end shipped.
    """

    shard: int
    dpf_seconds: float
    scan_seconds: float
    subkey_bytes: int


class DataServer:
    """One of the §5.2 data servers: a shard of the database."""

    def __init__(self, shard_index: int, shard_db: BlobDatabase):
        self.shard_index = shard_index
        self.database = shard_db
        self.requests_served = 0

    def answer_subkey(self, subkey: SubtreeKey) -> Tuple[bytes, ShardReport]:
        """Finish the DPF over this shard's sub-domain and scan the shard."""
        if subkey.prefix != self.shard_index:
            raise CryptoError(
                f"subkey for shard {subkey.prefix} sent to shard {self.shard_index}"
            )
        if subkey.remaining_bits != self.database.domain_bits:
            raise CryptoError("subkey depth does not match shard database")
        with span("pir2.shard_dpf", shard=self.shard_index) as sp_dpf:
            bits = eval_subkey_full(subkey)
        with span("pir2.shard_scan", shard=self.shard_index) as sp_scan:
            share = self.database.xor_scan(bits)
        self.requests_served += 1
        report = ShardReport(
            shard=self.shard_index,
            dpf_seconds=sp_dpf.elapsed,
            scan_seconds=sp_scan.elapsed,
            subkey_bytes=subkey.size_bytes(),
        )
        return share, report

    def answer_bits(self, subkey: SubtreeKey, bits: np.ndarray,
                    dpf_seconds: float = 0.0) -> Tuple[bytes, ShardReport]:
        """Scan the shard with already-evaluated share bits (engine path).

        The front-end gang-evaluates every shard's sub-tree in one
        vectorised pass (:func:`eval_subkeys_batch`) and hands each data
        server its row; ``dpf_seconds`` carries this server's amortised
        share of that pass so per-shard reports stay comparable with the
        sequential path.
        """
        if subkey.prefix != self.shard_index:
            raise CryptoError(
                f"subkey for shard {subkey.prefix} sent to shard {self.shard_index}"
            )
        if subkey.remaining_bits != self.database.domain_bits:
            raise CryptoError("subkey depth does not match shard database")
        with span("pir2.shard_scan", shard=self.shard_index) as sp:
            share = self.database.xor_scan(bits)
        self.requests_served += 1
        report = ShardReport(
            shard=self.shard_index,
            dpf_seconds=dpf_seconds,
            scan_seconds=sp.elapsed,
            subkey_bytes=subkey.size_bytes(),
        )
        return share, report

    def answer_bits_batch(self, select_matrix: np.ndarray) -> List[bytes]:
        """Answer a whole batch against this shard in one single-pass scan."""
        with span("pir2.shard_scan", shard=self.shard_index,
                  batch=int(select_matrix.shape[0])):
            shares = self.database.xor_scan_batch(select_matrix)
        self.requests_served += len(shares)
        return shares


class FrontEnd:
    """The §5.2 front-end: splits DPF keys, routes, and combines answers.

    With an :class:`~repro.pir.engine.ScanExecutor` attached, the front-end
    runs the engine path: the fleet's sub-key evaluation happens as one
    vectorised gang pass, shard scans fan out through the executor, and XOR
    shares are folded as results land. Without one (``executor=None``) it
    walks the data servers sequentially — the pre-engine behaviour, kept as
    the benchmark baseline.

    An executor advertising ``shares_shards`` (the multiprocess
    :class:`~repro.pir.procpool.ProcScanPool`) gets the zero-copy path
    instead: each shard's packed storage is registered into a
    shared-memory segment on first use (and re-registered whenever the
    shard's database object is swapped — the refresh and repair paths
    both reassign it), and scans are dispatched by key + selection bits
    rather than by closure, since closures cannot cross process
    boundaries. The ``shard_repair`` hook fires through the same
    contract on worker death: repair the logical shard, re-materialise
    its segment, retry.
    """

    def __init__(self, data_servers: List[DataServer], prefix_bits: int,
                 blob_size: int, party: int,
                 executor: Optional[ScanExecutor] = None):
        if len(data_servers) != (1 << prefix_bits):
            raise CryptoError(
                f"need {1 << prefix_bits} data servers for prefix_bits={prefix_bits}, "
                f"got {len(data_servers)}"
            )
        self.data_servers = data_servers
        self.prefix_bits = prefix_bits
        self.blob_size = blob_size
        self.party = party
        self.executor = executor
        #: Optional hook called with a shard index when its task raises,
        #: *before* the engine's sibling-worker retry re-runs the task.
        #: The sharded deployments install a re-extraction of the shard
        #: from the logical database here, so a corrupted or dead shard
        #: is rebuilt and the retried scan answers correctly (graceful
        #: shard degradation rather than a failed request).
        self.shard_repair: Optional[Callable[[int], None]] = None
        self.shards_repaired = 0
        self.last_reports: List[ShardReport] = []
        self.last_split_seconds = 0.0
        self.last_fanout: Optional[FanoutReport] = None
        #: Whether the attached executor scans shards out of shared
        #: memory (dispatch by key) instead of running closures in-process.
        self.pooled = bool(getattr(executor, "shares_shards", False))
        self._pool_uid = next(_frontend_uids)
        # Which database object each shard key currently has materialised
        # in the pool; refresh/repair swap the object, and the next answer
        # re-registers any shard whose identity moved.
        self._pool_synced: Dict[int, BlobDatabase] = {}

    def _pool_key(self, shard: int) -> str:
        return f"fe{self._pool_uid}p{self.party}:{shard}"

    def _sync_pool(self) -> None:
        """Materialise any shard whose backing database was swapped."""
        for shard, server in enumerate(self.data_servers):
            if self._pool_synced.get(shard) is not server.database:
                self.executor.register_shard(self._pool_key(shard),
                                             server.database)
                self._pool_synced[shard] = server.database

    def _pool_repair(self, shard: int) -> None:
        """Pool-side repair hook: rebuild the shard, re-share its segment.

        Called by the pool with the failing shard position before it
        re-dispatches the task. Runs the deployment's ``shard_repair``
        (re-extract from the logical database) when installed, then
        pushes whatever the shard's database now is back into shared
        memory so the retry scans fresh content.
        """
        if self.shard_repair is not None:
            self.shard_repair(shard)
            self.shards_repaired += 1
        server = self.data_servers[shard]
        self.executor.register_shard(self._pool_key(shard), server.database)
        self._pool_synced[shard] = server.database

    def detach_pool(self) -> None:
        """Release this front-end's shared-memory segments (idempotent)."""
        if self.pooled and self._pool_synced:
            self.executor.unregister_shards(
                [self._pool_key(shard) for shard in self._pool_synced])
            self._pool_synced = {}

    def _guard(self, shard: int, fn: Callable[[], object]) -> Callable[[], object]:
        """Wrap a shard task with the repair hook.

        The engine retries a raising task as-is; this wrapper makes the
        retry meaningful by repairing the shard's backing store first.
        """
        def run():
            try:
                return fn()
            except Exception:
                if self.shard_repair is not None:
                    self.shard_repair(shard)
                    self.shards_repaired += 1
                raise
        return run

    def _parse(self, key_bytes: bytes) -> DpfKey:
        key = DpfKey.from_bytes(key_bytes)
        if key.party != self.party:
            raise CryptoError(f"key for party {key.party} sent to front-end {self.party}")
        return key

    def _split(self, key_bytes: bytes) -> List[SubtreeKey]:
        key = self._parse(key_bytes)
        with span("pir2.key_split", shards=1 << self.prefix_bits) as sp:
            subkeys = split_dpf_key(key, self.prefix_bits)
        self.last_split_seconds = sp.elapsed
        return subkeys

    def answer(self, key_bytes: bytes) -> bytes:
        """Process one client request end to end across all shards."""
        subkeys = self._split(key_bytes)
        if self.executor is None:
            return self._answer_sequential(subkeys)
        return self._answer_parallel(subkeys)

    def _answer_sequential(self, subkeys: List[SubtreeKey]) -> bytes:
        shares = []
        reports = []
        for server, subkey in zip(self.data_servers, subkeys):
            share, report = server.answer_subkey(subkey)
            shares.append(share)
            reports.append(report)
        self.last_reports = reports
        self.last_fanout = None
        acc = np.zeros(self.blob_size, dtype=np.uint8)
        for share in shares:
            acc ^= np.frombuffer(share, dtype=np.uint8)
        return acc.tobytes()

    def _answer_parallel(self, subkeys: List[SubtreeKey]) -> bytes:
        with span("pir2.gang_eval", shards=len(subkeys)) as sp:
            bits = eval_subkeys_batch(subkeys)
        gang_share = sp.elapsed / len(subkeys)
        if self.pooled:
            self._sync_pool()
            keys = [self._pool_key(shard) for shard in range(len(subkeys))]
            combined, busys, fanout = self.executor.fanout_xor_bits(
                keys, bits, self.blob_size, repair=self._pool_repair)
            self.last_reports = [
                ShardReport(shard=shard, dpf_seconds=gang_share,
                            scan_seconds=busys[shard],
                            subkey_bytes=subkeys[shard].size_bytes())
                for shard in range(len(subkeys))
            ]
            self.last_fanout = fanout
            for server in self.data_servers:
                server.requests_served += 1
            return combined
        tasks = [
            self._guard(i, lambda server=server, subkey=subkey, row=bits[i]:
                        server.answer_bits(subkey, row, dpf_seconds=gang_share))
            for i, (server, subkey) in enumerate(zip(self.data_servers, subkeys))
        ]
        combined, reports, fanout = self.executor.fanout_xor(tasks, self.blob_size)
        self.last_reports = sorted(reports, key=lambda r: r.shard)
        self.last_fanout = fanout
        return combined

    def answer_batch(self, key_bytes_list: List[bytes]) -> List[bytes]:
        """Answer many requests with one DPF pass and one scan per shard.

        The front-end walks the top of every key's tree in one pass, the
        fleet's sub-trees — every key's, every shard's — are ganged into
        one more, and each shard then runs exactly one
        :meth:`~repro.pir.database.BlobDatabase.xor_scan_batch` pass over
        its ``(batch, sub_domain)`` selection matrix — fanned out through
        the executor when one is attached.
        """
        if not key_bytes_list:
            return []
        keys = [self._parse(raw) for raw in key_bytes_list]
        n_shards = len(self.data_servers)
        depth = self.prefix_bits + self.data_servers[0].database.domain_bits
        if any(key.domain_bits != depth for key in keys):
            raise CryptoError(
                f"DPF domain does not match the 2^{depth}-slot deployment")
        with span("pir2.key_split", shards=n_shards, batch=len(keys)) as sp:
            roots = expand_keys(keys, 0, self.prefix_bits)
        self.last_split_seconds = sp.elapsed
        with span("pir2.gang_eval", shards=n_shards, batch=len(keys)):
            _seeds, bits = expand_keys(keys, self.prefix_bits, depth, roots)
        # Leaves are key-major and in index order: each key's run cuts
        # into the shards' sub-domains in prefix order.
        matrices = np.ascontiguousarray(
            bits.reshape(len(keys), n_shards, -1).swapaxes(0, 1))

        def scan(shard: int) -> List[bytes]:
            return self.data_servers[shard].answer_bits_batch(matrices[shard])

        if self.pooled:
            self._sync_pool()
            per_shard = self.executor.map_scan_batch(
                [self._pool_key(shard) for shard in range(n_shards)],
                matrices, repair=self._pool_repair)
            for server in self.data_servers:
                server.requests_served += len(key_bytes_list)
        else:
            tasks = [self._guard(shard, lambda shard=shard: scan(shard))
                     for shard in range(n_shards)]
            if self.executor is None:
                per_shard = [task() for task in tasks]
            else:
                per_shard = self.executor.map(tasks)
        answers = []
        for i in range(len(key_bytes_list)):
            acc = np.zeros(self.blob_size, dtype=np.uint8)
            for shard in range(n_shards):
                acc ^= np.frombuffer(per_shard[shard][i], dtype=np.uint8)
            answers.append(acc.tobytes())
        return answers


class ShardedPartyServer:
    """One party's sharded serving stack: front-end + data-server fleet.

    This is the §5.2 deployment shape for a *single* ZLTP server process:
    where :class:`ShardedDeployment` simulates both non-colluding parties
    in one object (handy for tests and benchmarks), each real server runs
    exactly one party's shards. The pir2 mode server builds one of these
    when its ``prefix_bits`` option is set, which routes every answer
    through :class:`FrontEnd` and the scan engine — so a live ZLTP
    request produces the full front-end → shard trace.

    Speaks the same ``answer`` / ``answer_batch`` surface as
    :class:`~repro.pir.twoserver.TwoServerPirServer`, including the
    staleness rule: shards are snapshots, rebuilt when the logical
    database's ``version`` moves.
    """

    def __init__(self, database: BlobDatabase, prefix_bits: int, party: int,
                 executor: Optional[ScanExecutor] = None):
        if party not in (0, 1):
            raise CryptoError("party must be 0 or 1")
        if not 1 <= prefix_bits < database.domain_bits:
            raise CryptoError(
                f"prefix_bits must be in [1, {database.domain_bits}), got {prefix_bits}"
            )
        self.database = database
        self.prefix_bits = prefix_bits
        self.party = party
        self.executor = executor if executor is not None else shared_executor()
        servers = [
            DataServer(k, database.sub_database(k, prefix_bits))
            for k in range(1 << prefix_bits)
        ]
        self.front_end = FrontEnd(servers, prefix_bits, database.blob_size,
                                  party, executor=self.executor)
        self.front_end.shard_repair = self._repair_shard
        self._built_version = database.version

    @property
    def n_data_servers(self) -> int:
        """Data servers behind this party's front-end."""
        return 1 << self.prefix_bits

    def _repair_shard(self, shard: int) -> None:
        """Rebuild one dead shard from the logical database.

        The logical database is the durable source of truth; a shard is
        only a snapshot, so a data server that started raising is
        repaired by re-extracting its sub-database — the same operation
        :meth:`refresh` performs for staleness, scoped to one shard.
        """
        server = self.front_end.data_servers[shard]
        server.database = self.database.sub_database(shard, self.prefix_bits)

    def refresh(self) -> bool:
        """Re-extract the shards if the logical database changed.

        Returns:
            True if the shards were stale and have been rebuilt.
        """
        if self._built_version == self.database.version:
            return False
        for k, server in enumerate(self.front_end.data_servers):
            server.database = self.database.sub_database(k, self.prefix_bits)
        self._built_version = self.database.version
        return True

    def answer(self, key_bytes: bytes) -> bytes:
        """Answer one private-GET through the front-end fan-out."""
        self.refresh()
        return self.front_end.answer(key_bytes)

    def answer_batch(self, key_bytes_list: List[bytes]) -> List[bytes]:
        """Answer a pipelined batch: one single-pass scan per shard."""
        self.refresh()
        return self.front_end.answer_batch(key_bytes_list)


class ShardedDeployment:
    """A full two-party sharded deployment over a logical database.

    Builds, for each PIR party, one front-end plus ``2**prefix_bits`` data
    servers holding prefix shards of the logical database. The client speaks
    to it exactly as it would to a pair of unsharded servers.
    """

    def __init__(self, database: BlobDatabase, prefix_bits: int,
                 executor: Optional[ScanExecutor] = None,
                 parallel: bool = True):
        """Shard ``database`` ``2**prefix_bits`` ways for both parties.

        Args:
            database: the logical (whole-universe) database.
            prefix_bits: log2 of the data-server count per party; must leave
                at least one level of DPF tree for the data servers.
            executor: scan engine to fan shard work out through; defaults
                to the process-wide shared executor.
            parallel: pass False to force the sequential pre-engine answer
                path (the E9 benchmark baseline).
        """
        if not 1 <= prefix_bits < database.domain_bits:
            raise CryptoError(
                f"prefix_bits must be in [1, {database.domain_bits}), got {prefix_bits}"
            )
        self.database = database
        self.prefix_bits = prefix_bits
        if executor is None and parallel:
            executor = shared_executor()
        self.executor = executor if parallel else None
        self.front_ends = []
        for party in (0, 1):
            servers = [
                DataServer(k, database.sub_database(k, prefix_bits))
                for k in range(1 << prefix_bits)
            ]
            self.front_ends.append(
                FrontEnd(servers, prefix_bits, database.blob_size, party,
                         executor=self.executor)
            )
        for front_end in self.front_ends:
            front_end.shard_repair = self._make_repair(front_end)
        self._built_version = database.version

    def _make_repair(self, front_end: FrontEnd) -> Callable[[int], None]:
        """A per-front-end shard-repair hook: re-extract one dead shard.

        Same rebuild as :meth:`refresh`, scoped to a single data server,
        so the engine's sibling-worker retry runs against a fresh shard.
        """
        def repair(shard: int) -> None:
            front_end.data_servers[shard].database = \
                self.database.sub_database(shard, self.prefix_bits)
        return repair

    @property
    def n_data_servers(self) -> int:
        """Data servers per party."""
        return 1 << self.prefix_bits

    def refresh(self) -> bool:
        """Rebuild the shards if the logical database changed underneath.

        Mirrors the :meth:`ZltpServer.mode_server` staleness rule: shards
        are snapshots taken at build time, so every answer path first
        checks ``database.version`` and re-extracts each data server's
        sub-database when a publisher push (§3.1) has landed since.

        Returns:
            True if the shards were stale and have been rebuilt.
        """
        if self._built_version == self.database.version:
            return False
        for front_end in self.front_ends:
            for k, server in enumerate(front_end.data_servers):
                server.database = self.database.sub_database(k, self.prefix_bits)
        self._built_version = self.database.version
        return True

    def answer(self, party: int, key_bytes: bytes) -> bytes:
        """Route a client key to the given party's front-end."""
        if party not in (0, 1):
            raise CryptoError("party must be 0 or 1")
        self.refresh()
        return self.front_ends[party].answer(key_bytes)

    def answer_batch(self, party: int, key_bytes_list: List[bytes]) -> List[bytes]:
        """Answer a batch through one party: single-pass scans per shard."""
        if party not in (0, 1):
            raise CryptoError("party must be 0 or 1")
        self.refresh()
        return self.front_ends[party].answer_batch(key_bytes_list)

    def shard_memory_bytes(self) -> int:
        """Backing storage per data server (the paper's 1 GiB per shard)."""
        return self.front_ends[0].data_servers[0].database.memory_bytes()


__all__ = ["ShardedDeployment", "ShardedPartyServer", "FrontEnd",
           "DataServer", "ShardReport"]
