"""Tests for the §5.2 sharded parties."""

import threading
import tracemalloc

import numpy as np
import pytest

from repro.crypto.dpf import gen_dpf
from repro.crypto.dpf_distributed import split_dpf_key
from repro.errors import CryptoError
from repro.obs.trace import tracing
from repro.pir.database import BlobDatabase
from repro.pir.sharding import (
    DataServer,
    FrontEnd,
    ShardedPartyServer,
)
from repro.pir.twoserver import TwoServerPirServer


def make_logical_db(domain_bits=9, blob_size=24):
    db = BlobDatabase(domain_bits, blob_size)
    for i in range(db.n_slots):
        db.set_slot(i, f"cell-{i}".encode())
    return db


def _walk(trees):
    """Every span in an exported forest, depth first."""
    for tree in trees:
        yield tree
        yield from _walk(tree["children"])


class TestShardedDeployment:
    @pytest.mark.parametrize("prefix_bits", [1, 3, 5])
    def test_answers_match_unsharded(self, prefix_bits):
        db = make_logical_db()
        parties = [ShardedPartyServer(db, prefix_bits, party) for party in (0, 1)]
        for target in (0, 100, 511):
            k0, k1 = gen_dpf(target, db.domain_bits)
            a0 = parties[0].answer(k0.to_bytes())
            a1 = parties[1].answer(k1.to_bytes())
            record = bytes(x ^ y for x, y in zip(a0, a1))
            assert record.rstrip(b"\x00") == f"cell-{target}".encode()

    def test_server_count(self):
        db = make_logical_db()
        parties = [ShardedPartyServer(db, 4, party) for party in (0, 1)]
        assert len(parties[0].front_end.data_servers) == 16

    def test_shard_memory_scales_down(self):
        """§5.2: each data server holds 1/N of the data."""
        db = make_logical_db()
        whole = db.memory_bytes()
        parties = [ShardedPartyServer(db, 3, party) for party in (0, 1)]
        assert parties[0].front_end.data_servers[0].database.memory_bytes() == whole // 8

    def test_reports_cover_all_shards(self):
        db = make_logical_db()
        parties = [ShardedPartyServer(db, 3, party) for party in (0, 1)]
        k0, _ = gen_dpf(17, db.domain_bits)
        with tracing() as tracer:
            parties[0].answer(k0.to_bytes())
        scans = [s for s in _walk(tracer.export())
                 if s["name"] == "pir2.shard_scan"]
        assert sorted(s["attrs"]["shard"] for s in scans) == list(range(8))
        assert all(s["attrs"]["batch"] == 1 for s in scans)

    def test_shard_work_smaller_than_full_domain(self):
        """The data server's DPF covers only the sub-domain (§5.2)."""
        db = make_logical_db()
        parties = [ShardedPartyServer(db, 4, party) for party in (0, 1)]
        k0, _ = gen_dpf(0, db.domain_bits)
        subkey = split_dpf_key(k0, 4)[0]
        assert len(subkey.cw_seeds) < len(k0.cw_seeds)
        shard = parties[0].front_end.data_servers[0].database
        before = shard.rows_scanned
        parties[0].answer(k0.to_bytes())
        assert shard.rows_scanned - before == db.n_slots >> 4

    def test_invalid_prefix_bits(self):
        db = make_logical_db(domain_bits=5)
        with pytest.raises(CryptoError):
            ShardedPartyServer(db, 0, 0)
        with pytest.raises(CryptoError):
            ShardedPartyServer(db, 5, 0)

    def test_invalid_party(self):
        with pytest.raises(CryptoError):
            ShardedPartyServer(make_logical_db(), 2, 2)

    def test_wrong_party_key_rejected(self):
        parties = [ShardedPartyServer(make_logical_db(), 2, party) for party in (0, 1)]
        _, k1 = gen_dpf(0, 9)
        with pytest.raises(CryptoError):
            parties[0].answer(k1.to_bytes())


class TestStaleShards:
    """Regression: shards must follow the logical db. They are views of
    it, so a write is served by the next scan with nothing to refresh."""

    def _fetch(self, parties, db, target):
        k0, k1 = gen_dpf(target, db.domain_bits)
        a0 = parties[0].answer(k0.to_bytes())
        a1 = parties[1].answer(k1.to_bytes())
        return bytes(x ^ y for x, y in zip(a0, a1))

    def test_set_slot_after_construction_is_served(self):
        db = make_logical_db()
        parties = [ShardedPartyServer(db, 2, party) for party in (0, 1)]
        assert self._fetch(parties, db, 42).rstrip(b"\x00") == b"cell-42"
        db.set_slot(42, b"republished")
        assert self._fetch(parties, db, 42).rstrip(b"\x00") == b"republished"

    def test_clear_slot_after_construction_is_served(self):
        db = make_logical_db()
        parties = [ShardedPartyServer(db, 3, party) for party in (0, 1)]
        db.clear_slot(7)
        assert self._fetch(parties, db, 7) == bytes(db.blob_size)

    def test_batch_path_also_refreshes(self):
        db = make_logical_db()
        parties = [ShardedPartyServer(db, 2, party) for party in (0, 1)]
        db.set_slot(9, b"fresh")
        k0, k1 = gen_dpf(9, db.domain_bits)
        a0 = parties[0].answer_batch([k0.to_bytes()])[0]
        a1 = parties[1].answer_batch([k1.to_bytes()])[0]
        record = bytes(x ^ y for x, y in zip(a0, a1))
        assert record.rstrip(b"\x00") == b"fresh"


class TestShardViews:
    """A party holds its data once: every shard is a view of it."""

    def test_every_shard_shares_the_logical_storage(self):
        db = make_logical_db()
        parties = [ShardedPartyServer(db, 3, party) for party in (0, 1)]
        db.set_slot(5, b"bump")
        for front_end in (party.front_end for party in parties):
            for server in front_end.data_servers:
                assert np.shares_memory(server.database.packed_words(),
                                        db.packed_words())

    def test_building_a_party_server_copies_no_data(self):
        db = BlobDatabase(12, 4096)  # 16 MiB
        tracemalloc.start()
        try:
            ShardedPartyServer(db, 3, 0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestEnginePaths:
    """Every prefix width and batch size must give the unsharded answers."""

    @pytest.mark.parametrize("prefix_bits", [1, 2, 4])
    def test_sharded_answers_match_flat(self, prefix_bits):
        db = make_logical_db()
        parties = [ShardedPartyServer(db, prefix_bits, party) for party in (0, 1)]
        for target in (0, 257, 511):
            for party in (0, 1):
                keys = gen_dpf(target, db.domain_bits)
                raw = keys[party].to_bytes()
                expected = TwoServerPirServer(db, party).answer(raw)
                assert parties[party].answer(raw) == expected

    def test_default_party_server_scans_on_the_calling_thread(
            self, monkeypatch):
        db = make_logical_db()
        party = ShardedPartyServer(db, 2, 0)
        scan_threads = []
        scan = BlobDatabase.xor_scan_batch

        def recording_scan(self, select):
            scan_threads.append(threading.get_ident())
            return scan(self, select)

        monkeypatch.setattr(BlobDatabase, "xor_scan_batch", recording_scan)
        before = set(threading.enumerate())
        raws = [gen_dpf(t, db.domain_bits)[0].to_bytes() for t in (3, 300)]
        party.answer_batch(raws)
        party.answer(raws[0])
        assert set(threading.enumerate()) == before
        assert scan_threads == [threading.get_ident()] * 8

    def test_answer_batch_matches_single_answers(self):
        db = make_logical_db()
        parties = [ShardedPartyServer(db, 2, party) for party in (0, 1)]
        targets = [1, 100, 100, 503]
        raws = [gen_dpf(t, db.domain_bits)[0].to_bytes() for t in targets]
        singles = [parties[0].answer(raw) for raw in raws]
        assert parties[0].answer_batch(raws) == singles
        assert parties[0].answer_batch([]) == []

    def test_batch_is_single_pass_per_shard(self):
        db = make_logical_db()
        parties = [ShardedPartyServer(db, 2, party) for party in (0, 1)]
        raws = [gen_dpf(t, db.domain_bits)[0].to_bytes() for t in (3, 5, 8, 13)]
        shard_dbs = [s.database for s in parties[0].front_end.data_servers]
        before = [d.scan_passes for d in shard_dbs]
        parties[0].answer_batch(raws)
        after = [d.scan_passes for d in shard_dbs]
        assert [a - b for a, b in zip(after, before)] == [1, 1, 1, 1]
        assert all(d.scan_count - d.scan_passes >= 3 for d in shard_dbs)

    def test_fanout_report_populated(self):
        db = make_logical_db()
        parties = [ShardedPartyServer(db, 2, party) for party in (0, 1)]
        k0, _ = gen_dpf(6, db.domain_bits)
        parties[0].answer(k0.to_bytes())
        fanout = parties[0].front_end.last_fanout
        assert fanout is not None
        assert fanout.tasks == 4
        assert fanout.retries == 0
        assert 0 <= fanout.busy_seconds <= fanout.wall_seconds
        assert parties[1].front_end.last_fanout is None


class TestFrontEndAndDataServer:
    def test_front_end_requires_matching_server_count(self):
        db = make_logical_db()
        shard = DataServer(0, db.sub_database(0, 2))
        with pytest.raises(CryptoError):
            FrontEnd([shard], prefix_bits=2, blob_size=24, party=0)

    def test_data_server_rejects_foreign_selection(self):
        db = make_logical_db()
        servers = [DataServer(k, db.sub_database(k, 2)) for k in range(4)]
        front_end = FrontEnd(servers, prefix_bits=2, blob_size=24, party=0)
        # Shard 1 now holds half the domain, so the front-end's quarter-
        # wide selection is the wrong width for it; with no repair hook
        # the retried scan fails the same way.
        servers[1].database = db.sub_database(0, 1)
        k0, _ = gen_dpf(3, db.domain_bits)
        with pytest.raises(CryptoError):
            front_end.answer(k0.to_bytes())
        assert front_end.scans_failed == 1
        assert front_end.shards_repaired == 0

    def test_raising_shard_is_repaired_and_retried_once(self):
        db = make_logical_db()
        party = ShardedPartyServer(db, 2, 0)
        front_end = party.front_end
        front_end.data_servers[2].database = None  # its store died
        raw = gen_dpf(300, db.domain_bits)[0].to_bytes()
        assert party.answer(raw) == TwoServerPirServer(db, 0).answer(raw)
        assert front_end.shards_repaired == 1
        assert front_end.scans_failed == 0
        assert front_end.last_fanout.tasks == 4
        assert front_end.last_fanout.retries == 1
        assert np.shares_memory(
            front_end.data_servers[2].database.packed_words(),
            db.packed_words())

    def test_second_failure_propagates_and_is_counted(self):
        db = make_logical_db()
        party = ShardedPartyServer(db, 2, 0)
        front_end = party.front_end
        repaired = []
        front_end.shard_repair = repaired.append  # a repair that fixes nothing
        front_end.data_servers[1].database = None
        with pytest.raises(AttributeError):
            party.answer(gen_dpf(3, db.domain_bits)[0].to_bytes())
        assert repaired == [1]
        assert front_end.shards_repaired == 1
        assert front_end.scans_failed == 1
        assert front_end.last_fanout is None

    def test_front_end_rejects_wrong_depth_key(self):
        parties = [ShardedPartyServer(make_logical_db(), 2, party) for party in (0, 1)]
        k0, _ = gen_dpf(0, 8)
        with pytest.raises(CryptoError):
            parties[0].answer(k0.to_bytes())

    def test_requests_counted_per_shard(self):
        parties = [ShardedPartyServer(make_logical_db(), 2, party) for party in (0, 1)]
        k0, _ = gen_dpf(3, 9)
        parties[0].answer(k0.to_bytes())
        for server in parties[0].front_end.data_servers:
            assert server.requests_served == 1
