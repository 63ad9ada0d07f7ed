"""Tests for two-server DPF PIR — the prototype's mode of operation."""

import numpy as np
import pytest

from repro.crypto.dpf import gen_dpf
from repro.errors import CryptoError
from repro.pir.database import BlobDatabase
from repro.obs.trace import tracing
from repro.pir.twoserver import TwoServerPirClient, TwoServerPirServer


def replicated_db(domain_bits=7, blob_size=24):
    dbs = []
    for _ in range(2):
        db = BlobDatabase(domain_bits, blob_size)
        for i in range(db.n_slots):
            db.set_slot(i, f"row-{i}".encode())
        dbs.append(db)
    return dbs


def fetch(client, index, s0, s1):
    """One whole request: the client's key pair, both answers, the XOR."""
    k0, k1 = client.query(index)
    return client.reconstruct(s0.answer(k0), s1.answer(k1))


class TestProtocol:
    def test_fetch_every_slot_small_domain(self):
        db0, db1 = replicated_db(4)
        s0, s1 = TwoServerPirServer(db0, 0), TwoServerPirServer(db1, 1)
        client = TwoServerPirClient(4, 24)
        for i in range(16):
            got = fetch(client, i, s0, s1)
            assert got.rstrip(b"\x00") == f"row-{i}".encode()

    def test_fetch_unwritten_slot_returns_zeros(self):
        db0 = BlobDatabase(5, 16)
        db1 = BlobDatabase(5, 16)
        s0, s1 = TwoServerPirServer(db0, 0), TwoServerPirServer(db1, 1)
        client = TwoServerPirClient(5, 16)
        assert fetch(client, 9, s0, s1) == b"\x00" * 16

    def test_individual_answers_are_shares(self):
        """Neither server's answer alone equals the record.

        The rows are random bytes: over the low-entropy ``row-i`` rows a
        share's XOR of about half the rows hits ``row-11`` about once in
        400 key pairs, whereas 64 random 24-byte rows are linearly
        independent, so a share equals the record only if it selected
        that row alone (odds 2**-63).
        """
        rows = np.random.default_rng(11).integers(0, 256, size=(64, 24),
                                                  dtype=np.uint8)
        db0, db1 = BlobDatabase(6, 24), BlobDatabase(6, 24)
        for db in (db0, db1):
            for i, row in enumerate(rows):
                db.set_slot(i, row.tobytes())
        s0, s1 = TwoServerPirServer(db0, 0), TwoServerPirServer(db1, 1)
        client = TwoServerPirClient(6, 24)
        k0, k1 = client.query(11)
        a0, a1 = s0.answer(k0), s1.answer(k1)
        record = db0.get_slot(11)
        assert a0 != record and a1 != record
        assert client.reconstruct(a0, a1) == record

    def test_requests_served_counter(self):
        db0, db1 = replicated_db(4)
        s0, s1 = TwoServerPirServer(db0, 0), TwoServerPirServer(db1, 1)
        client = TwoServerPirClient(4, 24)
        fetch(client, 1, s0, s1)
        fetch(client, 2, s0, s1)
        assert s0.requests_served == 2
        assert s1.requests_served == 2


class TestValidation:
    def test_party_mismatch_rejected(self):
        db0, db1 = replicated_db(4)
        s0 = TwoServerPirServer(db0, 0)
        client = TwoServerPirClient(4, 24)
        _, k1 = client.query(0)
        with pytest.raises(CryptoError):
            s0.answer(k1)

    def test_domain_mismatch_rejected(self):
        db0, db1 = replicated_db(4)
        s0 = TwoServerPirServer(db0, 0)
        key0, _ = gen_dpf(0, 6)
        with pytest.raises(CryptoError):
            s0.answer(key0.to_bytes())

    def test_bad_party_argument(self):
        db0, _ = replicated_db(4)
        with pytest.raises(CryptoError):
            TwoServerPirServer(db0, party=2)

    def test_reconstruct_length_mismatch(self):
        client = TwoServerPirClient(4, 16)
        with pytest.raises(CryptoError):
            client.reconstruct(b"ab", b"abc")


class TestTimingAndAccounting:
    def test_timed_answer(self):
        """An answer reports E1's split as its two spans: DPF, then scan."""
        db0, db1 = replicated_db(8)
        s0 = TwoServerPirServer(db0, 0)
        client = TwoServerPirClient(8, 24)
        k0, _ = client.query(3)
        with tracing() as tracer:
            s0.answer(k0)
        spans = tracer.export()
        assert [s["name"] for s in spans] == ["pir2.dpf_eval", "pir2.scan"]
        assert all(s["wall_seconds"] > 0 for s in spans)
        assert all(s["attrs"]["batch"] == 1 for s in spans)

    def test_upload_is_logarithmic_in_domain(self):
        """§2.2: "the upload is logarithmic in the size of the key space"."""
        small = TwoServerPirClient(8, 24).upload_bytes()
        large = TwoServerPirClient(16, 24).upload_bytes()
        # Two keys, each 17 B (a seed and two control bits) per domain bit
        # once the domain is past one early-terminated 128-bit leaf word.
        assert small == 2 * (38 + 17 * 1)
        assert large - small == 34 * (16 - 8)

    def test_download_is_two_blobs(self):
        client = TwoServerPirClient(8, 4096)
        assert client.download_bytes() == 2 * 4096


class TestBatchAnswering:
    def test_batch_matches_sequential(self):
        db0, db1 = replicated_db(6)
        s0, s1 = TwoServerPirServer(db0, 0), TwoServerPirServer(db1, 1)
        client = TwoServerPirClient(6, 24)
        indices = [0, 5, 9, 33]
        queries = [client.query(i) for i in indices]
        batch0 = s0.answer_batch([q[0] for q in queries])
        batch1 = s1.answer_batch([q[1] for q in queries])
        for index, a0, a1 in zip(indices, batch0, batch1):
            assert client.reconstruct(a0, a1).rstrip(b"\x00") == f"row-{index}".encode()

    def test_batch_counts_requests(self):
        db0, db1 = replicated_db(4)
        s0 = TwoServerPirServer(db0, 0)
        client = TwoServerPirClient(4, 24)
        s0.answer_batch([client.query(i)[0] for i in range(3)])
        assert s0.requests_served == 3


class TestBatchEdgesAndSizes:
    def test_empty_batch_answers_empty(self):
        from repro.pir.sharding import ShardedPartyServer

        db = BlobDatabase(6, 16)
        assert TwoServerPirServer(db, 0).answer_batch([]) == []
        assert ShardedPartyServer(db, 2, 0).answer_batch([]) == []

    def test_upload_bytes_is_the_wire_size_of_both_keys(self):
        for domain_bits in (1, 9, 20):
            client = TwoServerPirClient(domain_bits, 64)
            key0, key1 = gen_dpf(0, domain_bits)
            assert client.upload_bytes() == \
                len(key0.to_bytes()) + len(key1.to_bytes())
