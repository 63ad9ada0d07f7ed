"""Property tests for the PIR engines: any database, any index, any mode."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.backend import create_client, create_server
from repro.core.zltp.modes import MODE_PIR_LWE
from repro.crypto.lwe import LweParams
from repro.pir.database import BlobDatabase
from repro.pir.keyword import decode_record, encode_record
from repro.pir.twoserver import TwoServerPirClient, TwoServerPirServer


@st.composite
def small_database(draw):
    domain_bits = draw(st.integers(min_value=2, max_value=7))
    blob_size = draw(st.integers(min_value=9, max_value=48))
    n_slots = 1 << domain_bits
    fills = draw(st.dictionaries(
        st.integers(min_value=0, max_value=n_slots - 1),
        st.binary(min_size=0, max_size=blob_size),
        max_size=12,
    ))
    db = BlobDatabase(domain_bits, blob_size)
    for index, blob in fills.items():
        db.set_slot(index, blob)
    return db, fills


@settings(max_examples=25, deadline=None)
@given(small_database(), st.integers(min_value=0, max_value=127))
def test_two_server_pir_fetches_exact_slot(case, target_raw):
    db, fills = case
    target = target_raw % db.n_slots
    server0 = TwoServerPirServer(db, 0)
    server1 = TwoServerPirServer(db, 1)
    client = TwoServerPirClient(db.domain_bits, db.blob_size)
    key0, key1 = client.query(target)
    got = client.reconstruct(server0.answer(key0), server1.answer(key1))
    assert got == db.get_slot(target)


@settings(max_examples=10, deadline=None)
@given(small_database(), st.integers(min_value=0, max_value=127),
       st.integers(min_value=0, max_value=2**31))
def test_single_server_pir_fetches_exact_slot(case, target_raw, seed):
    db, _fills = case
    target = target_raw % db.n_slots
    server = create_server(MODE_PIR_LWE, db, lwe_params=LweParams(n=32))
    client = create_client(MODE_PIR_LWE, db.domain_bits, db.blob_size,
                           server.hello_params(), server.setup(),
                           rng=np.random.default_rng(seed))
    answers = server.answer_batch(client.queries_for_slot(target))
    assert client.decode(answers) == db.get_slot(target)


@settings(max_examples=15, deadline=None)
@given(small_database(),
       st.lists(st.integers(min_value=0, max_value=127), min_size=1, max_size=17),
       st.integers(min_value=1, max_value=6),
       st.integers(min_value=0, max_value=1))
def test_scan_paths_are_bitwise_identical(case, targets_raw, prefix_raw, party):
    """Plain scan, single-pass batch, and sharded fan-out must agree bit-for-bit."""
    from repro.crypto.dpf import eval_dpf_full, gen_dpf
    from repro.pir.sharding import ShardedPartyServer

    db, _fills = case
    targets = [t % db.n_slots for t in targets_raw]
    prefix_bits = 1 + prefix_raw % (db.domain_bits - 1)
    parties = [ShardedPartyServer(db, prefix_bits, party) for party in (0, 1)]
    keys = [gen_dpf(t, db.domain_bits)[party] for t in targets]
    select = np.stack([eval_dpf_full(k) for k in keys])

    plain = [db.xor_scan(row) for row in select]
    batched = db.xor_scan_batch(select)
    per_row = db.xor_scan_batch_per_row(select)
    sharded = [parties[party].answer(k.to_bytes()) for k in keys]
    sharded_batch = parties[party].answer_batch(
        [k.to_bytes() for k in keys])

    assert batched == plain
    assert per_row == plain
    assert sharded == plain
    assert sharded_batch == plain


@settings(max_examples=40, deadline=None)
@given(st.text(min_size=1, max_size=40),
       st.text(min_size=1, max_size=40),
       st.binary(max_size=30),
       st.integers(min_value=48, max_value=128))
def test_keyword_record_binds_to_its_key(key_a, key_b, payload, blob_size):
    record = encode_record(key_a, payload, blob_size)
    assert decode_record(key_a, record) == payload
    if key_a != key_b:
        assert decode_record(key_b, record) is None


@settings(max_examples=15, deadline=None)
@given(st.lists(st.tuples(st.integers(min_value=0, max_value=15),
                          st.binary(min_size=1, max_size=16)),
                min_size=1, max_size=20))
def test_database_behaves_like_dict(operations):
    """Random set/clear sequences: the database equals a plain dict."""
    db = BlobDatabase(4, 16)
    reference = {}
    for index, blob in operations:
        if blob == b"\x00":  # treat a 1-byte NUL as "clear"
            db.clear_slot(index)
            reference.pop(index, None)
        else:
            db.set_slot(index, blob)
            reference[index] = blob.ljust(16, b"\x00")
    for index in range(16):
        assert db.get_slot(index) == reference.get(index, b"\x00" * 16)
    assert db.n_occupied == len(reference)
