"""The XOR scan kernel: every scan path answers the same bytes.

``xor_scan_batch`` is the one kernel (``xor_scan`` is its batch of one,
and the sharded front-end scans each shard with it);
``xor_scan_batch_per_row`` is the independent per-row reference, and a
fold over the blobs as written is the ground truth. All seeded: blob sizes
on both sides of the uint64 word and of the scan block, batches 0 to 16
(every remainder of the batch over the request group, so groups of each
size, balanced or not), random and degenerate selections, and the pinned
answer digests (plus the two parties' answers recombining to the slot)
with the scan cut into many small blocks or held in one.
"""

import json

import numpy as np
import pytest

from repro.pir import database as database_module
from repro.pir.database import BlobDatabase
from repro.pir.twoserver import TwoServerPirServer
from tests.unit.test_dpf_equivalence import (
    FIXTURE,
    _sha,
    answer_world,
    assert_answers_recombine,
)

#: (blob_size, domain_bits). At the real block size 1000 B x 2^11 walks
#: one full block and a partial one; 65536 B x 2^6 walks four full ones.
GEOMETRIES = [(1, 6), (7, 6), (8, 6), (1000, 6), (1000, 11), (4096, 6),
              (65536, 6)]
#: The real block; one so small that a block is a few rows (or one row,
#: for the wide blobs) and most databases end on a partial block; and one
#: so large that one block holds the whole of every geometry (the largest
#: is 2^6 x 64 KiB) at every group size.
BLOCK_BYTES = [database_module.SCAN_BLOCK_BYTES, 3000, 1 << 22]
BATCHES = [0, 1, 2, 3, 4, 5, 7, 10, 16]
SELECTIONS = ["random", "zeros", "ones", "single", "mixed"]


def _contents(blob_size: int, domain_bits: int) -> np.ndarray:
    rng = np.random.default_rng([blob_size, domain_bits])
    return rng.integers(0, 256, size=(1 << domain_bits, blob_size),
                        dtype=np.uint8)


def _database(blobs: np.ndarray) -> BlobDatabase:
    """The blobs, packed the way ``set_slot`` packs them."""
    n_slots, blob_size = blobs.shape
    storage = np.zeros((n_slots, (blob_size + 7) // 8), dtype=np.uint64)
    storage.view(np.uint8)[:, :blob_size] = blobs
    return BlobDatabase.view_over(storage, blob_size)


def _selection(kind: str, batch: int, n_slots: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng([seed, batch, n_slots])
    rows = []
    for i in range(batch):
        row_kind = SELECTIONS[i % 4] if kind == "mixed" else kind
        row = np.zeros(n_slots, dtype=np.uint8)
        if row_kind == "random":
            row = rng.integers(0, 2, size=n_slots, dtype=np.uint8)
        elif row_kind == "ones":
            row[:] = 1
        elif row_kind == "single":
            row[int(rng.integers(0, n_slots))] = 1
        rows.append(row)
    return np.array(rows, dtype=np.uint8).reshape(batch, n_slots)


def _truth(blobs: np.ndarray, select: np.ndarray) -> list:
    return [np.bitwise_xor.reduce(blobs[row.astype(bool)], axis=0).tobytes()
            for row in select]


def _counters(db: BlobDatabase) -> tuple:
    return db.scan_count, db.scan_passes, db.rows_scanned


@pytest.mark.parametrize("block_bytes", BLOCK_BYTES)
@pytest.mark.parametrize("blob_size,domain_bits", GEOMETRIES)
@pytest.mark.parametrize("batch", BATCHES)
@pytest.mark.parametrize("kind", SELECTIONS)
def test_every_scan_path_answers_the_ground_truth(
        monkeypatch, block_bytes, blob_size, domain_bits, batch, kind):
    monkeypatch.setattr(database_module, "SCAN_BLOCK_BYTES", block_bytes)
    blobs = _contents(blob_size, domain_bits)
    db = _database(blobs)
    n = db.n_slots
    select = _selection(kind, batch, n, seed=blob_size)
    expected = _truth(blobs, select)

    assert db.xor_scan_batch(select) == expected
    assert _counters(db) == (batch, min(batch, 1), n * min(batch, 1))

    assert db.xor_scan_batch_per_row(select) == expected
    assert _counters(db) == (2 * batch, min(batch, 1) + batch,
                             n * (min(batch, 1) + batch))

    before = _counters(db)
    assert [db.xor_scan(row) for row in select] == expected
    assert _counters(db) == tuple(
        value + batch * step for value, step in zip(before, (1, 1, n)))


@pytest.mark.parametrize("block_bytes", BLOCK_BYTES + [48, 240])
def test_pinned_answers_hold_for_any_block_size(monkeypatch, block_bytes):
    """The fixture's 2^8 x 48 B world, scanned in one block, one row per
    block, and partial blocks of five rows: the pinned party-0 answers,
    batched and one at a time, and both parties' answers XOR to the
    slots."""
    monkeypatch.setattr(database_module, "SCAN_BLOCK_BYTES", block_bytes)
    database, pairs = answer_world()
    queries = [pair[0] for pair in pairs]
    expected = json.loads(FIXTURE.read_text())["answers"]
    servers = [TwoServerPirServer(database, party) for party in (0, 1)]
    assert _sha(*servers[0].answer_batch(queries)) == expected
    assert _sha(*(servers[0].answer(query) for query in queries)) == expected
    assert_answers_recombine(
        database, pairs, lambda party, keys: servers[party].answer_batch(keys))
