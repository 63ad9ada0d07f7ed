"""A1 (ablation) — §2.2's modes of operation, head to head.

The paper describes three trust/cost points: two-server PIR (linear scan,
non-collusion), single-server LWE PIR (linear work, bigger communication,
cryptographic assumption only), and enclave+ORAM (polylog work, hardware
assumption). This ablation measures all three serving the same blobs.
"""

import time

import numpy as np
import pytest

from benchmarks.conftest import report
from repro.core.zltp import messages as msg
from repro.core.zltp.modes import (
    EnclaveModeClient,
    EnclaveModeServer,
    LweModeClient,
    LweModeServer,
    Pir2ModeClient,
    Pir2ModeServer,
)
from repro.crypto.lwe import LweParams
from repro.pir.database import BlobDatabase

DOMAIN_BITS = 10
BLOB_BYTES = 1024


@pytest.fixture(scope="module")
def database():
    db = BlobDatabase(DOMAIN_BITS, BLOB_BYTES)
    rng = np.random.default_rng(0)
    for i in range(db.n_slots):
        db.set_slot(i, bytes(rng.integers(0, 256, 200, dtype=np.uint8)))
    return db


def test_a1_pir2_get(benchmark, database):
    server0 = Pir2ModeServer(database, 0)
    server1 = Pir2ModeServer(database, 1)
    client = Pir2ModeClient(DOMAIN_BITS, BLOB_BYTES)

    def get(slot=77):
        queries = client.queries_for_slot(slot)
        return client.decode([server0.answer(queries[0]),
                              server1.answer(queries[1])])

    record = benchmark(get)
    assert record == database.get_slot(77)
    queries = client.queries_for_slot(0)
    report("A1: pir2 (non-collusion assumption)", [
        ("upload per GET", f"{sum(len(q) for q in queries)} B"),
        ("download per GET", f"{2 * BLOB_BYTES} B"),
        ("server work", "full linear scan at BOTH servers"),
    ])


def test_a1_lwe_get(benchmark, database):
    server = LweModeServer(database, params=LweParams(n=64))
    client = LweModeClient(DOMAIN_BITS, BLOB_BYTES, server.hello_params(),
                           server.setup(), rng=np.random.default_rng(1))

    def get(slot=77):
        queries = client.queries_for_slot(slot)
        return client.decode([server.answer(queries[0])])

    record = benchmark(get)
    assert record == database.get_slot(77)
    setup_bytes = len(msg.encode_message(msg.SetupResponse(server.setup())))
    query = client.queries_for_slot(0)[0]
    report("A1: pir-lwe (cryptographic assumption only)", [
        ("one-time setup (hint) download", f"{setup_bytes} B"),
        ("upload per GET", f"{len(query)} B"),
        ("server work", "one matrix-vector pass (linear)"),
    ])
    assert setup_bytes > 10 * len(query)  # the mode's signature trade-off


def test_a1_lwe_client_split(benchmark):
    """pir-lwe's client time per GET at ``fetch_lwe``'s geometry (2^10
    slots of 512 B, n = 512), split into the offline part,
    ``prepare_queries``, which a ``ZltpClient`` runs while the previous
    burst is on the wire, and the online part left on the page's path."""
    db = BlobDatabase(10, 512)
    rng = np.random.default_rng(4)
    for slot in range(db.n_slots):
        db.set_slot(slot, rng.bytes(512))
    server = LweModeServer(db)
    client = LweModeClient(10, 512, server.hello_params(), server.setup(),
                           rng=np.random.default_rng(5))

    def split(gets=200):
        times = {"offline": [], "query": [], "decode": []}
        for slot in rng.integers(0, db.n_slots, gets).tolist():
            start = time.perf_counter()
            client.prepare_queries(1)
            prepared = time.perf_counter()
            payloads = client.queries_for_slot(slot)
            queried = time.perf_counter()
            answers = server.answer_batch(payloads)
            answered = time.perf_counter()
            assert client.decode(answers) == db.get_slot(slot)
            decoded = time.perf_counter()
            times["offline"].append(prepared - start)
            times["query"].append(queried - prepared)
            times["decode"].append(decoded - answered)
        return {part: float(np.median(t)) * 1e6 for part, t in times.items()}

    us = benchmark.pedantic(split, rounds=1, iterations=1)
    report("A1c: pir-lwe client time per GET at fetch_lwe's geometry", [
        ("offline: prepare_queries(1), A·s + e and H·s",
         f"{us['offline']:.0f} µs"),
        ("online: query (Δ one-hot, pack)", f"{us['query']:.0f} µs"),
        ("online: decode (unmask, round)", f"{us['decode']:.0f} µs"),
    ])
    # The mat-vecs are the bulk of the client's work, and none is online.
    assert us["offline"] > us["query"] + us["decode"]


def test_a1_enclave_get(benchmark, database):
    server = EnclaveModeServer(database, rng=np.random.default_rng(2))
    client = EnclaveModeClient(server.hello_params())

    def get(slot=77):
        queries = client.queries_for_slot(slot)
        return client.decode([server.answer(queries[0])])

    record = benchmark(get)
    assert record == database.get_slot(77)
    trace_before = len(server.enclave.trace)
    get(12)
    touches = len(server.enclave.trace) - trace_before
    report("A1: enclave-oram (hardware assumption)", [
        ("untrusted-memory touches per GET",
         f"{touches} = 2·(log2 N + 1), polylogarithmic"),
        ("upload per GET", f"{len(client.queries_for_slot(0)[0])} B"),
        ("server work", "ONE ORAM path, not a linear scan"),
    ])
    assert touches == 2 * (DOMAIN_BITS + 1)


def test_a1_work_scaling_contrast(benchmark, database):
    """PIR work grows linearly with the domain; enclave work grows
    logarithmically — the paper's §2.2 performance contrast."""

    def pir_seconds(bits):
        db = BlobDatabase(bits, 256)
        server = Pir2ModeServer(db, 0)
        client = Pir2ModeClient(bits, 256)
        query = client.queries_for_slot(0)[0]
        t0 = time.perf_counter()
        server.answer(query)
        return time.perf_counter() - t0

    def enclave_touches(bits):
        db = BlobDatabase(bits, 256)
        server = EnclaveModeServer(db, rng=np.random.default_rng(3))
        client = EnclaveModeClient(server.hello_params())
        before = len(server.enclave.trace)
        server.answer(client.queries_for_slot(0)[0])
        return len(server.enclave.trace) - before

    # Measure in the vectorised regime where Python per-call overhead no
    # longer masks the linear term (see E1b).
    results = benchmark.pedantic(
        lambda: {
            "pir": {bits: pir_seconds(bits) for bits in (14, 18)},
            "enclave": {bits: enclave_touches(bits) for bits in (14, 18)},
        },
        rounds=1, iterations=1,
    )
    pir_ratio = results["pir"][18] / results["pir"][14]
    enclave_ratio = results["enclave"][18] / results["enclave"][14]
    report("A1b: scaling 2^14 → 2^18 (16x data)", [
        ("pir2 time ratio (linear ⇒ ~16x)", f"{pir_ratio:.1f}x"),
        ("enclave touch ratio (log ⇒ ~1.27x)", f"{enclave_ratio:.2f}x"),
    ])
    assert pir_ratio > 3
    assert enclave_ratio < 1.5
