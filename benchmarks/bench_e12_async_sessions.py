"""E12 — reactor sessions: many sessions, one service thread.

One claim from this repo's concurrency work (no direct paper number —
the paper's §5.2 front-end is a fleet of real machines; here the win is
showing the *shape* on one host): one selector-reactor thread holds
every one of 400 negotiated sessions without starting another thread —
its per-session cost is a ~200-byte connection record, not a thread
stack.

EXPERIMENTS.md, E12, records why scans are not parallelised inside a
party.

Measured numbers land in ``BENCH_async_sessions.json`` at the repo root.
"""

import json
import socket
import threading
import time
from pathlib import Path

import pytest

from benchmarks.conftest import report
from repro.core.zltp import messages as msg
from repro.core.zltp.modes import MODE_PIR2
from repro.core.zltp.server import ZltpServer
from repro.core.zltp.serving import create_tcp_server
from repro.core.zltp.wire import FrameDecoder, encode_frame
from repro.pir.database import BlobDatabase
from repro.pir.keyword import KeywordIndex

SESSIONS = 400                   # concurrent negotiated sessions
SALT = b"e12-bench"

RESULTS_PATH = Path(__file__).resolve().parents[1] / "BENCH_async_sessions.json"


def _build_logical() -> ZltpServer:
    db = BlobDatabase(8, 256)
    index = KeywordIndex(db, probes=2, salt=SALT)
    for i in range(12):
        index.put(f"s{i}.com/p", f"e12-{i}".encode())
    return ZltpServer(db, modes=[MODE_PIR2], party=0, salt=SALT, probes=2)


def _negotiate_many(address, count: int):
    """Open ``count`` sockets, send hellos, read every ServerHello."""
    socks = []
    hello = encode_frame(msg.encode_message(msg.ClientHello(["pir2"])))
    for _ in range(count):
        sock = socket.create_connection(address, timeout=30)
        sock.sendall(hello)
        socks.append(sock)
    for sock in socks:
        sock.settimeout(30)
        decoder = FrameDecoder()
        while True:
            chunk = sock.recv(65536)
            if not chunk or decoder.feed(chunk):
                break
    return socks


@pytest.fixture(scope="module")
def results():
    data = {"experiment": "E12 async sessions", "reactor": {}}
    yield data
    RESULTS_PATH.write_text(json.dumps(data, indent=2) + "\n")
    print(f"\n  wrote {RESULTS_PATH}")


def test_e12_sessions_per_thread(benchmark, results):
    measured = {}

    def run_reactor():
        listener = create_tcp_server("eventloop", _build_logical())
        baseline_threads = threading.active_count()
        try:
            t0 = time.perf_counter()
            socks = _negotiate_many(listener.address, SESSIONS)
            open_seconds = time.perf_counter() - t0
            deadline = time.monotonic() + 10
            while listener.active_connections < SESSIONS and \
                    time.monotonic() < deadline:
                time.sleep(0.02)
            measured.update({
                "concurrent_sessions": listener.active_connections,
                "service_threads": listener.worker_count,
                "process_thread_delta":
                    threading.active_count() - baseline_threads,
                "open_seconds": open_seconds,
            })
            for sock in socks:
                sock.close()
        finally:
            listener.stop()
        return measured

    benchmark.pedantic(run_reactor, rounds=1, iterations=1)
    report("E12: concurrent sessions on one reactor", [(
        f"eventloop: {measured['concurrent_sessions']} sessions",
        f"{measured['service_threads']} service thread(s), "
        f"{measured['process_thread_delta']} more in the process, "
        f"opened in {measured['open_seconds']:.2f} s",
    )])
    results["reactor"] = measured
    # Shape claim: every session held, on one thread, starting none.
    assert measured["concurrent_sessions"] == SESSIONS
    assert measured["service_threads"] == 1
    assert measured["process_thread_delta"] <= 0
