"""Smoke-run the E12 concurrency benchmark at toy sizes.

Tier-1 runs this (via ``tests/integration/test_async_bench_smoke.py``) so
the selector-reactor session core is exercised on every test run. It
records timings but gates only on *structure* and *correctness*: the
reactor must hold every session the smoke opens, negotiated, on exactly
**one** service thread, start no other thread in the process while it
holds them, and still answer a fresh session while loaded.

The same claim at real sizes lives in
``benchmarks/bench_e12_async_sessions.py``.

Run standalone::

    PYTHONPATH=src python benchmarks/async_smoke.py [--out BENCH_async_sessions.json]
"""

from __future__ import annotations

import argparse
import json
import socket
import threading
import time
from pathlib import Path

from repro.core.zltp import messages as msg
from repro.core.zltp.modes import MODE_PIR2
from repro.core.zltp.server import ZltpServer
from repro.core.zltp.serving import create_tcp_server
from repro.core.zltp.wire import FrameDecoder, encode_frame
from repro.pir.database import BlobDatabase
from repro.pir.keyword import KeywordIndex

DOMAIN_BITS = 8
BLOB_BYTES = 256
SESSIONS = 32
SALT = b"e12-smoke"

DEFAULT_OUT = Path(__file__).resolve().parents[1] / "BENCH_async_sessions.json"


def _build_logical(party: int = 0) -> ZltpServer:
    db = BlobDatabase(DOMAIN_BITS, BLOB_BYTES)
    index = KeywordIndex(db, probes=2, salt=SALT)
    for i in range(12):
        index.put(f"s{i}.com/p", f"e12-{i}".encode())
    return ZltpServer(db, modes=[MODE_PIR2], party=party, salt=SALT,
                      probes=2)


def _hello_roundtrip(address) -> bool:
    """One full hello over a fresh socket; returns negotiation success."""
    sock = socket.create_connection(address, timeout=10)
    try:
        sock.sendall(encode_frame(msg.encode_message(
            msg.ClientHello(["pir2"]))))
        sock.settimeout(10)
        decoder = FrameDecoder()
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                return False
            frames = decoder.feed(chunk)
            if frames:
                return isinstance(msg.decode_message(frames[0]),
                                  msg.ServerHello)
    finally:
        sock.close()


def _measure_sessions(n_sessions: int = SESSIONS) -> dict:
    """Hold ``n_sessions`` negotiated sessions open under one reactor."""
    listener = create_tcp_server("eventloop", _build_logical())
    baseline_threads = threading.active_count()
    socks = []
    try:
        t0 = time.perf_counter()
        decoder_ok = 0
        for _ in range(n_sessions):
            sock = socket.create_connection(listener.address, timeout=10)
            sock.sendall(encode_frame(msg.encode_message(
                msg.ClientHello(["pir2"]))))
            socks.append(sock)
        # Read every hello reply so all sessions are truly negotiated.
        for sock in socks:
            sock.settimeout(10)
            decoder = FrameDecoder()
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                if decoder.feed(chunk):
                    decoder_ok += 1
                    break
        open_seconds = time.perf_counter() - t0
        deadline = time.monotonic() + 5
        while listener.active_connections < n_sessions and \
                time.monotonic() < deadline:
            time.sleep(0.01)
        concurrent = listener.active_connections
        threads = listener.worker_count
        # The listener still does real work while holding them all.
        roundtrip_ok = _hello_roundtrip(listener.address)
        return {
            "opened_sessions": n_sessions,
            "concurrent_sessions": concurrent,
            "negotiated_sessions": decoder_ok,
            "service_threads": threads,
            "process_thread_delta":
                threading.active_count() - baseline_threads,
            "open_seconds": open_seconds,
            "get_roundtrip_ok": roundtrip_ok,
        }
    finally:
        for sock in socks:
            try:
                sock.close()
            except OSError:
                pass
        listener.stop()


def run() -> dict:
    """Exercise the reactor at toy sizes; return the record."""
    return {
        "experiment": "E12 async sessions (smoke, toy sizes)",
        "reactor": _measure_sessions(),
    }


def check(data: dict) -> list:
    """The E12 smoke's structural gates; returns failure messages."""
    reactor = data["reactor"]
    failures = []
    if reactor["concurrent_sessions"] != reactor["opened_sessions"]:
        failures.append(f"the reactor held {reactor['concurrent_sessions']} "
                        f"of {reactor['opened_sessions']} sessions")
    if reactor["negotiated_sessions"] != reactor["opened_sessions"]:
        failures.append("not every session negotiated")
    if reactor["service_threads"] != 1:
        failures.append("the reactor spent more than one service thread")
    if reactor["process_thread_delta"] > 0:
        failures.append("holding the sessions started threads")
    if not reactor["get_roundtrip_ok"]:
        failures.append("the reactor failed the live roundtrip")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT,
                        help="where to write the results JSON")
    args = parser.parse_args(argv)
    data = run()
    args.out.write_text(json.dumps(data, indent=2) + "\n")
    print(f"wrote {args.out}")
    failures = check(data)
    for failure in failures:
        print(f"GATE FAILED: {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
