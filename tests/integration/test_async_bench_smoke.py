"""Tier-1 wiring for the E12 concurrency benchmark smoke run.

Runs :mod:`benchmarks.async_smoke` at its toy sizes and checks the result
schema, correctness flags, and the *structural* gates — the reactor must
hold every session the smoke opens on exactly one service thread,
without starting another thread. Timings are recorded, never asserted,
so tier-1 stays deterministic on any machine (the same claim at scale
lives in ``benchmarks/bench_e12_async_sessions.py``).
"""

import json
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(REPO_ROOT))

from benchmarks import async_smoke  # noqa: E402


@pytest.fixture(scope="module")
def results(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench") / "BENCH_async_sessions.json"
    assert async_smoke.main(["--out", str(out)]) == 0
    return json.loads(out.read_text())


def test_smoke_schema(results):
    assert set(results) == {"experiment", "reactor"}
    assert {"opened_sessions", "concurrent_sessions", "negotiated_sessions",
            "service_threads", "process_thread_delta", "open_seconds",
            "get_roundtrip_ok"} <= set(results["reactor"])


def test_reactor_holds_every_session_opened(results):
    reactor = results["reactor"]
    assert reactor["opened_sessions"] == async_smoke.SESSIONS
    assert reactor["concurrent_sessions"] == reactor["opened_sessions"]


def test_reactor_spends_exactly_one_service_thread(results):
    reactor = results["reactor"]
    assert reactor["service_threads"] == 1
    # A thread per session is the cost the reactor removes: holding
    # them all starts no thread in the process (a thread another test
    # left behind may end meanwhile, so the delta can read below 0).
    assert reactor["process_thread_delta"] <= 0


def test_reactor_still_answers_while_loaded(results):
    reactor = results["reactor"]
    assert reactor["get_roundtrip_ok"]
    assert reactor["negotiated_sessions"] == reactor["concurrent_sessions"]


def test_smoke_writes_default_path():
    # The standalone entry point drops the JSON at the repo root, where
    # EXPERIMENTS.md points readers.
    assert async_smoke.DEFAULT_OUT == REPO_ROOT / "BENCH_async_sessions.json"
