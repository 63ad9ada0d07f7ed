"""Unit tests for :mod:`repro.obs` — spans, metrics, structured logging.

Metric tests read the plain-data snapshot a server builds at scrape
time, and pin its bytes and its exported series. Span tests activate
their own tracer and always tear it down via the ``tracing()`` context
manager.
"""

import ast
import hashlib
import io
import json
import logging
from pathlib import Path

import numpy as np
import pytest

from repro.core.zltp.admission import AdmissionController
from repro.core.zltp.client import connect_client
from repro.core.zltp.modes import MODE_ENCLAVE
from repro.core.zltp.server import ZltpServer, _stats_metrics
from repro.core.zltp.wire import encode_frame
from repro.errors import ReproError
from repro.netsim.simnet import SimLink
from repro.obs.fleet import StatsSession
from repro.obs.logs import (
    ConsoleFormatter,
    JsonLineFormatter,
    configure_console_logging,
    configure_json_logging,
    get_logger,
)
from repro.obs.metrics import (
    merge_into,
    relabel_snapshot,
    render_snapshot_text,
    snapshot_total,
)
from repro.obs.trace import (
    Tracer,
    span,
    tracing,
)
from repro.pir.database import BlobDatabase

SRC_ROOT = Path(__file__).resolve().parents[2] / "src" / "repro"


# ----------------------------------------------------------------------
# Metrics: one server's scrape renders that server's own counters
# ----------------------------------------------------------------------

def serve_gets(n_gets, admission=None):
    """A single-endpoint server that has answered ``n_gets`` GETs over
    one still-open session."""
    db = BlobDatabase(6, 32)
    server = ZltpServer(db, modes=[MODE_ENCLAVE], admission=admission,
                        rng=np.random.default_rng(0))
    client = connect_client([SimLink().connect(server)],
                            supported_modes=[MODE_ENCLAVE])
    for slot in range(n_gets):
        client.get_slot(slot)
    return server, client


def series(metrics, name, **labels):
    """The value of one series of a metrics snapshot (None if absent)."""
    wanted = {key: str(value) for key, value in labels.items()}
    for cell in metrics.get(name, {}).get("series", []):
        if cell["labels"] == wanted:
            return cell["value"]
    return None


class TestOneStatsPlane:
    """Two logical servers in one process: each scrape's ``metrics`` is
    that same snapshot's numbers, never the neighbour's and never a sum."""

    MODE_FIELDS = {"queries": "zltp_queries_total",
                   "bytes_up": "zltp_bytes_up_total",
                   "bytes_down": "zltp_bytes_down_total",
                   "scan_seconds": "zltp_scan_seconds_total",
                   "retries": "zltp_retries_total"}

    def test_each_server_exports_only_its_own_counters(self):
        gated, gated_client = serve_gets(3, admission=AdmissionController())
        plain, plain_client = serve_gets(5)
        # Distinct session events on each side.
        session = gated.create_session()
        session.receive(encode_frame(b"x" * 16)[:6])
        session.end_of_stream()
        plain.create_session().expire()
        gated_client.close()

        for server, gets in ((gated, 3), (plain, 5)):
            snap = server.stats_snapshot()
            metrics = snap["metrics"]
            assert snap["gets_served"] == gets
            assert snapshot_total(metrics, "zltp_queries_total") == gets
            assert set(snap["modes"]) == {MODE_ENCLAVE}
            for mode, counts in snap["modes"].items():
                for field, name in self.MODE_FIELDS.items():
                    assert series(metrics, name, mode=mode) == counts[field]
            assert series(metrics, "zltp_active_sessions") == \
                snap["sessions_active"]
            assert series(metrics, "zltp_truncated_frames_total") == \
                snap["truncated_frames"]
            assert series(metrics, "zltp_idle_reaped_total") == \
                snap["idle_reaped"]

        gated_snap, plain_snap = gated.stats_snapshot(), plain.stats_snapshot()
        assert (gated_snap["sessions_active"], gated_snap["truncated_frames"],
                gated_snap["idle_reaped"]) == (0, 1, 0)
        assert (plain_snap["sessions_active"], plain_snap["truncated_frames"],
                plain_snap["idle_reaped"]) == (1, 0, 1)
        # Only the gated server has a gate, and its series are its own.
        gate = gated_snap["admission"]
        assert gate["admitted"] == 3
        metrics = gated_snap["metrics"]
        assert series(metrics, "admission_requests_total",
                      outcome="admitted") == gate["admitted"]
        assert series(metrics, "admission_requests_total",
                      outcome="shed") == gate["shed"]
        assert series(metrics, "admission_queue_depth") == \
            gate["queue_depth"]
        assert "admission" not in plain_snap
        assert not any(name.startswith("admission_")
                       for name in plain_snap["metrics"])
        plain_client.close()

    def test_repeated_scrapes_count_each_get_once(self):
        server, client = serve_gets(4)
        first = server.stats_snapshot()
        assert server.stats_snapshot() == first
        client.get_slot(7)
        later = server.stats_snapshot()
        assert later["gets_served"] == 5
        assert snapshot_total(later["metrics"], "zltp_queries_total") == 5
        client.close()


# ----------------------------------------------------------------------
# Metrics: the exported bytes and series, pinned
# ----------------------------------------------------------------------

#: A fixed ``ZltpServer.stats_snapshot`` body: two modes, one of them
#: with every count zero, and no admission gate. With ``modes`` emptied
#: it is a server that has answered nothing yet.
PIN_STATS = {
    "sessions_opened": 7,
    "sessions_active": 2,
    "truncated_frames": 1,
    "idle_reaped": 3,
    "gets_served": 12,
    "modes": {
        "enclave": {"queries": 0, "bytes_up": 0, "bytes_down": 0,
                    "scan_seconds": 0.0, "retries": 0},
        "pir2": {"queries": 12, "bytes_up": 4104, "bytes_down": 49176,
                 "scan_seconds": 0.0375, "retries": 1},
    },
}
#: The same server behind a gate.
PIN_GATED = dict(PIN_STATS, admission={
    "deadline_seconds": 0.05, "max_queue_depth": 64, "queue_depth": 2,
    "service_seconds_estimate": 0.003, "admitted": 12, "shed": 4})

#: SHA-256 of :func:`scraped_forms`, NUL-joined. It was taken from the
#: registry-filled snapshot this plain-data one replaced, so any change
#: to a scraped byte moves it.
PIN_DIGEST = \
    "728914aa1ff46f293f08f75ac0cbb9f527b85c4f9d83562d0949623ddf2ad992"

#: (name, kind, label names) of every series a gated server exports.
EXPORTED_SERIES = {
    ("admission_queue_depth", "gauge", ()),
    ("admission_requests_total", "counter", ("outcome",)),
    ("zltp_active_sessions", "gauge", ()),
    ("zltp_bytes_down_total", "counter", ("mode",)),
    ("zltp_bytes_up_total", "counter", ("mode",)),
    ("zltp_idle_reaped_total", "counter", ()),
    ("zltp_queries_total", "counter", ("mode",)),
    ("zltp_retries_total", "counter", ("mode",)),
    ("zltp_scan_seconds_total", "counter", ("mode",)),
    ("zltp_truncated_frames_total", "counter", ()),
}


def scraped_forms():
    """Every byte form a scrape of :data:`PIN_STATS` takes: each
    snapshot, a fold of both, a ``server=``-relabelled merge, the text
    exposition of a snapshot and of the merge, and the sidecar's two
    HTTP replies."""
    fresh = _stats_metrics(dict(PIN_STATS, modes={}))
    plain = _stats_metrics(PIN_STATS)
    gated = _stats_metrics(PIN_GATED)
    folded = merge_into(merge_into({}, plain), gated)
    fleet = merge_into(merge_into({}, relabel_snapshot(plain, server="s0")),
                       relabel_snapshot(gated, server="s1"))
    stats = dict(PIN_GATED, metrics=gated)
    replies = [StatsSession(lambda: stats).receive(
        f"GET {path} HTTP/1.0\r\n\r\n".encode())
        for path in ("/metrics", "/metrics.json")]
    return [json.dumps(form, indent=2).encode()
            for form in (fresh, plain, gated, folded, fleet)] + [
        render_snapshot_text(gated).encode(),
        render_snapshot_text(fleet).encode()] + replies


class TestExportedSnapshotPin:
    def test_scraped_bytes_are_pinned(self):
        digest = hashlib.sha256(b"\0".join(scraped_forms())).hexdigest()
        assert digest == PIN_DIGEST

    def test_exported_series_are_pinned(self):
        exported = {
            (name, metric["kind"],
             tuple(sorted({label for cell in metric["series"]
                           for label in cell["labels"]})))
            for name, metric in _stats_metrics(PIN_GATED).items()}
        assert exported == EXPORTED_SERIES


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------

class TestSpans:
    def test_elapsed_is_valid_with_tracing_off(self):
        with span("work") as sp:
            assert sp.node is None
            sp.annotate(shard=1)  # no-op, must not raise
        assert sp.elapsed >= 0.0

    def test_nesting_builds_a_tree(self):
        with tracing() as tracer:
            with span("outer", mode="pir2"):
                with span("inner", shard=3) as sp:
                    sp.annotate(bytes_down=256)
        trees = tracer.export()
        assert len(trees) == 1
        root = trees[0]
        assert root["name"] == "outer"
        assert root["attrs"] == {"mode": "pir2"}
        assert [c["name"] for c in root["children"]] == ["inner"]
        inner = root["children"][0]
        assert inner["attrs"] == {"shard": 3, "bytes_down": 256}
        assert inner["wall_seconds"] <= root["wall_seconds"]

    def test_exception_closes_span_with_error_attr(self):
        with tracing() as tracer:
            with pytest.raises(ValueError):
                with span("outer"):
                    with span("boom") as sp:
                        raise ValueError("nope")
            # The context unwound cleanly: a new span is again a root.
            with span("after"):
                pass
        assert sp.elapsed >= 0.0
        root, after = tracer.export()
        assert after["name"] == "after"

        [child] = root["children"]
        assert child["attrs"]["error"] == "ValueError"
        assert root["attrs"]["error"] == "ValueError"

    def test_only_one_tracer_may_be_active(self):
        with tracing():
            with pytest.raises(ReproError):
                Tracer().activate().__enter__()

    def test_export_json_round_trips(self):
        with tracing() as tracer:
            with span("a", shard=1):
                pass
        trees = json.loads(json.dumps(tracer.export()))
        assert trees[0]["name"] == "a"
        assert trees[0]["attrs"] == {"shard": 1}


# ----------------------------------------------------------------------
# Structured logging
# ----------------------------------------------------------------------

class TestLogging:
    def teardown_method(self):
        # Drop any handler a test installed on the repro root logger.
        root = logging.getLogger("repro")
        for handler in list(root.handlers):
            if getattr(handler, "_repro_obs_handler", False):
                root.removeHandler(handler)
                handler.close()

    def test_get_logger_prefixes_foreign_names(self):
        assert get_logger("mymod").name == "repro.mymod"
        assert get_logger("repro.pir.engine").name == "repro.pir.engine"

    def test_json_logging_emits_one_object_per_line(self):
        stream = io.StringIO()
        configure_json_logging(stream=stream)
        log = get_logger("test.jsonl")
        log.info("served", extra={"mode": "pir2", "queries": 3})
        log.warning("slow")
        lines = stream.getvalue().splitlines()
        assert len(lines) == 2
        first = json.loads(lines[0])
        assert first["message"] == "served"
        assert first["level"] == "info"
        assert first["logger"] == "repro.test.jsonl"
        assert first["mode"] == "pir2"
        assert first["queries"] == 3
        assert isinstance(first["ts"], float)
        assert json.loads(lines[1])["level"] == "warning"

    def test_json_logging_serialises_exceptions_and_odd_values(self):
        stream = io.StringIO()
        configure_json_logging(stream=stream)
        log = get_logger("test.exc")
        try:
            raise RuntimeError("kaboom")
        except RuntimeError:
            log.exception("failed", extra={"obj": object()})
        payload = json.loads(stream.getvalue())
        assert "RuntimeError: kaboom" in payload["exc"]
        assert payload["obj"].startswith("<object object")

    def test_reconfigure_does_not_stack_handlers(self):
        first = io.StringIO()
        second = io.StringIO()
        configure_json_logging(stream=first)
        configure_json_logging(stream=second)
        get_logger("test.stack").info("once")
        assert first.getvalue() == ""
        assert len(second.getvalue().splitlines()) == 1

    def test_console_formatter_appends_extras(self):
        stream = io.StringIO()
        configure_console_logging(stream=stream)
        get_logger("test.console").info("hello", extra={"mode": "pir2"})
        line = stream.getvalue()
        assert "repro.test.console: hello" in line
        assert "mode='pir2'" in line

    def test_formatters_importable_standalone(self):
        record = logging.makeLogRecord({"msg": "x", "levelname": "INFO",
                                        "name": "repro.t"})
        assert json.loads(JsonLineFormatter().format(record))["message"] == "x"
        assert "repro.t: x" in ConsoleFormatter().format(record)


# ----------------------------------------------------------------------
# Hygiene: the CLI's emit()/logging seams are the only output channels
# ----------------------------------------------------------------------

def _print_calls(tree: ast.AST):
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "print"):
            yield node


def test_no_bare_prints_in_src():
    offenders = []
    for path in sorted(SRC_ROOT.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in _print_calls(tree):
            offenders.append(f"{path}:{node.lineno}")
    assert offenders == [], f"bare print() in src/: {offenders}"
