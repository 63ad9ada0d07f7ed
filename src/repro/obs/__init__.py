"""repro.obs — zero-leakage observability: spans, metrics, structured logs.

Three pieces, one discipline:

* :mod:`repro.obs.trace` — ``with span("pir2.shard_scan", shard=i):``
  nested trace spans, exportable as JSON.
* :mod:`repro.obs.metrics` — plain-data counter and gauge snapshots; a
  server builds one from its own counters at scrape time (``lightweb
  stats``), and fleet scrapes check, relabel and merge them.
* :mod:`repro.obs.logs` — module loggers and JSON-lines log output.
* :mod:`repro.obs.flight` — bounded flight recorder of completed request
  trace trees, served at ``/debug/traces.json``.
* :mod:`repro.obs.fleet` — directory-driven fleet scraping behind
  ``lightweb top``.

The discipline: telemetry is an observable channel, so nothing
secret-tainted may flow into a span attribute, metric label/value, or
log field. The ``telemetry-leak`` rule in :mod:`repro.analysis`
enforces this statically as part of the tier-1 lint gate.
"""

from repro.obs.flight import (
    DEFAULT_SLOW_SECONDS,
    FlightRecorder,
)
from repro.obs.logs import (
    configure_console_logging,
    configure_json_logging,
    get_logger,
)
from repro.obs.metrics import (
    check_snapshot,
    merge_into,
    metric,
    relabel_snapshot,
    render_snapshot_text,
    snapshot_total,
)
from repro.obs.trace import (
    Span,
    SpanHandle,
    Tracer,
    span,
    tracer_active,
    tracing,
)

__all__ = [
    "span",
    "tracing",
    "Span",
    "SpanHandle",
    "Tracer",
    "tracer_active",
    "FlightRecorder",
    "DEFAULT_SLOW_SECONDS",
    "metric",
    "check_snapshot",
    "merge_into",
    "relabel_snapshot",
    "render_snapshot_text",
    "snapshot_total",
    "get_logger",
    "configure_json_logging",
    "configure_console_logging",
]
