"""Metrics: counters, gauges, fixed-bucket histograms, and snapshots.

Each counted event lives once, on the object that owns it (a logical
server's per-mode ``RequestStats``, its session and frame counters, an
admission gate's tallies). A scrape builds a fresh :class:`MetricsRegistry` from those
counters and ships its :meth:`MetricsRegistry.as_dict`, so two
logical servers in one process each export only their own numbers.
Snapshots fold together with :func:`merge_into`, gain fixed labels with
:func:`relabel_snapshot`, and render as a Prometheus-style text
exposition with :func:`render_snapshot_text` for ``lightweb stats``,
``lightweb top --metrics`` and the stats sidecar's ``/metrics``.

Two zero-leakage properties are structural here, not conventions:

* **Histogram buckets are fixed a priori.** A histogram that adapted its
  bucket boundaries to observed values would encode the distribution of
  client behaviour into the exposition format itself — boundary values
  become a side channel. Buckets are chosen once, at declaration time,
  from public engineering knowledge only.
* **Label values must be public.** The ``telemetry-leak`` analyzer rule
  flags any ``inc``/``set``/``observe``/``labels`` call whose arguments
  are secret-tainted, so a per-label-value series can never be keyed by
  a client secret (which would turn series cardinality into a query
  log).
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Any, Dict, List, Sequence, Tuple

from repro.errors import ReproError

#: Default latency buckets (seconds) — fixed a priori; see module docstring.
DEFAULT_SECONDS_BUCKETS: Tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
    0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0,
)

LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, Any]) -> LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _render_labels(key: LabelKey, extra: str = "") -> str:
    parts = [f'{k}="{v}"' for k, v in key]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


class Counter:
    """Monotonically increasing per-label-set totals."""

    kind = "counter"

    def __init__(self, name: str, help: str):
        self.name = name
        self.help = help
        self._lock = threading.Lock()
        self._series: Dict[LabelKey, float] = {}  # guarded-by: _lock

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        if amount < 0:
            raise ReproError(f"counter {self.name} cannot decrease")
        key = _label_key(labels)
        with self._lock:
            self._series[key] = self._series.get(key, 0.0) + amount

    def value(self, **labels: Any) -> float:
        with self._lock:
            return self._series.get(_label_key(labels), 0.0)

    def as_dict(self) -> Dict[str, Any]:
        with self._lock:
            series = [
                {"labels": dict(key), "value": value}
                for key, value in sorted(self._series.items())
            ]
        return {"kind": self.kind, "help": self.help, "series": series}


class Gauge:
    """A value that can go up and down (queue depth, worker count)."""

    kind = "gauge"

    def __init__(self, name: str, help: str):
        self.name = name
        self.help = help
        self._lock = threading.Lock()
        self._series: Dict[LabelKey, float] = {}  # guarded-by: _lock

    def set(self, value: float, **labels: Any) -> None:
        with self._lock:
            self._series[_label_key(labels)] = float(value)

    def value(self, **labels: Any) -> float:
        with self._lock:
            return self._series.get(_label_key(labels), 0.0)

    def as_dict(self) -> Dict[str, Any]:
        with self._lock:
            series = [
                {"labels": dict(key), "value": value}
                for key, value in sorted(self._series.items())
            ]
        return {"kind": self.kind, "help": self.help, "series": series}


class Histogram:
    """Fixed-boundary histogram with Prometheus ``le`` (≤) semantics.

    A value equal to a boundary lands in that boundary's bucket; values
    above the last boundary land in the implicit +Inf overflow bucket.
    Boundaries are immutable after construction (see module docstring
    for why data-dependent buckets are forbidden).
    """

    kind = "histogram"

    def __init__(self, name: str, help: str,
                 buckets: Sequence[float] = DEFAULT_SECONDS_BUCKETS):
        if not buckets:
            raise ReproError(f"histogram {name} needs at least one bucket")
        bounds = tuple(float(b) for b in buckets)
        if list(bounds) != sorted(set(bounds)):
            raise ReproError(
                f"histogram {name} buckets must be strictly increasing")
        self.name = name
        self.help = help
        self.bounds = bounds
        self._lock = threading.Lock()
        # Per label-set: [bucket counts (+overflow)], sum, count.
        self._series: Dict[LabelKey, Dict[str, Any]] = {}  # guarded-by: _lock

    def observe(self, value: float, **labels: Any) -> None:
        v = float(value)
        # le semantics: bisect_left puts v == bound into bound's bucket;
        # index == len(bounds) is the +Inf overflow bucket.
        idx = bisect_left(self.bounds, v)
        key = _label_key(labels)
        with self._lock:
            cell = self._series.get(key)
            if cell is None:
                cell = {"counts": [0] * (len(self.bounds) + 1),
                        "sum": 0.0, "count": 0}
                self._series[key] = cell
            cell["counts"][idx] += 1
            cell["sum"] += v
            cell["count"] += 1

    def snapshot(self, **labels: Any) -> Dict[str, Any]:
        """Bucket counts, sum, and count for one label set."""
        with self._lock:
            cell = self._series.get(_label_key(labels))
            if cell is None:
                return {"counts": [0] * (len(self.bounds) + 1),
                        "sum": 0.0, "count": 0}
            return {"counts": list(cell["counts"]),
                    "sum": cell["sum"], "count": cell["count"]}

    def as_dict(self) -> Dict[str, Any]:
        with self._lock:
            series = [
                {
                    "labels": dict(key),
                    "counts": list(cell["counts"]),
                    "sum": cell["sum"],
                    "count": cell["count"],
                }
                for key, cell in sorted(self._series.items())
            ]
        return {
            "kind": self.kind,
            "help": self.help,
            "buckets": list(self.bounds),
            "series": series,
        }


def merge_into(dst: Dict[str, Any], src: Dict[str, Any]) -> Dict[str, Any]:
    """Fold one registry snapshot into another, in place.

    Snapshots are the JSON-ready form :meth:`MetricsRegistry.as_dict`
    returns — the same dicts ``/metrics.json`` serves — so ``lightweb
    top`` merges fleet scrapes with the same code a single process
    would use. Semantics per kind:

    * **counter / gauge**: per-label-set values are summed (a fleet
      gauge like active sessions is an aggregate across servers, so the
      sum *is* the fleet value).
    * **histogram**: bucket-wise count sums plus ``sum``/``count`` sums.
      Two histograms with different bucket layouts are rejected loudly
      (:class:`~repro.errors.ReproError`) — silently realigning buckets
      would fabricate a distribution nobody measured.

    A metric present in only one snapshot is copied through; merging an
    empty snapshot is the identity.

    Raises:
        ReproError: on a kind mismatch or a histogram bucket-layout
            mismatch for the same metric name.
    """
    for name, metric in src.items():
        into = dst.get(name)
        if into is None:
            dst[name] = {
                "kind": metric["kind"],
                "help": metric.get("help", ""),
                **({"buckets": list(metric["buckets"])}
                   if metric["kind"] == "histogram" else {}),
                "series": [dict(cell, labels=dict(cell["labels"]))
                           for cell in metric.get("series", [])],
            }
            continue
        if into["kind"] != metric["kind"]:
            raise ReproError(
                f"cannot merge metric {name}: kind {metric['kind']} vs "
                f"{into['kind']}")
        if metric["kind"] == "histogram" and \
                list(into.get("buckets", [])) != list(metric.get("buckets", [])):
            raise ReproError(
                f"cannot merge histogram {name}: bucket layouts differ "
                f"({into.get('buckets')} vs {metric.get('buckets')})")
        by_labels = {_label_key(cell["labels"]): cell
                     for cell in into["series"]}
        for cell in metric.get("series", []):
            key = _label_key(cell["labels"])
            mine = by_labels.get(key)
            if mine is None:
                mine = {"labels": dict(cell["labels"])}
                if metric["kind"] == "histogram":
                    width = len(metric.get("buckets", [])) + 1
                    mine.update(counts=[0] * width, sum=0.0, count=0)
                else:
                    mine["value"] = 0.0
                into["series"].append(mine)
                by_labels[key] = mine
            if metric["kind"] == "histogram":
                if len(mine["counts"]) != len(cell["counts"]):
                    raise ReproError(
                        f"cannot merge histogram {name}: bucket counts "
                        f"differ in length")
                mine["counts"] = [a + b for a, b in zip(mine["counts"],
                                                        cell["counts"])]
                mine["sum"] += cell["sum"]
                mine["count"] += cell["count"]
            else:
                mine["value"] += cell["value"]
        into["series"].sort(key=lambda cell: _label_key(cell["labels"]))
    return dst


def relabel_snapshot(snap: Dict[str, Any], **labels: Any) -> Dict[str, Any]:
    """A copy of ``snap`` with fixed labels added to every series.

    This is how cross-process aggregation stays attributable: the fleet
    scraper stamps each server's snapshot with ``server=<id>`` before
    merging, so the merged view still breaks down by origin. Label
    *names* must come from a fixed a-priori set (server id — deployment
    topology, never request contents); the ``telemetry-leak`` rule
    applies to relabels exactly as it does to ``inc``/``observe`` calls.
    """
    fixed = {k: str(v) for k, v in labels.items()}
    out: Dict[str, Any] = {}
    for name, metric in snap.items():
        copied = {k: (list(v) if isinstance(v, list) else v)
                  for k, v in metric.items() if k != "series"}
        copied["series"] = [
            dict(cell, labels={**dict(cell["labels"]), **fixed})
            for cell in metric.get("series", [])
        ]
        out[name] = copied
    return out


def render_snapshot_text(snap: Dict[str, Any]) -> str:
    """Prometheus-style text exposition of a snapshot dict.

    The one renderer: a single server's scrape and a merged view (a
    whole scraped fleet) expose identically.
    """
    lines: List[str] = []
    for name, metric in sorted(snap.items()):
        lines.append(f"# HELP {name} {metric.get('help', '')}")
        lines.append(f"# TYPE {name} {metric['kind']}")
        series = sorted(metric.get("series", []),
                        key=lambda cell: _label_key(cell["labels"]))
        if metric["kind"] == "histogram":
            bounds = metric.get("buckets", [])
            for cell in series:
                key = _label_key(cell["labels"])
                cumulative = 0
                for bound, n in zip(bounds, cell["counts"]):
                    cumulative += n
                    le = _render_labels(key, f'le="{bound:g}"')
                    lines.append(f"{name}_bucket{le} {cumulative}")
                cumulative += cell["counts"][-1]
                le = _render_labels(key, 'le="+Inf"')
                lines.append(f"{name}_bucket{le} {cumulative}")
                lines.append(f"{name}_sum{_render_labels(key)} {cell['sum']:g}")
                lines.append(
                    f"{name}_count{_render_labels(key)} {cell['count']}")
        else:
            for cell in series:
                labels = _render_labels(_label_key(cell["labels"]))
                lines.append(f"{name}{labels} {cell['value']:g}")
    return "\n".join(lines) + ("\n" if lines else "")


def snapshot_total(snap: Dict[str, Any], name: str,
                   field: str = "value") -> float:
    """Sum one metric's series across every label set in a snapshot.

    For counters/gauges ``field`` is ``"value"``; for histograms pass
    ``"sum"`` (total observed seconds) or ``"count"`` (observations).
    Missing metrics total 0.0 — load derivation must not fail on a
    server that has not scanned yet.
    """
    metric = snap.get(name)
    if metric is None:
        return 0.0
    return float(sum(cell.get(field, 0.0)
                     for cell in metric.get("series", [])))


class MetricsRegistry:
    """Named collection of metrics with get-or-create declaration.

    Re-declaring a name returns the existing instrument if the kind
    matches (so modules can declare at import or first use without
    ordering constraints) and raises if it does not.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._metrics: Dict[str, Any] = {}  # guarded-by: _lock

    def _get_or_create(self, cls, name: str, help: str, **kwargs):
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise ReproError(
                        f"metric {name} already registered as {existing.kind}")
                return existing
            metric = cls(name, help, **kwargs)
            self._metrics[name] = metric
            return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(Gauge, name, help)

    def histogram(self, name: str, help: str = "",
                  buckets: Sequence[float] = DEFAULT_SECONDS_BUCKETS) -> Histogram:
        return self._get_or_create(Histogram, name, help, buckets=buckets)

    def as_dict(self) -> Dict[str, Any]:
        """JSON-ready snapshot of every registered metric: the mergeable
        wire format a stats sidecar serves and fleet scrapers merge
        (:func:`merge_into`)."""
        with self._lock:
            metrics = list(self._metrics.items())
        return {name: metric.as_dict() for name, metric in sorted(metrics)}


__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_SECONDS_BUCKETS",
    "merge_into",
    "relabel_snapshot",
    "render_snapshot_text",
    "snapshot_total",
]
