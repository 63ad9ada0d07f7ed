"""Metrics: plain-data snapshots of counters and gauges.

Each counted event lives once, on the object that owns it (a logical
server's per-mode ``RequestStats``, its session and frame counters, an
admission gate's tallies). A scrape reads those counters and builds its
snapshot, one :func:`metric` per name: the JSON-ready dict
``/metrics.json`` serves, ``{name: {"kind", "help", "series":
[{"labels", "value"}, ...]}}``. :func:`check_snapshot` holds a snapshot
read off the network to that format; snapshots fold together with
:func:`merge_into`, gain fixed labels with :func:`relabel_snapshot`, and
render as a Prometheus-style text exposition with
:func:`render_snapshot_text`.

There are counters and gauges only: the server holds totals, not
distributions, so it has no histogram to export. Label values must be
public: the ``telemetry-leak`` analyzer rule flags any :func:`metric`
call whose labels or values are secret-tainted, so a series can never
be keyed by a client secret (series cardinality would be a query log).
"""

from __future__ import annotations

import sys
from typing import Any, Dict, Iterable, List, Tuple

from repro.errors import ReproError

#: The metric kinds a snapshot may hold.
_KINDS = ("counter", "gauge")

LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, Any]) -> LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def metric(kind: str, help: str,
           series: Iterable[Tuple[Dict[str, Any], float]]) -> Dict[str, Any]:
    """One counter or gauge of a snapshot.

    Args:
        kind: ``"counter"`` or ``"gauge"``.
        help: the one-line description the text exposition prints.
        series: ``(labels, value)`` per label set; label values are
            rendered with ``str``, values with ``float``.

    Raises:
        ReproError: on another kind.
    """
    if kind not in _KINDS:
        raise ReproError(f"metric kind must be counter or gauge, not {kind!r}")
    cells = {_label_key(labels): float(value) for labels, value in series}
    return {"kind": kind, "help": help,
            "series": [{"labels": dict(key), "value": value}
                       for key, value in sorted(cells.items())]}


def _is_cell(cell: Any) -> bool:
    if not isinstance(cell, dict) or not isinstance(cell.get("labels"), dict):
        return False
    value = cell.get("value")
    return (all(isinstance(k, str) and isinstance(v, str)
                for k, v in cell["labels"].items())
            and isinstance(value, (int, float)) and not isinstance(value, bool)
            # False for NaN, the infinities and ints too big for a float.
            and abs(value) <= sys.float_info.max)


def check_snapshot(snap: Any) -> None:
    """Raise :class:`~repro.errors.ReproError`, naming the first metric
    out of format, unless ``snap`` is in the format :func:`metric`
    builds: each metric a counter or gauge with a string ``help``, each
    series string labels and a finite real value."""
    if not isinstance(snap, dict):
        raise ReproError("metrics snapshot is not an object")
    for name, entry in snap.items():
        if not (isinstance(entry, dict) and entry.get("kind") in _KINDS
                and isinstance(entry.get("help"), str)
                and isinstance(entry.get("series"), list)
                and all(_is_cell(cell) for cell in entry["series"])):
            raise ReproError(
                f"metric {name!r} is not a counter or gauge snapshot")


def merge_into(dst: Dict[str, Any], src: Dict[str, Any]) -> Dict[str, Any]:
    """Fold one snapshot into another, in place.

    Per label set, values are summed: a fleet gauge like active sessions
    is an aggregate across servers, so the sum *is* the fleet value. A
    metric present in only one snapshot is copied through; merging an
    empty snapshot is the identity; ``src`` is never mutated.

    Raises:
        ReproError: on a kind other than counter or gauge, or a kind
            mismatch for the same metric name.
    """
    for name, entry in src.items():
        kind = entry.get("kind")
        if kind not in _KINDS:
            raise ReproError(f"cannot merge metric {name}: kind {kind}")
        into = dst.get(name)
        if into is None:
            dst[name] = {
                "kind": kind,
                "help": entry.get("help", ""),
                "series": [dict(cell, labels=dict(cell["labels"]))
                           for cell in entry.get("series", [])],
            }
            continue
        if into["kind"] != kind:
            raise ReproError(
                f"cannot merge metric {name}: kind {kind} vs {into['kind']}")
        by_labels = {_label_key(cell["labels"]): cell
                     for cell in into["series"]}
        for cell in entry.get("series", []):
            key = _label_key(cell["labels"])
            mine = by_labels.get(key)
            if mine is None:
                mine = {"labels": dict(cell["labels"]), "value": 0.0}
                into["series"].append(mine)
                by_labels[key] = mine
            mine["value"] += cell["value"]
        into["series"].sort(key=lambda cell: _label_key(cell["labels"]))
    return dst


def relabel_snapshot(snap: Dict[str, Any], **labels: Any) -> Dict[str, Any]:
    """A copy of ``snap`` with fixed labels added to every series.

    This is how cross-process aggregation stays attributable: the fleet
    scraper stamps each server's snapshot with ``server=<id>`` before
    merging, so the merged view still breaks down by origin. Label
    *names* must come from a fixed a-priori set (server id — deployment
    topology, never request contents).
    """
    fixed = {k: str(v) for k, v in labels.items()}
    return {
        name: dict(entry, series=[
            dict(cell, labels={**dict(cell["labels"]), **fixed})
            for cell in entry.get("series", [])])
        for name, entry in snap.items()
    }


def render_snapshot_text(snap: Dict[str, Any]) -> str:
    """Prometheus-style text exposition of a snapshot dict.

    The one renderer: a single server's scrape and a merged view (a
    whole scraped fleet) expose identically.
    """
    lines: List[str] = []
    for name, entry in sorted(snap.items()):
        lines.append(f"# HELP {name} {entry.get('help', '')}")
        lines.append(f"# TYPE {name} {entry['kind']}")
        for cell in sorted(entry.get("series", []),
                           key=lambda cell: _label_key(cell["labels"])):
            labels = ",".join(f'{k}="{v}"'
                              for k, v in _label_key(cell["labels"]))
            labels = "{" + labels + "}" if labels else ""
            lines.append(f"{name}{labels} {cell['value']:g}")
    return "\n".join(lines) + ("\n" if lines else "")


def snapshot_total(snap: Dict[str, Any], name: str) -> float:
    """Sum one metric's series across every label set in a snapshot.

    A missing metric totals 0.0 — load derivation must not fail on a
    server that has not scanned yet.
    """
    entry = snap.get(name)
    if entry is None:
        return 0.0
    return float(sum(cell["value"] for cell in entry.get("series", [])))


__all__ = [
    "metric",
    "check_snapshot",
    "merge_into",
    "relabel_snapshot",
    "render_snapshot_text",
    "snapshot_total",
]
