"""The passive network adversary and what it can (and cannot) learn.

§3.2 enumerates exactly what lightweb leaks to an on-path attacker:

    "a network attacker only learns: which universe a user is connected to
    (leaked via IP headers), when the user has visited a new domain (leaked
    via a code-page fetch), and when the user visits a new page or follows a
    hyperlink (leaked via data-page fetches)."

:class:`PassiveAdversary` records the raw (time, path, direction, size)
stream, and :meth:`PassiveAdversary.infer_events` implements the *best
inference the paper concedes*: clustering transfers into page-view events
and classifying code-blob fetches apart from data-blob fetches by size.
Tests assert both directions — the adversary recovers timing/count events,
and nothing in the trace distinguishes *which* page was fetched.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple


@dataclass(frozen=True)
class Observation:
    """One observed transfer on a network path."""

    time: float
    path: str
    direction: str
    n_bytes: int


@dataclass(frozen=True)
class PageEvent:
    """An inferred browsing event (the §3.2 leakage granularity).

    Attributes:
        time: when the event started.
        kind: ``"code-fetch"`` (new-domain visit), ``"page-view"`` (data
            fetches only), or ``"session"`` (hello traffic).
        n_transfers: transfers in the event's cluster.
        total_bytes: bytes across the cluster.
    """

    time: float
    kind: str
    n_transfers: int
    total_bytes: int


class PassiveAdversary:
    """An on-path observer: sees sizes, directions and timing — never content."""

    def __init__(self, name: str = "adversary"):
        self.name = name
        self.observations: List[Observation] = []

    def __call__(self, time: float, path: str, direction: str, n_bytes: int) -> None:
        """Observer hook for :class:`~repro.netsim.simnet.NetworkPath`."""
        self.observations.append(Observation(time, path, direction, n_bytes))

    def clear(self) -> None:
        """Forget all recorded observations."""
        self.observations.clear()

    def paths_seen(self) -> List[str]:
        """Distinct paths — the 'which universe' leakage (IP-level)."""
        seen = []
        for obs in self.observations:
            if obs.path not in seen:
                seen.append(obs.path)
        return seen

    def trace(self, path: Optional[str] = None) -> List[Tuple[str, int]]:
        """The (direction, size) sequence — the fingerprinting feature view."""
        return [
            (obs.direction, obs.n_bytes)
            for obs in self.observations
            if path is None or obs.path == path
        ]

    def total_bytes(self, path: Optional[str] = None) -> int:
        """Total observed volume."""
        return sum(
            obs.n_bytes
            for obs in self.observations
            if path is None or obs.path == path
        )

    def infer_events(self, gap_seconds: float = 1.0,
                     code_blob_threshold: int = 16 * 1024) -> List[PageEvent]:
        """Cluster the trace into browsing events (the conceded leakage).

        Transfers separated by less than ``gap_seconds`` belong to one
        event. An event moving at least ``code_blob_threshold`` bytes in a
        single downstream transfer is classified as a code fetch (new
        domain); otherwise it is a page view.
        """
        events: List[PageEvent] = []
        cluster: List[Observation] = []

        def flush() -> None:
            if not cluster:
                return
            biggest_down = max(
                (obs.n_bytes for obs in cluster if obs.direction == "down"),
                default=0,
            )
            kind = "code-fetch" if biggest_down >= code_blob_threshold else "page-view"
            events.append(
                PageEvent(
                    time=cluster[0].time,
                    kind=kind,
                    n_transfers=len(cluster),
                    total_bytes=sum(obs.n_bytes for obs in cluster),
                )
            )

        for obs in sorted(self.observations, key=lambda o: o.time):
            if cluster and obs.time - cluster[-1].time > gap_seconds:
                flush()
                cluster = []
            cluster.append(obs)
        flush()
        return events

    def request_signature(self) -> Dict[Tuple[str, int], int]:
        """Histogram of (direction, size) — identical across lightweb pages.

        For a traffic-analysis attack to work, this histogram must differ
        between pages; lightweb's fixed blob sizes and fixed fetch counts
        make it constant, which tests assert.
        """
        histogram: Dict[Tuple[str, int], int] = {}
        for obs in self.observations:
            key = (obs.direction, obs.n_bytes)
            histogram[key] = histogram.get(key, 0) + 1
        return histogram


__all__ = ["PassiveAdversary", "Observation", "PageEvent"]
