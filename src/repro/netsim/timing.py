"""The timing side channel lightweb concedes — and how much it leaks.

§3.2: "It is possible in principle to infer some limited information about
the user's browsing behavior by the number and timing of their page visits
[34]. For example, a user fetching a page every five minutes in the
morning might be most likely to be reading the news. But even this leakage
is modest."

ZLTP hides *which* page, never *when*. This module quantifies the residual
channel: a passive observer sees only page-view timestamps (the clustered
events of :class:`~repro.netsim.adversary.PassiveAdversary`) and tries to
classify the user's behavioural archetype from their daily timing
histogram. :mod:`repro.core.lightweb.scheduler` provides the cover-traffic
defense that flattens this channel, at a quantifiable latency/overhead
cost (benchmark A4).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.errors import ReproError

HOURS = 24


@dataclass(frozen=True)
class ActivityArchetype:
    """A behavioural profile an observer might try to recognise.

    Attributes:
        name: label, e.g. ``"morning-news"``.
        active_hours: (start, end) of the user's daily browsing window.
        pages_per_day: mean daily page views.
    """

    name: str
    active_hours: Tuple[float, float]
    pages_per_day: float

    def sample_day(self, rng: np.random.Generator) -> List[float]:
        """One day of visit times (seconds since midnight)."""
        count = max(1, int(rng.poisson(self.pages_per_day)))
        start, end = self.active_hours
        return sorted(
            float(t) for t in rng.uniform(start * 3600, end * 3600, size=count)
        )


#: The archetypes the §3.2 example gestures at.
DEFAULT_ARCHETYPES = (
    ActivityArchetype("morning-news", (6.0, 9.0), 25),
    ActivityArchetype("office-hours", (9.0, 17.0), 60),
    ActivityArchetype("evening-reader", (19.0, 23.0), 35),
)


def hour_histogram(visit_times: Sequence[float]) -> np.ndarray:
    """Bucket visit times (seconds since midnight) into 24 hourly counts."""
    histogram = np.zeros(HOURS, dtype=np.float64)
    for time in visit_times:
        hour = int(time // 3600) % HOURS
        histogram[hour] += 1
    return histogram


class TimingClassifier:
    """Multinomial naive Bayes over hourly visit histograms.

    The strongest realistic passive observer for this channel: it sees
    per-day timestamp lists (nothing else) and guesses the archetype.
    """

    def __init__(self, smoothing: float = 1.0):
        if smoothing <= 0:
            raise ReproError("smoothing must be positive")
        self.smoothing = smoothing
        self._counts: Dict[str, np.ndarray] = {}
        self._days: Dict[str, int] = {}

    def fit(self, days: List[Sequence[float]], labels: List[str]) -> None:
        """Train on labelled days of visit times."""
        if len(days) != len(labels):
            raise ReproError("days and labels must align")
        if not days:
            raise ReproError("cannot fit on an empty corpus")
        for visit_times, label in zip(days, labels):
            histogram = hour_histogram(visit_times)
            if label not in self._counts:
                self._counts[label] = np.zeros(HOURS)
                self._days[label] = 0
            self._counts[label] += histogram
            self._days[label] += 1

    @property
    def classes(self) -> List[str]:
        """Known archetype labels."""
        return sorted(self._counts)

    def log_likelihood(self, visit_times: Sequence[float], label: str) -> float:
        """Log P(day | archetype) + log prior."""
        if label not in self._counts:
            raise ReproError(f"unknown label {label!r}")
        counts = self._counts[label]
        total = counts.sum() + self.smoothing * HOURS
        log_probs = np.log((counts + self.smoothing) / total)
        histogram = hour_histogram(visit_times)
        prior = math.log(self._days[label] / sum(self._days.values()))
        return prior + float(histogram @ log_probs)

    def predict(self, visit_times: Sequence[float]) -> str:
        """Most likely archetype for one day."""
        if not self._counts:
            raise ReproError("classifier is not fitted")
        return max(self.classes,
                   key=lambda label: self.log_likelihood(visit_times, label))

    def accuracy(self, days: List[Sequence[float]], labels: List[str]) -> float:
        """Fraction of days classified correctly."""
        if not days:
            raise ReproError("empty evaluation set")
        hits = sum(1 for day, label in zip(days, labels)
                   if self.predict(day) == label)
        return hits / len(days)


def archetype_corpus(archetypes: Sequence[ActivityArchetype],
                     days_per_archetype: int,
                     seed: int = 0) -> Tuple[List[List[float]], List[str]]:
    """Generate a labelled corpus of daily visit-time lists."""
    rng = np.random.default_rng(seed)
    days: List[List[float]] = []
    labels: List[str] = []
    for archetype in archetypes:
        for _ in range(days_per_archetype):
            days.append(archetype.sample_day(rng))
            labels.append(archetype.name)
    return days, labels


__all__ = [
    "ActivityArchetype",
    "DEFAULT_ARCHETYPES",
    "TimingClassifier",
    "hour_histogram",
    "archetype_corpus",
    "HOURS",
]
