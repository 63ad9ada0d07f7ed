"""User browsing-session generation.

Drives two experiments:

- **E5 (billing, §4)**: "users who make on average 50 daily page requests
  where each page request results in 5 GET requests for data blobs" — the
  generator produces per-day visit schedules matching that profile so the
  billing model can be fed measured GET counts instead of bare constants.
- **A2 / leakage (§3.2)**: the timing side channel the paper concedes ("a
  user fetching a page every five minutes in the morning might be most
  likely to be reading the news") needs realistic visit *timing*, which the
  generator models with configurable activity windows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.errors import ReproError
from repro.workloads.zipf import ZipfPopularity


@dataclass(frozen=True)
class Visit:
    """One page visit in a session.

    Attributes:
        time_seconds: offset from the session (day) start.
        site_index: which site was visited.
        page_index: which page within the site.
    """

    time_seconds: float
    site_index: int
    page_index: int


@dataclass(frozen=True)
class BrowsingProfile:
    """A user's browsing shape (§4 defaults).

    Attributes:
        pages_per_day: mean page views per day (paper: 50).
        gets_per_page: the universe's fixed fetch budget (paper: 5).
        active_hours: (start, end) of the user's daily activity window.
        site_zipf_exponent: skew of site popularity.
    """

    pages_per_day: float = 50.0
    gets_per_page: int = 5
    active_hours: tuple = (8.0, 23.0)
    site_zipf_exponent: float = 1.0

    def __post_init__(self):
        if self.pages_per_day <= 0 or self.gets_per_page < 1:
            raise ReproError("profile values must be positive")
        start, end = self.active_hours
        if not 0 <= start < end <= 24:
            raise ReproError("active_hours must satisfy 0 <= start < end <= 24")


class SessionGenerator:
    """Generates daily browsing sessions over a universe of sites."""

    def __init__(self, n_sites: int, pages_per_site: int,
                 profile: Optional[BrowsingProfile] = None,
                 seed: int = 7):
        if n_sites < 1 or pages_per_site < 1:
            raise ReproError("need at least one site and one page")
        self.n_sites = n_sites
        self.pages_per_site = pages_per_site
        self.profile = profile if profile is not None else BrowsingProfile()
        self._site_pop = ZipfPopularity(n_sites, self.profile.site_zipf_exponent)
        self._page_pop = ZipfPopularity(pages_per_site, 0.8)
        self._rng = np.random.default_rng(seed)

    def day(self) -> List[Visit]:
        """One day of visits: Poisson count, popularity-skewed targets."""
        count = int(self._rng.poisson(self.profile.pages_per_day))
        start_h, end_h = self.profile.active_hours
        times = np.sort(
            self._rng.uniform(start_h * 3600, end_h * 3600, size=count)
        )
        sites = self._site_pop.sample(count, self._rng)
        pages = self._page_pop.sample(count, self._rng)
        return [
            Visit(time_seconds=float(t), site_index=int(s), page_index=int(p))
            for t, s, p in zip(times, sites, pages)
        ]

    def month(self, days: int = 30) -> List[List[Visit]]:
        """A month of daily sessions."""
        return [self.day() for _ in range(days)]

    def data_gets(self, sessions: Sequence[Sequence[Visit]]) -> int:
        """Total data GETs the visits will generate at the fixed budget."""
        return sum(len(day) for day in sessions) * self.profile.gets_per_page

    def code_gets_upper_bound(self, sessions: Sequence[Sequence[Visit]]) -> int:
        """Code fetches assuming a per-day cold cache (worst case).

        Aggressive client caching (§3.2) makes the true number much lower;
        this bound is what a cautious cost estimate would use.
        """
        total = 0
        for day in sessions:
            total += len({visit.site_index for visit in day})
        return total


__all__ = ["Visit", "BrowsingProfile", "SessionGenerator"]
