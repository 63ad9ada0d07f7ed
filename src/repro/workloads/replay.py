"""Replay generated browsing workloads against a real lightweb deployment.

The cost and leakage numbers elsewhere in the repo come from two sources:
analytic models (the paper's method) and single-visit measurements. This
harness closes the loop at workload scale: build a universe from a
synthetic corpus, generate user sessions
(:class:`~repro.workloads.sessions.SessionGenerator`), drive them through
*real* browsers over the simulated network, and report what actually
happened — GET counts, bytes, code-cache behaviour, per-user cost at a
given request price, and what the on-path adversary observed.

Used by the E5 pipeline as a measured cross-check and by integration tests
as a whole-system smoke at scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.lightweb.browser import LightwebBrowser
from repro.core.lightweb.cdn import Cdn
from repro.core.lightweb.publisher import Publisher
from repro.core.zltp.modes import MODE_PIR2
from repro.errors import ReproError
from repro.netsim.adversary import PassiveAdversary
from repro.netsim.simnet import NetworkPath, SimClock, SimLink
from repro.workloads.corpus import SyntheticCorpus
from repro.workloads.sessions import SessionGenerator, Visit


@dataclass
class ReplayReport:
    """What a replayed workload actually did.

    Attributes:
        n_days: days replayed.
        n_visits: real page views issued.
        data_gets: data GETs on the wire (== n_visits x fetch_budget).
        code_gets: code-blob fetches (cache misses only).
        bytes_up / bytes_down: client traffic totals.
        adversary_events: page-view events the on-path observer clustered.
        distinct_signatures: distinct per-visit (direction,size) multisets
            seen by the adversary — 1 means perfectly uniform traffic.
    """

    n_days: int
    n_visits: int
    data_gets: int
    code_gets: int
    bytes_up: int
    bytes_down: int
    adversary_events: int
    distinct_signatures: int

    def code_cache_hit_rate(self) -> float:
        """Fraction of visits that needed no code fetch."""
        if self.n_visits == 0:
            return 1.0
        return 1.0 - self.code_gets / self.n_visits

    def monthly_cost(self, request_cost_usd: float, days: int = 30) -> float:
        """Scale the replay's measured GET rate to a monthly bill."""
        if self.n_days == 0:
            return 0.0
        gets_per_day = (self.data_gets + self.code_gets) / self.n_days
        return gets_per_day * days * request_cost_usd


def build_replay_universe(corpus: SyntheticCorpus,
                          fetch_budget: int = 5,
                          data_domain_bits: int = 12,
                          data_blob_size: int = 2048) -> Cdn:
    """Publish a synthetic corpus into a fresh single-universe CDN."""
    cdn = Cdn("replay-cdn", modes=[MODE_PIR2])
    cdn.create_universe(
        "replay", data_domain_bits=data_domain_bits, code_domain_bits=8,
        data_blob_size=data_blob_size, fetch_budget=fetch_budget,
    )
    for site_index in range(corpus.n_sites):
        publisher = Publisher(f"pub-{site_index}")
        site = publisher.site(corpus.domain(site_index))
        for page in corpus.site_pages(site_index):
            rest = page.path[len(corpus.domain(site_index)):]
            site.add_page(rest, page.content)
        publisher.push(cdn, "replay")
    return cdn


def replay_sessions(cdn: Cdn, corpus: SyntheticCorpus,
                    sessions: Sequence[Sequence[Visit]],
                    seed: int = 0) -> ReplayReport:
    """Drive generated sessions through one real browser.

    Each day's visits run in order on a fresh simulated clock; the code
    cache persists across days (a user keeps their browser), matching the
    paper's "code blobs change very rarely" caching story.

    Raises:
        ReproError: on empty ``sessions``, or when any visit indexes a
            site or page outside the corpus — a generator/corpus
            dimension mismatch. (These used to be silently wrapped with
            ``%``, which masked the mismatch *and* skewed the replayed
            popularity distribution: every out-of-range rank aliased onto
            a popular low-rank page.)
    """
    if not sessions:
        raise ReproError("no sessions to replay")
    for day_index, day in enumerate(sessions):
        for visit in day:
            if not 0 <= visit.site_index < corpus.n_sites or \
                    not 0 <= visit.page_index < corpus.pages_per_site:
                raise ReproError(
                    f"day {day_index}: visit targets site "
                    f"{visit.site_index}, page {visit.page_index}, but the "
                    f"corpus has {corpus.n_sites} site(s) x "
                    f"{corpus.pages_per_site} page(s) — generator and "
                    f"corpus dimensions disagree")
    adversary = PassiveAdversary()
    clock = SimClock()

    def factory(name):
        return SimLink(
            NetworkPath(clock, name=name, observer=adversary))

    browser = LightwebBrowser(rng=np.random.default_rng(seed))
    browser.connect(cdn, "replay", link_factory=factory)
    base_up, base_down = browser.bytes_sent, browser.bytes_received
    adversary.clear()

    signatures = set()
    n_visits = 0
    for day in sessions:
        day_start = clock.now
        for visit in day:
            clock.sleep_until(day_start + visit.time_seconds)
            page = corpus.page(visit.site_index, visit.page_index)
            mark = len(adversary.observations)
            browser.visit(page.path)
            n_visits += 1
            visit_trace = tuple(sorted(
                (obs.direction, obs.n_bytes)
                for obs in adversary.observations[mark:]
            ))
            signatures.add(visit_trace)
        clock.sleep_until(day_start + 24 * 3600)

    code_gets = sum(1 for e in browser.network_log if e["kind"] == "code-get")
    data_gets = sum(1 for e in browser.network_log if e["kind"] == "data-get")
    events = adversary.infer_events(gap_seconds=30.0)
    return ReplayReport(
        n_days=len(sessions),
        n_visits=n_visits,
        data_gets=data_gets,
        code_gets=code_gets,
        bytes_up=browser.bytes_sent - base_up,
        bytes_down=browser.bytes_received - base_down,
        adversary_events=len(events),
        distinct_signatures=len(signatures),
    )


def run_replay(n_sites: int = 6, pages_per_site: int = 8, n_days: int = 3,
               pages_per_day: float = 12.0, fetch_budget: int = 3,
               seed: int = 0) -> ReplayReport:
    """Convenience: corpus → universe → sessions → replay, one call."""
    corpus = SyntheticCorpus(n_sites, pages_per_site, avg_page_bytes=400,
                             seed=seed)
    cdn = build_replay_universe(corpus, fetch_budget=fetch_budget,
                                data_domain_bits=11)
    from repro.workloads.sessions import BrowsingProfile

    generator = SessionGenerator(
        n_sites, pages_per_site,
        profile=BrowsingProfile(pages_per_day=pages_per_day,
                                gets_per_page=fetch_budget),
        seed=seed + 1,
    )
    sessions = [generator.day() for _ in range(n_days)]
    return replay_sessions(cdn, corpus, sessions, seed=seed + 2)


__all__ = ["ReplayReport", "build_replay_universe", "replay_sessions",
           "run_replay"]
