"""The four workloads and their seeded inputs.

Nothing here imports ``repro``: a workload is sizes plus a seeded request
sequence, and the program under test only ever sees the generated inputs.
Sizes are final — a later PR that wants another geometry adds a workload,
it does not retune one.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Tuple

import numpy as np


@dataclass(frozen=True)
class Workload:
    """One traffic mix: what is served, how a page is fetched, by how many.

    Attributes:
        mode: ZLTP mode the client offers (``pir2`` or ``pir-lwe``).
        kind: ``browse`` (``LightwebBrowser.visit``) or ``fetch``
            (``ZltpClient.get_slots([slot])``).
        domain_bits / blob_size: geometry of the database a page reads.
        prefix_bits: pir2 shard prefix width (0 = unsharded).
        users: closed-loop users, capped at ``nproc`` by the load driver.
        gets_per_round_trip: slot GETs the client pipelines per round trip.
        round_trips_per_page: round trips one page costs.
    """

    name: str
    why: str
    mode: str
    kind: str
    domain_bits: int
    blob_size: int
    prefix_bits: int = 0
    users: int = 1
    gets_per_round_trip: int = 1
    round_trips_per_page: int = 1


# browse_pir2's universe, passed to build_deployment.
BROWSE_UNIVERSE = {
    "data_blob_size": 4096, "data_domain_bits": 10,
    "code_blob_size": 65536, "code_domain_bits": 6,
    "fetch_budget": 5,
}
BROWSE_SITES = 4
BROWSE_PAGES_PER_SITE = 32

WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        "browse_pir2",
        "the paper's page view end to end: DPF keygen/expansion, batched "
        "scan, keyword decode and lightscript over a cache-resident universe",
        mode="pir2", kind="browse", domain_bits=10, blob_size=4096,
        gets_per_round_trip=2, round_trips_per_page=5),
    Workload(
        "fetch_blob",
        "one 64 KiB GET over a 128 MiB DRAM-resident party: the scan and "
        "every copy up to the reply frame dominate, DPF and session do little",
        mode="pir2", kind="fetch", domain_bits=11, blob_size=65536),
    Workload(
        "fetch_sharded",
        "same GET through the 8-shard front-end and the default executor: "
        "sub-key evaluation, fan-out and fold instead of one flat scan",
        mode="pir2", kind="fetch", domain_bits=14, blob_size=4096,
        prefix_bits=3),
    Workload(
        "fetch_lwe",
        "the scan bypass: a small mat-vec per page, so framing, session "
        "and reactor are the page and the hint download is the set-up",
        mode="pir-lwe", kind="fetch", domain_bits=10, blob_size=512,
        users=2),
)}


def blob_for(seed: int, slot: int, size: int) -> bytes:
    """The seeded corpus: the bytes stored at ``slot`` (server and verifier
    both call this, so no corpus file crosses the process boundary)."""
    return np.random.default_rng((seed, slot)).bytes(size)


def slot_sequence(seed: int, user: int, n_slots: int) -> Iterator[int]:
    """A user's endless, seeded, uniform slot sequence."""
    rng = np.random.default_rng((seed, 7919, user))
    while True:
        yield from rng.integers(0, n_slots, size=4096).tolist()


@dataclass(frozen=True)
class BrowsePage:
    path: str      # full lightweb path, "domain/rest"
    token: str     # the seeded string the rendered page must contain


def browse_pages(seed: int) -> List[BrowsePage]:
    """Every published page of browse_pir2, most popular first."""
    rng = np.random.default_rng((seed, 104729))
    pages = [
        BrowsePage(f"site{site}.example/p{page}",
                   f"tok-{site}-{page}-{int(rng.integers(1 << 40)):010x}")
        for site in range(BROWSE_SITES)
        for page in range(BROWSE_PAGES_PER_SITE)
    ]
    order = rng.permutation(len(pages))
    return [pages[i] for i in order]


def write_site_specs(seed: int, directory: Path) -> List[str]:
    """Write browse_pir2's site-spec files; returns their paths."""
    rng = np.random.default_rng((seed, 1299709))
    sites: Dict[str, Dict[str, dict]] = {}
    for page in sorted(browse_pages(seed), key=lambda p: p.path):
        domain, _, rest = page.path.partition("/")
        filler = " ".join(
            f"w{int(word):05d}"
            for word in rng.integers(0, 100000, int(rng.integers(40, 160))))
        sites.setdefault(domain, {})["/" + rest] = {
            "title": rest, "body": f"{page.token} {filler}"}
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for domain, pages in sorted(sites.items()):
        path = directory / f"{domain}.json"
        path.write_text(json.dumps({"domain": domain, "pages": pages}))
        paths.append(str(path))
    return paths


def visit_sequence(seed: int, user: int) -> Iterator[BrowsePage]:
    """A user's endless zipf(1) visit sequence over the published pages."""
    pages = browse_pages(seed)
    weights = 1.0 / np.arange(1, len(pages) + 1)
    weights /= weights.sum()
    rng = np.random.default_rng((seed, 15485863, user))
    while True:
        for index in rng.choice(len(pages), size=1024, p=weights):
            yield pages[int(index)]


def first_page_per_domain(seed: int) -> List[BrowsePage]:
    """One page per site — visiting them caches every domain's code blob."""
    seen: Dict[str, BrowsePage] = {}
    for page in browse_pages(seed):
        seen.setdefault(page.path.partition("/")[0], page)
    return [seen[domain] for domain in sorted(seen)]


def geometry(workload: Workload) -> Tuple[int, int]:
    """``(n_slots, database_bytes)`` of the database a page reads."""
    n_slots = 1 << workload.domain_bits
    return n_slots, n_slots * workload.blob_size
