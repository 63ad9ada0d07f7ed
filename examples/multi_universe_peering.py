#!/usr/bin/env python3
"""§3.5: multiple universes, small/medium/large tiers, and CDN peering.

Two CDNs share a domain registry and peer: publisher pushes to one, content
appears on both. A single CDN also offers size-tiered universes, trading
per-request cost against page capacity.

Run:  python examples/multi_universe_peering.py
"""

import numpy as np

from repro.core.lightweb.browser import LightwebBrowser
from repro.core.lightweb.cdn import Cdn
from repro.core.lightweb.peering import DomainRegistry
from repro.core.lightweb.publisher import Publisher
from repro.core.lightweb.universe import DEFAULT_TIERS
from repro.core.zltp.modes import MODE_PIR2
from repro.costmodel.datasets import DatasetSpec
from repro.costmodel.estimator import estimate_deployment


def main():
    # -- Peered CDNs ---------------------------------------------------------
    registry = DomainRegistry("icann-stand-in")
    akamai = Cdn("akamai", registry=registry, modes=[MODE_PIR2])
    fastly = Cdn("fastly", registry=registry, modes=[MODE_PIR2])
    for cdn in (akamai, fastly):
        cdn.create_universe("world", data_domain_bits=10, code_domain_bits=7,
                            fetch_budget=2)
    akamai.peer_with(fastly)

    publisher = Publisher("globe-news")
    site = publisher.site("globe.example")
    site.add_page("/", "One push, every peer. [[globe.example/about|about]]")
    site.add_page("/about", {"title": "About",
                             "body": "uploaded to akamai, served by fastly"})
    publisher.push(akamai, "world")
    print("pushed globe.example to akamai only")

    reader = LightwebBrowser(rng=np.random.default_rng(0))
    reader.connect(fastly, "world")
    print("reading from fastly:", reader.visit("globe.example/about").text)
    print(f"registry says globe.example is owned by "
          f"{registry.owner_of('globe.example')!r} everywhere\n")

    # -- Tiered universes ------------------------------------------------------
    tiered = Cdn("tiered-cdn", registry=DomainRegistry(), modes=[MODE_PIR2])
    print("one CDN, three cost-coverage tiers (§3.5):")
    for tier in DEFAULT_TIERS:
        tiered.create_universe(tier.name, data_blob_size=tier.data_blob_size,
                               data_domain_bits=9, code_domain_bits=6)
        # Per-request cost scales with what a universe holds: model a
        # universe filled to capacity with tier-sized pages.
        capacity_pages = 2**20
        dataset = DatasetSpec(
            name=tier.name,
            total_bytes=capacity_pages * tier.data_blob_size,
            n_pages=capacity_pages,
            avg_page_bytes=tier.data_blob_size,
        )
        estimate = estimate_deployment(dataset)
        print(f"  {tier.name:<7} blobs {tier.data_blob_size:>6} B | "
              f"1M-page universe costs ${estimate.request_cost_usd:.5f}/request "
              f"({estimate.n_shards} shards)")
    print("\nusers pick the tier matching the page sizes they need; an "
          "observer learns only WHICH tier a fetch went to (§3.5).")


if __name__ == "__main__":
    main()
