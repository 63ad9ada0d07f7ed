"""Discovery chaos acceptance: live TCP deployments healed by the directory.

The ISSUE 8 acceptance scenario, end to end over real sockets:

* a deployment announces itself to a TCP directory server and a client
  resolves its endpoints through capability queries — **no port flags**;
* the primary data server is killed mid-batch and the client completes a
  byte-identical batch by *re-resolving* through the directory (the
  replacement server was announced after the client connected, so no
  pre-wired candidate list could have known it);
* the directory itself dies and resolution degrades gracefully to the
  resolver's cached records instead of failing.
"""

import json

import numpy as np
import pytest

from repro.cli.browse import DirectoryCdnProxy
from repro.cli.serve import attach_announcer, build_deployment
from repro.core.discovery import (
    Announcer,
    CachingResolver,
    CapabilityQuery,
    DirectoryClient,
    DirectoryServer,
)
from repro.core.lightweb.browser import LightwebBrowser
from repro.core.resilience import ReconnectingTransport, RetryPolicy
from repro.core.zltp.client import connect_client
from repro.core.discovery import resolved_pool
from repro.errors import TransportError

SECRET = b"integration-secret"

SPEC = {
    "domain": "disc.example",
    "integrity": True,
    "pages": {
        "/": "Discovered front. [[disc.example/inner|inner]]",
        "/inner": {"title": "Inner", "body": "resolved via the directory"},
    },
}


@pytest.fixture
def spec_file(tmp_path):
    path = tmp_path / "site.json"
    path.write_text(json.dumps(SPEC))
    return str(path)


def fast_policy(attempts=8):
    return RetryPolicy(max_attempts=attempts, base_delay=0.001,
                       max_delay=0.01, jitter=0.0, sleep=lambda s: None)


def primaries_only(deployment):
    return [record for record in deployment.announce_records()
            if "/primary" in record.server_id]


def replicas_only(deployment):
    return [record for record in deployment.announce_records()
            if "/replica" in record.server_id]


class TestDirectoryHealsKilledPrimary:
    def test_killed_primary_healed_by_re_resolve(self, spec_file):
        """Kill the primary mid-batch; the batch completes byte-identically
        through an endpoint the directory announced *after* the client
        connected. No port flags anywhere in the fallback path."""
        directory = DirectoryServer(secret=SECRET)
        deployment = build_deployment([spec_file], fetch_budget=2,
                                      data_domain_bits=10,
                                      code_domain_bits=7,
                                      modes=["pir2"], replicas=1)
        try:
            dir_client = DirectoryClient(*directory.address, secret=SECRET)
            # Only the primaries are announced up front: the replicas are
            # the "replacement servers" a healing deployment brings up
            # later, which no pre-resolved candidate list can know about.
            Announcer(dir_client, lambda: primaries_only(deployment),
                      secret=SECRET).announce_now()

            resolver = CachingResolver(dir_client)
            transports = [
                ReconnectingTransport(
                    resolved_pool(resolver,
                                  CapabilityQuery("main", "data",
                                                  party=party)),
                    policy=fast_policy())
                for party in (0, 1)
            ]
            client = connect_client(transports, supported_modes=["pir2"])
            slots = [client.candidate_slots("disc.example/inner")[0]]
            baseline = client.get_slots(slots)

            # SIGKILL-equivalent: the primary party-0 data listener dies
            # with sessions open; the replacement announces afterwards.
            deployment.listeners[("data", 0)].stop()
            Announcer(dir_client, lambda: replicas_only(deployment),
                      secret=SECRET).announce_now()

            again = client.get_slots(slots)
            assert again == baseline  # byte-identical decoded records
            assert transports[0].reconnects >= 1
            assert transports[0].pool.refreshes >= 1
            client.close()
        finally:
            deployment.stop()
            directory.stop()

    def test_dead_directory_degrades_to_cached_records(self, spec_file):
        """Directory death must not kill resolution: the resolver serves
        its cached records (TTL grace), and new sessions still connect."""
        directory = DirectoryServer(secret=SECRET)
        deployment = build_deployment([spec_file], fetch_budget=2,
                                      data_domain_bits=10,
                                      code_domain_bits=7, modes=["pir2"])
        try:
            dir_client = DirectoryClient(*directory.address, secret=SECRET,
                                         timeout=0.5)
            attach_announcer(deployment, dir_client, secret=SECRET,
                             interval_seconds=60.0)
            resolver = CachingResolver(dir_client, grace_seconds=300.0)
            proxy = DirectoryCdnProxy(resolver, retries=2)
            # A first browse primes the resolver's cache per query.
            browser = LightwebBrowser(rng=np.random.default_rng(0))
            browser.connect(proxy, "main", client_modes=["pir2"])
            assert "Discovered front" in browser.visit("disc.example").text
            browser.close()

            directory.stop()

            fallbacks_before = resolver.cache_fallbacks
            second = LightwebBrowser(rng=np.random.default_rng(1))
            second.connect(proxy, "main", client_modes=["pir2"])
            page = second.visit("disc.example/inner")
            assert "resolved via the directory" in page.text
            second.close()
            assert resolver.cache_fallbacks > fallbacks_before
        finally:
            deployment.stop()
            directory.stop()


class TestDirectoryBrowseEndToEnd:
    def test_full_stack_browse_via_directory_flags(self, spec_file, capsys):
        """serve --directory → lightweb directory → browse --directory:
        the whole CLI path with zero port flags on the client side."""
        from repro.cli.main import main

        directory = DirectoryServer(secret=SECRET)
        deployment = build_deployment([spec_file], fetch_budget=2,
                                      data_domain_bits=10,
                                      code_domain_bits=7)
        try:
            attach_announcer(
                deployment,
                DirectoryClient(*directory.address, secret=SECRET),
                secret=SECRET)
            host, port = directory.address
            code = main([
                "browse", "disc.example/inner",
                "--directory", f"{host}:{port}",
                "--directory-secret", SECRET.decode(),
            ])
            assert code == 0
            assert "resolved via the directory" in capsys.readouterr().out
        finally:
            deployment.stop()
            directory.stop()

    def test_announce_records_carry_capabilities_and_load(self, spec_file):
        """Announce records derive modes/cost/budget from the registry and
        the live servers — the metadata clients no longer pass as flags."""
        deployment = build_deployment([spec_file], fetch_budget=2,
                                      data_domain_bits=10,
                                      code_domain_bits=7, replicas=1)
        try:
            records = deployment.announce_records(ttl_seconds=15.0)
            # 2 parties x 2 kinds, primaries + one replica round.
            assert len(records) == 8
            by_kind_party = {(r.kind, r.party) for r in records}
            assert by_kind_party == {("code", 0), ("code", 1),
                                     ("data", 0), ("data", 1)}
            sample = records[0]
            assert sample.modes  # registry-derived
            assert "pir2" in sample.cost
            assert sample.cost["pir2"]["servers_per_request"] == 2
            assert sample.attrs["fetch_budget"] == 2
            assert sample.ttl_seconds == 15.0
            assert {"sessions_active", "queries",
                    "scan_seconds"} <= set(sample.load)
        finally:
            deployment.stop()
