"""A page view is one pipelined burst: wire shape and amortisation, on TCP.

Whatever a page plans — no data fetch, one, the whole budget — and for a
dummy page view alike, every data connection carries the same sequence of
(direction, frame length): ``fetch_budget x probes`` GETs out in one
write, as many fixed-size responses back. Each party answers the burst
with one pass over its database, the GET counts the browser and the CDN
bill by are what they were one round trip at a time, and a path that
fails inside the burst costs only its own slot of the page.
"""

import numpy as np
import pytest

from repro.core.lightweb.browser import LightwebBrowser
from repro.core.lightweb.cdn import Cdn
from repro.core.lightweb.lightscript import LightscriptProgram, Route
from repro.core.lightweb.publisher import Publisher
from repro.core.zltp.client import connect_client
from repro.core.zltp.modes import MODE_PIR2
from repro.core.zltp.serving import create_tcp_server
from repro.core.zltp.sockets import connect_tcp_resilient

from tests.integration.test_integrity import tamper

DOMAIN = "burst.example"
BUDGET = 3
PARTIES = (0, 1)


class RecordingTransport:
    """Logs (direction, framed length) per frame and counts writes."""

    def __init__(self, inner):
        self.inner = inner
        self.frames = []
        self.writes = 0

    def send_frame(self, payload):
        self.send_frames([payload])

    def send_frames(self, payloads):
        self.writes += 1
        self.frames.extend(("send", len(p) + 4) for p in payloads)
        self.inner.send_frames(payloads)

    def recv_frame(self):
        payload = self.inner.recv_frame()
        self.frames.append(("recv", len(payload) + 4))
        return payload

    def close(self):
        self.inner.close()

    @property
    def bytes_sent(self):
        return self.inner.bytes_sent

    @property
    def bytes_received(self):
        return self.inner.bytes_received


@pytest.fixture(params=["threaded", "eventloop"])
def world(request):
    cdn = Cdn("burst-cdn", modes=[MODE_PIR2])
    cdn.create_universe("u", data_domain_bits=8, code_domain_bits=5,
                        data_blob_size=2048, code_blob_size=8192,
                        fetch_budget=BUDGET)
    publisher = Publisher("pub")
    site = publisher.site(DOMAIN)
    site.enable_integrity()
    site.enable_access_control(b"master-secret-material")
    for name in "abc":
        site.add_page(f"/{name}", {"body": f"body of {name}"})
    site.add_protected_page("/sealed", {"body": "subscribers only"})

    def route(name, *rests):
        render = " | ".join("{data%d.body|-}" % i for i in range(len(rests)))
        return Route(pattern=f"^/{name}$",
                     fetches=tuple(DOMAIN + rest for rest in rests),
                     render=render or "static page")

    site.set_program(LightscriptProgram(DOMAIN, [
        route("none"),
        route("one", "/a"),
        route("full", "/a", "/b", "/c"),
        route("mixed", "/a", "/missing", "/sealed"),
    ]))
    publisher.push(cdn, "u")

    listeners = {(kind, party): create_tcp_server(
        request.param, cdn._server("u", kind, party))
        for kind in ("code", "data") for party in PARTIES}
    taps = {}

    def connect(universe_name, kind, client_modes=None,
                transport_factory=None, rng=None):
        # The transport stack `lightweb browse` dials: reconnecting over TCP.
        taps[kind] = [
            RecordingTransport(connect_tcp_resilient(
                [listeners[(kind, party)].address]))
            for party in PARTIES]
        return connect_client(taps[kind], supported_modes=client_modes,
                              rng=rng)

    cdn.connect = connect
    browser = LightwebBrowser(rng=np.random.default_rng(7))
    browser.connect(cdn, "u")
    browser.visit(f"{DOMAIN}/none")  # caches the code blob
    yield cdn, browser, taps["data"]
    browser.close()
    for listener in listeners.values():
        listener.stop()


def page_view(world, action):
    """Run one page view; return (result, per-connection frame logs,
    writes per connection, scan-pass delta, billed-GET delta)."""
    cdn, browser, taps = world
    database = cdn.universe("u").data_db
    for tap in taps:
        tap.frames.clear()
        tap.writes = 0
    passes, billed = database.scan_passes, cdn.total_gets("u")
    result = action(browser)
    return (result, [list(tap.frames) for tap in taps],
            [tap.writes for tap in taps],
            database.scan_passes - passes, cdn.total_gets("u") - billed)


class TestPageBurst:
    def test_every_page_view_has_one_wire_shape(self, world):
        cdn, browser, _taps = world
        probes = cdn.universe("u").probes
        gets = BUDGET * probes
        shapes = []
        for planned, rest in ((0, "none"), (1, "one"), (BUDGET, "full")):
            page, frames, writes, passes, billed = page_view(
                world, lambda b: b.visit(f"{DOMAIN}/{rest}"))
            assert len(page.fetched_paths) == planned
            assert not page.notes
            assert browser.gets_for_last_visit() == {
                "code-get": 0, "data-get": BUDGET}
            # One write per connection, then only reads: one round trip.
            assert writes == [1] * len(PARTIES)
            # One pass per party over the (shared) database, not one per GET.
            assert passes == len(PARTIES)
            assert billed == gets * len(PARTIES)
            shapes.append(frames)
        _none, frames, writes, passes, billed = page_view(
            world, lambda b: b.dummy_page_view())
        assert (writes, passes, billed) == (
            [1] * len(PARTIES), len(PARTIES), gets * len(PARTIES))
        shapes.append(frames)

        first = shapes[0]
        assert all(shape == first for shape in shapes[1:])
        for connection in first:
            sends, recvs = connection[:gets], connection[gets:]
            assert [d for d, _n in sends] == ["send"] * gets
            assert [d for d, _n in recvs] == ["recv"] * gets
            assert len({n for _d, n in sends}) == 1
            assert len({n for _d, n in recvs}) == 1

    def test_full_page_renders_every_path(self, world):
        page, *_ = page_view(world, lambda b: b.visit(f"{DOMAIN}/full"))
        assert page.text == "body of a | body of b | body of c"

    def test_failures_inside_a_burst_stay_in_their_slot(self, world):
        page, frames, _writes, passes, _billed = page_view(
            world, lambda b: b.visit(f"{DOMAIN}/mixed"))
        assert passes == len(PARTIES)
        assert page.fetched_paths == [DOMAIN + rest for rest in
                                      ("/a", "/missing", "/sealed")]
        assert page.data[0]["body"] == "body of a"
        assert page.data[1] is None and page.data[2] is None
        assert page.text == "body of a | - | -"
        assert len(page.notes) == 1
        assert page.notes[0].startswith(f"access denied at {DOMAIN}/sealed")
        _none, dummy_frames, *_ = page_view(
            world, lambda b: b.dummy_page_view())
        assert frames == dummy_frames

    def test_integrity_rejection_inside_a_burst(self, world):
        cdn, _browser, _taps = world
        tamper(cdn, f"{DOMAIN}/b", {"body": "FORGED"})
        page, *_ = page_view(world, lambda b: b.visit(f"{DOMAIN}/full"))
        assert page.text == "body of a | - | body of c"
        assert page.notes == [
            f"integrity violation at {DOMAIN}/b: missing wrapper"]
