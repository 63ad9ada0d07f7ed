"""A lightweb universe served over real TCP sockets end to end."""

import numpy as np
import pytest

from repro.core.lightweb.browser import LightwebBrowser
from repro.core.lightweb.cdn import Cdn
from repro.core.lightweb.publisher import Publisher
from repro.core.zltp.modes import MODE_PIR2
from repro.core.zltp.serving import create_tcp_server
from repro.core.zltp.sockets import TcpTransport, connect_tcp


@pytest.fixture
def tcp_world():
    cdn = Cdn("tcp-cdn", modes=[MODE_PIR2])
    cdn.create_universe("u", data_domain_bits=10, code_domain_bits=7,
                        fetch_budget=2)
    publisher = Publisher("pub")
    site = publisher.site("sockets.example")
    site.add_page("/", "Served over real TCP. [[sockets.example/deep|go]]")
    site.add_page("/deep", {"title": "Deep", "body": "packet-level reality"})
    publisher.push(cdn, "u")

    # Expose the CDN's four logical servers (code/data x party) over TCP.
    listeners = {}
    for kind in ("code", "data"):
        for party in (0, 1):
            server = cdn._server("u", kind, party)
            listeners[(kind, party)] = create_tcp_server("eventloop",
                                                         server)
    yield cdn, listeners
    for listener in listeners.values():
        listener.stop()


class TcpLink:
    """A link whose connections are TCP sockets to one listener."""

    def __init__(self, address):
        self.address = address

    def connect(self, server):
        # The listener already serves ``server``; dial it.
        return connect_tcp(*self.address)


def tcp_links(listeners):
    """A link factory that dials the matching TCP listener."""

    def factory(name):
        _cdn, _u, kind, party = name.rsplit("/", 3)
        return TcpLink(listeners[(kind, int(party))].address)

    return factory


class TestTcpDeployment:
    def test_browse_over_tcp(self, tcp_world):
        cdn, listeners = tcp_world
        browser = LightwebBrowser(rng=np.random.default_rng(0))
        browser.connect(cdn, "u", link_factory=tcp_links(listeners))
        page = browser.visit("sockets.example")
        assert "real TCP" in page.text
        deep = browser.follow(page, 0)
        assert "packet-level reality" in deep.text
        assert browser.gets_for_last_visit()["data-get"] == 2
        browser.close()

    def test_two_browsers_share_the_deployment(self, tcp_world):
        cdn, listeners = tcp_world
        browsers = []
        for seed in (1, 2):
            browser = LightwebBrowser(rng=np.random.default_rng(seed))
            browser.connect(cdn, "u", link_factory=tcp_links(listeners))
            browsers.append(browser)
        assert "real TCP" in browsers[0].visit("sockets.example").text
        assert "packet-level" in browsers[1].visit("sockets.example/deep").text
        for browser in browsers:
            browser.close()
