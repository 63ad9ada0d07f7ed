"""A ZltpClient prepares the next burst's queries while a burst is on the
wire. For pir-lwe that moves work, never bytes: a seeded client sends the
frames it sent when every query was built in full on its own path. pir2
and enclave-oram have no hook, so their frames do not move either."""

import hashlib
import os

import numpy as np
import pytest

from repro.core.backend import prepare_queries
from repro.core.zltp.client import connect_client
from repro.core.zltp.modes import MODE_ENCLAVE, MODE_PIR2, MODE_PIR_LWE
from repro.core.zltp.server import ZltpServer
from repro.crypto.lwe import LweParams
from repro.netsim.simnet import SimLink
from repro.pir.database import BlobDatabase

#: Bursts that never shrink: each prepare leaves exactly the next burst's
#: first queries in the pool, so every query uses the draws it always did.
BURSTS = [[3], [5, 9, 3], [60, 2, 7], [0, 1, 2, 63], [8, 8, 8, 8]]

#: sha256 over every frame a client seeded with 50 sent for ``BURSTS``
#: (hello, set-up request, the GETs and the goodbye, endpoint by endpoint
#: in send order), recorded while pir-lwe still built each query and its
#: decode mask on the page's own path.
PARENT_FRAMES_SHA256 = {
    MODE_PIR_LWE:
        "5945ec16ac295d2cbd2253e6182da832dae46604ed75a99bd959844d9c16b969",
    MODE_PIR2:
        "5b6e83198e3c3de886e28c01865cb03803e3b0ab872f46fe4211b407f373f6ca",
}


class Recording:
    """A client transport that logs every frame it sends."""

    def __init__(self, inner, log):
        self.inner, self.log = inner, log

    def send_frame(self, payload):
        self.log.append(payload)
        self.inner.send_frame(payload)

    def recv_frame(self):
        return self.inner.recv_frame()

    def close(self):
        self.inner.close()


def value(slot):
    return f"value-{slot}".encode()


def servers_for(mode):
    db = BlobDatabase(6, 16)
    for slot in range(db.n_slots):
        db.set_slot(slot, value(slot))
    if mode == MODE_PIR2:
        return [ZltpServer(db, modes=[mode], party=party) for party in (0, 1)]
    return [ZltpServer(db, modes=[mode], lwe_params=LweParams(n=64))]


def connected(servers, mode, log):
    transports = [Recording(SimLink().connect(server), log)
                  for server in servers]
    client = connect_client(transports, supported_modes=[mode],
                            rng=np.random.default_rng(50))
    return client, transports


def through_get_slots(servers, mode):
    """Frames sent by ``ZltpClient.get_slots``, which prepares queries."""
    log = []
    client, _ = connected(servers, mode, log)
    for slots in BURSTS:
        assert [r.rstrip(b"\0") for r in client.get_slots(slots)] == \
            [value(slot) for slot in slots]
    client.close()
    return log


def by_hand(servers, mode):
    """Frames of the same bursts driven through the session without ever
    calling ``prepare_queries``."""
    log = []
    client, transports = connected(servers, mode, log)
    session = client.session
    for slots in BURSTS:
        for transport, burst in zip(transports, session.get_requests(slots)):
            for frame in burst:
                transport.send_frame(frame)
        for endpoint, transport in enumerate(transports):
            for _ in slots:
                session.receive_get(endpoint, transport.recv_frame())
        assert [r.rstrip(b"\0") for r in session.get_results()] == \
            [value(slot) for slot in slots]
    client.close()
    return log


@pytest.fixture
def fixed_nonces(monkeypatch):
    """Make ``os.urandom`` (the enclave's AEAD nonces) a counter; the
    returned callable starts it over."""
    counter = [0]

    def urandom(size):
        counter[0] += 1
        return counter[0].to_bytes(size, "little")

    monkeypatch.setattr(os, "urandom", urandom)
    return lambda: counter.__setitem__(0, 0)


class TestPreparedQueries:
    @pytest.mark.parametrize("mode", [MODE_PIR_LWE, MODE_PIR2])
    def test_frames_match_the_parent_digest(self, mode):
        log = through_get_slots(servers_for(mode), mode)
        assert hashlib.sha256(b"".join(log)).hexdigest() == \
            PARENT_FRAMES_SHA256[mode]

    def test_lwe_prepares_what_the_hand_driven_session_builds(self):
        servers = servers_for(MODE_PIR_LWE)
        assert through_get_slots(servers, MODE_PIR_LWE) == \
            by_hand(servers, MODE_PIR_LWE)

    def test_lwe_pool_holds_the_last_burst(self):
        """After a burst the pool holds that burst's size, a public count,
        shrinking with it."""
        client, _ = connected(servers_for(MODE_PIR_LWE), MODE_PIR_LWE, [])
        core = client.session._mode_client._core
        for slots in ([3, 4, 5], [6], [7, 8]):
            client.get_slots(slots)
            assert len(core._pool) == len(slots)

    @pytest.mark.parametrize("mode", [MODE_PIR2, MODE_ENCLAVE])
    def test_hook_is_a_no_op_without_one(self, mode, fixed_nonces):
        servers = servers_for(mode)
        for server in servers:
            server.mode_server(mode)  # the enclave draws its key once, here
        fixed_nonces()
        hooked = through_get_slots(servers, mode)
        fixed_nonces()
        assert hooked == by_hand(servers, mode)

    @pytest.mark.parametrize("mode", [MODE_PIR2, MODE_ENCLAVE])
    def test_modes_without_the_hook_are_untouched(self, mode):
        client, _ = connected(servers_for(mode), mode, [])
        mode_client = client.session._mode_client
        assert not hasattr(mode_client, "prepare_queries")
        state = dict(vars(mode_client))
        prepare_queries(mode_client, 4)
        assert vars(mode_client) == state
