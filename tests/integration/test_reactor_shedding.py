"""Shedding on the reactor, over TCP, for pir2 and pir-lwe.

Each data server's gate is held busy by one admitted query from the test
(another run in flight), so the client's next burst is shed whole. The
shed burst must come back as one ``overload`` reply per GET on every
endpoint, the server sessions must stay open and negotiated, and once
the gate drains the same connections' next burst must decode each slot's
bytes, its replies in request-id order. pir-lwe drops the shed burst's
prepared masks, the bug class a shed burst used to leave behind.
"""

import numpy as np
import pytest

from repro.core.zltp import messages as msg
from repro.core.zltp.admission import AdmissionController
from repro.core.zltp.client import connect_client
from repro.core.zltp.modes import MODE_PIR2, MODE_PIR_LWE
from repro.core.zltp.server import ZltpServer
from repro.core.zltp.serving import create_tcp_server
from repro.core.zltp.sockets import connect_tcp
from repro.crypto.lwe import LweParams
from repro.errors import OverloadError
from repro.pir.database import BlobDatabase

SLOTS = [5, 17, 40]
PARTIES = {MODE_PIR2: (0, 1), MODE_PIR_LWE: (0,)}


class RecordingTransport:
    """A TCP transport that keeps every frame it receives."""

    def __init__(self, inner):
        self.inner = inner
        self.received = []

    def send_frame(self, payload):
        self.inner.send_frame(payload)

    def send_frames(self, payloads):
        self.inner.send_frames(payloads)

    def recv_frame(self):
        frame = self.inner.recv_frame()
        self.received.append(msg.decode_message(frame))
        return frame

    def close(self):
        self.inner.close()


@pytest.fixture(params=[MODE_PIR2, MODE_PIR_LWE])
def deployment(request):
    mode = request.param
    db = BlobDatabase(6, 64)
    rng = np.random.default_rng(3)
    for slot in range(db.n_slots):
        db.set_slot(slot, rng.integers(0, 256, 64, dtype=np.uint8).tobytes())
    servers, sessions = [], []
    for party in PARTIES[mode]:
        server = ZltpServer(db, modes=[mode], party=party,
                            lwe_params=LweParams(n=32),
                            rng=np.random.default_rng(party),
                            admission=AdmissionController(
                                deadline_seconds=60.0,
                                max_queue_depth=len(SLOTS)))
        create = server.create_session

        def recording_create(create=create):
            session = create()
            sessions.append(session)
            return session

        server.create_session = recording_create
        servers.append(server)
    listeners = [create_tcp_server("eventloop", server) for server in servers]
    taps = [RecordingTransport(connect_tcp(*listener.address))
            for listener in listeners]
    client = connect_client(taps, supported_modes=[mode],
                            rng=np.random.default_rng(9))
    yield mode, db, servers, sessions, taps, client
    client.close()
    for listener in listeners:
        listener.stop()


def test_a_shed_burst_then_a_decoded_one(deployment):
    mode, db, servers, sessions, taps, client = deployment
    gates = [server.admission for server in servers]
    for gate in gates:
        assert gate.try_admit(1) is None  # a run in flight: 1 + 3 > 3
    for tap in taps:
        tap.received.clear()
    with pytest.raises(OverloadError):
        client.get_slots(SLOTS)
    for tap in taps:
        assert [(type(reply), reply.code) for reply in tap.received] == \
            [(msg.ErrorMessage, "overload")] * len(SLOTS)
    assert [gate.shed for gate in gates] == [len(SLOTS)] * len(gates)
    # Overload is the server's state: every session stays negotiated.
    assert len(sessions) == len(servers)
    assert all(not session.closed and session.mode == mode
               for session in sessions)

    for gate in gates:
        gate.release(1)
    for tap in taps:
        tap.received.clear()
    assert client.get_slots(SLOTS) == [db.get_slot(slot) for slot in SLOTS]
    for tap in taps:
        # The shed burst spent ids 0-2 (request-id order, one reply per
        # GET); this burst's replies carry the next ones, in order.
        assert [reply.request_id for reply in tap.received] == \
            list(range(len(SLOTS), 2 * len(SLOTS)))
    assert [gate.queue_depth for gate in gates] == [0] * len(gates)
    assert [gate.admitted for gate in gates] == [1 + len(SLOTS)] * len(gates)
