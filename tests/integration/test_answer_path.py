"""One answer path: a GET reaches its backend the same way on every transport.

The same hello + 3 GETs go through four deliveries: an in-process
``SimLink`` end, a direct ``create_session().handle_frames``, the
byte-level ``create_session().receive`` (a one-session tick), and TCP to
the reactor. The GetResponse frames must be byte-identical (the
enclave seals with fresh randomness, so there the decoded records must
match instead). Every mode server's single-request ``answer`` is swapped
for a spy that raises, so a delivery that still took a one-GET path fails.
"""

import tracemalloc

import numpy as np
import pytest

from repro.core.backend import create_client, queries_for_slots
from repro.core.zltp import messages as msg
from repro.core.zltp.modes import MODE_ENCLAVE, MODE_PIR2, MODE_PIR_LWE
from repro.core.zltp.server import ZltpServer
from repro.core.zltp.serving import create_tcp_server
from repro.core.zltp.sockets import connect_tcp
from repro.core.zltp.wire import FrameDecoder, encode_frames
from repro.crypto.dpf import gen_dpf
from repro.crypto.lwe import LweParams
from repro.netsim.simnet import SimLink
from repro.pir.database import BlobDatabase

SLOTS = [3, 17, 60]

CONFIGS = {
    "pir2": (MODE_PIR2, {}),
    "pir2-sharded": (MODE_PIR2, {"prefix_bits": 2}),
    "lwe": (MODE_PIR_LWE, {}),
    "enclave": (MODE_ENCLAVE, {}),
}


def via_simlink(server, frames):
    client_end = SimLink().connect(server)
    for frame in frames:
        client_end.send_frame(frame)
    return [client_end.recv_frame() for _ in frames]


def via_handle_frames(server, frames):
    return server.create_session().handle_frames(frames)


def via_receive(server, frames):
    replies = server.create_session().receive(encode_frames(frames))
    return FrameDecoder().feed(replies)


def via_tcp(server, frames):
    listener = create_tcp_server("eventloop", server)
    try:
        transport = connect_tcp(*listener.address)
        transport.send_frames(frames)
        replies = [transport.recv_frame() for _ in frames]
        transport.close()
    finally:
        listener.stop()
    return replies


DELIVERIES = {
    "simlink": via_simlink,
    "handle_frames": via_handle_frames,
    "receive": via_receive,
    "tcp-eventloop": via_tcp,
}


def spied_server(mode, options):
    """A party-0 server over a filled database whose mode server refuses
    single-request answers."""
    db = BlobDatabase(6, 64)
    for slot in range(db.n_slots):
        db.set_slot(slot, f"record-{slot}".encode())
    server = ZltpServer(db, modes=[mode], party=0, options=options,
                        lwe_params=LweParams(n=32),
                        rng=np.random.default_rng(0))
    mode_server = server.mode_server(mode)

    def spy(payload):
        raise AssertionError("a GET took the single-request answer path")

    mode_server.answer = spy
    return server, mode_server


def hello_and_gets(mode, server, mode_server):
    """The mode's client half and one burst: a hello, then a GET per slot
    of ``SLOTS`` carrying endpoint 0's query."""
    db = server.database
    client = create_client(mode, db.domain_bits, db.blob_size,
                           mode_server.hello_params(), mode_server.setup(),
                           rng=np.random.default_rng(1))
    payloads = [per_endpoint[0]
                for per_endpoint in queries_for_slots(client, SLOTS)]
    frames = [msg.encode_message(msg.ClientHello(supported_modes=[mode]))]
    frames += [msg.encode_message(msg.GetRequest(request_id=i, payload=p))
               for i, p in enumerate(payloads)]
    return client, frames


@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_every_delivery_answers_identically(config):
    mode, options = CONFIGS[config]
    server, mode_server = spied_server(mode, options)
    client, frames = hello_and_gets(mode, server, mode_server)

    gets = {}
    for name, deliver in DELIVERIES.items():
        replies = deliver(server, frames)
        assert isinstance(msg.decode_message(replies[0]), msg.ServerHello)
        responses = [msg.decode_message(reply) for reply in replies[1:]]
        assert [r.request_id for r in responses] == [0, 1, 2], name
        gets[name] = replies[1:] if mode != MODE_ENCLAVE else \
            [client.decode([r.payload]) for r in responses]

    expected = gets["handle_frames"]
    for name, got in gets.items():
        assert got == expected, name
    if mode != MODE_PIR2:  # one endpoint: the answer decodes to the record
        records = expected if mode == MODE_ENCLAVE else [
            client.decode([msg.decode_message(reply).payload])
            for reply in expected]
        assert records == [server.database.get_slot(slot) for slot in SLOTS]
    assert server.gets_served == len(DELIVERIES) * len(SLOTS)


def test_in_memory_deliveries_scan_once_per_burst():
    """Every in-process delivery hands the pipelined burst to the session
    together, so the three GETs are one scan pass."""
    server, mode_server = spied_server(MODE_PIR2, {})
    _client, frames = hello_and_gets(MODE_PIR2, server, mode_server)
    for deliver, passes in ((via_simlink, 1), (via_handle_frames, 1),
                            (via_receive, 1)):
        before = server.database.scan_passes
        deliver(server, frames)
        assert server.database.scan_passes - before == passes


@pytest.mark.parametrize("options", [{}, {"prefix_bits": 2}],
                         ids=["flat", "sharded"])
def test_block_output_key_refused_before_evaluation(options):
    """pir2 takes bit-output keys only. A block-output key with a 64 KiB
    value would expand to 2^8 blocks of 64 KiB: both the flat and the
    sharded party refuse it with the protocol error, before expanding
    anything."""
    db = BlobDatabase(8, 32)
    server = ZltpServer(db, modes=[MODE_PIR2], party=0, options=options)
    key0, _key1 = gen_dpf(3, 8, value=bytes(64 * 1024),
                          rng=np.random.default_rng(5))
    frames = [msg.encode_message(msg.ClientHello(supported_modes=[MODE_PIR2])),
              msg.encode_message(msg.GetRequest(request_id=0,
                                                payload=key0.to_bytes()))]
    session = server.create_session()
    session.handle_frames(frames[:1])
    tracemalloc.start()
    try:
        replies = session.handle_frames(frames[1:])
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    [reply] = [msg.decode_message(frame) for frame in replies]
    assert isinstance(reply, msg.ErrorMessage) and reply.code == "protocol"
    assert peak < 4 * 1024 * 1024
