"""Fault parity: the reactor and the in-process link answer a broken peer the same way.

Error replies are part of the wire shape, and the session
(``ZltpServerSession.receive``/``end_of_stream``/``expire``) decides all of
them, so a listener is only a socket loop. Each fault below is driven over
raw TCP against the reactor, and as raw bytes on an in-process ``SimLink``
end, with the idle timeout on the link's virtual clock: every delivery must
send the same one error frame, close the connection, and leave the logical
server's accounting balanced.

The directory and the stats listener run on the same reactor over their
own sessions; the rows at the end drive the same faults at them.
"""

import json
import logging
import socket
import struct
import time

import pytest

from repro.cli.serve import serve_stats
from repro.core.discovery import (
    DIRECTORY_FRAME_BYTES,
    DirectoryClient,
    DirectoryServer,
    DirectorySession,
    InProcessDirectory,
)
from repro.core.zltp import messages as msg
from repro.core.zltp.eventloop import Reactor
from repro.core.zltp.modes import MODE_PIR2
from repro.core.zltp.server import ZltpServer
from repro.core.zltp.serving import create_tcp_server
from repro.core.zltp.wire import MAX_FRAME_BYTES, FrameDecoder, encode_frame
from repro.errors import TransportError
from repro.netsim.simnet import SimLink
from repro.obs import fleet
from repro.obs.fleet import MAX_REQUEST_HEAD, StatsSession
from repro.pir.database import BlobDatabase
from tests.unit.test_sockets import boom_sessions

IDLE_TIMEOUT = 0.2

HELLO = encode_frame(msg.encode_message(msg.ClientHello([MODE_PIR2])))


def oversized_header(sock):
    sock.sendall(struct.pack("<I", MAX_FRAME_BYTES + 1))


def truncated_then_eof(sock):
    sock.sendall(HELLO[: len(HELLO) // 2])
    sock.shutdown(socket.SHUT_WR)


def idle_past_timeout(sock):
    time.sleep(IDLE_TIMEOUT * 2)


def handler_raises(sock):
    sock.sendall(HELLO)


#: fault name -> (what the peer does, the error code every delivery sends)
FAULTS = {
    "oversized-header": (oversized_header, "bad-frame"),
    "truncated-frame": (truncated_then_eof, "truncated-frame"),
    "idle": (idle_past_timeout, "idle-timeout"),
    "handler-raises": (handler_raises, "internal"),
}


def link_truncated_then_eof(end):
    end.write(HELLO[: len(HELLO) // 2])
    end.close()


#: The same faults from the client end of a SimLink connection ("idle" is
#: driven by ``drive_link`` on the virtual clock).
LINK_FAULTS = {
    "oversized-header": lambda end: end.write(
        struct.pack("<I", MAX_FRAME_BYTES + 1)),
    "truncated-frame": link_truncated_then_eof,
    "handler-raises": lambda end: end.write(HELLO),
}

KINDS = ["eventloop", "simlink"]


def make_logical():
    return ZltpServer(BlobDatabase(4, 32), modes=[MODE_PIR2], party=0)


def wait_for(predicate, deadline=5.0):
    end = time.monotonic() + deadline
    while time.monotonic() < end and not predicate():
        time.sleep(0.01)
    return predicate()


def frames_until_eof(sock):
    """Every frame the server sends before it closes the connection."""
    sock.settimeout(5)
    decoder = FrameDecoder()
    frames = []
    while True:
        chunk = sock.recv(65536)
        if not chunk:
            return frames
        frames.extend(decoder.feed(chunk))


def drive_link(fault, logical):
    """Run one fault on a fresh link connection; the replies before EOF."""
    link = SimLink()
    end = link.connect(logical)
    frames = []
    if fault == "idle":
        # The link keeps no timer: as a listener's would, it fires once
        # the virtual clock has passed the idle timeout.
        link.path.clock.advance(IDLE_TIMEOUT * 2)
        assert link.path.clock.now > IDLE_TIMEOUT
        frames = FrameDecoder().feed(end.session.expire())
    else:
        LINK_FAULTS[fault](end)
    while True:
        try:
            frames.append(end.recv_frame())
        except TransportError:
            return frames


def drive(kind, fault, logical):
    """Run one fault against a fresh listener; the replies before EOF."""
    if kind == "simlink":
        return [msg.decode_message(frame)
                for frame in drive_link(fault, logical)]
    listener = create_tcp_server(kind, logical, idle_timeout=IDLE_TIMEOUT
                                 if fault == "idle" else None)
    try:
        with socket.create_connection(listener.address, timeout=5) as sock:
            FAULTS[fault][0](sock)
            frames = frames_until_eof(sock)
        assert wait_for(lambda: listener.active_connections == 0)
    finally:
        listener.stop()
    return [msg.decode_message(frame) for frame in frames]


@pytest.mark.parametrize("fault", sorted(FAULTS))
@pytest.mark.parametrize("kind", KINDS)
def test_fault_gets_one_error_then_close(kind, fault, caplog):
    """Each delivery sends the fault's one code, so they agree on the
    wire, then closes."""
    logical = make_logical()
    if fault == "handler-raises":
        boom_sessions(logical)
    with caplog.at_level(logging.WARNING):
        replies = drive(kind, fault, logical)
    assert [type(reply) for reply in replies] == [msg.ErrorMessage]
    assert replies[0].code == FAULTS[fault][1]
    # Only a handler bug is a server fault, and it is logged once.
    errors = [r for r in caplog.records if r.levelno >= logging.ERROR]
    assert len(errors) == (1 if fault == "handler-raises" else 0)
    assert wait_for(lambda: logical.sessions_active == 0)
    assert logical.truncated_frames == (fault == "truncated-frame")
    assert logical.idle_reaped == (fault == "idle")


# --------------------------------------------------------------------------
# The directory and the stats listener: the same faults on the same reactor
# --------------------------------------------------------------------------

DIRECTORY_REQUEST = encode_frame(
    json.dumps({"op": "records"}).encode().ljust(DIRECTORY_FRAME_BYTES,
                                                 b"\x00"))
STATS_REQUEST = f"GET {fleet.METRICS_JSON_PATH} HTTP/1.0\r\n\r\n".encode()


def half_then_eof(request):
    def fault(sock):
        sock.sendall(request[: len(request) // 2])
        sock.shutdown(socket.SHUT_WR)
    return fault


def directory_next_request(listener):
    return DirectoryClient(*listener.address).records() == []


def stats_next_request(listener):
    body = fleet.http_get(*listener.address, fleet.METRICS_JSON_PATH)
    return json.loads(body) == {"metrics": {}}


def directory_listener(idle_timeout):
    directory = InProcessDirectory()
    if idle_timeout is None:
        return DirectoryServer(directory=directory)
    return Reactor(lambda: DirectorySession(directory),
                   idle_timeout=idle_timeout)


def empty_snapshot():
    return {"metrics": {}}


def stats_listener(idle_timeout):
    if idle_timeout is None:
        return serve_stats(empty_snapshot)
    return Reactor(lambda: StatsSession(empty_snapshot),
                   idle_timeout=idle_timeout)


#: listener -> (build(idle_timeout), next request served?,
#:              {fault: (what the peer does, replies it gets)})
LISTENER_FAULTS = {
    "directory": (directory_listener, directory_next_request, {
        "oversized-header": (oversized_header, 1),
        "truncated-frame": (half_then_eof(DIRECTORY_REQUEST), 0),
        "idle": (idle_past_timeout, 0),
    }),
    "stats": (stats_listener, stats_next_request, {
        "oversized-header": (
            lambda sock: sock.sendall(b"A" * (MAX_REQUEST_HEAD + 1)), 0),
        "truncated-frame": (half_then_eof(STATS_REQUEST), 0),
        "idle": (idle_past_timeout, 0),
    }),
}


def replies_until_eof(sock):
    """Every byte the listener sends before it closes the connection."""
    sock.settimeout(5)
    data = b""
    while True:
        chunk = sock.recv(65536)
        if not chunk:
            return data
        data += chunk


@pytest.mark.parametrize("fault", ["oversized-header", "truncated-frame",
                                   "idle"])
@pytest.mark.parametrize("listener_name", sorted(LISTENER_FAULTS))
def test_listener_fault_gets_at_most_one_reply_then_close(
        listener_name, fault, caplog):
    """A broken peer of the directory or the stats listener gets at most
    one reply, then a close; nothing is logged at WARNING or above, and
    the next request is served."""
    build, next_request, faults = LISTENER_FAULTS[listener_name]
    act, n_replies = faults[fault]
    listener = build(IDLE_TIMEOUT if fault == "idle" else None)
    try:
        with caplog.at_level(logging.DEBUG):
            with socket.create_connection(listener.address,
                                          timeout=5) as sock:
                act(sock)
                data = replies_until_eof(sock)
            assert wait_for(lambda: listener.active_connections == 0)
        if listener_name == "directory":
            replies = FrameDecoder().feed(data)
            assert len(replies) == n_replies
            for reply in replies:
                decoded = json.loads(reply.rstrip(b"\x00"))
                assert decoded["ok"] is False
        else:
            assert data == b""
        assert [r for r in caplog.records if r.levelno >= logging.WARNING] \
            == []
        assert next_request(listener)
        assert listener.worker_count == 1
    finally:
        listener.stop()
