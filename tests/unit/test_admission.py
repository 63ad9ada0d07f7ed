"""Tests for the admission-control gate and its session integration."""

import struct
import threading

import numpy as np
import pytest

from repro.core.zltp import messages as msg
from repro.core.zltp.admission import AdmissionController
from repro.core.zltp.client import connect_client
from repro.core.zltp.modes import MODE_ENCLAVE, MODE_PIR2
from repro.core.zltp.server import ZltpServer
from repro.core.zltp.serving import create_tcp_server
from repro.core.zltp.sockets import connect_tcp
from repro.core.zltp.wire import MAX_FRAME_BYTES, FrameDecoder, encode_frames
from repro.crypto.dpf import gen_dpf
from repro.errors import OverloadError, ReproError
from repro.netsim.simnet import SimLink
from repro.pir.database import BlobDatabase
from repro.pir.keyword import KeywordIndex

SALT = b"admission-test"


class FakeClock:
    """Deterministic monotonic clock for the inter-departure estimator."""

    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def gated(clock=None, **kwargs):
    gate = AdmissionController(**kwargs)
    if clock is not None:
        gate._clock = clock
    return gate


class TestControllerDecisions:
    def test_validation(self):
        with pytest.raises(ReproError):
            AdmissionController(deadline_seconds=0)
        with pytest.raises(ReproError):
            AdmissionController(max_queue_depth=0)
        with pytest.raises(ReproError):
            AdmissionController(ewma_alpha=0)
        with pytest.raises(ReproError):
            AdmissionController(ewma_alpha=1.5)
        with pytest.raises(ReproError):
            AdmissionController(initial_service_seconds=-1)
        gate = AdmissionController()
        with pytest.raises(ReproError):
            gate.try_admit(0)
        with pytest.raises(ReproError):
            gate.release(0)

    def test_idle_gate_always_admits(self):
        # Even a wildly inflated service estimate cannot shed at idle:
        # one batch cannot overload an idle server, and admitting is
        # what keeps the estimator fed (see the death-spiral test).
        gate = gated(deadline_seconds=0.01, max_queue_depth=64,
                     initial_service_seconds=100.0)
        assert gate.try_admit(4) is None
        assert gate.queue_depth == 4

    def test_busy_gate_sheds_on_queue_depth(self):
        gate = gated(deadline_seconds=100.0, max_queue_depth=3)
        assert gate.try_admit(2) is None
        detail = gate.try_admit(2)
        assert detail is not None and "queue depth" in detail
        assert gate.queue_depth == 2
        assert gate.shed == 2

    def test_busy_gate_sheds_on_predicted_wait(self):
        gate = gated(deadline_seconds=0.1, max_queue_depth=64,
                     initial_service_seconds=0.04)
        assert gate.try_admit(1) is None
        # (1 + 2) * 0.04 = 0.12 > 0.1 -> shed, with a public detail.
        detail = gate.try_admit(2)
        assert detail is not None and "deadline" in detail
        # A smaller batch still fits: (1 + 1) * 0.04 = 0.08 <= 0.1.
        assert gate.try_admit(1) is None

    def test_release_balances_and_clamps(self):
        gate = gated()
        gate.try_admit(3)
        gate.release(2)
        assert gate.queue_depth == 1
        gate.release(5)  # over-release clamps at zero, never negative
        assert gate.queue_depth == 0

    def test_snapshot_keys(self):
        gate = gated()
        gate.try_admit(1)
        snap = gate.snapshot()
        assert snap["queue_depth"] == 1
        assert snap["admitted"] == 1 and snap["shed"] == 0
        load = gate.load_snapshot()
        assert set(load) == {"admission_queue_depth", "admission_shed",
                             "admission_service_seconds"}
        assert load["admission_queue_depth"] == 1.0


class TestServiceEstimator:
    def test_response_time_feeds_ewma_when_alone(self):
        clock = FakeClock()
        gate = gated(clock)
        gate.try_admit(1)
        clock.advance(10.0)  # stale wall gap must not matter: min() wins
        gate.release(1, service_seconds=0.04)
        # Inter-departure since the busy-period start is 10s; the
        # reported response time is the tighter bound.
        assert gate.service_seconds_estimate == pytest.approx(0.04)

    def test_batch_wall_time_spread_over_queries(self):
        clock = FakeClock()
        gate = gated(clock)
        gate.try_admit(4)
        clock.advance(0.08)
        gate.release(4, service_seconds=0.08)
        assert gate.service_seconds_estimate == pytest.approx(0.02)

    def test_queueing_does_not_inflate_estimate(self):
        # The regression the load harness flushed out: under load the
        # reported batch wall time is a *response* time (queueing wait
        # included). Feeding it to the EWMA directly makes the gate
        # believe service cost grew with load and shed nearly
        # everything. The inter-departure minimum must keep the
        # estimate at the true drain cost.
        clock = FakeClock()
        gate = gated(clock, deadline_seconds=1.0)
        gate.try_admit(10)
        for waited in range(1, 11):
            clock.advance(0.05)  # departures spaced by true service time
            gate.release(1, service_seconds=0.05 * waited)
        assert gate.service_seconds_estimate == pytest.approx(0.05, rel=0.01)

    def test_inflated_estimate_recovers_at_idle(self):
        # Death-spiral regression: a transiently inflated estimate must
        # not shed forever. Idle admits keep observations flowing, and
        # each one decays the EWMA back toward the true cost.
        clock = FakeClock()
        gate = gated(clock, deadline_seconds=0.1,
                     initial_service_seconds=50.0)
        for _ in range(40):
            assert gate.try_admit(1) is None  # idle exemption
            clock.advance(0.01)
            gate.release(1, service_seconds=0.01)
        assert gate.service_seconds_estimate < 0.05
        # ...at which point depth-2 admissions fit the deadline again.
        assert gate.try_admit(1) is None
        assert gate.try_admit(1) is None
        assert gate.shed == 0


def build_pir2_pair(gates):
    servers = []
    transports = []
    for party in (0, 1):
        db = BlobDatabase(9, 96)
        index = KeywordIndex(db, probes=2, salt=SALT)
        for i in range(20):
            index.put(f"site{i}.com/page", f"content-{i}".encode())
        server = ZltpServer(db, modes=[MODE_PIR2], party=party, salt=SALT,
                            probes=2, admission=gates[party])
        client_end = SimLink().connect(server)
        servers.append(server)
        transports.append(client_end)
    return servers, transports


class TestSessionIntegration:
    def test_shed_get_keeps_session_usable(self):
        # Occupy both gates so the next admit decision runs busy and
        # trips the depth cap; the client must see OverloadError, and
        # after the backlog drains the *same* session must serve again.
        gates = [AdmissionController(deadline_seconds=10.0,
                                     max_queue_depth=1) for _ in range(2)]
        _, transports = build_pir2_pair(gates)
        client = connect_client(transports)
        for gate in gates:
            gate.try_admit(1)
        with pytest.raises(OverloadError, match="overload|queue depth"):
            client.get_slot(3)
        for gate in gates:
            gate.release(1)
        assert client.get("site3.com/page") == b"content-3"
        client.close()
        assert all(gate.shed == 1 for gate in gates)

    def test_batch_shed_preserves_reply_pairing(self):
        # A shed pipelined run answers *every* request with its own
        # error frame, so the streams stay aligned and the client can
        # drain them all before raising.
        gates = [AdmissionController(deadline_seconds=10.0,
                                     max_queue_depth=1) for _ in range(2)]
        _, transports = build_pir2_pair(gates)
        client = connect_client(transports)
        for gate in gates:
            gate.try_admit(1)
        with pytest.raises(OverloadError, match="shed 6 of 6"):
            client.get_slots([1, 2, 3])
        for gate in gates:
            gate.release(1)
        assert len(client.get_slots([1, 2, 3])) == 3
        client.close()

    def test_eventloop_batch_path_sheds_whole_run(self):
        # The batched (handle_frames) path both serving kinds share:
        # a shed run returns one overload error per pending GET.
        db = BlobDatabase(8, 64)
        gate = AdmissionController(deadline_seconds=10.0, max_queue_depth=1)
        server = ZltpServer(db, modes=[MODE_PIR2], party=0, salt=SALT,
                            probes=2, admission=gate)
        session = server.create_session()
        hello = session.handle(
            msg.ClientHello(supported_modes=[MODE_PIR2]))[0]
        assert isinstance(hello, msg.ServerHello)
        gate.try_admit(1)
        frames = [msg.encode_message(m)
                  for m in (msg.GetRequest(request_id=7, payload=b"\x00" * 32),
                            msg.GetRequest(request_id=8, payload=b"\x00" * 32))]
        replies = [msg.decode_message(raw)
                   for raw in session.handle_frames(frames)]
        assert len(replies) == 2
        assert all(isinstance(r, msg.ErrorMessage) and r.code == "overload"
                   for r in replies)
        assert not session.closed
        assert gate.shed == 2

    def test_load_snapshot_reaches_capability_announce(self):
        db = BlobDatabase(8, 64)
        gate = AdmissionController()
        gate.try_admit(2)
        server = ZltpServer(db, modes=[MODE_PIR2], party=0, salt=SALT,
                            probes=2, admission=gate)
        load = server.capability_snapshot()["load"]
        assert load["admission_queue_depth"] == 2.0


def _get_frame():
    key0, _ = gen_dpf(3, 8)
    return msg.encode_message(
        msg.GetRequest(request_id=0, payload=key0.to_bytes()))


def _hello_frame():
    return msg.encode_message(msg.ClientHello(supported_modes=[MODE_PIR2]))


def _failing_server(gate):
    server = ZltpServer(BlobDatabase(8, 64), modes=[MODE_PIR2], party=0,
                        salt=SALT, probes=2, admission=gate)

    def broken_answer_batch(payloads):
        raise ValueError("handler bug")

    server.mode_server(MODE_PIR2).answer_batch = broken_answer_batch
    return server


class TestGateBalance:
    """Every admit is released, whatever the admitted batch did."""

    def test_failed_batch_releases_gate(self):
        gate = AdmissionController(deadline_seconds=10.0, max_queue_depth=2)
        server = _failing_server(gate)
        # More failures than the gate's depth cap: a leaked admit per
        # failure would leave it busy, and the next one would be shed.
        for _ in range(3):
            session = server.create_session()
            session.handle_frames([_hello_frame()])
            with pytest.raises(ValueError):
                session.handle_frames([_get_frame()])
            assert gate.queue_depth == 0
        assert gate.shed == 0

    def test_tcp_core_replies_internal_and_gate_stays_idle(self):
        gate = AdmissionController(deadline_seconds=10.0, max_queue_depth=1)
        listener = create_tcp_server("eventloop", _failing_server(gate))
        try:
            for _ in range(2):
                transport = connect_tcp(*listener.address)
                transport.send_frame(_hello_frame())
                assert isinstance(msg.decode_message(transport.recv_frame()),
                                  msg.ServerHello)
                transport.send_frame(_get_frame())
                reply = msg.decode_message(transport.recv_frame())
                assert isinstance(reply, msg.ErrorMessage)
                assert reply.code == "internal"
                transport.close()
                assert gate.queue_depth == 0
            assert gate.shed == 0
        finally:
            listener.stop()


class TestReactorAdmissionGap:
    """The reactor's gate sees the queue concurrent clients form.

    A reactor tick reads every ready session before it answers any, and
    the gate admits the tick's runs in arrival order, so a run admitted
    behind another of the same tick sees an in-flight count above 0.
    Answering one session at a time again would put it back to 0 at
    every admit decision (DESIGN.md, *The reactor's tick*).
    """

    CLIENTS = 6
    GETS = 15

    def test_reactor_gate_sees_concurrent_load(self):
        db = BlobDatabase(8, 64)
        gate = AdmissionController(deadline_seconds=60.0,
                                   max_queue_depth=1000)
        server = ZltpServer(db, modes=[MODE_ENCLAVE], salt=SALT, probes=1,
                            admission=gate, rng=np.random.default_rng(0))
        in_flight_at_admit = []
        admit = gate.try_admit

        def spying_admit(n=1):
            in_flight_at_admit.append(gate.queue_depth)
            return admit(n)

        gate.try_admit = spying_admit
        listener = create_tcp_server("eventloop", server)
        start = threading.Barrier(self.CLIENTS)
        errors = []

        def user():
            try:
                client = connect_client(
                    [connect_tcp(*listener.address)],
                    supported_modes=[MODE_ENCLAVE])
                start.wait()
                for slot in range(self.GETS):
                    client.get_slot(slot)
                client.close()
            except Exception as exc:  # surfaced below, not as an xfail
                errors.append(exc)

        users = [threading.Thread(target=user) for _ in range(self.CLIENTS)]
        try:
            for thread in users:
                thread.start()
            for thread in users:
                thread.join()
        finally:
            listener.stop()
        # Harness failures must not pass as the expected failure.
        if errors or len(in_flight_at_admit) != self.CLIENTS * self.GETS:
            raise RuntimeError(f"harness broke: {errors!r}, "
                               f"{len(in_flight_at_admit)} admissions")
        assert max(in_flight_at_admit) > 0


class TestTick:
    """``ZltpServer.tick``: the tick's runs are admitted in arrival order
    before any is answered, and each session's replies are yielded
    before the next run is answered."""

    def _server(self, gate):
        return ZltpServer(BlobDatabase(8, 64), modes=[MODE_PIR2], party=0,
                          salt=SALT, probes=2, admission=gate)

    def _ready_session(self, server):
        session = server.create_session()
        session.receive(encode_frames([_hello_frame()]))
        return session

    def _burst(self, n):
        return encode_frames([_get_frame()] * n)

    def test_a_run_behind_another_of_the_tick_is_shed(self):
        gate = AdmissionController(deadline_seconds=60.0, max_queue_depth=3)
        server = self._server(gate)
        first, second = (self._ready_session(server) for _ in range(2))
        served = list(server.tick([(first, self._burst(2)),
                                   (second, self._burst(2))]))
        assert [index for index, _ in served] == [0, 1]
        answered = [msg.decode_message(frame)
                    for frame in FrameDecoder().feed(served[0][1])]
        shed = [msg.decode_message(frame)
                for frame in FrameDecoder().feed(served[1][1])]
        assert all(isinstance(reply, msg.GetResponse) for reply in answered)
        assert len(answered) == 2
        # Depth 2 ahead of it: 2 + 2 > 3, so one overload per GET.
        assert [(reply.code, "queue depth 2+2" in reply.detail)
                for reply in shed] == [("overload", True)] * 2
        assert not second.closed and second.mode == MODE_PIR2
        assert (gate.admitted, gate.shed, gate.queue_depth) == (2, 2, 0)

    def test_each_run_is_answered_after_the_one_before_it_is_yielded(self):
        gate = AdmissionController(deadline_seconds=60.0,
                                   max_queue_depth=100)
        server = self._server(gate)
        sessions = [self._ready_session(server) for _ in range(3)]
        mode = server.mode_server(MODE_PIR2)
        answered = []
        answer_batch = mode.answer_batch

        def spy(payloads):
            answered.append(len(payloads))
            return answer_batch(payloads)

        mode.answer_batch = spy
        ticks = server.tick([(session, self._burst(1))
                             for session in sessions])
        depths = []
        for index, _replies in ticks:
            # Every run was admitted before the first answer, and the
            # runs not yet answered are still in flight.
            assert len(answered) == index + 1
            depths.append(gate.queue_depth)
        assert depths == [2, 1, 0]

    def test_an_abandoned_tick_releases_its_admits(self):
        gate = AdmissionController(deadline_seconds=60.0,
                                   max_queue_depth=100)
        server = self._server(gate)
        sessions = [self._ready_session(server) for _ in range(3)]
        ticks = server.tick([(session, self._burst(2))
                             for session in sessions])
        next(ticks)
        assert gate.queue_depth == 4
        ticks.close()
        assert gate.queue_depth == 0
        assert gate.admitted == 6

    def _replies(self, data):
        return [msg.decode_message(frame)
                for frame in FrameDecoder().feed(data)]

    def _gets(self, *request_ids):
        key0, _ = gen_dpf(3, 8)
        return encode_frames([
            msg.encode_message(msg.GetRequest(request_id=request_id,
                                              payload=key0.to_bytes()))
            for request_id in request_ids])

    def _gate(self):
        return AdmissionController(deadline_seconds=60.0,
                                   max_queue_depth=100)

    def test_frames_before_a_run_reply_ahead_of_its_answers(self):
        gate = self._gate()
        server = self._server(gate)
        session = server.create_session()
        data = encode_frames([_hello_frame()]) + self._gets(4, 5)
        [(index, replies)] = server.tick([(session, data)])
        replies = self._replies(replies)
        assert index == 0
        assert isinstance(replies[0], msg.ServerHello)
        assert [(type(reply), reply.request_id) for reply in replies[1:]] \
            == [(msg.GetResponse, 4), (msg.GetResponse, 5)]
        assert (gate.admitted, gate.queue_depth) == (2, 0)

    def test_frames_after_a_run_are_handled_after_its_answers(self):
        gate = self._gate()
        server = self._server(gate)
        session = self._ready_session(server)
        data = self._gets(1, 2) + encode_frames([b"\xff garbage"]) \
            + self._gets(3)
        [(_index, replies)] = server.tick([(session, data)])
        replies = self._replies(replies)
        # The run is answered first; the bad message after it closes the
        # session, so the GET behind that is never admitted.
        assert [type(reply) for reply in replies] == \
            [msg.GetResponse, msg.GetResponse, msg.ErrorMessage]
        assert replies[2].code == "bad-message"
        assert session.closed
        assert (gate.admitted, gate.queue_depth) == (2, 0)

    def test_a_bad_frame_closes_only_its_session(self):
        gate = self._gate()
        server = self._server(gate)
        broken, healthy = (self._ready_session(server) for _ in range(2))
        served = dict(server.tick([
            (broken, struct.pack("<I", MAX_FRAME_BYTES + 1)),
            (healthy, self._burst(2)),
        ]))
        [error] = self._replies(served[0])
        assert (error.code, broken.closed) == ("bad-frame", True)
        assert [type(reply) for reply in self._replies(served[1])] == \
            [msg.GetResponse] * 2
        assert not healthy.closed
        assert (gate.admitted, gate.queue_depth) == (2, 0)

    def test_a_partial_frame_waits_without_an_admit(self):
        gate = self._gate()
        server = self._server(gate)
        session = self._ready_session(server)
        data = self._gets(9)
        cut = len(data) // 2
        assert list(server.tick([(session, data[:cut])])) == [(0, b"")]
        assert gate.admitted == 0
        [(_index, replies)] = server.tick([(session, data[cut:])])
        [reply] = self._replies(replies)
        assert (type(reply), reply.request_id) == (msg.GetResponse, 9)
        assert (gate.admitted, gate.queue_depth) == (1, 0)

    def test_a_closed_session_takes_no_admit(self):
        gate = self._gate()
        server = self._server(gate)
        gone, live = (self._ready_session(server) for _ in range(2))
        gone.close()
        served = list(server.tick([(gone, self._burst(3)),
                                   (live, self._burst(1))]))
        assert served[0] == (0, b"")
        assert [type(reply) for reply in self._replies(served[1][1])] == \
            [msg.GetResponse]
        assert (gate.admitted, gate.shed, gate.queue_depth) == (1, 0, 0)

    def test_gets_before_the_hello_form_no_run(self):
        gate = self._gate()
        server = self._server(gate)
        session = server.create_session()
        [(_index, replies)] = server.tick([(session, self._burst(2))])
        [error] = self._replies(replies)
        assert error.code == "protocol" and "expected ClientHello" in \
            error.detail
        assert session.closed
        assert (gate.admitted, gate.queue_depth) == (0, 0)

    def test_a_failing_batch_replies_internal_and_releases(self):
        gate = self._gate()
        server = _failing_server(gate)
        sessions = [self._ready_session(server) for _ in range(2)]
        served = list(server.tick([(session, self._burst(2))
                                   for session in sessions]))
        for _index, replies in served:
            [error] = self._replies(replies)
            assert error.code == "internal"
        assert all(session.closed for session in sessions)
        assert (gate.admitted, gate.queue_depth) == (4, 0)

    def test_a_malformed_query_closes_only_its_session(self):
        gate = self._gate()
        server = self._server(gate)
        bad, good = (self._ready_session(server) for _ in range(2))
        malformed = encode_frames([msg.encode_message(
            msg.GetRequest(request_id=1, payload=b"\x00" * 5))])
        served = dict(server.tick([(bad, malformed),
                                   (good, self._gets(6, 7))]))
        [error] = self._replies(served[0])
        assert (error.code, bad.closed) == ("protocol", True)
        assert [reply.request_id for reply in self._replies(served[1])] == \
            [6, 7]
        assert not good.closed
        assert (gate.admitted, gate.queue_depth) == (3, 0)

    def test_without_a_gate_every_run_is_answered(self):
        server = self._server(None)
        sessions = [self._ready_session(server) for _ in range(3)]
        served = list(server.tick([(session, self._burst(2))
                                   for session in sessions]))
        assert [index for index, _ in served] == [0, 1, 2]
        for _index, replies in served:
            assert [type(reply) for reply in self._replies(replies)] == \
                [msg.GetResponse] * 2
        assert server.gets_served == 6

    def test_receive_is_a_one_session_tick(self):
        data = self._gets(2, 3)
        by_receive = self._server(self._gate())
        by_tick = self._server(self._gate())
        received = self._ready_session(by_receive).receive(data)
        [(_index, ticked)] = by_tick.tick([(self._ready_session(by_tick),
                                            data)])
        assert received == ticked
        assert by_receive.gets_served == by_tick.gets_served == 2
