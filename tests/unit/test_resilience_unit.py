"""Unit tests for the resilience primitives.

Covers :mod:`repro.core.resilience` (deterministic backoff schedules,
deadlines, endpoint pools, and the journaling reconnect wrapper — all
against scripted fake transports, no sockets). The chaos tests that run
real protocol sessions through these pieces, with faults scripted on the
simulated network path, live in ``tests/integration/test_resilience.py``.
"""

from collections import deque

import numpy as np
import pytest

from repro.core.resilience import (
    Deadline,
    EndpointPool,
    ReconnectingTransport,
    RetryPolicy,
)
from repro.errors import DeadlineError, TransportError


class FakeClock:
    """A manually advanced monotonic clock."""

    def __init__(self, start=0.0):
        self.now = start

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class ScriptedTransport:
    """A fake transport: records sends, serves scripted recvs.

    ``fail_sends`` / ``fail_recvs`` make the next N operations raise
    :class:`TransportError` (then succeed), which is how the tests
    script "the connection died mid-operation".
    """

    def __init__(self, name="scripted"):
        self.name = name
        self.sent = []
        self.replies = deque()
        self.fail_sends = 0
        self.fail_recvs = 0
        self.closed = False
        self._bytes_sent = 0
        self._bytes_received = 0

    def send_frame(self, payload):
        if self.fail_sends > 0:
            self.fail_sends -= 1
            raise TransportError("scripted send failure")
        if self.closed:
            raise TransportError("closed")
        self.sent.append(payload)
        self._bytes_sent += len(payload) + 4

    def recv_frame(self):
        if self.fail_recvs > 0:
            self.fail_recvs -= 1
            raise TransportError("scripted recv failure")
        if not self.replies:
            raise TransportError("no scripted reply")
        frame = self.replies.popleft()
        self._bytes_received += len(frame) + 4
        return frame

    def close(self):
        self.closed = True

    @property
    def bytes_sent(self):
        return self._bytes_sent

    @property
    def bytes_received(self):
        return self._bytes_received


def no_sleep_policy(**kwargs):
    kwargs.setdefault("max_attempts", 4)
    kwargs.setdefault("jitter", 0.0)
    return RetryPolicy(sleep=lambda s: None, **kwargs)


class TestRetryPolicy:
    def test_equally_seeded_policies_produce_identical_schedules(self):
        one = RetryPolicy(max_attempts=6, rng=np.random.default_rng(7))
        two = RetryPolicy(max_attempts=6, rng=np.random.default_rng(7))
        assert one.schedule() == two.schedule()

    def test_differently_seeded_schedules_differ(self):
        one = RetryPolicy(max_attempts=6, rng=np.random.default_rng(1))
        two = RetryPolicy(max_attempts=6, rng=np.random.default_rng(2))
        assert one.schedule() != two.schedule()

    def test_no_jitter_schedule_is_exact_exponential(self):
        policy = RetryPolicy(max_attempts=4, base_delay=0.05, multiplier=2.0,
                             max_delay=2.0, jitter=0.0)
        assert policy.schedule() == [0.05, 0.1, 0.2, 0.4]

    def test_max_delay_caps_the_exponential(self):
        policy = RetryPolicy(max_attempts=5, base_delay=1.0, multiplier=4.0,
                             max_delay=2.0, jitter=0.0)
        assert policy.schedule() == [1.0, 2.0, 2.0, 2.0, 2.0]

    def test_budget_truncates_final_delay_and_stops(self):
        policy = RetryPolicy(max_attempts=4, base_delay=0.05, multiplier=2.0,
                             jitter=0.0, budget_seconds=0.2)
        # 0.05 + 0.1 spends 0.15; the third delay is truncated to the
        # remaining 0.05; the fourth never happens.
        assert policy.schedule() == pytest.approx([0.05, 0.1, 0.05])

    def test_zero_attempts_means_empty_schedule(self):
        assert RetryPolicy(max_attempts=0).schedule() == []

    def test_jitter_bounded_by_fraction(self):
        policy = RetryPolicy(max_attempts=50, base_delay=0.1, multiplier=1.0,
                             jitter=0.25, rng=np.random.default_rng(3))
        for delay in policy.schedule():
            assert 0.1 <= delay <= 0.1 * 1.25

    def test_invalid_parameters_are_typed_errors(self):
        with pytest.raises(TransportError):
            RetryPolicy(max_attempts=-1)
        with pytest.raises(TransportError):
            RetryPolicy(base_delay=-0.1)
        with pytest.raises(TransportError):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(TransportError):
            RetryPolicy(jitter=-1)

    def test_wait_truncates_to_deadline(self):
        slept = []
        clock = FakeClock()
        policy = RetryPolicy(sleep=slept.append)
        deadline = Deadline.start(0.3, clock=clock)
        policy.wait(1.0, deadline)
        assert slept == [pytest.approx(0.3)]

    def test_wait_skips_zero_delay(self):
        slept = []
        clock = FakeClock()
        policy = RetryPolicy(sleep=slept.append)
        deadline = Deadline.start(0.5, clock=clock)
        clock.advance(1.0)  # expired: nothing left to wait for
        policy.wait(1.0, deadline)
        assert slept == []


class TestDeadline:
    def test_remaining_and_expiry_follow_the_clock(self):
        clock = FakeClock()
        deadline = Deadline.start(2.0, clock=clock)
        assert deadline.remaining() == pytest.approx(2.0)
        assert not deadline.expired
        clock.advance(2.5)
        assert deadline.expired
        assert deadline.remaining() == pytest.approx(-0.5)

    def test_check_raises_typed_error_with_label(self):
        clock = FakeClock()
        deadline = Deadline.start(1.0, clock=clock)
        deadline.check("get_slots")  # fine while time remains
        clock.advance(1.5)
        with pytest.raises(DeadlineError, match="get_slots"):
            deadline.check("get_slots")

    def test_deadline_error_is_a_transport_error(self):
        # Callers that catch TransportError treat expiry as one more
        # public transport event.
        assert issubclass(DeadlineError, TransportError)

    def test_non_positive_budget_rejected(self):
        with pytest.raises(DeadlineError):
            Deadline.start(0)
        with pytest.raises(DeadlineError):
            Deadline.start(-1)


class TestEndpointPool:
    def test_dials_primary_first(self):
        pool = EndpointPool([lambda: "primary", lambda: "replica"])
        assert pool.dial() == "primary"
        assert pool.failovers == 0

    def test_fails_over_and_pins_to_the_replica(self):
        state = {"primary_up": False}

        def primary():
            if not state["primary_up"]:
                raise TransportError("primary down")
            return "primary"

        pool = EndpointPool([primary, lambda: "replica"])
        assert pool.dial() == "replica"
        assert pool.failovers == 1
        # Pinned: the recovered primary is not re-dialled while the
        # replica keeps answering.
        state["primary_up"] = True
        assert pool.dial() == "replica"
        assert pool.failovers == 1

    def test_all_candidates_failing_raises(self):
        def dead():
            raise TransportError("down")

        pool = EndpointPool([dead, dead, dead], name="pair")
        with pytest.raises(TransportError, match="all 3 endpoints"):
            pool.dial()

    def test_empty_pool_rejected(self):
        with pytest.raises(TransportError):
            EndpointPool([])

    def test_all_dead_error_type_and_failover_accounting(self):
        # Every candidate dead: the error must be the typed
        # TransportError (so retry layers treat it as recoverable) and
        # the pool's own counter must reflect the failed rotation.
        def dead():
            raise TransportError("down")

        pool = EndpointPool([dead, dead, dead], name="trio")
        with pytest.raises(TransportError) as err:
            pool.dial()
        assert type(err.value) is TransportError
        assert err.value.__cause__ is not None  # chains the last dial error
        # A failed full rotation records no failover: the pool never
        # moved to a *working* sibling.
        assert pool.failovers == 0
        # A later successful rotation still starts from the pinned index.
        with pytest.raises(TransportError):
            pool.dial()

    def test_pinning_after_the_pinned_endpoint_dies(self):
        # Fail over to replica 1 and pin there; when replica 1 dies the
        # pool must rotate onward (to replica 2, wrapping past the dead
        # primary as needed) and re-pin, counting each move.
        up = {0: False, 1: True, 2: True}

        def make(index):
            def dial():
                if not up[index]:
                    raise TransportError(f"endpoint {index} down")
                return f"transport:{index}"
            return dial

        pool = EndpointPool([make(0), make(1), make(2)])
        assert pool.dial() == "transport:1"
        assert pool.failovers == 1
        up[1] = False
        assert pool.dial() == "transport:2"
        assert pool.failovers == 2
        # Pinned to 2 now; the wrap-around order from 2 is 2 itself.
        assert pool.dial() == "transport:2"
        assert pool.failovers == 2
        # 2 dies, 0 recovered: rotation wraps past dead 1 back to 0.
        up[2] = False
        up[0] = True
        assert pool.dial() == "transport:0"
        assert pool.failovers == 3


class TestReconnectingTransport:
    def make(self, raws, **kwargs):
        """A wrapper over a dial that hands out ``raws`` in order."""
        queue = deque(raws)
        kwargs.setdefault("policy", no_sleep_policy())
        return ReconnectingTransport(lambda: queue.popleft(), **kwargs)

    def test_handshake_passthrough_is_not_journaled(self):
        raw = ScriptedTransport()
        raw.replies.append(b"server-hello")
        transport = self.make([raw])
        transport.send_frame(b"client-hello")
        assert transport.recv_frame() == b"server-hello"
        assert transport.unacked_frames == 0
        assert not transport.established

    def test_journal_appends_on_send_and_retires_on_recv(self):
        raw = ScriptedTransport()
        transport = self.make([raw])
        transport.mark_established()
        transport.send_frame(b"req-1")
        transport.send_frame(b"req-2")
        assert transport.unacked_frames == 2
        raw.replies.extend([b"ans-1", b"ans-2"])
        assert transport.recv_frame() == b"ans-1"
        assert transport.unacked_frames == 1
        assert transport.recv_frame() == b"ans-2"
        assert transport.unacked_frames == 0

    def test_recv_failure_reconnects_and_replays_unanswered_frames(self):
        first, second = ScriptedTransport("first"), ScriptedTransport("second")
        transport = self.make([first, second])
        resumed = []
        transport.on_reconnect = lambda raw: resumed.append(raw)
        transport.mark_established()
        transport.send_frame(b"req-1")
        transport.send_frame(b"req-2")
        first.fail_recvs = 1
        second.replies.extend([b"ans-1", b"ans-2"])
        assert transport.recv_frame() == b"ans-1"
        assert transport.recv_frame() == b"ans-2"
        assert resumed == [second]
        assert second.sent == [b"req-1", b"req-2"]  # verbatim, in order
        assert first.closed
        assert transport.reconnects == 1
        assert transport.retries >= 1
        assert transport.frames_replayed == 2

    def test_burst_is_journaled_frame_by_frame(self):
        first, second = ScriptedTransport("first"), ScriptedTransport("second")
        transport = self.make([first, second])
        transport.mark_established()
        transport.send_frames([b"req-1", b"req-2", b"req-3"])
        assert first.sent == [b"req-1", b"req-2", b"req-3"]
        assert transport.unacked_frames == 3
        first.replies.append(b"ans-1")
        assert transport.recv_frame() == b"ans-1"
        assert transport.unacked_frames == 2
        # The connection dies with two of the burst unanswered: exactly
        # those two are replayed, verbatim, and acknowledged one by one.
        first.fail_recvs = 1
        second.replies.extend([b"ans-2", b"ans-3"])
        assert transport.recv_frame() == b"ans-2"
        assert second.sent == [b"req-2", b"req-3"]
        assert transport.frames_replayed == 2
        assert transport.recv_frame() == b"ans-3"
        assert transport.unacked_frames == 0

    def test_burst_goes_out_as_one_write_when_the_raw_has_one(self):
        class BurstTransport(ScriptedTransport):
            def __init__(self):
                super().__init__()
                self.bursts = []

            def send_frames(self, payloads):
                self.bursts.append(list(payloads))

        raw = BurstTransport()
        transport = self.make([raw])
        transport.mark_established()
        transport.send_frames([b"req-1", b"req-2"])
        transport.send_frame(b"req-3")
        assert raw.bursts == [[b"req-1", b"req-2"], [b"req-3"]]
        assert transport.unacked_frames == 3

    def test_send_failure_recovers_and_replay_covers_the_frame(self):
        first, second = ScriptedTransport(), ScriptedTransport()
        transport = self.make([first, second])
        transport.mark_established()
        first.fail_sends = 1
        transport.send_frame(b"req-1")
        # The failed send was journaled and replayed on the new raw.
        assert second.sent == [b"req-1"]
        assert transport.unacked_frames == 1

    def test_reconnect_failures_consume_the_backoff_budget(self):
        def dead():
            raise TransportError("still down")

        raws = deque([ScriptedTransport()])

        def dial():
            if raws:
                return raws.popleft()
            raise TransportError("redial refused")

        transport = ReconnectingTransport(
            dial, policy=no_sleep_policy(max_attempts=3))
        transport.mark_established()
        transport.send_frame(b"req")
        transport._raw.fail_recvs = 10
        transport._raw.replies.append(b"never")
        with pytest.raises(TransportError, match="could not re-establish"):
            transport.recv_frame()
        # One immediate attempt plus the three scheduled ones.
        assert transport.retries == 4

    def test_protocol_error_from_resume_hook_propagates(self):
        first, second = ScriptedTransport(), ScriptedTransport()
        transport = self.make([first, second])

        def resume(raw):
            from repro.errors import ProtocolError

            raise ProtocolError("replica announced different geometry")

        transport.on_reconnect = resume
        transport.mark_established()
        transport.send_frame(b"req")
        first.fail_recvs = 1
        from repro.errors import ProtocolError

        with pytest.raises(ProtocolError):
            transport.recv_frame()

    def test_dial_retries_then_succeeds(self):
        attempts = {"n": 0}
        raw = ScriptedTransport()

        def flaky_dial():
            attempts["n"] += 1
            if attempts["n"] < 3:
                raise TransportError("connection refused")
            return raw

        transport = ReconnectingTransport(flaky_dial, policy=no_sleep_policy())
        transport.send_frame(b"hello")
        assert raw.sent == [b"hello"]
        assert transport.retries == 2

    def test_dial_exhaustion_raises_last_error(self):
        def dead():
            raise TransportError("port closed")

        transport = ReconnectingTransport(
            dead, policy=no_sleep_policy(max_attempts=2))
        with pytest.raises(TransportError, match="port closed"):
            transport.send_frame(b"hello")

    def test_op_deadline_bounds_the_recovery_loop(self):
        first = ScriptedTransport()

        def dial_once():
            if first.sent is not None and not first.closed:
                return first
            raise TransportError("gone for good")

        policy = RetryPolicy(max_attempts=5, base_delay=0.02, jitter=0.0)
        transport = ReconnectingTransport(dial_once, policy=policy,
                                          op_deadline_seconds=0.03)
        transport.mark_established()
        transport.send_frame(b"req")
        first.fail_recvs = 100
        with pytest.raises(DeadlineError):
            transport.recv_frame()

    def test_try_send_frame_is_best_effort(self):
        raw = ScriptedTransport()
        transport = self.make([raw])
        transport.mark_established()
        transport.send_frame(b"req")
        assert transport.try_send_frame(b"bye") is True
        assert raw.sent == [b"req", b"bye"]
        # Not journaled: a reconnect would not replay the goodbye.
        assert transport.unacked_frames == 1
        raw.fail_sends = 1
        assert transport.try_send_frame(b"bye") is False
        transport.close()
        assert transport.try_send_frame(b"bye") is False

    def test_close_retires_raw_and_further_operations_raise(self):
        raw = ScriptedTransport()
        transport = self.make([raw])
        transport.send_frame(b"hello")
        transport.close()
        assert raw.closed
        with pytest.raises(TransportError):
            transport.send_frame(b"more")

    def test_byte_accounting_spans_incarnations(self):
        first, second = ScriptedTransport(), ScriptedTransport()
        transport = self.make([first, second])
        transport.mark_established()
        transport.send_frame(b"12345678")  # 8 + 4 framed
        first.replies.append(b"abcd")
        assert transport.recv_frame() == b"abcd"
        first.fail_recvs = 1
        transport.send_frame(b"87654321")
        second.replies.append(b"efgh")
        assert transport.recv_frame() == b"efgh"
        # first: 24 sent / 8 received; second: the replay re-sends the
        # unanswered frame (12 more) and receives its 8-byte answer.
        assert transport.bytes_sent == 36
        assert transport.bytes_received == 16

    def test_constructor_keeps_a_given_pool_only(self):
        single = ReconnectingTransport(lambda: ScriptedTransport())
        assert single.pool is None and single.name == "reconnecting"
        def refuse():
            raise TransportError("primary down")

        replica = ScriptedTransport()
        pool = EndpointPool([refuse, lambda: replica], name="pair")
        pair = ReconnectingTransport(pool)
        assert pair.pool is pool and pair.name == "pair"
        pair.send_frame(b"hello")  # the first dial goes through the pool
        assert replica.sent == [b"hello"] and pool.failovers == 1
