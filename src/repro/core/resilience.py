"""Transport-layer resilience: retries, deadlines, reconnection, failover.

The paper's deployment story (§4, Table 2) is a fleet of hundreds of
shard servers per party, where individual server loss is routine. The
browsing layer already fails over between peered CDNs (§3.5); this module
adds the layer *below* it, so one dropped TCP connection or one lost
frame no longer kills a ZLTP session:

* :class:`RetryPolicy` — a deterministic, budget-capped backoff schedule.
  Jitter comes from a seeded ``numpy`` generator, so chaos tests replay
  the exact same schedule run after run.
* :class:`Deadline` — a per-request wall-clock budget; expiry raises the
  typed :class:`~repro.errors.DeadlineError` instead of blocking forever.
* :class:`EndpointPool` — rotates over candidate dial functions (primary
  first), which is how a pir2 endpoint pair fails over to a replica of
  the same logical party server.
* :class:`ReconnectingTransport` — wraps any dialled transport and
  transparently re-establishes the session when it fails, re-running the
  protocol handshake (via a client-installed ``on_reconnect`` hook) and
  re-sending every unanswered request frame.

Why retries do not leak (the zero-leakage argument, also in DESIGN.md):

1. Retries are triggered **only by public transport events** — a raised
   :class:`~repro.errors.TransportError` from send/recv, which an
   on-path observer sees anyway (the connection died). No retry decision
   ever reads a client secret.
2. Replays are **shape-preserving**: the journal stores the exact frame
   bytes that were sent, and reconnection re-sends them verbatim. Every
   ZLTP request frame is already fixed-size for a given universe, so a
   replayed session is byte-for-byte the prefix of a fresh session plus
   the same fixed-size frames — the adversary learns only "a client
   reconnected", never *what* it was fetching.
3. Backoff timing depends on the attempt number and the seeded jitter
   stream, never on request contents.

The journal exploits ZLTP's strict 1:1 request/response pairing: every
``send_frame`` after session establishment appends the frame, every
successful ``recv_frame`` retires the oldest one. The set of unanswered
frames is therefore exactly what must be replayed after a reconnect.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Any, Callable, Deque, Iterator, List, Optional, Sequence

import numpy as np

from repro.errors import DeadlineError, TransportError
from repro.obs.logs import get_logger
from repro.obs.metrics import record_failover, record_reconnect, record_retry
from repro.obs.trace import span

_log = get_logger(__name__)


class RetryPolicy:
    """Deterministic jittered exponential backoff with hard budgets.

    The delay before retry ``k`` (0-based) is::

        min(max_delay, base_delay * multiplier**k) * (1 + jitter * u_k)

    where ``u_k`` is drawn uniformly from [0, 1) off the policy's rng.
    With a seeded generator the whole schedule is reproducible — the
    property the chaos tests assert — and two policies built from
    equally-seeded generators produce identical schedules.

    Budgets are hard caps: at most ``max_attempts`` retries, and the
    *cumulative* planned delay never exceeds ``budget_seconds`` (the
    final delay is truncated to fit, after which the schedule ends).
    """

    def __init__(self, max_attempts: int = 4, base_delay: float = 0.05,
                 multiplier: float = 2.0, max_delay: float = 2.0,
                 jitter: float = 0.1,
                 budget_seconds: Optional[float] = None,
                 rng: Optional[np.random.Generator] = None,
                 sleep: Callable[[float], None] = time.sleep):
        if max_attempts < 0:
            raise TransportError("max_attempts must be >= 0")
        if base_delay < 0 or max_delay < 0 or multiplier < 1 or jitter < 0:
            raise TransportError("backoff parameters must be non-negative "
                                 "(and multiplier >= 1)")
        self.max_attempts = max_attempts
        self.base_delay = base_delay
        self.multiplier = multiplier
        self.max_delay = max_delay
        self.jitter = jitter
        self.budget_seconds = budget_seconds
        self._rng = rng if rng is not None else np.random.default_rng()
        self._sleep = sleep

    def delays(self) -> Iterator[float]:
        """Yield the backoff schedule, consuming the policy's rng.

        Stops after ``max_attempts`` delays or when the cumulative delay
        budget is exhausted, whichever comes first.
        """
        spent = 0.0
        for attempt in range(self.max_attempts):
            delay = min(self.max_delay,
                        self.base_delay * self.multiplier ** attempt)
            if self.jitter > 0:
                delay *= 1.0 + self.jitter * float(self._rng.random())
            if self.budget_seconds is not None:
                if spent >= self.budget_seconds:
                    return
                delay = min(delay, self.budget_seconds - spent)
            spent += delay
            yield delay

    def schedule(self) -> List[float]:
        """The full schedule as a list (unit tests assert determinism)."""
        return list(self.delays())

    def wait(self, delay: float, deadline: Optional["Deadline"] = None) -> None:
        """Sleep for ``delay`` seconds, truncated to the deadline."""
        if deadline is not None:
            delay = min(delay, max(0.0, deadline.remaining()))
        if delay > 0:
            self._sleep(delay)


class Deadline:
    """A per-request wall-clock budget.

    ``Deadline.start(0.5)`` gives half a second; :meth:`check` raises
    :class:`~repro.errors.DeadlineError` once it is spent. ``None``
    deadlines are represented by the caller simply not creating one.
    """

    def __init__(self, expires_at: float,
                 clock: Callable[[], float] = time.monotonic):
        self._expires_at = expires_at
        self._clock = clock

    @classmethod
    def start(cls, seconds: float,
              clock: Callable[[], float] = time.monotonic) -> "Deadline":
        """A deadline ``seconds`` from now."""
        if seconds <= 0:
            raise DeadlineError(f"deadline must be positive, got {seconds}")
        return cls(clock() + seconds, clock=clock)

    def remaining(self) -> float:
        """Seconds left (negative once expired)."""
        return self._expires_at - self._clock()

    @property
    def expired(self) -> bool:
        """Whether the budget is spent."""
        return self.remaining() <= 0

    def check(self, label: str = "request") -> None:
        """Raise :class:`~repro.errors.DeadlineError` if expired."""
        if self.expired:
            raise DeadlineError(f"{label} deadline expired")


class EndpointPool:
    """Rotates over candidate dial functions: primary first, then replicas.

    Each candidate is a zero-argument callable returning a connected
    transport (e.g. ``lambda: connect_tcp(host, port)``). A successful
    dial pins the pool to that candidate until it fails, so a client
    that failed over keeps using the replica instead of hammering the
    dead primary on every reconnect.

    A pool built from discovery additionally carries a ``refresh`` hook:
    when every current candidate is dead, the hook is asked — once per
    :meth:`dial` call — for a replacement candidate list (a re-resolve
    against the directory), so endpoints announced *after* the pool was
    built still heal it. The once-per-dial bound matters: the retry
    policy driving repeated ``dial`` calls is what paces re-resolution,
    so a dead deployment costs one directory round-trip per backoff step,
    not an unbounded resolve loop.
    """

    def __init__(self, dials: Sequence[Callable[[], Any]], name: str = "pool",
                 refresh: Optional[
                     Callable[[], Sequence[Callable[[], Any]]]] = None):
        if not dials:
            raise TransportError("endpoint pool needs at least one candidate")
        self._dials = list(dials)
        self._index = 0
        self.name = name
        self.refresh = refresh
        self.failovers = 0
        self.refreshes = 0

    def __len__(self) -> int:
        return len(self._dials)

    def _dial_candidates(self) -> Any:
        """One pass over the current candidate list; returns a transport
        or raises the last candidate's TransportError."""
        last_error: Optional[Exception] = None
        for offset in range(len(self._dials)):
            index = (self._index + offset) % len(self._dials)
            try:
                transport = self._dials[index]()
            except TransportError as exc:
                last_error = exc
                continue
            if index != self._index:
                self.failovers += 1
                record_failover("transport")
                _log.info("endpoint failover", extra={
                    "pool": self.name, "endpoint": index})
            self._index = index
            return transport
        raise TransportError(
            f"all {len(self._dials)} endpoints of {self.name!r} failed: "
            f"{last_error}"
        ) from last_error

    def dial(self) -> Any:
        """Connect to the first candidate that answers, starting from the
        last known-good one.

        When every candidate fails and a ``refresh`` hook is installed,
        the hook supplies a replacement candidate list (discovery
        re-resolve) and the pass runs once more over it.

        Raises:
            TransportError: when every candidate fails (and the refresh
                hook, if any, produced nothing new that answers).
        """
        try:
            return self._dial_candidates()
        except TransportError as exc:
            if self.refresh is None:
                raise
            replacements = list(self.refresh() or [])
            if not replacements:
                raise
            self.refreshes += 1
            self.failovers += 1
            record_failover("discovery")
            _log.info("pool exhausted; candidates refreshed via discovery",
                      extra={"pool": self.name,
                             "candidates": len(replacements)})
            self._dials = replacements
            self._index = 0
            try:
                return self._dial_candidates()
            except TransportError as refreshed_exc:
                raise TransportError(
                    f"pool {self.name!r} failed even after a discovery "
                    f"refresh: {refreshed_exc}"
                ) from exc


def send_burst(transport: Any, payloads: Sequence[bytes]) -> None:
    """``transport.send_frames(payloads)`` — one write per burst — or frame
    by frame on a duck-typed transport that only has ``send_frame``."""
    send_frames = getattr(transport, "send_frames", None)
    if send_frames is not None:
        send_frames(payloads)
        return
    for payload in payloads:
        transport.send_frame(payload)


class ReconnectingTransport:
    """A transport wrapper that survives connection loss.

    Wraps a ``dial`` callable (or an :class:`EndpointPool`) producing
    connected transports. Until :meth:`mark_established` is called,
    frames pass straight through — the protocol handshake is a stateful
    dialogue the client owns, so mid-handshake failures propagate to it.
    After establishment the wrapper journals every sent frame, retires
    one per received frame (ZLTP's 1:1 pairing), and on any transport
    failure: re-dials per the retry policy, runs the client-installed
    ``on_reconnect`` hook (which re-validates the hello against the
    negotiated session), and re-sends every unanswered frame verbatim.
    """

    def __init__(self, dial: Callable[[], Any],
                 policy: Optional[RetryPolicy] = None,
                 op_deadline_seconds: Optional[float] = None,
                 name: str = "reconnecting"):
        """Create the wrapper; the first dial happens lazily.

        Args:
            dial: zero-argument callable returning a connected transport
                (an :class:`EndpointPool`'s ``.dial`` for failover).
            policy: backoff schedule per failed operation; a default
                policy if omitted. Each operation's recovery consumes a
                fresh schedule.
            op_deadline_seconds: per-operation deadline covering the
                whole retry loop of one send/recv (None = no deadline).
            name: label for logs and spans (public).
        """
        self._dial = dial
        self._policy = policy if policy is not None else RetryPolicy()
        self._op_deadline_seconds = op_deadline_seconds
        self.name = name
        #: Client-installed hook run on every re-dialled raw transport
        #: before the journal replay (re-runs the hello exchange).
        self.on_reconnect: Optional[Callable[[Any], None]] = None
        self._raw: Optional[Any] = None
        self._unacked: Deque[bytes] = deque()
        self._established = False
        self._closed = False
        self._retired_sent = 0
        self._retired_received = 0
        self.reconnects = 0
        self.retries = 0
        self.frames_replayed = 0

    # ------------------------------------------------------------------
    # Session lifecycle
    # ------------------------------------------------------------------

    def mark_established(self) -> None:
        """Switch from handshake passthrough to journaled resilience.

        Called by the client once the hello (and setup) exchange is
        done; from here on every sent frame is a replayable request.
        """
        self._established = True
        self._unacked.clear()

    @property
    def established(self) -> bool:
        """Whether the journaled-resilience phase is active."""
        return self._established

    @property
    def unacked_frames(self) -> int:
        """Request frames sent but not yet answered."""
        return len(self._unacked)

    def _ensure_raw(self) -> Any:
        if self._closed:
            raise TransportError(f"transport {self.name!r} is closed")
        if self._raw is None:
            self._raw = self._dial_with_retries()
        return self._raw

    def _dial_with_retries(self) -> Any:
        deadline = self._op_deadline()
        try:
            return self._dial()
        except TransportError as exc:
            last = exc
        for delay in self._policy.delays():
            if deadline is not None and deadline.expired:
                break
            self._policy.wait(delay, deadline)
            self.retries += 1
            record_retry("transport")
            try:
                return self._dial()
            except TransportError as exc:
                last = exc
        raise last

    def _op_deadline(self) -> Optional[Deadline]:
        if self._op_deadline_seconds is None:
            return None
        return Deadline.start(self._op_deadline_seconds)

    # ------------------------------------------------------------------
    # The transport surface
    # ------------------------------------------------------------------

    def send_frame(self, payload: bytes) -> None:
        """Send one frame, reconnecting and replaying on failure."""
        self.send_frames([payload])

    def send_frames(self, payloads: Sequence[bytes]) -> None:
        """Send a burst as one write; the journal still records it frame
        by frame, so replay and acknowledgement stay per request."""
        raw = self._ensure_raw()
        if not self._established:
            send_burst(raw, payloads)
            return
        self._unacked.extend(payloads)
        try:
            send_burst(raw, payloads)
        except TransportError as exc:
            # Recovery replays the whole journal — including the frames
            # just appended — so a successful reconnect IS the send.
            self._recover(exc)

    def try_send_frame(self, payload: bytes) -> bool:
        """Best-effort send with no retry and no journaling.

        Used for goodbye-type frames where reconnecting just to say Bye
        would be absurd. Returns False instead of raising.
        """
        if self._closed or self._raw is None:
            return False
        try:
            self._raw.send_frame(payload)
            return True
        except TransportError:
            return False

    def recv_frame(self) -> bytes:
        """Receive one frame, reconnecting and replaying on failure."""
        raw = self._ensure_raw()
        if not self._established:
            return raw.recv_frame()
        deadline = self._op_deadline()
        while True:
            try:
                frame = self._raw.recv_frame()
            except TransportError as exc:
                self._recover(exc, deadline=deadline)
                continue
            if self._unacked:
                self._unacked.popleft()
            return frame

    def close(self) -> None:
        """Close the underlying transport; further operations raise."""
        self._closed = True
        if self._raw is not None:
            self._retire_raw()

    @property
    def bytes_sent(self) -> int:
        """Total framed bytes sent across every incarnation."""
        current = self._raw.bytes_sent if self._raw is not None else 0
        return self._retired_sent + current

    @property
    def bytes_received(self) -> int:
        """Total framed bytes received across every incarnation."""
        current = self._raw.bytes_received if self._raw is not None else 0
        return self._retired_received + current

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------

    def _retire_raw(self) -> None:
        raw, self._raw = self._raw, None
        if raw is None:
            return
        self._retired_sent += raw.bytes_sent
        self._retired_received += raw.bytes_received
        try:
            raw.close()
        except TransportError:
            pass

    def _recover(self, cause: TransportError,
                 deadline: Optional[Deadline] = None) -> None:
        """Re-dial, re-handshake, and replay the journal, with backoff.

        Raises the last failure (or :class:`~repro.errors.DeadlineError`)
        when the policy's budget runs out. A protocol-level rejection
        from ``on_reconnect`` (the replica announced different geometry)
        propagates immediately — retrying cannot fix that.
        """
        if deadline is None:
            deadline = self._op_deadline()
        self._retire_raw()
        last: Exception = cause
        _log.warning("transport failed; reconnecting", extra={
            "transport": self.name, "unacked": len(self._unacked)})
        # The failed operation is being re-attempted: even an immediately
        # successful reconnect counts as one retry.
        self.retries += 1
        record_retry("transport")
        if self._attempt_reconnect():
            return
        for delay in self._policy.delays():
            if deadline is not None and deadline.expired:
                record_reconnect("deadline")
                raise DeadlineError(
                    f"deadline expired reconnecting {self.name!r}"
                ) from last
            self._policy.wait(delay, deadline)
            self.retries += 1
            record_retry("transport")
            if self._attempt_reconnect():
                return
        record_reconnect("failed")
        raise TransportError(
            f"could not re-establish {self.name!r} after "
            f"{self._policy.max_attempts} retries: {last}"
        ) from last

    def _attempt_reconnect(self) -> bool:
        """One reconnect attempt: dial, re-handshake, replay. False on
        transport failure (retryable); protocol errors propagate."""
        with span("transport.reconnect", transport=self.name,
                  unacked=len(self._unacked)):
            raw = None
            try:
                raw = self._dial()
                if self.on_reconnect is not None:
                    self.on_reconnect(raw)
                # Shape-preserving replay: the exact bytes of every
                # unanswered request, in order, as one burst again.
                send_burst(raw, list(self._unacked))
            except TransportError:
                if raw is not None:
                    try:
                        raw.close()
                    except TransportError:
                        pass
                return False
        self._raw = raw
        self.reconnects += 1
        self.frames_replayed += len(self._unacked)
        record_reconnect("ok")
        _log.info("transport re-established", extra={
            "transport": self.name, "replayed": len(self._unacked)})
        return True


def resilient_pool(pool: EndpointPool,
                   policy: Optional[RetryPolicy] = None,
                   op_deadline_seconds: Optional[float] = None,
                   name: Optional[str] = None) -> ReconnectingTransport:
    """A :class:`ReconnectingTransport` over an existing pool.

    The discovery layer builds pools whose candidates came from a
    capability resolve (and whose ``refresh`` hook re-resolves); this
    wraps one with the same journal-replay resilience ``resilient``
    gives hand-built dial lists.
    """
    transport = ReconnectingTransport(
        pool.dial, policy=policy,
        op_deadline_seconds=op_deadline_seconds,
        name=name if name is not None else pool.name)
    transport.pool = pool
    return transport


def resilient(dials: Sequence[Callable[[], Any]],
              policy: Optional[RetryPolicy] = None,
              op_deadline_seconds: Optional[float] = None,
              name: str = "resilient") -> ReconnectingTransport:
    """A :class:`ReconnectingTransport` over one or more dial candidates.

    With several candidates the transport fails over through an
    :class:`EndpointPool`; with one it simply reconnects to it.
    """
    if len(dials) == 1:
        transport = ReconnectingTransport(
            dials[0], policy=policy,
            op_deadline_seconds=op_deadline_seconds, name=name)
        transport.pool = None
        return transport
    pool = EndpointPool(dials, name=name)
    transport = ReconnectingTransport(
        pool.dial, policy=policy,
        op_deadline_seconds=op_deadline_seconds, name=name)
    transport.pool = pool
    return transport


__all__ = [
    "RetryPolicy",
    "Deadline",
    "EndpointPool",
    "ReconnectingTransport",
    "resilient",
    "resilient_pool",
    "send_burst",
]
