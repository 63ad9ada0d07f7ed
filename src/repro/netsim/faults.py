"""Scripted fault injection for chaos-testing real protocol runs.

:class:`FaultyTransport` wraps any transport (in-memory, simnet, or real
TCP) and applies a deterministic :class:`FaultSchedule`: "drop the 3rd
send", "raise on the 5th recv", "delay the 2nd send by 10 ms", "close the
connection before the 4th recv". Because the schedule is indexed by
operation count — not time — a chaos test replays the exact same failure
at the exact same protocol step every run, which is what makes
reconnection tests assertable rather than flaky.

This is the harness half of the resilience story: the recovery machinery
lives in :mod:`repro.core.resilience`; this module only *creates* the
failures that machinery must survive. Random packet loss (rate-based
rather than scripted) lives on :class:`repro.netsim.simnet.NetworkPath`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, Optional, Tuple

from repro.errors import SimulationError, TransportError

#: The fault kinds a schedule may apply.
ACTIONS = ("drop", "error", "close", "delay")


@dataclass(frozen=True)
class FaultRule:
    """One scripted fault: at the ``index``-th ``op``, do ``action``.

    Attributes:
        op: ``"send"``, ``"recv"``, or ``"dial"`` (connection
            establishment, applied by :class:`FaultyDialFactory`; only
            ``"error"`` and ``"delay"`` actions make sense there).
        index: 0-based count of that operation on the wrapped transport.
        action: ``"drop"`` (swallow the frame), ``"error"`` (raise
            :class:`~repro.errors.TransportError`), ``"close"`` (close
            the inner transport, then raise), or ``"delay"``.
        delay_seconds: sleep applied for ``"delay"`` (and, additionally,
            before any other action when non-zero).
    """

    op: str
    index: int
    action: str
    delay_seconds: float = 0.0

    def __post_init__(self):
        if self.op not in ("send", "recv", "dial"):
            raise SimulationError(
                f"fault op must be send/recv/dial, got {self.op!r}")
        if self.action not in ACTIONS:
            raise SimulationError(f"unknown fault action {self.action!r}")
        if self.op == "dial" and self.action not in ("error", "delay"):
            raise SimulationError(
                f"dial faults can only 'error' or 'delay', got {self.action!r}")
        if self.index < 0 or self.delay_seconds < 0:
            raise SimulationError("fault index and delay must be >= 0")


class FaultSchedule:
    """An indexed set of :class:`FaultRule`\\ s, shared across transports.

    The schedule tracks which rules have fired, so a dial factory can
    hand the *same* schedule to every transport incarnation and each
    scripted fault still fires exactly once.
    """

    def __init__(self, rules: Iterable[FaultRule] = ()):
        self._rules: Dict[Tuple[str, int], FaultRule] = {}
        for rule in rules:
            key = (rule.op, rule.index)
            if key in self._rules:
                raise SimulationError(
                    f"duplicate fault rule for {rule.op} #{rule.index}")
            self._rules[key] = rule
        self.fired: list = []

    @classmethod
    def script(cls, *specs: Tuple[str, int, str]) -> "FaultSchedule":
        """Shorthand: ``FaultSchedule.script(("send", 2, "drop"), ...)``."""
        return cls(FaultRule(op, index, action)
                   for op, index, action in specs)

    def take(self, op: str, index: int) -> Optional[FaultRule]:
        """The rule for this operation, consumed at most once."""
        rule = self._rules.pop((op, index), None)
        if rule is not None:
            self.fired.append(rule)
        return rule

    @property
    def pending(self) -> int:
        """Rules that have not fired yet."""
        return len(self._rules)


class FaultyTransport:
    """A transport wrapper that injects scripted faults.

    Drop semantics differ by direction, mirroring a real lossy link:

    * a dropped **send** vanishes after leaving the sender — the inner
      transport never sees it, but byte accounting still counts it (the
      sender's NIC transmitted it);
    * a dropped **recv** consumes one inbound frame and discards it,
      then keeps receiving — the frame was lost before delivery.
    """

    def __init__(self, inner: Any, schedule: FaultSchedule,
                 sleep: Callable[[float], None] = time.sleep,
                 name: str = "faulty"):
        self._inner = inner
        self._schedule = schedule
        self._sleep = sleep
        self.name = name
        self.sends = 0
        self.recvs = 0
        self._dropped_sent_bytes = 0

    def _apply(self, rule: FaultRule) -> Optional[str]:
        if rule.delay_seconds > 0:
            self._sleep(rule.delay_seconds)
        if rule.action == "delay":
            return None
        if rule.action == "close":
            self._inner.close()
            raise TransportError(
                f"injected close on {self.name!r} ({rule.op} #{rule.index})")
        if rule.action == "error":
            raise TransportError(
                f"injected {rule.op} error on {self.name!r} (#{rule.index})")
        return rule.action  # "drop"

    def send_frame(self, payload: bytes) -> None:
        index = self.sends
        self.sends += 1
        rule = self._schedule.take("send", index)
        if rule is not None and self._apply(rule) == "drop":
            # Lost in flight: the sender saw it leave (4-byte frame
            # header included), the receiver never will.
            self._dropped_sent_bytes += len(payload) + 4
            return
        self._inner.send_frame(payload)

    def send_frames(self, payloads) -> None:
        """Frame by frame, so every frame of a burst is its own fault op."""
        for payload in payloads:
            self.send_frame(payload)

    def recv_frame(self) -> bytes:
        while True:
            index = self.recvs
            self.recvs += 1
            rule = self._schedule.take("recv", index)
            # error/close/delay apply before the blocking read (the
            # failure pre-empts delivery); only "drop" consumes a frame.
            dropping = rule is not None and self._apply(rule) == "drop"
            frame = self._inner.recv_frame()
            if dropping:
                continue  # the frame was lost before delivery
            return frame

    def close(self) -> None:
        self._inner.close()

    @property
    def bytes_sent(self) -> int:
        return self._inner.bytes_sent + self._dropped_sent_bytes

    @property
    def bytes_received(self) -> int:
        return self._inner.bytes_received


class FaultyDialFactory:
    """Inject scripted failures at connection *establishment*.

    Wraps a zero-argument dial callable; the shared schedule's ``"dial"``
    rules decide which dial attempts fail (``"error"``) or stall
    (``"delay"``), indexed by attempt count across every incarnation.
    This is how chaos tests script "the primary is dead from attempt 3
    on" against endpoint pools and discovery refresh — the failure mode
    :class:`FaultyTransport` cannot express, because it needs a
    connection to already exist.

    ``fail_forever_after`` (optional) marks an attempt index from which
    *every* dial fails, on top of the scripted one-shot rules — a
    SIGKILLed server stays dead without enumerating rules for each
    retry.
    """

    def __init__(self, dial: Callable[[], Any], schedule: FaultSchedule,
                 sleep: Callable[[float], None] = time.sleep,
                 name: str = "faulty-dial",
                 fail_forever_after: Optional[int] = None):
        self._dial = dial
        self._schedule = schedule
        self._sleep = sleep
        self.name = name
        self.fail_forever_after = fail_forever_after
        self.dials = 0

    def __call__(self) -> Any:
        index = self.dials
        self.dials += 1
        rule = self._schedule.take("dial", index)
        if rule is not None:
            if rule.delay_seconds > 0:
                self._sleep(rule.delay_seconds)
            if rule.action == "error":
                raise TransportError(
                    f"injected dial failure on {self.name!r} (#{index})")
        if self.fail_forever_after is not None and \
                index >= self.fail_forever_after:
            raise TransportError(
                f"{self.name!r} is down (dial #{index})")
        return self._dial()


__all__ = ["FaultRule", "FaultSchedule", "FaultyTransport",
           "FaultyDialFactory", "ACTIONS"]
