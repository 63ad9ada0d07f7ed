"""The pluggable PIR-backend registry behind ZLTP's modes of operation.

The paper's core claim (§4) is that lightweb can swap its private-retrieval
substrate — two-server DPF PIR, single-server LWE PIR, or an enclave with
ORAM — without changing the browsing layer. This module is the seam that
makes the swap real in code: one :class:`BackendSpec` per mode, registered
through the :func:`declare_backend` decorator pair, is the **single source
of truth** for

- the wire-visible mode *name* (plus human-friendly aliases for the CLI),
- how many server endpoints a client session needs (two for ``pir2``'s
  non-colluding pair, one otherwise),
- the server-preference order used by :func:`negotiate`,
- whether the mode snapshots the database at build time (and so must be
  rebuilt when a publisher push lands) and whether it has a one-time
  setup download (the LWE hint),
- the per-backend cost parameters the §5 cost model scales up, and
- the server/client classes themselves, so the zero-leakage analyzer can
  enumerate every wire-facing answer path from the registry instead of a
  name pattern.

A new backend is therefore one self-contained module::

    from repro.core import backend

    toy = backend.declare_backend(
        "toy", endpoints=1, preference=50, assumption="none (demo)")

    @toy.server
    class ToyServer:
        @classmethod
        def from_context(cls, database, ctx):
            ...

    @toy.client
    class ToyClient:
        @classmethod
        def from_hello(cls, domain_bits, blob_size, hello_params, setup,
                       rng=None):
            ...

and immediately negotiates, serves through :class:`~repro.core.zltp.server.
ZltpServerSession`, appears in ``lightweb serve --modes``, and is covered
by ``lightweb lint`` — with no edits to ``modes.py``, ``server.py`` or the
CLI.

Every backend call is accounted through one shared :class:`RequestStats`
record (queries served, bytes up/down, scan seconds) so the CDN, the scan
engine, and the benchmarks report per-backend metrics from one structure.
"""

from __future__ import annotations

import threading
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

try:  # pragma: no cover - Protocol is typing-only sugar
    from typing import Protocol
except ImportError:  # pragma: no cover - very old pythons
    Protocol = object  # type: ignore[assignment]

from repro.errors import NegotiationError, ProtocolError, ReproError
from repro.obs.trace import span


# --------------------------------------------------------------------------
# The shared per-backend accounting record
# --------------------------------------------------------------------------


@dataclass
class RequestStats:
    """Per-backend serving counters, shared across every layer.

    One structure carries the numbers the ZLTP server session measures,
    the scan engine aggregates, the CDN reports per universe, and the
    benchmarks serialise — instead of three ad-hoc counter sets.

    Attributes:
        queries: private-GETs answered.
        bytes_up: total request-payload bytes received (mode payloads,
            not framing).
        bytes_down: total answer-payload bytes produced.
        scan_seconds: wall time spent inside backend ``answer_batch``
            calls.
        retries: shard/task retries absorbed while answering (a request
            that needed a retry still succeeded — this counts the
            recoveries, not failures).
    """

    queries: int = 0
    bytes_up: int = 0
    bytes_down: int = 0
    scan_seconds: float = 0.0
    retries: int = 0

    # Deliberately a plain class attribute, not a dataclass field:
    # freezing must not change equality or the serialised form, so a
    # frozen snapshot still compares equal to a live record with the
    # same counters.
    _frozen = False

    def freeze(self) -> "RequestStats":
        """Make this record immutable; returns self for chaining.

        Reports hand out frozen snapshots so a caller can never mutate
        (or observe mid-update tearing of) the live accounting state.
        """
        self._frozen = True
        return self

    def add(self, queries: int = 0, bytes_up: int = 0, bytes_down: int = 0,
            scan_seconds: float = 0.0, retries: int = 0) -> "RequestStats":
        """Accumulate raw deltas in place; returns self for chaining.

        Raises:
            ReproError: if this record is a frozen snapshot.
        """
        if self._frozen:
            raise ReproError("RequestStats snapshot is frozen")
        self.queries += queries
        self.bytes_up += bytes_up
        self.bytes_down += bytes_down
        self.scan_seconds += scan_seconds
        self.retries += retries
        return self

    def merge(self, other: "RequestStats") -> "RequestStats":
        """Fold another record into this one in place."""
        return self.add(queries=other.queries, bytes_up=other.bytes_up,
                        bytes_down=other.bytes_down,
                        scan_seconds=other.scan_seconds,
                        retries=other.retries)

    def copy(self) -> "RequestStats":
        """An independent snapshot of the current counters."""
        return RequestStats(queries=self.queries, bytes_up=self.bytes_up,
                            bytes_down=self.bytes_down,
                            scan_seconds=self.scan_seconds,
                            retries=self.retries)

    def as_dict(self) -> Dict[str, Any]:
        """JSON-ready form (what benchmark result files embed)."""
        return {
            "queries": self.queries,
            "bytes_up": self.bytes_up,
            "bytes_down": self.bytes_down,
            "scan_seconds": self.scan_seconds,
            "retries": self.retries,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RequestStats":
        """Inverse of :meth:`as_dict` (used when re-reading benchmark JSON).

        ``retries`` defaults to 0 so JSON written before the resilience
        counters existed still round-trips.
        """
        return cls(queries=int(data["queries"]),
                   bytes_up=int(data["bytes_up"]),
                   bytes_down=int(data["bytes_down"]),
                   scan_seconds=float(data["scan_seconds"]),
                   retries=int(data.get("retries", 0)))


# The RequestStats delta of the answer call currently executing on this
# thread/context. Layers *below* the backend seam (the scan engine's
# shard-retry path) attribute recoveries to the request being answered
# through this, without threading a stats handle down every call chain.
_active_stats: ContextVar[Optional[RequestStats]] = ContextVar(
    "repro_backend_active_stats", default=None)


def current_request_stats() -> Optional[RequestStats]:
    """The live stats delta of the in-flight answer call, if any."""
    return _active_stats.get()


def timed_answer_batch(server: "PirBackend", payloads: Sequence[bytes],
                       stats: RequestStats) -> List[bytes]:
    """Run one backend ``answer_batch`` call, accounting it on ``stats``.

    This is the session's only way into a backend: a lone GET is a batch
    of one.
    """
    with span("backend.answer_batch", batch=len(payloads)) as sp:
        token = _active_stats.set(stats)
        try:
            answers = server.answer_batch(list(payloads))
        finally:
            _active_stats.reset(token)
        bytes_up = sum(len(p) for p in payloads)
        bytes_down = sum(len(a) for a in answers)
        sp.annotate(bytes_up=bytes_up, bytes_down=bytes_down)
    stats.add(queries=len(answers), bytes_up=bytes_up,
              bytes_down=bytes_down, scan_seconds=sp.elapsed)
    return answers


# --------------------------------------------------------------------------
# The backend protocol (capabilities every mode implements)
# --------------------------------------------------------------------------


class PirBackend(Protocol):
    """Server half of a PIR backend: opaque query payloads in, answers out.

    ``answer_batch`` is the whole answer surface: the session hands it
    every run of GETs, one or many.
    """

    def hello_params(self) -> Dict[str, Any]:
        """Mode parameters announced in the ServerHello."""

    def setup(self) -> Dict[str, Any]:
        """One-time setup payload (empty when ``needs_setup`` is False)."""

    def answer_batch(self, payloads: List[bytes]) -> List[bytes]:
        """Answer a run of payloads, in order (one scan where possible)."""


class PirBackendClient(Protocol):
    """Client half of a PIR backend: build queries, decode answers.

    A backend whose query generation amortises across a burst may also
    define ``queries_for_slots(slots) -> List[List[bytes]]`` (one
    ``queries_for_slot`` result per slot, in order); :func:`queries_for_slots`
    uses it when present and loops ``queries_for_slot`` otherwise. One
    whose queries have slot-independent work may define
    ``prepare_queries(count)``; :func:`prepare_queries` calls it once a
    burst of ``count`` slots is sent, so that work runs while the burst is
    on the wire instead of in the next burst's path.
    """

    def queries_for_slot(self, slot: int) -> List[bytes]:
        """One opaque query payload per server endpoint."""

    def decode(self, answers: List[bytes]) -> bytes:
        """Recombine the per-endpoint answers into the fetched record."""


def queries_for_slots(client: PirBackendClient,
                      slots: Sequence[int]) -> List[List[bytes]]:
    """The query payloads for a burst of slots, per slot then per endpoint,
    through the backend's batch hook when it has one."""
    batch = getattr(client, "queries_for_slots", None)
    if batch is not None:
        return batch(list(slots))
    return [client.queries_for_slot(slot) for slot in slots]


def prepare_queries(client: PirBackendClient, count: int) -> None:
    """Let the backend do ``count`` queries' slot-independent work ahead,
    through its ``prepare_queries`` hook; a no-op for a backend without
    one. ``count`` is a burst size, never a slot."""
    prepare = getattr(client, "prepare_queries", None)
    if prepare is not None:
        prepare(count)


# --------------------------------------------------------------------------
# Per-backend cost parameters (consumed by repro.costmodel)
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class BackendCost:
    """Cost-model parameters the §5 estimator looks up by backend name.

    Attributes:
        servers_per_request: how many logical servers process every
            request (2 for the non-colluding pair, 1 otherwise) — the
            paper's ``×2`` in the Table 2 vCPU arithmetic.
        linear_scan: whether per-request server work is a linear pass
            over the dataset (False for the polylog enclave mode).
        note: one-line description for cost reports.
    """

    servers_per_request: int = 1
    linear_scan: bool = True
    note: str = ""


# --------------------------------------------------------------------------
# Backend construction context
# --------------------------------------------------------------------------


@dataclass
class ServerContext:
    """Everything a backend may need to build its server half.

    The registry hands the whole context to ``from_context`` so new
    backends can grow configuration without a cross-cutting signature
    change; unknown-to-a-backend fields are simply ignored.

    Attributes:
        party: this server's role in a multi-endpoint pair (0-based).
        lwe_params: parameters for lattice-based modes, if offered.
        rng: deterministic randomness (tests).
        options: free-form per-backend options.
    """

    party: int = 0
    lwe_params: Any = None
    rng: Any = None
    options: Dict[str, Any] = field(default_factory=dict)


# --------------------------------------------------------------------------
# The registry
# --------------------------------------------------------------------------


@dataclass
class BackendSpec:
    """One registered PIR backend: metadata plus both protocol halves.

    Attributes:
        name: canonical wire-visible mode name.
        endpoints: server sessions a client must open for this mode.
        preference: server-side preference rank (lower wins negotiation).
        assumption: the §2.1 security assumption, for docs and CLI output.
        aliases: additional CLI-friendly names (``lwe`` → ``pir-lwe``).
        needs_setup: whether the client must fetch a one-time setup
            payload after the hello (the LWE hint download).
        snapshots_database: whether the server half copies the database at
            build time and must be rebuilt when its version moves.
        cost: per-backend cost-model parameters.
        server_cls / client_cls: the two protocol halves, attached via the
            :meth:`server` / :meth:`client` decorators.
    """

    name: str
    endpoints: int
    preference: int
    assumption: str = ""
    aliases: Tuple[str, ...] = ()
    needs_setup: bool = False
    snapshots_database: bool = True
    cost: BackendCost = field(default_factory=BackendCost)
    server_cls: Optional[type] = None
    client_cls: Optional[type] = None

    # -- decorator halves ------------------------------------------------

    def server(self, cls: type) -> type:
        """Class decorator attaching the server half of this backend."""
        if not hasattr(cls, "from_context"):
            raise ProtocolError(
                f"backend {self.name!r} server class {cls.__name__} must "
                f"define a from_context(database, ctx) classmethod"
            )
        self.server_cls = cls
        return cls

    def client(self, cls: type) -> type:
        """Class decorator attaching the client half of this backend."""
        if not hasattr(cls, "from_hello"):
            raise ProtocolError(
                f"backend {self.name!r} client class {cls.__name__} must "
                f"define a from_hello(...) classmethod"
            )
        self.client_cls = cls
        return cls

    # -- construction ----------------------------------------------------

    def build_server(self, database, ctx: Optional[ServerContext] = None):
        """Build the server half over a blob database."""
        if self.server_cls is None:
            raise NegotiationError(
                f"backend {self.name!r} has no registered server class"
            )
        return self.server_cls.from_context(
            database, ctx if ctx is not None else ServerContext()
        )

    def build_client(self, domain_bits: int, blob_size: int,
                     hello_params: Dict[str, Any], setup: Dict[str, Any],
                     rng=None):
        """Build the client half from a completed hello/setup exchange."""
        if self.client_cls is None:
            raise NegotiationError(
                f"backend {self.name!r} has no registered client class"
            )
        return self.client_cls.from_hello(domain_bits, blob_size,
                                          hello_params, setup, rng=rng)


_registry_lock = threading.Lock()
_backends: Dict[str, BackendSpec] = {}  # guarded-by: _registry_lock
_aliases: Dict[str, str] = {}  # guarded-by: _registry_lock
_builtins_loaded = False  # guarded-by: _registry_lock


def _ensure_builtins() -> None:
    """Import the built-in mode registrations exactly once.

    The registry itself is dependency-free; the three shipped backends
    live in :mod:`repro.core.zltp.modes` and register on import. Lookups
    trigger that import lazily so ``import repro.core.backend`` stays
    cheap and cycle-free.
    """
    global _builtins_loaded
    with _registry_lock:
        if _builtins_loaded:
            return
        _builtins_loaded = True
    import repro.core.zltp.modes  # noqa: F401  (registers on import)


def declare_backend(name: str, *, endpoints: int, preference: int,
                    assumption: str = "", aliases: Iterable[str] = (),
                    needs_setup: bool = False,
                    snapshots_database: bool = True,
                    cost: Optional[BackendCost] = None) -> BackendSpec:
    """Create and register a :class:`BackendSpec`; returns it for the
    ``@spec.server`` / ``@spec.client`` decorators.

    Raises:
        NegotiationError: on a duplicate name/alias or bad endpoint count.
    """
    if endpoints < 1:
        raise NegotiationError(f"backend {name!r}: endpoints must be >= 1")
    spec = BackendSpec(
        name=name, endpoints=endpoints, preference=preference,
        assumption=assumption, aliases=tuple(aliases),
        needs_setup=needs_setup, snapshots_database=snapshots_database,
        cost=cost if cost is not None else BackendCost(
            servers_per_request=endpoints),
    )
    with _registry_lock:
        taken = set(_backends) | set(_aliases)
        for label in (spec.name,) + spec.aliases:
            if label in taken:
                raise NegotiationError(
                    f"backend name {label!r} is already registered"
                )
        _backends[spec.name] = spec
        for alias in spec.aliases:
            _aliases[alias] = spec.name
    return spec


def unregister_backend(name: str) -> None:
    """Remove a registered backend (test hygiene for toy backends)."""
    with _registry_lock:
        spec = _backends.pop(name, None)
        if spec is None:
            raise NegotiationError(f"unknown mode {name!r}")
        for alias in spec.aliases:
            _aliases.pop(alias, None)


def resolve_mode(name: str) -> str:
    """Canonicalise a mode name or alias.

    Raises:
        NegotiationError: if neither a name nor an alias matches.
    """
    _ensure_builtins()
    with _registry_lock:
        if name in _backends:
            return name
        if name in _aliases:
            return _aliases[name]
    raise NegotiationError(f"unknown mode {name!r}")


def get_backend(name: str) -> BackendSpec:
    """Look up a registered backend by name or alias.

    Raises:
        NegotiationError: if the mode is not registered.
    """
    canonical = resolve_mode(name)
    with _registry_lock:
        return _backends[canonical]


def registered_specs() -> List[BackendSpec]:
    """All registered backends in preference order (rank, then name)."""
    _ensure_builtins()
    with _registry_lock:
        specs = list(_backends.values())
    return sorted(specs, key=lambda spec: (spec.preference, spec.name))


def registered_modes() -> List[str]:
    """Registered mode names in preference order.

    The order is derived from each spec's ``preference`` rank, never from
    registration (insertion) order, so it is stable however modules
    happen to be imported.
    """
    return [spec.name for spec in registered_specs()]


def registered_server_class_names() -> List[str]:
    """Class names of every registered server half (for the lint rule)."""
    return sorted({
        spec.server_cls.__name__
        for spec in registered_specs()
        if spec.server_cls is not None
    })


def mode_endpoints(mode: str) -> int:
    """How many ZLTP server sessions the client must open for a mode."""
    return get_backend(mode).endpoints


def capability_metadata(modes: Optional[Sequence[str]] = None) -> Dict[str, Dict[str, Any]]:
    """Per-mode public capability metadata, derived from the registry.

    This is what a server embeds in its discovery announce records (and
    what placement tooling prices deployments from): for each mode, the
    endpoint count a client session needs, the negotiation preference
    rank, whether a one-time setup download exists, and the
    :class:`BackendCost` parameters. Everything here is wire-visible
    protocol structure — nothing per-client, nothing secret.
    """
    names = [resolve_mode(name) for name in modes] if modes is not None \
        else registered_modes()
    out: Dict[str, Dict[str, Any]] = {}
    for name in names:
        spec = get_backend(name)
        out[name] = {
            "endpoints": spec.endpoints,
            "preference": spec.preference,
            "needs_setup": spec.needs_setup,
            "servers_per_request": spec.cost.servers_per_request,
            "linear_scan": spec.cost.linear_scan,
        }
    return out


def negotiate(client_modes: Sequence[str],
              server_modes: Sequence[str]) -> str:
    """Pick the mode: first server-preferred mode the client supports.

    Mode names are canonicalised through the registry; names neither side
    recognises are ignored (a newer peer may offer modes we do not know).

    Raises:
        NegotiationError: if there is no common registered mode.
    """
    def canonical(modes: Sequence[str]) -> List[str]:
        out = []
        for name in modes:
            try:
                out.append(resolve_mode(name))
            except NegotiationError:
                continue
        return out

    offered = set(canonical(client_modes))
    for mode in canonical(server_modes):
        if mode in offered:
            return mode
    raise NegotiationError(
        f"no common mode: client {list(client_modes)}, "
        f"server {list(server_modes)}"
    )


def create_server(mode: str, database, party: int = 0, lwe_params=None,
                  rng=None, options: Optional[Dict[str, Any]] = None):
    """Build the server half of a mode over a blob database."""
    ctx = ServerContext(party=party, lwe_params=lwe_params, rng=rng,
                        options=dict(options or {}))
    return get_backend(mode).build_server(database, ctx)


def create_client(mode: str, domain_bits: int, blob_size: int,
                  hello_params: Dict[str, Any], setup: Dict[str, Any],
                  rng=None):
    """Build the client half of a negotiated mode."""
    return get_backend(mode).build_client(domain_bits, blob_size,
                                          hello_params, setup, rng=rng)


__all__ = [
    "RequestStats",
    "current_request_stats",
    "timed_answer_batch",
    "PirBackend",
    "PirBackendClient",
    "queries_for_slots",
    "prepare_queries",
    "BackendCost",
    "ServerContext",
    "BackendSpec",
    "declare_backend",
    "unregister_backend",
    "resolve_mode",
    "get_backend",
    "registered_specs",
    "registered_modes",
    "registered_server_class_names",
    "mode_endpoints",
    "capability_metadata",
    "negotiate",
    "create_server",
    "create_client",
]
