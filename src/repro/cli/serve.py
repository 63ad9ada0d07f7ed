"""``lightweb serve`` — host a universe behind real TCP ZLTP listeners.

One deployment exposes one listener per (session kind × party), where the
party count is the largest endpoint count any served mode needs — two
when ``pir2`` is offered, one for a single-server-only deployment. With
the default registry that is four listeners on consecutive ports:

    base+0  code party 0        base+2  data party 0
    base+1  code party 1        base+3  data party 1

Which modes are served is registry-driven: every registered backend by
default, or the ``--modes pir2,lwe,enclave`` subset (aliases accepted).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.cli.console import emit
from repro.cli.spec import load_site
from repro.core import backend as backend_registry
from repro.core.discovery import (
    DEFAULT_SECRET,
    AnnounceRecord,
    Announcer,
    DirectoryClient,
)
from repro.core.lightweb.cdn import Cdn
from repro.core.zltp.eventloop import Reactor, ZltpEventLoopServer
from repro.errors import NegotiationError, ReproError
from repro.obs.fleet import STATS_IDLE_TIMEOUT, StatsSession
from repro.obs.logs import (
    configure_console_logging,
    configure_json_logging,
    get_logger,
)
from repro.obs.metrics import merge_into

_log = get_logger(__name__)


def parse_modes(value: Optional[str]) -> Optional[List[str]]:
    """Parse a ``--modes`` value: comma-separated names or aliases.

    Returns canonical mode names (deduplicated, first occurrence wins),
    or None when no restriction was given (serve everything registered).
    Unknown names raise a one-line
    :class:`~repro.errors.NegotiationError` naming every valid mode and
    alias, instead of surfacing as a late registry lookup failure.
    """
    if not value:
        return None
    names = [part.strip() for part in value.split(",") if part.strip()]
    resolved: List[str] = []
    for name in names:
        try:
            canonical = backend_registry.resolve_mode(name)
        except NegotiationError:
            valid = ", ".join(
                spec.name + (f" (aka {', '.join(spec.aliases)})"
                             if spec.aliases else "")
                for spec in backend_registry.registered_specs())
            raise NegotiationError(
                f"unknown mode {name!r}; valid modes: {valid}") from None
        if canonical not in resolved:
            resolved.append(canonical)
    return resolved


@dataclass
class RunningDeployment:
    """Handle on a served universe: the CDN, listeners, and their ports."""

    cdn: Cdn
    universe_name: str
    listeners: Dict[Tuple[str, int], ZltpEventLoopServer]
    stats: Optional[Reactor] = field(default=None)
    #: Extra listeners over the *same* logical servers, keyed like
    #: ``listeners``: the failover targets a resilient client dials when
    #: a primary endpoint dies (same salt, geometry, and mode state, so
    #: a reconnect-resume validates against the negotiated session).
    replicas: Dict[Tuple[str, int], List[ZltpEventLoopServer]] = \
        field(default_factory=dict)
    #: The periodic directory announcer, when ``--directory`` is wired.
    announcer: Optional[Announcer] = field(default=None)

    @property
    def n_parties(self) -> int:
        """Listeners per session kind (the widest served mode's endpoints)."""
        return max(party for (_kind, party) in self.listeners) + 1

    def ports(self) -> Dict[str, List[int]]:
        """``{"code": [ports by party...], "data": [ports by party...]}``."""
        return {
            kind: [self.listeners[(kind, party)].address[1]
                   for party in range(self.n_parties)]
            for kind in ("code", "data")
        }

    def replica_ports(self) -> Dict[str, List[List[int]]]:
        """Replica listener ports: ``{"code": [per-party port lists], ...}``."""
        return {
            kind: [[listener.address[1]
                    for listener in self.replicas.get((kind, party), [])]
                   for party in range(self.n_parties)]
            for kind in ("code", "data")
        }

    def announce_records(self, ttl_seconds: Optional[float] = 15.0
                         ) -> List[AnnounceRecord]:
        """Unsigned announce records for every listener, replicas included.

        Each record derives its capability metadata and load snapshot
        from the listener's logical server
        (:meth:`~repro.core.zltp.server.ZltpServer.capability_snapshot`),
        and carries the universe's fetch budget in ``attrs`` so a
        discovered client needs no out-of-band configuration. The
        :class:`~repro.core.discovery.Announcer` signs them and stamps
        the generation on every tick.
        """
        budget = self.cdn.universe(self.universe_name).fetch_budget
        attrs: Dict[str, Any] = {"fetch_budget": budget}
        if self.stats is not None:
            # Fleet scrapers ("lightweb top") find the sidecar through
            # the records — one port attribute, no extra configuration.
            attrs["stats_port"] = self.stats.address[1]
        records: List[AnnounceRecord] = []

        def make(listener: Any, kind: str, party: int, role: str,
                 index: int) -> AnnounceRecord:
            snap = listener.server.capability_snapshot()
            host, port = listener.address
            return AnnounceRecord(
                server_id=(f"{self.universe_name}/{kind}/{party}/"
                           f"{role}{index}"),
                host=host, port=port, universe=self.universe_name,
                kind=kind, party=party, modes=tuple(snap["modes"]),
                prefix_bits=snap["prefix_bits"], cost=snap["cost"],
                load=snap["load"], attrs=dict(attrs),
                ttl_seconds=ttl_seconds,
            )

        for (kind, party), listener in sorted(self.listeners.items()):
            records.append(make(listener, kind, party, "primary", 0))
        for (kind, party), group in sorted(self.replicas.items()):
            for index, listener in enumerate(group):
                records.append(make(listener, kind, party, "replica", index))
        return records

    def _logical_servers(self) -> List[Any]:
        """Distinct logical servers behind the listeners (replicas share
        them, so the set is deduplicated by identity)."""
        seen: List[Any] = []
        for listener in list(self.listeners.values()) + \
                [l for group in self.replicas.values() for l in group]:
            server = getattr(listener, "server", None)
            if server is not None and all(server is not s for s in seen):
                seen.append(server)
        return seen

    def stats_snapshot(self) -> Dict[str, Any]:
        """Deployment-wide serving counters plus the logical servers'
        metrics snapshots, folded into one."""
        merged = self.cdn.stats_by_mode(self.universe_name)
        metrics: Dict[str, Any] = {}
        for server in self._logical_servers():
            merge_into(metrics, server.stats_snapshot()["metrics"])
        return {
            "universe": self.universe_name,
            "sessions_opened": sum(server.sessions_opened
                                   for server in self._logical_servers()),
            "gets_served": self.cdn.total_gets(self.universe_name),
            "modes": {mode: stats.as_dict()
                      for mode, stats in sorted(merged.items())},
            "metrics": metrics,
        }

    def traces_snapshot(self) -> Dict[str, Any]:
        """Every logical server's flight-recorder export, concatenated.

        Same schema as :meth:`~repro.obs.flight.FlightRecorder.export`
        (counters summed, rings concatenated in listener order), so the
        ``lightweb trace`` renderer treats a deployment exactly like a
        single server.
        """
        counters = {"recorded": 0, "slow_kept": 0, "errors_kept": 0}
        rings: Dict[str, List[Any]] = {"recent": [], "slow": [], "errored": []}
        threshold = None
        for server in self._logical_servers():
            export = server.flight.export()
            if threshold is None:
                threshold = export.get("slow_threshold_seconds")
            for key in counters:
                counters[key] += export.get("counters", {}).get(key, 0)
            for key in rings:
                rings[key].extend(export.get(key, []))
        return {"slow_threshold_seconds": threshold,
                "counters": counters, **rings}

    def stop(self) -> None:
        """Stop the announcer (withdrawing its records), the stats
        endpoint, and every listener (replicas included)."""
        if self.announcer is not None:
            self.announcer.stop(withdraw=True)
        if self.stats is not None:
            self.stats.stop()
        for listener in self.listeners.values():
            listener.stop()
        for group in self.replicas.values():
            for listener in group:
                listener.stop()


def build_deployment(spec_paths: List[str], universe_name: str = "main",
                     data_blob_size: int = 4096, code_blob_size: int = 65536,
                     data_domain_bits: int = 12, code_domain_bits: int = 8,
                     fetch_budget: int = 5, host: str = "127.0.0.1",
                     port_base: int = 0,
                     state_path: str = "",
                     modes: Optional[List[str]] = None,
                     stats_port: Optional[int] = None,
                     replicas: int = 0,
                     admission_deadline_seconds: Optional[float] = None,
                     admission_max_queue_depth: int = 64
                     ) -> RunningDeployment:
    """Create a CDN from site specs (or saved state) and expose it over TCP.

    Args:
        spec_paths: site-spec JSON files to publish.
        universe_name: name of the hosted universe.
        port_base: first of the consecutive listener ports (0 = ephemeral).
        state_path: optional universe archive; loaded if it exists (specs
            are then pushed on top), and (re)written after the build, so a
            restarted server resumes without losing earlier pushes.
        modes: served modes (names or registry aliases); default is every
            registered backend.
        stats_port: when given, also expose the deployment-wide stats
            snapshot on an HTTP sidecar at this port (0 = ephemeral).
        replicas: additional listeners per (kind, party) over the same
            logical servers — failover targets for resilient clients.
        admission_deadline_seconds: when given, attach an
            :class:`~repro.core.zltp.admission.AdmissionController` with
            this deadline to every *data* logical server, so GETs that
            would blow it are shed with a fast overload error instead of
            queued behind a doomed scan. Replica listeners share the
            logical servers and therefore the gate.
        admission_max_queue_depth: the gate's hard in-flight cap.

    Returns:
        A :class:`RunningDeployment`; call ``stop()`` to tear down.
    """
    import os

    from repro.core.lightweb.persistence import load_universe, save_universe

    cdn = Cdn("cli-cdn", modes=modes)
    if state_path and os.path.exists(state_path):
        universe = load_universe(state_path)
        cdn._universes[universe_name] = universe
    else:
        universe = cdn.create_universe(
            universe_name,
            data_blob_size=data_blob_size,
            code_blob_size=code_blob_size,
            data_domain_bits=data_domain_bits,
            code_domain_bits=code_domain_bits,
            fetch_budget=fetch_budget,
        )
    for path in spec_paths:
        site = load_site(path)
        compiled = site.compile(universe.max_data_payload,
                                universe.max_code_payload)
        cdn.accept_push(f"cli:{site.domain}", universe_name, compiled)
    if state_path:
        save_universe(universe, state_path)

    n_parties = max(backend_registry.mode_endpoints(mode)
                    for mode in cdn.modes)
    listeners: Dict[Tuple[str, int], Any] = {}
    offset = 0
    for kind in ("code", "data"):
        for party in range(n_parties):
            port = port_base + offset if port_base else 0
            server = cdn._server(universe_name, kind, party)
            if kind == "data" and admission_deadline_seconds is not None \
                    and server.admission is None:
                from repro.core.zltp.admission import AdmissionController

                server.admission = AdmissionController(
                    deadline_seconds=admission_deadline_seconds,
                    max_queue_depth=admission_max_queue_depth)
            listeners[(kind, party)] = ZltpEventLoopServer(
                server, host=host, port=port)
            offset += 1
    # Replica listeners share the logical servers (the cdn caches them
    # per (universe, kind, party)), so a client failing over mid-session
    # lands on the same salt, geometry, and mode state.
    replica_map: Dict[Tuple[str, int], List[Any]] = {}
    for _round in range(replicas):
        for kind in ("code", "data"):
            for party in range(n_parties):
                port = port_base + offset if port_base else 0
                server = cdn._server(universe_name, kind, party)
                replica_map.setdefault((kind, party), []).append(
                    ZltpEventLoopServer(server, host=host, port=port))
                offset += 1
    deployment = RunningDeployment(cdn=cdn, universe_name=universe_name,
                                   listeners=listeners, replicas=replica_map)
    if stats_port is not None:
        deployment.stats = serve_stats(deployment.stats_snapshot, host=host,
                                       port=stats_port,
                                       traces=deployment.traces_snapshot)
    return deployment


def serve_stats(snapshot: Callable[[], Dict[str, Any]],
                host: str = "127.0.0.1", port: int = 0,
                traces: Optional[Callable[[], Dict[str, Any]]] = None
                ) -> Reactor:
    """A stats listener: its own reactor over
    :class:`~repro.obs.fleet.StatsSession` (port 0 picks a free one)."""
    listener = Reactor(lambda: StatsSession(snapshot, traces), host, port,
                       STATS_IDLE_TIMEOUT)
    _log.info("stats endpoint listening", extra={
        "host": listener.address[0], "port": listener.address[1]})
    return listener


def parse_hostport(value: str) -> Tuple[str, int]:
    """Parse a ``host:port`` flag value with a one-line typed error."""
    host, sep, port = value.rpartition(":")
    if not sep or not host or not port.isdigit():
        raise ReproError(f"expected HOST:PORT, got {value!r}")
    return host, int(port)


def directory_client(args: Any) -> DirectoryClient:
    """The client for a command's parsed ``--directory``/
    ``--directory-secret`` pair (the dev secret when none is given)."""
    host, port = args.directory
    secret = args.directory_secret
    return DirectoryClient(
        host, port, secret=secret.encode() if secret else DEFAULT_SECRET)


def attach_announcer(deployment: RunningDeployment, directory: Any,
                     secret: bytes = DEFAULT_SECRET,
                     interval_seconds: float = 5.0,
                     ttl_seconds: Optional[float] = 15.0) -> Announcer:
    """Start announcing a deployment's records to a directory.

    The announcer re-reads :meth:`RunningDeployment.announce_records` on
    every tick (fresh load, bumped generation) and is stopped — with its
    records withdrawn — by :meth:`RunningDeployment.stop`. The TTL is
    three intervals by default, so a SIGKILLed deployment ages out of
    the directory after a few missed re-announces.
    """
    announcer = Announcer(
        directory,
        lambda: deployment.announce_records(ttl_seconds=ttl_seconds),
        secret=secret, interval_seconds=interval_seconds,
        name=f"announce:{deployment.universe_name}",
    ).start()
    deployment.announcer = announcer
    return announcer


def cmd_serve(args) -> int:
    """Entry point for ``lightweb serve``."""
    if getattr(args, "log_json", False):
        configure_json_logging()
    else:
        configure_console_logging()
    deployment = build_deployment(
        args.spec,
        universe_name=args.universe,
        data_blob_size=args.data_blob_size,
        fetch_budget=args.fetch_budget,
        port_base=args.port_base,
        state_path=args.state,
        modes=parse_modes(getattr(args, "modes", None)),
        stats_port=getattr(args, "stats_port", None),
        replicas=getattr(args, "replicas", 0),
        admission_deadline_seconds=getattr(args, "admission_deadline", None),
        admission_max_queue_depth=getattr(args, "admission_queue_depth", 64),
    )
    if args.directory:
        client = directory_client(args)
        interval = getattr(args, "announce_interval", 5.0)
        attach_announcer(deployment, client, secret=client.secret,
                         interval_seconds=interval,
                         ttl_seconds=interval * 3)
    universe = deployment.cdn.universe(args.universe)
    ports = deployment.ports()
    emit(f"universe {args.universe!r}: {universe.n_pages} data blobs, "
         f"domains {universe.domains()}")
    emit(f"modes         : {', '.join(deployment.cdn.modes)}")
    emit(f"code sessions : ports {ports['code']}")
    emit(f"data sessions : ports {ports['data']}")
    if deployment.replicas:
        replica_ports = deployment.replica_ports()
        emit(f"code replicas : ports {replica_ports['code']}")
        emit(f"data replicas : ports {replica_ports['data']}")
    if deployment.stats is not None:
        emit(f"stats endpoint: port {deployment.stats.address[1]}")
    if deployment.announcer is not None:
        host, port = args.directory
        emit(f"directory     : announcing to {host}:{port} "
             f"({len(deployment.announce_records())} records)")
    emit("serving; Ctrl-C to stop.")
    _log.info("deployment serving", extra={
        "universe": args.universe,
        "modes": list(deployment.cdn.modes),
        "ports": ports,
    })
    try:
        import threading

        threading.Event().wait()
    except KeyboardInterrupt:
        pass
    finally:
        deployment.stop()
        _log.info("deployment stopped", extra={"universe": args.universe})
    return 0


__all__ = ["build_deployment", "RunningDeployment", "cmd_serve",
           "parse_modes", "parse_hostport", "directory_client",
           "attach_announcer", "serve_stats"]
