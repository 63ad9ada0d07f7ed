"""The lightweb browser: "essentially a minimal web browser that speaks the
ZLTP protocol" (§3.2).

A page visit follows the paper's four steps exactly:

1. **Connect to a CDN** — :meth:`LightwebBrowser.connect` opens the two
   ZLTP sessions of §3.2, one for code blobs and one for data blobs.
2. **Fetch code blob** — the domain's program is fetched privately on the
   code session and cached aggressively ("we would expect code blobs to
   change very rarely").
3. **Fetch data blobs** — the program plans at most ``fetch_budget`` data
   fetches; the browser *pads the count to exactly the budget* with dummy
   keyword lookups so "the number of data blobs fetched per page view" is
   fixed, as §3.2 requires, and issues the whole budget as one pipelined
   burst: a page view is one round trip on the data session, whatever the
   page. Protected payloads are unsealed with the user's account keys
   (§3.3); missing keys render as access-denied rather than failing the
   page.
4. **Render content** — the program's template produces text;
   ``[[path|label]]`` spans become followable links, and continuation
   chunks surface as "next" links (§5's long-value story).

The browser keeps a ``network_log`` of every GET it makes. Tests assert the
§3.2 leakage contract directly against it: per visit, exactly one optional
code GET plus exactly ``fetch_budget`` data GETs — never a function of which
page was requested.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core.lightweb.access import AccountKeyring, is_protected
from repro.core.lightweb.ads import AdInventory, select_ad
from repro.core.lightweb.blobs import decode_json_payload
from repro.core.lightweb.lightscript import LightscriptProgram
from repro.core.lightweb.paths import parse_path, split_query
from repro.core.lightweb.storage import LocalStorage
from repro.errors import AccessError, PathError, ProtocolError, TransportError
from repro.obs.metrics import record_failover, record_retry

_LINK_RE = re.compile(r"\[\[([^\]|]+)(?:\|([^\]]*))?\]\]")

PromptHandler = Callable[[str, str], Optional[Any]]


@dataclass
class RenderedPage:
    """The result of one page visit.

    Attributes:
        path: the requested full path.
        text: the rendered page text (links replaced by their labels).
        links: ``(target_path, label)`` pairs in order of appearance.
        fetched_paths: the real (non-dummy) data paths fetched.
        data: the parsed data blobs, aligned with ``fetched_paths``
            (None for absent or access-denied blobs).
        notes: human-readable events (access denied, missing route, ...).
    """

    path: str
    text: str
    links: List[Tuple[str, str]] = field(default_factory=list)
    fetched_paths: List[str] = field(default_factory=list)
    data: List[Optional[Dict[str, Any]]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def link_targets(self) -> List[str]:
        """Just the link target paths."""
        return [target for target, _label in self.links]


class LightwebBrowser:
    """A stateful lightweb client for one user."""

    def __init__(self, storage: Optional[LocalStorage] = None,
                 keyring: Optional[AccountKeyring] = None,
                 prompt_handler: Optional[PromptHandler] = None,
                 interests: Optional[List[str]] = None,
                 rng: Optional[np.random.Generator] = None):
        """Create a browser.

        Args:
            storage: per-domain local storage (fresh if omitted).
            keyring: subscriber accounts for protected content.
            prompt_handler: called as ``handler(domain, key)`` when a page
                needs a local value the user has not provided (§3.3's
                postal-code prompt); returning None skips the prompt.
            interests: the local interest profile ads are targeted against.
            rng: randomness for dummy-fetch padding.
        """
        self.storage = storage if storage is not None else LocalStorage()
        self.keyring = keyring if keyring is not None else AccountKeyring()
        self.prompt_handler = prompt_handler
        self.interests = list(interests) if interests is not None else []
        self._rng = rng if rng is not None else np.random.default_rng()
        self._code_client = None
        self._data_client = None
        self._code_cache: Dict[str, LightscriptProgram] = {}
        self.fetch_budget: Optional[int] = None
        self.universe_name: Optional[str] = None
        self.cdn_name: Optional[str] = None
        self.history: List[str] = []
        self.network_log: List[Dict[str, Any]] = []
        self._dummy_counter = 0
        #: CDN failovers this browser performed (§3.5; also in metrics).
        self.failovers = 0

    # ------------------------------------------------------------------
    # Step 1: connect to a CDN
    # ------------------------------------------------------------------

    def connect(self, cdn, universe_name: str,
                client_modes: Optional[List[str]] = None,
                transport_factory=None,
                fallbacks: Optional[List[Tuple[Any, str]]] = None) -> None:
        """Open the code and data ZLTP sessions against one universe.

        Args:
            cdn: the primary CDN.
            universe_name: the universe to browse on it.
            client_modes: ZLTP modes to offer.
            transport_factory: optional transport wiring (simnet, taps).
            fallbacks: further ``(cdn, universe_name)`` pairs — §3.5's
                fault-tolerance story: peered CDNs carry the same content,
                so the browser fails over mid-session when the primary
                stops answering.
        """
        self._endpoints = [(cdn, universe_name)] + list(fallbacks or [])
        self._endpoint_index = 0
        self._client_modes = client_modes
        self._transport_factory = transport_factory
        self._connect_current()

    def _connect_current(self) -> None:
        cdn, universe_name = self._endpoints[self._endpoint_index]
        universe = cdn.universe(universe_name)
        self._code_client = cdn.connect(
            universe_name, "code", client_modes=self._client_modes,
            transport_factory=self._transport_factory, rng=self._rng,
        )
        self._data_client = cdn.connect(
            universe_name, "data", client_modes=self._client_modes,
            transport_factory=self._transport_factory, rng=self._rng,
        )
        self.fetch_budget = universe.fetch_budget
        self.universe_name = universe_name
        self.cdn_name = cdn.name

    def _failover(self) -> bool:
        """Advance to the next configured endpoint; False if exhausted."""
        while self._endpoint_index + 1 < len(self._endpoints):
            self._endpoint_index += 1
            try:
                self._connect_current()
            except (TransportError, ProtocolError):
                continue
            self.failovers += 1
            record_failover("browser")
            return True
        return False

    @property
    def connected(self) -> bool:
        """Whether both sessions are open."""
        return self._code_client is not None and self._data_client is not None

    def close(self) -> None:
        """Close both ZLTP sessions."""
        if self._code_client is not None:
            self._code_client.close()
        if self._data_client is not None:
            self._data_client.close()
        self._code_client = None
        self._data_client = None

    # ------------------------------------------------------------------
    # Steps 2-4: visit a page
    # ------------------------------------------------------------------

    def visit(self, path: str) -> RenderedPage:
        """Visit a lightweb path privately; returns the rendered page.

        On a transport failure (dead CDN) the browser fails over to the
        next configured endpoint, if any, and retries the visit once.

        Raises:
            PathError: if the path is invalid or the domain hosts no site.
            ProtocolError: if the browser is not connected.
            TransportError: if every configured endpoint is unreachable.
        """
        try:
            return self._visit_once(path)
        except TransportError:
            if not self._failover():
                raise
            record_retry("browser")
            return self._visit_once(path)

    def _visit_once(self, path: str) -> RenderedPage:
        if not self.connected:
            raise ProtocolError("browser is not connected to a universe")
        parsed = parse_path(path)
        route_rest, query_string = split_query(parsed.rest)
        query = _parse_query(query_string)

        program = self._load_program(parsed.domain)
        route, match = program.match(route_rest)
        notes: List[str] = []
        fetch_paths: List[str] = []
        storage_view = self._storage_view(parsed.domain)

        if route is None:
            notes.append(f"no route matches {route_rest!r}")
        else:
            self._run_prompts(parsed.domain, route)
            storage_view = self._storage_view(parsed.domain)
            fetch_paths = program.plan_fetches(
                route, match, storage_view, query, self.fetch_budget
            )

        # Real paths first, then dummy keyword lookups up to the fixed
        # budget, so the on-the-wire GET count never depends on the page
        # (§3.2).
        payloads = self._fetch_page(fetch_paths)
        integrity_root = _integrity_root(program)
        data = [self._decode_data(data_path, payload, notes, integrity_root)
                for data_path, payload in zip(fetch_paths, payloads)]

        if route is None:
            text = f"[not found] {parsed.full}"
        else:
            text = program.render(route, match, storage_view, query, data)

        links = _extract_links(text)
        text = _LINK_RE.sub(lambda m: m.group(2) or m.group(1), text)
        for content in data:
            if isinstance(content, dict) and isinstance(content.get("next"), str):
                links.append((content["next"], "next"))

        self.history.append(parsed.full)
        return RenderedPage(
            path=parsed.full,
            text=text,
            links=links,
            fetched_paths=fetch_paths,
            data=data,
            notes=notes,
        )

    def dummy_page_view(self) -> None:
        """Emit a full dummy page view: exactly ``fetch_budget`` data GETs.

        On the wire this is indistinguishable from a real visit to a domain
        whose code blob is cached — the building block of the cover-traffic
        schedule (:mod:`repro.core.lightweb.scheduler`).
        """
        if not self.connected:
            raise ProtocolError("browser is not connected to a universe")
        self._fetch_page([])

    def follow(self, page: RenderedPage, index: int) -> RenderedPage:
        """Follow the ``index``-th link of a rendered page."""
        targets = page.link_targets()
        if not 0 <= index < len(targets):
            raise PathError(f"page has {len(targets)} links; no index {index}")
        return self.visit(targets[index])

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------

    @property
    def bytes_sent(self) -> int:
        """Bytes uploaded across both sessions."""
        return self._code_client.bytes_sent + self._data_client.bytes_sent

    @property
    def bytes_received(self) -> int:
        """Bytes downloaded across both sessions."""
        return self._code_client.bytes_received + self._data_client.bytes_received

    def gets_for_last_visit(self) -> Dict[str, int]:
        """GET counts attributable to the most recent visit."""
        counts: Dict[str, int] = {"code-get": 0, "data-get": 0}
        for event in reversed(self.network_log):
            if event["visit"] != len(self.history) - 1:
                break
            counts[event["kind"]] += 1
        return counts

    def forget_domain(self, domain: str) -> None:
        """Drop a domain's cached code and local storage."""
        self._code_cache.pop(domain, None)
        self.storage.clear_domain(domain)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _log(self, kind: str) -> None:
        self.network_log.append({"kind": kind, "visit": len(self.history)})

    def _load_program(self, domain: str) -> LightscriptProgram:
        program = self._code_cache.get(domain)
        if program is not None:
            return program
        payload = self._code_client.get(domain)
        self._log("code-get")
        if payload is None:
            raise PathError(
                f"no lightweb site for {domain} in universe {self.universe_name}"
            )
        program = LightscriptProgram.from_json(payload)
        self._code_cache[domain] = program
        return program

    def _storage_view(self, domain: str) -> Dict[str, Any]:
        return {key: self.storage.get(domain, key)
                for key in self.storage.keys(domain)}

    def _run_prompts(self, domain: str, route) -> None:
        for key in route.prompts:
            if self.storage.get(domain, key) is not None:
                continue
            if self.prompt_handler is None:
                continue
            value = self.prompt_handler(domain, key)
            if value is not None:
                self.storage.set(domain, key, value)

    def _fetch_page(self, data_paths: List[str]) -> List[Optional[bytes]]:
        """One page view on the data session: exactly ``fetch_budget``
        keyword GETs in a single pipelined burst; returns the payloads of
        the real paths (which lead the burst)."""
        keys = list(data_paths)
        while len(keys) < self.fetch_budget:
            self._dummy_counter += 1
            nonce = int(self._rng.integers(0, 2**62))
            # A key that cannot exist: same wire signature as a real GET
            # (same probe count, same sizes), no real content.
            keys.append(f"padding.invalid/{nonce}-{self._dummy_counter}")
        payloads = self._data_client.get_many(keys)
        for _ in keys:
            self._log("data-get")
        return payloads[: len(data_paths)]

    def _decode_data(self, data_path: str, payload: Optional[bytes],
                     notes: List[str], integrity_root: Optional[bytes] = None
                     ) -> Optional[Dict[str, Any]]:
        if payload is None:
            return None
        try:
            content = decode_json_payload(payload)
        except ProtocolError:
            notes.append(f"malformed data blob at {data_path}")
            return None
        if integrity_root is not None:
            content = self._verify_integrity(data_path, content,
                                             integrity_root, notes)
            if content is None:
                return None
        if not isinstance(content, dict):
            content = {"body": content}
        if is_protected(content):
            try:
                content = self.keyring.unseal(data_path, content)
            except AccessError as exc:
                notes.append(f"access denied at {data_path}: {exc}")
                return None
        if "ads" in content:
            ad = select_ad(AdInventory.from_payload(content["ads"]), self.interests)
            if ad is not None:
                content = dict(content)
                content["selected_ad"] = ad.text
        return content

    def _verify_integrity(self, data_path: str, content: Any,
                          root: bytes, notes: List[str]
                          ) -> Optional[Dict[str, Any]]:
        """Check an integrity-wrapped payload against the code-blob root."""
        from repro.core.lightweb.blobs import encode_json_payload
        from repro.core.lightweb.publisher import (
            INTEGRITY_CONTENT,
            INTEGRITY_PROOF,
        )
        from repro.crypto.merkle import decode_proof, verify_proof
        from repro.errors import IntegrityError

        if not isinstance(content, dict) or INTEGRITY_CONTENT not in content:
            notes.append(f"integrity violation at {data_path}: missing wrapper")
            return None
        inner = content[INTEGRITY_CONTENT]
        try:
            proof = decode_proof(str(content.get(INTEGRITY_PROOF, "")))
            verify_proof(root, encode_json_payload(inner), proof)
        except IntegrityError as exc:
            notes.append(f"integrity violation at {data_path}: {exc}")
            return None
        if not isinstance(inner, dict):
            inner = {"body": inner}
        return inner


def _integrity_root(program: LightscriptProgram) -> Optional[bytes]:
    """The site's Merkle root, if its code blob declares one."""
    from repro.core.lightweb.publisher import INTEGRITY_ROOT_KEY

    encoded = program.style.get(INTEGRITY_ROOT_KEY)
    if not isinstance(encoded, str):
        return None
    try:
        root = bytes.fromhex(encoded)
    except ValueError:
        return None
    return root if len(root) == 32 else None


def _parse_query(query_string: str) -> Dict[str, str]:
    query: Dict[str, str] = {}
    if not query_string:
        return query
    for pair in query_string.split("&"):
        if not pair:
            continue
        key, _, value = pair.partition("=")
        query[key] = value
    return query


def _extract_links(text: str) -> List[Tuple[str, str]]:
    links = []
    for match in _LINK_RE.finditer(text):
        target = match.group(1).strip()
        label = (match.group(2) or target).strip()
        links.append((target, label))
    return links


__all__ = ["LightwebBrowser", "RenderedPage"]
