"""Lightscript: the restricted page-logic language inside code blobs.

The paper puts "a blob of JavaScript code and style information" in each
domain's code blob (§3.1); the code receives the requested path, makes "a
small, fixed number of private-GET requests" (§3.2), and renders the page
from the fetched JSON. Running real JavaScript is neither available here nor
necessary — the *interface* between code blob and browser is what matters,
and it has exactly three verbs: match a path, plan a fixed number of data
fetches, render text. Lightscript is a declarative JSON program with exactly
those verbs (see DESIGN.md for the substitution argument):

- **routes** — ordered regex patterns over the path remainder ("We envision
  publishers using regular expressions to parse paths", §3.2).
- **fetches** — per-route data-path templates, expanded with regex captures
  (``{1}``), local-storage values (``{local.zip|10025}``) and query
  parameters (``{query.q}``). Never more than the universe's fetch budget;
  the browser pads with dummy fetches so the on-the-wire count is constant.
- **render** — a text template over the same substitutions plus fetched
  JSON fields (``{data0.title}``); ``[[path|label]]`` spans become links.
- **prompts** — local-storage keys the page needs the user to provide once
  (the postal-code flow of §3.3).

Programs are data, so a malicious publisher's code blob can at worst render
odd text — it cannot touch other domains' storage or exceed its fetch
budget, because the *browser* enforces both.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

from repro.errors import BudgetExceededError, LightscriptError

LIGHTSCRIPT_VERSION = 1
MAX_ROUTES = 256
MAX_TEMPLATE_LENGTH = 8192

_PLACEHOLDER_RE = re.compile(r"\{([^{}]+)\}")


@dataclass(frozen=True)
class Route:
    """One route: a pattern, its data fetches, and its render template.

    Attributes:
        pattern: regex matched against the path remainder (e.g. ``"^/$"``).
        fetches: data-path templates to fetch when the route matches.
        render: text template producing the page.
        prompts: local-storage keys that must exist (the browser asks the
            user for missing ones before planning fetches).
    """

    pattern: str
    fetches: Sequence[str] = ()
    render: str = ""
    prompts: Sequence[str] = ()

    def compiled(self) -> re.Pattern:
        """The compiled pattern (validated at program load)."""
        return re.compile(self.pattern)


class LightscriptProgram:
    """A domain's page logic, as carried in its code blob."""

    def __init__(self, domain: str, routes: List[Route],
                 style: Optional[Dict[str, Any]] = None,
                 version: int = LIGHTSCRIPT_VERSION):
        """Validate and compile a program.

        Raises:
            LightscriptError: on bad patterns, oversized templates, or too
                many routes.
        """
        if version != LIGHTSCRIPT_VERSION:
            raise LightscriptError(f"unsupported lightscript version {version}")
        if not routes:
            raise LightscriptError("program needs at least one route")
        if len(routes) > MAX_ROUTES:
            raise LightscriptError(f"more than {MAX_ROUTES} routes")
        self.domain = domain
        self.routes = list(routes)
        self.style = dict(style) if style else {}
        self.version = version
        self._compiled = []
        for route in self.routes:
            if len(route.render) > MAX_TEMPLATE_LENGTH:
                raise LightscriptError("render template too long")
            try:
                self._compiled.append(route.compiled())
            except re.error as exc:
                raise LightscriptError(
                    f"bad route pattern {route.pattern!r}: {exc}"
                ) from exc

    # ------------------------------------------------------------------
    # Serialisation (this IS the code blob payload)
    # ------------------------------------------------------------------

    def to_json(self) -> bytes:
        """Serialise to the code-blob payload."""
        obj = {
            "version": self.version,
            "domain": self.domain,
            "style": self.style,
            "routes": [
                {
                    "pattern": route.pattern,
                    "fetches": list(route.fetches),
                    "render": route.render,
                    "prompts": list(route.prompts),
                }
                for route in self.routes
            ],
        }
        return json.dumps(obj, separators=(",", ":"), sort_keys=True).encode("utf-8")

    @classmethod
    def from_json(cls, payload: bytes) -> "LightscriptProgram":
        """Parse and validate a code-blob payload.

        Raises:
            LightscriptError: on malformed or hostile input.
        """
        try:
            obj = json.loads(payload.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise LightscriptError(f"malformed program JSON: {exc}") from exc
        if not isinstance(obj, dict):
            raise LightscriptError("program must be a JSON object")
        try:
            routes = [
                Route(
                    pattern=str(entry["pattern"]),
                    fetches=tuple(str(f) for f in entry.get("fetches", [])),
                    render=str(entry.get("render", "")),
                    prompts=tuple(str(p) for p in entry.get("prompts", [])),
                )
                for entry in obj["routes"]
            ]
            return cls(
                domain=str(obj["domain"]),
                routes=routes,
                style=obj.get("style") or {},
                version=int(obj.get("version", LIGHTSCRIPT_VERSION)),
            )
        except (KeyError, TypeError) as exc:
            raise LightscriptError(f"program structure invalid: {exc}") from exc

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def match(self, rest: str):
        """Find the first route matching a path remainder.

        Returns:
            ``(route, match_object)`` or ``(None, None)``.
        """
        for route, pattern in zip(self.routes, self._compiled):
            found = pattern.search(rest)
            if found:
                return route, found
        return None, None

    def _substitute(self, template: str, match, storage: Dict[str, Any],
                    query: Dict[str, str],
                    data: Optional[List[Optional[Dict[str, Any]]]] = None) -> str:
        def resolve(placeholder: str) -> str:
            name, _, default = placeholder.partition("|")
            name = name.strip()
            if name.isdigit():
                try:
                    value = match.group(int(name)) if match else None
                except IndexError:
                    value = None
                return value if value is not None else default
            if name.startswith("local."):
                value = storage.get(name[len("local."):])
                return _stringify(value) if value is not None else default
            if name.startswith("query."):
                return query.get(name[len("query."):], default)
            if name.startswith("data"):
                head, _, field_path = name.partition(".")
                try:
                    index = int(head[len("data"):])
                except ValueError:
                    return default
                if data is None or not 0 <= index < len(data) or data[index] is None:
                    return default
                value = _navigate(data[index], field_path)
                return _stringify(value) if value is not None else default
            return default

        return _PLACEHOLDER_RE.sub(lambda m: resolve(m.group(1)), template)

    def plan_fetches(self, route: Route, match, storage: Dict[str, Any],
                     query: Dict[str, str], budget: int) -> List[str]:
        """Expand a route's fetch templates into concrete data paths.

        Raises:
            BudgetExceededError: if the route asks for more fetches than the
                universe's fixed per-page budget — the §3.2 invariant the
                browser must enforce.
        """
        if len(route.fetches) > budget:
            raise BudgetExceededError(
                f"route {route.pattern!r} plans {len(route.fetches)} fetches; "
                f"universe budget is {budget}"
            )
        return [
            self._substitute(template, match, storage, query)
            for template in route.fetches
        ]

    def render(self, route: Route, match, storage: Dict[str, Any],
               query: Dict[str, str],
               data: List[Optional[Dict[str, Any]]]) -> str:
        """Produce the page text from the fetched data blobs."""
        return self._substitute(route.render, match, storage, query, data)


def _navigate(obj: Any, field_path: str) -> Any:
    """Walk dotted field access into parsed JSON (dicts and list indices)."""
    if not field_path:
        return obj
    current = obj
    for part in field_path.split("."):
        if isinstance(current, dict):
            current = current.get(part)
        elif isinstance(current, list) and part.isdigit():
            index = int(part)
            current = current[index] if index < len(current) else None
        else:
            return None
        if current is None:
            return None
    return current


def _stringify(value: Any) -> str:
    """Render a JSON value into page text."""
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, float)):
        return str(value)
    if isinstance(value, list):
        return "\n".join(_stringify(item) for item in value)
    if isinstance(value, dict):
        return json.dumps(value, sort_keys=True)
    return ""


__all__ = ["LightscriptProgram", "Route", "LIGHTSCRIPT_VERSION"]
