"""Rule configuration and the analyzer entry point.

``DEFAULT_SOURCES`` is the repo's secret-source inventory — the list
DESIGN.md documents. Sources are declared per module (matched by path
glob) so that e.g. ``slot`` is a secret inside the ZLTP *client* (the
querier, whose slot choice must not leak) but public inside the server
(which legitimately branches on the slots it was openly asked to
store at publish time).

The wire-shape rule also lives here: every ``answer``/``answer_batch``
on a registered backend server class (registry membership via
:func:`repro.core.backend.registered_server_class_names`, with the
legacy ``*ModeServer`` name pattern kept as a safety net) must return
through an approved fixed-slot constructor (``pack_u64``, ``aead.seal``,
delegation to the PIR core or to ``answer`` itself) — never raw
variable-length bytes it assembled ad hoc, which is how a
secret-dependent response size would sneak onto the wire. The companion
``backend-registry`` rule closes the rename loophole from the other
side: a class in the ``repro`` tree *shaped* like a mode server
(defining both ``answer`` and ``hello_params``) that is not registered
is itself a finding, so an ad-hoc server can never silently drop out of
wire-shape coverage.

The taint walk also drives the ``telemetry-leak`` rule (sinks in
:mod:`repro.analysis.taint`): observability calls — ``span(...)``,
``annotate``/``inc``/``set``/``observe``/``labels``, logger methods —
must never receive a secret-tainted value, so the telemetry layer added
for the paper's performance accounting cannot itself become a side
channel.

:func:`analyze_paths` ties the rule families together with pragma
and baseline suppression and returns a :class:`AnalysisResult`.
"""

from __future__ import annotations

import ast
import os
import re
from dataclasses import dataclass, field
from fnmatch import fnmatch
from typing import Dict, List, Optional, Sequence

from repro.analysis.lockcheck import LockCheck
from repro.analysis.report import (
    Finding,
    Pragma,
    apply_baseline,
    apply_pragmas,
    load_baseline,
    parse_pragmas,
)
from repro.analysis.taint import ModuleSources, ModuleTaint

#: Per-module secret-source declarations (path glob → sources).
DEFAULT_SOURCES: Dict[str, ModuleSources] = {
    # DPF dealing: the point alpha and the payload beta are the client's
    # query secrets; fresh seeds are secret until split into keys.
    "*/crypto/dpf.py": ModuleSources(
        params={"gen_dpf": ["alpha", "value"],
                "gen_dpf_batch": ["alphas", "values"]},
        source_calls={"random_seed", "random_seeds"},
    ),
    # AEAD: keys and plaintexts never drive control flow.
    "*/crypto/aead.py": ModuleSources(
        params={"seal": ["key", "plaintext"], "open_sealed": ["key"],
                "_subkeys": ["key"], "_tag": ["mac_key"]},
        source_calls={"generate_key"},
    ),
    "*/crypto/keys.py": ModuleSources(
        params={"_derive": ["key"], "__init__": ["master_secret"]},
        secret_attrs={"_master"},
    ),
    "*/crypto/chacha.py": ModuleSources(
        params={"chacha20_block": ["keys"], "chacha20_rows": ["rows"],
                "chacha20_stream": ["key"], "xor_stream": ["key", "data"]},
    ),
    # Merkle verification runs client-side over fetched secret content.
    "*/crypto/merkle.py": ModuleSources(
        params={"leaf_hash": ["data"], "verify_proof": ["data"]},
    ),
    # Cuckoo: client-side probe derivation must be key-oblivious.
    "*/crypto/cuckoo.py": ModuleSources(
        params={"CuckooTable.insert": ["key"],
                "CuckooTable.candidates": ["key"]},
    ),
    "*/crypto/lwe.py": ModuleSources(
        params={"LwePirClient.query": ["column"]},
    ),
    "*/crypto/hashing.py": ModuleSources(
        params={"KeyedHash.slot": ["key"]},
    ),
    # PIR clients: the queried index is the whole secret.
    "*/pir/twoserver.py": ModuleSources(
        params={"TwoServerPirClient.query": ["index"],
                "TwoServerPirClient.fetch": ["index"]},
    ),
    "*/pir/keyword.py": ModuleSources(
        params={"key_digest": ["key"], "decode_record": ["key"],
                "KeywordPirClient.candidate_slots": ["key"],
                "KeywordPirClient.get": ["key"]},
    ),
    # ORAM: the logical address is the secret the trace must not reflect.
    "*/oram/path_oram.py": ModuleSources(
        params={"PathOram.access": ["address"], "PathOram.read": ["address"],
                "PathOram.write": ["address"], "PathOram.update": ["address"],
                "DictPositionMap.get_and_set": ["address"]},
    ),
    "*/oram/position_map.py": ModuleSources(
        params={"get_and_set": ["address"]},
    ),
    "*/oram/enclave.py": ModuleSources(
        params={"oblivious_read": ["address"], "oblivious_write": ["address"],
                "EnclaveZltpStore.get": ["key"]},
    ),
    # ZLTP client endpoint: requested slots/keys are secrets.
    "*/core/zltp/client.py": ModuleSources(
        params={"ZltpClient.get_slot": ["slot"],
                "ZltpClient.get_slots": ["slots"],
                "ZltpClient.candidate_slots": ["key"],
                "ZltpClient.get": ["key"],
                "ZltpClient.get_many": ["keys"]},
    ),
    # Mode clients build the query payloads from the secret slot.
    "*/core/zltp/modes.py": ModuleSources(
        params={"queries_for_slot": ["slot"],
                "queries_for_slots": ["slots"]},
    ),
    # The registry's burst helper sees the same secret slots.
    "*/core/backend.py": ModuleSources(
        params={"queries_for_slots": ["slots"]},
    ),
}

#: Legacy name pattern for mode-server classes: kept as a safety net so
#: an unimported (hence unregistered) server class is still checked.
_MODE_SERVER_RE = re.compile(r".*ModeServer$")
_ANSWER_METHODS = {"answer", "answer_batch"}

#: Methods that make a class "shaped" like a backend server: defining
#: both is the wire-facing surface the registry tracks.
_SERVER_SHAPE_METHODS = {"answer", "hello_params"}

#: Calls a mode-server answer path may return through: the fixed-slot
#: serializers and delegation to the PIR core / the sibling method.
APPROVED_ANSWER_CALLS = {"pack_u64", "seal", "answer", "answer_batch"}


def registry_server_names() -> set:
    """Class names of every registered backend server (live registry).

    Imported lazily so the analyzer stays usable on trees that do not
    ship the backend registry at all.
    """
    try:
        from repro.core.backend import registered_server_class_names
    except ImportError:  # pragma: no cover - analyzer used standalone
        return set()
    return set(registered_server_class_names())


class WireShape:
    """Check that backend-server answer paths use fixed-slot helpers.

    Coverage is registry membership first: any top-level class whose name
    matches a registered backend's server class is checked, wherever it
    lives and whatever it is called. The old ``*ModeServer`` name pattern
    is retained as a safety net for classes the current process never
    imported. Classes in the ``repro`` tree that are *shaped* like a mode
    server but registered nowhere get a ``backend-registry`` finding
    instead — an ad-hoc server must not exist outside the registry's
    (and therefore this rule's) sight.
    """

    def __init__(self, tree: ast.Module, path: str):
        self.tree = tree
        self.path = path
        self.findings: List[Finding] = []

    def run(self) -> List[Finding]:
        registered = registry_server_names()
        for node in self.tree.body:
            if not isinstance(node, ast.ClassDef) or self._is_protocol(node):
                continue
            if node.name in registered or _MODE_SERVER_RE.match(node.name):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and \
                            item.name in _ANSWER_METHODS:
                        self._check_method(node.name, item)
            elif self._server_shaped(node) and self._in_repro_tree():
                self.findings.append(Finding(
                    rule="backend-registry", path=self.path,
                    line=node.lineno, col=node.col_offset,
                    symbol=node.name,
                    message="mode-server-shaped class (answer + "
                            "hello_params) is not registered with "
                            "repro.core.backend — register it via "
                            "declare_backend so wire-shape coverage "
                            "cannot be silently dropped",
                    def_line=node.lineno,
                ))
        return self.findings

    @staticmethod
    def _is_protocol(node: ast.ClassDef) -> bool:
        """Whether the class is a typing Protocol (interface, not a server)."""
        for base in node.bases:
            name = base.id if isinstance(base, ast.Name) else \
                base.attr if isinstance(base, ast.Attribute) else None
            if name == "Protocol":
                return True
        return False

    @staticmethod
    def _server_shaped(node: ast.ClassDef) -> bool:
        """Whether the class defines the wire-facing server surface."""
        methods = {item.name for item in node.body
                   if isinstance(item, ast.FunctionDef)}
        return _SERVER_SHAPE_METHODS <= methods

    def _in_repro_tree(self) -> bool:
        """Whether this module is part of the shipped ``repro`` package."""
        normalized = self.path.replace(os.sep, "/")
        return "/repro/" in normalized or normalized.startswith("repro/")

    def _check_method(self, cls: str, func: ast.FunctionDef) -> None:
        approved_names = set()
        for stmt in ast.walk(func):
            if isinstance(stmt, ast.Assign) and \
                    self._approved(stmt.value, approved_names):
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        approved_names.add(target.id)
        for stmt in ast.walk(func):
            if isinstance(stmt, ast.Return) and stmt.value is not None:
                if not self._approved(stmt.value, approved_names):
                    self.findings.append(Finding(
                        rule="wire-shape", path=self.path,
                        line=stmt.lineno, col=stmt.col_offset,
                        symbol=f"{cls}.{func.name}",
                        message="answer path must return through a "
                                "fixed-slot helper (pack_u64/seal/PIR "
                                "answer), not ad-hoc bytes",
                        def_line=func.lineno,
                    ))

    def _approved(self, expr: ast.expr, approved_names: set) -> bool:
        if isinstance(expr, ast.Call):
            func = expr.func
            name = func.id if isinstance(func, ast.Name) else \
                func.attr if isinstance(func, ast.Attribute) else None
            return name in APPROVED_ANSWER_CALLS
        if isinstance(expr, ast.ListComp):
            return self._approved(expr.elt, approved_names)
        if isinstance(expr, (ast.List, ast.Tuple)):
            return all(self._approved(e, approved_names) for e in expr.elts)
        if isinstance(expr, ast.Name):
            return expr.id in approved_names
        return False


def sources_for(path: str,
                overrides: Optional[Dict[str, ModuleSources]] = None,
                ) -> ModuleSources:
    """Resolve the source declarations for a module path."""
    table = DEFAULT_SOURCES if overrides is None else overrides
    normalized = path.replace(os.sep, "/")
    for pattern, sources in table.items():
        if fnmatch(normalized, pattern):
            return sources
    return ModuleSources()


def analyze_source(source: str, path: str,
                   sources: Optional[ModuleSources] = None,
                   ) -> List[Finding]:
    """Run all three rule families over one module's source text."""
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [Finding(rule="parse-error", path=path,
                        line=exc.lineno or 0, col=exc.offset or 0,
                        symbol="<module>", message=str(exc.msg))]
    if sources is None:
        sources = sources_for(path)
    findings: List[Finding] = []
    findings.extend(ModuleTaint(tree, source, path, sources).run())
    findings.extend(LockCheck(tree, source, path).run())
    findings.extend(WireShape(tree, path).run())
    return findings


@dataclass
class AnalysisResult:
    """Everything one analyzer run produced."""

    files: List[str] = field(default_factory=list)
    findings: List[Finding] = field(default_factory=list)  # unsuppressed
    suppressed: List[Finding] = field(default_factory=list)
    baselined: List[Finding] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.findings


def collect_files(paths: Sequence[str]) -> List[str]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    out: List[str] = []
    for path in paths:
        if os.path.isdir(path):
            for root, _dirs, names in os.walk(path):
                for name in sorted(names):
                    if name.endswith(".py"):
                        out.append(os.path.join(root, name))
        elif path.endswith(".py"):
            out.append(path)
    return sorted(set(out))


def analyze_paths(paths: Sequence[str],
                  baseline_path: Optional[str] = None,
                  overrides: Optional[Dict[str, ModuleSources]] = None,
                  whole_program: bool = True,
                  cache_path: str = "",
                  ) -> AnalysisResult:
    """Analyze files/directories, applying pragmas and the baseline.

    By default the whole-program engine runs on top of the per-module
    rules: cross-module taint flows, lock-order cycles, thread escapes,
    and caller-side constant-time findings are merged in (deduplicated
    positionally against the intra findings, which keep their plainer
    messages). ``whole_program=False`` restores the PR-2 behaviour;
    ``cache_path`` names an on-disk summary cache (see
    :mod:`repro.analysis.wholeprogram.cache`).
    """
    result = AnalysisResult()
    raw: List[Finding] = []
    pragmas_by_path: Dict[str, List[Pragma]] = {}
    file_sources: List[tuple] = []
    for filename in collect_files(paths):
        with open(filename, "r", encoding="utf-8") as handle:
            source = handle.read()
        result.files.append(filename)
        file_sources.append((filename, source))
        pragmas, bad_pragmas = parse_pragmas(source, filename)
        pragmas_by_path[filename] = pragmas
        raw.extend(bad_pragmas)
        module_sources = None if overrides is None else \
            sources_for(filename, overrides)
        raw.extend(analyze_source(source, filename, sources=module_sources))
    if whole_program and file_sources:
        from repro.analysis.wholeprogram.engine import analyze_project
        seen = {(f.rule, f.path, f.line, f.col) for f in raw}
        for finding in analyze_project(
                file_sources,
                lambda path: sources_for(path, overrides),
                cache_path=cache_path):
            if (finding.rule, finding.path, finding.line,
                    finding.col) not in seen:
                raw.append(finding)
    kept, result.suppressed = apply_pragmas(raw, pragmas_by_path)
    entries, bad_baseline = load_baseline(baseline_path)
    kept.extend(bad_baseline)
    result.findings, result.baselined = apply_baseline(kept, entries)
    return result


__all__ = [
    "DEFAULT_SOURCES",
    "APPROVED_ANSWER_CALLS",
    "registry_server_names",
    "WireShape",
    "AnalysisResult",
    "sources_for",
    "analyze_source",
    "analyze_paths",
    "collect_files",
]
