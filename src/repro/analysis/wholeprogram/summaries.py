"""Per-function summary extraction for the whole-program engine.

The intra-module walk (:mod:`repro.analysis.taint`) computes a *fixed*
taint per expression given the module's declared sources. Crossing
module boundaries needs something stronger: a summary that describes a
function's behaviour as a function of its **callers'** arguments. The
lattice element here is :class:`PTaint`:

- ``secret`` / ``roots`` — definitely secret, with labels naming the
  root sources (for witness chains);
- ``params`` — secret *iff* one of these own parameters is secret;
- ``length`` / ``length_roots`` / ``length_params`` — the weak
  length-of-secret taint, same split;
- ``is_bytes`` — byte-string hint for the compare-timing rule.

Each function's walk produces a :class:`FunctionSummary`:

- ``returns`` — the parametric taint of the return value
  (taints-return);
- ``taints_params`` — parameters the function stores secrets into
  (taints-params);
- ``obs`` — conditional observation points: a branch / bytes-compare /
  serialization sink / telemetry sink that leaks **if** a given
  parameter turns out to carry a secret (or unconditionally, when a
  definite root reaches it);
- ``calls`` — resolved call edges with per-parameter argument taints
  and the set of locks held at the call (locks-acquired context);
- ``lock_edges`` / ``acquires`` — the local lock-order graph;
- ``escapes`` — closure captures / thread-target arguments that hand
  ``owned-by:``/``guarded-by:`` state to another thread or process
  (escapes-to-thread/process).

Summaries compose: call results substitute the callee's ``returns``
summary, so extraction iterates to a fixpoint (monotone joins over
finite sets — convergence is bounded; the driver caps passes).

The crypto boundary is made explicit in :data:`DECLASSIFIERS`: functions
whose return value is public *by cryptographic argument* even though
their inputs are secret (DPF key generation, AEAD sealing, stream-cipher
output). Without this inventory every wire message the client sends
would count as secret and the interprocedural engine would drown the
codebase in false positives — with it, the taint stops exactly where
the paper's §2 argument says it stops.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.analysis.taint import (
    BYTES_PRODUCERS,
    SANITIZERS,
    TELEMETRY_METHOD_SINKS,
    TELEMETRY_NAME_SINKS,
    ModuleSources,
)
from repro.analysis.wholeprogram.callgraph import Project

#: Functions whose *return value* is public regardless of secret inputs:
#: the cryptographic declassification boundary (each entry is a bare name
#: or a fully-qualified function id). DESIGN.md documents the argument
#: for each entry; adding one is a security-review event.
DECLASSIFIERS = {
    # DPF keys are individually pseudorandom — the §2 two-server
    # argument. Distinctive names are listed bare as well as qualified so
    # the boundary survives module moves and unresolved receivers.
    "gen_dpf",
    "gen_dpf_batch",
    "repro.crypto.dpf:gen_dpf",
    "repro.crypto.dpf:gen_dpf_batch",
    # AEAD ciphertexts/tags are public; the key never is. ("seal" stays
    # qualified: the bare name is too generic to declassify globally.)
    "repro.crypto.aead:seal",
    # Stream-cipher output is uniform under a fresh nonce.
    "chacha20_stream",
    "chacha20_block",
    "xor_stream",
    "repro.crypto.chacha:chacha20_stream",
    "repro.crypto.chacha:chacha20_block",
    "repro.crypto.chacha:xor_stream",
    # LWE ciphertext queries: RLWE-hard to distinguish from uniform.
    "repro.crypto.lwe:LwePirClient.query",
    # Mode clients emit wire payloads built from DPF keys / LWE queries.
    "queries_for_slot",
    "queries_for_slots",
    "repro.core.zltp.modes:queries_for_slot",
    "repro.core.zltp.modes:queries_for_slots",
    "repro.core.backend:queries_for_slots",
    "repro.pir.twoserver:TwoServerPirClient.query",
    # Path ORAM position maps return uniformly random leaf labels whose
    # distribution is independent of the looked-up address — revealing
    # the fetched path is the ORAM security argument. Bare name: the
    # position map is usually reached through an untyped protocol field.
    "get_and_set",
    "repro.oram.position_map:get_and_set",
    "repro.oram.path_oram:DictPositionMap.get_and_set",
}

#: Thread/process constructors whose ``target=`` escapes this thread.
_SPAWN_CONSTRUCTORS = {"Thread", "Process", "Timer"}
#: Executor-style methods whose first argument escapes this thread.
_SPAWN_METHODS = {"submit", "apply_async", "run_in_executor",
                  "start_new_thread", "defer_to_thread"}

_LOCKISH_RE = re.compile(r"lock", re.IGNORECASE)
_SECRET_LINE_RE = re.compile(r"#\s*taint:\s*secret\b")
_ATTR_DECL_RE = re.compile(
    r"self\.(\w+)\s*(?::[^=]*)?=.*#\s*guarded-by:\s*(\w+)"
)
_ATTR_OWNED_RE = re.compile(
    r"self\.(\w+)\s*(?::[^=]*)?=.*#\s*owned-by:\s*(\w+)"
)
_RLOCK_RE = re.compile(r"self\.(\w*lock\w*)\s*(?::[^=]*)?=.*RLock\(")

#: In-place mutator methods (mirror of lockcheck.MUTATORS).
_MUTATORS = {
    "append", "add", "discard", "remove", "pop", "extend", "clear",
    "update", "insert", "setdefault", "popitem", "appendleft",
}

EMPTY: FrozenSet[str] = frozenset()


@dataclass(frozen=True)
class PTaint:
    """Parametric taint: definite roots plus parameter conditionals."""

    secret: bool = False
    roots: FrozenSet[str] = EMPTY
    params: FrozenSet[str] = EMPTY
    length: bool = False
    length_roots: FrozenSet[str] = EMPTY
    length_params: FrozenSet[str] = EMPTY
    is_bytes: bool = False

    def __or__(self, other: "PTaint") -> "PTaint":
        return PTaint(
            self.secret or other.secret,
            self.roots | other.roots,
            self.params | other.params,
            self.length or other.length,
            self.length_roots | other.length_roots,
            self.length_params | other.length_params,
            self.is_bytes or other.is_bytes,
        )

    @property
    def any_value(self) -> bool:
        return self.secret or bool(self.params)

    @property
    def any_length(self) -> bool:
        return self.length or bool(self.length_params)

    def to_dict(self) -> dict:
        return {
            "secret": self.secret, "roots": sorted(self.roots),
            "params": sorted(self.params), "length": self.length,
            "length_roots": sorted(self.length_roots),
            "length_params": sorted(self.length_params),
            "is_bytes": self.is_bytes,
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "PTaint":
        return cls(
            bool(raw.get("secret")), frozenset(raw.get("roots", ())),
            frozenset(raw.get("params", ())), bool(raw.get("length")),
            frozenset(raw.get("length_roots", ())),
            frozenset(raw.get("length_params", ())),
            bool(raw.get("is_bytes")),
        )


CLEAN = PTaint()


@dataclass
class Obs:
    """One conditional observation point inside a function."""

    kind: str            # branch | compare | len-sink | telemetry
    line: int
    col: int
    requires: FrozenSet[str]      # fires if any of these params is secret
    requires_len: FrozenSet[str]  # fires if any of these params is a
    #                               secret-derived *length*
    roots: FrozenSet[str]         # fires unconditionally, from these roots
    detail: str = ""

    def to_dict(self) -> dict:
        return {
            "kind": self.kind, "line": self.line, "col": self.col,
            "requires": sorted(self.requires),
            "requires_len": sorted(self.requires_len),
            "roots": sorted(self.roots), "detail": self.detail,
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "Obs":
        return cls(raw["kind"], raw["line"], raw["col"],
                   frozenset(raw.get("requires", ())),
                   frozenset(raw.get("requires_len", ())),
                   frozenset(raw.get("roots", ())), raw.get("detail", ""))


@dataclass
class CallEdge:
    """One resolved call site: who is called, with what, holding what."""

    callee: str
    line: int
    col: int
    args: Dict[str, PTaint]       # callee param name -> caller-side taint
    held: Tuple[str, ...] = ()    # canonical lock ids held at the call

    def to_dict(self) -> dict:
        return {
            "callee": self.callee, "line": self.line, "col": self.col,
            "args": {k: v.to_dict() for k, v in self.args.items()},
            "held": list(self.held),
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "CallEdge":
        return cls(raw["callee"], raw["line"], raw["col"],
                   {k: PTaint.from_dict(v)
                    for k, v in raw.get("args", {}).items()},
                   tuple(raw.get("held", ())))


@dataclass
class EscapeSite:
    """Annotated state handed to another thread/process."""

    line: int
    col: int
    attr: str
    annotation: str      # "owned-by" | "guarded-by"
    owner: str           # the declared owner prefix / lock name
    mechanism: str       # closure | bound-method | thread-arg

    def to_dict(self) -> dict:
        return {"line": self.line, "col": self.col, "attr": self.attr,
                "annotation": self.annotation, "owner": self.owner,
                "mechanism": self.mechanism}

    @classmethod
    def from_dict(cls, raw: dict) -> "EscapeSite":
        return cls(raw["line"], raw["col"], raw["attr"], raw["annotation"],
                   raw["owner"], raw["mechanism"])


@dataclass
class FunctionSummary:
    """Everything the interprocedural phase needs to know about one def."""

    fid: str
    path: str
    qualname: str
    def_line: int
    params: List[str]
    returns: PTaint = CLEAN
    taints_params: Dict[str, PTaint] = field(default_factory=dict)
    obs: List[Obs] = field(default_factory=list)
    calls: List[CallEdge] = field(default_factory=list)
    lock_edges: List[Tuple[str, str, int]] = field(default_factory=list)
    acquires: FrozenSet[str] = EMPTY
    escapes: List[EscapeSite] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "fid": self.fid, "path": self.path, "qualname": self.qualname,
            "def_line": self.def_line, "params": list(self.params),
            "returns": self.returns.to_dict(),
            "taints_params": {k: v.to_dict()
                              for k, v in self.taints_params.items()},
            "obs": [o.to_dict() for o in self.obs],
            "calls": [c.to_dict() for c in self.calls],
            "lock_edges": [list(edge) for edge in self.lock_edges],
            "acquires": sorted(self.acquires),
            "escapes": [e.to_dict() for e in self.escapes],
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "FunctionSummary":
        return cls(
            fid=raw["fid"], path=raw["path"], qualname=raw["qualname"],
            def_line=raw["def_line"], params=list(raw.get("params", ())),
            returns=PTaint.from_dict(raw.get("returns", {})),
            taints_params={k: PTaint.from_dict(v)
                           for k, v in raw.get("taints_params", {}).items()},
            obs=[Obs.from_dict(o) for o in raw.get("obs", ())],
            calls=[CallEdge.from_dict(c) for c in raw.get("calls", ())],
            lock_edges=[tuple(e) for e in raw.get("lock_edges", ())],
            acquires=frozenset(raw.get("acquires", ())),
            escapes=[EscapeSite.from_dict(e) for e in raw.get("escapes", ())],
        )


@dataclass
class ModuleAnnotations:
    """Per-module ``guarded-by:`` / ``owned-by:`` declarations."""

    guards: Dict[str, str] = field(default_factory=dict)
    owners: Dict[str, str] = field(default_factory=dict)
    reentrant_locks: FrozenSet[str] = EMPTY
    secret_lines: FrozenSet[int] = frozenset()

    @classmethod
    def parse(cls, source: str) -> "ModuleAnnotations":
        guards: Dict[str, str] = {}
        owners: Dict[str, str] = {}
        reentrant = set()
        secret_lines = set()
        for lineno, text in enumerate(source.splitlines(), start=1):
            guard = _ATTR_DECL_RE.search(text)
            if guard is not None:
                guards[guard.group(1)] = guard.group(2)
            owned = _ATTR_OWNED_RE.search(text)
            if owned is not None:
                owners[owned.group(1)] = owned.group(2)
            rlock = _RLOCK_RE.search(text)
            if rlock is not None:
                reentrant.add(rlock.group(1))
            if _SECRET_LINE_RE.search(text):
                secret_lines.add(lineno)
        return cls(guards, owners, frozenset(reentrant),
                   frozenset(secret_lines))


def _is_raise_only(stmts: Sequence[ast.stmt]) -> bool:
    return bool(stmts) and all(isinstance(s, ast.Raise) for s in stmts)


def _has_bytes_literal(expr: ast.expr) -> bool:
    """Whether an expression visibly evaluates to bytes (literal-rooted)."""
    for node in ast.walk(expr):
        if isinstance(node, ast.Constant) and \
                isinstance(node.value, (bytes, bytearray)):
            return True
    return False


def _final_name(expr: ast.expr) -> Optional[str]:
    if isinstance(expr, ast.Name):
        return expr.id
    if isinstance(expr, ast.Attribute):
        return expr.attr
    return None


class SummaryBuilder:
    """Extracts :class:`FunctionSummary` objects for one project.

    Call :meth:`extract_module` per module (repeatedly — the caller
    drives the fixpoint) with the current cross-module summary pool in
    ``self.summaries``.
    """

    def __init__(self, project: Project,
                 sources_for_path: Callable[[str], ModuleSources]):
        self.project = project
        self.sources_for_path = sources_for_path
        self.summaries: Dict[str, FunctionSummary] = {}
        #: cid -> attr -> definite PTaint (cross-method secret attrs).
        self.attr_taints: Dict[str, Dict[str, PTaint]] = {}
        #: module name -> parsed annotations.
        self.annotations: Dict[str, ModuleAnnotations] = {}
        #: fid -> {callee fid: returns-digest} (cache invalidation).
        self.deps: Dict[str, Dict[str, str]] = {}
        self._module_consts: Dict[str, Dict[str, PTaint]] = {}

    def consts_for(self, module: str) -> Dict[str, PTaint]:
        """Module-level names bound to bytes-like constants.

        The compare-timing rule needs the bytes-ness of the *other*
        operand; ``EXPECTED = b"..."`` at module scope is the common
        shape for a reference digest.
        """
        if module not in self._module_consts:
            out: Dict[str, PTaint] = {}
            info = self.project.modules.get(module)
            if info is not None:
                for stmt in info.tree.body:
                    if isinstance(stmt, ast.Assign) and \
                            len(stmt.targets) == 1 and \
                            isinstance(stmt.targets[0], ast.Name) and \
                            _has_bytes_literal(stmt.value):
                        out[stmt.targets[0].id] = PTaint(is_bytes=True)
            self._module_consts[module] = out
        return self._module_consts[module]

    def annotations_for(self, module: str) -> ModuleAnnotations:
        if module not in self.annotations:
            info = self.project.modules.get(module)
            self.annotations[module] = ModuleAnnotations.parse(
                info.source if info is not None else "")
        return self.annotations[module]

    def extract_module(self, module: str) -> bool:
        """Extract/refresh summaries for one module; True if any changed."""
        info = self.project.modules.get(module)
        if info is None:
            return False
        annotations = self.annotations_for(module)
        sources = self.sources_for_path(info.path)
        changed = False
        for fid, finfo in self.project.functions.items():
            if finfo.module != module:
                continue
            walker = _Walk(self, info, finfo, sources, annotations)
            summary = walker.run()
            previous = self.summaries.get(fid)
            if previous is None or previous.to_dict() != summary.to_dict():
                changed = True
            self.summaries[fid] = summary
            self.deps[fid] = walker.dep_digests
        return changed

    def returns_digest(self, fid: str) -> str:
        summary = self.summaries.get(fid)
        if summary is None:
            return "-"
        return repr(sorted(summary.returns.to_dict().items()))


class _Walk:
    """One parametric walk over one function body."""

    def __init__(self, builder: SummaryBuilder, module, finfo,
                 sources: ModuleSources, annotations: ModuleAnnotations):
        self.builder = builder
        self.project = builder.project
        self.module = module
        self.finfo = finfo
        self.sources = sources
        self.annotations = annotations
        self.env: Dict[str, PTaint] = {}
        self.type_env: Dict[str, str] = {}
        self.held: Tuple[str, ...] = ()
        self.summary = FunctionSummary(
            fid=finfo.fid, path=module.path, qualname=finfo.qualname,
            def_line=finfo.node.lineno, params=list(finfo.params),
        )
        self._lock_edges = set()
        self._acquires = set()
        self._obs_seen = set()
        self.dep_digests: Dict[str, str] = {}
        self.self_cid = (f"{finfo.module}:{finfo.class_name}"
                         if finfo.class_name else None)
        # Seed parameters: every param is conditionally tainted by itself;
        # declared source params are definite roots.
        declared = sources.params_for(finfo.qualname, finfo.name)
        for param in finfo.params:
            if param in ("self", "cls"):
                continue
            taint = PTaint(params=frozenset({param}))
            if param in declared:
                taint = taint | PTaint(
                    secret=True,
                    roots=frozenset({f"{finfo.fid} param {param} "
                                     f"[declared secret source]"}))
            self.env[param] = taint
        for const_name, const_taint in \
                builder.consts_for(finfo.module).items():
            self.env.setdefault(const_name, const_taint)
        for attr in sources.secret_attrs:
            self.env[f"self.{attr}"] = PTaint(
                secret=True,
                roots=frozenset({f"{finfo.fid} self.{attr} "
                                 f"[declared secret attr]"}))
        # Cross-method attr taints discovered in earlier passes.
        if self.self_cid is not None:
            for attr, taint in builder.attr_taints.get(
                    self.self_cid, {}).items():
                key = f"self.{attr}"
                self.env[key] = self.env.get(key, CLEAN) | taint
        # Instance-attribute types recorded from __init__ walks.
        if self.self_cid is not None:
            for attr, cid in _class_attr_types(
                    self.project, self.self_cid).items():
                self.type_env[f"self.{attr}"] = cid
        # Parameter annotations type the call-resolution environment.
        for arg in (finfo.node.args.posonlyargs + finfo.node.args.args
                    + finfo.node.args.kwonlyargs):
            cid = _annotation_cid(self.project, finfo.module, arg.annotation)
            if cid is not None:
                self.type_env[arg.arg] = cid

    # ------------------------------------------------------------------

    def run(self) -> FunctionSummary:
        # Two sweeps: the first enriches the environment (assignments
        # before/after uses), the second records the final observation
        # points and call edges against that enriched state.
        for _ in range(2):
            self.held = ()
            self.summary.obs = []
            self.summary.calls = []
            self.summary.escapes = []
            self._obs_seen.clear()
            for stmt in self.finfo.node.body:
                self.exec_stmt(stmt)
        self.summary.lock_edges = sorted(self._lock_edges)
        self.summary.acquires = frozenset(self._acquires)
        return self.summary

    def note_obs(self, kind: str, node: ast.AST, requires: FrozenSet[str],
                 requires_len: FrozenSet[str], roots: FrozenSet[str],
                 detail: str = "") -> None:
        if not (requires or requires_len or roots):
            return
        key = (kind, getattr(node, "lineno", 0), getattr(node, "col_offset", 0))
        if key in self._obs_seen:
            return
        self._obs_seen.add(key)
        self.summary.obs.append(Obs(
            kind=kind, line=getattr(node, "lineno", 0),
            col=getattr(node, "col_offset", 0),
            requires=requires - {"self", "cls"},
            requires_len=requires_len - {"self", "cls"},
            roots=roots, detail=detail,
        ))

    # -- statements ----------------------------------------------------

    def exec_block(self, stmts: Sequence[ast.stmt]) -> None:
        for stmt in stmts:
            self.exec_stmt(stmt)

    def exec_stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Assign):
            taint = self.eval_expr(stmt.value) | self.line_taint(stmt)
            for target in stmt.targets:
                self.assign(target, taint, stmt.value)
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                taint = self.eval_expr(stmt.value) | self.line_taint(stmt)
                self.assign(stmt.target, taint, stmt.value)
        elif isinstance(stmt, ast.AugAssign):
            taint = self.eval_expr(stmt.value)
            key = self._target_key(stmt.target)
            if key is not None:
                self.env[key] = self.env.get(key, CLEAN) | taint
                self._note_param_store(key, taint)
        elif isinstance(stmt, ast.If):
            test = self.eval_expr(stmt.test)
            guard = not stmt.orelse and _is_raise_only(stmt.body)
            if not guard:
                self.note_obs("branch", stmt, test.params, EMPTY, test.roots,
                              "if condition")
            before = dict(self.env)
            self.exec_block(stmt.body)
            after_body = self.env
            self.env = dict(before)
            self.exec_block(stmt.orelse)
            self.env = self._join(after_body, self.env)
        elif isinstance(stmt, ast.While):
            test = self.eval_expr(stmt.test)
            self.note_obs("branch", stmt, test.params, EMPTY, test.roots,
                          "while condition")
            self._exec_loop(stmt.body)
            self.exec_block(stmt.orelse)
        elif isinstance(stmt, ast.For):
            self.assign(stmt.target, self.eval_expr(stmt.iter), None)
            self._exec_loop(stmt.body)
            self.exec_block(stmt.orelse)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self.summary.returns = (self.summary.returns
                                        | self.eval_expr(stmt.value))
        elif isinstance(stmt, ast.Expr):
            self.eval_expr(stmt.value)
        elif isinstance(stmt, ast.With):
            self._exec_with(stmt)
        elif isinstance(stmt, ast.Try):
            self.exec_block(stmt.body)
            for handler in stmt.handlers:
                self.exec_block(handler.body)
            self.exec_block(stmt.orelse)
            self.exec_block(stmt.finalbody)
        elif isinstance(stmt, ast.Raise):
            if stmt.exc is not None:
                self.eval_expr(stmt.exc)
        # Nested defs/classes: bodies analysed only when they escape to a
        # thread (see _check_spawn) — same scope rule as the intra walk.

    def _exec_with(self, stmt: ast.With) -> None:
        outer = self.held
        acquired_here: List[str] = []
        for item in stmt.items:
            taint = self.eval_expr(item.context_expr)
            if item.optional_vars is not None:
                self.assign(item.optional_vars, taint, None)
            lock = self._lock_id(item.context_expr)
            if lock is None:
                continue
            reentrant = lock.rsplit(".", 1)[-1] in \
                self.annotations.reentrant_locks
            for held_lock in self.held + tuple(acquired_here):
                if held_lock == lock and reentrant:
                    continue
                self._lock_edges.add((held_lock, lock, stmt.lineno))
            acquired_here.append(lock)
            self._acquires.add(lock)
        self.held = outer + tuple(acquired_here)
        self.exec_block(stmt.body)
        self.held = outer

    def _lock_id(self, expr: ast.expr) -> Optional[str]:
        """Canonical lock identity for a ``with`` context expression."""
        name = _final_name(expr)
        if name is None or not _LOCKISH_RE.search(name):
            return None
        if isinstance(expr, ast.Name):
            return f"{self.finfo.module}:{name}"
        base = expr.value if isinstance(expr, ast.Attribute) else None
        if isinstance(base, ast.Name):
            if base.id == "self" and self.self_cid is not None:
                return f"{self.self_cid}.{name}"
            cid = self.type_env.get(base.id)
            if cid is not None:
                return f"{cid}.{name}"
            target = self.project.resolve_symbol(self.finfo.module, base.id)
            if target in self.project.modules:
                return f"{target}:{name}"
        elif isinstance(base, ast.Attribute) and \
                isinstance(base.value, ast.Name) and base.value.id == "self":
            cid = self.type_env.get(f"self.{base.attr}")
            if cid is not None:
                return f"{cid}.{name}"
        # Unknown holder: scope the lock to this module + attribute name,
        # so unrelated same-named locks in other modules never merge.
        return f"{self.finfo.module}:?.{name}"

    def _exec_loop(self, body: Sequence[ast.stmt]) -> None:
        before = dict(self.env)
        self.exec_block(body)
        self.exec_block(body)
        self.env = self._join(before, self.env)

    @staticmethod
    def _join(a: Dict[str, PTaint], b: Dict[str, PTaint]) -> Dict[str, PTaint]:
        return {key: a.get(key, CLEAN) | b.get(key, CLEAN)
                for key in set(a) | set(b)}

    def line_taint(self, stmt: ast.stmt) -> PTaint:
        if stmt.lineno in self.annotations.secret_lines:
            return PTaint(secret=True, is_bytes=True, roots=frozenset(
                {f"{self.finfo.fid} line {stmt.lineno} [# taint: secret]"}))
        return CLEAN

    def _target_key(self, target: ast.expr) -> Optional[str]:
        if isinstance(target, ast.Name):
            return target.id
        if isinstance(target, ast.Attribute) and \
                isinstance(target.value, ast.Name) and \
                target.value.id == "self":
            return f"self.{target.attr}"
        return None

    def _note_param_store(self, key: str, taint: PTaint) -> None:
        """Record secrets stored into parameters (taints-params)."""
        base = key.split(".", 1)[0]
        if base in self.finfo.params and base not in ("self", "cls") \
                and "." in key and (taint.secret or taint.params):
            merged = self.summary.taints_params.get(base, CLEAN) | taint
            self.summary.taints_params[base] = merged

    def assign(self, target: ast.expr, taint: PTaint,
               value: Optional[ast.expr]) -> None:
        if isinstance(target, ast.Name):
            self.env[target.id] = taint
            if isinstance(value, ast.Call):
                resolved = self.project.resolve_call(
                    self.finfo.module, value, self.self_cid, self.type_env)
                if resolved is not None and resolved[1] is not None:
                    self.type_env[target.id] = resolved[1]
        elif isinstance(target, ast.Starred):
            self.assign(target.value, taint, None)
        elif isinstance(target, (ast.Tuple, ast.List)):
            if isinstance(value, (ast.Tuple, ast.List)) and \
                    len(value.elts) == len(target.elts):
                for sub_target, sub_value in zip(target.elts, value.elts):
                    self.assign(sub_target, self.eval_expr(sub_value),
                                sub_value)
            else:
                for sub_target in target.elts:
                    self.assign(sub_target, taint, None)
        elif isinstance(target, ast.Attribute):
            key = self._target_key(target)
            if key is not None:
                self.env[key] = taint
                self._note_param_store(key, taint)
                # Definite secrets stored on self propagate to the whole
                # class on the next fixpoint pass.
                if key.startswith("self.") and taint.secret and \
                        self.self_cid is not None:
                    attrs = self.builder.attr_taints.setdefault(
                        self.self_cid, {})
                    narrowed = PTaint(secret=True, roots=taint.roots,
                                      is_bytes=taint.is_bytes)
                    attrs[key[5:]] = attrs.get(key[5:], CLEAN) | narrowed
            elif isinstance(target.value, ast.Name) and \
                    target.value.id in self.finfo.params:
                self._note_param_store(f"{target.value.id}.{target.attr}",
                                       taint)

    # -- expressions ---------------------------------------------------

    def eval_expr(self, node: Optional[ast.expr]) -> PTaint:
        if node is None:
            return CLEAN
        if isinstance(node, ast.Name):
            return self.env.get(node.id, CLEAN)
        if isinstance(node, ast.Constant):
            return PTaint(is_bytes=isinstance(node.value, (bytes, bytearray)))
        if isinstance(node, ast.Attribute):
            if isinstance(node.value, ast.Name) and node.value.id == "self":
                return self.env.get(f"self.{node.attr}", CLEAN)
            return self.eval_expr(node.value)
        if isinstance(node, ast.Subscript):
            return self.eval_expr(node.value) | self.eval_expr(node.slice)
        if isinstance(node, ast.Compare):
            return self.eval_compare(node)
        if isinstance(node, ast.BoolOp):
            return self.union(node.values)
        if isinstance(node, ast.BinOp):
            return self.eval_expr(node.left) | self.eval_expr(node.right)
        if isinstance(node, ast.UnaryOp):
            return self.eval_expr(node.operand)
        if isinstance(node, ast.Call):
            return self.eval_call(node)
        if isinstance(node, ast.IfExp):
            test = self.eval_expr(node.test)
            self.note_obs("branch", node, test.params, EMPTY, test.roots,
                          "conditional expression")
            return (self.eval_expr(node.body) | self.eval_expr(node.orelse)
                    | PTaint(secret=test.secret, roots=test.roots,
                             params=test.params))
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            return self.union(node.elts)
        if isinstance(node, ast.Dict):
            return self.union([v for v in node.values if v is not None])
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp,
                             ast.DictComp)):
            for gen in node.generators:
                self.assign(gen.target, self.eval_expr(gen.iter), None)
                for cond in gen.ifs:
                    self.eval_expr(cond)
            if isinstance(node, ast.DictComp):
                return self.eval_expr(node.key) | self.eval_expr(node.value)
            return self.eval_expr(node.elt)
        if isinstance(node, ast.Starred):
            return self.eval_expr(node.value)
        if isinstance(node, ast.NamedExpr):
            taint = self.eval_expr(node.value)
            self.assign(node.target, taint, node.value)
            return taint
        if isinstance(node, ast.JoinedStr):
            return self.union(node.values)
        if isinstance(node, ast.FormattedValue):
            return self.eval_expr(node.value)
        if isinstance(node, ast.Slice):
            return (self.eval_expr(node.lower) | self.eval_expr(node.upper)
                    | self.eval_expr(node.step))
        return CLEAN

    def union(self, nodes: Sequence[ast.expr]) -> PTaint:
        taint = CLEAN
        for node in nodes:
            taint = taint | self.eval_expr(node)
        return taint

    def eval_compare(self, node: ast.Compare) -> PTaint:
        operands = [node.left] + list(node.comparators)
        if all(isinstance(op, (ast.Is, ast.IsNot)) for op in node.ops):
            for operand in operands:
                self.eval_expr(operand)
            return CLEAN
        taints = [self.eval_expr(operand) for operand in operands]
        has_eq = any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops)
        if has_eq and any(t.is_bytes for t in taints):
            requires = frozenset().union(*(t.params for t in taints))
            roots = frozenset().union(*(t.roots for t in taints))
            self.note_obs("compare", node, requires, EMPTY, roots,
                          "==/!= on bytes")
        return PTaint(
            secret=any(t.secret for t in taints),
            roots=frozenset().union(*(t.roots for t in taints)),
            params=frozenset().union(*(t.params for t in taints)),
            length=any(t.length for t in taints),
            length_roots=frozenset().union(*(t.length_roots for t in taints)),
            length_params=frozenset().union(
                *(t.length_params for t in taints)),
        )

    def eval_call(self, node: ast.Call) -> PTaint:
        func = node.func
        name = None
        base_taint = CLEAN
        struct_base = False
        if isinstance(func, ast.Name):
            name = func.id
        elif isinstance(func, ast.Attribute):
            name = func.attr
            base_taint = self.eval_expr(func.value)
            struct_base = isinstance(func.value, ast.Name) and \
                func.value.id == "struct"
        arg_nodes = list(node.args) + [kw.value for kw in node.keywords]

        self._check_spawn(node, name)

        if name in SANITIZERS:
            for arg in arg_nodes:
                self.eval_expr(arg)
            return CLEAN

        if name == "len" and len(node.args) == 1:
            inner = self.eval_expr(node.args[0])
            return PTaint(
                length=inner.secret or inner.length,
                length_roots=inner.roots | inner.length_roots,
                length_params=inner.params | inner.length_params,
            )

        arg_taint = self.union(arg_nodes) | base_taint

        # Serialization sinks (wire-message sizes).
        is_sink = (name == "encode_frame"
                   or (struct_base and name in ("pack", "pack_into"))
                   or (isinstance(func, ast.Attribute) and name == "to_bytes"))
        if is_sink:
            for arg in arg_nodes:
                taint = self.eval_expr(arg)
                # Record even when the taint is only param-conditional
                # (plain parameter flowing into the sink): the obs fires
                # later if a caller binds that param to len(secret).
                if taint.any_length or taint.params:
                    self.note_obs("len-sink", node, taint.length_params,
                                  taint.params, taint.length_roots,
                                  f"serialization sink {name}()")
                    break

        # Telemetry sinks (span attributes, metric labels, log fields).
        is_telemetry = (
            (isinstance(func, ast.Name) and name in TELEMETRY_NAME_SINKS)
            or (isinstance(func, ast.Attribute)
                and name in TELEMETRY_METHOD_SINKS)
        )
        if is_telemetry:
            for arg in arg_nodes:
                taint = self.eval_expr(arg)
                if taint.any_value or taint.any_length:
                    self.note_obs(
                        "telemetry", node,
                        taint.params | taint.length_params, taint.params,
                        taint.roots | taint.length_roots,
                        f"telemetry sink {name}()")
                    break

        # Resolve the callee and record the call edge.
        resolved = self.project.resolve_call(
            self.finfo.module, node, self.self_cid, self.type_env)
        fid = resolved[0] if resolved is not None else None
        if fid is not None:
            bound = not (isinstance(func, ast.Name)
                         and self.project.resolve_symbol(
                             self.finfo.module, func.id) == fid
                         and self.project.functions[fid].class_name is None) \
                and self.project.functions[fid].class_name is not None
            arg_map = self.project.bind_args(fid, node, bound=bound)
            edge_args = {param: self.eval_expr(expr)
                         for param, expr in arg_map.items()}
            self.summary.calls.append(CallEdge(
                callee=fid, line=node.lineno, col=node.col_offset,
                args=edge_args, held=self.held,
            ))
            self.dep_digests[fid] = self.builder.returns_digest(fid)
            callee = self.builder.summaries.get(fid)
            finfo = self.project.functions[fid]
            if fid in DECLASSIFIERS or finfo.name in DECLASSIFIERS or \
                    f"{finfo.module}:{finfo.qualname}" in DECLASSIFIERS:
                return PTaint(is_bytes=name in BYTES_PRODUCERS)
            result = CLEAN
            if callee is not None:
                result = self._subst(callee.returns, edge_args)
                # taints-params: the callee stored secrets into an arg.
                for param, stored in callee.taints_params.items():
                    expr = arg_map.get(param)
                    key = self._target_key(expr) if expr is not None else None
                    if key is not None:
                        substituted = self._subst(stored, edge_args)
                        self.env[key] = self.env.get(key, CLEAN) | substituted
            else:
                result = arg_taint
            if self._is_source_call(fid, finfo):
                result = result | PTaint(secret=True, roots=frozenset(
                    {f"{fid} [declared source call]"}))
            if name in BYTES_PRODUCERS:
                result = result | PTaint(is_bytes=True)
            return result

        # Unresolved call: conservative arg-taint propagation (matching
        # the intra-module engine's behaviour).
        if name in DECLASSIFIERS:
            return PTaint(is_bytes=name in BYTES_PRODUCERS)
        result = arg_taint
        if name in self.sources.source_calls:
            result = result | PTaint(secret=True, roots=frozenset(
                {f"{self.finfo.module}:{name}() [declared source call]"}))
        if name in BYTES_PRODUCERS:
            result = result | PTaint(is_bytes=True)
        return result

    def _is_source_call(self, fid: str, finfo) -> bool:
        """Whether the callee is a declared source in *its own* module."""
        target = self.project.modules.get(finfo.module)
        if target is None:
            return False
        callee_sources = self.builder.sources_for_path(target.path)
        return finfo.name in callee_sources.source_calls

    @staticmethod
    def _subst(summary_taint: PTaint, args: Dict[str, PTaint]) -> PTaint:
        """Substitute call-site argument taints into a callee summary."""
        result = PTaint(secret=summary_taint.secret,
                        roots=summary_taint.roots,
                        length=summary_taint.length,
                        length_roots=summary_taint.length_roots,
                        is_bytes=summary_taint.is_bytes)
        for param in summary_taint.params:
            arg = args.get(param)
            if arg is None:
                continue
            result = result | PTaint(
                secret=arg.secret, roots=arg.roots, params=arg.params,
                length=arg.length, length_roots=arg.length_roots,
                length_params=arg.length_params)
        for param in summary_taint.length_params:
            arg = args.get(param)
            if arg is None:
                continue
            result = result | PTaint(
                length=arg.secret or arg.length,
                length_roots=arg.roots | arg.length_roots,
                length_params=arg.params | arg.length_params)
        return result

    # -- escape analysis -----------------------------------------------

    def _check_spawn(self, node: ast.Call, name: Optional[str]) -> None:
        """Detect annotated state escaping through a thread/process spawn."""
        if not self.annotations.guards and not self.annotations.owners:
            return
        escaping: List[ast.expr] = []
        thread_args: List[ast.expr] = []
        if name in _SPAWN_CONSTRUCTORS:
            for keyword in node.keywords:
                if keyword.arg == "target":
                    escaping.append(keyword.value)
                elif keyword.arg in ("args", "kwargs"):
                    thread_args.append(keyword.value)
        elif isinstance(node.func, ast.Attribute) and name in _SPAWN_METHODS:
            if node.args:
                escaping.append(node.args[0])
                thread_args.extend(node.args[1:])
            thread_args.extend(kw.value for kw in node.keywords)
        else:
            return
        for target in escaping:
            self._check_escaping_callable(target, node)
        for extra in thread_args:
            self._check_thread_arg(extra, node)

    def _check_escaping_callable(self, target: ast.expr,
                                 site: ast.Call) -> None:
        if isinstance(target, ast.Lambda):
            self._scan_closure_body([ast.Expr(value=target.body)], site)
            return
        if isinstance(target, ast.Name):
            nested = self._find_nested_def(target.id)
            if nested is not None:
                self._scan_closure_body(nested.body, site)
            return
        if isinstance(target, ast.Attribute) and \
                isinstance(target.value, ast.Name) and \
                target.value.id == "self" and self.self_cid is not None:
            fid = self.project.lookup_method(self.self_cid, target.attr)
            if fid is None:
                return
            method = self.project.functions[fid]
            for attr, owner in self.annotations.owners.items():
                if method.name.startswith(owner) or method.name == "__init__":
                    continue  # handing off to the owning family is the point
                if _method_touches_attr(method.node, attr):
                    self.summary.escapes.append(EscapeSite(
                        line=site.lineno, col=site.col_offset, attr=attr,
                        annotation="owned-by", owner=owner,
                        mechanism=f"bound-method {target.attr}"))

    def _find_nested_def(self, name: str):
        for stmt in ast.walk(self.finfo.node):
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and stmt.name == name and stmt is not self.finfo.node:
                return stmt
        return None

    def _scan_closure_body(self, body: Sequence[ast.stmt],
                           site: ast.Call) -> None:
        """A closure crossing a thread boundary: owned state may not be
        touched at all; guarded state may not be mutated lock-free."""
        for attr, owner in self.annotations.owners.items():
            if _body_references_attr(body, attr):
                self.summary.escapes.append(EscapeSite(
                    line=site.lineno, col=site.col_offset, attr=attr,
                    annotation="owned-by", owner=owner,
                    mechanism="closure"))
        for attr, guard in self.annotations.guards.items():
            if _body_mutates_attr_unlocked(body, attr, guard):
                self.summary.escapes.append(EscapeSite(
                    line=site.lineno, col=site.col_offset, attr=attr,
                    annotation="guarded-by", owner=guard,
                    mechanism="closure"))

    def _check_thread_arg(self, expr: ast.expr, site: ast.Call) -> None:
        for node in ast.walk(expr):
            if isinstance(node, ast.Attribute) and \
                    isinstance(node.value, ast.Name) and \
                    node.value.id == "self" and \
                    node.attr in self.annotations.owners:
                self.summary.escapes.append(EscapeSite(
                    line=site.lineno, col=site.col_offset, attr=node.attr,
                    annotation="owned-by",
                    owner=self.annotations.owners[node.attr],
                    mechanism="thread-arg"))


def _method_touches_attr(node, attr: str) -> bool:
    for child in ast.walk(node):
        if isinstance(child, ast.Attribute) and child.attr == attr and \
                isinstance(child.value, ast.Name) and child.value.id == "self":
            return True
    return False


def _body_references_attr(body: Sequence[ast.stmt], attr: str) -> bool:
    for stmt in body:
        if _method_touches_attr(stmt, attr):
            return True
    return False


def _body_mutates_attr_unlocked(body: Sequence[ast.stmt], attr: str,
                                guard: str) -> bool:
    """Whether the closure writes the guarded attr outside ``with guard:``."""

    def mutates(stmts: Sequence[ast.stmt], held: bool) -> bool:
        for stmt in stmts:
            if isinstance(stmt, ast.With):
                inner = held or any(
                    _final_name(item.context_expr) == guard
                    for item in stmt.items)
                if mutates(stmt.body, inner):
                    return True
                continue
            if held:
                continue
            for node in ast.walk(stmt):
                if isinstance(node, (ast.Assign, ast.AugAssign)):
                    targets = (node.targets if isinstance(node, ast.Assign)
                               else [node.target])
                    for target in targets:
                        if isinstance(target, ast.Attribute) and \
                                target.attr == attr:
                            return True
                elif isinstance(node, ast.Call) and \
                        isinstance(node.func, ast.Attribute) and \
                        node.func.attr in _MUTATORS and \
                        _final_name(node.func.value) == attr:
                    return True
        return False

    return mutates(body, False)


def _annotation_cid(project: Project, module: str,
                    annotation: Optional[ast.expr]) -> Optional[str]:
    """Resolve a parameter annotation to a class id, if it names one.

    Handles plain names, dotted names, string annotations, and
    ``Optional[X]`` — enough to type lock holders and method receivers.
    """
    if annotation is None:
        return None
    if isinstance(annotation, ast.Constant) and \
            isinstance(annotation.value, str):
        text = annotation.value.strip().strip("\"'")
        if text.isidentifier() or all(
                part.isidentifier() for part in text.split(".")):
            target = project.resolve_dotted(module, text)
            return target if target in project.classes else None
        return None
    if isinstance(annotation, ast.Subscript):
        slice_node = annotation.slice
        if isinstance(slice_node, ast.Tuple):
            for element in slice_node.elts:
                cid = _annotation_cid(project, module, element)
                if cid is not None:
                    return cid
            return None
        return _annotation_cid(project, module, slice_node)
    from repro.analysis.wholeprogram.callgraph import _dotted
    dotted = _dotted(annotation)
    if dotted is None:
        return None
    target = project.resolve_dotted(module, dotted)
    return target if target in project.classes else None


def _class_attr_types(project: Project, cid: str) -> Dict[str, str]:
    """Instance-attribute types inferred from ``__init__`` (annotation or
    constructor assignment) — enough to canonicalise lock holders."""
    out: Dict[str, str] = {}
    init_fid = project.lookup_method(cid, "__init__")
    if init_fid is None:
        return out
    init = project.functions[init_fid]
    module = init.module
    # Parameter annotations: ``def __init__(self, server: ZltpServer)``.
    annotated: Dict[str, str] = {}
    for arg in init.node.args.args:
        cid_of_arg = _annotation_cid(project, module, arg.annotation)
        if cid_of_arg is not None:
            annotated[arg.arg] = cid_of_arg
    for stmt in ast.walk(init.node):
        if not isinstance(stmt, ast.Assign):
            continue
        for target in stmt.targets:
            if not (isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"):
                continue
            if isinstance(stmt.value, ast.Name) and \
                    stmt.value.id in annotated:
                out[target.attr] = annotated[stmt.value.id]
            elif isinstance(stmt.value, ast.Call):
                resolved = project.resolve_call(module, stmt.value)
                if resolved is not None and resolved[1] is not None:
                    out[target.attr] = resolved[1]
    return out


__all__ = [
    "PTaint",
    "CLEAN",
    "Obs",
    "CallEdge",
    "EscapeSite",
    "FunctionSummary",
    "ModuleAnnotations",
    "SummaryBuilder",
    "DECLASSIFIERS",
]
