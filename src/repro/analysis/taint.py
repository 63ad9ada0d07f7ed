"""The secret-taint rule vocabulary: sources, sanitizers, sinks.

The zero-leakage discipline (PAPER.md §2/§3) demands that nothing the
server or network observes — branches taken, message sizes, comparison
timing — depends on a client secret. *Declared* secret sources (function
parameters, attributes, and producer calls, configured per module in
:mod:`repro.analysis.rules`) are propagated through assignments, tuple
unpacking, operators, and calls across the whole program by the
summary walk in :mod:`repro.analysis.wholeprogram.summaries`, and four
rules fire where a secret reaches an observable channel:

- ``secret-branch`` — an ``if``/``while``/conditional-expression test
  depends on a secret *value* (early returns are caught because the
  branch itself is flagged).
- ``secret-compare`` — ``==``/``!=`` with a secret operand where either
  side is byte-string-like; these must use ``hmac.compare_digest``.
- ``secret-len`` — a secret-derived *length* reaches a serialization
  sink (``struct.pack``/``pack_into``, ``encode_frame``, ``.to_bytes``),
  i.e. a wire message whose size depends on a secret.
- ``telemetry-leak`` — a secret-tainted value (or secret-derived
  length) reaches an observability sink: a ``span(...)`` call, a span
  ``annotate``, a metric ``inc``/``set``/``observe``/``labels``, or a
  logger call (``info``/``warning``/...). Telemetry is an observable
  channel exactly like a wire message — a metric labelled by a
  secret-derived value turns series cardinality into a query log.

Deliberate carve-outs keep the signal high:

- ``x is None`` / ``is not None`` tests are untainted (presence checks
  on public structure, the idiom for "key absent" resolution).
- An ``if`` whose body is only ``raise`` is an abort-on-invalid guard:
  it never produces a secret-dependent *success* path of different
  shape, so it is not flagged.
- ``len(secret)`` yields only the weak LENGTH taint: branching on a
  length is not flagged (lengths of fixed-size blobs are public), but a
  LENGTH value flowing into a serialization sink still is.
- Storing into a container (``d[k] = v``, ``xs.append(v)``) does not
  taint the container; element loads from a tainted container do taint.
- ``for`` loops and comprehension filters are not flagged: iteration
  counts over fixed-size structures are public in this codebase.

This module holds only the vocabulary those rules share: the
:class:`ModuleSources` declaration and the sanitizer, bytes-producer
and telemetry-sink name sets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set

#: Calls whose result is byte-string-like; a tainted one is "secret bytes"
#: for the ``secret-compare`` rule.
BYTES_PRODUCERS = {
    "digest", "hexdigest", "tobytes", "to_bytes", "bytes",
    "leaf_hash", "node_hash", "key_digest",
}

#: Calls that erase taint: constant-time comparison and type checks.
SANITIZERS = {"compare_digest", "isinstance"}

#: Observability sinks for the ``telemetry-leak`` rule. Bare names are
#: matched for direct calls (``span(...)``, ``metric(...)``, the metrics
#: snapshot builder); method names for attribute calls
#: (``sp.annotate(...)``, ``counter.inc(...)``, ``log.info(...)``).
#: ``log`` itself is deliberately absent: ``math.log``/``np.log`` are
#: attribute calls named ``log`` and are arithmetic, not telemetry.
TELEMETRY_NAME_SINKS = {"span", "metric"}
TELEMETRY_METHOD_SINKS = {
    "annotate", "inc", "set", "observe", "labels",
    "debug", "info", "warning", "error", "exception", "critical",
}


@dataclass
class ModuleSources:
    """Declared secret sources for one module.

    Attributes:
        params: function qualname (``Class.method``) or bare name →
            parameter names that carry secrets.
        source_calls: names of calls whose *result* is secret (e.g. a
            seed or key generator defined or used in this module).
        secret_attrs: ``self.<attr>`` names that hold secrets.
    """

    params: Dict[str, List[str]] = field(default_factory=dict)
    source_calls: Set[str] = field(default_factory=set)
    secret_attrs: Set[str] = field(default_factory=set)

    def params_for(self, qualname: str, name: str) -> List[str]:
        if qualname in self.params:
            return self.params[qualname]
        return self.params.get(name, [])


__all__ = [
    "ModuleSources",
    "BYTES_PRODUCERS",
    "SANITIZERS",
    "TELEMETRY_NAME_SINKS",
    "TELEMETRY_METHOD_SINKS",
]
