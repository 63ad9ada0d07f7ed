"""On-disk summary cache for the whole-program engine.

One JSON file holds, per analyzed module path:

- the sha256 of the module's source at extraction time,
- every extracted :class:`FunctionSummary` (serialized),
- the dependency digests: for each function, the returns-summary digest
  of every callee it composed with during extraction.

Validity is two-layered. A module's entry is *content-valid* when its
file hash matches. It is *dependency-valid* when every callee digest it
recorded still matches the callee's current returns summary — so
editing ``crypto/dpf.py`` in a way that changes what ``gen_dpf`` returns
invalidates the cached summaries of every caller module too, while a
comment-only edit (same extracted summaries) invalidates nothing
downstream. The engine re-extracts exactly the invalid set.

The global propagation phase (:mod:`.interproc`) always re-runs over the
full summary pool, so a cached run's findings are identical to a cold
run's by construction — the cache can only skip *extraction*, never
*evaluation*.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Dict, Optional

#: Bump when summary extraction changes shape or semantics: any cache
#: written by a different analyzer version is ignored wholesale.
ANALYZER_VERSION = "wp-3"


def source_digest(source: str) -> str:
    """Content key for one module's source text."""
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


def load_cache(path: Optional[str]) -> Dict:
    """Load a summary cache; unreadable/stale caches are just empty."""
    if not path or not os.path.isfile(path):
        return {"version": ANALYZER_VERSION, "modules": {}}
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = json.load(handle)
    except (OSError, ValueError):
        return {"version": ANALYZER_VERSION, "modules": {}}
    if raw.get("version") != ANALYZER_VERSION or \
            not isinstance(raw.get("modules"), dict):
        return {"version": ANALYZER_VERSION, "modules": {}}
    return raw


def save_cache(path: str, modules: Dict[str, Dict]) -> None:
    """Persist the post-extraction summary pool (best effort)."""
    payload = {"version": ANALYZER_VERSION, "modules": modules}
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, sort_keys=True)
        os.replace(tmp, path)
    except OSError:
        try:
            os.unlink(tmp)
        except OSError:
            pass


__all__ = ["ANALYZER_VERSION", "source_digest", "load_cache", "save_cache"]
