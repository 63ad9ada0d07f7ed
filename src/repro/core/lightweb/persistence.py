"""Saving and restoring content universes — the CDN restart story.

A real CDN's "single logical ZLTP server ... comprised of thousands of
physical machines configured for fault-tolerance" (§3.1) persists its
content. This module serialises a :class:`ContentUniverse` — both blob
databases, the keyword placements, and the ownership registry — into one
``.npz`` archive, and restores it bit-for-bit, so a ``lightweb serve``
process can restart without publishers re-pushing.

Format: numpy arrays for the two packed stores plus a JSON metadata blob
(geometry, salt, owners, occupied slots, cuckoo placements).
"""

from __future__ import annotations

import json
import zipfile
from pathlib import Path

import numpy as np

from repro.core.lightweb.universe import ContentUniverse
from repro.errors import CryptoError, PathError, ProtocolError
from repro.pir.database import BlobDatabase

FORMAT_VERSION = 1


def save_universe(universe: ContentUniverse, path: str) -> None:
    """Write a universe to ``path`` (a ``.npz`` archive)."""
    meta = {
        "format": FORMAT_VERSION,
        "name": universe.name,
        "code_blob_size": universe.code_blob_size,
        "data_blob_size": universe.data_blob_size,
        "code_domain_bits": universe.code_db.domain_bits,
        "data_domain_bits": universe.data_db.domain_bits,
        "fetch_budget": universe.fetch_budget,
        "probes": universe.probes,
        "salt": universe.salt.hex(),
        "owners": {d: universe.owner_of(d) for d in universe.domains()},
        "code_occupied": sorted(universe.code_db.occupied_slots()),
        "data_occupied": sorted(universe.data_db.occupied_slots()),
        "code_placements": dict(universe._code_index._records_for_save()),
        "data_placements": dict(universe._data_index._records_for_save()),
    }
    np.savez_compressed(
        path,
        meta=np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8),
        code_storage=universe.code_db._storage,
        data_storage=universe.data_db._storage,
    )


def load_universe(path: str) -> ContentUniverse:
    """Restore a universe saved by :func:`save_universe`.

    Raises:
        ProtocolError: on a missing file, an unrecognised format, or
            members missing or not matching the metadata's geometry.
    """
    if not Path(path).exists():
        raise ProtocolError(f"no universe archive at {path}")
    try:
        with np.load(path, allow_pickle=False) as archive:
            meta = json.loads(bytes(archive["meta"]).decode("utf-8"))
            if meta.get("format") != FORMAT_VERSION:
                raise ProtocolError(
                    f"unsupported universe format {meta.get('format')!r}")
            universe = ContentUniverse(
                meta["name"],
                code_blob_size=int(meta["code_blob_size"]),
                data_blob_size=int(meta["data_blob_size"]),
                code_domain_bits=int(meta["code_domain_bits"]),
                data_domain_bits=int(meta["data_domain_bits"]),
                fetch_budget=int(meta["fetch_budget"]),
                probes=int(meta["probes"]),
                salt=bytes.fromhex(meta["salt"]),
            )
            for kind, db in (("code", universe.code_db),
                             ("data", universe.data_db)):
                _restore_store(db, kind, archive[f"{kind}_storage"],
                               meta[f"{kind}_occupied"])
        for domain, owner in meta["owners"].items():
            universe.register_domain(owner, domain)
        universe._code_index._restore_placements(meta["code_placements"])
        universe._data_index._restore_placements(meta["data_placements"])
    except (ValueError, KeyError, TypeError, AttributeError,
            zipfile.BadZipFile, CryptoError, PathError) as exc:
        raise ProtocolError(f"corrupt universe archive {path}: {exc}") from exc
    return universe


def _restore_store(db: BlobDatabase, kind: str, storage: np.ndarray,
                   occupied) -> None:
    """Copy one saved store into ``db`` if it fits ``db``'s geometry."""
    want = db._storage
    if storage.dtype != want.dtype or storage.shape != want.shape:
        raise ProtocolError(f"{kind}_storage is {storage.dtype}{storage.shape}"
                            f", geometry needs {want.dtype}{want.shape}")
    slots = np.asarray(occupied, dtype=np.int64).reshape(-1)
    if ((slots < 0) | (slots >= db.n_slots)).any():
        raise ProtocolError(f"{kind}_occupied names a slot out of range")
    want[:] = storage
    db._occupied[slots] = True


__all__ = ["save_universe", "load_universe", "FORMAT_VERSION"]
